"""Families of representations and the verdicts they certify.

A family can be checked for three nested completeness grades:

* full       -- its supports cover every enumerated primitive point;
* exhausting -- every irreducible representation is weakly contained in
                some member;
* faithful   -- its supports are dense at grid resolution: every
                uncovered primitive point lies within one grid step of an
                evaluation member.

Every model here is a separable C*-algebra, where a family is exhausting
iff every irreducible representation is weakly contained in some member,
so the primitive-point cover that decides full decides exhausting too.
family_report takes all three verdicts and their witnesses from that
cover and builds no member image.  invertible_via_family answers the
invertible query from one pass over the member images and one cover: the
naive member-wise check, the exhausting route (no bound) and the
faithful route (one uniform inverse bound each) all read only the
smallest member singular value.  Both routes count it invertible only
when it clears max(resolution, lipschitz * grid_step); anything less is
"not invertible at this resolution".
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import ToolkitError, UnsupportedModel
from .models import (
    AlgebraElement,
    Element,
    FunctionModel,
    Representation,
    ToeplitzElement,
    ToeplitzModel,
    _acting_error,
    _acting_layout,
    _images,
    _layout,
    _Layout,
    enum_prim,
    rep_apply,
)
from .observables import Observable, spec_union_observable
from .spectral import DEFAULT_RESOLUTION, SpectrumSet, eig_normal, self_adjoint

_SLACK = 1e-9


@dataclass(frozen=True)
class RepFamily:
    """Nonempty list of representations of one model, each acting on it.

    The members are checked against the model once, here.  What the
    queries share is kept on the family: the members' layout on its model,
    the cover and its verdicts, and each element's member values.
    """

    model: FunctionModel | ToeplitzModel
    members: tuple[Representation, ...]
    label: str = ""
    _memo: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.members:
            raise ValueError("a family needs at least one member")
        for m in self.members:
            if _acting_error(m, self.model) is not None:
                raise ValueError(f"member {m.label} does not act on this model")

    def __reduce__(self):
        # weak references do not pickle: a copy is built anew from the fields
        return RepFamily, (self.model, self.members, self.label)

    @cached_property
    def _layout(self) -> _Layout:
        """The members' layout on the family's model, once per family."""
        return _layout(self.members, self.model)

    def _layout_on(self, model) -> _Layout | None:
        """The kept layout on the family's model or an equal one, else None."""
        return self._layout if model is self.model or model == self.model else None

    def _values_of(self, a: Element) -> tuple[tuple[float, float], ...]:
        """_member_values of the members, once per element: the memo holds
        elements weakly and by identity, as they compare."""
        if a not in self._memo:
            self._memo[a] = _member_values(self.members, a, self._layout_on(a.model))
        return self._memo[a]

    @cached_property
    def _cover(self) -> tuple[Representation, ...]:
        """The primitive points outside every member's support closure, in order.

        The cover runs once per family: it is kept on the family, so every
        check and query on the family reads the same one.
        """
        return _uncovered(self)

    @cached_property
    def _checks(self) -> tuple[CheckResult, CheckResult, CheckResult]:
        """The full, exhausting and faithful verdicts, once per family."""
        return _verdicts(self)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: str | None = None
    detail: str = ""


@dataclass(frozen=True)
class FamilyReport:
    """Serialized outcome of the three completeness checks."""

    label: str
    faithful: bool
    exhausting: bool
    full: bool
    faithful_witness: str | None
    exhausting_witness: str | None
    full_witness: str | None
    probes_used: tuple[str, ...]
    tolerances: MappingProxyType

    def __post_init__(self):
        if self.full and not self.exhausting:
            raise RuntimeError("report violates full => exhausting")
        if self.exhausting and not self.faithful:
            raise RuntimeError("report violates exhausting => faithful")

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "faithful": self.faithful,
            "exhausting": self.exhausting,
            "full": self.full,
            "witnesses": {
                "faithful": self.faithful_witness,
                "exhausting": self.exhausting_witness,
                "full": self.full_witness,
            },
            "probes_used": list(self.probes_used),
            "tolerances": dict(self.tolerances),
        }


# ---------------------------------------------------------------------------
# member images


def _member_values(
    members: tuple[Representation, ...], a: Element, layout: _Layout | None = None
) -> tuple[tuple[float, float], ...]:
    """(norm, sigma_min) of each member's image of the element.

    A whole-fiber evaluation reads the element's kept solve (_svals_at),
    each other stack of equal-shape images one batched SVD, the section
    ladder its sweep: the largest section norm and the top section's
    sigma_min.  An empty image counts as (0, 0).  layout is as in _images.
    """
    if layout is None:
        layout = _acting_layout(members, a.model)
    out = [(0.0, 0.0)] * len(members)
    if layout.ladders:  # only a symbol-model element gets here
        est, sigma, _ = a._section_sweep
        for i in layout.ladders:
            out[i] = (est.value, sigma)
        layout = layout._replace(ladders=())
    groups, solved, values = dict(layout.groups), [], None
    if (whole := groups.pop(None, None)) is not None:  # whole-fiber evaluations
        values, at = a._evaluate(layout.points)
        solved.append((whole[0], a._svals_at(values[whole[1]], at[whole[1]])))
    for pos, stack in _images(members, a, layout._replace(groups=groups), values):
        if stack.size:
            solved.append((pos, np.linalg.svd(stack, compute_uv=False)))
    for pos, svals in solved:
        for i, top, low in zip(pos.tolist(), svals[:, 0].tolist(), svals[:, -1].tolist()):
            out[i] = (top, low)
    return tuple(out)


def norm_via_family(family: RepFamily, a: Element) -> float:
    """sup of member image norms; equals the norm for exhausting families."""
    return max(norm for norm, _ in family._values_of(a))


def n_a_profile(a: Element) -> list[tuple[Representation, float]]:
    """Norm of the element's image at every primitive point."""
    prims = enum_prim(a.model)
    return [(p, norm) for p, (norm, _) in zip(prims, _member_values(prims, a))]


# ---------------------------------------------------------------------------
# the three completeness checks

_SYMBOL_PROBES = ("probe:1", "probe:S", "adj(S)", "probe:2cos", "probe:e00")


def _position(x: Representation) -> float | None:
    """Base point or angle of a member or primitive point; None for pi."""
    return x.point if x.theta is None else x.theta


def _member_supports(family: RepFamily, prims: tuple[Representation, ...]) -> set[str]:
    """Labels of the primitive points in the closure of some member's support.

    A section-ladder member covers every point, its closure being the
    whole dual.  Every other point is closed: each other member finds the
    points it evaluates at by bisection over the primitive points sorted
    by base point (or angle), within 1e-12.  Positions on a circle base
    (period 1) and angles (period 2 pi) are compared cyclically: the
    primitive points lie in [0, period), so a member position x is looked
    up at x mod period and one period below.
    """
    located = sorted((p for p in prims if _position(p) is not None), key=_position)
    keys = [_position(p) for p in located]
    if isinstance(family.model, ToeplitzModel):
        period = 2.0 * np.pi
    else:
        period = 1.0 if family.model.space.kind == "circle" else None
    covered: set[str] = set()
    for member in family.members:
        x = _position(member)
        if x is None:
            return {p.label for p in prims}
        xs = (x,) if period is None else (x % period, x % period - period)
        covered.update(
            p.label
            for y in xs
            for p in located[bisect_left(keys, y - 2e-12):bisect_right(keys, y + 2e-12)]
            if abs(_position(p) - y) <= 1e-12 and member.block in (None, p.block)
        )
    return covered


def _uncovered(family: RepFamily) -> tuple[Representation, ...]:
    """Primitive points outside every member's support closure, in order."""
    prims = enum_prim(family.model)
    covered = _member_supports(family, prims)
    return tuple(p for p in prims if p.label not in covered)


def check_full(family: RepFamily) -> CheckResult:
    """Exact support cover of the enumerated primitive points."""
    uncovered = family._cover
    if uncovered:
        return CheckResult(False, uncovered[0].label, "uncovered primitive point")
    return CheckResult(True)


def _theta_radius(thetas: list[float]) -> float:
    """Half the largest gap between neighbouring angles around the circle."""
    ts = sorted(th % (2.0 * np.pi) for th in thetas)
    gaps = [b - a for a, b in zip(ts, ts[1:])]
    gaps.append(ts[0] + 2.0 * np.pi - ts[-1])
    return max(gaps) / 2.0


def _tent_label(p: Representation) -> str:
    """Label of the tent probe centred at a base point: ev(t)[i] -> tent(t)[i]."""
    return "tent" + p.label[2:]


def _sparse_point(
    family: RepFamily, uncovered: tuple[Representation, ...]
) -> Representation | None:
    """First uncovered point farther than one grid step from every evaluation.

    The nearest evaluation is a neighbour of the point in the sorted
    evaluation points (taken mod 1 on the circle, cyclically).
    """
    evals = [m.point for m in family.members if m.kind == "eval"]
    if not evals:
        return uncovered[0]
    space = family.model.space
    key = (lambda t: t % 1.0) if space.kind == "circle" else (lambda t: t)
    evals.sort(key=key)
    keys = [key(q) for q in evals]
    for p in uncovered:
        i = bisect_left(keys, key(p.point))
        if not any(
            space.distance(p.point, evals[j % len(evals)]) <= space.grid_step + 1e-12
            for j in (i - 1, i)
        ):
            return p
    return None


def _verdicts(family: RepFamily) -> tuple[CheckResult, CheckResult, CheckResult]:
    """Full, exhausting and faithful verdicts from the primitive-point cover.

    Every model here is a separable C*-algebra, and there a family is
    exhausting iff every irreducible representation is weakly contained
    in some member: exhausting is full.  Faithful is density of the
    supports: every uncovered point lies within one grid step of an
    evaluation.  On a symbol model both mean that the section ladder is a
    member, since characters annihilate the corner probe e00.
    Witnesses name the probe of the first failing point.  All three read
    the family's one cover; queries read them through RepFamily._checks.
    """
    full = check_full(family)
    if full.ok:
        return full, full, full
    if isinstance(family.model, ToeplitzModel):
        exhausting = CheckResult(False, "probe:e00", "pi is weakly contained in no member")
        faithful = CheckResult(False, "probe:e00", "nonzero probe annihilated by every member")
        return full, exhausting, faithful
    uncovered = family._cover
    first = uncovered[0]
    exhausting = CheckResult(
        False, _tent_label(first), f"{first.label} is weakly contained in no member"
    )
    sparse = _sparse_point(family, uncovered)
    if sparse is None:
        faithful = CheckResult(True)
    elif family.model.space.grid_step == 0:
        faithful = CheckResult(
            False, _tent_label(sparse), "nonzero probe annihilated by every member"
        )
    else:
        faithful = CheckResult(False, sparse.label, "open region uncovered beyond grid resolution")
    return full, exhausting, faithful


def _probe_labels(model, probes: tuple[Element, ...]) -> tuple[str, ...]:
    """The probe gallery by label: identity, one tent per primitive point
    (the five symbol probes on a symbol model), then each user element and
    its norm-gap probe |a|^2 - a*a."""
    if isinstance(model, ToeplitzModel):
        base = _SYMBOL_PROBES
    else:
        base = ("probe:1",) + tuple(_tent_label(p) for p in enum_prim(model))
    return base + tuple(label for a in probes for label in (a.label, f"gap({a.label})"))


def family_report(family: RepFamily, probes: tuple[Element, ...] = ()) -> FamilyReport:
    """All three verdicts from one primitive-point cover; the user elements
    in probes add their labels to probes_used and change no verdict."""
    full, exhausting, faithful = family._checks
    return FamilyReport(
        label=family.label,
        faithful=faithful.ok,
        exhausting=exhausting.ok,
        full=full.ok,
        faithful_witness=faithful.witness,
        exhausting_witness=exhausting.witness,
        full_witness=full.witness,
        probes_used=_probe_labels(family.model, tuple(probes)),
        tolerances=MappingProxyType({"slack": _SLACK}),
    )


# ---------------------------------------------------------------------------
# invertibility


def invertibility_threshold(a: Element, tol: float = DEFAULT_RESOLUTION) -> float:
    """Smallest singular value a member image must clear to count invertible."""
    if isinstance(a, AlgebraElement):
        return max(tol, a.lipschitz_bound * a.model.space.grid_step)
    return tol


@dataclass(frozen=True)
class InvertibilityVerdict:
    """The naive member-wise check and both certified routes of one query.

    The naive check misleads for faithful-but-not-exhausting families.  A
    route without its certificate is {"certified": False, "reason": ...},
    the reason naming the witness; faithful_route has one entry per bound.
    """

    threshold: float
    member_min_sigma: float
    members_all_invertible: bool
    exhausting_route: dict
    faithful_route: tuple[dict, ...]


def invertible_via_family(
    family: RepFamily,
    a: Element,
    tol: float = DEFAULT_RESOLUTION,
    bounds: tuple[float, ...] = (),
) -> InvertibilityVerdict:
    """All three verdicts from one image pass and one primitive-point cover.

    Each reads the images only through the smallest member singular value
    sigma: naive sigma > tol, exhausting sigma > invertibility_threshold,
    faithful also sigma * bound >= 1 for each uniform inverse bound.
    """
    if any(b <= 0 for b in bounds):
        raise ValueError("the uniform inverse bound must be positive")
    sigma = min(s for _, s in family._values_of(a))
    threshold = invertibility_threshold(a, tol)
    _, exhausting, faithful = family._checks

    def route(check: CheckResult, grade: str, invertible: bool) -> dict:
        if check.ok:
            return {"certified": True, "invertible": invertible}
        reason = (
            f"family {family.label!r} is not {grade} over the probe gallery "
            f"(witness {check.witness})"
        )
        return {"certified": False, "reason": reason}

    clears = bool(sigma > threshold)
    return InvertibilityVerdict(
        threshold=float(threshold),
        member_min_sigma=float(sigma),
        members_all_invertible=bool(sigma > tol),
        exhausting_route=route(exhausting, "exhausting", clears),
        faithful_route=tuple(
            {"bound": b, **route(faithful, "faithful", clears and b * sigma >= 1 - 1e-12)}
            for b in map(float, bounds)
        ),
    )


@dataclass(frozen=True)
class DirectCheck:
    invertible: bool
    sigma_min: float
    margin: float


def direct_invertible(a: AlgebraElement, tol: float = DEFAULT_RESOLUTION) -> DirectCheck:
    """Certified direct invertibility over a midpoint-refined grid."""
    if not isinstance(a, AlgebraElement):
        raise UnsupportedModel("direct invertibility applies to function-model elements")
    sigma, margin = a._direct_sweep
    return DirectCheck(bool(margin > tol), sigma, margin)


# ---------------------------------------------------------------------------
# spectra and Fredholm detection


def spectrum_union(
    family: RepFamily, a: Element, tol: float = 1e-9
) -> SpectrumSet:
    """Canonicalized union of member spectra.

    Under an exhausting certificate the union equals the spectrum; under
    a faithful certificate it is dense in it.  Each member image must be
    normal (eig_normal enforces this fiberwise).  Images equal to their
    adjoint entry for entry and not all zero are normal by construction:
    each stack of them goes through one batched eigvalsh.  Every other image
    goes through eig_normal, in member order, so the first member that is
    not normal raises.  If some member has no image, the members are
    solved one at a time, so the first that fails decides the error.  The
    union is the canonical set of the members' canonical spectra, taken
    in member order.
    """
    try:
        stacks = _images(family.members, a, family._layout_on(a.model))
    except ToolkitError:
        for member in family.members:  # the first member that fails decides the error
            eig_normal(rep_apply(member, a), tol)
        raise
    spectra: list = [()] * len(family.members)
    rest = []
    kept = vars(a).get("_section_sweep", (None,) * 3)[2]  # the ladder sweep's, if it ran
    for pos, stack in stacks:
        plain = self_adjoint(stack) & stack.any(axis=(1, 2))
        if plain.any():
            lone = kept is not None and len(pos) == 1 and family.members[pos[0]].kind == "toeplitz-identity"
            try:  # ascending rows; a lone ladder image reads those its kept sweep found
                w = kept[None] if lone else np.linalg.eigvalsh(stack if plain.all() else stack[plain])
            except np.linalg.LinAlgError:
                plain[:] = False  # eig_normal below names the member
            else:
                close = (np.diff(w, axis=1) <= tol).any(axis=1)
                for i, row, merge in zip(pos[plain].tolist(), w, close.tolist()):
                    spectra[i] = SpectrumSet.canonical(row, tol).values if merge else row
        rest += zip(pos[~plain].tolist(), stack[~plain])
    for i, image in sorted(rest, key=lambda r: r[0]):
        spectra[i] = eig_normal(image, tol).values
    # float unless some member spectrum has a point off the real axis
    points = np.concatenate([np.zeros(0), *spectra])
    truncated = any(m.kind == "toeplitz-identity" for m in family.members)
    return SpectrumSet.canonical(points, tol, truncated)


def observable_spectrum_union(
    family: RepFamily, a: Element, resolution: float = DEFAULT_RESOLUTION
) -> SpectrumSet:
    """Union of the member images' spectra by the Cayley route; the ladder's is truncated."""
    members: list = [None] * len(family.members)
    for pos, stack in _images(family.members, a, family._layout_on(a.model)):
        for i, image in zip(pos.tolist(), stack):
            ladder = family.members[i].kind == "toeplitz-identity"
            members[i] = Observable.fibered([image], truncated=ladder)
    return spec_union_observable(members, resolution)


@dataclass(frozen=True)
class FredholmVerdict:
    fredholm: bool
    inverse_bound: float | None
    failing_theta: float | None
    min_symbol: float
    certified_margin: float


def fredholm_via_family(
    family: RepFamily, x: ToeplitzElement, tol: float = DEFAULT_RESOLUTION
) -> FredholmVerdict:
    """Fredholm detection through the character family of the symbol.

    The finite-rank correction is invisible to characters, which is
    exactly the quotient the symbol lives in.  Nonvanishing is certified
    between samples by the symbol's slope bound; the reported uniform
    bound is 1 / min |symbol|.
    """
    if not isinstance(family.model, ToeplitzModel) or not isinstance(x, ToeplitzElement):
        raise UnsupportedModel("Fredholm detection applies to symbol-model elements")
    thetas = [m.theta for m in family.members if m.kind == "toeplitz-character"]
    if len(thetas) != len(family.members):
        raise UnsupportedModel("the quotient family must consist of characters")
    vals = [abs(x.symbol_at(th)) for th in thetas]
    worst = int(np.argmin(vals))
    min_symbol = vals[worst]
    margin = min_symbol - x.symbol_slope_bound() * _theta_radius(thetas)
    ok = bool(margin > tol)
    return FredholmVerdict(
        fredholm=ok,
        inverse_bound=float(1.0 / min_symbol) if min_symbol > tol else None,
        failing_theta=None if ok else float(thetas[worst]),
        min_symbol=float(min_symbol),
        certified_margin=float(margin),
    )
