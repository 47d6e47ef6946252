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
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ToolkitError, UnsupportedModel, _Frozen
from .models import (
    AlgebraElement,
    Element,
    FunctionModel,
    Representation,
    ToeplitzElement,
    ToeplitzModel,
    _images,
    _layout,
    _Layout,
    enum_prim,
    rep_apply,
)
from .observables import Observable, spec_union_observable
from .spectral import DEFAULT_RESOLUTION, SpectrumSet, eig_normal, self_adjoint

_SLACK = 1e-9


class RepFamily(_Frozen):
    """Nonempty list of representations of one model, each acting on it.

    One pass, here, checks the members against the model and lays them out
    on it; a member that does not act raises a ValueError naming it and why.
    What the queries share is kept on the family: that layout, the cover and
    its verdicts, and each element's member values.
    """

    _fields = ("model", "members", "label")

    def __init__(
        self, model: FunctionModel | ToeplitzModel, members: tuple[Representation, ...],
        label: str = "",
    ):
        if not members:
            raise ValueError("a family needs at least one member")
        try:
            layout = _layout(members, model)
        except ToolkitError as err:
            raise ValueError(f"member {err.member.label} does not act on this model: {err}") from None
        memo = weakref.WeakKeyDictionary()
        self._set(model=model, members=members, label=label, _layout=layout, _memo=memo)

    def __reduce__(self):
        # weak references do not pickle: a copy is built anew from the fields
        return RepFamily, (self.model, self.members, self.label)

    def _layout_on(self, model) -> _Layout:
        """The kept layout on an equal model; on any other, a new one, which checks the members."""
        same = model is self.model or model == self.model
        return self._layout if same else _layout(self.members, model)

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


class CheckResult(NamedTuple):
    ok: bool
    witness: str | None = None
    detail: str = ""


class FamilyReport(NamedTuple):
    """Serialized outcome of the three completeness checks; family_report,
    its one constructor, checks that full => exhausting => faithful."""

    label: str
    faithful: bool
    exhausting: bool
    full: bool
    faithful_witness: str | None
    exhausting_witness: str | None
    full_witness: str | None
    probes_used: tuple[str, ...]
    tolerances: MappingProxyType

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

    A whole-fiber evaluation reads the element's kept solve (_svals_at), each
    other stack of equal-shape images one batched SVD, the section ladder its
    sweep: the largest section norm and the top section's sigma_min.  An empty
    image counts as (0, 0).  layout is as in _images: one _layout pass if None.
    """
    if layout is None:
        layout = _layout(members, a.model)
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
    """Norm of the element's image at every primitive point, laid out as _images does."""
    prims = enum_prim(a.model)
    return [(p, norm) for p, (norm, _) in zip(prims, _member_values(prims, a))]


# ---------------------------------------------------------------------------
# the three completeness checks

_SYMBOL_PROBES = ("probe:1", "probe:S", "adj(S)", "probe:2cos", "probe:e00")


def _near(keys: np.ndarray, points: np.ndarray, period: float | None = None) -> np.ndarray:
    """Which keys lie within 1e-12 of some point, by one searchsorted into the
    sorted points: a key's two neighbours there decide.  With a period the
    points are taken mod period and one period below."""
    ordered = np.sort(points if period is None else points % period)
    out = np.zeros(len(keys), bool)
    for copy in (ordered,) if period is None else (ordered, ordered - period):
        i = np.searchsorted(copy, keys)
        for j in (np.maximum(i - 1, 0), np.minimum(i, len(copy) - 1)):
            out |= np.abs(keys - copy[j]) <= 1e-12
    return out


def _uncovered(family: RepFamily) -> tuple[Representation, ...]:
    """Primitive points outside every member's support closure, in order.

    A section-ladder member covers every point, its closure being the
    whole dual.  Every other point is closed: each block group of the
    family's layout covers the points _near where it evaluates (the
    characters, their angles), an evaluation every point there and a
    compression the point of its own block.  A circle base (period 1) and
    angles (period 2 pi) are compared cyclically: the primitive points lie
    in [0, period), and a member position x counts at x mod period and one
    period below.
    """
    model, layout, prims = family.model, family._layout, enum_prim(family.model)
    if layout.ladders:
        return ()
    covered = np.zeros(len(prims), bool)
    if isinstance(model, ToeplitzModel):  # pi first, then a character per angle
        thetas = np.array([family.members[i].theta for i in layout.characters])
        covered[1:] = _near(np.array(model.thetas), thetas, 2.0 * np.pi)
    else:
        period = 1.0 if model.space.kind == "circle" else None
        keys, constraint_at = np.array([p.point for p in prims]), model.structure.constraint_at
        for block, (_, ks) in layout.groups.items():
            near = _near(keys, layout.points[ks], period)
            if block is not None:  # a compression covers the point of its own block there
                for i in np.flatnonzero(near).tolist():
                    p = prims[i]
                    near[i] = p.block is not None and constraint_at(p.point).blocks[p.block] == block
            covered |= near
    return tuple(prims[i] for i in np.flatnonzero(~covered).tolist())


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
    evaluation points (taken mod 1 on the circle, cyclically): one
    searchsorted checks every point against both.
    """
    if None not in family._layout.groups:  # no whole-fiber evaluation
        return uncovered[0]
    evals = family._layout.points[family._layout.groups[None][1]]
    space, at = family.model.space, np.array([p.point for p in uncovered])
    circle = space.kind == "circle"  # sorted by position mod 1, each as given
    evals = evals[np.argsort(evals % 1.0, kind="stable")] if circle else np.sort(evals)
    i = np.searchsorted(evals % 1.0, at % 1.0) if circle else np.searchsorted(evals, at)
    near = np.zeros(len(at), bool)
    for q in (evals[(i - 1) % len(evals)], evals[i % len(evals)]):
        d = np.abs(at - q) % 1.0 if circle else np.abs(at - q)  # space.distance, point by point
        near |= (np.minimum(d, 1.0 - d) if circle else d) <= space.grid_step + 1e-12
    far = np.flatnonzero(~near)
    return uncovered[far[0]] if far.size else None


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
    if full.ok and not exhausting.ok:
        raise RuntimeError("report violates full => exhausting")
    if exhausting.ok and not faithful.ok:
        raise RuntimeError("report violates exhausting => faithful")
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


class InvertibilityVerdict(NamedTuple):
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


class DirectCheck(NamedTuple):
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
            lone = kept is not None and len(pos) == 1 and pos[0] in family._layout.ladders
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
    return SpectrumSet.canonical(points, tol, bool(family._layout.ladders))


def observable_spectrum_union(
    family: RepFamily, a: Element, resolution: float = DEFAULT_RESOLUTION
) -> SpectrumSet:
    """Union of the member images' spectra by the Cayley route; the ladder's is truncated."""
    members: list = [None] * len(family.members)
    for pos, stack in _images(family.members, a, family._layout_on(a.model)):
        for i, image in zip(pos.tolist(), stack):
            members[i] = Observable.fibered([image], truncated=i in family._layout.ladders)
    return spec_union_observable(members, resolution)


class FredholmVerdict(NamedTuple):
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
    if len(family._layout.characters) != len(family.members):
        raise UnsupportedModel("the quotient family must consist of characters")
    thetas = [m.theta for m in family.members]
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
