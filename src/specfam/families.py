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
That cover is arithmetic on the family's columns (models._Layout) and the
model's primitive-point arrays: no Representation is built but the
witnesses.  family_report takes all three verdicts from it and builds no
member image.  invertible_via_family answers the
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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ToolkitError, UnsupportedModel, _Frozen
from .models import (
    AlgebraElement,
    Element,
    Representation,
    ToeplitzElement,
    ToeplitzModel,
    _columns,
    _images,
    _laid_out,
    _layout,
    _Layout,
    _match,
    _reps,
    enum_prim,
    rep_apply,
)
from .observables import Observable, spec_union_observable
from .spectral import DEFAULT_RESOLUTION, SpectrumSet, eig_normal, self_adjoint

_SLACK = 1e-9


class RepFamily(_Frozen):
    """Nonempty list of representations of one model, each acting on it, kept
    as columns laid out on the model (_Layout).  Members given as
    Representations are checked and laid out here, and one that does not act
    raises a ValueError naming it and why; the gallery passes a _Layout of
    its model's arrays, and members is built on first access.  The queries
    share the layout, the cover and its verdicts, and each element's member
    values."""

    _fields = ("model", "members", "label")

    def __init__(self, model, members: tuple[Representation, ...] | _Layout, label: str = ""):
        layout = members
        if not isinstance(members, _Layout):
            layout = _layout(model, *_acting(members, model))
            self._set(members=members)
        if not layout.kind.size:
            raise ValueError("a family needs at least one member")
        self._set(model=model, label=label, _layout=layout, _memo=weakref.WeakKeyDictionary())

    def __reduce__(self):
        # weak references do not pickle: a copy is built anew from the fields
        return RepFamily, (self.model, self.members, self.label)

    @cached_property
    def members(self) -> tuple[Representation, ...]:
        return _reps(self._layout)

    def _layout_on(self, model) -> _Layout:
        """The kept layout on an equal model; on any other, a new one, which checks the members."""
        same = model is self.model or model == self.model
        return self._layout if same else _laid_out(self.members, model)

    def _values_of(self, a: Element) -> tuple[np.ndarray, np.ndarray]:
        """_member_values, once per element: the memo holds elements weakly
        and by identity, as they compare."""
        if a not in self._memo:
            self._memo[a] = _member_values(None, a, self._layout_on(a.model))
        return self._memo[a]

    @cached_property
    def _cover(self) -> np.ndarray:
        """_uncovered, once per family: every check and query reads the same one."""
        return _uncovered(self)

    @cached_property
    def _checks(self) -> tuple[CheckResult, CheckResult, CheckResult]:
        """The full, exhausting and faithful verdicts, once per family."""
        return _verdicts(self)


def _acting(members: Sequence[Representation], model) -> tuple[np.ndarray, ...]:
    """_columns of the members, its error as a family's: a ValueError naming
    the first member that does not act on the model, and why."""
    try:
        return _columns(members, model)
    except ToolkitError as err:
        raise ValueError(f"member {err.member.label} does not act on this model: {err}") from None


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
    members, a: Element, layout: _Layout | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Norm and sigma_min of each member's image of the element, as two arrays.

    A whole-fiber evaluation reads the element's kept solve (_svals_at), each
    other stack of equal-shape images one batched SVD, the section ladder its
    sweep: the largest section norm and the top section's sigma_min.  An empty
    image counts as (0, 0).  members and layout are as in _images.
    """
    if layout is None:
        layout = _laid_out(members, a.model)
    norms, sigmas = np.zeros(len(layout.kind)), np.zeros(len(layout.kind))
    if ladders := list(layout.ladders):  # only a symbol-model element gets here
        norms[ladders], sigmas[ladders] = a._section_sweep[0].value, a._section_sweep[1]
    groups, solved = dict(layout.groups), []
    values, at = a._evaluate(layout.point) if groups else (None, None)
    if (whole := groups.pop(None, None)) is not None:  # whole-fiber evaluations
        solved.append((whole, a._svals_at(values[whole], at[whole])))
    images = _images(None, a, layout._replace(groups=groups, ladders=()), values)
    solved += [(pos, np.linalg.svd(stack, compute_uv=False)) for pos, stack in images if stack.size]
    for pos, svals in solved:
        norms[pos], sigmas[pos] = svals[:, 0], svals[:, -1]
    return norms, sigmas


def norm_via_family(family: RepFamily, a: Element) -> float:
    """sup of member image norms; equals the norm for exhausting families."""
    return float(family._values_of(a)[0].max())


def n_a_profile(a: Element) -> list[tuple[Representation, float]]:
    """Norm of the element's image at every primitive point, laid out as _images does."""
    prims = enum_prim(a.model)
    return list(zip(prims, _member_values(prims, a)[0].tolist()))


# ---------------------------------------------------------------------------
# the three completeness checks

_SYMBOL_PROBES = ("probe:1", "probe:S", "adj(S)", "probe:2cos", "probe:e00")


def _uncovered(family: RepFamily) -> np.ndarray:
    """The rows of enum_prim outside every member's support closure, in order.

    A section-ladder member covers every point, its closure being the whole
    dual; every other point is closed.  On a function model a member at a
    grid point (its _Layout.index) covers the primitive points there, an
    evaluation all of them and a compression the one of its own block: one
    index assignment each.  A character covers the angles within 1e-12 of
    it mod 2 pi or one period below (_match into both, sorted).
    """
    layout, (_, point, _, index) = family._layout, family.model._prim_cols
    if layout.ladders:
        return np.zeros(0, int)
    if isinstance(family.model, ToeplitzModel):  # pi first, then a character per angle
        y = layout.point[layout.characters] % (2.0 * np.pi)
        covered = np.append(False, _match(point[1:], np.sort(np.append(y, y - 2.0 * np.pi))) >= 0)
    else:  # the spare last slot of hit takes the members off the grid (index -1)
        hit, blocks = np.zeros(len(family.model._grid) + 1, bool), (layout.kind == 1) & (layout.index >= 0)
        hit[layout.index[layout.kind == 0]] = True
        covered = hit[index]
        covered[np.searchsorted(index, layout.index[blocks]) + layout.block[blocks]] = True
    return np.flatnonzero(~covered)


def check_full(family: RepFamily) -> CheckResult:
    """Exact support cover of the enumerated primitive points."""
    uncovered = family._cover
    if uncovered.size:
        (first,) = _reps(family.model._prim_cols, uncovered[:1])
        return CheckResult(False, first.label, "uncovered primitive point")
    return CheckResult(True)


def _theta_radius(thetas: list[float]) -> float:
    """Half the largest gap between neighbouring angles around the circle."""
    ts = sorted(th % (2.0 * np.pi) for th in thetas)
    gaps = [b - a for a, b in zip(ts, ts[1:])]
    gaps.append(ts[0] + 2.0 * np.pi - ts[-1])
    return max(gaps) / 2.0


def _sparse_point(family: RepFamily, uncovered: np.ndarray) -> int | None:
    """First uncovered row whose point lies farther than one grid step from
    every evaluation.  The nearest evaluation is a neighbour of the point in
    the sorted evaluation points (taken mod 1 on the circle, cyclically): one
    searchsorted checks every point against both."""
    if None not in family._layout.groups:  # no whole-fiber evaluation
        return uncovered[0]
    evals = family._layout.point[family._layout.groups[None]]
    space, at = family.model.space, family.model._prim_cols[1][uncovered]
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
    member, since characters annihilate the corner probe e00.  Witnesses
    name the probe of the first failing point, tent(t) for ev(t).
    """
    full = check_full(family)
    if full.ok:
        return full, full, full
    if isinstance(family.model, ToeplitzModel):
        exhausting = CheckResult(False, "probe:e00", "pi is weakly contained in no member")
        faithful = CheckResult(False, "probe:e00", "nonzero probe annihilated by every member")
        return full, exhausting, faithful
    first = full.witness
    exhausting = CheckResult(False, "tent" + first[2:], f"{first} is weakly contained in no member")
    sparse = _sparse_point(family, family._cover)
    if sparse is None:
        faithful = CheckResult(True)
    else:
        (point,) = _reps(family.model._prim_cols, [sparse])
        label, detail = point.label, "open region uncovered beyond grid resolution"
        if family.model.space.grid_step == 0:
            label, detail = "tent" + label[2:], "nonzero probe annihilated by every member"
        faithful = CheckResult(False, label, detail)
    return full, exhausting, faithful


def _probe_labels(model, probes: tuple[Element, ...]) -> tuple[str, ...]:
    """The probe gallery by label: identity, one tent per primitive point
    (the five symbol probes on a symbol model), then each user element and
    its norm-gap probe |a|^2 - a*a."""
    base = _SYMBOL_PROBES if isinstance(model, ToeplitzModel) else ("probe:1", *model._tents)
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
    sigma = float(family._values_of(a)[1].min())
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
        layout = family._layout_on(a.model)
        stacks = _images(None, a, layout)
    except ToolkitError:
        for member in family.members:  # the first member that fails decides the error
            eig_normal(rep_apply(member, a), tol)
        raise
    spectra: list = [()] * len(layout.kind)
    rest = []
    kept = vars(a).get("_section_sweep", (None,) * 3)[2]  # the ladder sweep's, if it ran
    for pos, stack in stacks:
        plain = self_adjoint(stack) & stack.any(axis=(1, 2))
        if plain.any():
            lone = kept is not None and len(pos) == 1 and pos[0] in layout.ladders
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
    return SpectrumSet.canonical(points, tol, bool(layout.ladders))


def observable_spectrum_union(
    family: RepFamily, a: Element, resolution: float = DEFAULT_RESOLUTION
) -> SpectrumSet:
    """Union of the member images' spectra by the Cayley route; the ladder's is truncated."""
    layout = family._layout_on(a.model)
    members: list = [None] * len(layout.kind)
    for pos, stack in _images(None, a, layout):
        for i, image in zip(pos.tolist(), stack):
            members[i] = Observable.fibered([image], truncated=i in layout.ladders)
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
    layout = family._layout
    if len(layout.characters) != len(layout.kind):
        raise UnsupportedModel("the quotient family must consist of characters")
    vals = [abs(z) for z in x._symbol(layout.point).tolist()]  # numpy's complex abs rounds otherwise
    worst = int(np.argmin(vals))
    min_symbol = vals[worst]
    margin = min_symbol - x.symbol_slope_bound() * _theta_radius(layout.point.tolist())
    ok = bool(margin > tol)
    return FredholmVerdict(
        fredholm=ok,
        inverse_bound=float(1.0 / min_symbol) if min_symbol > tol else None,
        failing_theta=None if ok else float(layout.point[worst]),
        min_symbol=float(min_symbol),
        certified_margin=float(margin),
    )
