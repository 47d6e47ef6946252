"""Families of representations and the verdicts they certify.

A family can be checked for three nested completeness grades:

* full       -- its supports cover every enumerated primitive point;
* exhausting -- every probe's norm is attained by some member, within
                certified error bars (probe-certificate semantics over a
                deterministic gallery plus user elements);
* faithful   -- no nonzero probe is annihilated and the support union is
                dense at grid resolution.

full implies exhausting implies faithful, and family_report enforces the
chain on every emitted report.  One pass over the probes gives both the
exhausting and the faithful verdict, once per (probe elements, slack):
the family keeps the report, and both invertibility routes, every
uniform bound and the spectrum contract read it.  Invertibility goes
through two routes: the exhausting route needs no bound, the faithful
route needs a uniform inverse bound; both count a member image
invertible only when its smallest singular value clears
max(resolution, lipschitz * grid_step), anything less is "not
invertible at this resolution".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import IncompatibleModel, NotCertified, UnsupportedModel
from .models import (
    AlgebraElement,
    Element,
    FunctionModel,
    PrimPoint,
    Representation,
    ToeplitzElement,
    ToeplitzModel,
    _section_sweep,
    elem_norm,
    enum_prim,
    prim_representation,
    rep_apply,
)
from .spectral import DEFAULT_RESOLUTION, SpectrumSet, eig_normal, union_spectra

_SLACK = 1e-9


@dataclass(frozen=True)
class RepFamily:
    """Nonempty list of representations of one model."""

    model: FunctionModel | ToeplitzModel
    members: tuple[Representation, ...]
    label: str = ""
    _reports: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.members:
            raise ValueError("a family needs at least one member")
        toeplitz = isinstance(self.model, ToeplitzModel)
        for m in self.members:
            if toeplitz != m.kind.startswith("toeplitz"):
                raise ValueError(f"member {m.label} does not act on this model")


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
# probe gallery


def _tent_values(space, center: float) -> list[float]:
    h = space.grid_step if space.grid_step > 0 else 1.0
    return [max(0.0, 1.0 - space.distance(t, center) / h) for t in space.sample_grid]


def _tent_element(model: FunctionModel, center: float, block: int | None) -> AlgebraElement:
    d = model.fiber_dim
    space = model.space
    if block is None:
        proj = np.eye(d, dtype=complex)
        label = f"tent({center:.12g})"
    else:
        c = model.structure.constraint_at(center)
        proj = np.zeros((d, d), dtype=complex)
        for i in c.blocks[block]:
            proj[i, i] = 1.0
        label = f"tent({center:.12g})[{block}]"
    heights = _tent_values(space, center)
    mats = tuple(h * proj for h in heights)
    lip = 0.0 if space.grid_step == 0 else 1.0 / space.grid_step
    return AlgebraElement(model, space.sample_grid, mats, lip, label)


@functools.lru_cache(maxsize=64)
def _base_gallery(model) -> tuple[Element, ...]:
    probes: list[Element] = []
    if isinstance(model, FunctionModel):
        probes.append(AlgebraElement.identity(model, label="probe:1"))
        for prim in enum_prim(model):
            probes.append(_tent_element(model, prim.point, prim.block))
    elif isinstance(model, ToeplitzModel):
        probes.append(ToeplitzElement.identity(model, label="probe:1"))
        probes.append(ToeplitzElement.shift(model, label="probe:S"))
        probes.append(ToeplitzElement.shift(model).adjoint())
        probes.append(ToeplitzElement.build(model, {1: 1.0, -1: 1.0}, label="probe:2cos"))
        probes.append(
            ToeplitzElement.build(model, {}, correction=np.array([[1.0]]), label="probe:e00")
        )
    else:
        raise UnsupportedModel(f"no probe gallery for {type(model).__name__}")
    return tuple(probes)


def standard_probes(model, extras: tuple[Element, ...] = ()) -> tuple[Element, ...]:
    """Deterministic probe gallery: identity, one tent per primitive point,
    the user's elements, and the norm-gap probe |a|^2 - a*a of each."""
    probes = list(_base_gallery(model))
    for a in extras:
        probes.append(a)
        v = elem_norm(a).value
        gap = v * v - a.adjoint() * a
        object.__setattr__(gap, "label", f"gap({a.label})")
        probes.append(gap)
    return tuple(probes)


# ---------------------------------------------------------------------------
# member images


def _member_values(
    members: tuple[Representation, ...], a: Element
) -> list[tuple[float, float]]:
    """(norm, sigma_min) of each member's image of the element.

    Images of equal shape go through one batched SVD.  The section-ladder
    member takes both values from the ladder sweep instead: the norm is
    the largest section norm, sigma_min the top section's smallest
    singular value.  An empty image counts as (0, 0).
    """
    out = [(0.0, 0.0)] * len(members)
    by_shape: dict[tuple[int, ...], list[tuple[int, np.ndarray]]] = {}
    for i, member in enumerate(members):
        if member.kind == "toeplitz-identity":
            if not isinstance(a, ToeplitzElement):
                raise IncompatibleModel("the section ladder applies to symbol-model elements")
            est, sigma = _section_sweep(a)
            out[i] = (est.value, sigma)
            continue
        m = rep_apply(member, a)
        if m.size:
            by_shape.setdefault(m.shape, []).append((i, m))
    for group in by_shape.values():
        svals = np.linalg.svd(np.stack([m for _, m in group]), compute_uv=False)
        for (i, _), s in zip(group, svals):
            out[i] = (float(s[0]), float(s[-1]))
    return out


def member_norm(member: Representation, a: Element) -> float:
    """Norm of the element's image under one member (ladder-aware)."""
    return _member_values((member,), a)[0][0]


def norm_via_family(family: RepFamily, a: Element) -> float:
    """sup of member image norms; equals the norm for exhausting families."""
    return max(norm for norm, _ in _member_values(family.members, a))


def n_a_profile(a: Element) -> list[tuple[PrimPoint, float]]:
    """Norm of the element's image at every primitive point."""
    prims = enum_prim(a.model)
    values = _member_values(tuple(prim_representation(p) for p in prims), a)
    return [(p, norm) for p, (norm, _) in zip(prims, values)]


# ---------------------------------------------------------------------------
# the three completeness checks


def _member_supports(family: RepFamily, prims: tuple[PrimPoint, ...]) -> set[str]:
    by_label = {p.label: p for p in prims}
    covered: set[str] = set()
    for member in family.members:
        hit: list[PrimPoint] = []
        if member.kind == "eval":
            hit = [
                p for p in prims
                if p.point is not None and abs(p.point - member.point) <= 1e-12
            ]
        elif member.kind == "block":
            hit = [
                p for p in prims
                if p.block == member.block
                and p.point is not None
                and abs(p.point - member.point) <= 1e-12
            ]
        elif member.kind == "toeplitz-identity":
            hit = [p for p in prims if p.kind == "toeplitz-identity"]
        elif member.kind == "toeplitz-character":
            hit = [
                p for p in prims
                if p.theta is not None and abs(p.theta - member.theta) <= 1e-12
            ]
        for p in hit:
            covered.add(p.label)
            covered.update(h for h in p.closure_hint if h in by_label)
    return covered


def check_full(family: RepFamily) -> CheckResult:
    """Exact support cover of the enumerated primitive points."""
    prims = enum_prim(family.model)
    covered = _member_supports(family, prims)
    for p in prims:
        if p.label not in covered:
            return CheckResult(False, p.label, "uncovered primitive point")
    return CheckResult(True)


def _coverage_radius(family: RepFamily) -> float | None:
    """How far a base point can be from the family's nearest evaluation.

    None when the notion does not apply (no evaluation members, or no
    characters on a symbol model), in which case annihilation can only
    be certified for probes with zero slope.
    """
    model = family.model
    if isinstance(model, FunctionModel):
        pts = [m.point for m in family.members if m.kind == "eval"]
        if not pts:
            return None
        return max(
            min(model.space.distance(g, p) for p in pts)
            for g in model.space.sample_grid
        )
    thetas = [m.theta for m in family.members if m.kind == "toeplitz-character"]
    return _theta_radius(thetas) if thetas else None


def _theta_radius(thetas: list[float]) -> float:
    """Half the largest gap between neighbouring angles around the circle."""
    ts = sorted(th % (2.0 * np.pi) for th in thetas)
    gaps = [b - a for a, b in zip(ts, ts[1:])]
    gaps.append(ts[0] + 2.0 * np.pi - ts[-1])
    return max(gaps) / 2.0


def check_exhausting(
    family: RepFamily, probes: tuple[Element, ...], slack: float = _SLACK
) -> CheckResult:
    """Probe-certificate check: each probe's norm attained by some member."""
    return _certify(family, probes, slack)[0]


def check_faithful(
    family: RepFamily, probes: tuple[Element, ...], slack: float = _SLACK
) -> CheckResult:
    """No certified-annihilated nonzero probe, supports dense at grid resolution.

    A probe counts annihilated only when every member maps it below the
    slack AND its slope cannot lift it above the slack anywhere within
    one coverage radius of the family's evaluations.  Vanishing exactly
    at the members of a resolution-h family is not an annihilation
    certificate; it is the expected blind spot of sampling.
    """
    return _certify(family, probes, slack)[1]


def _certify(
    family: RepFamily, probes: tuple[Element, ...], slack: float
) -> tuple[CheckResult, CheckResult]:
    """Exhausting and faithful verdicts from one pass over the probes."""
    if not probes:
        raise ValueError("probe set must be nonempty")
    radius = _coverage_radius(family)
    exhausting = faithful = None
    for a in probes:
        value, error = elem_norm(a)
        attained = norm_via_family(family, a)
        if exhausting is None and attained < value - error - slack:
            exhausting = CheckResult(
                False, a.label,
                f"norm {value:.6g} attained only to {attained:.6g} (bar {error:.3g})",
            )
        if faithful is None and value - error > 2.0 * slack and attained <= slack:
            slope = a.lipschitz_bound if isinstance(a, AlgebraElement) else a.symbol_slope_bound()
            allowance = 0.0 if slope == 0.0 else (np.inf if radius is None else slope * radius)
            if allowance <= slack:
                faithful = CheckResult(False, a.label, "nonzero probe annihilated by every member")
        if exhausting and faithful:
            return exhausting, faithful
    if faithful is None:
        prims = enum_prim(family.model)
        covered = _member_supports(family, prims)
        eval_points = [m.point for m in family.members if m.kind == "eval"]
        for p in prims:
            if p.label not in covered and not any(
                family.model.space.distance(p.point, q) <= family.model.space.grid_step + 1e-12
                for q in eval_points
            ):
                faithful = CheckResult(
                    False, p.label, "open region uncovered beyond grid resolution"
                )
                break
    return exhausting or CheckResult(True), faithful or CheckResult(True)


def family_report(
    family: RepFamily,
    probes: tuple[Element, ...] = (),
    slack: float = _SLACK,
) -> FamilyReport:
    """Run all three checks over the standard gallery plus user probes.

    Kept on the family per (probe elements, slack); labels never key it.
    """
    key = (tuple(probes), slack)
    report = family._reports.get(key)
    if report is None:
        gallery = standard_probes(family.model, extras=key[0])
        full = check_full(family)
        exhausting, faithful = _certify(family, gallery, slack)
        report = family._reports[key] = FamilyReport(
            label=family.label,
            faithful=faithful.ok,
            exhausting=exhausting.ok,
            full=full.ok,
            faithful_witness=faithful.witness,
            exhausting_witness=exhausting.witness,
            full_witness=full.witness,
            probes_used=tuple(p.label for p in gallery),
            tolerances=MappingProxyType({"slack": slack}),
        )
    return report


# ---------------------------------------------------------------------------
# invertibility


def invertibility_threshold(a: Element, tol: float = DEFAULT_RESOLUTION) -> float:
    """Smallest singular value a member image must clear to count invertible."""
    if isinstance(a, AlgebraElement):
        return max(tol, a.lipschitz_bound * a.model.space.grid_step)
    return tol


@dataclass(frozen=True)
class MemberCheck:
    label: str
    sigma_min: float
    invertible: bool


def member_invertibility(
    family: RepFamily, a: Element, tol: float = DEFAULT_RESOLUTION
) -> list[MemberCheck]:
    """Plain per-member nonsingularity at bare resolution.

    This is the naive verdict; it is exactly the quantity that misleads
    for faithful-but-not-exhausting families, so it is reported
    separately from the certified routes.
    """
    values = _member_values(family.members, a)
    return [
        MemberCheck(member.label, sigma, sigma > tol)
        for member, (_, sigma) in zip(family.members, values)
    ]


def invertible_via_exhausting(
    family: RepFamily,
    a: Element,
    probes: tuple[Element, ...] = (),
    tol: float = DEFAULT_RESOLUTION,
    slack: float = _SLACK,
) -> bool:
    """Invertibility through an exhausting certificate.

    The certificate is the family's report over the gallery extended by
    the element and its norm-gap probe; NotCertified when it fails.
    """
    report = family_report(family, (a,) + tuple(probes), slack)
    if not report.exhausting:
        raise NotCertified(
            f"family {family.label!r} is not exhausting over the probe gallery "
            f"(witness {report.exhausting_witness})"
        )
    threshold = invertibility_threshold(a, tol)
    return all(sigma > threshold for _, sigma in _member_values(family.members, a))


def invertible_via_faithful(
    family: RepFamily,
    a: Element,
    bound: float,
    probes: tuple[Element, ...] = (),
    tol: float = DEFAULT_RESOLUTION,
    slack: float = _SLACK,
) -> bool:
    """Invertibility through a faithful certificate plus a uniform bound.

    True iff every member image is invertible at this resolution with
    inverse norm at most `bound`.
    """
    if bound <= 0:
        raise ValueError("the uniform inverse bound must be positive")
    report = family_report(family, (a,) + tuple(probes), slack)
    if not report.faithful:
        raise NotCertified(
            f"family {family.label!r} is not faithful over the probe gallery "
            f"(witness {report.faithful_witness})"
        )
    threshold = invertibility_threshold(a, tol)
    for _, sigma in _member_values(family.members, a):
        if sigma <= threshold or sigma * bound < 1.0 - 1e-12:
            return False
    return True


@dataclass(frozen=True)
class DirectCheck:
    invertible: bool
    sigma_min: float
    margin: float


def direct_invertible(a: AlgebraElement, tol: float = DEFAULT_RESOLUTION) -> DirectCheck:
    """Certified direct invertibility over a midpoint-refined grid."""
    if not isinstance(a, AlgebraElement):
        raise UnsupportedModel("direct invertibility applies to function-model elements")
    bps = list(a.breakpoints)
    space = a.model.space
    if space.kind == "discrete":
        pts = bps
        gap = 0.0
    else:
        mids = [(s + t) / 2.0 for s, t in zip(bps, bps[1:])]
        pts = sorted(bps + mids)
        gap = max((t - s for s, t in zip(pts, pts[1:])), default=0.0)
        if space.kind == "circle":
            pts.append((bps[-1] + 1.0) / 2.0)
            gap = max(gap, 1.0 - bps[-1])
    members = tuple(Representation.eval_point(t) for t in pts)
    sigma = min(sigma for _, sigma in _member_values(members, a))
    margin = sigma - a.lipschitz_bound * gap / 2.0
    return DirectCheck(margin > tol, sigma, margin)


# ---------------------------------------------------------------------------
# spectra and Fredholm detection


def spectrum_union(
    family: RepFamily, a: Element, tol: float = 1e-9
) -> SpectrumSet:
    """Canonicalized union of member spectra.

    Under an exhausting certificate the union equals the spectrum; under
    a faithful certificate it is dense in it.  Each member image must be
    normal (eig_normal enforces this fiberwise).
    """
    parts = []
    for member in family.members:
        part = eig_normal(rep_apply(member, a), tol)
        if member.kind == "toeplitz-identity":
            part = SpectrumSet.canonical(part.points, tol, truncated=True)
        parts.append(part)
    return union_spectra(parts, resolution=tol)


@dataclass(frozen=True)
class FredholmVerdict:
    fredholm: bool
    inverse_bound: float | None
    failing_theta: float | None
    min_symbol: float
    certified_margin: float

    def as_dict(self) -> dict:
        return {
            "fredholm": self.fredholm,
            "inverse_bound": self.inverse_bound,
            "failing_theta": self.failing_theta,
            "min_symbol": self.min_symbol,
            "certified_margin": self.certified_margin,
        }


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
