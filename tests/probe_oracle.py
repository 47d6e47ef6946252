"""Reference oracle for the family verdicts: the probe-by-member pass.

`family_report` decides all three verdicts from the primitive-point cover.
This module keeps the older, independent way to reach the exhausting and
faithful verdicts, for the tests to compare against: build a deterministic
probe gallery (identity, one tent per primitive point, the user's elements
and the norm-gap probe of each), then ask of every probe whether some
member attains its norm within its error bar, and whether every member
annihilates it.  The pass is quadratic (probes x members) and builds every
member image, so it only runs on small models.
"""

from __future__ import annotations

import functools

import numpy as np

from specfam import (
    AlgebraElement,
    CheckResult,
    FunctionModel,
    RepFamily,
    ToeplitzElement,
    ToeplitzModel,
    UnsupportedModel,
    elem_norm,
    enum_prim,
    norm_via_family,
)
from specfam.families import _theta_radius

SLACK = 1e-9


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
def _base_gallery(model) -> tuple:
    probes = []
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


def standard_probes(model, extras: tuple = ()) -> tuple:
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
# the probe-by-member pass


def member_supports(family: RepFamily, prims: tuple) -> set[str]:
    """Covered primitive-point labels, by scanning every point per member."""
    by_label = {p.label: p for p in prims}
    covered: set[str] = set()
    for member in family.members:
        hit = []
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
            if p.kind == "toeplitz-identity":
                covered.update(by_label)
    return covered


def coverage_radius(family: RepFamily) -> float | None:
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


def certify(
    family: RepFamily, probes: tuple, slack: float = SLACK
) -> tuple[CheckResult, CheckResult]:
    """Exhausting and faithful verdicts from one pass over the probes.

    Exhausting: each probe's norm is attained by some member, within the
    probe's error bar.  Faithful: no nonzero probe is annihilated by every
    member once its slope is allowed to lift it within one coverage radius
    of the evaluations, and the supports are dense at grid resolution.
    """
    if not probes:
        raise ValueError("probe set must be nonempty")
    radius = coverage_radius(family)
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
        covered = member_supports(family, prims)
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


def check_full(family: RepFamily) -> CheckResult:
    """Exact support cover, by the scanning lookup."""
    prims = enum_prim(family.model)
    covered = member_supports(family, prims)
    for p in prims:
        if p.label not in covered:
            return CheckResult(False, p.label, "uncovered primitive point")
    return CheckResult(True)

