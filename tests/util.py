"""Shared builders for the test suites."""

from __future__ import annotations

import numpy as np

from specfam.models import (
    AlgebraElement,
    BaseSpace,
    BlockStructure,
    FunctionModel,
    ToeplitzElement,
    ToeplitzModel,
)


def matrix_model(step: float = 1.0 / 8.0) -> FunctionModel:
    """2x2 functions on [0, 1], diagonal at the right endpoint."""
    return FunctionModel(BaseSpace.interval(step), BlockStructure.diagonal_at(2, 1.0))


def scalar_interval_model(step: float = 1.0 / 8.0) -> FunctionModel:
    return FunctionModel(BaseSpace.interval(step), BlockStructure.unconstrained(1))


def discrete_model(points: int = 4, dim: int = 2) -> FunctionModel:
    return FunctionModel(BaseSpace.discrete(points), BlockStructure.unconstrained(dim))


def counterexample_element(model: FunctionModel) -> AlgebraElement:
    """diag(1, 1 - t): vanishes in the second block at the endpoint."""
    return AlgebraElement.from_polynomials(
        model, {(0, 0): [1.0], (1, 1): [1.0, -1.0]}, label="f"
    )


def toeplitz_model(theta_count: int = 8, sections=(8, 16, 32, 64, 128)) -> ToeplitzModel:
    return ToeplitzModel.standard(theta_count, sections)


def cos_symbol(model: ToeplitzModel) -> ToeplitzElement:
    """Symbol 2 cos(theta) = e^{i theta} + e^{-i theta}."""
    return ToeplitzElement.build(model, {1: 1.0, -1: 1.0}, label="2cos")


def random_selfadjoint_element(
    model: FunctionModel, rng: np.random.RandomState
) -> AlgebraElement:
    """Random self-adjoint element honoring the model's constraints."""
    d = model.fiber_dim
    bps = model.space.sample_grid
    mats = []
    for t in bps:
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = (m + m.conj().T) / 2.0
        c = model.structure.constraint_at(t)
        if c is not None:
            mask = np.zeros((d, d), dtype=bool)
            for blk in c.blocks:
                mask[np.ix_(blk, blk)] = True
            m = np.where(mask, m, 0.0)
        mats.append(m)
    lip = slope_bound(bps, mats, model)
    return AlgebraElement(model, bps, tuple(mats), lip, label="rand-sa")


def random_element(model: FunctionModel, rng: np.random.RandomState) -> AlgebraElement:
    d = model.fiber_dim
    bps = model.space.sample_grid
    mats = []
    for t in bps:
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        c = model.structure.constraint_at(t)
        if c is not None:
            mask = np.zeros((d, d), dtype=bool)
            for blk in c.blocks:
                mask[np.ix_(blk, blk)] = True
            m = np.where(mask, m, 0.0)
        mats.append(m)
    lip = slope_bound(bps, mats, model)
    return AlgebraElement(model, bps, tuple(mats), lip, label="rand")


def slope_bound(bps, mats, model) -> float:
    """Exact Lipschitz constant of the piecewise-linear interpolant."""
    if model.space.kind == "discrete" or len(bps) < 2:
        return 0.0
    worst = 0.0
    pairs = list(zip(mats, mats[1:], bps, bps[1:]))
    if model.space.kind == "circle":
        pairs.append((mats[-1], mats[0], bps[-1], 1.0))
    for m0, m1, t0, t1 in pairs:
        worst = max(worst, float(np.linalg.svd(m1 - m0, compute_uv=False)[0]) / (t1 - t0))
    return worst


def tridiagonal_section_norm(n: int) -> float:
    """Analytic norm of the n-section of the 2cos(theta) symbol.

    The n x n tridiagonal 0/1 matrix has eigenvalues 2 cos(k pi / (n+1)),
    k = 1..n, so its norm is 2 cos(pi / (n+1)).
    """
    return 2.0 * float(np.cos(np.pi / (n + 1)))


def point_pairs(values) -> list[list[float]]:
    """A spectrum's points array as the [[re, im], ...] list of floats a report prints."""
    return [[z.real, z.imag] for z in np.asarray(values).astype(complex).tolist()]


def as_json_lists(obj):
    """A report with each points array replaced by its point_pairs list."""
    if isinstance(obj, np.ndarray):
        return point_pairs(obj)
    if isinstance(obj, dict):
        return {k: as_json_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_json_lists(v) for v in obj]
    return obj
