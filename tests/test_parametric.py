"""Parameter fibers: construction, reduction, spectra, ellipticity."""

import dataclasses
import gc
import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from specfam import SpectrumSet, hausdorff
from specfam import parametric
from specfam.errors import (
    CutoffTooSmall,
    IncompatibleQuery,
    NotElliptic,
    NotSelfAdjoint,
    ToolkitError,
    UnsupportedModel,
)
from specfam.observables import Observable, spec_union_observable
from specfam.parametric import (
    CircleBase,
    GraphBase,
    InvariantOperator,
    LambdaGrid,
    _class_axes,
    _fiber_chunks,
    fiber,
    invertible_parametric,
    observable_spectrum_parametric,
    principal_symbol,
    spectrum_parametric,
    symbol_restriction_check,
)
from specfam.scenario import parse_scenario, run_scenario
from specfam.spectral import _distinct


def path_graph(v: int) -> GraphBase:
    a = np.zeros((v, v))
    for i in range(v - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return GraphBase(a)


def grid_nodes(grid: LambdaGrid) -> list[tuple]:
    """Every node of the grid: the n-fold product of its axis, in lexicographic order."""
    return list(itertools.product(grid.axis, repeat=grid.n))


def full_axes(op: InvariantOperator, grid: LambdaGrid) -> list:
    """Axes whose product, walked by _fiber_chunks, is every node of the grid."""
    return parametric._power_axes(op, [grid.axis] * grid.n)


def _graph_tolerance(op: InvariantOperator, lam: tuple, reduced=False, top=False) -> float:
    """16 d u scale: how far a graph fiber, or with top a principal symbol, may sit
    from its dense reference, u = 2^-53.

    scale = sum |c| |lam^alpha| |L|^j bounds the matrix's norm, over the top
    terms only when top is set, with |L| at most twice the largest degree;
    reduced, times the largest weights d_i^((s - order)/2) and d_i^(-s/2),
    d_i = 1 + |lam|^2 + mu_i, mu the eigenvalues of L.  The diagonal route
    and dense LAPACK are each backward stable, so they differ by a few
    d u scale: at most 2.6 d u scale on 300 random weighted graphs.
    """
    lap = 2.0 * float(op.base.adjacency.sum(axis=1).max())
    scale = sum(
        abs(c) * abs(_ref_lam_power(lam, alpha)) * lap**j
        for (j, alpha), c in op.terms
        if not top or 2 * j + sum(alpha) == op.order
    )
    if reduced:
        dd = 1.0 + sum(x * x for x in lam) + np.linalg.eigvalsh(op.base.laplacian())
        scale *= (dd ** ((op.s - op.order) / 2.0)).max() * (dd ** (-op.s / 2.0)).max()
    return 16 * op.base.dim * 2.0**-53 * scale


def _eigenbasis(base: GraphBase) -> np.ndarray:
    return np.linalg.eigh(base.laplacian())[1]


# ---------------------------------------------------------------------------
# construction and fibers


def test_circle_fiber_of_shifted_laplacian():
    op = InvariantOperator.shifted_laplacian(CircleBase(3), n=1, shift=1.0)
    m = fiber(op, (2.0,))
    # modes -3..3: 1 + lam^2 + k^2 with lam = 2
    want = np.diag([5.0 + k * k for k in range(-3, 4)])
    assert np.abs(m - want).max() <= 1e-12


def test_grid_always_contains_zero_and_is_symmetric():
    nodes = grid_nodes(LambdaGrid.build(1, window=4.0, step=1 / 32))
    assert (0.0,) in nodes
    assert len(nodes) == 257
    xs = [x for (x,) in nodes]
    assert xs == sorted(xs)
    assert xs[0] == -4.0 and xs[-1] == 4.0


def test_grid_two_directions():
    nodes = grid_nodes(LambdaGrid.build(2, window=1.0, step=0.5))
    assert len(nodes) == 25
    assert (0.0, 0.0) in nodes


@pytest.mark.parametrize(
    "window, step, points",
    [(1e300, 1e-300, "inf"), (float("inf"), 1.0, "inf"), (2.0**19, 1.0, "1.049e+06")],
    ids=["ratio-overflows", "window-infinite", "one-past-the-cap"],
)
def test_grid_axis_above_the_cap_is_refused_before_it_is_built(window, step, points):
    want = f"the grid axis would hold {points} points, above the cap of 1048576 (2^20)"
    with pytest.raises(ValueError, match="^" + re.escape(want) + "$"):
        LambdaGrid.build(1, window, step)


def test_order_is_the_joint_degree_of_the_nonzero_terms():
    # a zero coefficient drops its term, however high its degree
    op = InvariantOperator.build(CircleBase(2), 1, {(1, (0,)): 1.0, (2, (1,)): 0.0})
    assert (op.order, op.s) == (2, 2.0)
    assert op.terms == (((1, (0,)), 1.0 + 0j),)
    odd = InvariantOperator.build(CircleBase(2), 1, {(1, (0,)): 1.0, (1, (1,)): 1e-9}, s=0.5)
    assert (odd.order, odd.s) == (3, 0.5)
    with pytest.raises(TypeError):
        InvariantOperator.build(CircleBase(2), 1, {(1, (0,)): 1.0}, order=3)


@pytest.mark.parametrize("extra", [(0.5,), ({}, 0.5), ("lap",)], ids=["s", "dict-s", "label"])
def test_sobolev_level_and_label_are_keyword_only(extra):
    # any argument after the terms must be named, so a stray positional one is refused
    with pytest.raises(TypeError, match="positional argument"):
        InvariantOperator.build(CircleBase(2), 1, {(1, (0,)): 1.0}, *extra)


@pytest.mark.parametrize("s", [float("nan"), float("inf")])
def test_sobolev_level_must_be_finite(s):
    with pytest.raises(ValueError, match="^the Sobolev level s must be finite$"):
        InvariantOperator.build(CircleBase(2), 1, {(1, (0,)): 1.0}, s=s)


def test_fiber_dimension_mismatch_rejected():
    op = InvariantOperator.shifted_laplacian(CircleBase(2), n=2, shift=1.0)
    with pytest.raises(IncompatibleQuery):
        fiber(op, (1.0,))


def test_graph_fiber_uses_the_graph_laplacian():
    base = path_graph(3)
    op = InvariantOperator.shifted_laplacian(base, n=1, shift=0.0)
    m = fiber(op, (0.0,))
    want = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.abs(m - want).max() <= 1e-12


# ---------------------------------------------------------------------------
# the block builder against the per-node reference


def _ref_lam_power(lam: tuple, alpha: tuple) -> float:
    out = 1.0
    for x, a in zip(lam, alpha):
        if a:
            out *= x**a
    return out


def _ref_fiber(op: InvariantOperator, lam: tuple, reduced: bool) -> np.ndarray:
    """One fiber, node by node, with the arithmetic the builder must keep."""
    d = op.base.dim
    out = np.zeros((d, d), dtype=complex)
    if isinstance(op.base, CircleBase):
        diag = op.base.laplacian_diagonal()
        acc = np.zeros(d, dtype=complex)
        for (j, alpha), coeff in op.terms:
            acc += coeff * _ref_lam_power(lam, alpha) * diag**j
        out += np.diag(acc)
    else:
        lap = op.base.laplacian()
        powers = {0: np.eye(d)}
        for (j, alpha), coeff in op.terms:
            if j not in powers:
                powers[j] = np.linalg.matrix_power(lap, j)
            out += coeff * _ref_lam_power(lam, alpha) * powers[j]
    if not reduced:
        return out
    s, order = op.s, float(op.order)
    lam_sq = sum(x * x for x in lam)
    if isinstance(op.base, CircleBase):
        dd = 1.0 + lam_sq + op.base.laplacian_diagonal()
        left = dd ** ((s - order) / 2.0)
        right = dd ** (-s / 2.0)
        return (left[:, None] * out) * right[None, :]
    w, v = np.linalg.eigh(op.base.laplacian())
    dd = 1.0 + lam_sq + w
    left = (v * dd ** ((s - order) / 2.0)) @ v.conj().T
    right = (v * dd ** (-s / 2.0)) @ v.conj().T
    return left @ out @ right


def _random_operator(rng, base, n: int) -> InvariantOperator:
    terms = {(1, (0,) * n): 1.0}
    for _ in range(3):
        alpha = tuple(int(a) for a in rng.integers(0, 4, n))
        terms[(int(rng.integers(0, 3)), alpha)] = float(rng.normal())
    terms[(0, tuple(int(a) for a in rng.integers(0, 3, n)))] = complex(*rng.normal(size=2))
    return InvariantOperator.build(base, n, terms, s=float(rng.uniform(0.5, 3.0)))


@pytest.mark.parametrize("step", [0.1, 1 / 3, 0.25], ids=["0.1", "1/3", "1/4"])
@pytest.mark.parametrize("reduced", [False, True], ids=["raw", "reduced"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["circle", "graph"])
def test_fiber_blocks_equal_the_per_node_reference(kind, n, reduced, step):
    rng = np.random.default_rng([n, int(reduced), round(1 / step)])
    base = CircleBase(3) if kind == "circle" else path_graph(5)
    op = _random_operator(rng, base, n)
    grid = LambdaGrid.build(n, window=3 * step, step=step)
    nodes = grid_nodes(grid)
    got = np.concatenate(list(_fiber_chunks(op, full_axes(op, grid), reduced)))
    want = np.stack([_ref_fiber(op, lam, reduced) for lam in nodes])
    if kind == "circle":  # the diagonals over modes -K .. 0, the first of each class, bitwise
        k = base.cutoff
        assert got.shape == (len(nodes), k + 1)
        assert np.array_equal(parametric._as_matrices(got), want[:, : k + 1, : k + 1])
        for lam in nodes[:: max(1, len(nodes) // 5)]:  # fiber() mirrors them to every mode
            assert np.array_equal(fiber(op, lam, reduced), _ref_fiber(op, lam, reduced))
        return
    # a graph's diagonals over the eigenvalues of L: V . diag . V^T, and fiber(), within the bound
    assert got.shape == (len(nodes), base.dim)
    v = _eigenbasis(base)
    for row, lam, dense in zip(got, nodes, want):
        assert np.abs((v * row) @ v.T - dense).max() <= _graph_tolerance(op, lam, reduced)
    for lam in nodes[:: max(1, len(nodes) // 5)]:
        gap = np.abs(fiber(op, lam, reduced) - _ref_fiber(op, lam, reduced)).max()
        assert gap <= _graph_tolerance(op, lam, reduced)


def test_worst_fiber_and_spectrum_do_not_depend_on_chunks():
    # p = k^2 + (lam + 181/256)(lam + 96/256) vanishes exactly on mode 0 at
    # the tied nodes lam = -181/256 and -96/256 (dyadic, so every sum is
    # exact).  The odd term makes every class a single node, so the tied
    # nodes lie in different classes and in different blocks; the class of
    # -96/256 has the smaller key, so only the order of first occurrence
    # puts -181/256 first.
    terms = {(1, (0,)): 1.0, (0, (2,)): 1.0, (0, (1,)): 277 / 256, (0, (0,)): 17376 / 65536}
    op = InvariantOperator.build(CircleBase(8), 1, terms)
    grid = LambdaGrid.build(1, window=4.0, step=1 / 256)
    nodes = grid_nodes(grid)
    per_chunk = parametric._CHUNK_ENTRIES // op.base.dim**2
    assert [coords for coords, _powers in _class_axes(op, grid, True)] == [grid.axis]
    assert len(nodes) > 2 * per_chunk

    sigmas = np.linalg.svd(
        np.stack([fiber(op, lam, True) for lam in nodes]), compute_uv=False
    )[:, -1]
    worst = int(np.argmin(sigmas))
    ties = np.flatnonzero(sigmas == sigmas[worst])
    assert [nodes[i] for i in ties] == [(-181 / 256,), (-96 / 256,)]
    assert len({int(i) // per_chunk for i in ties}) == 2
    v = invertible_parametric(op, grid, tol=0.01)
    assert not v.invertible
    assert v.failing_lambda == nodes[worst] == (-181 / 256,)
    assert v.min_sigma == float(sigmas[worst]) == 0.0

    eigs = np.linalg.eigvalsh(np.stack([fiber(op, lam) for lam in nodes]))
    want = SpectrumSet.canonical([complex(x) for x in eigs.ravel()], 1e-9, truncated=True)
    assert spectrum_parametric(op, grid, tol=1e-9) == want


def _real_circle_operator(rng, n: int, zero_at: tuple | None = None) -> InvariantOperator:
    """An elliptic order-2 circle operator with random real terms.

    With zero_at, the coefficients are quarter-integers and the shift makes
    mode 0 vanish exactly at that node.
    """
    if zero_at is None:
        top, low = rng.uniform(0.5, 2.0, n + 1), rng.normal(size=n)
    else:
        top, low = rng.integers(2, 8, n + 1) / 4, rng.integers(-4, 5, n) / 4
    terms = {(1, (0,) * n): float(top[n])}
    for i in range(n):
        terms[(0, tuple(2 if j == i else 0 for j in range(n)))] = float(top[i])
        terms[(0, tuple(1 if j == i else 0 for j in range(n)))] = float(low[i])
    if zero_at is None:
        terms[(0, (0,) * n)] = float(rng.normal())
    else:
        terms[(0, (0,) * n)] = -sum(float(c * x * x + b * x) for c, b, x in zip(top, low, zero_at))
    return InvariantOperator.build(CircleBase(3), n, terms, s=float(rng.uniform(0.5, 3.0)))


@pytest.mark.parametrize("reduced", [False, True], ids=["raw", "reduced"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_diagonal_fibers_equal_the_lapack_path(n, reduced):
    rng = np.random.default_rng([n, int(reduced), 11])
    step = 0.25
    grid = LambdaGrid.build(n, window=2 * step if n == 3 else 1.0, step=step)
    nodes = grid_nodes(grid)
    # random shifts, and ones that zero a fiber at a node exactly
    zeros = [None, None, None, (step,) + (0.0,) * (n - 1), (-2 * step,) * n]
    for zero_at in zeros:
        op = _real_circle_operator(rng, n, zero_at)
        blocks = list(_fiber_chunks(op, full_axes(op, grid), reduced))
        assert all(b.shape[1:] == (4,) for b in blocks)  # modes -3 .. 0
        dense = np.stack([_ref_fiber(op, lam, reduced) for lam in nodes])
        assert np.array_equal(parametric._as_matrices(np.concatenate(blocks)), dense[:, :4, :4])
        # LAPACK on the dense reference fibers, every node solved
        sigmas = np.linalg.svd(
            np.stack([_ref_fiber(op, lam, True) for lam in nodes]), compute_uv=False
        )[:, -1]
        worst = int(np.argmin(sigmas))
        got = invertible_parametric(op, grid)
        assert np.array_equal(got.min_sigma, sigmas[worst])
        assert got.failing_direction is None
        assert got.invertible == (sigmas[worst] > 1e-9)
        assert got.failing_lambda == (None if got.invertible else nodes[worst])
        if zero_at is not None:
            assert got.min_sigma == 0.0 and not got.invertible
        eigs = np.linalg.eigvalsh(np.stack([_ref_fiber(op, lam, False) for lam in nodes]))
        want = SpectrumSet.canonical(_distinct(eigs.ravel()), 1e-9, truncated=True)
        assert repr(spectrum_parametric(op, grid, tol=1e-9)) == repr(want)
        # the restriction check's top-mode coefficients, read off the reference
        k, top = op.base.cutoff, 2 * op.base.cutoff
        c0, c1 = (
            float(_ref_fiber(op, lam, False)[top, top].real) / float(k**op.order)
            for lam in ((0.0,) * n, (1.0,) + (0.0,) * (n - 1))
        )
        tolerance = (abs(c0) + abs(c1) + 1e-9) / k
        want = parametric.RestrictionCheck(abs(c0 - c1) <= tolerance, c0, c1, tolerance)
        assert symbol_restriction_check(op) == want
        for lam in nodes[:: max(1, len(nodes) // 4)]:
            assert np.array_equal(fiber(op, lam, reduced), _ref_fiber(op, lam, reduced))


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_one_operator_sweeps_its_principal_symbol_once(monkeypatch):
    svd = _count_calls(monkeypatch, "svd")
    grid = LambdaGrid.build(1, window=1.0, step=0.25)
    # a complex top coefficient: complex symbol and fiber diagonals, so both go to the SVD
    complex_coeff = InvariantOperator.build(
        CircleBase(3), 1, {(1, (0,)): 1.0, (0, (2,)): 1.0 + 0.5j, (0, (0,)): 1.0}
    )
    invertible_parametric(complex_coeff, grid)
    invertible_parametric(complex_coeff, grid)
    # one symbol sweep over one column per direction, then the 5 fiber
    # classes per query, over modes -3 .. 0
    assert svd == [(64, 1, 1), (5, 4, 4), (5, 4, 4)]
    # a real circle operator's symbols and fibers are real diagonals: no SVD at
    # all, and its spectrum and invertibility queries share one sweep
    svd.clear()
    sweep, sweeps = parametric._principal_symbols, []

    def counted(op, dirs):
        sweeps.append(len(dirs))
        return sweep(op, dirs)

    monkeypatch.setattr(parametric, "_principal_symbols", counted)
    op = InvariantOperator.shifted_laplacian(CircleBase(3), n=1, shift=1.0)
    spectrum_parametric(op, grid)
    invertible_parametric(op, grid)
    spectrum_parametric(op, grid)
    assert svd == [] and sweeps == [64]
    dirs = [dirn for dirn, _smin in op._symbol_sweep]
    dense = parametric._as_matrices(sweep(op, dirs))
    want = np.linalg.svd(dense, compute_uv=False)[:, -1]
    assert np.array_equal([smin for _dirn, smin in op._symbol_sweep], want)
    assert all(type(x) is float for (xi, eta), _s in op._symbol_sweep for x in (xi, *eta))
    with pytest.raises(NotElliptic, match=r"eta=\(1\.0,\)"):
        spectrum_parametric(InvariantOperator.build(CircleBase(2), 1, {(1, (0,)): 1.0}), grid)


def test_only_real_diagonal_fibers_skip_lapack(monkeypatch):
    svd = _count_calls(monkeypatch, "svd")
    eigvalsh = _count_calls(monkeypatch, "eigvalsh")
    grid = LambdaGrid.build(1, window=1.0, step=0.25)
    classes = 5  # +-lam share a class: 5 distinct fibers on the 9 nodes
    real = InvariantOperator.shifted_laplacian(CircleBase(3), n=1, shift=1.0)

    def fiber_stacks():  # the symbol sweep's SVD is over 64 (circle) or 2 (graph) directions
        return [shape for shape in svd if shape[0] not in (64, 2)]

    invertible_parametric(real, grid)
    spectrum_parametric(real, grid)
    assert fiber_stacks() == [] and eigvalsh == []
    complex_coeff = InvariantOperator.build(
        CircleBase(3), 1, {(1, (0,)): 1.0, (0, (2,)): 1.0, (0, (0,)): 1.0 + 0.5j}
    )
    invertible_parametric(complex_coeff, grid)
    assert fiber_stacks() == [(classes, 4, 4)]  # modes -3 .. 0
    # a spectrum reads its diagonals' real parts
    eigvalsh.clear()
    with pytest.raises(NotSelfAdjoint):
        spectrum_parametric(complex_coeff, grid)
    assert eigvalsh == []
    # a real graph operator's blocks are real diagonals over the eigenvalues of
    # L, from the one eigvalsh of L that its base keeps: no SVD
    graph = InvariantOperator.shifted_laplacian(path_graph(4), n=1, shift=1.0)
    svd.clear()
    invertible_parametric(graph, grid)
    spectrum_parametric(graph, grid)
    assert svd == [] and eigvalsh == [(4, 4)]


def test_parametric_memory_follows_the_chunk_not_the_grid():
    op = InvariantOperator.shifted_laplacian(CircleBase(8), n=1, shift=1.0)
    peaks = []
    for step in (1 / 256, 1 / 1024):
        grid = LambdaGrid.build(1, window=4.0, step=step)
        tracemalloc.start()
        try:
            invertible_parametric(op, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 4 times the nodes; the bound was fixed before measuring
    assert peaks[1] - peaks[0] <= 4 * 2**20


def test_wide_grid_keeps_its_axis_not_its_nodes():
    tracemalloc.start()
    try:
        grid = LambdaGrid.build(3, window=4.0, step=1 / 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid.axis) ** 3 == 2_146_689
    assert peak < 2**20


def _invertible_peak(op: InvariantOperator, grid: LambdaGrid) -> int:
    """tracemalloc peak of invertible_parametric on an invertible operator."""
    tracemalloc.start()
    try:
        v = invertible_parametric(op, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.invertible and v.min_sigma > 0.0
    return peak


def test_invertible_on_a_wide_grid_peaks_within_two_blocks():
    # 65^3 classes of the 129^3 nodes; all of them at once would take 21 MiB
    op = InvariantOperator.shifted_laplacian(CircleBase(2), n=3, shift=1.0)
    grid = LambdaGrid.build(3, window=4.0, step=1 / 16)
    block = parametric._CHUNK_ENTRIES * np.dtype(complex).itemsize  # 4 MiB
    assert _invertible_peak(op, grid) <= 2 * block


def test_graph_invertible_on_a_wide_grid_peaks_within_two_blocks():
    # the 65^3 classes of (m, 5) diagonals at once would take 21 MiB
    op = InvariantOperator.shifted_laplacian(path_graph(5), n=3, shift=2.0)
    grid = LambdaGrid.build(3, window=4.0, step=1 / 16)
    block = parametric._CHUNK_ENTRIES * np.dtype(complex).itemsize  # 4 MiB
    assert _invertible_peak(op, grid) <= 2 * block


@pytest.mark.parametrize("shift", [0.5, 2.5, 0.0, -((37 / 128) ** 2)])
def test_graph_queries_call_lapack_only_on_the_laplacian(monkeypatch, shift):
    # the graph operator of the fiber-sweep benchmark: 513 classes of 1025 nodes
    op = InvariantOperator.shifted_laplacian(path_graph(8), n=1, shift=shift)
    grid = LambdaGrid.build(1, window=4.0, step=1 / 128)
    nodes = grid_nodes(grid)
    names = ("svd", "eigh", "eigvalsh", "eig", "eigvals", "solve", "inv")
    calls = {name: _count_calls(monkeypatch, name) for name in names}
    v = invertible_parametric(op, grid)
    spectrum_parametric(op, grid)
    parametric.observable_spectrum_parametric(op, grid, 1e-9)
    # one eigvalsh of L, kept on the base for the symbol sweep and every query, and nothing else
    assert calls.pop("eigvalsh") == [(8, 8)]
    assert not any(calls.values())
    monkeypatch.undo()
    # the first minimizing node of the whole grid, sigma_min within the bound of the dense SVD
    sigmas = parametric._sigma_min(np.concatenate(list(_fiber_chunks(op, full_axes(op, grid), True))))
    worst = int(np.argmin(sigmas))
    assert v.min_sigma == float(sigmas[worst])
    assert v.invertible == (shift > 0)
    first = {0.0: (0.0,), -((37 / 128) ** 2): (-37 / 128,)}
    assert v.failing_lambda == (None if shift > 0 else nodes[worst]) == first.get(shift)
    dense = np.linalg.svd(np.stack([_ref_fiber(op, lam, True) for lam in nodes]), compute_uv=False)
    bound = max(_graph_tolerance(op, lam, True) for lam in nodes)
    assert abs(v.min_sigma - dense[:, -1].min()) <= bound


def test_a_graph_scenario_solves_its_laplacian_once(monkeypatch):
    queries = ("parametric-spectrum", "parametric-invertible", "observable-spectrum")
    scenario = parse_scenario(
        "scenario-version: 1\n"
        "operators:\n"
        "  - id: path\n"
        "    base: graph-path 6\n"
        "    directions: 1\n"
        "    term 1 0: 1\n"
        "    term 0 2: 1\n"
        "    term 0 0: -1/16\n"
        "queries:\n"
        + "".join(
            f"  - id: q{i}\n    kind: {kind}\n    operator: path\n    window: 2\n    step: 1/32\n"
            for i, kind in enumerate(queries)
        )
    )
    eigvalsh = _count_calls(monkeypatch, "eigvalsh")
    results = run_scenario(scenario)["results"]
    assert [r["kind"] for r in results] == list(queries)
    # the symbol sweep and all three queries read the eigenvalues the base keeps
    assert eigvalsh == [(6, 6)]
    mu = scenario.operators["path"].base.eigenvalues
    assert not mu.flags.writeable
    assert mu.tobytes() == parametric._mode_values(scenario.operators["path"].base).tobytes()


def _random_graph(rng, d: int) -> GraphBase:
    """A graph on d vertices whose edges carry random integer weights 1 .. 5."""
    a = np.triu(rng.integers(1, 6, (d, d)) * (rng.random((d, d)) < 0.6), 1)
    return GraphBase(a + a.T)


@pytest.mark.parametrize("n", [1, 2])
def test_graph_answers_equal_a_dense_reference_on_random_weighted_graphs(n):
    grid = LambdaGrid.build(n, window=1.0, step={1: 1 / 8, 2: 0.25}[n])
    nodes = grid_nodes(grid)
    for seed in range(6):
        rng = np.random.default_rng([3000, n, seed])
        base = _random_graph(rng, int(rng.integers(1, 8)))
        herm = _class_test_operator(rng, base, n, odd=seed % 2 == 1, hermitian=True)
        cplx = _class_test_operator(rng, base, n, odd=seed % 2 == 1, hermitian=False, s=1.5)
        assert any(c.imag for _ja, c in cplx.terms)
        for op in (herm, cplx):
            for reduced in (False, True):
                for lam in nodes[::3]:
                    gap = np.abs(fiber(op, lam, reduced) - _ref_fiber(op, lam, reduced)).max()
                    assert gap <= _graph_tolerance(op, lam, reduced)
            # sigma_min over the grid against the dense SVD of every reduced fiber
            dense = np.linalg.svd(
                np.stack([_ref_fiber(op, lam, True) for lam in nodes]), compute_uv=False
            )[:, -1]
            bound = max(_graph_tolerance(op, lam, True) for lam in nodes)
            assert abs(invertible_parametric(op, grid, tol=np.inf).min_sigma - dense.min()) <= bound
            # principal symbols at the swept directions and at a few others
            dirs = [dirn for dirn, _smin in op._symbol_sweep] + [
                (0.0, tuple(float(y) for y in rng.choice([-1.5, -0.5, 0.0, 0.3, 2.0], n)))
                for _ in range(4)
            ]
            for xi, eta in dirs:
                gap = np.abs(principal_symbol(op, xi, eta) - _ref_principal_symbol(op, xi, eta)).max()
                assert gap <= _graph_tolerance(op, eta, top=True)
        # the spectrum: every dense eigenvalue within the bound of a point, and back
        got = spectrum_parametric(herm, grid, tol=0.0).values
        want = np.linalg.eigvalsh(np.stack([_ref_fiber(herm, lam, False) for lam in nodes]))
        bound = max(_graph_tolerance(herm, lam) for lam in nodes)
        gaps = np.abs(got[:, None] - want.ravel()[None, :])
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= bound


def test_graph_spectrum_on_a_large_path_builds_no_dense_fiber():
    base = GraphBase(np.eye(1024, k=1) + np.eye(1024, k=-1))
    op = InvariantOperator.shifted_laplacian(base, n=1, shift=0.5)
    grid = LambdaGrid.build(1, window=1.0, step=1 / 8)
    tracemalloc.start()
    try:
        got = spectrum_parametric(op, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 9 classes of the 17 nodes times the 1024 eigenvalues of L, all distinct
    assert len(got.values) == 9 * 1024
    # one dense (1, d, d) complex block would take 16 MiB
    assert peak < base.dim**2 * np.dtype(complex).itemsize


def test_graph_laplacian_zeros_are_exact_on_every_component():
    # weighted path 3, an isolated vertex, a weighted edge: 3 components
    a = np.zeros((6, 6))
    a[0, 1] = a[1, 0] = 3.0
    a[1, 2] = a[2, 1] = 5.0
    a[4, 5] = a[5, 4] = 2.0
    base = GraphBase(a)
    assert base.components == 3 and path_graph(8).components == 1
    mu = parametric._mode_values(base)
    assert mu[:3].tolist() == [0.0, 0.0, 0.0] and (mu[3:] > 1.0).all()
    assert np.abs(mu - np.linalg.eigvalsh(base.laplacian())).max() <= 1e-14
    # 2.82 L + 1.31 lam^2 - 3.6 lam vanishes exactly on the null space of L
    # at lam = 0; eigvalsh alone puts the zero of path 3 at about 4e-17
    op = InvariantOperator.build(path_graph(3), 1, {(1, (0,)): 2.82, (0, (2,)): 1.31, (0, (1,)): -3.6})
    assert np.linalg.eigvalsh(op.base.laplacian())[0] != 0.0
    v = invertible_parametric(op, LambdaGrid.build(1, window=1 / 32, step=1 / 32), tol=0.0)
    assert (v.invertible, v.min_sigma, v.failing_lambda) == (False, 0.0, (0.0,))


def test_graph_adjacency_must_be_exactly_symmetric():
    a = np.array([[0.0, 1e6], [1e6 + 1, 0.0]])
    assert np.allclose(a, a.T)
    with pytest.raises(ValueError, match="^adjacency must be symmetric$"):
        GraphBase(a)


# ---------------------------------------------------------------------------
# the class grid against every node of the grid


def _class_test_operator(rng, base, n: int, odd: bool, hermitian: bool, s=None):
    """An elliptic order-4 operator with random lower-order terms.

    Lower-order exponents are even unless odd is set; coefficients are real
    when hermitian is set, complex otherwise.  s is the Sobolev level
    (default: the order).
    """
    terms = {(2, (0,) * n): 1.0}
    for i in range(n):
        terms[(0, tuple(4 if j == i else 0 for j in range(n)))] = 1.0
    exponents = [0, 1, 2, 3] if odd else [0, 2]

    def lower_alpha(limit: int) -> tuple:
        while True:
            alpha = tuple(int(a) for a in rng.choice(exponents, n))
            if sum(alpha) <= limit:
                return alpha

    def value():
        return float(rng.normal()) if hermitian else complex(*rng.normal(size=2))

    for _ in range(3):
        terms[(0, lower_alpha(3))] = value()
    terms[(1, lower_alpha(1))] = value()
    return InvariantOperator.build(base, n, terms, s=s)


@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["circle", "graph", "graph-9"])
def test_class_grid_answers_equal_the_full_grid_bitwise(monkeypatch, kind, n, odd):
    # blocks of 3 fibers, so that both walks cross many block boundaries
    base = {"circle": CircleBase(2), "graph": path_graph(4), "graph-9": path_graph(9)}[kind]
    monkeypatch.setattr(parametric, "_CHUNK_ENTRIES", 3 * base.dim**2)
    step = {1: 1 / 8, 2: 0.25, 3: 0.5}[n]
    grid = LambdaGrid.build(n, window=1.0, step=step)
    nodes = grid_nodes(grid)
    full, half = len(grid.axis), len(grid.axis) // 2 + 1
    # no term on the axes after the first: one class each, unless the
    # fibers are reduced, which reads |lam|^2
    flat = InvariantOperator.build(
        base, n, {(1, (0,) * n): 1.0, (0, (2,) + (0,) * (n - 1)): 1.0, (0, (0,) * n): -0.5}
    )
    classes = [coords for coords, _powers in _class_axes(flat, grid, False)]
    assert classes[1:] == [(grid.axis[0],)] * (n - 1)
    # singular on mode 0 where |lam|^2 (+ lam1 when odd) hits the shift: on
    # dyadic nodes such as (-1/2, 0) and (0, -1/2), which lie in different
    # classes, the even fibers are bitwise equal, so their sigma_min tie
    squares = [tuple(2 if j == i else 0 for j in range(n)) for i in range(n)]
    zero = {(1, (0,) * n): 1.0, (0, (0,) * n): -0.75 if odd else -0.25}
    zero.update({(0, alpha): 1.0 for alpha in squares})
    if odd:
        zero[(0, (1,) + (0,) * (n - 1))] = 1.0
    singular = InvariantOperator.build(base, n, zero, s=5.5)
    # 0.7 (|lam|^2 - r) vanishes in exact arithmetic on permutations of one
    # node, in different classes, and rounding alone orders their fibers
    r = {1: 1 / 4, 2: 5 / 16, 3: 5 / 4}[n]
    near = {(1, (0,) * n): 1.0, (0, (0,) * n): -0.7 * r}
    near.update({(0, alpha): 0.7 for alpha in squares})
    cases = [(flat, False), (singular, True), (InvariantOperator.build(base, n, near), True)]
    for seed in range(4):
        rng = np.random.default_rng([1400, n, int(odd), seed])
        for hermitian in (True, False):
            s = None if seed % 2 == 0 else float(rng.uniform(-3.0, 6.0))
            op = _class_test_operator(rng, base, n, odd, hermitian, s=s)
            cases.append((op, hermitian))
    for op, hermitian in cases:
        blocks = {}
        for reduced in (False, True):
            axes = _class_axes(op, grid, reduced)
            sizes = [len(coords) for coords, _powers in axes]
            # an axis with an odd exponent keeps all of it, any other axis
            # k = -half .. 0, and flat's unnamed axes one class unless reduced
            odd_axes = {i for (_j, alpha), _c in op.terms for i, a in enumerate(alpha) if a % 2}
            want = [full if i in odd_axes else half for i in range(n)]
            if op is flat and not reduced:
                want[1:] = [1] * (n - 1)
            assert sizes == want
            every = np.concatenate(list(_fiber_chunks(op, full_axes(op, grid), reduced)))
            distinct = np.concatenate(list(_fiber_chunks(op, axes, reduced)))
            assert len(distinct) == np.prod(sizes)
            assert {f.tobytes() for f in distinct} == {f.tobytes() for f in every}
            blocks[reduced] = every

        # the full-grid reference: one fiber per node, each solved alone; a
        # graph's are its diagonals over the eigenvalues of L
        if kind == "circle":
            sigmas = np.array(
                [np.linalg.svd(fiber(op, lam, True), compute_uv=False)[-1] for lam in nodes]
            )
        else:
            sigmas = np.concatenate([parametric._sigma_min(row[None]) for row in blocks[True]])
        if op is singular and not odd and n > 1:
            ties = np.flatnonzero(sigmas == sigmas.min())
            assert len({tuple(abs(x) for x in nodes[i]) for i in ties}) > 1
        v = invertible_parametric(op, grid, tol=np.inf)
        assert not v.invertible
        assert v.min_sigma == float(sigmas.min())
        assert v.failing_lambda == nodes[int(np.argmin(sigmas))]
        if hermitian:
            if kind == "circle":
                eigs = np.concatenate([np.linalg.eigvalsh(fiber(op, lam)) for lam in nodes])
            else:
                eigs = blocks[False].real.ravel()
            want = SpectrumSet.canonical(_distinct(eigs), 1e-9, truncated=True)
            assert repr(spectrum_parametric(op, grid, tol=1e-9)) == repr(want)


def _ref_verdicts(op: InvariantOperator, grid: LambdaGrid) -> list[tuple]:
    """(settings, verdict) of invertible_parametric from full-mode dense matrices and LAPACK.

    Every node's reduced fiber and every swept direction's principal symbol
    over all 2K + 1 modes, at the default margins and at tol = delta_sym =
    inf, where the verdict names both failures.
    """
    nodes = grid_nodes(grid)
    sigmas = np.linalg.svd(
        np.stack([_ref_fiber(op, lam, True) for lam in nodes]), compute_uv=False
    )[:, -1]
    dirs = parametric._sphere_directions(op.n)
    dirs = [(xi, eta) for xi, eta in dirs if np.sqrt(sum(x * x for x in eta)) >= 0.1]
    symbols = np.linalg.svd(
        np.stack([_ref_principal_symbol(op, xi, eta) for xi, eta in dirs]), compute_uv=False
    )[:, -1]
    i, j = int(np.argmin(sigmas)), int(np.argmin(symbols))
    out = []
    for tol, delta_sym in ((1e-9, 1e-6), (np.inf, np.inf)):
        fib_ok, sym_ok = bool(sigmas[i] > tol), bool(symbols[j] >= delta_sym)
        xi, eta = dirs[j]
        out.append(({"tol": tol, "delta_sym": delta_sym}, parametric.ParametricVerdict(
            invertible=fib_ok and sym_ok,
            min_sigma=float(sigmas[i]),
            failing_lambda=None if fib_ok else nodes[i],
            min_symbol=float(symbols[j]),
            failing_direction=None if sym_ok else (float(xi), *(float(x) for x in eta)),
        )))
    return out


@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
@pytest.mark.parametrize("n", [1, 2])
def test_circle_mode_classes_answer_equal_every_mode_bitwise(monkeypatch, n, odd):
    # modes k and -k share every L^j, so their columns are bitwise equal and
    # the modes -K .. 0 hold every distinct one; the block builder yields
    # only those, and both queries answer as the full-mode reference does:
    # every node's dense fiber over all 2K + 1 modes, solved by LAPACK
    base = CircleBase(5)
    k = base.cutoff
    monkeypatch.setattr(parametric, "_CHUNK_ENTRIES", 7 * base.dim**2)
    grid = LambdaGrid.build(n, window=1.0, step={1: 1 / 16, 2: 0.25}[n])
    nodes = grid_nodes(grid)
    # mode 0 vanishes exactly at lam = (1/2, 0, ..), and when even at its mirror images too
    zero = {(2, (0,) * n): 1 / 4, (1, (0,) * n): 1.0, (0, (0,) * n): -1 / 16 - (1 / 8 if odd else 0)}
    zero.update({(0, tuple(4 if j == i else 0 for j in range(n))): 1.0 for i in range(n)})
    if odd:
        zero[(0, (1,) + (0,) * (n - 1))] = 1 / 4
    ops = [InvariantOperator.build(base, n, zero, s=2.5)]
    for seed in range(4):
        rng = np.random.default_rng([2400, n, int(odd), seed])
        s = float(rng.uniform(-3.0, 6.0))
        ops += [_class_test_operator(rng, base, n, odd, herm, s=s) for herm in (True, False)]
    assert all(op.order == 4 and op.s != 4 for op in ops)
    for op in ops:
        real = not any(c.imag for _ja, c in op.terms)
        for reduced in (False, True):
            axes = _class_axes(op, grid, reduced)
            classes = np.concatenate(list(_fiber_chunks(op, axes, reduced)))
            at = itertools.product(*(coords for coords, _powers in axes))
            every = np.stack([np.diagonal(_ref_fiber(op, lam, reduced)) for lam in at])
            assert classes.shape == (len(every), k + 1)
            # a real operator's blocks are float64: bitwise the complex reference's real parts
            assert classes.dtype == (float if real else complex)
            assert classes.astype(complex).tobytes() == every[:, : k + 1].tobytes()
            assert every[:, k:].tobytes() == every[:, k::-1].tobytes()
        verdict = invertible_parametric(op, grid, tol=np.inf)
        for settings, want in _ref_verdicts(op, grid):
            assert repr(vars(invertible_parametric(op, grid, **settings))) == repr(vars(want))
        if not any(c.imag for _ja, c in op.terms):
            eigs = np.linalg.eigvalsh(np.stack([_ref_fiber(op, lam, False) for lam in nodes]))
            want = SpectrumSet.canonical(_distinct(eigs.ravel()), 1e-9, truncated=True)
            assert repr(spectrum_parametric(op, grid, tol=1e-9)) == repr(want)
        if op is ops[0]:
            first = (0.5 if odd else -0.5,) + (0.0,) * (n - 1)  # even: +-1/2 tie
            assert verdict.min_sigma == 0.0 and verdict.failing_lambda == first


@pytest.mark.parametrize("cutoff", [3, 100])
def test_complex_circle_invertibility_equals_the_full_mode_svd_bitwise(cutoff):
    # complex diagonals reach the SVD over modes -K .. 0 only.  At K = 100
    # the 201-mode SVD of the reference runs LAPACK's blocked
    # bidiagonalization and the 101-column class SVD does not; the smallest
    # singular value of a diagonal is still bitwise the same.
    grid = LambdaGrid.build(1, window=1.0, step=1 / 8)
    nodes = grid_nodes(grid)
    rng = np.random.default_rng([2700, cutoff])
    for odd in (False, True):
        for _ in range(2):
            op = _class_test_operator(rng, CircleBase(cutoff), 1, odd, False, s=1.5)
            assert any(c.imag for _ja, c in op.terms)
            for settings, want in _ref_verdicts(op, grid):
                assert repr(vars(invertible_parametric(op, grid, **settings))) == repr(vars(want))


@pytest.mark.parametrize("cutoff", [3, 100])
def test_circle_symbol_sweep_of_one_column_equals_the_full_diagonal_svd_bitwise(cutoff):
    # a circle's principal symbol is a multiple of I, so its diagonals have
    # equal columns: the sweep's 1 x 1 SVDs must give the smallest singular
    # value of the whole (2K + 1)-mode diagonal, byte for byte
    rng = np.random.default_rng([2800, cutoff])
    for n in (1, 2):
        for _ in range(3):
            terms = {(1, (0,) * n): complex(*rng.normal(size=2)), (0, (0,) * n): 1.0}
            for i in range(n):
                terms[(0, tuple(2 if j == i else 0 for j in range(n)))] = complex(*rng.normal(size=2))
            op = InvariantOperator.build(CircleBase(cutoff), n, terms)
            dirs = [d for d, _smin in op._symbol_sweep]
            symbols = parametric._principal_symbols(op, dirs)
            assert symbols.shape == (len(dirs), 2 * cutoff + 1) and symbols.imag.any()
            full = parametric._sigma_min(symbols)
            assert np.array([smin for _d, smin in op._symbol_sweep]).tobytes() == full.tobytes()


def _complex_chunks(op, axes, reduced=False):
    """The fiber blocks of every operator accumulated in complex128: the block
    builder's arithmetic on the complex coefficients, as before real operators
    kept float64 blocks."""
    mu = parametric._mode_values(op.base)
    s, order = op.s, float(op.order)
    for at, lam_sq in parametric._node_blocks(axes, op.base.dim):
        acc = np.zeros((len(lam_sq), len(mu)), dtype=complex)
        for (j, alpha), coeff in op.terms:
            term = (coeff * parametric._monomial(axes, at, alpha))[:, None]
            acc += term * mu**j if j else term
        if reduced:
            dd = (1.0 + lam_sq)[:, None] + mu
            acc = (acc * dd ** ((s - order) / 2.0)) * dd ** (-s / 2.0)
        yield acc


def _complex_symbols(op, dirs):
    """The principal symbol stack accumulated in complex128, likewise."""
    graph = isinstance(op.base, GraphBase)
    mu = parametric._mode_values(op.base) if graph else np.ones(op.base.dim)
    eta = parametric._power_axes(op, [[float(e[i]) for _xi, e in dirs] for i in range(op.n)])
    at = (np.arange(len(dirs)),) * op.n
    out = np.zeros((len(dirs), len(mu)), dtype=complex)
    for (j, alpha), coeff in op.terms:
        if 2 * j + sum(alpha) == op.order:
            xi = 1.0 if graph else np.array([float(x) ** (2 * j) for x, _eta in dirs])
            out = out + ((coeff * xi) * parametric._monomial(eta, at, alpha))[:, None] * mu**j
    return out


def _query_outcomes(op, grid):
    """Every parametric query's answer on op, or its error, as comparable text."""
    queries = {
        "spectrum": lambda: spectrum_parametric(op, grid, tol=1e-9),
        "invertible": lambda: vars(invertible_parametric(op, grid)),
        "failing": lambda: vars(invertible_parametric(op, grid, tol=np.inf, delta_sym=np.inf)),
        "observable": lambda: observable_spectrum_parametric(op, grid, 1e-6),
        "restriction": lambda: vars(symbol_restriction_check(op)),
    }
    out = {}
    for name, query in queries.items():
        try:
            got = query()
        except ToolkitError as err:  # the reference must raise the same error
            out[name] = (type(err).__name__, str(err))
            continue
        if isinstance(got, SpectrumSet):
            got = (repr(got), got.values.dtype, got.values.tobytes())
        out[name] = repr(got)
    return out


@pytest.mark.parametrize("chunk", [None, 3], ids=["one-block", "3-node-blocks"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["circle", "graph"])
def test_real_operators_keep_float64_blocks_bitwise_equal_to_the_complex_route(
    monkeypatch, kind, n, chunk
):
    base = {"circle": CircleBase(2), "graph": path_graph(4)}[kind]
    if chunk:
        monkeypatch.setattr(parametric, "_CHUNK_ENTRIES", chunk * base.dim**2)
    # at step 1e-170 every square underflows
    grids = [LambdaGrid.build(n, 1.0, {1: 1 / 8, 2: 0.25, 3: 0.5}[n]), LambdaGrid.build(n, 3e-170, 1e-170)]
    rng = np.random.default_rng([3200, n, len(kind), chunk or 0])
    ops = []
    for odd in (False, True):
        op = _class_test_operator(rng, base, n, odd, True, s=float(rng.uniform(-3.0, 6.0)))
        # an imaginary part of -0.0 is zero too: such an operator is real
        terms = {ja: complex(c.real, -0.0) if i % 2 else c.real for i, (ja, c) in enumerate(op.terms)}
        ops += [op, InvariantOperator.build(base, n, terms, s=op.s)]
        assert any(str(c.imag) == "-0.0" for _ja, c in ops[-1].terms)
    # one nonzero imaginary part keeps the operator on the complex route
    ja, c = ops[0].terms[-1]
    ops.append(InvariantOperator.build(base, n, {**dict(ops[0].terms), ja: c + 1e-13j}, s=ops[0].s))
    for op in ops:
        real = not any(c.imag for _ja, c in op.terms)
        twin = InvariantOperator.build(base, n, dict(op.terms), s=op.s)  # its own symbol sweep
        dirs = [d for d, _smin in op._symbol_sweep]
        symbols, want = parametric._principal_symbols(op, dirs), _complex_symbols(op, dirs)
        assert symbols.dtype == (float if real else complex)
        assert symbols.astype(complex).tobytes() == want.tobytes()
        for grid in grids:
            for reduced in (False, True):
                axes = _class_axes(op, grid, reduced)
                blocks = list(_fiber_chunks(op, axes, reduced))
                wants = list(_complex_chunks(op, axes, reduced))
                assert len(blocks) == len(wants) and (chunk is None) == (len(blocks) == 1)
                for block, want in zip(blocks, wants):
                    assert block.dtype == (float if real else complex)
                    # a real block is the complex block's real part, whose imaginary part is +0.0
                    assert block.astype(complex).tobytes() == want.tobytes()
            got = _query_outcomes(op, grid)
            with monkeypatch.context() as m:
                m.setattr(parametric, "_fiber_chunks", _complex_chunks)
                m.setattr(parametric, "_principal_symbols", _complex_symbols)
                assert got == _query_outcomes(twin, grid)
                lam, (xi, eta) = (grid.axis[-2],) * n, dirs[1]
                want = [fiber(twin, lam, r) for r in (False, True)] + [principal_symbol(twin, xi, eta)]
            views = [fiber(op, lam, r) for r in (False, True)] + [principal_symbol(op, xi, eta)]
            for view, ref in zip(views, want):
                assert view.dtype == ref.dtype == complex and view.tobytes() == ref.tobytes()


def test_a_grid_builds_each_power_table_once_for_all_its_directions():
    terms = {(1, (0, 0, 0)): 1.0, (0, (0, 3, 3)): 0.5, (0, (0, 0, 1)): 0.25}
    terms.update({(0, tuple(2 if j == i else 0 for j in range(3))): 1.0 for i in range(3)})
    op = InvariantOperator.build(CircleBase(2), 3, terms)
    grid = LambdaGrid.build(3, window=1.0, step=0.1)
    (_c0, p0), (_c1, p1), (_c2, p2) = parametric._power_axes(op, [grid.axis] * 3)
    assert (sorted(p0), sorted(p1), sorted(p2)) == ([2], [2, 3], [1, 2, 3])
    assert p0[2] is p1[2] is p2[2] and p1[3] is p2[3]
    assert np.array_equal(p2[3], np.array([x**3 for x in grid.axis]))
    # other axis objects get their own tables
    (_c, q0), (_c, q1), (_c, _q2) = parametric._power_axes(op, [list(grid.axis) for _ in range(3)])
    assert q0[2] is not q1[2] and np.array_equal(q0[2], p0[2])


def test_class_axes_follow_the_parity_of_the_exponents(monkeypatch):
    tables = []
    power_axes = parametric._power_axes

    def counted(op, axes):
        tables.append(tuple(len(xs) for xs in axes))
        return power_axes(op, axes)

    monkeypatch.setattr(parametric, "_power_axes", counted)
    # axis 0 odd (lam1 and lam1^2), axis 1 even (lam2^4), axis 2 named by no term
    terms = {(1, (0, 0, 0)): 1.0, (0, (2, 0, 0)): 1.0, (0, (1, 0, 0)): 0.25, (0, (0, 4, 0)): 1.0}
    op = InvariantOperator.build(CircleBase(2), 3, terms)
    grid = LambdaGrid.build(3, window=1.0, step=0.25)
    axis, half = grid.axis, grid.axis[:5]
    assert len(axis) == 9 and half[-1] == 0.0
    unreduced = [coords for coords, _powers in _class_axes(op, grid, False)]
    reduced = [coords for coords, _powers in _class_axes(op, grid, True)]
    assert unreduced == [axis, half, (axis[0],)]
    assert reduced == [axis, half, half]
    assert tables == [(9, 5, 1), (9, 5, 5)]

    # one power table per query: nothing is kept between queries
    tables.clear()
    terms = {(1, (0, 0)): 1.0, (0, (2, 0)): 1.0, (0, (0, 2)): 1.0, (0, (1, 0)): 0.25}
    terms[(0, (0, 0))] = 0.5
    op = InvariantOperator.build(CircleBase(2), 2, terms)
    grid = LambdaGrid.build(2, window=1.0, step=0.25)
    spectrum = spectrum_parametric(op, grid)
    verdict = invertible_parametric(op, grid)
    # the symbol sweep's 98 directions, then one table per query
    assert tables == [(98, 98), (9, 5), (9, 5)]
    # a grid built again, with a window that rounds to the same axis
    again = LambdaGrid.build(2, window=1.1, step=1 / 4)
    assert again is not grid and again.axis == grid.axis == LambdaGrid(2, 1.0, 0.25).axis
    with pytest.raises(TypeError):
        LambdaGrid(2, 1.0, 0.25, (-3.0, -1.5, 0.0, 1.5, 3.0))
    assert repr(spectrum_parametric(op, again)) == repr(spectrum)
    assert repr(invertible_parametric(op, again)) == repr(verdict)
    assert tables[3:] == [(9, 5), (9, 5)]
    # the operator keeps its symbol sweep and |eta| values, nothing of a grid
    kept = set(vars(op)) - {f.name for f in dataclasses.fields(op)}
    assert kept == {"_symbol_sweep", "_eta_norms"}
    # the directions are built once per dimension, and each |eta| once per operator
    assert parametric._sphere_directions(2) is parametric._sphere_directions(2)
    norms = vars(op)["_eta_norms"]
    invertible_parametric(op, grid, delta_dir=0.5)
    assert op._eta_norms is norms and len(norms) == 98
    assert norms == [parametric._norm(eta) for (_xi, eta), _s in op._symbol_sweep]


def test_an_operator_keeps_nothing_of_a_grid_after_its_queries():
    tracemalloc.start()
    try:
        op = InvariantOperator.shifted_laplacian(CircleBase(2), n=1, shift=1.0)
        grid = LambdaGrid.build(1, window=8.0, step=2.0**-15)  # 524,289 points
        spectrum_parametric(op, grid)
        invertible_parametric(op, grid)
        del grid
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert op._symbol_sweep
    assert kept < 2**20


# ---------------------------------------------------------------------------
# monomials from the per-axis power tables against the per-block power path


def _unique_power_monomials(lam: np.ndarray, alpha: tuple) -> np.ndarray:
    """lam^alpha by the path the power tables replaced: per column, np.unique,
    then Python's v**a on the distinct values, multiplied onto 1.0 in axis order."""
    out = np.ones(len(lam))
    for x, a in zip(lam.T, alpha):
        if a:
            values, index = np.unique(x, return_inverse=True)
            out = out * np.array([v**a for v in values.tolist()])[index]
    return out


def _unique_power_chunks(monkeypatch, op, axes, reduced) -> list:
    """_fiber_chunks with each monomial recomputed from the block's coordinates."""

    def monomial(axes, at, alpha):
        lam = np.stack([np.array(coords)[i] for (coords, _powers), i in zip(axes, at)], axis=1)
        return _unique_power_monomials(lam, alpha)

    with monkeypatch.context() as patch:
        patch.setattr(parametric, "_monomial", monomial)
        return list(_fiber_chunks(op, axes, reduced))


def _assert_same_blocks(got: list, want: list):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def _power_test_operator(base, n: int) -> InvariantOperator:
    """Exponents 1 to 4 on every axis, and mixed monomials."""
    terms = {(1, (0,) * n): 1.0, (0, (0,) * n): 0.5}
    for i in range(n):
        for a in range(1, 5):
            terms[(0, tuple(a if k == i else 0 for k in range(n)))] = (-1) ** a * (a + 1) / 7
    if n > 1:
        terms[(0, (1, 3) + (0,) * (n - 2))] = 0.7
        terms[(1, (2, 1) + (0,) * (n - 2))] = complex(-0.3, 0.1)
    return InvariantOperator.build(base, n, terms, s=1.5)


@pytest.mark.parametrize("reduced", [False, True], ids=["raw", "reduced"])
@pytest.mark.parametrize("kind", ["circle", "graph"])
def test_fiber_blocks_equal_the_per_block_unique_power_path_bitwise(monkeypatch, kind, reduced):
    base = path_graph(5) if kind == "graph" else CircleBase(3)
    op = _power_test_operator(base, 2)
    # at step 1/10 Python's x**3 and x*x*x differ on some coordinates, so
    # products in place of the powers would change the fibers
    grid = LambdaGrid.build(2, window=1.0, step=0.1)
    assert any(x**3 != x * x * x for x in grid.axis)
    for axes in (full_axes(op, grid), _class_axes(op, grid, reduced)):
        got = list(_fiber_chunks(op, axes, reduced))
        assert sum(len(block) for block in got) == np.prod([len(c) for c, _powers in axes])
        _assert_same_blocks(got, _unique_power_chunks(monkeypatch, op, axes, reduced))


@pytest.mark.parametrize("reduced", [False, True], ids=["raw", "reduced"])
def test_both_blocks_of_an_axis_longer_than_one_chunk_equal_the_unique_power_path(
    monkeypatch, reduced
):
    op = _power_test_operator(CircleBase(3), 1)
    grid = LambdaGrid.build(1, window=4.0, step=1 / 1024)
    axes = _class_axes(op, grid, reduced)  # odd exponents: every coordinate is a class
    assert len(axes[0][0]) == len(grid.axis) > parametric._CHUNK_ENTRIES // op.base.dim**2
    got = list(_fiber_chunks(op, axes, reduced))
    assert len(got) == 2
    _assert_same_blocks(got, _unique_power_chunks(monkeypatch, op, axes, reduced))


# ---------------------------------------------------------------------------
# order reduction


def test_reduction_makes_identity_from_shifted_laplacian():
    # (1 - Laplacian) reduced at s = order: fibers become exactly 1
    op = InvariantOperator.shifted_laplacian(CircleBase(4), n=1, shift=1.0)
    for lam in ((0.0,), (1.5,), (-3.0,)):
        m = fiber(op, lam, True)
        assert np.abs(m - np.eye(op.base.dim)).max() <= 1e-12


def test_reduced_fibers_are_bounded_in_the_cutoff():
    # unreduced fibers grow like K^2; reduced ones stay order one
    for cutoff in (4, 16, 64):
        op = InvariantOperator.shifted_laplacian(CircleBase(cutoff), n=1, shift=1.0)
        raw = np.linalg.norm(fiber(op, (0.5,)), 2)
        red = np.linalg.norm(fiber(op, (0.5,), True), 2)
        assert raw >= cutoff**2
        assert red <= 2.0


def test_reduction_preserves_invertibility_verdicts():
    rng = np.random.default_rng(23)
    base = CircleBase(4)
    grid = LambdaGrid.build(1, window=2.0, step=0.25)
    for _ in range(50):
        shift = float(rng.uniform(-3.0, 3.0))
        op = InvariantOperator.shifted_laplacian(base, n=1, shift=shift)
        # the reduced fiber is the raw fiber scaled by positive weights,
        # so singular fibers stay singular and invertible ones invertible
        v_red = invertible_parametric(op, grid)
        raw_singular = any(
            np.linalg.svd(fiber(op, lam), compute_uv=False)[-1] <= 1e-9
            for lam in grid_nodes(grid)
        )
        assert v_red.invertible == (not raw_singular)


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_matches_analytic_laplacian_values():
    op = InvariantOperator.shifted_laplacian(CircleBase(16), n=1, shift=1.0)
    grid = LambdaGrid.build(1, window=4.0, step=1 / 32)
    got = spectrum_parametric(op, grid, tol=1e-9)
    assert got.truncated
    want_points = sorted(
        {1.0 + k * k + lam[0] ** 2 for k in range(-16, 17) for lam in grid_nodes(grid)}
    )
    want = SpectrumSet.canonical([complex(x) for x in want_points], 1e-9)
    assert hausdorff(got, want) <= 1e-9
    assert min(p.real for p in got.points) == pytest.approx(1.0, abs=1e-9)


def test_spectrum_union_refines_with_the_grid():
    op = InvariantOperator.shifted_laplacian(CircleBase(4), n=1, shift=0.0)
    coarse = spectrum_parametric(op, LambdaGrid.build(1, 2.0, 0.5), tol=1e-9)
    fine = spectrum_parametric(op, LambdaGrid.build(1, 2.0, 0.125), tol=1e-9)
    # every coarse point is a fine point
    for p in coarse.points:
        assert min(abs(p - q) for q in fine.points) <= 1e-9


def test_spectrum_agrees_with_observable_route():
    op = InvariantOperator.shifted_laplacian(CircleBase(6), n=1, shift=1.0)
    grid = LambdaGrid.build(1, window=2.0, step=0.25)
    direct = spectrum_parametric(op, grid, tol=1e-9)
    obs = Observable.fibered([fiber(op, lam) for lam in grid_nodes(grid)])
    via_cayley = spec_union_observable([obs], resolution=1e-9)
    assert hausdorff(direct, via_cayley) <= 1e-8


def test_spectrum_rejects_nonselfadjoint_operators():
    op = InvariantOperator.build(CircleBase(2), 1, {(1, (0,)): 1.0, (0, (2,)): 1.0 + 1j})
    with pytest.raises(NotSelfAdjoint):
        spectrum_parametric(op, LambdaGrid.build(1, 1.0, 0.5))


def test_spectrum_rejects_nonelliptic_operators():
    # compact-direction Laplacian alone: symbol xi^2 dies at pure
    # parameter directions
    op = InvariantOperator.build(CircleBase(2), 1, {(1, (0,)): 1.0})
    with pytest.raises(NotElliptic):
        spectrum_parametric(op, LambdaGrid.build(1, 1.0, 0.5))


def test_spectrum_checks_grid_dimension():
    op = InvariantOperator.shifted_laplacian(CircleBase(2), n=2, shift=1.0)
    with pytest.raises(IncompatibleQuery):
        spectrum_parametric(op, LambdaGrid.build(1, 1.0, 0.5))
    with pytest.raises(IncompatibleQuery):
        invertible_parametric(op, LambdaGrid.build(1, 1.0, 0.5))


def test_graph_spectrum_is_exact_in_the_compact_direction():
    base = path_graph(3)
    op = InvariantOperator.shifted_laplacian(base, n=1, shift=0.0)
    grid = LambdaGrid.build(1, window=1.0, step=0.5)
    got = spectrum_parametric(op, grid, tol=1e-9)
    lap_eigs = np.linalg.eigvalsh(base.laplacian())
    want = SpectrumSet.canonical(
        [complex(mu + lam[0] ** 2) for mu in lap_eigs for lam in grid_nodes(grid)], 1e-9
    )
    assert hausdorff(got, want) <= 1e-9


# ---------------------------------------------------------------------------
# invertibility


def test_shifted_laplacian_is_invertible():
    op = InvariantOperator.shifted_laplacian(CircleBase(16), n=1, shift=1.0)
    grid = LambdaGrid.build(1, window=4.0, step=1 / 32)
    v = invertible_parametric(op, grid)
    assert v.invertible
    assert v.failing_lambda is None and v.failing_direction is None
    assert v.min_symbol == pytest.approx(1.0)


def test_bare_laplacian_fails_at_the_zero_fiber():
    op = InvariantOperator.shifted_laplacian(CircleBase(16), n=1, shift=0.0)
    grid = LambdaGrid.build(1, window=4.0, step=1 / 32)
    v = invertible_parametric(op, grid)
    assert not v.invertible
    assert v.failing_lambda == (0.0,)
    assert v.min_sigma == pytest.approx(0.0, abs=1e-12)


def test_negative_shift_fails_on_some_interior_fiber():
    op = InvariantOperator.shifted_laplacian(CircleBase(8), n=1, shift=-1.0)
    grid = LambdaGrid.build(1, window=2.0, step=0.25)
    v = invertible_parametric(op, grid)
    assert not v.invertible
    assert v.failing_lambda is not None
    lam = v.failing_lambda[0]
    # -1 + lam^2 + k^2 = 0 needs lam = 1, k = 0 on this grid
    assert abs(abs(lam) - 1.0) <= 1e-12


def test_direction_margin_detects_degenerate_symbol():
    # xi^2 - eta^2 type symbol: elliptic nowhere near the diagonal
    op = InvariantOperator.build(
        CircleBase(4), 1, {(1, (0,)): 1.0, (0, (2,)): -1.0, (0, (0,)): 5.0}
    )
    grid = LambdaGrid.build(1, window=1.0, step=0.5)
    v = invertible_parametric(op, grid)
    assert not v.invertible
    assert v.failing_direction is not None
    assert v.min_symbol < 1e-6


@pytest.mark.parametrize("base, n", [(path_graph(4), 1), (CircleBase(2), 2)], ids=["graph", "circle"])
def test_a_delta_dir_above_every_direction_is_refused(base, n):
    op = InvariantOperator.shifted_laplacian(base, n, shift=0.5)
    grid = LambdaGrid.build(n, window=1.0, step=0.5)
    largest = max(parametric._norm(eta) for (_xi, eta), _smin in op._symbol_sweep)
    assert largest == 1.0
    assert invertible_parametric(op, grid, delta_dir=largest).min_symbol < np.inf
    with pytest.raises(IncompatibleQuery, match=re.escape("the largest |eta| is 1.0")):
        invertible_parametric(op, grid, delta_dir=2.0)


def test_graph_invertibility():
    base = path_graph(4)
    good = InvariantOperator.shifted_laplacian(base, n=1, shift=1.0)
    bad = InvariantOperator.shifted_laplacian(base, n=1, shift=0.0)
    grid = LambdaGrid.build(1, window=2.0, step=0.5)
    assert invertible_parametric(good, grid).invertible
    v = invertible_parametric(bad, grid)
    assert not v.invertible and v.failing_lambda == (0.0,)


# ---------------------------------------------------------------------------
# symbol restriction


def test_restriction_check_passes_for_shifted_laplacian():
    op = InvariantOperator.shifted_laplacian(CircleBase(16), n=1, shift=1.0)
    r = symbol_restriction_check(op)
    assert r.passed
    assert r.c0 == pytest.approx(1.0, abs=0.01)
    assert r.c1 == pytest.approx(1.0, abs=0.01)


def test_restriction_check_fails_for_top_order_parameter_mixing():
    # k^2 * lam carries the parameter into the compact top order
    op = InvariantOperator.build(
        CircleBase(16), 1, {(1, (1,)): 1.0, (0, (3,)): 1.0, (1, (0,)): 1.0}
    )
    assert op.order == 3
    r = symbol_restriction_check(op)
    assert not r.passed


def test_restriction_check_needs_modes_and_circle():
    with pytest.raises(CutoffTooSmall):
        symbol_restriction_check(
            InvariantOperator.shifted_laplacian(CircleBase(1), n=1, shift=1.0)
        )
    with pytest.raises(UnsupportedModel):
        symbol_restriction_check(
            InvariantOperator.shifted_laplacian(path_graph(3), n=1, shift=1.0)
        )


# ---------------------------------------------------------------------------
# principal symbol values


def _ref_principal_symbol(op: InvariantOperator, xi: float, eta: tuple) -> np.ndarray:
    """One principal symbol with the arithmetic the stacked builder must keep."""
    d = op.base.dim
    out = np.zeros((d, d), dtype=complex)
    for (j, alpha), coeff in op.terms:
        if 2 * j + sum(alpha) != op.order:
            continue
        if isinstance(op.base, GraphBase):
            lap_j = np.linalg.matrix_power(op.base.laplacian(), j)
            out = out + coeff * _ref_lam_power(eta, alpha) * lap_j
        else:
            out = out + coeff * xi ** (2 * j) * _ref_lam_power(eta, alpha) * np.eye(d)
    return out


def _random_top_operator(rng, base, n: int) -> InvariantOperator:
    """Complex top terms with j = 0, 1, 2, plus lower-order noise."""
    terms = {(0, (1,) + (0,) * (n - 1)): float(rng.normal())}
    for j in (0, 1, 2, int(rng.integers(0, 3))):
        alpha = np.zeros(n, dtype=int)
        np.add.at(alpha, rng.integers(0, n, 4 - 2 * j), 1)
        terms[(j, tuple(int(a) for a in alpha))] = complex(*rng.normal(size=2))
    return InvariantOperator.build(base, n, terms)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["circle", "graph"])
def test_symbol_stack_equals_the_per_direction_reference(kind, n):
    for seed in range(10):
        rng = np.random.default_rng([n, seed])
        # weighted edges, so that Laplacian entries are not powers of two
        weights = np.array([[0, 3, 1, 0], [3, 0, 0, 5], [1, 0, 0, 1], [0, 5, 1, 0]])
        base = CircleBase(3) if kind == "circle" else GraphBase(weights)
        op = _random_top_operator(rng, base, n)
        assert op.order == 4
        swept = [dirn for dirn, _smin in op._symbol_sweep]
        extra = [
            (float(x), tuple(float(y) for y in rng.choice([-1.5, -0.5, 0.0, 0.3, 2.0], n)))
            for x in rng.normal(size=6)
        ]
        dirs = swept + extra
        want = np.stack([_ref_principal_symbol(op, xi, eta) for xi, eta in dirs])
        got = parametric._principal_symbols(op, dirs)
        if kind == "circle":
            assert np.array_equal(parametric._as_matrices(got), want)
            for i in range(0, len(dirs), 7):
                assert np.array_equal(principal_symbol(op, *dirs[i]), want[i])
            continue
        # a graph's diagonals over the eigenvalues of L, mapped back within the bound
        v = _eigenbasis(base)
        for i, (xi, eta) in enumerate(dirs):
            bound = _graph_tolerance(op, eta, top=True)
            assert np.abs((v * got[i]) @ v.T - want[i]).max() <= bound
            if i % 7 == 0:
                assert np.abs(principal_symbol(op, xi, eta) - want[i]).max() <= bound


# length and sha256 of repr(list) of each direction set, as the per-point
# loops with round(x, 12) merging built them; verdicts report the first
# minimizing direction, so the order is pinned along with the bits
_DIRECTION_SETS = {
    ("sphere", 1): (64, "1725f574d9d29e376b99c5bda92fde8db7d6fdc0ab8b8e20dd54cdfa640d05c2"),
    ("sphere", 2): (98, "36daa44907bc74b68a49c8536fb7293e3e1298b22a5be24cd783d8a765feeec8"),
    ("sphere", 3): (544, "9a75f1df9be1cabda69c3dfde17595f31ff5155999cc2125cd4f3ec94221f554"),
    ("lattice", 2): (16, "22278bd6751bcb59fb6facbbd4e8d1be9c67888aced1daeffc8b88d1565d210e"),
    ("lattice", 3): (98, "584cd075db2845d020f5f93db53016ccb9a883b15741a943a5053c0c39c4f600"),
    ("lattice", 4): (544, "abdcfe9700bd02839b71879909674a2a23be39aacc4dd5c9b82d2f80b91d9db1"),
}


@pytest.mark.parametrize("kind, n", list(_DIRECTION_SETS))
def test_direction_sets_keep_their_order_and_bits(kind, n):
    build = parametric._sphere_directions if kind == "sphere" else parametric._lattice_directions
    dirs = build(n)
    length, digest = _DIRECTION_SETS[kind, n]
    assert len(dirs) == length
    assert hashlib.sha256(repr(dirs).encode()).hexdigest() == digest


def test_principal_symbol_of_shifted_laplacian_is_the_sphere_constant():
    op = InvariantOperator.shifted_laplacian(CircleBase(4), n=1, shift=7.0)
    for phi in np.linspace(0, 2 * np.pi, 9):
        xi, eta = np.cos(phi), (np.sin(phi),)
        sig = principal_symbol(op, xi, eta)
        assert np.abs(sig - np.eye(op.base.dim)).max() <= 1e-12


def test_two_direction_operator_full_roundtrip():
    op = InvariantOperator.shifted_laplacian(CircleBase(3), n=2, shift=1.0)
    grid = LambdaGrid.build(2, window=1.0, step=0.5)
    s = spectrum_parametric(op, grid, tol=1e-9)
    assert min(p.real for p in s.points) == pytest.approx(1.0, abs=1e-9)
    assert invertible_parametric(op, grid).invertible
