"""Cayley route: unitarity, round trips, the infinite fiber, member unions."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from specfam import (
    NotSelfAdjoint,
    SpectrumSet,
    hausdorff,
)
from specfam.observables import (
    INFINITE,
    Observable,
    _fiber_points,
    cayley,
    check_self_adjoint,
    spec_observable,
    spec_union_observable,
)
from specfam import parametric, scenario
from specfam.parametric import (
    CircleBase,
    InvariantOperator,
    LambdaGrid,
    _as_matrices,
    _class_axes,
    _fiber_chunks,
    observable_spectrum_parametric,
)
from specfam.scenario import parse_scenario, run_scenario
from specfam.spectral import _distinct, eig_normal
from util import as_json_lists


def random_selfadjoint(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


# ---------------------------------------------------------------------------
# construction


def test_rejects_non_selfadjoint_fiber():
    with pytest.raises(NotSelfAdjoint):
        Observable.bounded(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_accepts_roundoff_asymmetry():
    m = np.array([[1.0, 0.5 + 1e-13j], [0.5 - 1e-13j, 2.0]])
    Observable.bounded(m)


def _first_fiber_error(fibers):
    """The error of the first fiber that Observable refuses on its own."""
    for f in fibers:
        try:
            Observable.bounded(f.copy())
        except (NotSelfAdjoint, ValueError) as err:
            return type(err), str(err)
    return None


def test_stacked_check_raises_for_the_first_bad_fiber():
    rng = np.random.default_rng(3)
    # 16x16 fibers: 256 to a 1 MiB slice, so the second bad fiber lies in a later slice
    for d, count, bad_at in ((3, 12, (4, 9)), (16, 600, (200, 550)), (1, 40, (0, 3))):
        fibers = np.stack([random_selfadjoint(rng, d) for _ in range(count)])
        assert check_self_adjoint(fibers) is None
        tilt = np.zeros((d, d), dtype=complex)
        tilt[0, -1] = 1j
        for first, second in ((1e-3, np.inf), (np.inf, 1e-3), (1e-3, 1e-2), (7e-11, 1e-3)):
            bad = fibers.copy()
            for at, size in zip(bad_at, (first, second)):
                bad[at] += tilt * size if np.isfinite(size) else np.inf
            want = _first_fiber_error(bad)
            if want is None:
                assert check_self_adjoint(bad) is None
                continue
            with pytest.raises(want[0]) as got:
                check_self_adjoint(bad)
            assert str(got.value) == want[1]


def test_needs_at_least_one_fiber():
    with pytest.raises(ValueError):
        Observable(())


# ---------------------------------------------------------------------------
# the transform itself


def test_cayley_values_on_a_diagonal_fiber():
    obs = Observable.bounded(np.diag([0.0, 3.0]))
    u = cayley(obs).fibers[0]
    # h(0) = (0+i)/(0-i) = -1, h(3) = (3+i)/(3-i)
    assert u[0, 0] == pytest.approx(-1.0)
    assert u[1, 1] == pytest.approx((3 + 1j) / (3 - 1j))
    assert abs(u[0, 1]) <= 1e-14


def test_cayley_image_is_unitary():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        u = cayley(Observable.bounded(random_selfadjoint(rng, n))).fibers[0]
        assert np.abs(u @ u.conj().T - np.eye(n)).max() <= 1e-10


def test_infinite_fiber_maps_to_one():
    u = cayley(Observable.infinite()).fibers[0]
    assert u.shape == (1, 1)
    assert u[0, 0] == pytest.approx(1.0)


def test_cayley_commutes_with_fiber_selection():
    rng = np.random.default_rng(4)
    a, b = random_selfadjoint(rng, 3), random_selfadjoint(rng, 5)
    joint = cayley(Observable.fibered([a, b]))
    alone = [cayley(Observable.bounded(a)).fibers[0], cayley(Observable.bounded(b)).fibers[0]]
    assert np.array_equal(joint.fibers[0], alone[0])
    assert np.array_equal(joint.fibers[1], alone[1])


# ---------------------------------------------------------------------------
# spectra through the transform


def test_round_trip_matches_direct_eigenvalues():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 17))
        m = random_selfadjoint(rng, n)
        got = spec_observable(Observable.bounded(m), resolution=1e-10)
        want = SpectrumSet.canonical(
            [complex(x) for x in np.linalg.eigvalsh(m)], 1e-10
        )
        assert hausdorff(got, want) <= 1e-8
        assert not got.truncated


def _normal_solver_reference(fibers, resolution):
    """The former spectrum route, kept as a reference.

    Each fiber's unitary Cayley image goes through the general normal
    eigensolver; circle points within resolution of 1 are cut, the rest
    are mapped back.
    """
    points, truncated = [], False
    for u in cayley(Observable.fibered(fibers, truncated=False)).fibers:
        for w in eig_normal(u, tol=max(resolution, 1e-12)).points:
            if abs(w - 1.0) <= resolution:
                truncated = True
            else:
                points.append(complex((1j * (w + 1.0) / (w - 1.0)).real))
    return SpectrumSet.canonical(points, resolution, truncated=truncated)


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ladder(rng, n):
    """Eigenvalues +-2^0 .. +-2^20, repeats allowed."""
    return 2.0 ** rng.integers(0, 21, n) * rng.choice([-1.0, 1.0], n)


def _fibers_with(rng, spectra):
    out = []
    for lams in spectra:
        q = _random_unitary(rng, len(lams))
        f = (q * lams) @ q.conj().T
        out.append((f + f.conj().T) / 2.0)
    return out


@pytest.mark.parametrize("resolution", [1e-2, 1e-4, 1e-9])
def test_eigvalsh_route_matches_the_normal_solver_reference(resolution):
    rng = np.random.default_rng(11)
    for trial in range(60):
        sizes = rng.integers(1, 9, size=int(rng.integers(1, 4)))
        if trial % 2:  # repeated eigenvalues
            spectra = [rng.choice([-2.0, 0.5, 0.5, 3.0], n) for n in sizes]
        else:
            spectra = [3.0 * rng.standard_normal(n) for n in sizes]
        fibers = _fibers_with(rng, spectra)
        want = _normal_solver_reference(fibers, resolution)
        got = spec_observable(Observable.fibered(fibers, truncated=False), resolution)
        assert (len(got), got.truncated) == (len(want), want.truncated)
        for x, y in zip(got.points, want.points):
            assert abs(x - y) <= 1e-13 * max(1.0, abs(y))


@pytest.mark.parametrize("resolution", [1e-2, 1e-4, 1e-9])
def test_eigvalsh_route_keeps_huge_eigenvalues_of_dense_fibers(resolution):
    # the round trip through w amplifies rounding by about |x|/2 on both
    # routes, so 2^20 eigenvalues carry about 1e-10 relative noise
    rng = np.random.default_rng(12)
    for _ in range(60):
        fibers = _fibers_with(rng, [_ladder(rng, int(rng.integers(1, 9)))])
        want = _normal_solver_reference(fibers, resolution)
        got = spec_observable(Observable.fibered(fibers, truncated=False), resolution)
        assert (len(got), got.truncated) == (len(want), want.truncated)
        for x, y in zip(got.points, want.points):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(y))


@pytest.mark.parametrize("resolution", [1e-2, 1e-4, 1e-9])
def test_eigvalsh_route_is_bitwise_the_reference_on_diagonal_fibers(resolution):
    rng = np.random.default_rng(13)
    for trial in range(60):
        n = int(rng.integers(1, 9))
        lams = _ladder(rng, n) if trial % 2 else rng.choice([-2.0, 0.0, 0.5, 0.5, 3.0], n)
        fibers = [np.diag(lams)]
        got = spec_observable(Observable.fibered(fibers, truncated=False), resolution)
        assert got == _normal_solver_reference(fibers, resolution)


def _per_fiber_merge_reference(fibers, resolution):
    """The former point pass: every fiber's circle points merged on their own."""
    half = np.stack(fibers) / 2.0
    lam = np.linalg.eigvalsh(half + half.conj().swapaxes(-1, -2))
    radius = max(resolution, 1e-12)
    on_circle = [w for row in (lam + 1j) / (lam - 1j)
                 for w in SpectrumSet.canonical(row.tolist(), radius).points]
    far = [w for w in on_circle if abs(w - 1.0) > resolution]
    points = [complex((1j * (w + 1.0) / (w - 1.0)).real) for w in far]
    return SpectrumSet.canonical(points, resolution, truncated=len(far) < len(on_circle))


@pytest.mark.parametrize("resolution", [1e-2, 1e-4, 1e-9])
def test_fibers_without_close_pairs_skip_the_merge_bit_for_bit(resolution):
    # a gap g in lam is about 2g / (1 + lam^2) on the circle: the pool has
    # pairs merged on the circle (0.4 r near 0; 2 r near 3, which the final
    # merge alone would keep apart), flagged but kept (0.75 r near 0, 7.5 r
    # near 3), clear ones, exact repeats, and points near w = 1 on both
    # sides of the wrap
    r = resolution
    pool = [0.0, 0.4 * r, 0.75 * r, 3 * r, 3.0, 3.0 + 2 * r, 3.0 + 7.5 * r, -2.0,
            2.0 / r, -2.0 / r, 5.0 / r, -5.0 / r, 3.0 / r]
    rng = np.random.default_rng(14)
    for trial in range(80):
        d = int(rng.integers(1, 9))
        if trial % 2:
            fibers = [np.diag(rng.choice(pool, d)) for _ in range(int(rng.integers(1, 7)))]
        else:
            fibers = _fibers_with(rng, [rng.choice(pool, d) for _ in range(int(rng.integers(1, 7)))])
        got = spec_observable(Observable.fibered(fibers, truncated=False), resolution)
        assert repr(got) == repr(_per_fiber_merge_reference(fibers, resolution))


def _interpreter_points(stack, resolution):
    """_fiber_points of 1x1 fibers (no merges) with lam mapped back one
    Python complex at a time, as the interpreter computes it."""
    half = stack / 2.0
    lam = np.linalg.eigvalsh(half + half.conj().swapaxes(-1, -2))
    on_circle = ((lam + 1j) / (lam - 1j)).ravel().tolist()
    far = [w for w in on_circle if abs(w - 1.0) > resolution]
    points = np.array([float((1j * (w + 1.0) / (w - 1.0)).real) for w in far])
    return _distinct(points), len(far) < len(on_circle)


@pytest.mark.parametrize("resolution", [1e-2, 1e-4, 1e-9])
def test_the_inverse_cayley_map_is_bitwise_the_interpreters(resolution):
    # numpy's complex division rounds differently from CPython's, so the
    # float replay must match the scalar expression bit for bit
    rng = np.random.default_rng([15, round(-np.log10(resolution))])
    edge = 2.0 / resolution  # |w - 1| = 2 / sqrt(1 + lam^2)
    lams = [
        1.0 / np.tan(rng.uniform(-np.pi, np.pi, 40_000) / 2.0),  # all around the circle
        rng.normal(scale=1e-6, size=10_000),  # near w = -1
        np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0]),
        # both sides of the discard radius around w = 1
        edge * rng.choice([-1.0, 1.0], 10_000) * (1.0 + rng.uniform(-1e-3, 1e-3, 10_000)),
        edge * rng.choice([-1.0, 1.0], 10_000) * (1.0 - rng.uniform(0.0, 1e-12, 10_000)),
        rng.integers(-(2**20), 2**20, 20_000) / 2.0 ** rng.integers(0, 20, 20_000),  # dyadic
    ]
    for lam in lams:
        stack = lam.reshape(-1, 1, 1).astype(complex)
        got, cut = _fiber_points(stack, resolution)
        want, want_cut = _interpreter_points(stack, resolution)
        assert cut == want_cut
        assert got.dtype == want.dtype == float and got.tobytes() == want.tobytes()
    assert _fiber_points(lams[3].reshape(-1, 1, 1), resolution)[1]  # some were cut


def test_operator_route_memory_follows_the_block_not_the_grid():
    peaks = []
    for step in ("1/256", "1/1024"):
        scenario = parse_scenario(
            "scenario-version: 1\n"
            "operators:\n"
            "  - id: lap\n"
            "    base: circle 8\n"
            "    directions: 1\n"
            "    term 1 0: 1\n"
            "    term 0 2: 1\n"
            "    term 0 0: 1\n"
            "queries:\n"
            "  - id: obs\n"
            "    kind: observable-spectrum\n"
            "    operator: lap\n"
            "    window: 4\n"
            f"    step: {step}\n"
        )
        tracemalloc.start()
        try:
            run_scenario(scenario)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 4 times the nodes; the bound was fixed before measuring
    assert peaks[1] - peaks[0] <= 8 * 2**20


def test_operator_route_report_stays_one_float_array():
    # 147,431 points: the report dict holds the set's float array, not a list pair per point
    scenario = parse_scenario(
        "scenario-version: 1\n"
        "operators:\n"
        "  - id: lap\n"
        "    base: circle 8\n"
        "    directions: 1\n"
        "    term 1 0: 1\n"
        "    term 0 2: 1\n"
        "    term 0 0: 1\n"
        "queries:\n"
        "  - id: obs\n"
        "    kind: observable-spectrum\n"
        "    operator: lap\n"
        "    window: 4\n"
        "    step: 1/4096\n"
    )
    tracemalloc.start()
    try:
        result = run_scenario(scenario)["results"][0]["result"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["points"].dtype == np.float64 and result["points"].shape == (147431,)
    assert peak <= 16 * 2**20


def _full_mode_blocks(op, grid):
    """The unreduced circle diagonals over all 2K + 1 modes, one block per
    block of class nodes, with the arithmetic of the block builder: per node,
    coeff * lam^alpha * k^(2j) summed in term order, a j = 0 term added as
    it is.  The builder kept all modes before it kept modes -K .. 0 only."""
    axes = _class_axes(op, grid, False)
    lap = op.base.laplacian_diagonal()
    assert len(lap) == op.base.dim
    for at, _lam_sq in parametric._node_blocks(axes, op.base.dim):
        acc = np.zeros((len(at[0]), op.base.dim), dtype=complex)
        for (j, alpha), coeff in op.terms:
            term = coeff * parametric._monomial(axes, at, alpha)
            acc += term[:, None] * lap**j if j else term[:, None]
        yield acc


def _full_mode_route(op, window, step, resolution, dense=False):
    """The operator route over all 2K + 1 modes, as it was before the
    blocks held modes -K .. 0 only: every block checked and its points kept,
    as diagonals or, when dense, expanded to dense fibers and solved by
    eigvalsh.  The references for the route."""
    grid = LambdaGrid.build(op.n, window, step)
    parts = []
    for block in _full_mode_blocks(op, grid):
        block = _as_matrices(block) if dense else block
        check_self_adjoint(block)
        parts.append(_fiber_points(block, resolution)[0])
    return SpectrumSet.canonical(_distinct(np.concatenate(parts)), resolution, truncated=True)


def _dense_route(op, window, step, resolution):
    """The operator route before circle diagonals were read directly."""
    return _full_mode_route(op, window, step, resolution, dense=True)


def _scenario_route(op, window, step, resolution):
    """The observable-spectrum query's result for op, through run_scenario."""
    scenario = parse_scenario(
        "scenario-version: 1\n"
        "operators:\n"
        "  - id: op\n"
        "    base: circle 1\n"
        "    directions: 1\n"
        "    term 0 0: 1\n"
        "queries:\n"
        "  - id: obs\n"
        "    kind: observable-spectrum\n"
        "    operator: op\n"
        f"    window: {window!r}\n"
        f"    step: {step!r}\n"
        f"    resolution: {resolution!r}\n"
    )
    scenario.operators["op"] = op  # library operators may have complex coefficients
    return run_scenario(scenario)["results"][0]["result"]


def _route_cases():
    lap = {(1, (0,)): 1.0, (0, (2,)): 1.0}
    yield "exact zero fibers", InvariantOperator.build(
        CircleBase(3), 1, {**lap, (0, (0,)): -((3 / 8) ** 2)}
    ), 1.0, 1 / 8, 1e-9
    # |w - 1| is about 2 / lam: points above about 200 are cut, and close
    # pairs of one fiber merge on the circle well before that
    yield "merges and cuts", InvariantOperator.shifted_laplacian(
        CircleBase(8), 1, shift=-0.3
    ), 16.0, 1 / 2048, 1e-2
    yield "n = 2", InvariantOperator.build(
        CircleBase(2), 2,
        {(1, (0, 0)): 1.0, (0, (2, 0)): 1.0, (0, (0, 2)): 0.5, (0, (1, 1)): 0.25, (0, (0, 0)): -1.0},
    ), 2.0, 1 / 8, 1e-9
    # an imaginary part within the 1e-10 self-adjoint tolerance, on fibers
    # that also vanish exactly in their real part
    yield "complex coefficients", InvariantOperator.build(
        CircleBase(3), 1,
        {(1, (0,)): 1.0 + 2e-12j, (0, (2,)): 1.0 - 3e-12j, (0, (0,)): -0.25 + 1e-12j},
    ), 2.0, 1 / 64, 1e-6


@pytest.mark.parametrize("case", [c[0] for c in _route_cases()])
def test_circle_route_reads_diagonals_bitwise_as_the_dense_path(monkeypatch, case):
    _name, op, window, step, resolution = next(c for c in _route_cases() if c[0] == case)
    want = _dense_route(op, window, step, resolution)
    calls = []

    def refused(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the circle route expands or solves a fiber")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    monkeypatch.setattr(parametric, "_as_matrices", refused)
    got = _scenario_route(op, window, step, resolution)
    assert calls == []
    assert got["points"].tobytes() == want.values.tobytes() and len(got["points"])
    assert (got["resolution"], got["truncated"]) == (want.resolution, want.truncated)
    if case == "exact zero fibers":
        assert (got["points"] == 0.0).any()
    if case == "merges and cuts":
        assert got["points"][-1] < 2.0 / resolution


def test_circle_route_refuses_a_non_self_adjoint_operator_as_the_dense_path():
    op = InvariantOperator.build(CircleBase(3), 1, {(1, (0,)): 1.0, (0, (2,)): 1.0 + 1e-6j})
    with pytest.raises(NotSelfAdjoint) as want:
        _dense_route(op, 2.0, 1 / 8, 1e-9)
    routes = (
        lambda: _scenario_route(op, 2.0, 1 / 8, 1e-9),
        lambda: _full_mode_route(op, 2.0, 1 / 8, 1e-9),
        lambda: observable_spectrum_parametric(op, LambdaGrid.build(1, 2.0, 1 / 8), 1e-9),
    )
    for route in routes:
        with pytest.raises(NotSelfAdjoint) as got:
            route()
        assert str(got.value) == str(want.value)
    assert str(want.value).startswith("fiber is not self-adjoint (asymmetry ")


@pytest.mark.parametrize("case", [c[0] for c in _route_cases()])
def test_circle_route_over_modes_minus_k_to_0_equals_the_full_mode_route(case):
    # modes k and -k give bitwise-equal columns, and dropping one of two
    # equal points changes no gap the merge and cut tests read
    _name, op, window, step, resolution = next(c for c in _route_cases() if c[0] == case)
    grid = LambdaGrid.build(op.n, window, step)
    k = op.base.cutoff
    classes = list(_fiber_chunks(op, _class_axes(op, grid, False)))
    full = list(_full_mode_blocks(op, grid))
    assert [b.shape for b in classes] == [(len(f), k + 1) for f in full]
    for c, f in zip(classes, full):
        assert c.tobytes() == f[:, : k + 1].tobytes()
        assert f[:, k:].tobytes() == f[:, k::-1].tobytes()
    want = _full_mode_route(op, window, step, resolution).as_dict()
    for got in (
        observable_spectrum_parametric(op, grid, resolution).as_dict(),
        _scenario_route(op, window, step, resolution),
    ):
        assert got["points"].tobytes() == want["points"].tobytes() and len(got["points"])
        assert (got["resolution"], got["truncated"]) == (want["resolution"], want["truncated"])
    want = want["points"]
    if case == "exact zero fibers":
        assert (want == 0.0).any()
    if case == "merges and cuts":
        # some fibers hold two distinct points within the merge radius on the
        # circle, and points above about 2 / resolution are cut
        lam = np.sort(np.concatenate(full).real, axis=1)
        gaps = np.abs(np.diff((lam + 1j) / (lam - 1j), axis=1))
        assert ((gaps > 0) & (gaps <= 2 * resolution)).any(axis=1).sum() > 1
        assert want[-1] < 2.0 / resolution < lam.max()


def test_the_runner_imports_no_private_fiber_helper():
    source = Path(scenario.__file__).read_text()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    helpers = {"_class_axes", "_fiber_chunks", "_fiber_points", "check_self_adjoint", "_images", "_distinct"}
    assert "observable_spectrum_parametric" in imported and not imported & helpers


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_circle_route_reports_the_exact_diagonal_where_lapack_rescales(monkeypatch, scale):
    # zheevd rescales a matrix whose largest entry lies beyond about
    # 1e+-146, and its eigenvalues come back moved by an ulp, even those of
    # a diagonal; the diagonal route reports the diagonal itself, which is
    # the rule parametric-spectrum follows on circle diagonals.  The exact
    # reference is the dense path with eigvalsh run on the fibers times a
    # power of two, which is exact and keeps them within range.
    # At 1e150 mode 0 stays of order 1, so its points are neither cut nor
    # merged; at 1e-150 every point of a fiber lies within 1e-12 of w = -1,
    # so each fiber keeps one, and resolution 0 keeps them apart on the axis.
    terms = {(1, (0,)): 0.7 * scale, (0, (2,)): 0.3 * scale, (0, (0,)): 1.1 * scale}
    if scale > 1:
        terms = {(1, (0,)): 0.7 * scale, (0, (2,)): 0.3, (0, (0,)): 1.1}
    op = InvariantOperator.build(CircleBase(3), 1, terms)
    e, resolution = -math.frexp(scale)[1], 1e-9 if scale > 1 else 0.0
    got = _scenario_route(op, 1.0, 1 / 64, resolution)
    rescaled = _dense_route(op, 1.0, 1 / 64, resolution)
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: solve(h * 2.0**e) * 2.0**-e)
    exact = _dense_route(op, 1.0, 1 / 64, resolution)
    assert got["points"].tobytes() == exact.values.tobytes() and len(got["points"])
    assert got["points"].tobytes() != rescaled.values.tobytes()


def test_infinite_fiber_has_exactly_empty_spectrum():
    s = spec_observable(Observable.infinite())
    assert len(s) == 0
    assert not s.truncated


def test_huge_eigenvalues_are_cut_not_garbled():
    # eigenvalues 2^0 .. 2^20: a coarse discard radius cuts the top of
    # the ladder and says so; a fine one keeps everything
    lams = np.array([2.0**k for k in range(21)])
    obs = Observable.bounded(np.diag(lams))
    kept = []
    for r in (1e-2, 1e-4, 1e-9):
        s = spec_observable(obs, resolution=r)
        kept.append(len(s))
        finite = [p.real for p in s.points]
        for x in finite:
            assert min(abs(x - l) for l in lams) <= 1e-6 * max(1.0, abs(x))
    assert kept[0] < kept[1] < kept[2] == 21
    assert spec_observable(obs, resolution=1e-2).truncated
    assert not spec_observable(obs, resolution=1e-9).truncated


def test_fibers_near_the_float_limit_raise_no_overflow():
    # (f + f*) / 2 overflows at 1e308; a warning here is an error under pytest
    report = run_scenario(parse_scenario(
        "scenario-version: 1\n"
        "model:\n  name: discrete\n  dim: 1\n"
        "elements:\n  - id: a\n    kind: matrix-poly\n    entry 0 0: 1e308\n"
        "families:\n  - id: all\n    generator: prim-all\n"
        "queries:\n  - id: obs\n    kind: observable-spectrum\n"
        "    family: all\n    element: a\n"
    ))
    assert as_json_lists(report["results"][0]["result"]) == {
        "points": [], "resolution": 1e-10, "truncated": True,
    }
    s = spec_observable(Observable.bounded(np.diag([1e308, -1.5e308, 2.0])))
    assert s.points == (2.0 + 0j,) and s.truncated


def test_cayley_near_the_float_limit_stays_finite():
    u = cayley(Observable.bounded(np.array([[1e308, 1e307j], [-1e307j, -1.7e308]]))).fibers[0]
    assert np.all(np.isfinite(u))
    assert np.abs(u - np.eye(2)).max() <= 1e-14
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-14


def test_union_over_members():
    members = [
        Observable.bounded(np.diag([1.0])),
        Observable.infinite(),
        Observable.bounded(np.diag([2.0])),
    ]
    s = spec_union_observable(members, resolution=1e-10)
    assert [p.real for p in s.points] == pytest.approx([1.0, 2.0])
    assert not s.truncated
    # all-infinite members: the union is exactly empty, not truncated
    s = spec_union_observable([Observable.infinite(), Observable.infinite()])
    assert s.points == () and not s.truncated
    # mixed members: only the finite fibers contribute
    s = spec_union_observable([Observable.infinite(), Observable.bounded(np.diag([0.5]))])
    assert [p.real for p in s.points] == pytest.approx([0.5])
    assert not s.truncated


def test_union_requires_members():
    with pytest.raises(ValueError):
        spec_union_observable([])


def test_fibered_default_marks_truncation():
    obs = Observable.fibered([np.diag([1.0]), np.diag([2.0])])
    assert spec_observable(obs).truncated
