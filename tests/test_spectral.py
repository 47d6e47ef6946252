"""Spectral primitives against independent oracles.

Eigenvalue oracles here avoid the library's own solver path entirely:
characteristic polynomials come from the Faddeev-LeVerrier trace
recursion, roots from the companion matrix, refined by Newton steps.
"""

from __future__ import annotations

import numpy as np
import pytest

from specfam.errors import EmptySet, NotNormal
from specfam.spectral import (
    DEFAULT_RESOLUTION,
    SpectrumSet,
    _distinct,
    _sorted,
    as_matrix,
    eig_normal,
    hausdorff,
    normal_eigensystem,
    op_norm,
    union_spectra,
)


def charpoly_coeffs(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial by the Faddeev-LeVerrier recursion."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a, dtype=complex)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def oracle_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Companion-matrix roots of the characteristic polynomial, Newton-polished."""
    coeffs = charpoly_coeffs(a)
    roots = np.roots(coeffs)
    deriv = np.polyder(coeffs)
    for _ in range(3):
        p = np.polyval(coeffs, roots)
        dp = np.polyval(deriv, roots)
        safe = np.abs(dp) > 1e-30
        roots = np.where(safe, roots - p / np.where(safe, dp, 1.0), roots)
    return roots


def random_hermitian(rng: np.random.RandomState, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def random_unitary(rng: np.random.RandomState, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_normal(rng: np.random.RandomState, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A normal matrix with known complex eigenvalues."""
    eigs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u = random_unitary(rng, n)
    return u @ np.diag(eigs) @ u.conj().T, eigs


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_op_norm_identity_and_nilpotent():
    assert op_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert op_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0, abs=1e-12)


def test_op_norm_matches_charpoly_oracle_on_hermitian():
    rng = np.random.RandomState(7)
    for _ in range(25):
        h = random_hermitian(rng, 4)
        oracle = float(np.max(np.abs(oracle_eigenvalues(h))))
        assert op_norm(h) == pytest.approx(oracle, abs=1e-8)


def test_op_norm_cstar_identity():
    rng = np.random.RandomState(11)
    for _ in range(200):
        n = rng.randint(1, 7)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs = op_norm(a.conj().T @ a)
        rhs = op_norm(a) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_eig_normal_diagonal():
    s = eig_normal(np.diag([1.0, 2.0, 3.0]))
    assert s.points == (1.0 + 0j, 2.0 + 0j, 3.0 + 0j)
    assert not s.truncated


def test_eig_normal_cyclic_shift_cube_roots():
    c = np.zeros((3, 3))
    c[1, 0] = c[2, 1] = c[0, 2] = 1.0
    s = eig_normal(c, tol=1e-10)
    expected = sorted(
        (np.exp(2j * np.pi * k / 3) for k in range(3)), key=lambda z: (z.real, z.imag)
    )
    assert len(s.points) == 3
    for got, want in zip(s.points, expected):
        assert abs(got - want) <= 1e-10


def test_eig_normal_hermitian_against_oracle():
    rng = np.random.RandomState(3)
    for _ in range(20):
        h = random_hermitian(rng, 5)
        s = eig_normal(h)
        oracle = SpectrumSet.canonical(oracle_eigenvalues(h), 1e-10)
        assert hausdorff(s, oracle) <= 1e-8


def test_eig_normal_general_normal_against_construction():
    rng = np.random.RandomState(5)
    for _ in range(30):
        n = rng.randint(2, 9)
        a, eigs = random_normal(rng, n)
        s = eig_normal(a, tol=1e-10)
        oracle = SpectrumSet.canonical(eigs, 1e-10)
        assert hausdorff(s, oracle) <= 1e-8


def test_eig_normal_unitary_invariance():
    rng = np.random.RandomState(13)
    a, _ = random_normal(rng, 6)
    u = random_unitary(rng, 6)
    s1 = eig_normal(a)
    s2 = eig_normal(u @ a @ u.conj().T)
    assert hausdorff(s1, s2) <= 1e-9


def test_eig_normal_rejects_jordan_block():
    with pytest.raises(NotNormal):
        eig_normal([[0.0, 1.0], [0.0, 0.0]])


def test_normal_eigensystem_reconstructs():
    rng = np.random.RandomState(17)
    for _ in range(20):
        a, _ = random_normal(rng, 5)
        eigs, v = normal_eigensystem(a)
        assert op_norm(v @ np.diag(eigs) @ v.conj().T - a) <= 1e-9
        assert op_norm(v.conj().T @ v - np.eye(5)) <= 1e-10


def reference_normal_eigensystem(a, tol: float = DEFAULT_RESOLUTION):
    """normal_eigensystem before exactly self-adjoint input skipped the SVDs.

    Every input pays for the scale, the commutator check and the
    near-self-adjoint test; the arithmetic is otherwise the library's.
    """
    m = as_matrix(a)
    if m.size == 0:
        return np.zeros(0, dtype=complex), np.zeros((0, 0), dtype=complex)
    scale = op_norm(m)
    n = m.shape[0]
    if scale == 0.0:
        return np.zeros(n, dtype=complex), np.eye(n, dtype=complex)
    adj = m.conj().T
    defect = op_norm(adj @ m - m @ adj)
    if defect > tol * scale * scale:
        raise NotNormal(
            f"commutator norm {defect:.3e} exceeds {tol:.1e} * ||a||^2 = {tol * scale * scale:.3e}"
        )
    if op_norm(m - adj) <= tol * scale:
        w, v = np.linalg.eigh((m + adj) / 2.0)
        order = np.argsort(w, kind="stable")
        return w[order].astype(complex), v[:, order]
    k = (m - adj) / 2.0j
    wh, v = np.linalg.eigh((m + adj) / 2.0)
    cluster_tol = max(1e-8, 10.0 * tol) * scale
    start = 0
    for i in range(1, n + 1):
        if i == n or wh[i] - wh[i - 1] > cluster_tol:
            if i - start > 1:
                block = v[:, start:i]
                kc = block.conj().T @ k @ block
                _, u = np.linalg.eigh((kc + kc.conj().T) / 2.0)
                v[:, start:i] = block @ u
            start = i
    eigs = np.einsum("ij,ik,kj->j", v.conj(), m, v)
    order = sorted(range(n), key=lambda j: (eigs[j].real, eigs[j].imag))
    return eigs[order], v[:, order]


def _self_adjoint_inputs():
    rng = np.random.RandomState(41)
    for n in range(1, 65):
        h = random_hermitian(rng, n)
        yield f"complex-{n}", h
        yield f"real-{n}", h.real.copy()
    for n in (2, 5, 16):
        u = random_unitary(rng, n)
        r = u @ np.diag(np.repeat([1.0, -2.0], [n // 2, n - n // 2])) @ u.conj().T
        yield f"repeated-{n}", (r + r.conj().T) / 2.0
        yield f"identity-{n}", 3.0 * np.eye(n)
        yield f"zero-{n}", np.zeros((n, n))


@pytest.mark.parametrize("tol", [0.0, 1e-10, 1e-6])
def test_self_adjoint_input_matches_the_reference_bit_for_bit(tol):
    for name, h in _self_adjoint_inputs():
        assert np.array_equal(h, h.conj().T), name
        w, v = normal_eigensystem(h, tol)
        w_ref, v_ref = reference_normal_eigensystem(h, tol)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref), name


def test_self_adjoint_input_runs_no_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    rng = np.random.RandomState(43)
    for _, h in _self_adjoint_inputs():
        normal_eigensystem(h)
    eig_normal(random_hermitian(rng, 8))
    assert calls == []
    normal_eigensystem(random_normal(rng, 4)[0])
    assert len(calls) == 3  # scale, commutator, self-adjoint test


@pytest.mark.parametrize("tol", [0.0, 1e-10, 0.3])
def test_eig_normal_of_self_adjoint_input_is_eigvalsh_bit_for_bit(monkeypatch, tol):
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("eig_normal ran eigh"))
    for name, h in _self_adjoint_inputs():
        m = as_matrix(h)  # eig_normal solves in complex128, whatever the input's dtype
        w = eigvalsh(m) if m.any() else np.zeros(len(m))  # a zero matrix needs no LAPACK
        got, want = eig_normal(h, tol), SpectrumSet.canonical(w, tol)
        assert got.values.tobytes() == want.values.tobytes() and repr(got) == repr(want), name
        if tol == 0.0 and not name.startswith(("repeated", "identity", "zero")):
            assert got.values.tobytes() == w.tobytes(), name  # no merges: eigvalsh's own array


def test_self_adjoint_input_near_the_float_limit_stays_finite():
    # (m + m*) / 2 overflows here although m and its eigenvalues are finite
    w, v = normal_eigensystem(np.diag([1e308, -1e308]))
    assert np.all(np.isfinite(w)) and np.allclose(w, [-1e308, 1e308], rtol=1e-15, atol=0.0)
    assert np.array_equal(np.abs(v), np.fliplr(np.eye(2)))


def test_commutator_beyond_the_float_limit_still_decides_normality():
    # a*a - aa* of these finite matrices overflows: the test runs on a / 2^e
    with pytest.raises(NotNormal) as exc:
        normal_eigensystem(np.array([[0.0, 1e200], [0.0, 0.0]]))
    assert str(exc.value) == "commutator norm 1.000e+400 exceeds 1.0e-10 * ||a||^2 = 1.000e+390"
    w, v = normal_eigensystem(np.array([[0.0, 1e200], [-1e200, 0.0]]))
    assert np.allclose(w, [-1e200j, 1e200j], rtol=1e-15, atol=0.0)
    assert op_norm(v.conj().T @ v - np.eye(2)) <= 1e-15
    # below the limit the scaled test decides, and words its message, as before
    for k in (-300, -40, 0, 40, 150):
        for name, a in _other_inputs():
            try:
                expected = reference_normal_eigensystem(a * 2.0**k)
            except NotNormal as err:
                with pytest.raises(NotNormal) as exc:
                    normal_eigensystem(a * 2.0**k)
                assert str(exc.value) == str(err), (name, k)
                continue
            w, v = normal_eigensystem(a * 2.0**k)
            assert np.array_equal(w, expected[0]) and np.array_equal(v, expected[1]), (name, k)


def test_normal_input_near_the_float_limit_stays_finite():
    # m + m* overflows here although m and its eigenvalues are finite: the
    # general path forms h and k from m / 2^e, the near-self-adjoint path
    # halves before adding
    w, v = normal_eigensystem(np.array([[1e308, 1e308], [-1e308, 1e308]]))
    assert np.allclose(w, [1e308 - 1e308j, 1e308 + 1e308j], rtol=1e-15, atol=0.0)
    assert op_norm(v.conj().T @ v - np.eye(2)) <= 1e-15
    h = np.array([[1e308, 1e308], [1e308, -1e308]])
    w, v = normal_eigensystem(h + 1e295j * np.eye(2))
    assert np.allclose(w, [-np.sqrt(2) * 1e308, np.sqrt(2) * 1e308], rtol=1e-15, atol=0.0)
    assert op_norm(v.conj().T @ v - np.eye(2)) <= 1e-15


def _other_inputs():
    """Non-normal, near-self-adjoint and normal non-self-adjoint matrices."""
    rng = np.random.RandomState(47)
    yield "jordan", np.array([[0.0, 1.0], [0.0, 0.0]])
    yield "upper", np.triu(rng.standard_normal((6, 6)))
    for n in (1, 3, 8, 20):
        h = random_hermitian(rng, n)
        skew = 1e-13 * random_hermitian(rng, n) * 1j
        yield f"near-self-adjoint-{n}", h + skew
        yield f"normal-{n}", random_normal(rng, n)[0]
    u = random_unitary(rng, 6)
    yield "normal-repeated", u @ np.diag([1j, 1j, 2.0, 2.0, -1 - 1j, 3.0]) @ u.conj().T


@pytest.mark.parametrize("tol", [0.0, 1e-10, 1e-6])
def test_other_inputs_keep_the_reference_path(tol):
    for name, a in _other_inputs():
        assert not np.array_equal(a, a.conj().T), name
        try:
            expected = reference_normal_eigensystem(a, tol)
        except NotNormal as err:
            with pytest.raises(NotNormal) as exc:
                normal_eigensystem(a, tol)
            assert str(exc.value) == str(err), name
            continue
        w, v = normal_eigensystem(a, tol)
        assert np.array_equal(w, expected[0]) and np.array_equal(v, expected[1]), name


def test_spectrum_canonical_greedy_merge():
    s = SpectrumSet.canonical([0.0, 0.05, 0.12, 1.0], resolution=0.06)
    assert s.points == (0.0 + 0j, 0.12 + 0j, 1.0 + 0j)


def test_spectrum_set_holds_one_read_only_array():
    real = SpectrumSet.canonical([2.0 + 0j, -0.0, 1e-300], resolution=0.0)
    assert real.values.dtype == np.float64 and not real.values.flags.writeable
    assert real.values.tolist() == [-0.0, 1e-300, 2.0] and np.signbit(real.values[0])
    assert real.points == (-0.0 + 0j, 1e-300 + 0j, 2.0 + 0j)
    with pytest.raises(ValueError):
        real.values[0] = 1.0
    # a point off the real axis, or an imaginary part -0.0, keeps the set complex
    for pts in ([1.0, 2.0 + 1e-300j], [complex(1.0, -0.0)]):
        s = SpectrumSet.canonical(pts, resolution=0.0)
        assert s.values.dtype == np.complex128 and s.points == tuple(map(complex, pts))
    assert repr(SpectrumSet.canonical([complex(1.0, -0.0)], 0.0)).startswith(
        "SpectrumSet(points=((1-0j),), resolution=0.0"
    )
    # the constructor copies and normalizes its input the same way
    raw = np.array([1.0 + 0j, 3.0])
    made = SpectrumSet(raw, 1e-9)
    raw[0] = 7.0
    assert made.values.dtype == np.float64 and made.points == (1.0 + 0j, 3.0 + 0j)
    assert SpectrumSet((), 0.0).values.dtype == np.float64 and len(SpectrumSet((), 0.0)) == 0
    # every digit in the repr, where numpy's array repr would round to 8
    assert repr(SpectrumSet([0.1 + 0.2], 0.0)) == (
        "SpectrumSet(points=((0.30000000000000004+0j),), resolution=0.0, truncated=False)"
    )


def test_spectrum_canonical_order_independent_and_idempotent():
    rng = np.random.RandomState(23)
    pts = list(rng.standard_normal(40) + 1j * rng.standard_normal(40))
    base = SpectrumSet.canonical(pts, resolution=0.3)
    for _ in range(10):
        rng.shuffle(pts)
        assert SpectrumSet.canonical(pts, resolution=0.3).points == base.points
    again = SpectrumSet.canonical(base.points, resolution=0.3)
    assert again.points == base.points


def test_spectrum_canonical_collapses_duplicates_at_zero_resolution():
    s = SpectrumSet.canonical([1.0, 1.0, 2.0], resolution=0.0)
    assert s.points == (1.0 + 0j, 2.0 + 0j)


def test_canonical_real_axis_path_equals_the_general_loop():
    # a power of two, so that gaps of exactly the resolution occur
    rng = np.random.default_rng(31)
    resolution = 2.0**-10
    for trial in range(300):
        size = int(rng.integers(0, 14))
        pool = [-1.0, -0.0, 0.0, 0.5, 0.5 + resolution / 2, 0.5 + resolution, 2.0]
        if trial % 3 == 0:  # clusters, exact repeats and both zeros
            values = rng.choice(pool, size)
        elif trial % 3 == 1:  # gaps inside, at and outside the radius
            values = np.cumsum(rng.choice([0.9, 1.0, 1.1, 3.0], size) * resolution)
        else:  # well separated
            values = rng.permutation(np.arange(size) * 0.25 - 1.0)
        values = np.asarray(values, dtype=float)
        want = SpectrumSet.canonical(values.tolist(), resolution, truncated=True)
        for got in (
            SpectrumSet.canonical(values, resolution, truncated=True),
            SpectrumSet.canonical(_distinct(values), resolution, truncated=True),
        ):
            assert repr(got) == repr(want), values


def _nans(*bits: int) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(float)


def test_sorted_is_the_stable_sort_bit_for_bit():
    # numpy's default sort may swap +-0.0 and rewrite NaN payloads; _sorted
    # must give the stable sort's bits, compared as integers so that a
    # signed zero or a NaN payload counts
    nans = _nans(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                 0xFFF0000000000001, 0x7FF0000000000002)
    pool = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -1.0, 3.5, 1e300],
        nans,
    ])
    rng = np.random.default_rng(2501)
    cases = [np.zeros(0), np.array([-0.0]), nans, np.array([0.0, -0.0] * 20), pool]
    for trial in range(400):
        size = int(rng.integers(0, 300 if trial % 4 else 5000))
        values = rng.choice(pool, size)
        if trial % 5 == 1:  # repeats among random values
            values = np.where(rng.random(size) < 0.5, values, rng.standard_normal(size).round(1))
        elif trial % 5 == 2:
            values = np.sort(values, kind="stable")
        elif trial % 5 == 3:
            values = np.sort(values, kind="stable")[::-1]
        cases.append(values)
    for values in cases:
        before = values.copy()
        got = _sorted(values)
        want = np.sort(values, kind="stable")
        assert got.dtype == float and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), values
        assert np.array_equal(values.view(np.int64), before.view(np.int64))  # input untouched


def _greedy_merge(values: np.ndarray, resolution: float) -> tuple:
    """The greedy loop over every sorted point: keep p unless a kept q lies within resolution."""
    kept: list[complex] = []
    for p in sorted((complex(x) for x in values), key=lambda z: (z.real, z.imag)):
        merged = False
        for q in reversed(kept):
            if p.real - q.real > resolution:
                break
            if abs(p - q) <= resolution:
                merged = True
                break
        if not merged:
            kept.append(p)
    return tuple(kept)


def test_canonical_loops_only_over_close_runs_and_keeps_the_greedy_result():
    rng = np.random.default_rng(1405)
    for trial in range(60):
        resolution = [1e-9, 2.0**-12, 0.0][trial % 3]
        values = list(rng.uniform(-50.0, 50.0, int(rng.integers(0, 3000))))
        for _ in range(int(rng.integers(0, 16))):  # chains of close values
            start, gaps = rng.uniform(-50.0, 50.0), rng.uniform(0.0, 2.0, int(rng.integers(1, 9)))
            values += (start + np.cumsum(gaps) * resolution).tolist()
            values += [start] * int(rng.integers(0, 3))
        values = rng.permutation(np.array(values, dtype=float))
        got = SpectrumSet.canonical(values, resolution, truncated=True)
        assert repr(got.points) == repr(_greedy_merge(values, resolution)), trial
        assert (got.resolution, got.truncated) == (resolution, True)


def test_spectrum_union_propagates_truncation():
    a = SpectrumSet.canonical([0.0], 1e-10, truncated=True)
    b = SpectrumSet.canonical([1.0], 1e-10)
    u = union_spectra((a, b))
    assert u.truncated and u.points == (0.0 + 0j, 1.0 + 0j)
    # the coarser resolution merges points of both sets
    merged = union_spectra((
        SpectrumSet.canonical([0.0, 1.0, 1.0 + 1e-7j], 1e-10),
        SpectrumSet.canonical([1.0 + 5e-8j, 2.0, -1.0j], 1e-6, truncated=True),
    ))
    assert merged.resolution == 1e-6 and merged.truncated
    assert merged.points == (-1.0j, 0.0 + 0j, 1.0 + 0j, 2.0 + 0j)


def test_spectral_mapping_polynomial():
    rng = np.random.RandomState(29)
    for _ in range(10):
        a, eigs = random_normal(rng, 5)
        p_of_a = a @ a - a
        s = eig_normal(p_of_a)
        oracle = SpectrumSet.canonical(eigs * eigs - eigs, 1e-10)
        assert hausdorff(s, oracle) <= 1e-8


def test_hausdorff_basics():
    a = SpectrumSet.canonical([0.0, 1.0], 0.0)
    assert hausdorff(a, a) == 0.0
    b = SpectrumSet.canonical([3.0, 4.0], 0.0)
    assert hausdorff(SpectrumSet.canonical([0.0], 0.0), b) == pytest.approx(4.0)


def test_hausdorff_complex_points():
    a = SpectrumSet.canonical([0.0 + 1.0j], 0.0)
    b = SpectrumSet.canonical([0.0 - 1.0j], 0.0)
    assert hausdorff(a, b) == pytest.approx(2.0)


def test_hausdorff_grid_refinement():
    coarse = SpectrumSet.canonical(np.linspace(0.0, 1.0, 17), 0.0)
    fine = SpectrumSet.canonical(np.linspace(0.0, 1.0, 65), 0.0)
    d = hausdorff(coarse, fine)
    assert d <= (1.0 / 16.0) / 2.0 + 1e-12


def test_hausdorff_empty_rejected():
    a = SpectrumSet.canonical([], 0.0)
    b = SpectrumSet.canonical([1.0], 0.0)
    with pytest.raises(EmptySet):
        hausdorff(a, b)
