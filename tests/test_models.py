"""Model layer: elements, representations, norms, primitive points."""

from __future__ import annotations

import re
import time

import numpy as np
import pytest

from specfam.errors import IncompatibleModel, TruncationTooSmall, UnsupportedModel
from specfam.models import (
    AlgebraElement,
    BaseSpace,
    BlockStructure,
    FunctionModel,
    Representation,
    ToeplitzElement,
    ToeplitzModel,
    _images,
    elem_norm,
    enum_prim,
    rep_apply,
    toeplitz_norm,
)
from specfam.families import RepFamily, n_a_profile
from specfam.gallery import MODEL_NAMES, build_family, build_model
from specfam.spectral import op_norm

from util import (
    cos_symbol,
    counterexample_element,
    discrete_model,
    matrix_model,
    random_element,
    random_selfadjoint_element,
    scalar_interval_model,
    toeplitz_model,
    tridiagonal_section_norm,
)


# ---------------------------------------------------------------------------
# spaces and elements


def test_interval_grid_contains_endpoints():
    s = BaseSpace.interval(1.0 / 3.0)
    assert s.sample_grid[0] == 0.0 and s.sample_grid[-1] == 1.0
    assert s.grid_step <= 1.0 / 3.0 + 1e-15


def test_discrete_contains_matches_a_scan_of_the_grid():
    s = BaseSpace.discrete(5)

    def scan(t):
        return any(abs(t - p) <= 1e-12 for p in s.sample_grid)

    probes = [-1.0, 5.0, 7.5, -0.0, float("nan"), float("inf"), -float("inf")]
    for p in s.sample_grid:
        probes += [p + d for d in (0.0, 1e-12, -1e-12, 2e-12, -2e-12)]
    for t in probes:
        assert s.contains(t) == scan(t), t
    assert s.contains(-0.0) and s.contains(4.0 + 5e-13) and not s.contains(4.0 + 2e-12)
    assert not s.contains(float("nan")) and not s.contains(-float("inf"))


def test_prim_all_on_a_wide_discrete_model_builds_in_time():
    model = build_model("discrete", points=2**16, dim=1)
    started = time.perf_counter()
    family = build_family(model, "prim-all")
    assert time.perf_counter() - started < 2.0
    assert len(family.members) == 2**16


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_circle_base_holds_only_finite_points(t):
    model = build_model("circle-scalar", step=1 / 8)
    f = AlgebraElement.from_polynomials(model, {(0, 0): [1.0, -1.0]}, label="f")
    assert model.space.contains(1.0) and model.space.contains(-7.25)
    with pytest.raises(IncompatibleModel):
        rep_apply(Representation.eval_point(t), f)
    with pytest.raises(ValueError, match="does not act on this model"):
        RepFamily(model, (Representation.eval_point(0.5), Representation.eval_point(t)))


def test_circle_distance_wraps():
    s = BaseSpace.circle(1.0 / 8.0)
    assert s.distance(0.0, 7.0 / 8.0) == pytest.approx(1.0 / 8.0)


def test_constraint_must_partition():
    with pytest.raises(ValueError):
        BlockStructure(2, (type(BlockStructure.diagonal_at(2, 1.0).constraints[0])(1.0, ((0,),)),))


def test_element_rejects_constraint_violation():
    model = matrix_model(1.0 / 4.0)
    bps = model.space.sample_grid
    mats = [np.eye(2, dtype=complex) for _ in bps]
    mats[-1] = np.array([[1.0, 0.5], [0.5, 1.0]])  # not diagonal at t = 1
    want = "value at constrained point 1.0 violates its block structure (off-block magnitude 5.000e-01)"
    with pytest.raises(ValueError, match="^" + re.escape(want) + "$"):
        AlgebraElement(model, bps, tuple(mats), 1.0)


def _values(t: float) -> np.ndarray:
    return np.diag([1.0 + t, 2.0 - 1j * t])


_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)  # matrix_model(1 / 4)
_EYES = tuple(np.eye(2) for _ in _GRID)


@pytest.mark.parametrize(
    "bps, mats, lip, message",
    [
        (_GRID, _EYES[:-1], 1.0, "breakpoints and matrices must align and be nonempty"),
        ((), (), 1.0, "breakpoints and matrices must align and be nonempty"),
        (_GRID[::-1], _EYES, 1.0, "breakpoints must be strictly increasing"),
        ((0.0, 0.25, 0.25, 0.75, 1.0), _EYES, 1.0, "breakpoints must be strictly increasing"),
        (_GRID, _EYES, -1.0, "lipschitz bound must be finite and nonnegative"),
        (_GRID, _EYES, np.inf, "lipschitz bound must be finite and nonnegative"),
        (_GRID, _EYES[:-1] + (np.eye(3),), 1.0, "each value must be a 2x2 matrix"),
        (_GRID, tuple(np.eye(3) for _ in _GRID), 1.0, "each value must be a 2x2 matrix"),
        (_GRID, (1.0,) * 5, 1.0, "each value must be a 2x2 matrix"),
        (_GRID, _EYES[:-1] + (np.diag([1.0, np.nan]),), 1.0, "matrix entries must be finite"),
        (_GRID, _EYES[:-1] + (np.diag([1e308, 1e308]),), 1.0, "the entry sum of every value must be finite"),
        ((0.0, 0.25, 0.5, 0.8, 1.0), _EYES, 1.0, "breakpoints must contain the grid point 0.75"),
    ],
    ids=[
        "misaligned", "empty", "decreasing", "repeated", "lipschitz-negative",
        "lipschitz-infinite", "ragged", "wrong-size", "scalars", "nan-entry",
        "entry-sum-overflows", "grid-point-missing",
    ],
)
def test_element_refusals_keep_their_messages(bps, mats, lip, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        AlgebraElement(matrix_model(1.0 / 4.0), bps, mats, lip)


def test_element_holds_two_read_only_arrays_from_any_sequence():
    model = matrix_model(1.0 / 4.0)
    bps = model.space.sample_grid
    vals = [_values(t) for t in bps]
    given = [(tuple(bps), tuple(vals)), (list(bps), list(vals)), (np.array(bps), np.stack(vals))]
    elements = [AlgebraElement(model, b, m, 1.0) for b, m in given]
    for a in elements:
        assert a.breakpoints.dtype == np.float64 and a.breakpoints.shape == (5,)
        assert a.matrices.dtype == np.complex128 and a.matrices.shape == (5, 2, 2)
        assert np.array_equal(a.breakpoints, elements[0].breakpoints)
        assert np.array_equal(a.matrices, elements[0].matrices)
        for field in (a.breakpoints, a.matrices):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 7.0
    # the element keeps copies: the caller's sequences stay the caller's
    (_, listed), (stacked_bps, stacked) = given[1], given[2]
    listed[0][0, 0] = 99.0
    stacked[:, 1, 1] = 99.0
    stacked_bps[1] = 0.3
    for a in elements:
        assert a.breakpoints.tolist() == list(bps)
        assert np.array_equal(a.matrices, np.stack([_values(t) for t in bps]))


def test_from_polynomials_certifies_lipschitz():
    f = counterexample_element(matrix_model(1.0 / 8.0))
    assert f.lipschitz_bound == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["interval-scalar", "circle-scalar", "discrete"])
def test_from_polynomials_equals_the_per_point_python_sum_bitwise(name):
    model = build_model(name, step=1 / 16) if name != "discrete" else build_model(name, points=5)
    d, grid = model.fiber_dim, model.space.sample_grid
    rng = np.random.RandomState(7)
    for _ in range(20):
        entries = {}
        for i in range(d):
            for j in range(d):
                re, im = rng.uniform(-2.0, 2.0, (2, rng.randint(0, 6) + 1))
                re[rng.rand(len(re)) < 0.3] = 0.0  # zero terms and zero parts
                im[rng.rand(len(im)) < 0.3] = 0.0
                entries[(i, j)] = [complex(x, y) for x, y in zip(re, im)]
        a = AlgebraElement.from_polynomials(model, entries)
        want = np.zeros((len(grid), d, d), dtype=complex)
        for (i, j), coeffs in entries.items():
            want[:, i, j] = [sum(c * t**k for k, c in enumerate(coeffs)) for t in grid]
        assert a.matrices.tobytes() == want.tobytes()


def test_value_at_interpolates():
    f = counterexample_element(matrix_model(1.0 / 8.0))
    v = f.value_at(0.3125)  # between grid points is fine: entries are linear
    assert op_norm(v - np.diag([1.0, 1.0 - 0.3125])) <= 1e-12


def test_circle_element_wraps():
    model = FunctionModel(BaseSpace.circle(1.0 / 4.0), BlockStructure.unconstrained(1))
    vals = [np.array([[np.cos(2 * np.pi * t)]]) for t in model.space.sample_grid]
    a = AlgebraElement(model, model.space.sample_grid, tuple(vals), 2 * np.pi)
    # halfway point of the wrap segment interpolates toward the value at 0
    mid = a.value_at(0.875)
    expected = 0.5 * (np.cos(2 * np.pi * 0.75) + 1.0)
    assert abs(mid[0, 0] - expected) <= 1e-12


def test_lipschitz_bound_holds_along_samples():
    rng = np.random.RandomState(2)
    model = matrix_model(1.0 / 8.0)
    a = random_element(model, rng)
    ts = np.linspace(0.0, 1.0, 257)
    vals = [op_norm(a.value_at(float(t))) for t in ts]
    for x, y, s, t in zip(vals, vals[1:], ts, ts[1:]):
        assert abs(y - x) <= a.lipschitz_bound * (t - s) + 1e-9


def test_element_algebra_matches_pointwise():
    rng = np.random.RandomState(3)
    model = matrix_model(1.0 / 8.0)
    a = random_element(model, rng)
    b = random_element(model, rng)
    t = 0.5
    assert op_norm((a + b).value_at(t) - (a.value_at(t) + b.value_at(t))) <= 1e-12
    assert op_norm((a * b).value_at(t) - a.value_at(t) @ b.value_at(t)) <= 1e-12
    assert op_norm(a.adjoint().value_at(t) - a.value_at(t).conj().T) <= 1e-12
    assert op_norm((2.0 - a).value_at(t) - (2.0 * np.eye(2) - a.value_at(t))) <= 1e-12
    at, bt, one = a.value_at(t), b.value_at(t), np.eye(2)
    for got, want in [
        (1 + a, one + at), (a - 2, at - 2.0 * one), (2 - a, 2.0 * one - at),
        (3 * a, 3.0 * at), (a - b, at - bt),
    ]:
        assert isinstance(got, AlgebraElement)
        assert op_norm(got.value_at(t) - want) <= 1e-12


# ---------------------------------------------------------------------------
# elem_norm


def test_elem_norm_identity():
    model = scalar_interval_model(1.0 / 4.0)
    n = elem_norm(AlgebraElement.identity(model))
    assert n.value == pytest.approx(1.0) and n.error == 0.0


def test_elem_norm_counterexample_element():
    f = counterexample_element(matrix_model(1.0 / 8.0))
    n = elem_norm(f)
    assert n.value == pytest.approx(1.0, abs=1e-12)
    assert n.error == pytest.approx(1.0 / 16.0)


def test_elem_norm_calculus_oracle():
    # sup over [0,1] of max(t, 2t(1-t)) is 1, attained at t = 1
    model = matrix_model(1.0 / 16.0)
    a = AlgebraElement.from_polynomials(
        model, {(0, 0): [0.0, 1.0], (1, 1): [0.0, 2.0, -2.0]}, label="ramps"
    )
    n = elem_norm(a)
    assert n.value == pytest.approx(1.0, abs=1e-12)


def test_elem_norm_cstar_identity_within_bars():
    rng = np.random.RandomState(5)
    model = matrix_model(1.0 / 16.0)
    for _ in range(20):
        a = random_element(model, rng)
        na = elem_norm(a)
        nsq = elem_norm(a.adjoint() * a)
        assert abs(nsq.value - na.value**2) <= nsq.error + 2.0 * na.value * na.error + 1e-9


# ---------------------------------------------------------------------------
# rep_apply


def test_rep_apply_eval():
    f = counterexample_element(matrix_model(1.0 / 8.0))
    out = rep_apply(Representation.eval_point(0.5), f)
    assert op_norm(out - np.diag([1.0, 0.5])) <= 1e-12


def test_rep_apply_blocks_at_endpoint():
    f = counterexample_element(matrix_model(1.0 / 8.0))
    keep = rep_apply(Representation.block_eval(1.0, 0), f)
    drop = rep_apply(Representation.block_eval(1.0, 1), f)
    assert keep.shape == (1, 1) and abs(keep[0, 0] - 1.0) <= 1e-12
    assert abs(drop[0, 0]) <= 1e-12


def test_rep_apply_block_requires_constraint():
    f = counterexample_element(matrix_model(1.0 / 8.0))
    with pytest.raises(IncompatibleModel):
        rep_apply(Representation.block_eval(0.5, 0), f)


def test_rep_apply_character_on_shift():
    model = toeplitz_model()
    s = ToeplitzElement.shift(model)
    theta = model.thetas[3]
    out = rep_apply(Representation.toeplitz_character(theta), s)
    assert abs(out[0, 0] - np.exp(1j * theta)) <= 1e-12


def test_rep_apply_section_of_shift():
    model = toeplitz_model()
    s = ToeplitzElement.shift(model)
    out = s.section(3)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = 1.0
    assert op_norm(out - expected) <= 1e-12


def test_sections_equal_the_sum_of_eye_diagonals_bitwise():
    # the reference adds c * eye(n, k=-k) per coefficient; signed zeros in
    # the coefficients must come out as the reference rounds them.  A real
    # element (every imaginary part +-0.0) has a float64 section equal to the
    # reference's real part; any other keeps the complex128 reference itself.
    rng = np.random.default_rng(546)
    model = toeplitz_model()
    values = [
        0.0, complex(0.75, -0.0), complex(-0.0, -1.25), complex(-0.0, 0.5), complex(-2.0, 0.0),
    ]
    kinds = {True: 0, False: 0}
    for _ in range(60):
        offset = int(rng.integers(0, 5))
        symbol = {
            k: values[int(rng.integers(0, len(values)))] * float(rng.uniform(0.5, 2.0))
            if rng.random() < 0.5 else complex(*rng.normal(size=2))
            for k in range(-offset, offset + 1)
        }
        if rng.random() < 0.5:  # a real symbol whose imaginary parts are +-0.0
            symbol = {k: complex(c.real, -0.0 if rng.random() < 0.5 else 0.0) for k, c in symbol.items()}
        n0 = int(rng.integers(0, 3))
        correction = None
        if n0:
            correction = rng.normal(size=(n0, n0)).astype(complex)
            if rng.random() < 0.5:
                correction += 1j * rng.normal(size=(n0, n0))
            else:
                correction.imag = np.where(rng.random((n0, n0)) < 0.5, -0.0, 0.0)
        x = ToeplitzElement.build(model, symbol, correction)
        real = not any(c.imag != 0 for c in x.coeffs) and not (x.correction.imag != 0).any()
        kinds[real] += 1
        # sizes below the symbol's width 2 * offset + 1 drop its outer diagonals
        for n in sorted({n for n in (1, 2, 3, 5, 2 * offset + 3, 17) if n >= max(n0, 1)}):
            want = np.zeros((n, n), dtype=complex)
            for k in range(-x.offset, x.offset + 1):
                c = x.coeff(k)
                if c != 0 and abs(k) < n:
                    want += c * np.eye(n, k=-k)
            if n0:
                want[:n0, :n0] += x.correction
            got = x.section(n)
            if real:
                want = want.real.copy()
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert min(kinds.values()) >= 15


def test_rep_apply_truncation_too_small():
    model = toeplitz_model()
    x = ToeplitzElement.build(model, {}, correction=np.eye(4))
    with pytest.raises(TruncationTooSmall):
        x.section(2)


def test_rep_apply_cross_model_rejected():
    f = counterexample_element(matrix_model(1.0 / 8.0))
    with pytest.raises(IncompatibleModel):
        rep_apply(Representation.toeplitz_character(0.0), f)
    s = ToeplitzElement.shift(toeplitz_model())
    with pytest.raises(IncompatibleModel):
        rep_apply(Representation.eval_point(0.0), s)


def _raised(fn, *args) -> tuple[type, str]:
    """The type and text of what fn(*args) raises."""
    with pytest.raises(Exception) as got:
        fn(*args)
    return type(got.value), str(got.value)


def _model_and_element(where: str):
    """A fresh model, so that n_a_profile can be given its own enum_prim list."""
    if where == "symbol":
        model = toeplitz_model(sections=(4, 8))
        return model, cos_symbol(model)
    if where == "discrete":
        model = discrete_model()
        return model, random_selfadjoint_element(model, np.random.RandomState(2))
    model = matrix_model()  # its one block constraint sits at t = 1, with two blocks
    return model, counterexample_element(model)


_NOSUCH = Representation("nosuch", point=0.5, label="nosuch")
# (model, member, exception type, text): each way a member can fail to act on a model
_REJECTIONS = [
    ("interval", _NOSUCH, UnsupportedModel, "unknown representation kind 'nosuch'"),
    ("symbol", _NOSUCH, UnsupportedModel, "unknown representation kind 'nosuch'"),
    ("interval", Representation.toeplitz_character(0.5), IncompatibleModel,
     "characters apply to symbol-model elements"),
    ("interval", Representation.toeplitz_identity(), IncompatibleModel,
     "the section ladder applies to symbol-model elements"),
    ("symbol", Representation.eval_point(0.5), IncompatibleModel,
     "ev(0.5) applies to function-model elements"),
    ("symbol", Representation.block_eval(1.0, 0), IncompatibleModel,
     "ev(1)[0] applies to function-model elements"),
    ("discrete", Representation.eval_point(0.5), IncompatibleModel,
     "point 0.5 outside the base space"),
    ("interval", Representation.eval_point(2.0), IncompatibleModel,
     "point 2.0 outside the base space"),
    ("interval", Representation.block_eval(0.5, 0), IncompatibleModel,
     "no block constraint at 0.5"),
    ("interval", Representation.block_eval(1.0, 2), IncompatibleModel,
     "block index 2 out of range at 1.0"),
]


@pytest.mark.parametrize(
    "where, member, error, text",
    _REJECTIONS,
    ids=[
        "unknown-kind", "unknown-kind-on-symbols", "character", "ladder", "eval-on-symbols",
        "block-on-symbols", "off-discrete", "off-interval", "no-constraint", "block-index",
    ],
)
def test_a_member_that_does_not_act_is_rejected_alike_on_every_path(where, member, error, text):
    model, a = _model_and_element(where)
    assert _raised(rep_apply, member, a) == (error, text)
    assert _raised(_images, (member,), a) == (error, text)
    vars(model)["_prims"] = (member,)  # n_a_profile images enum_prim's list
    assert _raised(n_a_profile, a) == (error, text)
    # a family names the member that does not act, and why
    assert _raised(RepFamily, model, (member,)) == (
        ValueError, f"member {member.label} does not act on this model: {text}"
    )


@pytest.mark.parametrize(
    "second, fifth",
    [
        (Representation.eval_point(2.0), Representation.block_eval(0.5, 0)),
        (Representation.toeplitz_character(0.5), _NOSUCH),
    ],
    ids=["outside-then-unconstrained", "character-then-unknown"],
)
def test_the_first_member_that_does_not_act_decides_the_error(second, fifth):
    for first, last in ((second, fifth), (fifth, second)):
        error, text = next(r[2:] for r in _REJECTIONS if r[0] == "interval" and r[1] == first)
        model, a = _model_and_element("interval")
        ok = [Representation.eval_point(t) for t in (0.0, 0.25, 0.5)]
        members = (ok[0], ok[1], first, ok[2], Representation.block_eval(1.0, 1), last)
        assert _raised(_images, members, a) == (error, text)
        vars(model)["_prims"] = members
        assert _raised(n_a_profile, a) == (error, text)
        assert _raised(RepFamily, model, members) == (
            ValueError, f"member {first.label} does not act on this model: {text}"
        )



@pytest.mark.parametrize("op", ["+", "*"])
def test_toeplitz_algebra_across_models_rejected(op):
    # the sum or product would keep one model's sections on the other's
    small = ToeplitzElement.shift(ToeplitzModel.standard(8, (4, 8)))
    large = ToeplitzElement.shift(ToeplitzModel.standard(8, (8, 1000)))
    combine = (lambda x, y: x + y) if op == "+" else (lambda x, y: x * y)
    with pytest.raises(IncompatibleModel, match="^elements live on different models$"):
        combine(small, large)
    with pytest.raises(IncompatibleModel):
        combine(small, counterexample_element(matrix_model(1.0 / 8.0)))
    twin = ToeplitzElement.shift(ToeplitzModel.standard(8, (4, 8)))
    assert combine(small, twin).section_sizes == (4, 8)


def test_toeplitz_elements_report_their_models_section_sizes():
    model = ToeplitzModel.standard(8, (4, 8, 24))
    x = ToeplitzElement.build(model, {-1: 0.5, 1: 2.0}, correction=np.eye(2), label="x")
    s, one = ToeplitzElement.shift(model), ToeplitzElement.identity(model, 3.0)
    for y in (x, s, one, x.adjoint(), x + s, x * s, x + 1.0, 2j * x, x * 0.5, x - s):
        assert y.model is model and y.section_sizes == (4, 8, 24)
    with pytest.raises(AttributeError):
        x.section_sizes = (4,)

# ---------------------------------------------------------------------------
# representation property: multiplicative, adjoint-preserving, contractive


def test_eval_reps_are_star_morphisms():
    rng = np.random.RandomState(7)
    model = matrix_model(1.0 / 8.0)
    reps = [Representation.eval_point(0.25), Representation.block_eval(1.0, 0)]
    for _ in range(100):
        a = random_element(model, rng)
        b = random_element(model, rng)
        for rep in reps:
            pa, pb = rep_apply(rep, a), rep_apply(rep, b)
            assert op_norm(rep_apply(rep, a * b) - pa @ pb) <= 1e-10
            assert op_norm(rep_apply(rep, a.adjoint()) - pa.conj().T) <= 1e-10
            assert op_norm(rep_apply(rep, a + b) - (pa + pb)) <= 1e-10


def test_characters_are_star_morphisms():
    rng = np.random.RandomState(11)
    model = toeplitz_model()
    theta = model.thetas[5]
    rep = Representation.toeplitz_character(theta)
    for _ in range(100):
        x = ToeplitzElement.build(
            model,
            {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(-2, 3)},
            correction=rng.standard_normal((2, 2)),
        )
        y = ToeplitzElement.build(
            model,
            {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(-2, 3)},
        )
        px, py = rep_apply(rep, x), rep_apply(rep, y)
        assert abs(rep_apply(rep, x * y)[0, 0] - px[0, 0] * py[0, 0]) <= 1e-10
        assert abs(rep_apply(rep, x.adjoint())[0, 0] - np.conj(px[0, 0])) <= 1e-10


def test_section_ladder_morphism_on_buffered_interior():
    # finite sections multiply exactly on the interior once the cut is
    # buffered past both bandwidths and corrections
    rng = np.random.RandomState(13)
    model = toeplitz_model()
    n, buffer = 24, 12
    for _ in range(20):
        x = ToeplitzElement.build(
            model,
            {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(-3, 4)},
            correction=rng.standard_normal((3, 3)),
        )
        y = ToeplitzElement.build(
            model,
            {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(-3, 4)},
        )
        big = x.section(n + buffer) @ y.section(n + buffer)
        prod = (x * y).section(n + buffer)
        assert op_norm(big[:n, :n] - prod[:n, :n]) <= 1e-10


def test_products_of_real_factors_keep_their_corrections_bitwise(monkeypatch):
    # section(m) @ complex_embed casts a real section back to complex exactly,
    # so a product's correction is the one all-complex sections give, byte for byte
    rng = np.random.default_rng(2801)
    model = toeplitz_model()

    def draw(real):
        k, n0 = int(rng.integers(0, 3)), int(rng.integers(0, 4))
        symbol = {j: complex(rng.normal(), 0.0 if real else rng.normal()) for j in range(-k, k + 1)}
        return ToeplitzElement.build(model, symbol, rng.normal(size=(n0, n0)) if n0 else None)

    pairs = [(draw(rx), draw(ry)) for rx, ry in [(True, True), (True, False), (False, True)] * 6]
    assert any(x.section(8).dtype == float for x, _y in pairs)

    def corrections():
        return [(c.shape, c.tobytes()) for c in ((x * y).correction for x, y in pairs)]

    got = corrections()
    section = ToeplitzElement.section
    monkeypatch.setattr(ToeplitzElement, "section", lambda x, n: section(x, n).astype(complex))
    assert corrections() == got


def test_reps_are_contractive_on_gallery():
    rng = np.random.RandomState(17)
    model = matrix_model(1.0 / 8.0)
    for _ in range(20):
        a = random_element(model, rng)
        bound = elem_norm(a)
        for rep in (Representation.eval_point(0.375), Representation.block_eval(1.0, 1)):
            assert op_norm(rep_apply(rep, a)) <= bound.value + bound.error + 1e-10


# ---------------------------------------------------------------------------
# toeplitz algebra and norms


def test_shift_relations():
    model = toeplitz_model()
    s = ToeplitzElement.shift(model)
    sts = s.adjoint() * s
    assert sts.offset == 0 or all(
        abs(sts.coeff(k)) <= 1e-12 for k in range(-sts.offset, sts.offset + 1) if k != 0
    )
    assert abs(sts.coeff(0) - 1.0) <= 1e-12
    assert sts.correction.size == 0 or op_norm(sts.correction) <= 1e-12
    sst = s * s.adjoint()
    assert abs(sst.coeff(0) - 1.0) <= 1e-12
    assert sst.correction.shape == (1, 1) and abs(sst.correction[0, 0] + 1.0) <= 1e-12


def test_product_expansion():
    model = toeplitz_model()
    s = ToeplitzElement.shift(model)
    x = (2.0 + s) * (2.0 + s.adjoint())
    assert abs(x.coeff(0) - 5.0) <= 1e-12
    assert abs(x.coeff(1) - 2.0) <= 1e-12
    assert abs(x.coeff(-1) - 2.0) <= 1e-12
    assert x.correction.shape == (1, 1) and abs(x.correction[0, 0] + 1.0) <= 1e-12
    y = ToeplitzElement.build(model, {-1: 0.5j, 2: 1.5}, correction=np.array([[1.0, 2.0j], [0.0, 3.0]]))
    xs, ys, one = x.section(8), y.section(8), np.eye(8)
    for got, want in [
        (1 + x, one + xs), (x - 2, xs - 2.0 * one), (2 - x, 2.0 * one - xs),
        (3 * x, 3.0 * xs), (x - y, xs - ys),
    ]:
        assert isinstance(got, ToeplitzElement)
        assert op_norm(got.section(8) - want) <= 1e-12


def test_adjoint_reflects_symbol():
    model = toeplitz_model()
    x = ToeplitzElement.build(model, {1: 2.0 + 1.0j, -2: 3.0}, correction=np.array([[1.0j]]))
    xa = x.adjoint()
    assert xa.coeff(-1) == pytest.approx(2.0 - 1.0j)
    assert xa.coeff(2) == pytest.approx(3.0)
    assert xa.correction[0, 0] == pytest.approx(-1.0j)


def test_toeplitz_norm_shift():
    n = toeplitz_norm(ToeplitzElement.shift(toeplitz_model()))
    assert n.value == pytest.approx(1.0, abs=1e-12)
    assert n.error <= 1e-12


def test_toeplitz_norm_cos_matches_tridiagonal_oracle():
    model = toeplitz_model()
    x = cos_symbol(model)
    for n in (8, 32, 128):
        assert op_norm(x.section(n)) == pytest.approx(tridiagonal_section_norm(n), abs=1e-10)
    est = toeplitz_norm(x)
    assert est.value == pytest.approx(tridiagonal_section_norm(128), abs=1e-10)
    assert abs(est.value - 2.0) <= 0.005


def test_toeplitz_norm_rank_one():
    model = toeplitz_model()
    x = ToeplitzElement.build(model, {}, correction=np.array([[1.0]]))
    assert toeplitz_norm(x).value == pytest.approx(1.0, abs=1e-12)


def test_section_norms_nondecreasing():
    rng = np.random.RandomState(19)
    model = toeplitz_model()
    for _ in range(20):
        x = ToeplitzElement.build(
            model,
            {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(-2, 3)},
            correction=rng.standard_normal((2, 2)),
        )
        norms = [op_norm(x.section(n)) for n in (8, 16, 32, 64, 128)]
        for a, b in zip(norms, norms[1:]):
            assert b >= a - 1e-12


def _reference_value_at(a: AlgebraElement, t: float) -> np.ndarray:
    """The one-point evaluation rule, written out point by point."""
    bps, mats = a.breakpoints, a.matrices
    kind = a.model.space.kind
    if kind == "discrete":
        for b, m in zip(bps, mats):
            if abs(t - b) <= 1e-9:
                return m
        raise IncompatibleModel(f"{t!r} is not a point of the discrete base space")
    if kind == "interval":
        if not (-1e-12 <= t <= 1.0 + 1e-12):
            raise IncompatibleModel(f"evaluation point {t!r} outside [0, 1]")
        t = min(max(t, bps[0]), bps[-1])
    else:
        t = t % 1.0
        if t > bps[-1]:
            w = (t - bps[-1]) / (1.0 - bps[-1])
            return (1.0 - w) * mats[-1] + w * mats[0]
    j = int(np.searchsorted(bps, t))
    if j < len(bps) and abs(bps[j] - t) <= 1e-12:
        return mats[j]
    if j > 0 and abs(bps[j - 1] - t) <= 1e-12:
        return mats[j - 1]
    w = (t - bps[j - 1]) / (bps[j] - bps[j - 1])
    return (1.0 - w) * mats[j - 1] + w * mats[j]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IncompatibleModel as err:
        return str(err)


@pytest.mark.parametrize("kind", ["interval", "circle", "discrete"])
def test_values_at_is_value_at_bit_for_bit(kind):
    rng = np.random.default_rng(12)
    for d, step in ((1, 1 / 8), (2, 1 / 13), (3, 1 / 32)):
        if kind == "discrete":
            space = BaseSpace.discrete(int(1 / step))
        else:
            space = getattr(BaseSpace, kind)(step)
        model = FunctionModel(space, BlockStructure.unconstrained(d))
        mats = tuple(
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in space.sample_grid
        )
        a = AlgebraElement(model, space.sample_grid, mats, 1.0)
        grid = np.asarray(space.sample_grid)
        near = [1e-12, -1e-12, 0.9e-12, -0.9e-12, 1.1e-12, -1.1e-12, 1e-9, -1e-9, 2e-9]
        points = [
            *grid, *rng.uniform(-0.3, 1.3, 200), *(grid[:, None] + near).ravel(),
            0.0, -0.0, 1.0, 1.0 + 1e-12, -1e-12, 1.0 + 2e-12, -2e-12, 1.0 - 1e-13,
            -1e-17, 1.5, 2.0, -0.25, grid[-1] + 1e-13, (grid[-1] + 1.0) / 2.0,
        ]
        points = [float(t) for t in points]
        want = [_outcome(_reference_value_at, a, t) for t in points]
        got = [_outcome(a.value_at, t) for t in points]
        for t, w, g in zip(points, want, got):
            if isinstance(w, str):
                assert g == w, t
            else:
                assert not isinstance(g, str) and np.array_equal(g, w), t
                assert np.signbit(g.real).tolist() == np.signbit(w.real).tolist(), t
        good = [t for t, w in zip(points, want) if not isinstance(w, str)]
        stack = a.values_at(good)
        assert stack.shape == (len(good), d, d)
        assert stack.tobytes() == np.stack([_reference_value_at(a, t) for t in good]).tobytes()
        bad = [t for t, w in zip(points, want) if isinstance(w, str)]
        assert bool(bad) == (kind != "circle")
        if bad:
            # the first failing point names the error, wherever it stands
            with pytest.raises(IncompatibleModel, match="^" + re.escape(want[points.index(bad[0])])):
                a.values_at(good[:5] + [bad[0]] + good[5:] + bad[1:])


def test_values_at_finds_the_first_discrete_point_within_reach():
    # breakpoints closer than the 1e-9 reach: the first one in order wins
    model = FunctionModel(BaseSpace.discrete(2), BlockStructure.unconstrained(1))
    bps = (0.0, 1.0 - 1e-9, 1.0 - 4e-10, 1.0, 1.0 + 5e-10)
    a = AlgebraElement(model, bps, tuple(np.eye(1) * (k + 1) for k in range(5)), 0.0)
    points = [0.0, 1.0, 1.0 + 4e-10, 1.0 - 1.5e-9, 1.0 + 1.2e-9]
    want = [_reference_value_at(a, t) for t in points]
    assert np.array_equal(a.values_at(points), np.stack(want))
    assert [complex(w[0, 0]) for w in want] == [1, 2, 3, 2, 5]


# ---------------------------------------------------------------------------
# primitive points


def test_enum_prim_matrix_model():
    model = matrix_model(1.0 / 2.0)
    prims = enum_prim(model)
    assert [p.label for p in prims] == ["ev(0)", "ev(0.5)", "ev(1)[0]", "ev(1)[1]"]


def test_enum_prim_toeplitz():
    prims = enum_prim(toeplitz_model(8))
    assert len(prims) == 9
    assert prims[0] == Representation.toeplitz_identity()


def test_enum_prim_unsupported():
    with pytest.raises(UnsupportedModel):
        enum_prim(object())


def test_enum_prim_is_built_once_per_model():
    for name in MODEL_NAMES:
        model = build_model(name)
        assert enum_prim(model) is enum_prim(model)
        assert enum_prim(build_model(name)) is not enum_prim(model)  # a new model starts cold


def test_prim_points_are_the_prim_all_members():
    for name in MODEL_NAMES:
        model = build_model(name)
        prims = enum_prim(model)
        assert all(isinstance(p, Representation) for p in prims)
        assert build_family(model, "prim-all").members == prims
        a = (
            ToeplitzElement.build(model, {0: 1.0, 1: 0.5}, correction=np.array([[1.0]]))
            if isinstance(model, ToeplitzModel)
            else AlgebraElement.identity(model)
        )
        for p in prims:
            assert rep_apply(p, a).ndim == 2


def test_n_a_profile_counterexample():
    model = matrix_model(1.0 / 8.0)
    f = counterexample_element(model)
    profile = {p.label: v for p, v in n_a_profile(f)}
    for t in model.space.sample_grid[:-1]:
        assert profile[f"ev({t:.12g})"] == pytest.approx(1.0)
    assert profile["ev(1)[0]"] == pytest.approx(1.0)
    assert profile["ev(1)[1]"] == pytest.approx(0.0, abs=1e-12)


def test_n_a_profile_semicontinuity_proxy():
    # Lipschitz control: neighbouring grid values cannot drop more than
    # lipschitz_bound * grid_step below the local value
    rng = np.random.RandomState(23)
    model = matrix_model(1.0 / 16.0)
    a = random_selfadjoint_element(model, rng)
    h = model.space.grid_step
    profile = [(p, v) for p, v in n_a_profile(a) if p.kind == "eval"]
    for (p1, v1), (p2, v2) in zip(profile, profile[1:]):
        assert v2 > v1 - a.lipschitz_bound * h - 1e-9
        assert v1 > v2 - a.lipschitz_bound * h - 1e-9
