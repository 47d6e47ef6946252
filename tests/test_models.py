"""Model layer: elements, representations, norms, primitive points."""

from __future__ import annotations

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
    elem_norm,
    enum_prim,
    rep_apply,
    toeplitz_norm,
)
from specfam.families import n_a_profile
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
    with pytest.raises(ValueError):
        AlgebraElement(model, bps, tuple(mats), 1.0)


def test_from_polynomials_certifies_lipschitz():
    f = counterexample_element(matrix_model(1.0 / 8.0))
    assert f.lipschitz_bound == pytest.approx(1.0)


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
    out = rep_apply(Representation.toeplitz_identity(), s, section_size=3)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = 1.0
    assert op_norm(out - expected) <= 1e-12


def test_rep_apply_truncation_too_small():
    model = toeplitz_model()
    x = ToeplitzElement.build(model, {}, correction=np.eye(4))
    with pytest.raises(TruncationTooSmall):
        rep_apply(Representation.toeplitz_identity(), x, section_size=2)


def test_rep_apply_cross_model_rejected():
    f = counterexample_element(matrix_model(1.0 / 8.0))
    with pytest.raises(IncompatibleModel):
        rep_apply(Representation.toeplitz_character(0.0), f)
    s = ToeplitzElement.shift(toeplitz_model())
    with pytest.raises(IncompatibleModel):
        rep_apply(Representation.eval_point(0.0), s)


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
