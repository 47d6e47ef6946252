"""A family's members as columns, against a per-member reference.

A family keeps its members as columns on its model (`_Layout`): the gallery
fills them from the model's own arrays, and members given as
Representations go through `_laid_out`.  Here seeded random families on
discrete, interval and circle bases (block members, members on and off the
grid) and on the symbol model (characters, the section ladder) meet a
reference that looks at one member at a time: its layout, the cover, its
image values and the union of its spectra, in member order and in memory
that grows with the points.  The `members` view, equality, hash and
pickling, the first non-acting member's error, an `add-block` index past
int64, and the symbol on the angle array (bit for bit `symbol_at`) are
pinned with them.
"""

from __future__ import annotations

import pickle
import random
import tracemalloc

import numpy as np
import pytest

from specfam import RepFamily, Representation, build_family, build_model, enum_prim, rep_apply
from specfam.cli import main
from specfam.errors import IncompatibleModel, UnsupportedModel
from specfam.families import _member_values, _uncovered, fredholm_via_family, spectrum_union
from specfam.spectral import SpectrumSet, eig_normal
from specfam.models import (
    _KINDS,
    AlgebraElement,
    BaseSpace,
    BlockConstraint,
    BlockStructure,
    FunctionModel,
    ToeplitzElement,
    _laid_out,
)
from util import random_element

TWO_PI = 2.0 * np.pi


def _models():
    structure = BlockStructure(
        3, (BlockConstraint(0.25, ((0,), (1, 2))), BlockConstraint(0.75, ((0, 1), (2,))))
    )
    return [
        build_model("discrete", points=5, dim=2),
        build_model("interval-matrix", step=1 / 8),
        FunctionModel(BaseSpace.interval(1 / 8), structure),
        FunctionModel(BaseSpace.circle(1 / 8), BlockStructure.diagonal_at(2, 0.0)),
        build_model("toeplitz", theta_count=8, sections=(4, 8)),
    ]


def _candidates(model) -> list[Representation]:
    """Members that act on the model: on and near its grid points, one period out."""
    if not isinstance(model, FunctionModel):
        thetas = list(model.thetas)
        angles = thetas + [t + TWO_PI for t in thetas[::3]] + [t + 3e-12 for t in thetas[::2]]
        return [Representation.toeplitz_identity()] + [
            Representation.toeplitz_character(t) for t in angles + [0.3, TWO_PI - 5e-13]
        ]
    grid = model.space.sample_grid
    ts = list(grid) + [t + d for t in grid[::2] for d in (5e-13, 3e-12)]
    if model.space.kind == "circle":
        ts += [1.0 - 5e-13, 2.0, grid[3] - 1.0]
    elif model.space.kind == "interval":
        ts += [0.3, -5e-13]
    out = [Representation.eval_point(t) for t in ts]
    for c in model.structure.constraints:
        for t in (c.point, c.point + 5e-13):
            out += [Representation.block_eval(t, i) for i in range(len(c.blocks))]
    return [m for m in out if _acts(m, model)]


def _acts(member: Representation, model) -> bool:
    try:
        _laid_out((member,), model)
    except IncompatibleModel:
        return False
    return True


def _families(seed: int):
    rng = random.Random(seed)
    for model in _models():
        candidates = _candidates(model)
        for _ in range(25):
            members = rng.sample(candidates, rng.randint(1, len(candidates)))
            yield RepFamily(model, tuple(members + rng.choices(members, k=rng.randint(0, 2))))
        generators = ("toeplitz-pi", "toeplitz-chars", "toeplitz-all", "prim-all")
        if isinstance(model, FunctionModel):
            generators = ("prim-all", "eval-grid", "coarse")
            yield build_family(model, "eval-grid", exclude_points=[model.space.sample_grid[1]])
            if model.structure.constraints:
                c = model.structure.constraints[-1]
                yield build_family(model, "blocks-only")
                yield build_family(model, "eval-grid", add_blocks=[(c.point, len(c.blocks) - 1)])
        for generator in generators:
            yield build_family(model, generator)


def _covers(member: Representation, p: Representation, period: float | None) -> bool:
    """Whether the member's support closure holds the primitive point; angles
    and circle points compare mod period and one period below."""
    if member.kind == "toeplitz-identity":
        return True
    if p.kind == "toeplitz-identity" or member.block not in (None, p.block):
        return False
    x, at = (member.point, p.point) if member.theta is None else (member.theta, p.theta)
    ys = (x,) if period is None else (x % period, x % period - period)
    return any(abs(at - y) <= 1e-12 for y in ys)


def _element(model, rng: np.random.RandomState):
    if isinstance(model, FunctionModel):
        return random_element(model, rng)
    coeffs = {k: complex(*rng.standard_normal(2)) for k in range(-2, 3)}
    return ToeplitzElement.build(model, coeffs, correction=rng.standard_normal((2, 2)))


@pytest.mark.parametrize("seed", [5, 2718])
def test_layout_cover_and_member_values_match_a_per_member_reference(seed):
    rng, checked = np.random.RandomState(seed), 0
    for family in _families(seed):
        model, layout, members = family.model, family._layout, family.members
        # the layout, member by member; a family given the same members as
        # Representations lays them out to the same columns
        for i, m in enumerate(members):
            assert _KINDS[layout.kind[i]] == m.kind
            at = m.theta if m.kind == "toeplitz-character" else m.point
            assert np.array_equal(layout.point[i], np.nan if at is None else at, equal_nan=True)
            assert layout.block[i] == (m.block if m.kind == "block" else -1)
        groups = {int(i): blk for blk, pos in layout.groups.items() for i in pos}
        for i, m in enumerate(members):
            if m.kind in ("eval", "block"):
                c = model.structure.constraint_at(m.point)
                assert groups.pop(i) == (None if m.kind == "eval" else c.blocks[m.block])
        assert not groups
        assert layout.characters.tolist() == [i for i, m in enumerate(members) if m.kind == _KINDS[3]]
        assert list(layout.ladders) == [i for i, m in enumerate(members) if m.kind == _KINDS[2]]
        again = RepFamily(model, members, family.label)._layout
        for got, want in zip(again[:4], layout[:4]):
            assert got.tobytes() == want.tobytes()
        assert again.groups.keys() == layout.groups.keys()
        # the cover: each primitive point against every member
        prims = enum_prim(model)
        period = TWO_PI if not isinstance(model, FunctionModel) else 1.0
        period = None if period == 1.0 and model.space.kind != "circle" else period
        brute = [i for i, p in enumerate(prims) if not any(_covers(m, p, period) for m in members)]
        assert _uncovered(family).tolist() == brute
        # member values: each image alone, bit for bit
        a = _element(model, rng)
        norms, sigmas = _member_values(None, a, layout)
        for i, m in enumerate(members):
            if m.kind == "toeplitz-identity":
                want = (a._section_sweep[0].value, a._section_sweep[1])
            else:
                svals = np.linalg.svd(rep_apply(m, a), compute_uv=False)
                want = (svals[0], svals[-1])
            assert np.array([norms[i], sigmas[i]]).tobytes() == np.array(want).tobytes()
        checked += 1
    assert checked > 130


def _spectrum_reference(members, a, tol: float) -> SpectrumSet:
    """The canonical set of the members' spectra, concatenated in member order,
    each image solved alone: eigvalsh if it equals its adjoint and is not
    zero (canonicalized if two eigenvalues lie within tol), else eig_normal."""
    spectra = []
    for m in members:
        image = rep_apply(m, a)
        if np.array_equal(image, image.conj().T) and image.any():
            w = np.linalg.eigvalsh(image[None])[0]
            spectra.append(SpectrumSet.canonical(w, tol).values if (np.diff(w) <= tol).any() else w)
        else:
            spectra.append(eig_normal(image, tol).values)
    truncated = any(m.kind == "toeplitz-identity" for m in members)
    return SpectrumSet.canonical(np.concatenate([np.zeros(0), *spectra]), tol, truncated)


@pytest.mark.parametrize("seed", [5, 2718])
def test_spectrum_union_is_the_member_spectra_in_member_order(seed):
    # self-adjoint, skew (complex spectra, eig_normal) and zero (signed zeros) elements
    rng, checked = np.random.RandomState(seed), 0
    for family in _families(seed):
        b = _element(family.model, rng)
        for a in (b + b.adjoint(), (b + b.adjoint()) * 1j, b * 0.0):
            want, got = _spectrum_reference(family.members, a, 1e-9), spectrum_union(family, a)
            assert got.truncated == want.truncated and got.values.dtype == want.values.dtype
            assert got.values.tobytes() == want.values.tobytes()
            checked += 1
    assert checked > 390
    # +-0.0 are merged into the first in member order, whichever stack reads it
    structure = BlockStructure(3, (BlockConstraint(0.25, ((0,), (1, 2))),))
    model = FunctionModel(BaseSpace.interval(1 / 4), structure)
    grid = model.space.sample_grid
    values = [np.diag([7.0, 0.0, 1.0] if t == 0.25 else [-0.0, 2.0, 3.0]) for t in grid]
    a = AlgebraElement(model, grid, np.array(values, complex), 0.0, "z")
    block, ev = Representation.block_eval(0.25, 1), Representation.eval_point(0.5)
    for members, zero in (((block, ev), "0.0"), ((ev, block), "-0.0")):
        assert repr(spectrum_union(RepFamily(model, members), a).values.tolist()[0]) == zero


def test_spectrum_union_memory_grows_with_the_points_not_members_by_widest():
    # the ladder's 512 eigenvalues beside 16384 characters of one each: a
    # table of members by widest spectrum would take 64 MiB, the points 0.2 MiB
    model = build_model("toeplitz", theta_count=16384, sections=(512,))
    family = build_family(model, "toeplitz-all")
    x = ToeplitzElement.build(model, {0: 0.5, 1: 0.25, -1: 0.25})
    x._section_sweep  # the ladder's own solve, outside the measured span
    tracemalloc.start()
    try:
        union = spectrum_union(family, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(union) > 512 and peak < 16 * 2**20


# ---------------------------------------------------------------------------
# the members view, equality, hash and pickling


def test_a_gallery_family_builds_its_members_only_when_asked():
    model = build_model("interval-matrix", step=1 / 8)
    family = build_family(model, "eval-grid", exclude_points=[1.0], add_blocks=[(1.0, 0)])
    assert "members" not in vars(family)
    labels = [f"ev({t:.12g})" for t in model.space.sample_grid[:-1]] + ["ev(1)[0]"]
    assert [m.label for m in family.members] == labels
    assert family.members is family.members and all(type(m) is Representation for m in family.members)
    given = RepFamily(model, family.members, family.label)
    assert given == family and hash(given) == hash(family) and repr(given) == repr(family)
    assert given != RepFamily(model, family.members[:-1], family.label)
    for f in (family, given):
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f and copy.members == f.members and copy._layout.point.tobytes() == f._layout.point.tobytes()
    prims = build_family(model, "prim-all")
    assert prims.members == enum_prim(model) and "members" not in vars(build_family(model, "prim-all"))


# ---------------------------------------------------------------------------
# the first member that does not act


def test_the_first_non_acting_member_is_named_with_its_error():
    model = build_model("interval-matrix", step=1 / 8)
    members = (
        Representation.eval_point(0.5), Representation.block_eval(1.0, 1), Representation.eval_point(2.0),
        Representation.block_eval(0.5, 0), Representation("nosuch", 0.5, label="nosuch"),
    )
    with pytest.raises(IncompatibleModel, match=r"^point 2\.0 outside the base space$") as got:
        _laid_out(members, model)
    assert got.value.member is members[2]
    with pytest.raises(UnsupportedModel) as got:
        _laid_out(members[4:], build_model("toeplitz"))
    assert got.value.member is members[4] and str(got.value) == "unknown representation kind 'nosuch'"
    with pytest.raises(ValueError) as got:
        RepFamily(model, members)
    assert str(got.value) == "member ev(2) does not act on this model: point 2.0 outside the base space"


def test_an_add_block_index_past_int64_exits_2_with_the_member_named(tmp_path, capsys):
    scenario = tmp_path / "big.scn"
    scenario.write_text(
        "scenario-version: 1\nlabel: big\n\nmodel:\n  name: interval-matrix\n  step: 1/8\n\n"
        "families:\n  - id: f\n    generator: eval-grid\n    add-block: 1 99999999999999999999999\n\n"
        "queries:\n  - id: r\n    kind: family-report\n    family: f\n"
    )
    assert main(["run", str(scenario)]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 9, column 1: member ev(1)[99999999999999999999999] does not act on "
        "this model: block index 99999999999999999999999 out of range at 1.0\n"
    )


# ---------------------------------------------------------------------------
# the symbol on the angle array


def test_the_symbol_on_the_angle_array_is_symbol_at_bit_for_bit():
    rng = np.random.RandomState(11)
    model = build_model("toeplitz", theta_count=16, sections=(4,))
    for trial in range(2000):
        k = int(rng.randint(0, 6))
        coeffs = {j: complex(*rng.standard_normal(2) * 10.0 ** rng.randint(-3, 3)) for j in range(-k, k + 1)}
        if trial % 4 == 0:  # zero and signed-zero parts
            coeffs = {j: complex(-0.0 if j % 2 else 0.0, c.imag * (j % 3 != 0)) for j, c in coeffs.items()}
        x = ToeplitzElement.build(model, coeffs)
        thetas = np.concatenate([model.thetas, rng.uniform(-10.0, 10.0, 4)])
        # the scalar sum over numpy's scalar products, term by term
        terms = list(enumerate(x.coeffs, -x.offset))
        want = np.array([sum(c * np.exp(1j * k * t) for k, c in terms) for t in thetas.tolist()], complex)
        assert x._symbol(thetas).view(np.int64).tolist() == want.view(np.int64).tolist(), coeffs
        assert np.array([x.symbol_at(thetas[3])]).view(np.int64).tolist() == want[3:4].view(np.int64).tolist()
    # fredholm_via_family reads |symbol| as Python's abs of each value rounds it
    chars = build_family(model, "toeplitz-chars")
    x = ToeplitzElement.build(model, {-1: 0.3 + 0.7j, 0: -0.99, 2: 1e-3j})
    values = [abs(x.symbol_at(t)) for t in model.thetas]
    verdict = fredholm_via_family(chars, x)
    assert verdict.min_symbol == min(values)
    assert verdict.failing_theta in (None, model.thetas[int(np.argmin(values))])
