"""The primitive-point cover against a brute-force search, and what it rests on.

`_uncovered` marks the points that each member's grid index covers, one
index assignment per kind (a sorted lookup for characters), and
`_sparse_point` checks every uncovered point against its two sorted
neighbours; both answer with rows of `enum_prim`.  Here both meet an O(members x points) search over seeded
families on interval, circle, discrete and symbol models: members at, 1e-12
and 3e-12 off the grid points, one period out, duplicated, and the sparse
`coarse` families.  The index-based cover rests on unique primitive labels,
pinned at the size caps; the `eval-grid` exclusion and the `Representation`
named tuple are pinned with it.
"""

from __future__ import annotations

import pickle
import random
from itertools import pairwise

import numpy as np
import pytest

import probe_oracle as oracle
from specfam import RepFamily, Representation, build_family, build_model, enum_prim
from specfam.families import _sparse_point, _uncovered
from specfam.gallery import MAX_DENSE_ENTRIES
from specfam.models import BaseSpace, BlockConstraint, BlockStructure, FunctionModel, _fmt

TWO_PI = 2.0 * np.pi


def _covers(member: Representation, p: Representation, period: float | None) -> bool:
    """Whether the member's support closure holds the primitive point."""
    if member.kind == "toeplitz-identity":
        return True
    if p.kind == "toeplitz-identity":
        return False
    x, at = (member.point, p.point) if member.theta is None else (member.theta, p.theta)
    if member.block not in (None, p.block):
        return False
    ys = (x,) if period is None else (x % period, x % period - period)
    return any(abs(at - y) <= 1e-12 for y in ys)


def _period(model) -> float | None:
    if not isinstance(model, FunctionModel):
        return TWO_PI
    return 1.0 if model.space.kind == "circle" else None


def brute_uncovered(family: RepFamily) -> tuple[Representation, ...]:
    """The points no member covers, each checked against every member."""
    period = _period(family.model)
    return tuple(
        p for p in enum_prim(family.model)
        if not any(_covers(m, p, period) for m in family.members)
    )


def uncovered_points(family: RepFamily) -> tuple[Representation, ...]:
    """_uncovered's rows as the primitive points they stand for."""
    prims = enum_prim(family.model)
    return tuple(prims[i] for i in _uncovered(family))


def brute_sparse_point(family: RepFamily, uncovered) -> Representation | None:
    """The first uncovered point farther than a grid step from every evaluation."""
    space = family.model.space
    evals = [m.point for m in family.members if m.kind == "eval"]
    if not evals:
        return uncovered[0]
    for p in uncovered:
        if min(space.distance(p.point, q) for q in evals) > space.grid_step + 1e-12:
            return p
    return None


def _acting(model, members):
    """The members that act on the model, each kept once per occurrence."""
    out = []
    for m in members:
        try:
            RepFamily(model, (m,))
        except ValueError:
            continue
        out.append(m)
    return out


def _function_candidates(model) -> list[Representation]:
    grid = model.space.sample_grid
    ts = list(grid)
    ts += [t + d for t in grid[::2] for d in (1e-12, -1e-12, 3e-12, 5e-13)]
    if model.space.kind == "circle":
        ts += [1.0 - 5e-13, 1.0, 2.0, -grid[1], grid[-1] + 1.0, grid[2] - 3.0]
    out = [Representation.eval_point(t) for t in ts]
    for c in model.structure.constraints:
        for t in (c.point, c.point + 5e-13):
            out += [Representation.block_eval(t, i) for i in range(len(c.blocks))]
    return _acting(model, out)


def _two_constraint_model() -> FunctionModel:
    # the same block tuple (0,) is block 0 at 1/4 and no block at 3/4, and
    # block 0 at 3/4 is (0, 1): a block member covers its own block only
    structure = BlockStructure(
        3,
        (BlockConstraint(0.25, ((0,), (1, 2))), BlockConstraint(0.75, ((0, 1), (2,)))),
    )
    return FunctionModel(BaseSpace.interval(1 / 8), structure)


def _models():
    return [
        build_model("interval-matrix", step=1 / 8),
        build_model("interval-matrix", step=1 / 6, constraint_point=0.5),
        _two_constraint_model(),
        build_model("circle-scalar", step=1 / 8),
        build_model("circle-scalar", step=1 / 6),
        build_model("discrete", points=5, dim=2),
        FunctionModel(BaseSpace.circle(1 / 4), BlockStructure.diagonal_at(2, 0.0)),
    ]


def _seeded_families(seed: int, count: int = 40):
    rng = random.Random(seed)
    for model in _models():
        candidates = _function_candidates(model)
        for _ in range(count):
            members = rng.sample(candidates, rng.randint(1, len(candidates)))
            members += rng.choices(members, k=rng.randint(0, 3))  # duplicates
            yield RepFamily(model, tuple(members))
        for stride in (1, 2, 3, 4):
            yield build_family(model, "coarse", stride=stride)
        yield build_family(model, "prim-all")
    symbol = build_model("toeplitz", theta_count=8)
    thetas = list(symbol.thetas)
    angles = thetas + [t + TWO_PI for t in thetas] + [t - TWO_PI for t in thetas[::3]]
    angles += [t + d for t in thetas[::2] for d in (1e-12, 3e-12, -5e-13)] + [TWO_PI - 5e-13]
    chars = [Representation.toeplitz_character(t) for t in angles]
    for _ in range(count):
        members = rng.sample(chars, rng.randint(1, len(chars)))
        members += rng.choices(members, k=rng.randint(0, 3))
        if rng.random() < 0.2:
            members.insert(rng.randrange(len(members) + 1), Representation.toeplitz_identity())
        yield RepFamily(symbol, tuple(members))


@pytest.mark.parametrize("seed", [3, 1729])
def test_cover_and_sparse_point_match_a_brute_force_search(seed):
    checked = sparse = 0
    for family in _seeded_families(seed):
        rows = _uncovered(family)
        uncovered = uncovered_points(family)
        assert uncovered == brute_uncovered(family), family.members
        if uncovered and isinstance(family.model, FunctionModel):
            got = _sparse_point(family, rows)
            got = None if got is None else enum_prim(family.model)[got]
            assert got == brute_sparse_point(family, uncovered), family.members
            sparse += got is not None
        checked += 1
    assert checked > 300 and sparse > 20


@pytest.mark.parametrize("seed", [3, 1729])
def test_cover_matches_the_oracles_label_sets_where_nothing_wraps(seed):
    # probe_oracle.member_supports compares positions as given, with no period
    compared = 0
    for family in _seeded_families(seed):
        period = _period(family.model)
        positions = [m.point if m.theta is None else m.theta for m in family.members]
        if period is not None and not all(0 <= x < period - 1e-11 for x in positions if x is not None):
            continue
        prims = enum_prim(family.model)
        covered = oracle.member_supports(family, prims)
        assert [p.label for p in uncovered_points(family)] == [
            p.label for p in prims if p.label not in covered
        ]
        compared += 1
    assert compared > 150


def test_cover_edges_by_hand():
    circle = build_model("circle-scalar", step=1 / 8)
    for at in (1.0 - 5e-13, 1.0, 2.0):
        uncovered = uncovered_points(build_family(circle, "single", at=at))
        assert "ev(0)" not in [p.label for p in uncovered] and len(uncovered) == 7
    interval = build_model("interval-scalar", step=1 / 8)
    # 0.5 + 1e-12 lies 9.9998e-13 above 0.5, and 0.5 + 3e-12 outside 1e-12
    for at, covers in ((0.5 + 1e-12, True), (0.5 - 1e-12, True), (0.5 + 3e-12, False)):
        family = build_family(interval, "single", at=at)
        assert ("ev(0.5)" not in [p.label for p in uncovered_points(family)]) == covers
    matrix = build_model("interval-matrix", step=1 / 8)
    block = RepFamily(matrix, (Representation.block_eval(1.0, 1),) * 2)
    assert [p.label for p in uncovered_points(block)][-1] == "ev(1)[0]"
    symbol = build_model("toeplitz", theta_count=8)
    chi = RepFamily(symbol, (Representation.toeplitz_character(TWO_PI - 5e-13),))
    assert [p.label for p in uncovered_points(chi)][:2] == ["pi", "chi(0.785398163397)"]


# ---------------------------------------------------------------------------
# unique labels at the size caps


def _labels_unique(values) -> bool:
    """Sorted values with pairwise distinct %.12g labels; rounding to 12
    digits is monotone, so neighbours decide."""
    pairs = pairwise(zip(values, map(_fmt, values)))
    return all(a < b and la != lb for (a, la), (b, lb) in pairs)


def test_primitive_labels_are_unique_at_the_size_caps():
    circle = build_model("circle-scalar", step=2.0**-20)
    assert len(circle.space.sample_grid) == MAX_DENSE_ENTRIES
    assert _labels_unique(circle.space.sample_grid)
    interval = build_model("interval-scalar", step=1 / (MAX_DENSE_ENTRIES - 1))
    assert len(interval.space.sample_grid) == MAX_DENSE_ENTRIES
    assert _labels_unique(interval.space.sample_grid)
    discrete = BaseSpace.discrete(MAX_DENSE_ENTRIES)  # the discrete model's grid at dim 1
    assert _labels_unique(discrete.sample_grid)
    symbol = build_model("toeplitz", theta_count=MAX_DENSE_ENTRIES, sections=(8,))
    assert len(symbol.thetas) == MAX_DENSE_ENTRIES and _labels_unique(symbol.thetas)


# ---------------------------------------------------------------------------
# the eval-grid exclusion


def test_an_excluded_point_within_1e_12_drops_exactly_one_member():
    model = build_model("interval-scalar", step=1 / 8)
    for x in (0.5 + 5e-13, 0.5 - 5e-13, -5e-13, 1.0 + 5e-13):
        family = build_family(model, "eval-grid", exclude_points=[x])
        dropped = [m for m in build_family(model, "eval-grid").members if m not in family.members]
        assert len(family.members) == 8 and len(dropped) == 1
        assert abs(dropped[0].point - x) <= 1e-12


def test_an_excluded_point_off_the_grid_raises_the_same_text():
    model = build_model("interval-scalar", step=1 / 8)
    with pytest.raises(ValueError, match=r"^excluded point 0\.500000001 is not a grid point$"):
        build_family(model, "eval-grid", exclude_points=[0.25, 0.5 + 1e-9, 2.0])
    with pytest.raises(ValueError, match=r"^excluded point 2\.0 is not a grid point$"):
        build_family(model, "eval-grid", exclude_points=[0.25, 2.0])


def test_a_point_excluded_twice_drops_one_member_and_counts_twice():
    model = build_model("interval-scalar", step=1 / 8)
    family = build_family(model, "eval-grid", exclude_points=[0.5, 0.5, 0.5 + 5e-13])
    assert [m.label for m in family.members] == [
        m.label for m in build_family(model, "eval-grid").members if m.label != "ev(0.5)"
    ]
    assert family.label == "eval-grid[-3+0]"


def test_excluding_every_point_leaves_no_family():
    model = build_model("discrete", points=3, dim=1)
    with pytest.raises(ValueError, match="^a family needs at least one member$"):
        build_family(model, "eval-grid", exclude_points=[2, 0, 1])
    only = build_family(model, "eval-grid", exclude_points=[2, 0], add_blocks=[])
    assert [m.label for m in only.members] == ["ev(1)"]


# ---------------------------------------------------------------------------
# Representation, a named tuple


def test_representations_compare_hash_and_pickle_by_their_fields():
    rep = Representation.block_eval(1.0, 1)
    assert rep == Representation("block", 1.0, 1, None, "ev(1)[1]")
    assert hash(rep) == hash(("block", 1.0, 1, None, "ev(1)[1]"))
    assert rep != Representation.block_eval(1.0, 0)
    assert Representation("eval", 0.5) == Representation("eval", point=0.5, label="")
    assert repr(Representation.toeplitz_identity()) == (
        "Representation(kind='toeplitz-identity', point=None, block=None, theta=None, label='pi')"
    )
    assert len({rep, Representation.block_eval(1.0, 1)}) == 1
    matrix = build_model("interval-matrix", step=1 / 8)
    family = build_family(matrix, "eval-grid", exclude_points=[1.0], add_blocks=[(1.0, 0)])
    copy = pickle.loads(pickle.dumps(family))
    assert copy == family and copy.members == family.members
    assert all(type(m) is Representation for m in copy.members)
    assert uncovered_points(copy) == uncovered_points(family)
