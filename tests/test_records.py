"""Record semantics of specfam's value and result types, in one table.

Every type below is immutable: assigning, adding or deleting an attribute
raises AttributeError.  Each compares by the values of its fields or by
identity, and hashes the same way or not at all.  Results and plain records
are named tuples; the types that validate, normalize or keep memos are
ordinary classes.  One instance of each is built from the bundled scenarios,
twice, so that equality, hash and repr are checked across two builds.
"""

from __future__ import annotations

import pickle
import weakref
from pathlib import Path

import pytest

from specfam import (
    LambdaGrid,
    Observable,
    cayley,
    check_full,
    direct_invertible,
    family_report,
    fredholm_via_family,
    invertible_parametric,
    invertible_via_family,
    rep_apply,
    spectrum_union,
    symbol_restriction_check,
)
from specfam.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS, PARITY = ROOT / "scenarios", ROOT / "tests" / "parity"

# type: (one of its fields, how it compares, how it hashes); None: unhashable
SEMANTICS = {
    "_Pair": ("key", "value", "value"),
    "Query": ("id", "value", None),
    "Scenario": ("label", "value", None),
    "BaseSpace": ("kind", "value", "value"),
    "BlockConstraint": ("point", "value", "value"),
    "BlockStructure": ("fiber_dim", "value", "value"),
    "FunctionModel": ("space", "value", "value"),
    "ToeplitzModel": ("thetas", "value", "value"),
    "AlgebraElement": ("label", "identity", "identity"),
    "ToeplitzElement": ("label", "identity", "identity"),
    "RepFamily": ("label", "value", "value"),
    "CheckResult": ("ok", "value", "value"),
    "FamilyReport": ("label", "value", None),
    "InvertibilityVerdict": ("threshold", "value", None),
    "DirectCheck": ("invertible", "value", "value"),
    "FredholmVerdict": ("fredholm", "value", "value"),
    "SpectrumSet": ("values", "value", None),
    "Observable": ("fibers", "value", None),
    "CayleyImage": ("fibers", "value", None),
    "CircleBase": ("cutoff", "value", "value"),
    "GraphBase": ("adjacency", "identity", "identity"),
    "InvariantOperator": ("label", "identity", "identity"),
    "LambdaGrid": ("axis", "value", "value"),
    "ParametricVerdict": ("invertible", "value", "value"),
    "RestrictionCheck": ("passed", "value", "value"),
}


def _build() -> dict:
    """One instance of each type in SEMANTICS, from freshly parsed scenarios."""
    matrix = load_scenario(SCENARIOS / "matrix-counterexample.scn")
    symbol = load_scenario(SCENARIOS / "toeplitz-fredholm.scn")
    laplacian = load_scenario(SCENARIOS / "laplacian-line.scn")
    ramp = load_scenario(SCENARIOS / "observable-interval.scn")
    graph = load_scenario(PARITY / "graph-invertible.scn")
    model, f, family = matrix.model, matrix.elements["f"], matrix.families["drop-endpoint"]
    shift, op = symbol.elements["shift"], laplacian.operators["one-minus-laplacian"]
    grid = LambdaGrid.build(op.n, 4.0, 1 / 32)
    # 1x1 fibers: tuples of them compare by value, as numpy reads a one-entry array as a bool
    observable = Observable.fibered(
        [rep_apply(m, ramp.elements["ramp"]) for m in ramp.families["grid"].members]
    )
    return {
        "_Pair": matrix.queries[0].params[0],
        "Query": matrix.queries[0],
        # no element, family or operator: those compare by identity
        "Scenario": load_scenario(SCENARIOS / "empty.scn"),
        "BaseSpace": model.space,
        "BlockConstraint": model.structure.constraints[0],
        "BlockStructure": model.structure,
        "FunctionModel": model,
        "ToeplitzModel": symbol.model,
        "AlgebraElement": f,
        "ToeplitzElement": shift,
        "RepFamily": family,
        "CheckResult": check_full(family),
        "FamilyReport": family_report(family, (f,)),
        "InvertibilityVerdict": invertible_via_family(family, f, bounds=(10.0,)),
        "DirectCheck": direct_invertible(f),
        "FredholmVerdict": fredholm_via_family(symbol.families["chars"], shift),
        "SpectrumSet": spectrum_union(symbol.families["all"], symbol.elements["cos2"], 1e-6),
        "Observable": observable,
        "CayleyImage": cayley(observable),
        "CircleBase": op.base,
        "GraphBase": next(iter(graph.operators.values())).base,
        "InvariantOperator": op,
        "LambdaGrid": grid,
        "ParametricVerdict": invertible_parametric(op, grid),
        "RestrictionCheck": symbol_restriction_check(op),
    }


@pytest.fixture(scope="module")
def builds():
    return _build(), _build()


def test_the_table_covers_each_type_once(builds):
    first, _ = builds
    assert len(SEMANTICS) == 25
    assert {name: type(x).__name__ for name, x in first.items()} == {n: n for n in SEMANTICS}


@pytest.mark.parametrize("name", SEMANTICS)
def test_attributes_cannot_be_assigned_added_or_deleted(builds, name):
    x, field = builds[0][name], SEMANTICS[name][0]
    before = repr(x)
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        x.unknown = None
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert repr(x) == before


@pytest.mark.parametrize("name", SEMANTICS)
def test_equality_and_hash_are_by_value_or_by_identity(builds, name):
    x, twin = builds[0][name], builds[1][name]
    _, equality, hashing = SEMANTICS[name]
    assert x is not twin and x == x
    assert (x == twin) is (equality == "value")
    assert (x != twin) is (equality == "identity")
    if hashing is None:
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    elif hashing == "value":
        assert hash(x) == hash(twin)
    else:
        assert hash(x) == object.__hash__(x)


@pytest.mark.parametrize("name", SEMANTICS)
def test_repr_is_the_same_across_two_builds(builds, name):
    x, twin = builds[0][name], builds[1][name]
    assert repr(x) == repr(twin)
    assert repr(x).startswith(f"{name}(")


def test_elements_are_weakly_referenceable(builds):
    for name in ("AlgebraElement", "ToeplitzElement"):
        x = builds[0][name]
        assert weakref.ref(x)() is x


def test_a_family_and_a_spectrum_survive_a_pickle_round_trip(builds):
    family, spectrum = builds[0]["RepFamily"], builds[0]["SpectrumSet"]
    again = pickle.loads(pickle.dumps(family))
    assert again == family and repr(again) == repr(family)
    assert again._layout.points.tobytes() == family._layout.points.tobytes()
    assert again._memo is not family._memo and len(again._memo) == 0
    copy = pickle.loads(pickle.dumps(spectrum))
    assert copy == spectrum and repr(copy) == repr(spectrum)
    assert copy.values.dtype == spectrum.values.dtype
    assert copy.values.tobytes() == spectrum.values.tobytes()
