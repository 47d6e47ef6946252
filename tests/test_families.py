"""Family checks, invertibility routes, spectra through families."""

import functools
import gc
import pickle
import random
import weakref
from pathlib import Path

import numpy as np
import pytest

import probe_oracle as oracle
import specfam.families
import specfam.models
import specfam.observables
from specfam import (
    AlgebraElement,
    BaseSpace,
    BlockConstraint,
    BlockStructure,
    FunctionModel,
    IncompatibleModel,
    NotNormal,
    Representation,
    RepFamily,
    SpectrumSet,
    ToeplitzElement,
    UnsupportedModel,
    build_family,
    build_model,
    check_full,
    direct_invertible,
    elem_norm,
    family_report,
    fredholm_via_family,
    hausdorff,
    invertible_via_family,
    norm_via_family,
    observable_spectrum_union,
    rep_apply,
    spectrum_union,
    toeplitz_norm,
    union_spectra,
)

from specfam.families import _member_values, _uncovered, _verdicts
from specfam.models import enum_prim
from specfam.scenario import load_scenario, parse_scenario, report_text, run_scenario
from specfam.spectral import eig_normal
from util import (
    counterexample_element,
    matrix_model,
    random_element,
    random_selfadjoint_element,
)


def ramp_element(model):
    # f(t) = diag(1, 1 - t): norm 1 everywhere, lower entry dies at t = 1
    return counterexample_element(model)


# ---------------------------------------------------------------------------
# probe gallery of the reference oracle


def test_gallery_is_deterministic():
    model = matrix_model()
    g1 = oracle.standard_probes(model)
    g2 = oracle.standard_probes(model)
    assert [p.label for p in g1] == [p.label for p in g2]
    assert g1[0].label == "probe:1"
    labels = [p.label for p in g1]
    assert "tent(1)[0]" in labels and "tent(1)[1]" in labels


def test_gallery_extends_with_element_and_gap_probe():
    model = matrix_model()
    f = ramp_element(model)
    gallery = oracle.standard_probes(model, extras=(f,))
    labels = [p.label for p in gallery]
    assert "f" in labels and "gap(f)" in labels
    gap = gallery[labels.index("gap(f)")]
    # the gap probe is |f|^2 - f*f, self-adjoint by construction
    for t in (0.0, 0.5, 1.0):
        m = gap.value_at(t)
        assert np.allclose(m, m.conj().T)
    # for this ramp: 1 - diag(1, (1-t)^2), which peaks at t = 1
    assert abs(elem_norm(gap).value - 1.0) <= 1e-12


def test_tent_probe_shape():
    model = build_model("interval-scalar", step=1 / 4)
    gallery = oracle.standard_probes(model)
    tent = next(p for p in gallery if p.label == "tent(0.5)")
    assert abs(tent.value_at(0.5)[0, 0] - 1.0) <= 1e-12
    assert abs(tent.value_at(0.25)[0, 0]) <= 1e-12
    assert abs(tent.value_at(0.375)[0, 0] - 0.5) <= 1e-12


# ---------------------------------------------------------------------------
# norms through families


def test_norm_via_family_single_block_kills_ramp():
    model = matrix_model()
    f = ramp_element(model)
    fam = RepFamily(model, (Representation.block_eval(1.0, 1),), label="endpoint-block")
    assert norm_via_family(fam, f) == pytest.approx(0.0, abs=1e-12)
    assert elem_norm(f).value == pytest.approx(1.0)


def test_norm_via_family_full_family_attains():
    model = matrix_model()
    f = ramp_element(model)
    fam = build_family(model, "prim-all")
    assert norm_via_family(fam, f) == pytest.approx(elem_norm(f).value)


def test_member_norm_uses_ladder_for_section_member():
    model = build_model("toeplitz", theta_count=8, sections=(4, 8, 16))
    s = ToeplitzElement.shift(model)
    members = (Representation.toeplitz_identity(), Representation.toeplitz_character(0.0))
    for member in members:
        assert _member_values((member,), s)[0][0] == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["eval-grid+block", "toeplitz-all", "blocks-only", "circle"])
def test_member_values_match_per_member_svd(kind):
    # mixed image shapes: 2x2 evaluations with a 1x1 block, or the section
    # ladder with 1x1 characters; block members alone; circle evaluations
    # on and off the grid, the wrap segment included; every value against
    # a lone dense SVD of the member's image
    if kind == "toeplitz-all":
        model = build_model("toeplitz", theta_count=8, sections=(4, 8, 16))
        a = ToeplitzElement.build(
            model, {0: 2.0, 1: 0.5, -1: 0.3j}, correction=np.array([[1.0, 0.2], [0.0, 0.5]])
        )
        fam = build_family(model, "toeplitz-all")
    elif kind == "circle":
        model = build_model("circle-scalar", step=1 / 8)
        a = random_element(model, np.random.RandomState(6))
        points = (0.0, 0.3, 0.875, 0.9, 0.99, 1.0, 1.25, -0.05)
        fam = RepFamily(model, tuple(Representation.eval_point(t) for t in points))
    else:
        model = matrix_model()
        a = random_selfadjoint_element(model, np.random.RandomState(5))
        if kind == "blocks-only":
            fam = build_family(model, "blocks-only")
        else:
            fam = build_family(model, "eval-grid", exclude_points=[1.0], add_blocks=[(1.0, 1)])
    images = [rep_apply(member, a) for member in fam.members]
    assert len({m.shape for m in images}) == (1 if kind in ("blocks-only", "circle") else 2)
    norms = []
    for member, image, (_, sigma) in zip(fam.members, images, _member_values(fam.members, a)):
        if member.kind in ("eval", "block"):
            value = a.value_at(member.point)
            if member.kind == "block":
                idx = model.structure.constraint_at(member.point).blocks[member.block]
                value = value[np.ix_(idx, idx)]
            assert np.array_equal(image, value)
        svals = np.linalg.svd(image, compute_uv=False)
        ladder = member.kind == "toeplitz-identity"
        norms.append(toeplitz_norm(a).value if ladder else svals[0])
        assert _member_values((member,), a)[0][0] == pytest.approx(norms[-1], rel=1e-13)
        assert sigma == pytest.approx(svals[-1], rel=1e-13)
    assert norm_via_family(fam, a) == pytest.approx(max(norms), rel=1e-13)


# ---------------------------------------------------------------------------
# the three checks


def test_full_family_passes_all_checks():
    model = matrix_model()
    report = family_report(build_family(model, "prim-all"))
    assert report.full and report.exhausting and report.faithful
    assert report.full_witness is None
    with pytest.raises(TypeError):
        report.tolerances["slack"] = 0
    assert report.as_dict()["tolerances"] == {"slack": 1e-9}


def test_blocks_only_family_fails_full_with_witness():
    model = matrix_model()
    fam = build_family(model, "blocks-only")
    res = check_full(fam)
    assert not res.ok
    assert res.witness == "ev(0)"


def test_section_ladder_family_is_full():
    model = build_model("toeplitz", theta_count=8)
    report = family_report(build_family(model, "toeplitz-pi"))
    assert report.full and report.exhausting and report.faithful


def test_characters_fail_every_check_on_symbol_model():
    # characters kill every finite-rank correction, so they cannot be
    # faithful on the corrected algebra, only on its quotient
    model = build_model("toeplitz", theta_count=8)
    report = family_report(build_family(model, "toeplitz-chars"))
    assert not report.full and not report.exhausting and not report.faithful
    assert report.faithful_witness == "probe:e00"


def test_coarse_family_faithful_but_not_exhausting():
    model = build_model("interval-scalar", step=1 / 8)
    fam = build_family(model, "coarse", stride=2)
    report = family_report(fam)
    assert report.faithful
    assert not report.exhausting
    assert not report.full
    assert report.exhausting_witness.startswith("tent(")


def test_single_point_family_not_faithful():
    model = build_model("interval-scalar", step=1 / 8)
    fam = build_family(model, "single", at=0.0)
    res = _verdicts(fam)[2]
    assert family_report(fam).faithful_witness == res.witness
    assert not res.ok
    assert res.witness == "ev(0.25)"
    assert "open region" in res.detail


def test_unfaithful_family_admits_lambda_shift_kernel():
    # a family that only sees t = 1/2 annihilates lam - a for
    # lam = a(1/2), a nonzero element whenever a is nonconstant
    model = build_model("interval-scalar", step=1 / 8)
    fam = build_family(model, "single", at=0.5)
    a = AlgebraElement.from_polynomials(model, {(0, 0): [0.0, 1.0]}, label="t")
    lam = complex(a.value_at(0.5)[0, 0])
    c = AlgebraElement.from_polynomials(
        model, {(0, 0): [lam.real, -1.0]}, label="lam-a"
    )
    assert elem_norm(c).value > 0.4
    assert norm_via_family(fam, c) == 0.0


def test_check_exhausting_requires_probes():
    model = matrix_model()
    fam = build_family(model, "prim-all")
    with pytest.raises(ValueError):
        oracle.certify(fam, ())


def test_family_needs_members_of_its_model():
    model = matrix_model()
    with pytest.raises(ValueError):
        RepFamily(model, ())
    with pytest.raises(ValueError):
        RepFamily(model, (Representation.toeplitz_identity(),))
    # the matrix model's only block constraint sits at t = 1, with two blocks
    for member in (
        Representation.eval_point(2.0),
        Representation.block_eval(0.5, 0),
        Representation.block_eval(1.0, 2),
    ):
        with pytest.raises(ValueError, match="does not act on this model"):
            RepFamily(model, (member,))


def test_cover_wraps_around_the_circle():
    # t = 1 is t = 0 on the circle, and theta = 2 pi is theta = 0
    model = build_model("circle-scalar", step=1 / 4)
    members = tuple(Representation.eval_point(t) for t in (0.25, 0.5, 0.75, 1.0))
    report = family_report(RepFamily(model, members))
    assert report.full and report.exhausting and report.faithful
    symbol = build_model("toeplitz", theta_count=8)
    chi = RepFamily(symbol, (Representation.toeplitz_character(2 * np.pi),))
    uncovered = [p.label for p in _uncovered(chi)]
    assert "chi(0)" not in uncovered and "chi(0.785398163397)" in uncovered


# ---------------------------------------------------------------------------
# implication chain over the gallery


def _gallery_families():
    mm = matrix_model()
    cs = build_model("circle-scalar", step=1 / 8)
    dm = build_model("discrete", points=4, dim=2)
    tp = build_model("toeplitz", theta_count=8)
    fams = [
        build_family(mm, "prim-all"),
        build_family(mm, "eval-grid"),
        build_family(mm, "eval-grid", exclude_points=[1.0], add_blocks=[(1.0, 0)]),
        build_family(mm, "eval-grid", exclude_points=[1.0], add_blocks=[(1.0, 0), (1.0, 1)]),
        build_family(mm, "eval-grid", exclude_points=[0.0, 1.0]),
        build_family(mm, "coarse", stride=2),
        build_family(mm, "coarse", stride=3),
        build_family(mm, "single", at=0.0),
        build_family(mm, "single", at=0.5),
        build_family(mm, "blocks-only"),
        build_family(cs, "prim-all"),
        build_family(cs, "eval-grid"),
        build_family(cs, "coarse", stride=2),
        build_family(cs, "coarse", stride=4),
        build_family(cs, "single", at=0.5),
        build_family(dm, "prim-all"),
        build_family(dm, "eval-grid"),
        build_family(dm, "coarse", stride=2),
        build_family(dm, "single", at=0.0),
        build_family(tp, "toeplitz-pi"),
        build_family(tp, "toeplitz-chars"),
        build_family(tp, "toeplitz-all"),
    ]
    assert len(fams) >= 20
    return fams


def test_implication_chain_across_gallery():
    # full implies exhausting implies faithful, on every family
    for fam in _gallery_families():
        report = family_report(fam)
        if report.full:
            assert report.exhausting, fam.label
        if report.exhausting:
            assert report.faithful, fam.label


# ---------------------------------------------------------------------------
# the cover against the probe-by-member oracle


def _user_element(model, rng: random.Random):
    if isinstance(model, specfam.ToeplitzModel):
        coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in (-1, 0, 1, 2)}
        corr = np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)], [0.0, rng.uniform(-1, 1)]])
        return ToeplitzElement.build(model, coeffs, correction=corr, label="x")
    return random_element(model, np.random.RandomState(rng.randrange(2**31)))


def _random_family(model, rng: random.Random) -> RepFamily:
    """A random subset of the primitive members; on interval and circle
    bases possibly with off-grid evaluations, on a symbol model with a
    partial character set and the ladder only sometimes."""
    keep = rng.uniform(0.1, 1.0)
    members = [p for p in enum_prim(model) if rng.random() < keep]
    if isinstance(model, specfam.ToeplitzModel):
        members = [m for m in members if m.kind == "toeplitz-character"]
        if rng.random() < 0.3:
            members.insert(0, Representation.toeplitz_identity())
    elif model.space.kind != "discrete" and rng.random() < 0.5:
        off_grid = [rng.uniform(0.0, 1.0) for _ in range(rng.randint(1, 3))]
        members += [Representation.eval_point(t) for t in off_grid]
    if not members:
        members = [rng.choice(enum_prim(model))]
    return RepFamily(model, tuple(members), "random")


def _oracle_cases():
    rng = random.Random(6)
    for fam in _gallery_families():
        yield fam, ()
        yield fam, (_user_element(fam.model, rng),)
    models = (
        matrix_model(),
        build_model("circle-scalar", step=1 / 8),
        build_model("discrete", points=4, dim=2),
        build_model("toeplitz", theta_count=8, sections=(4, 8, 16)),
    )
    for k in range(400):
        model = models[k % len(models)]
        extras = (_user_element(model, rng),) if rng.random() < 0.3 else ()
        yield _random_family(model, rng), extras


def _off_grid(fam: RepFamily) -> bool:
    grid = fam.model.space.sample_grid
    return any(
        m.kind == "eval" and min(abs(m.point - g) for g in grid) > 1e-12 for m in fam.members
    )


def _without_full_symbol(fam: RepFamily) -> bool:
    thetas = [m.theta for m in fam.members if m.kind == "toeplitz-character"]
    has_pi = any(m.kind == "toeplitz-identity" for m in fam.members)
    return not has_pi and not any(abs(np.cos(th)) > 1 - 1e-12 for th in thetas)


def _verdict(res) -> tuple:
    return res.ok, res.witness


def test_cover_verdicts_agree_with_the_probe_oracle():
    # full, faithful (verdict, witness and detail) and probes_used always
    # agree; exhausting agrees outside two classes.  (a) An off-grid
    # evaluation within h/2 of an uncovered grid point lets that point's
    # tent pass the oracle's bar of h/2 times slope 1/h, or the oracle
    # names a later tent.  (b) A symbol family with neither the ladder nor
    # a character where |2cos| = 2 fails the oracle at probe:2cos before
    # probe:e00.  There the cover's verdict is full and its witness is the
    # tent of the first uncovered point, or probe:e00.
    cases = differing = 0
    seen = {"a": 0, "b": 0}
    for fam, extras in _oracle_cases():
        cases += 1
        gallery = oracle.standard_probes(fam.model, extras)
        old_full = oracle.check_full(fam)
        old_exhausting, old_faithful = oracle.certify(fam, gallery)
        full, exhausting, faithful = _verdicts(fam)
        report = family_report(fam, extras)
        assert report.probes_used == tuple(p.label for p in gallery)
        assert (report.full, report.full_witness) == _verdict(full)
        assert (report.exhausting, report.exhausting_witness) == _verdict(exhausting)
        assert (report.faithful, report.faithful_witness) == _verdict(faithful)
        assert full == old_full
        assert faithful == old_faithful, fam.members
        symbol = isinstance(fam.model, specfam.ToeplitzModel)
        if symbol:
            cls = "b" if _without_full_symbol(fam) else None
        else:
            cls = "a" if _off_grid(fam) else None
        if cls is None:
            assert _verdict(exhausting) == _verdict(old_exhausting)
            continue
        seen[cls] += 1
        differing += _verdict(exhausting) != _verdict(old_exhausting)
        assert exhausting.ok == full.ok
        if not full.ok:
            assert exhausting.witness == ("probe:e00" if symbol else "tent" + old_full.witness[2:])
    assert cases >= 444
    assert seen["a"] > 0 and seen["b"] > 0 and differing > 0


def test_family_report_builds_no_member_image(monkeypatch):
    rng = random.Random(1)
    cases = [(fam, _user_element(fam.model, rng)) for fam in _gallery_families()]
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for mod in (specfam.models, specfam.families):
        for name in ("_images", "rep_apply", "elem_norm", "toeplitz_norm", "_section_sweep"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counting(f"linalg.{name}", fn))
    for fam, a in cases:
        family_report(fam)
        family_report(fam, (a,))
    assert calls == []
    _member_values((Representation.eval_point(0.0),), counterexample_element(matrix_model()))
    assert "_images" in calls


# ---------------------------------------------------------------------------
# invertibility routes


def _assert_uncertified(route: dict, witness: str):
    assert route["certified"] is False
    assert route["reason"].endswith(f"(witness {witness})")


def test_paradox_family_reproduction():
    # drop the vanishing endpoint block: every member image stays
    # invertible while the element is not, and no uniform bound exists
    model = build_model("interval-matrix", step=1 / 64)
    f = ramp_element(model)
    fam = build_family(model, "eval-grid", exclude_points=[1.0], add_blocks=[(1.0, 0)])

    report = family_report(fam)
    assert report.faithful and not report.exhausting and not report.full
    assert report.full_witness == "ev(1)[1]"

    verdict = invertible_via_family(fam, f, bounds=tuple(10.0**k for k in range(7)))
    assert verdict.members_all_invertible
    assert verdict.member_min_sigma == pytest.approx(1 / 64)

    assert not direct_invertible(f).invertible

    for route in verdict.faithful_route:
        assert route["certified"] is True and route["invertible"] is False

    _assert_uncertified(verdict.exhausting_route, "tent(1)[1]")


def test_full_family_detects_noninvertibility():
    model = matrix_model()
    f = ramp_element(model)
    fam = build_family(model, "prim-all")
    exhausting = invertible_via_family(fam, f).exhausting_route
    assert exhausting == {"certified": True, "invertible": False}


def test_full_family_certifies_invertibility():
    model = matrix_model()
    f = ramp_element(model) + 0.5
    fam = build_family(model, "prim-all")
    verdict = invertible_via_family(fam, f, bounds=(10.0,))
    assert verdict.exhausting_route == {"certified": True, "invertible": True}
    assert verdict.faithful_route == ({"bound": 10.0, "certified": True, "invertible": True},)
    assert direct_invertible(f).invertible


def test_faithful_route_needs_a_large_enough_bound():
    model = matrix_model()
    f = ramp_element(model) + 0.5
    fam = build_family(model, "prim-all")
    # smallest member singular value is 0.5, so bound 1 is too small
    low, high = invertible_via_family(fam, f, bounds=(1.0, 2.0 + 1e-9)).faithful_route
    assert low["certified"] is True and low["invertible"] is False
    assert high["certified"] is True and high["invertible"] is True
    with pytest.raises(ValueError):
        invertible_via_family(fam, f, bounds=(0.0,))


def test_nonfaithful_family_is_rejected():
    # a single evaluation cannot certify: lam - a vanishes off the member
    model = build_model("interval-scalar", step=1 / 8)
    a = AlgebraElement.from_polynomials(model, {(0, 0): [0.0, 1.0]}, label="a")
    c = 0.5 - a
    fam = build_family(model, "single", at=0.0)
    verdict = invertible_via_family(fam, c, bounds=(1e6,))
    assert verdict.members_all_invertible
    assert not direct_invertible(c).invertible
    (faithful,) = verdict.faithful_route
    _assert_uncertified(faithful, "ev(0.25)")
    _assert_uncertified(verdict.exhausting_route, "tent(0.125)")


_SEVEN_BOUNDS = """\
scenario-version: 1
label: seven-bounds

model:
  name: interval-matrix
  step: 1/16

elements:
  - id: f
    kind: matrix-poly
    entry 0 0: 1
    entry 1 1: 1 -1

families:
  - id: all
    generator: prim-all

queries:
  - id: verdicts
    kind: invertible
    family: all
    element: f
    bounds: 1 1e1 1e2 1e3 1e4 1e5 1e6
"""


def test_invertible_query_takes_one_image_pass_and_one_cover(monkeypatch):
    # the verdict makes one image pass and one cover; direct_invertible
    # reads values_at on its own grid and makes no member image
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_images", "_uncovered", "check_full"):
        fn = getattr(specfam.families, name)
        monkeypatch.setattr(specfam.families, name, counting(name, fn))
    (result,) = run_scenario(parse_scenario(_SEVEN_BOUNDS))["results"]
    assert len(result["result"]["faithful_route"]) == 7
    assert sorted(calls) == ["_images", "_uncovered", "check_full"]


_TOEPLITZ_SCN = Path(__file__).resolve().parent.parent / "scenarios" / "toeplitz-fredholm.scn"


def _svd_counter(monkeypatch, names=("svd",)):
    """svds(scenario, qid): the operand shapes of every call to the named
    np.linalg routines (by default the SVD) that one query runs."""
    shapes = []
    for name in names:
        routine = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, *r, _f=routine, **k: shapes.append(a.shape) or _f(a, *r, **k)
        )

    def svds(scenario, qid):
        shapes.clear()
        (q,) = (q for q in scenario.queries if q.id == qid)
        run_scenario(scenario._replace(queries=[q]))
        return list(shapes)

    return svds


def test_each_element_sweeps_its_section_ladder_once(monkeypatch):
    # norm-cos asks elem_norm and the ladder member for the same sweep: one
    # LAPACK call per section, whichever routine solves it.  cos2 is real and
    # even with no corner, so each (even) section is its half-size pair
    svds = _svd_counter(monkeypatch, ("svd", "eigh", "eigvalsh"))
    scenario = load_scenario(str(_TOEPLITZ_SCN))
    ladder = [(2, n // 2, n // 2) for n in scenario.model.section_sizes]
    assert all(n % 2 == 0 for n in scenario.model.section_sizes)
    assert svds(scenario, "norm-cos") == ladder
    assert svds(scenario, "norm-cos") == []  # the sweep is kept on the element
    assert svds(load_scenario(str(_TOEPLITZ_SCN)), "norm-cos") == ladder  # a new parse starts cold

    x = scenario.elements["cos2"]
    ref = weakref.ref(x)
    del scenario, x
    gc.collect()
    assert ref() is None  # nothing outside the element holds the sweep


def test_a_norm_then_a_spectrum_solve_the_top_section_once(monkeypatch):
    # the spectrum's ladder image reads the eigenvalues the norm's sweep found
    svds = _svd_counter(monkeypatch, ("svd", "eigh", "eigvalsh"))
    path = str(Path(__file__).resolve().parent / "parity" / "toeplitz-complex.scn")
    scenario = load_scenario(path)
    top = max(scenario.model.section_sizes)
    norm = svds(scenario, "norm-hermitian")
    spectrum = svds(scenario, "spectrum-hermitian")
    assert [s for s in norm + spectrum if s[-1] == top] == [(top, top)]
    cold = load_scenario(path)  # the spectrum alone solves the section as its image
    assert [s for s in svds(cold, "spectrum-hermitian") if s[-1] == top] == [(1, top, top)]
    for element in ("hermitian", "corrected"):
        texts = []
        for warm in (True, False):  # after the norm's sweep, and cold
            fresh = load_scenario(path)
            queries = {q.id: q for q in fresh.queries}
            if warm:
                run_scenario(fresh._replace(queries=[queries[f"norm-{element}"]]))
            only = fresh._replace(queries=[queries[f"spectrum-{element}"]])
            texts.append(report_text(run_scenario(only)))
        assert texts[0] == texts[1], element
    # indefinite, split (the even top section of a real even symbol) and zero sections
    model = build_model("toeplitz", theta_count=8, sections=(7, 9, 10))
    family = build_family(model, "toeplitz-all")
    for symbol, corner in (
        ({0: 0.2, 1: 0.5j, -1: -0.5j}, None),
        ({0: -1.0, 1: 0.5, -1: 0.5}, np.diag([3.0, -2.0])),
        ({0: -1.0, 1: 0.5, -1: 0.5}, None),
        ({}, None),
    ):
        warm, cold = (ToeplitzElement.build(model, symbol, corner) for _ in range(2))
        warm._section_sweep
        assert repr(spectrum_union(family, warm)) == repr(spectrum_union(family, cold)), symbol


def test_self_adjoint_member_images_run_no_svd_in_spectrum_union(monkeypatch):
    # every image of cos2 under toeplitz-all equals its adjoint exactly
    svds = _svd_counter(monkeypatch)
    assert svds(load_scenario(str(_TOEPLITZ_SCN)), "spectrum-cos") == []


def _lapack_calls(monkeypatch) -> list:
    """(routine, operand shape, dtype) of every np.linalg svd, eigh and eigvalsh call, in call order."""
    calls = []
    for name in ("svd", "eigh", "eigvalsh"):
        routine = getattr(np.linalg, name)

        def recorded(a, *args, _name=name, _routine=routine, **kwargs):
            calls.append((_name, np.shape(a), np.asarray(a).dtype))
            return _routine(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def test_real_toeplitz_elements_reach_only_real_lapack(monkeypatch):
    model = build_model("toeplitz", theta_count=16, sections=(8, 16, 32, 64))
    family = build_family(model, "toeplitz-all")
    symbol = {-1: 0.5, 0: 2.0, 1: 0.5}
    # every imaginary part is +-0.0: a real operator, decided by value
    real = ToeplitzElement.build(
        model, {k: complex(c, -0.0) for k, c in symbol.items()}, np.array([[0.25, -0.5], [-0.5, 1.0]])
    )
    hermitian = ToeplitzElement.build(model, {0: 1.0, 1: 0.3j, -1: -0.3j})
    corrected = ToeplitzElement.build(
        model, symbol, np.array([[0.25, 0.1 + 0.2j], [0.1 - 0.2j, 1.0]])
    )
    # c_1 = 0.5i but c_-1 = 0: its sections are not Hermitian (nor normal)
    skew = ToeplitzElement.build(model, {0: 2.0, 1: 0.5j})
    calls = _lapack_calls(monkeypatch)

    def solved(x, spectrum=True):
        calls.clear()
        x._section_sweep
        if spectrum:
            spectrum_union(family, x)
        invertible_via_family(family, x)
        return list(calls)

    # the spectrum's ladder image reads the sweep's eigvalsh of the top section
    got = solved(real)
    assert [(name, shape) for name, shape, _dtype in got] == [
        ("eigvalsh", (8, 8)), ("eigvalsh", (16, 16)), ("eigvalsh", (32, 32)), ("eigvalsh", (64, 64)),
        ("eigvalsh", (16, 1, 1)), ("svd", (16, 1, 1)),
    ]
    assert {dtype for _name, _shape, dtype in got} == {np.dtype(np.float64)}
    for x in (hermitian, corrected):
        sections = [(name, dtype) for name, shape, dtype in solved(x) if shape[-1] > 1]
        assert sections == [("eigvalsh", np.dtype(np.complex128))] * 4
    sections = [(name, dtype) for name, shape, dtype in solved(skew, False) if shape[-1] > 1]
    assert sections == [("svd", np.dtype(np.complex128))] * 4


def test_real_sections_agree_with_the_complex_route(monkeypatch):
    model = build_model("toeplitz", theta_count=32, sections=(64, 128, 256, 512))
    families = [build_family(model, name) for name in ("toeplitz-pi", "toeplitz-chars", "toeplitz-all")]
    section = ToeplitzElement.section

    def answers(x):
        est, sigma, _ = x._section_sweep
        return (
            est, sigma, spectrum_union(families[0], x).values,
            [family_report(f, (x,)) for f in families],
            [invertible_via_family(f, x) for f in families],
        )

    rng = np.random.default_rng(2028)
    for trial in range(5):
        half = {j: float(c) for j, c in enumerate(rng.normal(size=int(rng.integers(1, 4))), 1)}
        symbol = {0: float(rng.normal()) + (0.0 if trial % 2 else 3.0), **half}
        symbol.update({-j: c for j, c in half.items()})
        if trial == 4:  # the corner alone: singular sections, no invertible verdict
            symbol = {}
        corner = rng.normal(size=(int(rng.integers(1, 5)),) * 2)
        x = ToeplitzElement.build(model, symbol, corner + corner.T)
        assert x.section(512).dtype == float
        est, sigma, spectrum, reports, verdicts = answers(x)
        # the complex route: the same element with complex128 sections
        monkeypatch.setattr(ToeplitzElement, "section", lambda x, n: section(x, n).astype(complex))
        twin = ToeplitzElement.build(model, symbol, corner + corner.T)
        c_est, c_sigma, c_spectrum, c_reports, c_verdicts = answers(twin)
        monkeypatch.undo()
        scale = 1e-12 * est.value
        assert abs(est.value - c_est.value) <= scale and abs(est.error - c_est.error) <= scale
        assert abs(sigma - c_sigma) <= scale
        assert spectrum.dtype == c_spectrum.dtype == float and len(spectrum) == len(c_spectrum)
        assert np.abs(spectrum - c_spectrum).max() <= scale
        assert reports == c_reports
        for v, c_v in zip(verdicts, c_verdicts):
            assert abs(v.member_min_sigma - c_v.member_min_sigma) <= scale
            assert v == c_v._replace(member_min_sigma=v.member_min_sigma)
        assert verdicts[0].members_all_invertible == (trial != 4)


def _svd_sweep(x):
    """The ladder sweep with one SVD per section size, for any element."""
    svals = [np.linalg.svd(x.section(n), compute_uv=False) for n in sorted(set(x.section_sizes))]
    norms = [float(s[0]) for s in svals]
    increment = abs(norms[-1] - norms[-2]) if len(norms) > 1 else 0.0
    return max(norms), float(increment), float(svals[-1][-1])


def test_hermitian_sweeps_agree_with_the_svd_within_the_solvers_error():
    model = build_model("toeplitz", theta_count=16, sections=(64, 128, 256, 512))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    rng = np.random.default_rng(2029)
    for trial in range(6):
        dtype = float if trial % 2 else complex
        k, c = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        half = rng.normal(size=k) + (1j * rng.normal(size=k) if dtype is complex else 0.0)
        symbol = {0: float(rng.normal())}
        symbol.update({j: z for j, z in enumerate(half.tolist(), 1)})
        symbol.update({-j: np.conj(z) for j, z in enumerate(half.tolist(), 1)})
        if trial >= 4:  # the corner alone: every section is singular
            symbol = {}
        corner = rng.normal(size=(c, c)) + (1j * rng.normal(size=(c, c)) if dtype is complex else 0.0)
        x = ToeplitzElement.build(model, symbol, corner + corner.conj().T)
        top = x.section(512)
        assert top.dtype == dtype and np.array_equal(top, top.conj().T)
        ref_norm, ref_increment, ref_sigma = _svd_sweep(x)
        calls.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("a Hermitian section ran an SVD"))
            patch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
            est, sigma, _ = x._section_sweep
        assert calls == [(n, n) for n in (64, 128, 256, 512)]
        bound = 8 * 512 * 2.0**-53 * ref_norm  # O(n u ||A||) for both backward-stable solvers
        assert abs(est.value - ref_norm) <= bound
        assert abs(est.error - ref_increment) <= bound
        assert abs(sigma - ref_sigma) <= bound
        if trial >= 4:
            assert ref_sigma <= bound and sigma <= bound


def test_split_sections_agree_with_the_dense_eigvalsh():
    model = build_model("toeplitz", theta_count=16, sections=(8,))
    rng = np.random.default_rng(2031)
    for k in range(1, 6):
        half = rng.normal(size=k).tolist()
        symbol = {0: float(rng.normal()), **dict(enumerate(half, 1))}
        symbol.update({-j: c for j, c in enumerate(half, 1)})
        x = ToeplitzElement.build(model, symbol)
        scale = sum(abs(c) for c in symbol.values())
        # n <= 2K included: there the fold reaches every anti-diagonal of the half
        for n in range(2, 257, 2):
            got = np.sort(x._section_values(n)[0])
            want = np.sort(np.abs(np.linalg.eigvalsh(x.section(n))))
            # c = 4: both solvers are backward stable, O(n u sum|c_k|) apart
            assert got.shape == (n,) and np.abs(got - want).max() <= 4 * n * 2.0**-53 * scale


def test_only_real_even_corner_free_even_sections_split(monkeypatch):
    model = build_model("toeplitz", theta_count=16, sections=(7, 8))
    calls = _lapack_calls(monkeypatch)
    cases = {
        "even": ({0: 2.0, 1: 0.5, -1: 0.5}, None, (2, 4, 4)),
        "-0.0 imaginary": ({0: 2.0, 1: complex(0.5, -0.0), -1: 0.5}, None, (2, 4, 4)),
        "corner": ({0: 2.0, 1: 0.5, -1: 0.5}, np.eye(1), (8, 8)),
        "complex, even": ({0: 2.0, 1: 0.5j, -1: 0.5j}, None, (8, 8)),
        "hermitian": ({0: 2.0, 1: 0.5j, -1: -0.5j}, None, (8, 8)),
        "uneven": ({0: 2.0, 1: 0.5, -1: 0.25}, None, (8, 8)),
    }
    for name, (symbol, corner, top) in cases.items():
        calls.clear()
        ToeplitzElement.build(model, symbol, corner)._section_sweep
        # the odd section is always solved whole, by one call
        assert [shape for _routine, shape, _dtype in calls] == [(7, 7), top], name
        if top == (2, 4, 4):
            assert calls[1][::2] == ("eigvalsh", np.dtype(np.float64)), name


def test_non_hermitian_sweeps_are_the_svd_sweep_bitwise(monkeypatch):
    model = build_model("toeplitz", theta_count=16, sections=(8, 16, 32, 64))
    elements = [
        ToeplitzElement.build(model, {0: 2.0, 1: 0.7, -1: 0.1}),  # real, not symmetric
        ToeplitzElement.build(model, {0: 1.0, 1: 0.3j, -1: 0.3j}),  # complex symmetric
        ToeplitzElement.build(model, {0: 1.0, 1: 0.5, -1: np.nextafter(0.5, 1.0)}),  # one ulp off
        ToeplitzElement.build(model, {1: 0.5, -1: 0.5}, np.array([[0.0, 1.0], [-1.0, 0.0]])),
        ToeplitzElement.build(model, {0: 1.0 + 1e-300j}),  # a diagonal off the real axis
    ]
    counted = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: counted.append(1))
    for x in elements:
        assert not np.array_equal(x.section(64), x.section(64).conj().T)
        est, sigma, _ = x._section_sweep
        got = np.array([est.value, est.error, sigma])
        assert got.tobytes() == np.array(_svd_sweep(x)).tobytes()
    assert counted == []


def test_observable_fibers_of_a_real_element_stay_real(monkeypatch):
    model = build_model("toeplitz", theta_count=16, sections=(16, 32, 64))
    family = build_family(model, "toeplitz-pi")
    real = ToeplitzElement.build(model, {0: complex(1.0, -0.0), 1: 0.5, -1: 0.5}, np.eye(2))
    hermitian = ToeplitzElement.build(model, {0: 1.0, 1: 0.3j, -1: -0.3j})
    dtypes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: dtypes.append(m.dtype) or eigvalsh(m))
    spectra = []
    for x, want in ((real, np.float64), (hermitian, np.complex128)):
        dtypes.clear()
        spectra.append(observable_spectrum_union(family, x))
        assert dtypes == [np.dtype(want)]
    # real by value, -0.0 included; any nonzero imaginary part keeps complex128
    fibers = specfam.observables.Observable((
        real.section(64).astype(complex), np.array([[1.0, complex(0.5, -0.0)], [0.5, 2.0]]),
        np.array([[1.0, 0.5j], [-0.5j, 2.0]]),
    )).fibers
    assert [f.dtype for f in fibers] == [np.dtype(float)] * 2 + [np.dtype(complex)]
    # the real route against the same fiber solved in complex arithmetic
    monkeypatch.undo()
    top = real.section(64).astype(complex)
    half = top / 2.0
    want = np.sort(np.linalg.eigvalsh(half + half.conj().T))
    got = spectra[0].values
    assert spectra[0].truncated and got.dtype == float and len(got) == len(np.unique(want))
    assert np.abs(got - np.unique(want)).max() <= 8 * 64 * 2.0**-53 * np.abs(want).max()


def test_direct_check_rejects_symbol_elements():
    model = build_model("toeplitz", theta_count=8)
    with pytest.raises(UnsupportedModel):
        direct_invertible(ToeplitzElement.shift(model))


def test_discrete_routes_agree_with_direct():
    model = build_model("discrete", points=4, dim=2)
    fam = build_family(model, "prim-all")
    rng = np.random.default_rng(7)
    for trial in range(50):
        a = random_selfadjoint_element(model, rng)
        if trial % 3 == 0:
            # plant an exact zero eigenvalue in one fiber
            mats = list(a.matrices)
            w, v = np.linalg.eigh(mats[0])
            w[0] = 0.0
            planted = (v * w) @ v.conj().T
            a = AlgebraElement(model, a.breakpoints, (planted,) + tuple(mats[1:]), 0.0, "a0")
        exhausting = invertible_via_family(fam, a).exhausting_route
        assert exhausting == {"certified": True, "invertible": direct_invertible(a).invertible}


# ---------------------------------------------------------------------------
# spectra through families


def test_spectrum_union_matches_direct_eigenvalues_on_discrete_base():
    model = build_model("discrete", points=3, dim=3)
    fam = build_family(model, "prim-all")
    rng = np.random.default_rng(11)
    for _ in range(25):
        mats = []
        for _ in range(3):
            # random normal fiber: unitary conjugate of a complex diagonal
            h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q, _r = np.linalg.qr(h)
            d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            mats.append((q * d) @ q.conj().T)
        a = AlgebraElement(model, model.space.sample_grid, tuple(mats), 0.0, "n")
        got = spectrum_union(fam, a, tol=1e-9)
        direct = np.concatenate([np.linalg.eigvals(m) for m in mats])
        want = SpectrumSet.canonical([complex(z) for z in direct], 1e-9)
        assert hausdorff(got, want) <= 1e-8


def test_spectrum_union_closure_refines_with_grid():
    # a(t) = t on [0, 1]: the union of member spectra is the grid, which
    # is h-dense in the spectrum and converges as the grid refines
    reference = SpectrumSet.canonical([k / 1024 for k in range(1025)], 1e-12)
    last = None
    for h in (1 / 16, 1 / 64, 1 / 256):
        model = build_model("interval-scalar", step=h)
        a = AlgebraElement.from_polynomials(model, {(0, 0): [0.0, 1.0]}, label="a")
        fam = build_family(model, "eval-grid")
        got = spectrum_union(fam, a, tol=1e-12)
        d = hausdorff(got, reference)
        assert d <= h
        if last is not None:
            assert d < last
        last = d


def test_spectrum_union_marks_ladder_members_truncated():
    model = build_model("toeplitz", theta_count=8, sections=(4, 8))
    fam = build_family(model, "toeplitz-all")
    x = ToeplitzElement.build(model, {1: 0.5, -1: 0.5}, label="cos")
    s = spectrum_union(fam, x, tol=1e-9)
    assert s.truncated
    assert all(abs(p.imag) <= 1e-9 for p in s.points)
    chars_only = spectrum_union(build_family(model, "toeplitz-chars"), x, tol=1e-9)
    assert not chars_only.truncated


def _rotation_element(model):
    # I + (1 - t) J with J = [[0, -1], [1, 0]]: normal, not self-adjoint
    # before t = 1, the identity (self-adjoint) at t = 1
    return AlgebraElement.from_polynomials(
        model, {(0, 0): [1.0], (1, 1): [1.0], (0, 1): [-1.0, 1.0], (1, 0): [1.0, -1.0]}, label="rot"
    )


def _union_cases():
    model = matrix_model(1.0 / 16.0)
    prim = build_family(model, "prim-all")
    yield prim, random_selfadjoint_element(model, np.random.RandomState(8))
    yield prim, counterexample_element(model)  # a zero block at t = 1
    yield prim, _rotation_element(model)
    yield prim, AlgebraElement.identity(model)  # repeated eigenvalues merge
    yield build_family(model, "eval-grid", exclude_points=[1.0], add_blocks=[(1.0, 1)]), (
        counterexample_element(model) * (1.0 - 1.0j)
    )
    circle = build_model("circle-scalar", step=1 / 8)
    points = (0.0, 0.3, 0.9, 0.99, 1.0, -0.05)
    yield RepFamily(circle, tuple(Representation.eval_point(t) for t in points)), (
        random_element(circle, np.random.RandomState(9))
    )
    disc = build_model("discrete", points=6, dim=2)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    # at resolution 0.3 the members' own merges decide the union: 0.73 keeps 1.0 out
    mats = (
        np.zeros((2, 2)), np.diag([1.0, -0.0]), rot,
        np.diag([1.0, 1.27]), 2.0 * rot + np.eye(2), np.diag([0.73, 5.0]),
    )
    yield build_family(disc, "prim-all"), AlgebraElement(disc, disc.space.sample_grid, mats, 0.0)
    sym = build_model("toeplitz", theta_count=8, sections=(4, 8))
    yield build_family(sym, "toeplitz-all"), ToeplitzElement.build(sym, {1: 0.5, -1: 0.5})


@pytest.mark.parametrize("tol", [1e-9, 0.0, 0.3])
def test_spectrum_union_is_the_union_of_member_spectra(tol):
    # self-adjoint, zero and normal non-self-adjoint images, against one
    # eig_normal per member image, point for point and sign for sign
    for fam, a in _union_cases():
        parts = []
        for m in fam.members:
            part = eig_normal(rep_apply(m, a), tol)
            parts.append(SpectrumSet(part.values, part.resolution, m.kind == "toeplitz-identity"))
        want = union_spectra(parts, resolution=tol)
        assert repr(spectrum_union(fam, a, tol)) == repr(want), fam.label


def test_spectrum_union_raises_for_the_first_non_normal_member(monkeypatch):
    # members 3 and 7 are not normal, with different commutators: member 3
    # decides the message, also when the batched eigvalsh gives up and every
    # image is solved on its own in member order
    model = build_model("discrete", points=9, dim=2)
    mats = [np.diag([float(k), 1.0]) for k in range(9)]
    mats[3] = np.array([[0.0, 1.0], [0.0, 0.0]])
    mats[7] = np.array([[0.0, 5.0], [0.0, 1.0]])
    a = AlgebraElement(model, model.space.sample_grid, tuple(mats), 0.0)
    fam = build_family(model, "prim-all")
    with pytest.raises(NotNormal) as first:
        eig_normal(mats[3], 1e-9)
    with pytest.raises(NotNormal) as later:
        eig_normal(mats[7], 1e-9)
    assert str(later.value) != str(first.value)
    with pytest.raises(NotNormal) as got:
        spectrum_union(fam, a)
    assert str(got.value) == str(first.value)

    eigvalsh = np.linalg.eigvalsh

    def no_batches(m, *args, **kwargs):
        if np.ndim(m) > 2:
            raise np.linalg.LinAlgError("no batches")
        return eigvalsh(m, *args, **kwargs)

    # across shapes: the 2x2 block (member 1) comes before the 3x3
    # evaluation (member 2), although the 3x3 stack is the first group
    struct = BlockStructure(3, (BlockConstraint(1.0, ((0, 1), (2,))),))
    split = FunctionModel(BaseSpace.interval(0.5), struct)
    jordan = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    b = AlgebraElement(split, (0.0, 0.5, 1.0), (np.eye(3), 3.0 * jordan.T, jordan), 1.0)
    members = (
        Representation.eval_point(0.0), Representation.block_eval(1.0, 0),
        Representation.eval_point(0.5), Representation.block_eval(1.0, 1),
    )
    with pytest.raises(NotNormal) as block:
        eig_normal(jordan[:2, :2], 1e-9)
    with pytest.raises(NotNormal) as got:
        spectrum_union(RepFamily(split, members), b)
    assert str(got.value) == str(block.value)

    monkeypatch.setattr(np.linalg, "eigvalsh", no_batches)
    with pytest.raises(NotNormal) as again:
        spectrum_union(fam, a)
    assert str(again.value) == str(first.value)


def test_the_first_member_that_fails_decides_the_error():
    # an 8-point family on an element of a 4-point model: members 4..7 have
    # no image, and member 0's image is not normal, so member 0 decides
    fam = build_family(build_model("discrete", points=8, dim=2), "prim-all")
    small = build_model("discrete", points=4, dim=2)
    mats = [np.diag([float(k), 1.0]) for k in range(4)]
    normal = AlgebraElement(small, small.space.sample_grid, tuple(mats), 0.0)
    mats[0] = np.array([[0.0, 1.0], [0.0, 0.0]])
    jordan = AlgebraElement(small, small.space.sample_grid, tuple(mats), 0.0)
    with pytest.raises(NotNormal) as first:
        eig_normal(mats[0], 1e-9)
    with pytest.raises(NotNormal) as got:
        spectrum_union(fam, jordan)
    assert str(got.value) == str(first.value)
    with pytest.raises(IncompatibleModel) as missing:
        rep_apply(fam.members[4], normal)
    with pytest.raises(IncompatibleModel) as got:
        spectrum_union(fam, normal)
    assert str(got.value) == str(missing.value)

    # a character before the section ladder, on a function-model element
    tmodel = build_model("toeplitz")
    members = (Representation.toeplitz_character(0.0), Representation.toeplitz_identity())
    with pytest.raises(IncompatibleModel, match="^characters apply"):
        norm_via_family(RepFamily(tmodel, members), normal)
    for fam, b in _union_cases():
        parts = [eig_normal(rep_apply(m, b), 1e-9) for m in fam.members]
        ladder = [m.kind == "toeplitz-identity" for m in fam.members]
        parts = [SpectrumSet(p.values, p.resolution, t) for p, t in zip(parts, ladder)]
        assert repr(spectrum_union(fam, b)) == repr(union_spectra(parts, resolution=1e-9))


def test_images_through_a_family_equal_rep_apply_member_by_member():
    # the family's kept layout serves its own model and an equal copy of it;
    # an element that a member cannot act on gets that member's error
    fam = build_family(matrix_model(1.0 / 8.0), "prim-all")
    copy = matrix_model(1.0 / 8.0)
    assert copy == fam.model and copy is not fam.model
    rng = np.random.RandomState(3)
    for model in (fam.model, copy):
        a = random_element(model, rng)
        assert fam._layout_on(a.model) is fam._layout
        images = [None] * len(fam.members)
        for pos, stack in specfam.models._images(fam.members, a, fam._layout_on(a.model)):
            for i, image in zip(pos.tolist(), stack):
                images[i] = image
        for member, image in zip(fam.members, images):
            assert np.array_equal(image, rep_apply(member, a))
    foreign = random_selfadjoint_element(build_model("discrete", points=4, dim=2), rng)
    with pytest.raises(IncompatibleModel) as laid:
        fam._layout_on(foreign.model)  # laid out anew, so checked against that model
    assert str(laid.value) == "point 0.125 outside the base space"
    errors = []
    for member in fam.members:
        try:
            rep_apply(member, foreign)
        except IncompatibleModel as err:
            errors.append(err)
    assert str(errors[0]) == "point 0.125 outside the base space"
    for query in (norm_via_family, invertible_via_family, spectrum_union):
        with pytest.raises(IncompatibleModel) as got:
            query(fam, foreign)
        assert str(got.value) == str(errors[0])


def test_member_values_are_kept_per_element_and_drop_with_it():
    fam = build_family(matrix_model(1.0 / 8.0), "prim-all")
    twins = [random_element(fam.model, np.random.RandomState(4)) for _ in range(2)]
    other = twins[0] * 2.0
    assert np.array_equal(twins[0].matrices, twins[1].matrices)
    for a in (*twins, other):
        assert norm_via_family(fam, a) == max(n for n, _ in _member_values(fam.members, a))
        assert fam._memo[a] == _member_values(fam.members, a)
    assert len(fam._memo) == 3  # equal data, one entry per element
    assert fam._memo[other] != fam._memo[twins[0]]
    ref = weakref.ref(twins[0])
    del twins[0]
    gc.collect()
    assert ref() is None and len(fam._memo) == 2
    copy = pickle.loads(pickle.dumps(fam))  # a copy starts with an empty memo
    assert copy == fam and len(copy._memo) == 0
    assert norm_via_family(copy, other) == norm_via_family(fam, other)


_CERTIFY_SCN = """\
scenario-version: 1
model:
  name: interval-matrix
  step: 1/16
elements:
  - id: f
    kind: matrix-poly
    entry 0 0: 1.5 0.25
    entry 0 1: 0.2 -0.2
    entry 1 0: 0.2 -0.2
    entry 1 1: 1.25 -0.75 -0.5
families:
  - id: dropped
    generator: eval-grid
    exclude-points: 1
    add-block: 1 0
  - id: all
    generator: prim-all
  - id: sparse
    generator: coarse
    stride: 2
queries:
  - id: report-dropped
    kind: family-report
    family: dropped
    element: f
  - id: report-all
    kind: family-report
    family: all
  - id: report-sparse
    kind: family-report
    family: sparse
  - id: paradox
    kind: invertible
    family: dropped
    element: f
    bounds: 1 10 100
  - id: honest
    kind: invertible
    family: all
    element: f
  - id: norm
    kind: norm
    family: all
    element: f
  - id: spectrum
    kind: spectrum
    family: all
    element: f
  - id: spectrum-dropped
    kind: spectrum
    family: dropped
    element: f
"""


def test_a_certify_pass_solves_each_image_shape_once_and_covers_each_family_once(monkeypatch):
    calls = []

    def counting(fn, key):
        def wrapper(x, *args, **kwargs):
            calls.append(key(x))
            return fn(x, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        routine = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, counting(routine, lambda m, n=name: (n, m.shape[-1])))
    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd, lambda m: ("svd", m.shape)))
    for name in ("_uncovered", "check_full"):
        fn = getattr(specfam.families, name)
        monkeypatch.setattr(specfam.families, name, counting(fn, lambda f, n=name: (n, f.label)))
    for mod in (specfam.models, specfam.families):
        monkeypatch.setattr(mod, "_layout", counting(mod._layout, lambda members: ("layout",)))
    model_class = specfam.models.FunctionModel
    counted = functools.cached_property(counting(model_class._prims.func, lambda _: ("prims",)))
    counted.__set_name__(model_class, "_prims")
    monkeypatch.setattr(model_class, "_prims", counted)

    scenario = parse_scenario(_CERTIFY_SCN)
    calls.clear()  # prim-all built its members from enum_prim while parsing
    run_scenario(scenario)
    # two spectrum queries over families with 2x2 and 1x1 images, eigenvalues only
    assert sorted(c for c in calls if c[0] == "eigvalsh") == [("eigvalsh", 1)] * 2 + [("eigvalsh", 2)] * 2
    assert not [c for c in calls if c[0] == "eigh"]
    # f's 17 breakpoint matrices are solved once, and the whole-fiber member
    # images of (all, f) and (dropped, f), the direct sweep and elem_norm read
    # that solve; one SVD per block-image shape of each family, though three
    # queries read them; one direct sweep of f for both invertible queries,
    # which solves only its 16 midpoints
    shapes = [(1, 1, 1), (2, 1, 1), (16, 2, 2), (17, 2, 2)]
    assert sorted(c for c in calls if c[0] == "svd") == [("svd", shape) for shape in shapes]
    assert ("layout",) not in calls  # the families checked and laid out their members when built
    for name in ("_uncovered", "check_full"):
        assert sorted(c for c in calls if c[0] == name) == [(name, f) for f in ("all", "dropped", "sparse")]
    assert ("prims",) not in calls  # built once per model, while parsing

    scenario = parse_scenario(_CERTIFY_SCN.replace("prim-all", "eval-grid"))
    calls.clear()
    run_scenario(scenario)
    assert calls.count(("prims",)) == 1  # three covers and the probe labels share one list


def _alone(m: np.ndarray) -> np.ndarray:
    """The singular values of one matrix, solved on its own."""
    return np.linalg.svd(m, compute_uv=False)


def _stepped_element(model, bps, rng, hermitian):
    """Random values at breakpoints bps, block-diagonal where the model asks."""
    d, mats = model.fiber_dim, []
    for t in bps:
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = m + m.conj().T if hermitian else m
        c = model.structure.constraint_at(t)
        if c is not None:
            mask = np.zeros((d, d), dtype=bool)
            for blk in c.blocks:
                mask[np.ix_(blk, blk)] = True
            m = np.where(mask, m, 0.0)
        mats.append(m)
    return AlgebraElement(model, bps, tuple(mats), 2.5, "stepped")


def _solve_cases():
    """(model, members, elements): grid members, members at breakpoints off
    the grid and off every breakpoint, and the block members of a constraint."""
    rng = np.random.RandomState(33)
    interval = FunctionModel(BaseSpace.interval(1 / 8), BlockStructure.diagonal_at(2, 1.0))
    circle = FunctionModel(
        BaseSpace.circle(1 / 8), BlockStructure(3, (BlockConstraint(0.5, ((0, 2), (1,))),))
    )
    discrete = FunctionModel(
        BaseSpace.discrete(5), BlockStructure(3, (BlockConstraint(2.0, ((0,), (1, 2))),))
    )
    for model, extra, off in (
        (interval, (0.03, 0.77), (0.3, 1 / 16, 0.999, 1.0 + 5e-13)),
        (circle, (0.2, 0.93), (0.3, 0.97, 1.25, -0.05)),
        (discrete, (0.5, 3.5), ()),
    ):
        grid = model.space.sample_grid
        (c,) = model.structure.constraints
        members = [Representation.eval_point(t) for t in grid if t != c.point]
        members += [Representation.block_eval(c.point, i) for i in range(len(c.blocks))]
        if model.space.kind != "discrete":  # a discrete base has no points between its own
            members += [Representation.eval_point(t) for t in extra + off]
        bps = tuple(sorted(grid + extra))  # strictly contains the grid
        elements = [_stepped_element(model, bps, rng, h) for h in (False, True)]
        elements.append(random_selfadjoint_element(model, rng))  # breakpoints: the grid
        if model is interval:
            elements.append(counterexample_element(model))
        # values D or -D for a diagonal D: near singular only between a D and a -D
        diag = np.diag(rng.standard_normal(model.fiber_dim) + 1j)
        if model is not discrete:
            for k in range(len(bps) - 1):  # the midpoint of segment k alone
                signs = [1.0 if j <= k else -1.0 for j in range(len(bps))]
                elements.append(AlgebraElement(model, bps, [s * diag for s in signs], 1.0))
        if model is circle:  # the wrap midpoint alone
            signs = [1.0] * (len(bps) - 2) + [3.0, -1.0]
            elements.append(AlgebraElement(model, bps, [s * diag for s in signs], 1.0))
        yield model, tuple(members), elements


def test_every_solve_of_a_function_element_is_bitwise_its_matrix_solved_alone():
    spectra = 0
    for model, members, elements in _solve_cases():
        space = model.space
        for a in elements:
            bps, lip = a.breakpoints, a.lipschitz_bound
            norm = max(_alone(a.value_at(t))[0] for t in space.sample_grid)
            want = np.array([norm, lip * space.grid_step / 2.0])
            assert np.array(elem_norm(a)).tobytes() == want.tobytes()
            # the direct sweep: every breakpoint and every midpoint, the wrap one on a circle
            pts = list(bps)
            gap = 0.0
            if space.kind != "discrete":
                mids = [(lo + hi) / 2.0 for lo, hi in zip(bps, bps[1:])]
                pts += mids + ([(bps[-1] + 1.0) / 2.0] if space.kind == "circle" else [])
                gap = max(max(m - lo, hi - m) for lo, m, hi in zip(bps, mids, bps[1:]))
                gap = max(gap, 1.0 - bps[-1]) if space.kind == "circle" else gap
            sigma = min(_alone(a.value_at(t))[-1] for t in pts)
            check = direct_invertible(a)
            got = np.array([check.sigma_min, check.margin])
            assert got.tobytes() == np.array([sigma, sigma - lip * gap / 2.0]).tobytes()
            gap = float(np.diff(bps).max(initial=0.0))
            gap = max(gap, 1.0 - bps[-1]) if space.kind == "circle" else gap
            sup = max(_alone(m)[0] for m in a.matrices) + lip * gap / 2.0
            assert np.float64(a.sup_bound()).tobytes() == np.float64(sup).tobytes()
            values = [(s[0], s[-1]) for s in (_alone(rep_apply(m, a)) for m in members)]
            assert np.array(_member_values(members, a)).tobytes() == np.array(values).tobytes()
            if np.array_equal(a.matrices, a.adjoint().matrices):  # every image is normal
                spectra += 1
                parts = [eig_normal(rep_apply(m, a), 1e-9) for m in members]
                got = spectrum_union(RepFamily(model, members), a)
                assert repr(got) == repr(union_spectra(parts, resolution=1e-9))
    assert spectra == 7


# ---------------------------------------------------------------------------
# Fredholm detection through the quotient characters


def test_shift_is_fredholm_with_unit_bound():
    model = build_model("toeplitz", theta_count=16)
    fam = build_family(model, "toeplitz-chars")
    v = fredholm_via_family(fam, ToeplitzElement.shift(model))
    assert v.fredholm
    assert v.inverse_bound == pytest.approx(1.0)
    assert v.failing_theta is None


def test_shift_minus_one_is_not_fredholm():
    model = build_model("toeplitz", theta_count=16)
    fam = build_family(model, "toeplitz-chars")
    x = ToeplitzElement.shift(model) - 1.0
    v = fredholm_via_family(fam, x)
    assert not v.fredholm
    assert v.failing_theta == pytest.approx(0.0)
    assert v.inverse_bound is None
    assert v.min_symbol == pytest.approx(0.0)


def test_fredholm_certification_needs_fine_enough_characters():
    # symbol vanishing between characters: nonvanishing on the grid is
    # not enough, the slope certificate must close the gaps
    model = build_model("toeplitz", theta_count=16)
    fam = build_family(model, "toeplitz-chars")
    x = ToeplitzElement.shift(model) - complex(np.exp(1j * np.pi / 16))
    v = fredholm_via_family(fam, x)
    assert v.min_symbol > 0.1
    assert v.certified_margin <= 0
    assert not v.fredholm


def test_fredholm_ignores_corrections():
    model = build_model("toeplitz", theta_count=16)
    fam = build_family(model, "toeplitz-chars")
    e00 = np.array([[1.0]])
    x = ToeplitzElement.build(model, {1: 1.0}, correction=-e00, label="S-E")
    v = fredholm_via_family(fam, x)
    assert v.fredholm and v.inverse_bound == pytest.approx(1.0)


def test_fredholm_requires_character_family():
    model = build_model("toeplitz", theta_count=8)
    fam = build_family(model, "toeplitz-all")
    with pytest.raises(UnsupportedModel):
        fredholm_via_family(fam, ToeplitzElement.shift(model))


def test_every_public_name_resolves():
    missing = [name for name in specfam.__all__ if not hasattr(specfam, name)]
    assert missing == []
    assert len(set(specfam.__all__)) == len(specfam.__all__)
