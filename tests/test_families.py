"""Family checks, invertibility routes, spectra through families."""

import random

import numpy as np
import pytest

import probe_oracle as oracle
import specfam.families
import specfam.models
from specfam import (
    AlgebraElement,
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
    member_norm,
    norm_via_family,
    rep_apply,
    spectrum_union,
    toeplitz_norm,
)

from specfam.families import _member_values, _uncovered, _verdicts
from specfam.models import enum_prim
from specfam.scenario import parse_scenario, run_scenario
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
    assert member_norm(Representation.toeplitz_identity(), s) == pytest.approx(1.0)
    assert member_norm(Representation.toeplitz_character(0.0), s) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["eval-grid+block", "toeplitz-all"])
def test_member_values_match_per_member_svd(kind):
    # mixed image shapes: 2x2 evaluations with a 1x1 block, or the section
    # ladder with 1x1 characters; every value against a lone dense SVD
    if kind == "toeplitz-all":
        model = build_model("toeplitz", theta_count=8, sections=(4, 8, 16))
        a = ToeplitzElement.build(
            model, {0: 2.0, 1: 0.5, -1: 0.3j}, correction=np.array([[1.0, 0.2], [0.0, 0.5]])
        )
        fam = build_family(model, "toeplitz-all")
    else:
        model = matrix_model()
        a = random_selfadjoint_element(model, np.random.RandomState(5))
        fam = build_family(model, "eval-grid", exclude_points=[1.0], add_blocks=[(1.0, 1)])
    images = [rep_apply(member, a) for member in fam.members]
    assert len({m.shape for m in images}) == 2
    norms = []
    for member, image, (_, sigma) in zip(fam.members, images, _member_values(fam.members, a)):
        svals = np.linalg.svd(image, compute_uv=False)
        ladder = member.kind == "toeplitz-identity"
        norms.append(toeplitz_norm(a).value if ladder else svals[0])
        assert member_norm(member, a) == pytest.approx(norms[-1], rel=1e-13)
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
        for name in ("rep_apply", "elem_norm", "toeplitz_norm", "_section_sweep"):
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
    member_norm(Representation.eval_point(0.0), counterexample_element(matrix_model()))
    assert "rep_apply" in calls


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
    # makes the only other image pass
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_member_values", "check_full"):
        fn = getattr(specfam.families, name)
        monkeypatch.setattr(specfam.families, name, counting(name, fn))
    (result,) = run_scenario(parse_scenario(_SEVEN_BOUNDS))["results"]
    assert len(result["result"]["faithful_route"]) == 7
    assert sorted(calls) == ["_member_values", "_member_values", "check_full"]


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
