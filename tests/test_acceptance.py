"""Acceptance gate: one criterion per test, one printed verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines while
passing; pytest shows them on failure regardless.  Every tolerance here
is pinned; loosening one is a defect, not a fix.
"""

import time
from pathlib import Path

import numpy as np

from specfam import (
    AlgebraElement,
    CircleBase,
    InvariantOperator,
    LambdaGrid,
    Observable,
    SpectrumSet,
    ToeplitzElement,
    build_family,
    build_model,
    cayley,
    direct_invertible,
    eig_normal,
    family_report,
    fredholm_via_family,
    hausdorff,
    invertible_parametric,
    invertible_via_faithful,
    member_invertibility,
    spec_observable,
    spectrum_parametric,
    spectrum_union,
    toeplitz_norm,
)
from specfam.scenario import load_scenario, report_text, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FIXTURES = [
    "matrix-counterexample.scn",
    "toeplitz-fredholm.scn",
    "laplacian-line.scn",
    "observable-interval.scn",
    "empty.scn",
]


def _verdict(criterion: int, ok: bool, detail: str):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_counterexample_paradox():
    # faithful family whose members are all invertible on a non-invertible
    # element; no uniform inverse bound up to 1e6 rescues the verdict
    started = time.perf_counter()
    model = build_model("interval-matrix", step=1 / 64)
    f = AlgebraElement.from_polynomials(
        model, {(0, 0): [1.0], (1, 1): [1.0, -1.0]}, label="f"
    )
    fam = build_family(model, "eval-grid", exclude_points=[1.0], add_blocks=[(1.0, 0)])
    report = family_report(fam, probes=(f,))
    members = member_invertibility(fam, f)
    direct = direct_invertible(f)
    bounds_false = all(
        not invertible_via_faithful(fam, f, bound=b)
        for b in (1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
    )
    elapsed = time.perf_counter() - started
    ok = (
        report.faithful
        and not report.full
        and all(m.invertible for m in members)
        and not direct.invertible
        and bounds_false
        and elapsed < 1.0
    )
    _verdict(1, ok, f"counterexample paradox at step 1/64 ({elapsed:.2f}s)")
    assert report.faithful and not report.full
    assert all(m.invertible for m in members)
    assert not direct.invertible
    assert bounds_false
    assert elapsed < 1.0


def test_criterion_2_implication_chain():
    mm = build_model("interval-matrix", step=1 / 8)
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
    # FamilyReport refuses to instantiate on a chain violation, so every
    # successful report is itself the certificate
    for fam in fams:
        rep = family_report(fam)
        assert not rep.full or rep.exhausting
        assert not rep.exhausting or rep.faithful
    models = {id(fam.model) for fam in fams}
    ok = len(fams) >= 20 and len(models) >= 3
    _verdict(2, ok, f"{len(fams)} families across {len(models)} models, chain intact")
    assert ok


def test_criterion_3_spectrum_union_matches_direct_eig():
    rng = np.random.RandomState(3)
    worst = 0.0
    for _ in range(100):
        pts = int(rng.randint(2, 9))
        dim = int(rng.randint(1, 5))
        model = build_model("discrete", points=pts, dim=dim)
        mats = []
        for _ in range(pts):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q = np.linalg.qr(g)[0]
            d = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            mats.append(q @ np.diag(d) @ q.conj().T)
        a = AlgebraElement(
            model, model.space.sample_grid, tuple(mats), 0.0, label="rand-normal"
        )
        union = spectrum_union(build_family(model, "prim-all"), a)
        oracle = SpectrumSet.canonical(
            [complex(z) for m in mats for z in np.linalg.eigvals(m)], 1e-9
        )
        worst = max(worst, hausdorff(union, oracle))
    ok = worst <= 1e-8
    _verdict(3, ok, f"100 random normal elements, worst hausdorff {worst:.2e}")
    assert ok


def test_criterion_4_closure_union_refines():
    steps = (1 / 16, 1 / 64, 1 / 256)
    dists = []
    for h in steps:
        model = build_model("interval-scalar", step=h)
        a = AlgebraElement.from_polynomials(model, {(0, 0): [0.0, 1.0]}, label="t")
        union = spectrum_union(build_family(model, "eval-grid"), a)
        reference = SpectrumSet.canonical(
            [complex(x) for x in np.linspace(0.0, 1.0, int(round(4 / h)) + 1)], 0.0
        )
        dists.append(hausdorff(union, reference))
    ok = all(d <= h for d, h in zip(dists, steps)) and dists[0] > dists[1] > dists[2]
    _verdict(4, ok, "hausdorff " + ", ".join(f"{d:.4f}<={h:.4f}" for d, h in zip(dists, steps)))
    assert all(d <= h for d, h in zip(dists, steps))
    assert dists[0] > dists[1] > dists[2]


def test_criterion_5_cayley_round_trip():
    rng = np.random.RandomState(5)
    worst = 0.0
    for _ in range(100):
        d = int(rng.randint(1, 17))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2.0
        back = spec_observable(Observable.bounded(h), resolution=1e-10)
        worst = max(worst, hausdorff(back, eig_normal(h, tol=1e-10)))
    inf_obs = Observable.infinite()
    u = cayley(inf_obs)
    empty = spec_observable(inf_obs)
    unit_ok = len(u.fibers) == 1 and np.array_equal(u.fibers[0], np.array([[1.0 + 0j]]))
    empty_ok = not empty.points and not empty.truncated
    ok = worst <= 1e-8 and unit_ok and empty_ok
    _verdict(5, ok, f"100 round trips, worst hausdorff {worst:.2e}; infinite fiber empty")
    assert worst <= 1e-8
    assert unit_ok and empty_ok


def test_criterion_6_parametric_oracle():
    started = time.perf_counter()
    base = CircleBase(16)
    one_minus = InvariantOperator.shifted_laplacian(base, n=1, shift=1.0)
    bare = InvariantOperator.shifted_laplacian(base, n=1)
    grid = LambdaGrid.build(1, 4.0, 1 / 32)
    spec = spectrum_parametric(one_minus, grid, tol=1e-9)
    min_point = min(p.real for p in spec.points)
    lam_fine = np.arange(-4.0, 4.0 + 1 / 256, 1 / 128)
    analytic = SpectrumSet.canonical(
        [complex(1.0 + k * k + x * x) for k in range(-16, 17) for x in lam_fine], 1e-9
    )
    dist = hausdorff(spec, analytic)
    v_bare = invertible_parametric(bare, grid)
    v_shift = invertible_parametric(one_minus, grid)
    elapsed = time.perf_counter() - started
    ok = (
        abs(min_point - 1.0) <= 1e-9
        and dist <= 0.3
        and not v_bare.invertible
        and v_bare.failing_lambda == (0.0,)
        and v_shift.invertible
        and elapsed < 10.0
    )
    _verdict(
        6,
        ok,
        f"min {min_point:.1e} off 1 by {abs(min_point - 1.0):.1e}, "
        f"hausdorff {dist:.3f}, bare fails at 0 ({elapsed:.2f}s)",
    )
    assert abs(min_point - 1.0) <= 1e-9
    assert dist <= 0.3
    assert not v_bare.invertible and v_bare.failing_lambda == (0.0,)
    assert v_shift.invertible
    assert elapsed < 10.0


def test_criterion_7_toeplitz_norm_and_fredholm():
    model = build_model("toeplitz", theta_count=16, sections=(8, 16, 32, 64, 128))
    two_cos = ToeplitzElement.build(model, {1: 1.0, -1: 1.0}, label="2cos")
    est = toeplitz_norm(two_cos)
    oracle = 2.0 * float(np.cos(np.pi / 129.0))
    chars = build_family(model, "toeplitz-chars")
    shift = ToeplitzElement.build(model, {1: 1.0}, label="shift")
    shift_minus = ToeplitzElement.build(model, {1: 1.0, 0: -1.0}, label="shift-1")
    good = fredholm_via_family(chars, shift)
    bad = fredholm_via_family(chars, shift_minus)
    ok = (
        abs(est.value - 2.0) <= 0.005
        and abs(est.value - oracle) <= 1e-9
        and good.fredholm
        and not bad.fredholm
    )
    _verdict(
        7,
        ok,
        f"norm {est.value:.6f} vs 2 (analytic 128-section {oracle:.6f}); "
        f"shift fredholm, shift-1 not",
    )
    assert abs(est.value - 2.0) <= 0.005
    assert abs(est.value - oracle) <= 1e-9
    assert good.fredholm and good.inverse_bound == 1.0
    assert not bad.fredholm and bad.failing_theta == 0.0


def test_criterion_8_reports_are_deterministic():
    blobs = []
    for _ in range(2):
        chunks = [
            report_text(run_scenario(load_scenario(str(SCENARIOS / name))))
            for name in FIXTURES
        ]
        blobs.append("".join(chunks).encode())
    ok = blobs[0] == blobs[1]
    _verdict(8, ok, f"two full-suite runs, {len(blobs[0])} bytes each, identical")
    assert ok
