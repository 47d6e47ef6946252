"""Self-tests of the benchmark at smoke size: python3 -m pytest perfbench -q"""

import copy
import inspect
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import speed
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
cli = run._load_specfam()


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    first = [c.text for c in w.generate(5)]
    assert first == [c.text for c in w.generate(5)]
    assert first != [c.text for c in w.generate(6)]
    assert len(set(first)) == len(first), "scenarios of one pass must be distinct"
    assert len({c.name for c in w.generate(5)}) == len(first)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_pass_parses_and_passes_its_oracles(name):
    bench = run.Bench(cli, WORKLOADS[name], seed=3, smoke=True)
    try:
        bench.run_pass()
        bench.run_pass()
    finally:
        bench.close()
    assert bench.failures == []
    assert bench.failed == 0
    assert bench.attempted == 2 * sum(len(c.queries) for c in bench.cases)


def _first_report(name):
    bench = run.Bench(cli, WORKLOADS[name], seed=3, smoke=True)
    try:
        bench.run_pass()
    finally:
        bench.close()
    return bench.cases[0], json.loads(bench.reference[0])


def _tamper(report, qid, key, fn):
    out = copy.deepcopy(report)
    for r in out["results"]:
        if r["id"] == qid:
            r["result"][key] = fn(r["result"][key])
    return out


@pytest.mark.parametrize(
    "name, qid, key, fn",
    [
        ("certify-interval", "report-dropped", "exhausting", lambda v: not v),
        ("certify-interval", "norm-f", "family_value", lambda v: v * 1.01 + 0.1),
        ("certify-interval", "spectrum-f", "points", lambda v: v[1:]),
        ("toeplitz-ladder", "fredholm-a", "fredholm", lambda v: not v),
        ("toeplitz-ladder", "norm-b", "family_value", lambda v: v + 1e-6),
        ("fiber-sweep", "invertible", "invertible", lambda v: not v),
        ("fiber-sweep", "spectrum", "points", lambda v: [[v[0][0] - 0.5, 0.0]] + v),
    ],
)
def test_oracles_reject_a_wrong_answer(name, qid, key, fn):
    case, report = _first_report(name)
    assert WORKLOADS[name].check(case, report) == []
    failures = WORKLOADS[name].check(case, _tamper(report, qid, key, fn))
    assert [q for q, _ in failures] == [qid]


def test_certify_elements_respect_the_block_constraint_and_are_hermitian():
    from specfam.scenario import parse_scenario

    for case in WORKLOADS["certify-interval"].generate(9):
        f = parse_scenario(case.text).elements["f"]
        at_one = f.value_at(1.0)
        assert at_one[0, 1] == 0 and at_one[1, 0] == 0
        for m in f.matrices:
            assert np.array_equal(m, m.conj().T)


def test_toeplitz_spectrum_elements_are_hermitian():
    from specfam.scenario import parse_scenario

    for case in WORKLOADS["toeplitz-ladder"].generate(9, smoke=True):
        a = parse_scenario(case.text).elements["a"]
        s = a.section(16)
        assert np.array_equal(s, s.conj().T)


def _bindings():
    """Every name the tracer may rebind, with the object bound to it."""
    out = {}
    namespaces = [m for n, m in sys.modules.items() if n == "specfam" or n.startswith("specfam.")]
    for ns in namespaces:
        for name, val in vars(ns).items():
            out[(ns.__name__, name)] = val
            if inspect.isclass(val) and val.__module__.startswith("specfam"):
                for attr, raw in vars(val).items():
                    out[(val.__module__, val.__qualname__, attr)] = raw
    for name in ("svd", "eigh", "eigvalsh"):
        out[("numpy.linalg", name)] = getattr(np.linalg, name)
    return out


def test_install_and_uninstall_restore_every_binding():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        import specfam.families
        import specfam.models

        assert specfam.models.rep_apply is not before[("specfam.models", "rep_apply")]
        assert specfam.families.rep_apply is specfam.models.rep_apply
        assert np.linalg.svd is not before[("numpy.linalg", "svd")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def _traced_counts(bench):
    tracer = Tracer()
    tracer.install()
    try:
        bench.run_pass(tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}, metrics


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_pass_reports_every_layer_metric_reproducibly(name):
    bench = run.Bench(cli, WORKLOADS[name], seed=4, smoke=True)
    try:
        bench.run_pass()
        counts, metrics = _traced_counts(bench)
        again, _ = _traced_counts(bench)
    finally:
        bench.close()
    assert bench.failed == 0, "tracing must not change any report"
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert declared == set(metrics) | {"trace.overhead_s"}
    assert counts == again
    assert all(v >= 0 for v in metrics.values())
    layers = {k.split(".")[0] for k, v in metrics.items() if v > 0}
    if name == "fiber-sweep":
        assert metrics["families.cert_calls"] == 0
        assert {"parametric", "observables", "spectral", "linalg"} <= layers
    else:
        assert metrics["families.cert_calls"] > 0
        assert {"families", "models", "linalg", "scenario", "cli", "gallery"} <= layers


def test_linalg_clock_times_long_outer_calls_and_restores_numpy():
    before = {name: getattr(np.linalg, name) for name in speed.LINALG}
    bench = run.Bench(cli, WORKLOADS["toeplitz-ladder"], seed=3, smoke=True)
    try:
        with speed.LinalgClock() as clock:
            assert np.linalg.svd is not before["svd"]
            bench.run_pass(clock=clock)
            pass_seconds = clock.seconds
            np.linalg.svd(np.eye(2))  # far shorter than HEAVY_S
            assert clock.seconds == pass_seconds
            np.linalg.svd(np.random.default_rng(0).standard_normal((400, 400)))
            assert clock.seconds > pass_seconds
    finally:
        bench.close()
    assert {name: getattr(np.linalg, name) for name in speed.LINALG} == before
    assert len(bench.linalg_share) == len(bench.cases)
    assert all(0.0 <= s <= 1.0 for s in bench.linalg_share)
    assert pass_seconds < bench.spans[0][-1][1] - bench.spans[0][0][0]


def test_rescale_divides_by_the_slowdown_of_all_but_lapack_bound_time():
    s = speed.Speed()
    s.ends = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    s.samples = [speed.REFERENCE_S * k for k in (9.0, 2.0, 2.0, 2.0, 2.0, 9.0)]
    # samples ending inside the interval, plus the NEIGHBOURS nearest on each side
    assert speed.NEIGHBOURS == 2
    assert s.slowdown(3.5, 3.6) == pytest.approx(2.0)
    assert s.slowdown(2.5, 4.5) == pytest.approx(26 / 6)
    assert s.rescale(4.0, 0.0, 3.5, 3.6) == pytest.approx(2.0)
    heavy = 2.0**speed.HEAVY_EXPONENT
    assert s.rescale(3.0, 1.0, 3.5, 3.6) == pytest.approx(3.0 / heavy)
    assert s.rescale(6.0, 0.5, 3.5, 3.6) == pytest.approx(6.0 / (1.0 + 0.5 * heavy))


def test_speed_thread_samples_and_stops():
    with speed.Speed() as s:
        deadline = time.perf_counter() + 5
        while len(s.ends) < 2 and time.perf_counter() < deadline:
            time.sleep(speed.INTERVAL_S)
        assert s.cpu_seconds() >= sum(s.samples)
    assert len(s.ends) >= 3
    assert len(s.samples) == len(s.ends)
    assert not s._thread.is_alive()


def test_benchmark_declares_the_metrics_the_runner_prints():
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert set(LAYERS) <= {m["name"].split(".")[0] for m in BENCHMARK["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "fiber-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (Path(tmp_path) / ".perfbench_work").exists() or not any(
        (Path(tmp_path) / ".perfbench_work").iterdir()
    )
