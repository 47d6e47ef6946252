"""specfam benchmark: generated scenario workloads on the `specfam run` path.

    python3 perfbench/run.py --workload certify-interval --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run generates one pass of distinct scenario files from the seed and runs
them back to back in this process, each through `specfam.cli.main(["run",
scenario, "--out", report])`: a closed loop with a single caller, pinned to
one CPU.  The first pass is untimed: every query in it is checked by its
oracle, it measures each scenario's share of time in LAPACK-bound
numpy.linalg calls, and it
fills the gallery cache and grows the heap, which made first passes up to a
third slower on a small VM.  Timed passes then repeat while the next one is
expected to end within --seconds, and at least MIN_PASSES times; every
report must stay byte-identical to the first pass's.

Every timed interval is rescaled to a fixed machine speed by a kernel run on
a background thread (see speed.py): the VMs this runs on switch between a
fast and a slow state up to 2x apart, which no run length averages out.
The raw times are in the detail line.

--trace 0 prints the end-to-end metrics:
  wall_s          median time of one pass (parse through report written)
  scenario_s.p50  median time of one scenario over all timed passes
  setup_s         median over at least SETUP_REPEATS fresh interpreters,
                  spread across the run, of the time to import specfam and
                  build the CLI parser
  peak_rss_mb     peak resident memory of this process by the end of the
                  MIN_PASSES-th timed pass, so that it does not depend on
                  how many passes fit in --seconds
--trace 1 runs untraced passes for the baseline, then one traced pass, and
prints the per-layer metrics of that pass (see tracer.py) plus the tracing
overhead; the spans go to .perfbench_out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A query counts as failed when its oracle rejects it,
when its scenario raises or exits nonzero, or when a later pass changes its
report.  BLAS runs single-threaded in every run so parent and change compare
under the same setting.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("SPECFAM_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from speed import LinalgClock, Speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 3
SETUP_REPEATS = 9
SETUP_CODE = (
    "import json, time\n"
    "t = time.perf_counter()\n"
    "import specfam.cli\n"
    "specfam.cli._build_parser()\n"
    "print(json.dumps([time.perf_counter() - t, specfam.cli.__file__]))\n"
)
END_TO_END_UNITS = {"wall_s": "s", "scenario_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class MissingProgram(Exception):
    """The checkout holds no specfam sources to benchmark."""


def _load_specfam():
    """Import specfam from this checkout's src/, never from anywhere else."""
    pkg = SRC / "specfam"
    if not (pkg / "__init__.py").is_file():
        raise MissingProgram(f"no specfam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import specfam.cli

    if Path(specfam.cli.__file__).resolve().parent != pkg:
        raise MissingProgram(f"imported specfam from {specfam.cli.__file__}, not {pkg}")
    return specfam.cli


class SetupSampler:
    """Import-and-parser time of fresh interpreters, sampled across the run.

    One child at a time, between scenarios and outside their timing, at
    most every `interval` seconds, so that the samples see the machine at
    different moments of the run rather than in one burst.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self._last = -float("inf")
        self._env = dict(os.environ, PYTHONPATH=str(SRC))

    def sample(self, record: bool = True):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=self._env, capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise MissingProgram(f"specfam does not import: {proc.stderr.strip()[-500:]}")
        seconds, path = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(path).resolve().parent != SRC / "specfam":
            raise MissingProgram(f"fresh interpreter imported specfam from {path}")
        self._last = time.perf_counter()
        if record:
            self.samples.append(seconds)
            self.spans.append((started, self._last))

    def maybe(self):
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def finish(self):
        while len(self.samples) < SETUP_REPEATS:
            self.sample()


def _pin_to_one_cpu() -> int:
    """Keep this process, its calibration and its set-up children on one CPU.

    The CPUs of a shared VM drift in speed independently, so a run that
    moved between them would time a scenario on one CPU and calibrate on
    another.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "pinned_cpu": _pin_to_one_cpu(),
    }


class Bench:
    """One workload's scenario files, passes and correctness bookkeeping."""

    def __init__(self, cli, workload, seed: int, smoke: bool = False):
        self.cli = cli
        self.workload = workload
        self.cases = workload.generate(seed, smoke=smoke)
        self.dir = WORK / f"{workload.name}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for case in self.cases:
            scn = self.dir / f"{case.name}.scn"
            scn.write_text(case.text, encoding="utf-8")
            self.paths.append((str(scn), self.dir / f"{case.name}.json"))
        self.reference: list[bytes | None] = []
        self.first_failed: list[int] = []  # failed queries per case, first pass
        self.failures: list[tuple[str, str, str]] = []
        self.attempted = 0
        self.failed = 0
        self.spans: list[list[tuple[float, float]]] = []  # per pass, per scenario
        self.linalg_share: list[float] = []  # per scenario, from the first pass
        self.peak_rss_mb = 0.0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def run_pass(self, tracer=None, between=None, clock: LinalgClock | None = None,
                 speed: Speed | None = None) -> list[float]:
        """Run every scenario once; returns per-scenario seconds.

        The (start, end) of each scenario go to `spans`, for rescaling by
        the machine's speed afterwards (see speed.py); with `speed`, the CPU
        time its kernel took from a scenario is not counted in it.  With
        `clock`, each scenario's share of time in LAPACK-bound numpy.linalg
        calls goes to `linalg_share`.  `between` is called after each scenario, outside
        its timing.
        """
        gc.collect()
        times = []
        spans = []
        reports = []
        for case, (scn, out) in zip(self.cases, self.paths):
            out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.begin_scenario(case.name)
            in_linalg = clock.seconds if clock is not None else 0.0
            kernels = speed.cpu_seconds() if speed is not None else 0.0
            started = time.perf_counter()
            try:
                code = self.cli.main(["run", scn, "--out", str(out)])
            except Exception:  # the benchmark must report the failure and go on
                traceback.print_exc(file=sys.stderr)
                code = None
            ended = time.perf_counter()
            if speed is not None:
                kernels = speed.cpu_seconds() - kernels
            times.append(ended - started - kernels)
            spans.append((started, ended))
            if clock is not None:
                self.linalg_share.append(min((clock.seconds - in_linalg) / times[-1], 1.0))
            reports.append(out.read_bytes() if code == 0 and out.is_file() else None)
            if between is not None:
                between()
        self._account(reports)
        self.spans.append(spans)
        return times

    def _account(self, reports: list[bytes | None]):
        """Count attempted and failed queries of one pass.

        The first pass goes through the oracles; a later pass is correct
        exactly when its report is byte-identical to the first one.
        """
        first = not self.reference
        for i, (case, data) in enumerate(zip(self.cases, reports)):
            nq = len(case.queries)
            self.attempted += nq
            if first:
                failures = self._oracle(case, data)
                self.reference.append(data)
                self.first_failed.append(nq if data is None else min(nq, len(failures)))
                self.failures += [(case.name, q, m) for q, m in failures]
                self.failed += self.first_failed[i]
            elif data != self.reference[i]:
                self.failures.append((case.name, "*", "report changed between passes"))
                self.failed += nq
            else:
                self.failed += self.first_failed[i]

    def _oracle(self, case, data: bytes | None) -> list[tuple[str, str]]:
        if data is None:
            return [("*", "scenario raised or exited nonzero")]
        try:
            return self.workload.check(case, json.loads(data))
        except (ValueError, KeyError, TypeError) as err:
            return [("*", f"malformed report: {type(err).__name__}: {err}")]


def _timed_passes(bench: Bench, seconds: float, speed: Speed, between=None) -> list[list[float]]:
    """Passes until the next one would end after `seconds`, and at least MIN_PASSES."""
    passes = []
    started = time.perf_counter()
    last = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - started + last <= seconds:
        began = time.perf_counter()
        passes.append(bench.run_pass(between=between, speed=speed))
        last = time.perf_counter() - began
        if len(passes) == MIN_PASSES:
            bench.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes


def _rescaled(speed: Speed, times: list[float], spans: list[tuple[float, float]],
              shares: list[float]) -> list[float]:
    return [speed.rescale(t, share, *span) for t, span, share in zip(times, spans, shares)]


def _end_to_end(bench: Bench, seconds: float, sampler: SetupSampler) -> tuple[dict, dict]:
    with Speed() as speed:
        raw = _timed_passes(bench, seconds, speed, sampler.maybe)
        sampler.finish()
    shares = bench.linalg_share
    passes = [_rescaled(speed, p, s, shares) for p, s in zip(raw, bench.spans[-len(raw):])]
    setup = _rescaled(speed, sampler.samples, sampler.spans, [0.0] * len(sampler.samples))
    walls = [sum(p) for p in passes]
    scenario_times = [t for p in passes for t in p]
    metrics = {
        "wall_s": statistics.median(walls),
        "scenario_s.p50": statistics.median(scenario_times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": bench.peak_rss_mb,
    }
    samples = {
        "wall_s": len(walls),
        "scenario_s.p50": len(scenario_times),
        "setup_s": len(setup),
        "peak_rss_mb": 1,
        "pass_scenario_s": passes,
        "raw_pass_scenario_s": raw,
        "raw_setup_s": sampler.samples,
        "linalg_share": shares,
        "speed_s": speed.samples,
    }
    return metrics, samples


def _traced(bench: Bench, seconds: float, seed: int) -> tuple[dict, dict]:
    with Speed() as speed:
        raw = _timed_passes(bench, seconds, speed)
        tracer = Tracer()
        tracer.install()
        try:
            traced = bench.run_pass(tracer, speed=speed)
        finally:
            tracer.uninstall()
    spans = bench.spans[-len(raw) - 1:]
    shares = bench.linalg_share
    base = [sum(_rescaled(speed, p, s, shares)) for p, s in zip(raw, spans)]
    metrics = tracer.layer_metrics()
    traced_wall = sum(_rescaled(speed, traced, spans[-1], shares))
    metrics["trace.overhead_s"] = traced_wall - statistics.median(base)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{bench.workload.name}-seed{seed}-spans.npz")
    return metrics, {"untraced_passes": len(base), "traced_passes": 1, "spans": len(tracer.span_name)}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_call"):
        return "1/call"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    env = _environment()
    sampler = SetupSampler(seconds / SETUP_REPEATS)
    try:
        cli = _load_specfam()
        if not trace:
            sampler.sample(record=False)  # proves a fresh interpreter imports this checkout
    except MissingProgram as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    bench = Bench(cli, WORKLOADS[name], seed)
    try:
        with LinalgClock() as clock:  # untimed: the oracle pass; it also warms caches and the heap
            bench.run_pass(clock=clock)
        if trace:
            metrics, samples = _traced(bench, seconds, seed)
        else:
            metrics, samples = _end_to_end(bench, seconds, sampler)
    except MissingProgram as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        bench.close()
    for case, qid, msg in bench.failures:
        print(f"oracle failure: {case} {qid}: {msg}", file=sys.stderr)
    ops_failed = bench.failed / bench.attempted
    detail = {
        "workload": name, "seed": seed, "trace": int(trace), "env": env,
        "scenarios": len(bench.cases), "samples": samples,
        "ops_failed": ops_failed, "setup_samples": sampler.samples,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    for key, value in metrics.items():
        print(f"{key:36s} {value:>16.6g} {_unit(key)}")
    print(f"{'ops_failed':36s} {ops_failed:>16.6g} ratio ({bench.failed}/{bench.attempted})")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process, one after another, as a table."""
    status = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}")
            status = proc.returncode or 1
            continue
        detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[7:])
        rows.append((name, json.loads(lines[-1]), detail))
    for name, result, detail in rows:
        print(f"== {name} (seed {seed}, {detail['scenarios']} scenarios per pass)")
        for key, m in result["metrics"].items():
            n = detail["samples"].get(key, "")
            print(f"  {key:34s} {m['value']:>14.6g} {m['unit']:6s} n={n}")
        print(f"  {'ops_failed':34s} {detail['ops_failed']:>14.6g} ratio  "
              f"n={result['attempted']} ({result['failed']} failed)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
