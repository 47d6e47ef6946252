"""Time the certify scenario's parse, run and report in process, at three grid sizes, in two source trees.

    python3 tools/certify_scale.py BASE_SRC SRC [SEED]

BASE_SRC and SRC are directories that hold a `specfam` package, such as the
`src` directory of two checkouts.  The scenarios are the benchmark's own
certify-interval scenario (`_certify_case` in perfbench/workloads.py, read
only) at 128, 2048 and 8192 grid steps with coarse stride 2, generated once
from SEED (default 9302).  Each measurement runs in a fresh interpreter
whose import path and working directory are one tree: it runs the scenario
once untimed, then times `parse_scenario`, `run_scenario` and
`report_text` of one more pass with time.perf_counter.  The two trees
alternate, size by size, for 5 rounds, and the table gives the best of the
5 for each phase, with the change's parse plus run as a share of the base's.
BLAS runs single-threaded in every child.

The times are informational: the exit status is 0 whatever they are, 1 when
a child fails, and 2 when an argument is not a source tree.  Stdlib only.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

STEPS = (128, 2048, 8192)
ROUNDS = 5
PHASES = ("parse", "run", "report")

# runs in each child: one untimed pass, then one timed pass of each phase
CHILD = """
import json, sys, time
from specfam.scenario import parse_scenario, report_text, run_scenario
text = sys.stdin.read()
report_text(run_scenario(parse_scenario(text)))
t0 = time.perf_counter()
scenario = parse_scenario(text)
t1 = time.perf_counter()
report = run_scenario(scenario)
t2 = time.perf_counter()
report_text(report)
t3 = time.perf_counter()
print(json.dumps({"parse": t1 - t0, "run": t2 - t1, "report": t3 - t2}))
"""


def scenarios(seed: int) -> dict[int, str]:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import _certify_case

    rng = random.Random(f"certify-scale:{seed}")
    return {steps: _certify_case(rng, 0, steps, 2).text for steps in STEPS}


def timed(tree: Path, text: str) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(tree), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], input=text, cwd=tree, env=env, capture_output=True, text=True
    )
    if proc.returncode:
        sys.exit(f"child failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3) or not all((Path(t) / "specfam").is_dir() for t in argv[:2]):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trees = {"base": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    texts = scenarios(int(argv[2]) if len(argv) == 3 else 9302)
    best: dict = {}
    for _ in range(ROUNDS):
        for steps, text in texts.items():
            for name, tree in trees.items():
                for phase, seconds in timed(tree, text).items():
                    key = (name, steps, phase)
                    best[key] = min(best.get(key, seconds), seconds)
    print(f"{'steps':>6} {'tree':<7}" + "".join(f"{p + ' ms':>11}" for p in PHASES) + "  parse+run vs base")
    for steps in STEPS:
        base = best["base", steps, "parse"] + best["base", steps, "run"]
        for name in trees:
            cells = "".join(f"{best[name, steps, p] * 1e3:11.2f}" for p in PHASES)
            share = (best[name, steps, "parse"] + best[name, steps, "run"]) / base
            print(f"{steps:>6} {name:<7}{cells}  {share:7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
