"""Count the dense solves that `specfam run` makes, scenario by scenario, in two source trees.

    python3 tools/lapack_counts.py OLD_SRC NEW_SRC SCENARIO...

OLD_SRC and NEW_SRC are directories that hold a `specfam` package, such as
the `src` directory of two checkouts.  Each tree runs every scenario in one
fresh interpreter, whose import path and working directory are that tree,
through `specfam.cli.main(["run", scenario, "--out", os.devnull])`, with
np.linalg.svd, eigvalsh and eigh wrapped to count their calls and the
matrices those calls solve (a stack of shape (..., m, n) counts as the
product of its leading dimensions).  One line per scenario gives, for each
routine, calls/matrices of the old tree -> of the new tree; a last line gives
the totals.  BLAS runs single-threaded in every child.

The counts are informational: the exit status is 0 whatever they are, 1
when a child fails to report, and 2 when an argument is not a source tree
or a scenario file.  Stdlib only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROUTINES = ("svd", "eigvalsh", "eigh")

# runs in each child: every scenario in turn, then one JSON line of counts
_CHILD = """
import json, math, os, sys
import numpy as np
from specfam.cli import main

counts = {}
def counted(name, routine):
    def wrapper(a, *args, **kwargs):
        calls, matrices = counts.setdefault(name, [0, 0])
        counts[name] = [calls + 1, matrices + math.prod(np.shape(a)[:-2])]
        return routine(a, *args, **kwargs)
    return wrapper
for name in %r:
    setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
out = {}
for path in sys.argv[1:]:
    counts = {}
    main(["run", path, "--out", os.devnull])
    out[path] = counts
print(json.dumps(out))
""" % (ROUTINES,)


def _counts(src: Path, scenarios: list[Path]) -> dict | None:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *map(str, scenarios)],
        cwd=src, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def _cell(old: list[int], new: list[int]) -> str:
    return f"{old[0]}/{old[1]} -> {new[0]}/{new[1]}"


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv[:2]]
    scenarios = [Path(a).resolve() for a in argv[2:]]
    for tree in trees:
        if not (tree / "specfam" / "__init__.py").is_file():
            print(f"not a source tree: {tree}", file=sys.stderr)
            return 2
    for scn in scenarios:
        if not scn.is_file():
            print(f"not a scenario file: {scn}", file=sys.stderr)
            return 2
    old, new = (_counts(tree, scenarios) for tree in trees)
    if old is None or new is None:
        return 1
    totals = {name: [[0, 0], [0, 0]] for name in ROUTINES}
    for scn in map(str, scenarios):
        cells = []
        for name in ROUTINES:
            pair = [old[scn].get(name, [0, 0]), new[scn].get(name, [0, 0])]
            for total, count in zip(totals[name], pair):
                total[0] += count[0]
                total[1] += count[1]
            cells.append(f"{name} {_cell(*pair)}")
        print(f"{', '.join(cells)}  {scn}")
    print("total: " + ", ".join(f"{name} {_cell(*totals[name])}" for name in ROUTINES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
