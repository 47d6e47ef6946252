"""Compare the `specfam run` reports of two source trees, scenario by scenario.

    python3 tools/report_parity.py OLD_SRC NEW_SRC SCENARIO...

OLD_SRC and NEW_SRC are directories that hold a `specfam` package, such as
the `src` directory of two checkouts.  Each scenario runs once per tree, in a
fresh interpreter whose import path and working directory are that tree, and
the report it writes to stdout is hashed.  BLAS runs single-threaded in
every child (OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1): the last bits of a
large complex section's SVD depend on the BLAS thread count, and a verdict
that depended on the machine's core count would show nothing.  One line per
scenario gives the old and the new sha256, "same" or "DIFFERENT", and the
scenario path; a pair also differs when the exit codes differ, which the
line then shows.
When both outputs of a DIFFERENT pair are JSON reports, an indented line
under it names the ids of the queries whose results differ and the largest
absolute and the largest relative difference between their numbers, place
by place; the relative difference of old and new is |old - new| /
max(|old|, |new|), and 0 when they are equal.  Two `points` lists of
different lengths count as their Hausdorff distance, as sets of complex
points, and relatively as that distance over the largest modulus among
their points; a difference in anything else (a flag, a text, another
list's length, a key) counts as inf, absolutely and relatively.

A report of the new tree must also be strict JSON, as the README's report
contract says: when it holds NaN, Infinity or -Infinity, an indented line
under its scenario's line says so and names the scenario.  And a run of the
new tree that exits 0 must write nothing to stderr, since a report printed
with warnings (a numpy overflow, say) came from inf or NaN on the way: an
indented line under the scenario's line shows the first stderr line.  A
run of the new tree must not exit 1: the README's exit-code table has no
exit 1, so that code means an uncaught traceback, and an indented line
under the scenario's line names the scenario.

Exit status: 0 when every report is byte-identical, every new report is
strict JSON, every new run that exits 0 leaves stderr empty and no new run
exits 1; 1 on any difference, on a new report that is not strict JSON, on
a new run that exits 0 with stderr output or on a new run that exits 1; 2
when an argument is not a source tree or a scenario file.  Stdlib only.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path


def _run(src: Path, scenario: Path) -> tuple[bytes, int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "specfam.cli", "run", str(scenario)],
        cwd=src, env=env, capture_output=True, check=False,
    )
    return proc.stdout, proc.returncode, proc.stderr


def _hausdorff(a: list, b: list) -> float:
    """Hausdorff distance between two lists of [re, im] points; inf if one is empty."""
    a, b = ([complex(*p) for p in points] for points in (a, b))
    if not (a and b):
        return math.inf
    worst = 0.0
    for here, there in ((a, b), (b, a)):
        there = sorted(there, key=lambda z: z.real)
        keys = [z.real for z in there]
        for z in here:  # the nearest point lies within the best distance in real part
            best, i = math.inf, bisect.bisect_left(keys, z.real)
            for j in range(i, len(there)):
                if keys[j] - z.real >= best:
                    break
                best = min(best, abs(z - there[j]))
            for j in range(i - 1, -1, -1):
                if z.real - keys[j] >= best:
                    break
                best = min(best, abs(z - there[j]))
            worst = max(worst, best)
    return worst


def _relative(gap: float, scale: float) -> float:
    return gap / scale if gap else 0.0


def _gaps(a, b, key: str | None = None) -> list[tuple[float, float]]:
    """(absolute, relative) gaps of the numbers at matching places of two JSON values under key."""
    if type(a) in (int, float) and type(b) in (int, float):  # not bool
        return [(abs(a - b), _relative(abs(a - b), max(abs(a), abs(b))))]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [g for x, y in zip(a, b) for g in _gaps(x, y)]
    if isinstance(a, list) and isinstance(b, list) and key == "points":
        try:
            gap = _hausdorff(a, b)
            return [(gap, _relative(gap, max(abs(complex(*p)) for p in a + b)))]
        except TypeError:  # not lists of [re, im] pairs
            return [(math.inf, math.inf)]
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [g for k in a for g in _gaps(a[k], b[k], k)]
    return [] if a == b else [(math.inf, math.inf)]


def _detail(old: bytes, new: bytes) -> str | None:
    """The differing query ids and their largest gaps; None unless both are JSON reports."""
    try:
        old_q, new_q = ({r["id"]: r for r in json.loads(out)["results"]} for out in (old, new))
    except (ValueError, KeyError, TypeError):
        return None
    ids = [q for q in dict.fromkeys([*old_q, *new_q]) if old_q.get(q) != new_q.get(q)]
    gaps = [g for q in ids for g in _gaps(old_q.get(q), new_q.get(q))]
    absolute = max((g for g, _r in gaps), default=0.0)
    relative = max((r for _g, r in gaps), default=0.0)
    return (
        f"    queries {', '.join(ids) or '(none)'}: largest absolute difference {absolute:.3g}, "
        f"largest relative difference {relative:.3g}"
    )


def _non_strict(out: bytes) -> bool:
    """True when the output is JSON only by way of NaN, Infinity or -Infinity."""
    constants: list[str] = []
    try:
        json.loads(out, parse_constant=constants.append)
    except ValueError:
        return False
    return bool(constants)


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv[:2])
    scenarios = [Path(a).resolve() for a in argv[2:]]
    for tree in (old, new):
        if not (tree / "specfam" / "__init__.py").is_file():
            print(f"not a source tree (no specfam package): {tree}", file=sys.stderr)
            return 2
    for scn in scenarios:
        if not scn.is_file():
            print(f"no such scenario file: {scn}", file=sys.stderr)
            return 2
    status = 0
    for scn in scenarios:
        (old_out, old_code, _), (new_out, new_code, new_err) = _run(old, scn), _run(new, scn)
        old_sha, new_sha = (hashlib.sha256(out).hexdigest() for out in (old_out, new_out))
        same = old_sha == new_sha and old_code == new_code
        codes = "" if old_code == new_code == 0 else f" exit {old_code}/{new_code}"
        print(f"{old_sha}  {new_sha}  {'same' if same else 'DIFFERENT'}{codes}  {scn}")
        detail = None if same else _detail(old_out, new_out)
        if detail is not None:
            print(detail)
        loose = _non_strict(new_out)
        if loose:
            print(f"    new report is not strict JSON (NaN or Infinity): {scn}")
        noisy = new_code == 0 and new_err != b""
        if noisy:
            first = new_err.decode("utf-8", "replace").splitlines()[0]
            print(f"    new run exited 0 but wrote to stderr: {first}")
        crashed = new_code == 1
        if crashed:
            print(f"    new run exited 1 (an uncaught traceback): {scn}")
        status = 1 if loose or noisy or crashed or not same else status
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
