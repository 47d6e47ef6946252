"""Compare the `specfam run` reports of two source trees, scenario by scenario.

    python3 tools/report_parity.py OLD_SRC NEW_SRC SCENARIO...

OLD_SRC and NEW_SRC are directories that hold a `specfam` package, such as
the `src` directory of two checkouts.  Each scenario runs once per tree, in a
fresh interpreter whose import path and working directory are that tree, and
the report it writes to stdout is hashed.  One line per scenario gives the
old and the new sha256, "same" or "DIFFERENT", and the scenario path; a
pair also differs when the exit codes differ, which the line then shows.

Exit status: 0 when every report is byte-identical, 1 on any difference,
2 when an argument is not a source tree or a scenario file.  Stdlib only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path


def _run(src: Path, scenario: Path) -> tuple[str, int]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "specfam.cli", "run", str(scenario)],
        cwd=src, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        check=False,
    )
    return hashlib.sha256(proc.stdout).hexdigest(), proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: report_parity.py OLD_SRC NEW_SRC SCENARIO...", file=sys.stderr)
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
        (old_sha, old_code), (new_sha, new_code) = _run(old, scn), _run(new, scn)
        same = old_sha == new_sha and old_code == new_code
        codes = "" if old_code == new_code == 0 else f" exit {old_code}/{new_code}"
        print(f"{old_sha}  {new_sha}  {'same' if same else 'DIFFERENT'}{codes}  {scn}")
        status = status if same else 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
