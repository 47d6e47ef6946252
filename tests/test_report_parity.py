"""tools/report_parity.py: report hashes of two source trees, scenario by scenario."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "report_parity.py"


def _parity(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        capture_output=True, text=True, timeout=300, check=False,
    )


def test_same_tree_gives_identical_reports_for_the_bundled_scenarios():
    scenarios = sorted((ROOT / "scenarios").glob("*.scn"))
    proc = _parity(ROOT / "src", ROOT / "src", *scenarios)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(scenarios) == 5
    for line, scn in zip(lines, scenarios):
        old, new, verdict, path = line.split()
        assert old == new and len(old) == 64
        assert verdict == "same" and path == str(scn)


def _fake_tree(root: Path, report: str, stderr: str = "", crash: bool = False) -> Path:
    pkg = root / "specfam"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    script = f"print({report!r})\n"
    if stderr:
        script = f"import sys\nsys.stderr.write({stderr!r})\n" + script
    if crash:  # an uncaught exception: a traceback on stderr, exit 1
        script += "raise RuntimeError('boom')\n"
    (pkg / "cli.py").write_text(script)
    return root


def test_each_child_runs_blas_single_threaded(tmp_path, monkeypatch):
    scn = tmp_path / "any.scn"
    scn.write_text("scenario-version: 1\n")
    tree = _fake_tree(tmp_path / "tree", "")
    (tree / "specfam" / "cli.py").write_text(
        "import os\nprint(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])\n"
    )
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    proc = _parity(tree, tree, scn)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    old, new, _verdict, _path = proc.stdout.split()
    assert old == new == hashlib.sha256(b"1 1\n").hexdigest()


def test_a_different_report_exits_1(tmp_path):
    scn = tmp_path / "any.scn"
    scn.write_text("scenario-version: 1\n")
    old = _fake_tree(tmp_path / "old", "a")
    new = _fake_tree(tmp_path / "new", "b")
    proc = _parity(old, new, scn)
    assert proc.returncode == 1
    assert proc.stdout.split()[2] == "DIFFERENT"
    assert len(proc.stdout.splitlines()) == 1  # no JSON, no detail line
    assert _parity(old, old, scn).returncode == 0


def _report(**results) -> str:
    return json.dumps(
        {"results": [{"id": q, "kind": "spectrum", "result": r} for q, r in results.items()]}
    )


def test_differing_json_reports_name_the_queries_and_the_largest_gap(tmp_path):
    scn = tmp_path / "any.scn"
    scn.write_text("scenario-version: 1\n")
    same = {"points": [[2.0, 0.0]], "truncated": True}
    old = _fake_tree(
        tmp_path / "old", _report(a={"points": [[1.0, 0.0], [3.0, 0.0]]}, b=same, c=same)
    )
    new = _fake_tree(
        tmp_path / "new", _report(a={"points": [[1.5, 0.0], [3.25, 0.0]]}, b=same, c=same)
    )
    proc = _parity(old, new, scn)
    assert proc.returncode == 1
    first, second = proc.stdout.splitlines()
    assert first.split()[2] == "DIFFERENT"
    # 0.5 between 1.0 and 1.5 is 1/3 of 1.5
    assert second == "    queries a: largest absolute difference 0.5, largest relative difference 0.333"

    # a flag and a list length are not numbers: their gap is inf
    other = _fake_tree(
        tmp_path / "other",
        _report(
            a={"points": [[1.0, 0.0], [3.0, 0.0]]},
            b=dict(same, truncated=False),
            c={"points": []},
        ),
    )
    proc = _parity(old, other, scn)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[1] == (
        "    queries b, c: largest absolute difference inf, largest relative difference inf"
    )


def test_the_largest_relative_gap_is_found_place_by_place(tmp_path):
    scn = tmp_path / "any.scn"
    scn.write_text("scenario-version: 1\n")
    old = _fake_tree(
        tmp_path / "old", _report(a={"norm": 100.0, "sigma": 1e-3, "zero": 0.0}, b={"norm": 2.0})
    )
    # the largest absolute gap (1 in a's norm) is relatively small; a's sigma doubles;
    # b's norm, equal in both trees, counts neither way
    new = _fake_tree(
        tmp_path / "new", _report(a={"norm": 101.0, "sigma": 2e-3, "zero": 0.0}, b={"norm": 2.0})
    )
    proc = _parity(old, new, scn)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[1] == (
        "    queries a: largest absolute difference 1, largest relative difference 0.5"
    )
    # a number leaving 0 differs by its whole size
    tiny = _fake_tree(
        tmp_path / "tiny", _report(a={"norm": 100.0, "sigma": 1e-3, "zero": 1e-300}, b={"norm": 2.0})
    )
    assert _parity(old, tiny, scn).stdout.splitlines()[1] == (
        "    queries a: largest absolute difference 1e-300, largest relative difference 1"
    )


def test_points_lists_of_different_lengths_give_their_hausdorff_distance(tmp_path):
    scn = tmp_path / "any.scn"
    scn.write_text("scenario-version: 1\n")
    old = _fake_tree(tmp_path / "old", _report(a={"points": [[1.0, 0.0], [3.0, 0.0]]}))
    # 1.25 lies 0.25 from 1.0 and 3.0 lies 0.5 from 3.5; the point 0.5i lies 1.118 from 1.0.
    # Relatively, the distance is over the largest modulus among both lists' points
    new = _fake_tree(
        tmp_path / "new", _report(a={"points": [[1.0, 0.0], [1.25, 0.0], [3.5, 0.0]]})
    )
    proc = _parity(old, new, scn)
    assert proc.returncode == 1
    first, second = proc.stdout.splitlines()
    assert first.split()[2] == "DIFFERENT"
    assert second == "    queries a: largest absolute difference 0.5, largest relative difference 0.143"
    far = _fake_tree(tmp_path / "far", _report(a={"points": [[0.0, 0.5], [3.0, 0.0], [3.0, 0.0]]}))
    assert _parity(old, far, scn).stdout.splitlines()[1].endswith(
        "absolute difference 1.12, largest relative difference 0.373"
    )
    # an empty list is at distance inf from any point
    empty = _fake_tree(tmp_path / "empty", _report(a={"points": []}))
    assert _parity(old, empty, scn).stdout.splitlines()[1].endswith(
        "absolute difference inf, largest relative difference inf"
    )


def test_non_json_output_gets_no_detail_line(tmp_path):
    scn = tmp_path / "any.scn"
    scn.write_text("scenario-version: 1\n")
    old = _fake_tree(tmp_path / "old", _report(a={"points": []}))
    new = _fake_tree(tmp_path / "new", "not a report")
    proc = _parity(old, new, scn)
    assert proc.returncode == 1
    assert len(proc.stdout.splitlines()) == 1


def test_a_new_report_with_infinity_exits_1_and_names_the_scenario(tmp_path):
    scn = tmp_path / "any.scn"
    scn.write_text("scenario-version: 1\n")
    loose = _fake_tree(tmp_path / "loose", '{"results": [], "margin": -Infinity}')
    proc = _parity(loose, loose, scn)
    assert proc.returncode == 1
    first, second = proc.stdout.splitlines()
    assert first.split()[2] == "same"
    assert second == f"    new report is not strict JSON (NaN or Infinity): {scn}"
    # only the new tree is held to the contract
    strict = _fake_tree(tmp_path / "strict", _report(a={"points": []}))
    assert _parity(loose, strict, scn).stdout.count("strict JSON") == 0
    assert _parity(strict, loose, scn).stdout.count("strict JSON") == 1


def test_a_new_run_that_exits_0_with_stderr_output_exits_1(tmp_path):
    scn = tmp_path / "any.scn"
    scn.write_text("scenario-version: 1\n")
    report = _report(a={"points": []})
    quiet = _fake_tree(tmp_path / "quiet", report)
    noisy = _fake_tree(
        tmp_path / "noisy", report,
        stderr="x.py:1: RuntimeWarning: overflow encountered in add\n  y = a + b\n",
    )
    proc = _parity(quiet, noisy, scn)
    assert proc.returncode == 1
    first, second = proc.stdout.splitlines()
    assert first.split()[2] == "same"
    assert second == (
        "    new run exited 0 but wrote to stderr: "
        "x.py:1: RuntimeWarning: overflow encountered in add"
    )
    # only the new tree is held to the rule, and a quiet run passes
    assert _parity(noisy, quiet, scn).returncode == 0
    assert _parity(quiet, quiet, scn).returncode == 0


def test_a_new_run_that_exits_1_exits_1_and_names_the_scenario(tmp_path):
    scn = tmp_path / "any.scn"
    scn.write_text("scenario-version: 1\n")
    report = _report(a={"points": []})
    quiet = _fake_tree(tmp_path / "quiet", report)
    crash = _fake_tree(tmp_path / "crash", report, crash=True)
    proc = _parity(quiet, crash, scn)
    assert proc.returncode == 1
    first, *rest = proc.stdout.splitlines()
    assert first.split()[2:5] == ["DIFFERENT", "exit", "0/1"]
    assert rest == [
        # the exit codes differ
        "    queries (none): largest absolute difference 0, largest relative difference 0",
        f"    new run exited 1 (an uncaught traceback): {scn}",
    ]
    # the same crash in both trees is no difference, but still fails
    proc = _parity(crash, crash, scn)
    assert proc.returncode == 1
    first, second = proc.stdout.splitlines()
    assert first.split()[2] == "same"
    assert second == f"    new run exited 1 (an uncaught traceback): {scn}"
    # only the new tree is held to the rule
    assert _parity(crash, quiet, scn).stdout.count("exited 1") == 0


def test_a_missing_tree_or_scenario_exits_2(tmp_path):
    scn = tmp_path / "any.scn"
    scn.write_text("scenario-version: 1\n")
    assert _parity(tmp_path, ROOT / "src", scn).returncode == 2
    assert _parity(ROOT / "src", ROOT / "src", tmp_path / "missing.scn").returncode == 2
