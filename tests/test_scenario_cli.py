"""Scenario files, report determinism, and the command line front end."""

import ast
import gc
import inspect
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from specfam import families as families_module
from specfam import parametric as parametric_module
from specfam import scenario as scenario_module
from specfam.cli import _build_parser, main
from specfam.errors import IncompatibleModel, IncompatibleQuery, ParseError
from specfam.gallery import FAMILY_GENERATORS, MODEL_NAMES, build_model
from specfam.scenario import (
    QUERY_KINDS,
    dump_spectrum_csv,
    load_scenario,
    parse_scenario,
    report_text,
    run_scenario,
)
from specfam.spectral import SpectrumSet
from util import as_json_lists, point_pairs

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PARITY = Path(__file__).resolve().parent / "parity"
FIXTURES = [
    "matrix-counterexample.scn",
    "toeplitz-fredholm.scn",
    "laplacian-line.scn",
    "observable-interval.scn",
    "empty.scn",
]

MINIMAL = """\
scenario-version: 1
label: minimal

model:
  name: interval-scalar
  step: 1/16

elements:
  - id: ramp
    kind: matrix-poly
    entry 0 0: 0 1

families:
  - id: grid
    generator: eval-grid

queries:
  - id: n
    kind: norm
    family: grid
    element: ramp
"""


_OPERATOR = """operators:
  - id: lap
    base: {base}
    directions: 1
    term {term}: 1

queries:"""


# the bare Laplacian on circle x line: elliptic, not invertible at the zero fiber
_LAPLACIAN = _OPERATOR.format(base="circle 4", term="1 0: 1\n    term 0 2")


# the 2x2 model with a diagonal constraint at 1, where `add-block: 1 0` acts
_MATRIX = {"name: interval-scalar\n  step: 1/16": "name: interval-matrix\n  step: 1/8"}


def _line_of(text: str, needle: str) -> int:
    return text.splitlines().index(needle) + 1


def _operator_query(operator: str, kind: str, fields: str) -> dict:
    """Edits that add the operator section and a query `pi` of this kind on `lap`."""
    return {
        "queries:": operator,
        "    element: ramp\n": f"    element: ramp\n  - id: pi\n    kind: {kind}\n"
        f"    operator: lap\n{fields}",
    }


# circle 2 x R^2 with terms L and lam1 lam2: every power is finite at 1e160, their product is not
_PRODUCT = _OPERATOR.format(base="circle 2", term="1 0 0: 1\n    term 0 1 1").replace(
    "directions: 1", "directions: 2"
)
# the coefficients alone overflow a fiber entry: 1e308 k^2 + lam^2 + 1e308
_HUGE = _OPERATOR.format(base="circle 2", term="1 0: 1e308\n    term 0 0: 1e308\n    term 0 2")


# ---------------------------------------------------------------------------
# parsing


def test_minimal_scenario_parses():
    scenario = parse_scenario(MINIMAL)
    assert scenario.label == "minimal"
    assert set(scenario.elements) == {"ramp"}
    assert set(scenario.families) == {"grid"}
    assert [q.kind for q in scenario.queries] == ["norm"]


def test_parse_checks_each_family_member_once(monkeypatch):
    # the scenario's label goes to build_family, so no second family is built;
    # each family checks and lays out its members in one _layout pass
    calls = []
    real = families_module._layout
    monkeypatch.setattr(
        families_module, "_layout", lambda members, model: calls.append(members) or real(members, model)
    )
    extra = "generator: eval-grid\n  - id: prims\n    generator: prim-all"
    scenario = parse_scenario(MINIMAL.replace("generator: eval-grid", extra))
    assert [f.label for f in scenario.families.values()] == ["grid", "prims"]
    assert calls == [f.members for f in scenario.families.values()]
    assert sum(map(len, calls)) == 34


def test_fraction_step_expands_grid():
    scenario = parse_scenario(MINIMAL)
    grid = scenario.model.space.sample_grid
    assert len(grid) == 17
    assert grid[1] == pytest.approx(1 / 16)


def test_version_header_must_come_first():
    with pytest.raises(ParseError) as exc:
        parse_scenario("label: x\nscenario-version: 1\n")
    assert "scenario-version" in str(exc.value)


def test_unsupported_version_rejected():
    with pytest.raises(ParseError):
        parse_scenario("scenario-version: 2\nlabel: x\n")


def test_empty_text_rejected():
    with pytest.raises(ParseError):
        parse_scenario("")


def test_tab_indentation_rejected_with_line():
    text = "scenario-version: 1\nlabel: x\n\nmodel:\n\tname: discrete\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert exc.value.line == 5
    assert "tab" in str(exc.value)


def test_odd_indentation_rejected_with_line():
    text = "scenario-version: 1\nlabel: x\n\nmodel:\n   name: discrete\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert exc.value.line == 5


def test_bad_number_reports_its_line():
    text = MINIMAL.replace("step: 1/16", "step: fast")
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert exc.value.line == _line_of(text, "  step: fast")
    assert "bad number" in str(exc.value)


def test_zero_denominator_is_a_parse_error():
    text = MINIMAL.replace("step: 1/16", "step: 1/0")
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert "bad fraction" in str(exc.value)


def test_duplicate_element_id_rejected():
    extra = "  - id: ramp\n    kind: matrix-poly\n    entry 0 0: 2\n"
    text = MINIMAL.replace("families:", extra + "\nfamilies:")
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert "duplicate element id" in str(exc.value)


_TOEPLITZ = {
    "name: interval-scalar\n  step: 1/16": "name: toeplitz\n  theta-count: 8",
    "kind: matrix-poly\n    entry 0 0: 0 1": "kind: toeplitz\n    c 1: 1\n    corr 0 1: 1",
    "generator: eval-grid": "generator: toeplitz-chars",
}


@pytest.mark.parametrize(
    "edits, culprit",
    [
        ({"entry 0 0: 0 1": "entry 0 0: 0 1\n    entry 00 0: 7"}, "    entry 00 0: 7"),
        ({**_TOEPLITZ, "c 1: 1": "c 1: 1\n    c +1: 5"}, "    c +1: 5"),
        ({**_TOEPLITZ, "corr 0 1: 1": "corr 0 1: 1\n    corr 0 01: 2"}, "    corr 0 01: 2"),
        (
            {"queries:": _OPERATOR.format(base="circle 4", term="0 2: 1\n    term 0 +2")},
            "    term 0 +2: 1",
        ),
    ],
    ids=["entry", "c", "corr", "term"],
)
def test_indexed_keys_naming_one_entry_are_a_duplicate(tmp_path, capsys, edits, culprit):
    # the keys are compared by their integers, so the later line cannot silently win
    text = MINIMAL
    for old, new in edits.items():
        text = text.replace(old, new)
    path = tmp_path / "dup.scn"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    key = culprit.split(":")[0].strip()
    assert err.startswith(f"parse error: line {_line_of(text, culprit)}, column 1: key {key!r} repeats")


def test_unknown_top_level_section_rejected():
    text = MINIMAL + "\nplots:\n  - id: p\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert "unknown top-level section" in str(exc.value)


def test_unknown_query_kind_rejected():
    text = MINIMAL.replace("kind: norm", "kind: eigenbasis")
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert "unknown query kind" in str(exc.value)


def test_element_under_toeplitz_model_must_be_toeplitz():
    text = MINIMAL.replace(
        "  name: interval-scalar\n  step: 1/16",
        "  name: toeplitz\n  theta-count: 8",
    )
    with pytest.raises(IncompatibleModel):
        parse_scenario(text)


def test_fixtures_all_parse():
    for name in FIXTURES:
        scenario = load_scenario(str(SCENARIOS / name))
        assert scenario.label == name.removesuffix(".scn")


def test_operators_on_one_declared_base_share_it_within_a_scenario(monkeypatch):
    # graph-invertible has three operators on graph-path 5: they share one
    # base, so its Laplacian takes one eigvalsh for the whole scenario; a
    # second parse builds its own base, so nothing is kept across scenarios
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    text = (PARITY / "graph-invertible.scn").read_text()
    scenario = parse_scenario(text)
    report = report_text(run_scenario(scenario))
    bases = {id(op.base) for op in scenario.operators.values()}
    assert len(scenario.operators) == 3 and len(bases) == 1
    assert calls == [(5, 5)]
    again = parse_scenario(text)
    assert {id(op.base) for op in again.operators.values()}.isdisjoint(bases)
    assert report_text(run_scenario(again)) == report and calls == [(5, 5)] * 2
    circle = parse_scenario(
        "scenario-version: 1\noperators:\n"
        + "".join(f"  - id: {i}\n    base: circle {k}\n    directions: 1\n    term 1 0: 1\n"
                  for i, k in (("a", 2), ("b", 3), ("c", 2)))
    ).operators
    assert circle["a"].base is circle["c"].base is not circle["b"].base


# ---------------------------------------------------------------------------
# report shape and determinism


def test_report_shape_and_stable_bytes():
    scenario = load_scenario(str(SCENARIOS / "matrix-counterexample.scn"))
    first = report_text(run_scenario(scenario))
    second = report_text(run_scenario(scenario))
    assert first == second
    assert first.endswith("\n")
    data = json.loads(first)
    assert data["label"] == "matrix-counterexample"
    assert data["timing"] is None
    assert [r["id"] for r in data["results"]] == [
        "report-dropped",
        "report-full",
        "paradox",
        "honest",
        "norm-f",
        "spectrum-f",
    ]


def _generated_reports():
    """Smoke-size reports of every benchmark workload, generated from a fixed seed."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    return [
        run_scenario(parse_scenario(case.text))
        for workload in WORKLOADS.values()
        for case in workload.generate(2026, smoke=True)
    ]


_ODD_REPORTS = [
    {"esc\"ape\\\n\t\u0001": "caf\u00e9 \u2603 \ud83d\ude00", "\u00fcber": [], "z": {}, "a": None},
    {"ints": [[1, 2.0], [3.0, 4.0]], "bools": [[True, 1.0]], "nested": [[[1.0]]]},
    {"empty-inner": [[]], "one-empty": [[1.0], []], "uneven": [[1.0, 2.0, 3.0], [4.0]]},
    {"special": [[float("nan"), float("inf")], [-float("inf"), -0.0]], "x": [-0.0, 1e-300]},
    {"tuples": ((1.0, 2.0), [3.0]), "mixed": [[0.5, 1.5], (2.5, 3.5)], "deep": {"p": [[1e300]]}},
    [], {}, [[1.0]], 1.5, "text", [{"a": [[2.0, -3.0]]}, [[]], []],
    # points arrays, as SpectrumSet.as_dict puts them in a report
    {"empty": np.zeros(0), "empty-complex": np.zeros(0, dtype=complex), "one": np.array([2.5])},
    {"edges": np.array([-0.0, 1e-300, 1e-05, 1e16, -1e16]), "deep": [{"p": np.array([0.5, 1.5])}]},
    {"complex": np.array([-1.0j, -0.0 - 0.0j, 1e-300 + 1e16j, 2.0 + 0.0j])},
    {"nonfinite": np.array([np.nan, np.inf, -np.inf, 1.0])},
    {"nonfinite-complex": np.array([complex(np.nan, np.inf), complex(-np.inf, -0.0), 1.0j])},
    np.array([3.0, 4.0]),
]


def test_report_text_is_json_dumps_with_indent_2():
    # the reference writes each points array as the [[re, im], ...] list of floats
    reports = [run_scenario(load_scenario(str(SCENARIOS / name))) for name in FIXTURES]
    reports += _generated_reports() + _ODD_REPORTS
    for report in reports:
        want = json.dumps(as_json_lists(report), sort_keys=True, indent=2) + "\n"
        assert report_text(report) == want


def test_report_text_leaves_no_reference_cycle():
    # its recursive writer is a closure that refers to itself; left bound,
    # it kept every text part of the report alive until a cyclic GC pass
    report = run_scenario(load_scenario(str(SCENARIOS / "laplacian-line.scn")))
    gc.collect()
    gc.disable()
    try:
        report_text(report)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_off_grid_member_does_not_make_a_family_exhausting():
    # one evaluation at 1/2 on the grid {0, 1}: it sees neither grid point,
    # so the family is not exhausting, and the union {2.5} of a with
    # spectrum [2, 3] is only dense in the spectrum, not equal to it
    text = MINIMAL.replace("step: 1/16", "step: 1").replace("entry 0 0: 0 1", "entry 0 0: 2 1")
    text = text.replace("generator: eval-grid", "generator: single\n    at: 0.5")
    text = text.replace("kind: norm", "kind: family-report")
    text += "  - id: inv\n    kind: invertible\n    family: grid\n    element: ramp\n"
    text += "  - id: spec\n    kind: spectrum\n    family: grid\n    element: ramp\n"
    report, inv, spec = (r["result"] for r in run_scenario(parse_scenario(text))["results"])
    assert (report["full"], report["exhausting"], report["faithful"]) == (False, False, True)
    assert report["witnesses"] == {"exhausting": "tent(0)", "faithful": None, "full": "ev(0)"}
    assert inv["exhausting_route"] == {
        "certified": False,
        "reason": "family 'grid' is not exhausting over the probe gallery (witness tent(0))",
    }
    assert point_pairs(spec["points"]) == [[2.5, 0.0]]
    assert spec["contract"] == "closure"


def test_evaluation_at_one_covers_zero_on_the_circle():
    # t = 1 is t = 0 on the circle, so both families cover the same point
    text = MINIMAL.replace("interval-scalar", "circle-scalar").replace("step: 1/16", "step: 1/4")
    text = text.replace("kind: norm", "kind: family-report")
    reports = []
    for at in ("0", "1"):
        single = text.replace("generator: eval-grid", f"generator: single\n    at: {at}")
        (result,) = run_scenario(parse_scenario(single))["results"]
        reports.append(result["result"])
    zero, one = reports
    assert [one[k] for k in ("full", "exhausting", "faithful", "witnesses")] == [
        zero[k] for k in ("full", "exhausting", "faithful", "witnesses")
    ]
    assert zero["witnesses"]["full"] == "ev(0.25)"


def test_timing_present_only_when_requested():
    scenario = load_scenario(str(SCENARIOS / "empty.scn"))
    timed = run_scenario(scenario, with_timing=True)
    assert timed["timing"]["seconds"] > 0.0
    assert run_scenario(scenario)["timing"] is None


def test_empty_scenario_reports_no_results():
    scenario = load_scenario(str(SCENARIOS / "empty.scn"))
    assert run_scenario(scenario)["results"] == []


def test_unknown_reference_raises_incompatible_query():
    text = MINIMAL.replace("element: ramp", "element: ghost")
    scenario = parse_scenario(text)
    with pytest.raises(IncompatibleQuery):
        run_scenario(scenario)


# ---------------------------------------------------------------------------
# spectrum CSV


def test_dump_spectrum_csv_rows():
    scenario = load_scenario(str(SCENARIOS / "observable-interval.scn"))
    text = dump_spectrum_csv(scenario, "ramp-union")
    lines = text.splitlines()
    assert lines[0] == "re,im,resolution,truncated"
    assert len(lines) == 18
    assert lines[1] == "0.0,0.0,1e-09,false"
    re_parts = [float(row.split(",")[0]) for row in lines[1:]]
    assert re_parts == sorted(re_parts)
    assert re_parts[-1] == pytest.approx(1.0)


CSV_EDGES = """\
scenario-version: 1
model:
  name: discrete
  points: 1
  dim: 3
elements:
  - id: r
    kind: matrix-poly
    entry 0 1: -1e-05
    entry 1 0: 1e-05
    entry 2 2: 1e16
families:
  - id: all
    generator: prim-all
queries:
  - id: spec
    kind: spectrum
    family: all
    element: r
    resolution: 0
"""


@pytest.mark.parametrize("values", [
    None,  # the runner's own complex spectrum: +-1e-05 i and 1e16
    np.array([-0.0, 1e-05, 1e16]),
    np.array([-0.0 - 0.0j, 1e-05 - 1e16j, 1e16 + 1e-05j]),
])
def test_dump_spectrum_csv_rows_are_the_report_points(values, monkeypatch):
    scenario = parse_scenario(CSV_EDGES)
    if values is not None:
        spec = SpectrumSet(values, 0.0).as_dict()
        monkeypatch.setitem(scenario_module._RUNNERS, "spectrum", lambda *_: dict(spec))
    points = json.loads(report_text(run_scenario(scenario)))["results"][0]["result"]["points"]
    rows = dump_spectrum_csv(scenario, "spec").splitlines()
    assert rows[0] == "re,im,resolution,truncated" and len(rows) == 1 + len(points) == 4
    assert [row.split(",") for row in rows[1:]] == [
        [repr(re), repr(im), "0.0", "false"] for re, im in points
    ]
    if values is not None:
        assert points == point_pairs(values)


def test_dump_spectrum_csv_empty_is_header_only():
    scenario = load_scenario(str(SCENARIOS / "observable-interval.scn"))
    assert dump_spectrum_csv(scenario, "empty-spectrum") == "re,im,resolution,truncated\n"


def test_dump_spectrum_rejects_non_spectrum_query():
    scenario = load_scenario(str(SCENARIOS / "matrix-counterexample.scn"))
    with pytest.raises(IncompatibleQuery):
        dump_spectrum_csv(scenario, "norm-f")
    with pytest.raises(IncompatibleQuery):
        dump_spectrum_csv(scenario, "nonexistent")


# ---------------------------------------------------------------------------
# command line


def test_cli_runs_every_fixture(tmp_path):
    for name in FIXTURES:
        out = tmp_path / (name + ".json")
        assert main(["run", str(SCENARIOS / name), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["label"] == name.removesuffix(".scn")


def test_cli_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    path = str(SCENARIOS / "toeplitz-fredholm.scn")
    assert main(["run", path, "--out", str(first)]) == 0
    assert main(["run", path, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_prints_report_to_stdout(capsys):
    assert main(["run", str(SCENARIOS / "empty.scn")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"] == []


def test_cli_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.scn")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("scenario-version: 1\nlabel: x\n\nmodel:\n\tname: discrete\n")
    assert main(["run", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_unknown_model_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(MINIMAL.replace("name: interval-scalar", "name: moebius"))
    assert main(["run", str(bad)]) == 3
    assert "unsupported" in capsys.readouterr().err


def test_cli_unknown_generator_exits_3(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text(MINIMAL.replace("generator: eval-grid", "generator: nosuch"))
    assert main(["run", str(bad)]) == 3


def test_cli_incompatible_element_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    text = MINIMAL.replace("kind: matrix-poly", "kind: toeplitz")
    bad.write_text(text.replace("entry 0 0: 0 1", "c 1: 1"))
    assert main(["run", str(bad)]) == 4
    assert "incompatible" in capsys.readouterr().err


def test_the_shared_parser_carries_no_state_between_calls(tmp_path, capsys):
    scn = str(SCENARIOS / "matrix-counterexample.scn")
    timed = tmp_path / "timed.json"
    assert main(["run", scn, "--timings", "--out", str(timed)]) == 0
    assert json.loads(timed.read_text())["timing"]["seconds"] > 0.0
    written, stamp = timed.read_bytes(), timed.stat().st_mtime_ns
    assert main(["run", scn]) == 0
    plain = capsys.readouterr().out
    assert json.loads(plain)["timing"] is None
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
    assert "usage: specfam" in capsys.readouterr().err
    assert main(["run", scn]) == 0
    assert capsys.readouterr().out == plain
    assert (timed.read_bytes(), timed.stat().st_mtime_ns) == (written, stamp)
    spectrum = SCENARIOS / "observable-interval.scn"
    csv = tmp_path / "ramp.csv"
    assert main(["dump-spectrum", str(spectrum), "ramp-union", str(csv)]) == 0
    assert csv.read_text() == dump_spectrum_csv(load_scenario(str(spectrum)), "ramp-union")
    assert main(["gallery"]) == 0
    assert capsys.readouterr().out == "".join(
        f"{title}:\n" + "".join(f"  {name}\n" for name in names)
        for title, names in (("models", MODEL_NAMES), ("family generators", FAMILY_GENERATORS))
    )


@pytest.mark.parametrize(
    "argv",
    [[], ["run"], ["run", str(SCENARIOS / "empty.scn"), "--bogus"]],
    ids=["no-verb", "run-without-scenario", "unknown-option"],
)
def test_cli_usage_errors_exit_2_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "specfam.cli", *argv], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "usage: specfam" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_run_leaves_no_reference_cycle(tmp_path):
    # a parser built per call would leave about 130 objects of cyclic garbage per run
    args = ["run", str(SCENARIOS / "matrix-counterexample.scn"), "--out", str(tmp_path / "r.json")]
    assert main(args) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(args) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_build_parser_takes_no_arguments_and_returns_one_parser():
    assert inspect.signature(_build_parser).parameters == {}
    assert _build_parser() is _build_parser()


def test_the_benchmark_setup_code_builds_the_parser_in_a_fresh_interpreter():
    run_py = SCENARIOS.parent / "perfbench" / "run.py"
    setup_code = next(
        ast.literal_eval(node.value)
        for node in ast.parse(run_py.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SETUP_CODE"]
    )
    env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", setup_code], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    seconds, path = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seconds > 0.0
    assert Path(path).resolve().parent == SCENARIOS.parent / "src" / "specfam"


@pytest.mark.parametrize(
    "edits, code, kind, culprit",
    [
        ({"generator: eval-grid": "generator: coarse\n    stride: 0"}, 2, "parse error", "    stride: 0"),
        ({"step: 1/16": "step: nan"}, 2, "parse error", "  step: nan"),
        (
            {"interval-scalar": "interval-matrix", "entry 0 0": "entry 5 5"},
            4,
            "incompatible",
            "  - id: ramp",
        ),
        ({"step: 1/16": "step: 2"}, 2, "parse error", "  name: interval-scalar"),
        (
            {"interval-scalar": "interval-matrix\n  dim: 0"},
            2,
            "parse error",
            "  name: interval-matrix",
        ),
        (
            {"queries:": _OPERATOR.format(base="circle 0", term="0 2")},
            2,
            "parse error",
            "  - id: lap",
        ),
        (
            {"queries:": _OPERATOR.format(base="circle 4", term="1 -1")},
            2,
            "parse error",
            "  - id: lap",
        ),
        (
            {
                "queries:": _OPERATOR.format(base="circle 4", term="0 2"),
                "    element: ramp\n": "    element: ramp\n  - id: ps\n"
                "    kind: parametric-spectrum\n    operator: lap\n    step: -1\n",
            },
            2,
            "parse error",
            "  - id: ps",
        ),
        (
            {
                "step: 1/16": "step: 1/4",
                "generator: eval-grid": "generator: eval-grid\n"
                "    exclude-points: 0/4 1/4 2/4 3/4 4/4",
            },
            2,
            "parse error",
            "  - id: grid",
        ),
        (
            {
                "name: interval-scalar\n  step: 1/16": "name: toeplitz\n  theta-count: 16\n"
                "  sections: 8 16",
                "kind: matrix-poly\n    entry 0 0: 0 1": "kind: toeplitz\n    c 0: 1\n    c 1: 1",
                "generator: eval-grid": "generator: toeplitz-chars",
                "kind: norm": "kind: fredholm\n    resolution: -1",
            },
            2,
            "parse error",
            "    resolution: -1",
        ),
        (
            {
                "queries:": _LAPLACIAN,
                "    element: ramp\n": "    element: ramp\n  - id: pi\n"
                "    kind: parametric-invertible\n    operator: lap\n    resolution: -1\n",
            },
            2,
            "parse error",
            "    resolution: -1",
        ),
        (
            {
                "queries:": _LAPLACIAN,
                "    element: ramp\n": "    element: ramp\n  - id: os\n"
                "    kind: observable-spectrum\n    operator: lap\n    resolution: -1\n",
            },
            2,
            "parse error",
            "    resolution: -1",
        ),
        (
            {
                "queries:": _LAPLACIAN,
                "    element: ramp\n": "    element: ramp\n  - id: ps\n"
                "    kind: parametric-spectrum\n    operator: lap\n    resolution: -1\n",
            },
            2,
            "parse error",
            "    resolution: -1",
        ),
        ({"kind: norm": "kind: spectrum\n    resolution: -1"}, 2, "parse error", "    resolution: -1"),
        (
            {
                "queries:": _LAPLACIAN,
                "    element: ramp\n": "    element: ramp\n  - id: pi\n"
                "    kind: parametric-invertible\n    operator: lap\n    delta-dir: -0.1\n",
            },
            2,
            "parse error",
            "    delta-dir: -0.1",
        ),
        (
            {
                "queries:": _LAPLACIAN,
                "    element: ramp\n": "    element: ramp\n  - id: pi\n"
                "    kind: parametric-invertible\n    operator: lap\n    delta-sym: -1e-6\n",
            },
            2,
            "parse error",
            "    delta-sym: -1e-6",
        ),
        ({"kind: norm": "kind: invertible\n    bounds: 0 -2"}, 2, "parse error", "    bounds: 0 -2"),
        (
            {"generator: eval-grid": "generator: eval-grid\n    exclude-points: 1/2 0.3"},
            2,
            "parse error",
            "  - id: grid",
        ),
        ({"label: minimal": "label: minimal\nlabel: again"}, 2, "parse error", "label: again"),
        ({"step: 1/16": "step: 1/16\n  step: 1/8"}, 2, "parse error", "  step: 1/8"),
        (
            {"entry 0 0: 0 1": "entry 0 0: 0 1\n    entry 0  0: 2"},
            2,
            "parse error",
            "    entry 0  0: 2",
        ),
        ({"    kind: norm": "    kind: norm\n    id: m"}, 2, "parse error", "    id: m"),
        (
            {"generator: eval-grid": "generator: eval-grid\n    add-block: 1/2 0"},
            2,
            "parse error",
            "  - id: grid",
        ),
        (
            {"generator: eval-grid": "generator: single\n    at: 2"},
            2,
            "parse error",
            "  - id: grid",
        ),
        (
            {"name: interval-scalar\n  step: 1/16": "name: toeplitz\n  step: 1/8"},
            2,
            "parse error",
            "  name: toeplitz",
        ),
        ({"interval-scalar": "circle-scalar\n  dim: 2"}, 2, "parse error", "  name: circle-scalar"),
        (
            {"generator: eval-grid": "generator: single\n    stride: 2"},
            2,
            "parse error",
            "  - id: grid",
        ),
        (
            {
                "name: interval-scalar\n  step: 1/16": "name: toeplitz",
                "kind: matrix-poly\n    entry 0 0: 0 1": "kind: toeplitz\n    c 0: 1e308\n"
                "    c 1: 1e308\n    c -1: 1e308",
                "generator: eval-grid": "generator: toeplitz-all",
            },
            4,
            "incompatible",
            "  - id: ramp",
        ),
        ({"entry 0 0: 0 1": "entry 0 0: 0 0 1e308"}, 4, "incompatible", "  - id: ramp"),
        (
            {
                "name: interval-scalar": "name: interval-matrix",
                "entry 0 0: 0 1": "entry 0 0: 0 1.5e308\n    entry 1 1: 0 1.5e308",
            },
            4,
            "incompatible",
            "  - id: ramp",
        ),
        (
            {
                "name: interval-scalar\n  step: 1/16": "name: discrete\n  dim: 1",
                "entry 0 0: 0 1": "entry 0 0: " + " ".join(["1"] * 700),
            },
            4,
            "incompatible",
            "  - id: ramp",
        ),
        (
            {
                "name: interval-scalar\n  step: 1/16": "name: toeplitz",
                "kind: matrix-poly\n    entry 0 0: 0 1": "kind: toeplitz\n    c 0: 1e308\n"
                "    c 3: 1e308",
                "generator: eval-grid": "generator: toeplitz-chars",
                "kind: norm": "kind: fredholm",
            },
            4,
            "incompatible",
            "  - id: ramp",
        ),
        (
            {
                "name: interval-scalar\n  step: 1/16": "name: toeplitz",
                "kind: matrix-poly\n    entry 0 0: 0 1": "kind: toeplitz\n    c 0: 1\n"
                "    c 3: 1e308",
                "generator: eval-grid": "generator: toeplitz-chars",
                "kind: norm": "kind: fredholm",
            },
            4,
            "incompatible",
            "  - id: ramp",
        ),
        (
            {
                "name: interval-scalar\n  step: 1/16": "name: discrete\n  dim: 2",
                "entry 0 0: 0 1": "entry 0 0: 1e308\n    entry 0 1: 1e308\n"
                "    entry 1 0: 1e308\n    entry 1 1: 1e308",
                "generator: eval-grid": "generator: prim-all",
            },
            4,
            "incompatible",
            "  - id: ramp",
        ),
        (
            {
                "name: interval-scalar\n  step: 1/16": "name: toeplitz\n  theta-count: 1\n"
                "  sections: 8",
                "kind: matrix-poly\n    entry 0 0: 0 1": "kind: toeplitz\n    c 1: 1e308",
                "generator: eval-grid": "generator: toeplitz-chars",
                "kind: norm": "kind: fredholm",
            },
            4,
            "incompatible",
            "  - id: n",
        ),
        (
            {"queries:": _LAPLACIAN.replace("\n\nqueries:", "\n    trem 0 0: -1\n\nqueries:")},
            2,
            "parse error",
            "    trem 0 0: -1",
        ),
        (
            _operator_query(_LAPLACIAN, "parametric-spectrum", "    windwo: 400\n"),
            2,
            "parse error",
            "    windwo: 400",
        ),
        (
            _operator_query(_LAPLACIAN, "restriction-check", "    resolution: 1e-9\n"),
            2,
            "parse error",
            "    resolution: 1e-9",
        ),
        (
            {
                "name: interval-scalar\n  step: 1/16": "name: toeplitz",
                "kind: matrix-poly\n    entry 0 0: 0 1": "kind: toeplitz\n    c 0: 1\n"
                "    entry 0 0: 1",
                "generator: eval-grid": "generator: toeplitz-chars",
            },
            2,
            "parse error",
            "    entry 0 0: 1",
        ),
        ({"entry 0 0: 0 1": "entry 0 0: 0 1\n    c 0: 1"}, 2, "parse error", "    c 0: 1"),
        ({"step: 1/16": "step: 1/16\n  step 2: 1"}, 2, "parse error", "  step 2: 1"),
        (
            _operator_query(
                _OPERATOR.format(base="circle 2", term="1 0: 1\n    term 0 2: 1\n    term 0 0"),
                "parametric-invertible",
                "    window: 1e200\n    step: 1e199\n",
            ),
            4,
            "incompatible",
            "  - id: pi",
        ),
        (
            _operator_query(_PRODUCT, "parametric-invertible", "    window: 1e160\n    step: 1e159\n"),
            4,
            "incompatible",
            "  - id: pi",
        ),
        (
            _operator_query(_PRODUCT, "observable-spectrum", "    window: 1e160\n    step: 1e159\n"),
            4,
            "incompatible",
            "  - id: pi",
        ),
        (
            _operator_query(_HUGE, "parametric-invertible", "    window: 1\n    step: 1/4\n"),
            4,
            "incompatible",
            "  - id: pi",
        ),
        (
            _operator_query(_HUGE, "observable-spectrum", "    window: 1\n    step: 1/4\n"),
            4,
            "incompatible",
            "  - id: pi",
        ),
        (
            _operator_query(_LAPLACIAN, "parametric-spectrum", "    window: 1e300\n    step: 1e-300\n"),
            2,
            "parse error",
            "  - id: pi",
        ),
        (
            _operator_query(_LAPLACIAN, "parametric-spectrum", "    window: 1\n    step: 1e-6\n"),
            2,
            "parse error",
            "  - id: pi",
        ),
        (
            {**_TOEPLITZ, "corr 0 1: 1": "corr 0 1: 1\n    corr 2 -1: 1"},
            2,
            "parse error",
            "    corr 2 -1: 1",
        ),
        (
            {"queries:": _OPERATOR.format(base="circle 99999999", term="1 0: 1\n    term 0 2")},
            2,
            "parse error",
            "    base: circle 99999999",
        ),
        (
            {"queries:": _OPERATOR.format(base="graph-path 99999999", term="1 0: 1\n    term 0 2")},
            2,
            "parse error",
            "    base: graph-path 99999999",
        ),
        (
            {**_MATRIX, "generator: eval-grid": "generator: eval-grid\n    add-block: 1 0.7"},
            2,
            "parse error",
            "    add-block: 1 0.7",
        ),
        (
            {**_MATRIX, "generator: eval-grid": "generator: eval-grid\n    add-block: 1 -0.5"},
            2,
            "parse error",
            "    add-block: 1 -0.5",
        ),
        (
            {**_TOEPLITZ, "theta-count: 8": "theta-count: 8\n  sections: 8 16.5"},
            2,
            "parse error",
            "  sections: 8 16.5",
        ),
    ],
    ids=[
        "stride-0", "step-nan", "entry-outside-fiber", "model-step-2", "dim-0",
        "circle-0", "term-negative-exponent", "query-step-negative",
        "exclude-every-point", "fredholm-resolution-negative",
        "parametric-invertible-resolution-negative",
        "observable-spectrum-resolution-negative",
        "parametric-spectrum-resolution-negative", "spectrum-resolution-negative",
        "delta-dir-negative", "delta-sym-negative", "bounds-not-positive",
        "exclude-point-off-grid",
        "duplicate-top-level-key", "duplicate-model-key", "duplicate-element-key",
        "duplicate-query-key", "block-without-constraint", "eval-outside-interval",
        "toeplitz-step", "circle-scalar-dim", "single-stride",
        "symbol-norm-overflows", "lipschitz-overflows", "lipschitz-square-overflows",
        "power-overflows", "symbol-margin-overflows", "symbol-slope-overflows",
        "matrix-value-overflows", "fredholm-margin-overflows",
        "operator-unknown-key", "query-unknown-key", "restriction-check-resolution",
        "toeplitz-entry", "matrix-poly-c", "model-indexed-step",
        "lambda-power-overflows", "lambda-product-overflows", "observable-product-overflows",
        "coefficients-overflow", "observable-coefficients-overflow",
        "lambda-axis-overflows", "lambda-axis-too-long", "correction-index-negative",
        "circle-base-too-large", "graph-base-too-large",
        "add-block-fractional-index", "add-block-negative-fractional-index",
        "sections-fractional-size",
    ],
)
def test_cli_malformed_input_exits_without_traceback(tmp_path, capsys, edits, code, kind, culprit):
    text = MINIMAL
    for old, new in edits.items():
        text = text.replace(old, new)
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    assert main(["run", str(bad)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{kind}: line {_line_of(text, culprit)}")
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "option, reason",
    [
        ("generator: single\n    at: 2", "member ev(2) does not act on this model: point 2.0 outside the base space"),
        (
            "generator: eval-grid\n    add-block: 0.5 0",
            "member ev(0.5)[0] does not act on this model: no block constraint at 0.5",
        ),
    ],
    ids=["eval-outside-interval", "block-without-constraint"],
)
def test_cli_names_the_member_that_does_not_act_and_why(tmp_path, capsys, option, reason):
    text = MINIMAL.replace("name: interval-scalar\n  step: 1/16", "name: interval-matrix\n  step: 1/8")
    text = text.replace("generator: eval-grid", option)
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    assert main(["run", str(bad)]) == 2
    line = _line_of(text, "  - id: grid")
    assert capsys.readouterr().err == f"parse error: line {line}, column 1: {reason}\n"


@pytest.mark.parametrize(
    "model, entries",
    [
        ("name: circle-scalar\n  step: 1e-7", "1e+07"),
        ("name: interval-matrix\n  step: 1/300000", "1.2e+06"),
        ("name: interval-scalar\n  step: 1e-320", "inf"),
        ("name: discrete\n  points: 70000\n  dim: 4", "1.12e+06"),
        ("name: toeplitz\n  sections: 8 1025", "1.051e+06"),
        ("name: toeplitz\n  sections: 100000", "1e+10"),
        ("name: toeplitz\n  theta-count: 2000000", "2e+06"),
    ],
    ids=["circle-step", "matrix-step", "step-underflows", "discrete", "section", "huge-section", "thetas"],
)
def test_cli_refuses_an_oversize_model_before_allocating(tmp_path, capsys, model, entries):
    text = MINIMAL.replace("name: interval-scalar\n  step: 1/16", model)
    bad = tmp_path / "big.scn"
    bad.write_text(text)
    tracemalloc.start()
    started = time.perf_counter()
    try:
        assert main(["run", str(bad)]) == 2
        seconds = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 1.0 and peak < 2**20
    err = capsys.readouterr().err
    assert err == (
        f"parse error: line {_line_of(text, '  ' + model.split(chr(10))[0])}, column 1: "
        f"model {model.split()[1]!r} would hold {entries} dense matrix entries, "
        "above the cap of 1048576 (2^20)\n"
    )


@pytest.mark.parametrize(
    "row, entries", [(1500, "2.253e+06"), (10**10, "1e+20")], ids=["corr-1500", "corr-1e10"]
)
def test_cli_refuses_an_oversize_correction_before_allocating(tmp_path, capsys, row, entries):
    culprit = f"    corr {row} 0: 1"
    text = MINIMAL
    for old, new in {**_TOEPLITZ, "corr 0 1: 1": "corr 0 1: 1\n" + culprit}.items():
        text = text.replace(old, new)
    bad = tmp_path / "big.scn"
    bad.write_text(text)
    tracemalloc.start()
    try:
        assert main(["run", str(bad)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"parse error: line {_line_of(text, culprit)}, column 1: the correction would hold "
        f"{entries} dense matrix entries, above the cap of 1048576 (2^20)\n"
    )


@pytest.mark.parametrize(
    "base, dim, entries",
    [
        ("circle 512", 1025, "1.051e+06"),
        ("circle 3000", 6001, "3.601e+07"),
        ("graph-path 1025", 1025, "1.051e+06"),
    ],
)
def test_cli_refuses_an_oversize_base_before_allocating(tmp_path, capsys, base, dim, entries):
    culprit = f"    base: {base}"
    text = MINIMAL.replace("queries:", _OPERATOR.format(base=base, term="1 0: 1\n    term 0 2"))
    bad = tmp_path / "big.scn"
    bad.write_text(text)
    tracemalloc.start()
    try:
        assert main(["run", str(bad)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"parse error: line {_line_of(text, culprit)}, column 1: the base's {dim}x{dim} fibers "
        f"would hold {entries} dense matrix entries, above the cap of 1048576 (2^20)\n"
    )


def test_bases_up_to_the_cap_are_admitted():
    for base, dim in (("circle 511", 1023), ("graph-path 1024", 1024)):
        text = MINIMAL.replace("queries:", _OPERATOR.format(base=base, term="1 0: 1\n    term 0 2"))
        assert parse_scenario(text).operators["lap"].base.dim == dim


def test_models_up_to_the_cap_are_admitted():
    assert build_model("toeplitz", sections=(8, 1024)).section_sizes == (8, 1024)
    assert len(build_model("interval-matrix", step=1 / 1024).space.sample_grid) == 1025
    for name in FIXTURES:
        load_scenario(str(SCENARIOS / name))


def test_bundled_and_parity_scenarios_use_every_declared_query_key():
    # so the report-parity step reads every key of QUERY_KINDS on both trees
    used = {
        (q.kind, p.key)
        for path in [*SCENARIOS.glob("*.scn"), *PARITY.glob("*.scn")]
        for q in load_scenario(str(path)).queries
        for p in q.params
    }
    declared = {(kind, key) for kind, keys in QUERY_KINDS.items() for key in keys}
    assert declared - used == set()


@pytest.mark.parametrize("path", sorted(PARITY.glob("*.scn")), ids=lambda p: p.name)
def test_parity_scenarios_run_clean(path):
    env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "specfam.cli", "run", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads(proc.stdout, parse_constant=lambda c: pytest.fail(f"non-strict JSON: {c}"))
    assert report["label"] == path.stem and report["results"]


def test_cli_non_utf8_scenario_exits_2(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_bytes(MINIMAL.replace("label: minimal", "label: caf\xe9").encode("latin-1"))
    env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "specfam.cli", "run", str(bad)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr == "parse error: line 2, column 11: byte 0xe9 is not UTF-8\n"


def _run_cli(path) -> subprocess.CompletedProcess:
    """`specfam run` in a fresh interpreter, so that numpy's warnings reach stderr."""
    env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
    return subprocess.run(
        [sys.executable, "-m", "specfam.cli", "run", str(path)],
        capture_output=True, text=True, env=env,
    )


_COUNTEREXAMPLE = (SCENARIOS / "matrix-counterexample.scn").read_text()


@pytest.mark.parametrize(
    "scenario, old, new",
    [
        (MINIMAL, "entry 0 0: 0 1", "entry 0 0: 0 1e200"),
        (_COUNTEREXAMPLE, "entry 1 1: 1 -1", "entry 1 1: 1e200 -1e200"),
    ],
    ids=["scalar", "matrix-counterexample"],
)
def test_cli_takes_a_finite_lipschitz_bound_whose_square_overflows(tmp_path, scenario, old, new):
    # the slope 1e200 is finite, though its square is not
    path = tmp_path / "steep.scn"
    path.write_text(scenario.replace(old, new))
    proc = _run_cli(path)
    assert proc.returncode == 0 and proc.stderr == ""
    json.loads(proc.stdout, parse_constant=lambda c: pytest.fail(f"non-strict JSON: {c}"))


def test_cli_refuses_an_overflowing_value_with_one_stderr_line(tmp_path):
    # 1e308 + 1e308 t overflows at t = 1: the element is refused, and numpy warns nothing
    path = tmp_path / "huge.scn"
    path.write_text(_COUNTEREXAMPLE.replace("entry 1 1: 1 -1", "entry 1 1: 1e308 1e308"))
    proc = _run_cli(path)
    assert proc.returncode == 4
    assert proc.stderr == (
        "incompatible: line 13: element 'f' does not fit the model: matrix entries must be finite\n"
    )


def test_cli_unknown_reference_exits_4(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text(MINIMAL.replace("element: ramp", "element: ghost"))
    assert main(["run", str(bad)]) == 4


def test_cli_nonnormal_spectrum_exits_5(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        """\
scenario-version: 1
label: bad

model:
  name: interval-matrix
  step: 1/16

elements:
  - id: jordan
    kind: matrix-poly
    entry 0 1: 1 -1

families:
  - id: grid
    generator: eval-grid

queries:
  - id: spec
    kind: spectrum
    family: grid
    element: jordan
"""
    )
    assert main(["run", str(bad)]) == 5
    assert "NotNormal" in capsys.readouterr().err


@pytest.mark.parametrize(
    "query, code, message",
    [
        ("kind: parametric-spectrum", 5, "NotElliptic: principal symbol degenerates"),
        ("kind: parametric-invertible\n    delta-dir: 2", 4, "the largest |eta| is 1.0"),
    ],
    ids=["not-elliptic", "delta-dir"],
)
def test_parametric_refusals_come_before_the_class_grid(
    tmp_path, capsys, monkeypatch, query, code, message
):
    # on an axis of 800,001 points, the class split would be nearly all of the query's time
    bad = tmp_path / "refused.scn"
    bad.write_text(
        "scenario-version: 1\n"
        "operators:\n  - id: lap\n    base: circle 2\n    directions: 1\n    term 1 0: 1\n"
        f"queries:\n  - id: q\n    {query}\n    operator: lap\n    window: 1\n    step: 1/400000\n"
    )
    assert main(["run", str(bad)]) == code
    err = capsys.readouterr().err
    assert message in err

    def no_class_grid(*_args):
        raise AssertionError("the class grid was built")

    monkeypatch.setattr(parametric_module, "_class_axes", no_class_grid)
    assert main(["run", str(bad)]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("kind", ["observable-spectrum", "spectrum", "norm", "invertible"])
def test_cli_correction_beyond_the_top_section_exits_5(tmp_path, capsys, kind):
    # toeplitz-all puts the section ladder first, and a 9x9 correction fits no section
    text = MINIMAL
    for old, new in {
        "name: interval-scalar\n  step: 1/16": "name: toeplitz\n  theta-count: 8\n  sections: 4 8",
        "kind: matrix-poly\n    entry 0 0: 0 1": "kind: toeplitz\n    c 1: 1\n    corr 8 8: 1",
        "generator: eval-grid": "generator: toeplitz-all",
        "kind: norm": f"kind: {kind}",
    }.items():
        text = text.replace(old, new)
    bad = tmp_path / "big.scn"
    bad.write_text(text)
    assert main(["run", str(bad)]) == 5
    assert "TruncationTooSmall: section size" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entries, code",
    [("entry 0 1: 1e200", 5), ("entry 0 1: 1e200\n    entry 1 0: -1e200", 0)],
    ids=["nilpotent", "normal"],
)
def test_cli_spectrum_whose_commutator_overflows_exits_without_traceback(
    tmp_path, capsys, entries, code
):
    # a*a - aa* of these finite images lies beyond the float range
    bad = tmp_path / "big.scn"
    bad.write_text(
        "scenario-version: 1\n"
        "model:\n  name: discrete\n  dim: 2\n"
        f"elements:\n  - id: a\n    kind: matrix-poly\n    {entries}\n"
        "families:\n  - id: all\n    generator: prim-all\n"
        "queries:\n  - id: spec\n    kind: spectrum\n    family: all\n    element: a\n"
    )
    assert main(["run", str(bad)]) == code
    out, err = capsys.readouterr()
    if code:
        assert err == (
            "numeric failure: NotNormal: commutator norm 1.000e+400 exceeds "
            "1.0e-09 * ||a||^2 = 1.000e+391\n"
        )
        return
    assert err == ""
    points = json.loads(out)["results"][0]["result"]["points"]
    assert len(points) == 2 and points[0][0] == points[1][0] == 0.0
    assert points[0][1] == pytest.approx(-1e200, rel=1e-15)
    assert points[1][1] == pytest.approx(1e200, rel=1e-15)


def test_cli_dump_spectrum_writes_csv(tmp_path):
    out = tmp_path / "ramp.csv"
    path = str(SCENARIOS / "observable-interval.scn")
    assert main(["dump-spectrum", path, "ramp-union", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,resolution,truncated"
    assert len(lines) == 18


def test_cli_dump_spectrum_wrong_kind_exits_4(tmp_path):
    path = str(SCENARIOS / "matrix-counterexample.scn")
    assert main(["dump-spectrum", path, "norm-f", str(tmp_path / "x.csv")]) == 4


@pytest.mark.parametrize("delta_dir", ["1", "2"])
def test_cli_refuses_a_delta_dir_that_leaves_no_symbol_direction(tmp_path, capsys, delta_dir):
    # every swept direction has |eta| <= 1: above that, no symbol check would back a "yes"
    operator = _OPERATOR.format(base="graph-path 4", term="1 0: 1\n    term 0 0: 0.5\n    term 0 2")
    text = (
        f"scenario-version: 1\nlabel: delta-dir\n\n{operator}\n  - id: pi\n"
        f"    kind: parametric-invertible\n    operator: lap\n    delta-dir: {delta_dir}\n"
    )
    path = tmp_path / "delta-dir.scn"
    path.write_text(text)
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    if delta_dir == "1":
        assert code == 0 and captured.err == ""
        result = json.loads(captured.out)["results"][0]["result"]
        assert result["invertible"] and abs(result["min_symbol"] - 1.0) < 1e-12
        return
    assert code == 4 and captured.out == ""
    assert captured.err == (
        f"incompatible: line {_line_of(text, '  - id: pi')}: delta-dir 2.0 leaves no "
        "symbol direction: the largest |eta| is 1.0\n"
    )


def test_cli_gallery_lists_models_and_generators(capsys):
    assert main(["gallery"]) == 0
    out = capsys.readouterr().out
    for name in ("interval-matrix", "toeplitz", "eval-grid", "toeplitz-chars"):
        assert name in out


def test_console_entry_point_runs():
    exe = shutil.which("specfam")
    argv = [exe, "gallery"] if exe else [sys.executable, "-m", "specfam.cli", "gallery"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "family generators:" in proc.stdout
