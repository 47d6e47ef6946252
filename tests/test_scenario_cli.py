"""Scenario files, report determinism, and the command line front end."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from specfam.cli import main
from specfam.errors import IncompatibleModel, IncompatibleQuery, ParseError
from specfam.scenario import (
    dump_spectrum_csv,
    load_scenario,
    parse_scenario,
    report_text,
    run_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
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


def _line_of(text: str, needle: str) -> int:
    return text.splitlines().index(needle) + 1


# ---------------------------------------------------------------------------
# parsing


def test_minimal_scenario_parses():
    scenario = parse_scenario(MINIMAL)
    assert scenario.label == "minimal"
    assert set(scenario.elements) == {"ramp"}
    assert set(scenario.families) == {"grid"}
    assert [q.kind for q in scenario.queries] == ["norm"]


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
    assert spec["points"] == [[2.5, 0.0]]
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
        ({"entry 0 0: 0 1": "entry 0 0: 0 1e200"}, 4, "incompatible", "  - id: ramp"),
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
