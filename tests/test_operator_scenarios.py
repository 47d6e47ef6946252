"""tools/operator_scenarios.py: seeded random invariant-operator scenarios."""

import subprocess
import sys
from pathlib import Path

from specfam.parametric import CircleBase, InvariantOperator
from specfam.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "operator_scenarios.py"
KINDS = ["parametric-invertible", "observable-spectrum", "parametric-spectrum"]


def _write(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        capture_output=True, text=True, timeout=60, check=False,
    )


def test_twenty_scenarios_parse_with_one_query_of_each_kind(tmp_path):
    assert _write(2026, 20, tmp_path / "a").returncode == 0
    paths = sorted((tmp_path / "a").glob("*.scn"))
    assert [p.name for p in paths] == [f"2026-{i:03d}.scn" for i in range(20)]
    parities = set()
    for path in paths:
        scenario = load_scenario(str(path))
        [op] = scenario.operators.values()
        assert isinstance(op, InvariantOperator) and 1 <= op.n <= 3
        assert all(j <= 1 and c.imag == 0 for (j, _alpha), c in op.terms)
        circle = isinstance(op.base, CircleBase)
        assert 1 <= (op.base.cutoff if circle else op.base.dim) <= (4 if circle else 6)
        assert [q.kind for q in scenario.queries] == KINDS
        for i in range(op.n):
            exponents = {alpha[i] for (_j, alpha), _c in op.terms} - {0}
            odd = any(a % 2 for a in exponents)
            parities.add("odd" if odd else "even" if exponents else "none")
    assert parities == {"even", "odd", "none"}
    assert any("step: 1e-170" in p.read_text() for p in paths)  # squares underflow
    # the same seed writes the same bytes
    assert _write(2026, 20, tmp_path / "b").returncode == 0
    assert [p.read_bytes() for p in paths] == [
        p.read_bytes() for p in sorted((tmp_path / "b").glob("*.scn"))
    ]


def test_a_bad_argument_list_exits_2(tmp_path):
    for args in ((), (1, 2), ("x", 2, tmp_path), (1, "-2", tmp_path)):
        proc = _write(*args)
        assert proc.returncode == 2 and proc.stderr.startswith("usage:")
