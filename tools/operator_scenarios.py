"""Write seeded random invariant-operator scenarios, for report parity checks.

    python3 tools/operator_scenarios.py SEED COUNT DIR

Writes COUNT scenarios to DIR (made if missing), named SEED-INDEX.scn.  The
same SEED and COUNT always write the same files.  Each scenario holds one
operator on a `circle 1`..`circle 4` or `graph-path 1`..`graph-path 6` base
with n = 1..3 flat directions.  Its terms have decimal coefficients and
j <= 1, and each axis is raised to even powers only or to an odd power; in
a quarter of the scenarios one axis is raised to no power.  Then come one
`parametric-invertible`, one `observable-spectrum` and one
`parametric-spectrum` query, at resolution 0, 1e-9 or 1e-3.  Grids are
small enough for a scenario to run well under a second; some n = 1 grids
have step 1e-170, where every square underflows.

An operator with an axis that no term mentions is not elliptic, so its
`parametric-spectrum` query exits with code 5 and the run prints no report.
Feed the files to tools/report_parity.py to compare two source trees.
Stdlib only.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

STEPS = ("1/8", "1/16", "1/32", "1/64", "0.1", "0.05", "0.25")
WINDOWS = ("0.5", "1", "1.5", "2", "3", "4")
MAX_POINTS = {1: 1025, 2: 65, 3: 17}  # per axis, so the product stays small
RESOLUTIONS = ("0", "1e-9", "1e-3")


def _decimal(rng: random.Random, positive: bool = False) -> str:
    """A nonzero two-place decimal in [-4, 4], or in (0, 4] when positive."""
    value = rng.randint(1, 400) * (1 if positive else rng.choice((-1, 1)))
    return f"{value / 100:.2f}"


def _grid(rng: random.Random, n: int, tiny: bool) -> str:
    if tiny:
        return f"    window: {rng.choice(('1e-169', '1e-168', '1e-167'))}\n    step: 1e-170\n"
    step = rng.choice(STEPS)
    num, _, den = step.partition("/")
    size = float(num) / float(den or 1)
    windows = [w for w in WINDOWS if 2 * round(float(w) / size) + 1 <= MAX_POINTS[n]]
    return f"    window: {rng.choice(windows) if windows else step}\n    step: {step}\n"


def _terms(rng: random.Random, graph: bool, n: int) -> list[str]:
    """Term lines: per axis even, odd or no exponents; order 4 only on some graphs."""
    top = 4 if graph and rng.random() < 0.3 else 2
    terms = {}

    def put(j: int, exponents: dict, positive: bool = False):
        alpha = tuple(exponents.get(i, 0) for i in range(n))
        terms[(j, alpha)] = _decimal(rng, positive)

    put(1, {}, positive=top == 2)
    kinds = [rng.choice(("even", "odd")) for _ in range(n)]
    if rng.random() < 0.25:
        kinds[rng.randrange(n)] = "none"
    odd = []
    for i, kind in enumerate(kinds):
        if kind == "none":
            continue
        put(0, {i: top}, positive=True)
        if kind == "odd":
            odd.append(i)
            put(0, {i: rng.choice((1, 3) if top == 4 else (1,))})
        elif top == 4 and rng.random() < 0.5:
            put(0, {i: 2})
    if top == 4 and odd and rng.random() < 0.5:
        put(1, {rng.choice(odd): 1})
    if rng.random() < 0.8:
        put(0, {})
    return [
        f"    term {j} {' '.join(map(str, alpha))}: {c}" for (j, alpha), c in terms.items()
    ]


def scenario(rng: random.Random, name: str) -> str:
    """The text of one scenario, drawn from rng."""
    graph = rng.random() < 0.5
    base = f"graph-path {rng.randint(1, 6)}" if graph else f"circle {rng.randint(1, 4)}"
    n = rng.randint(1, 3)
    tiny = n == 1 and rng.random() < 0.5
    lines = [
        "scenario-version: 1",
        f"label: {name}",
        "",
        "operators:",
        "  - id: op",
        f"    base: {base}",
        f"    directions: {n}",
        *_terms(rng, graph, n),
        "",
        "queries:",
    ]
    text = "\n".join(lines) + "\n"
    for kind in ("parametric-invertible", "observable-spectrum", "parametric-spectrum"):
        text += f"  - id: {kind}\n    kind: {kind}\n    operator: op\n"
        text += _grid(rng, n, tiny) + f"    resolution: {rng.choice(RESOLUTIONS)}\n"
    return text


def main(argv: list[str]) -> int:
    if len(argv) != 3 or not all(a.isdigit() for a in argv[:2]):
        print("usage: python3 tools/operator_scenarios.py SEED COUNT DIR", file=sys.stderr)
        return 2
    seed, count, out = int(argv[0]), int(argv[1]), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    for index in range(count):
        name = f"{seed}-{index:03d}"
        (out / f"{name}.scn").write_text(scenario(rng, name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
