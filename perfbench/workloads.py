"""Seeded scenario generators for the three benchmark workloads, with oracles.

Each workload turns a seed into one pass: a list of distinct scenario files
in the `specfam run` format.  The sizes of a pass (grid steps, section
ladders, lambda grids) are fixed per workload; the seed picks coefficients,
symbols, shifts and dropped points, so every seed does about the same work.

Every query has an oracle: either an independent numpy reference computed
from the generator's own parameters, or a verdict the generator fixes by
construction.  `check(case, report)` returns one (query id, message) pair per
query that fails its oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Case:
    """One generated scenario: its file text, its query ids, its parameters."""

    name: str
    text: str
    queries: list[str]
    params: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def _results(report: dict) -> dict:
    return {r["id"]: r["result"] for r in report["results"]}


def _real_points(result: dict) -> np.ndarray:
    pts = np.asarray(result["points"], dtype=float).reshape(-1, 2)
    if pts.size and np.max(np.abs(pts[:, 1])) > 1e-9:
        raise AssertionError("spectrum of a self-adjoint element left the real axis")
    return np.sort(pts[:, 0])


def _directed(a: np.ndarray, b: np.ndarray) -> float:
    """max over sorted a of the distance to sorted b."""
    idx = np.searchsorted(b, a)
    lo = np.clip(idx - 1, 0, len(b) - 1)
    hi = np.clip(idx, 0, len(b) - 1)
    return float(np.max(np.minimum(np.abs(a - b[lo]), np.abs(a - b[hi]))))


def _hausdorff_real(got: np.ndarray, ref: np.ndarray) -> float:
    ref = np.sort(np.asarray(ref, dtype=float).ravel())
    if not got.size or not ref.size:
        return np.inf
    return max(_directed(got, ref), _directed(ref, got))


def _verdicts(result: dict) -> tuple[bool, bool, bool]:
    return result["faithful"], result["exhausting"], result["full"]


class _Checks:
    """Collects oracle failures for one scenario."""

    def __init__(self, report: dict):
        self.results = _results(report)
        self.failures: list[tuple[str, str]] = []

    def run(self, qid: str, fn):
        """Apply one oracle; a missing or malformed result counts as failed."""
        try:
            fn(self.results[qid])
        except (AssertionError, KeyError, TypeError, ValueError, IndexError) as err:
            self.failures.append((qid, f"{type(err).__name__}: {err}"))


def _require(ok: bool, message: str):
    if not ok:
        raise AssertionError(message)


# ---------------------------------------------------------------------------
# certify-interval: 2x2 matrix functions on [0, 1], diagonal at t = 1


CERTIFY_BOUNDS = 7


def _certify_case(rng: random.Random, index: int, steps: int, stride: int) -> Case:
    # f(t) = [[a(t), c(1-t)], [c(1-t), b(t)(1-t)]] with a, b > 1/2 and
    # c^2 < a b: Hermitian, positive definite on [0, 1), singular at t = 1,
    # and its off-diagonal entries vanish exactly at the constrained point.
    a0 = rng.randint(1000, 2000) / 1000
    a1 = rng.randint(-500, 500) / 1000
    b0 = rng.randint(1000, 2000) / 1000
    b1 = rng.randint(-500, 500) / 1000
    c = rng.randint(100, 400) / 1000
    bounds = sorted(
        round(10 ** rng.uniform(0, 6), 3) for _ in range(CERTIFY_BOUNDS)
    )
    b11 = (b0, round(b1 - b0, 3), -b1)
    name = f"certify-{index:02d}-s{steps}"
    text = f"""scenario-version: 1
label: {name}

model:
  name: interval-matrix
  step: 1/{steps}

elements:
  - id: f
    kind: matrix-poly
    entry 0 0: {_fmt(a0)} {_fmt(a1)}
    entry 0 1: {_fmt(c)} {_fmt(-c)}
    entry 1 0: {_fmt(c)} {_fmt(-c)}
    entry 1 1: {' '.join(_fmt(x) for x in b11)}

families:
  - id: drop-endpoint
    generator: eval-grid
    exclude-points: 1
    add-block: 1 0
  - id: everything
    generator: prim-all
  - id: sparse
    generator: coarse
    stride: {stride}

queries:
  - id: report-dropped
    kind: family-report
    family: drop-endpoint
    element: f
  - id: report-full
    kind: family-report
    family: everything
    element: f
  - id: report-sparse
    kind: family-report
    family: sparse
  - id: paradox
    kind: invertible
    family: drop-endpoint
    element: f
    bounds: {' '.join(_fmt(b) for b in bounds)}
  - id: honest
    kind: invertible
    family: everything
    element: f
  - id: norm-f
    kind: norm
    family: everything
    element: f
  - id: spectrum-f
    kind: spectrum
    family: everything
    element: f
    resolution: 1e-9
"""
    params = {
        "steps": steps,
        "entries": {(0, 0): (a0, a1), (0, 1): (c, -c), (1, 0): (c, -c), (1, 1): b11},
        "stride": stride,
        "bounds": bounds,
    }
    queries = [
        "report-dropped", "report-full", "report-sparse",
        "paradox", "honest", "norm-f", "spectrum-f",
    ]
    return Case(name, text, queries, params)


def _certify_values(params: dict) -> tuple[np.ndarray, np.ndarray]:
    """Grid and the element's 2x2 values there, straight from the coefficients."""
    grid = np.arange(params["steps"] + 1) / params["steps"]
    vals = np.zeros((grid.size, 2, 2))
    for (i, j), coeffs in params["entries"].items():
        vals[:, i, j] = np.polynomial.polynomial.polyval(grid, coeffs)
    return grid, vals


def _certify_lipschitz(params: dict) -> float:
    slopes = np.zeros((2, 2))
    for (i, j), coeffs in params["entries"].items():
        slopes[i, j] = sum(abs(c) * k for k, c in enumerate(coeffs) if k >= 1)
    return float(np.linalg.norm(slopes, "fro"))


def check_certify(case: Case, report: dict) -> list[tuple[str, str]]:
    p = case.params
    grid, vals = _certify_values(p)
    h = 1.0 / p["steps"]
    sig = np.linalg.svd(vals, compute_uv=False)
    norms, sigma_mins = sig[:, 0], sig[:, -1]
    threshold = max(1e-10, _certify_lipschitz(p) * h)
    # members of drop-endpoint: every grid point but t = 1, plus block 0 at t = 1
    dropped_sigmas = np.append(sigma_mins[:-1], abs(vals[-1, 0, 0]))
    chk = _Checks(report)

    def report_full(r):
        _require(_verdicts(r) == (True, True, True), f"prim-all verdicts {_verdicts(r)}")
        _require(all(w is None for w in r["witnesses"].values()), "prim-all has a witness")

    def report_dropped(r):
        _require(_verdicts(r) == (True, False, False), f"drop-endpoint verdicts {_verdicts(r)}")
        _require(r["witnesses"]["full"] == "ev(1)[1]", "full witness is not the dropped block")

    def report_sparse(r):
        want = (p["stride"] == 2, False, False)
        _require(_verdicts(r) == want, f"coarse[{p['stride']}] verdicts {_verdicts(r)}")

    def paradox(r):
        _require(r["members_all_invertible"] is True, "a drop-endpoint member is singular")
        _require(
            np.isclose(r["member_min_sigma"], dropped_sigmas.min(), rtol=1e-9, atol=1e-12),
            "member sigma_min differs from the reference",
        )
        _require(r["direct"]["invertible"] is False, "singular element certified invertible")
        _require(r["direct"]["sigma_min"] <= 1e-12, "direct sigma_min misses t = 1")
        _require(r["exhausting_route"]["certified"] is False, "drop-endpoint certified exhausting")
        route = r["faithful_route"]
        _require([v["bound"] for v in route] == p["bounds"], "bounds echoed wrongly")
        for v in route:
            want = bool(
                np.all(dropped_sigmas > threshold)
                and np.all(dropped_sigmas * v["bound"] >= 1.0 - 1e-12)
            )
            _require(v["certified"] is True, f"bound {v['bound']} not certified")
            _require(v["invertible"] is want, f"bound {v['bound']} verdict {v['invertible']}")

    def honest(r):
        _require(r["exhausting_route"] == {"certified": True, "invertible": False},
                 f"prim-all exhausting route {r['exhausting_route']}")
        _require(r["members_all_invertible"] is False, "prim-all misses the singular block")

    def norm_f(r):
        ref = float(norms.max())
        # prim-all sits on every grid point, so the family attains the grid
        # maximum itself, well inside the reported error bar
        _require(np.isclose(r["family_value"], ref, rtol=1e-9),
                 f"family norm {r['family_value']} vs grid reference {ref}")
        _require(abs(r["family_value"] - ref) <= r["element_error"] + 1e-12,
                 "family norm outside the error bar")
        _require(np.isclose(r["element_value"], ref, rtol=1e-9), "element norm off the grid value")
        _require(np.isclose(r["element_error"], _certify_lipschitz(p) * h / 2, rtol=1e-9),
                 "error bar differs from the Lipschitz bar")

    def spectrum_f(r):
        _require(r["contract"] == "equality", f"contract {r['contract']}")
        _require(r["truncated"] is False, "finite union flagged truncated")
        ref = np.linalg.eigvalsh(vals)
        dist = _hausdorff_real(_real_points(r), ref)
        _require(dist <= 1e-8, f"spectrum off the reference by {dist:.3g}")

    for qid, fn in [
        ("report-dropped", report_dropped), ("report-full", report_full),
        ("report-sparse", report_sparse), ("paradox", paradox), ("honest", honest),
        ("norm-f", norm_f), ("spectrum-f", spectrum_f),
    ]:
        chk.run(qid, fn)
    return chk.failures


# ---------------------------------------------------------------------------
# toeplitz-ladder: tridiagonal symbols with corner corrections


THETA_COUNT = 32


def _symbol_pair(rng: random.Random, fredholm: bool) -> tuple[float, float]:
    """(c0, c1) with |c0| / (2 |c1|) at least 1.5 (Fredholm) or at most 0.7."""
    c1 = rng.choice((-1, 1)) * rng.randint(200, 1000) / 1000
    ratio = rng.uniform(1.5, 3.0) if fredholm else rng.uniform(0.0, 0.7)
    c0 = rng.choice((-1, 1)) * round(2 * abs(c1) * ratio, 4)
    return c0, c1


def _toeplitz_case(rng: random.Random, index: int, top: int) -> Case:
    sections = [top // 16, top // 8, top // 4, top // 2, top]
    a0, a1 = _symbol_pair(rng, rng.random() < 0.5)
    b0, b1 = _symbol_pair(rng, rng.random() < 0.5)
    # every section must hold the correction of a* a, which is two wider
    side = rng.randint(2, min(4, sections[0] - 2))
    corr = np.zeros((side, side))
    for i in range(side):
        corr[i, i] = rng.randint(-1000, 1000) / 1000
        for j in range(i + 1, side):
            corr[i, j] = corr[j, i] = rng.randint(-1000, 1000) / 1000
    corr_lines = "\n".join(
        f"    corr {i} {j}: {_fmt(corr[i, j])}" for i in range(side) for j in range(side)
    )
    name = f"toeplitz-{index:02d}-n{top}"
    text = f"""scenario-version: 1
label: {name}

model:
  name: toeplitz
  theta-count: {THETA_COUNT}
  sections: {' '.join(str(n) for n in sections)}

elements:
  - id: a
    kind: toeplitz
    c 0: {_fmt(a0)}
    c 1: {_fmt(a1)}
    c -1: {_fmt(a1)}
{corr_lines}
  - id: b
    kind: toeplitz
    c 0: {_fmt(b0)}
    c 1: {_fmt(b1)}
    c -1: {_fmt(b1)}

families:
  - id: chars
    generator: toeplitz-chars
  - id: ladder
    generator: toeplitz-pi
  - id: all
    generator: toeplitz-all

queries:
  - id: fredholm-a
    kind: fredholm
    family: chars
    element: a
  - id: fredholm-b
    kind: fredholm
    family: chars
    element: b
  - id: report-ladder
    kind: family-report
    family: ladder
    element: a
  - id: norm-b
    kind: norm
    family: ladder
    element: b
  - id: spectrum-a
    kind: spectrum
    family: all
    element: a
    resolution: 1e-6
"""
    params = {"sections": sections, "a": (a0, a1), "b": (b0, b1), "corr": corr}
    queries = ["fredholm-a", "fredholm-b", "report-ladder", "norm-b", "spectrum-a"]
    return Case(name, text, queries, params)


def _tridiagonal_norm(c0: float, c1: float, n: int) -> float:
    return abs(c0) + 2 * abs(c1) * np.cos(np.pi / (n + 1))


def check_toeplitz(case: Case, report: dict) -> list[tuple[str, str]]:
    p = case.params
    top = p["sections"][-1]
    chk = _Checks(report)

    def fredholm(sym):
        c0, c1 = sym

        def oracle(r):
            want = abs(c0) > 2 * abs(c1)
            _require(r["fredholm"] is want, f"fredholm {r['fredholm']} for c0={c0}, c1={c1}")
            _require(r["certified_margin"] > 0 if want else r["certified_margin"] <= 0,
                     "margin sign disagrees with the verdict")

        return oracle

    def report_ladder(r):
        _require(_verdicts(r) == (True, True, True), f"ladder verdicts {_verdicts(r)}")

    def norm_b(r):
        c0, c1 = p["b"]
        ref = _tridiagonal_norm(c0, c1, top)
        inc = ref - _tridiagonal_norm(c0, c1, p["sections"][-2])
        _require(np.isclose(r["family_value"], ref, rtol=1e-9), f"norm {r['family_value']} vs {ref}")
        _require(np.isclose(r["element_value"], ref, rtol=1e-9), "element norm off the section norm")
        _require(np.isclose(r["element_error"], inc, rtol=1e-6, atol=1e-12), "increment off")
        _require(r["family_value"] <= abs(c0) + 2 * abs(c1) + 1e-12, "section norm above the symbol sup")

    def spectrum_a(r):
        c0, c1 = p["a"]
        _require(r["contract"] == "equality", f"contract {r['contract']}")
        _require(r["truncated"] is True, "section spectrum not flagged truncated")
        section = c0 * np.eye(top) + c1 * (np.eye(top, k=1) + np.eye(top, k=-1))
        side = p["corr"].shape[0]
        section[:side, :side] += p["corr"]
        thetas = 2 * np.pi * np.arange(THETA_COUNT) / THETA_COUNT
        ref = np.concatenate([np.linalg.eigvalsh(section), c0 + 2 * c1 * np.cos(thetas)])
        dist = _hausdorff_real(_real_points(r), ref)
        _require(dist <= 2e-6, f"spectrum off the reference by {dist:.3g}")

    chk.run("fredholm-a", fredholm(p["a"]))
    chk.run("fredholm-b", fredholm(p["b"]))
    chk.run("report-ladder", report_ladder)
    chk.run("norm-b", norm_b)
    chk.run("spectrum-a", spectrum_a)
    return chk.failures


# ---------------------------------------------------------------------------
# fiber-sweep: shifted Laplacians on (circle or path graph) x R^n


WINDOW = 4
OBS_WINDOW = 2


def _fiber_case(
    rng: random.Random, index: int, base: str, size: int, n: int, steps: int
) -> Case:
    # The shift is positive (invertible), zero, or minus the square of a
    # grid node, so that one fiber vanishes exactly (not invertible).
    kind = rng.choice(("positive", "zero", "node"))
    if kind == "positive":
        shift = rng.randint(50, 3000) / 1000
    elif kind == "zero":
        shift = 0.0
    else:
        shift = -((rng.randint(1, WINDOW * steps // 2) / steps) ** 2)
    obs_steps = 4 if n == 1 else 2
    flat = " ".join("0" for _ in range(n))
    terms = [f"    term 1 {flat}: 1"]
    for i in range(n):
        alpha = " ".join("2" if j == i else "0" for j in range(n))
        terms.append(f"    term 0 {alpha}: 1")
    terms.append(f"    term 0 {flat}: {_fmt(shift)}")
    name = f"fiber-{index:02d}-{base}{size}-n{n}-s{steps}"
    queries = ["spectrum", "invertible", "observable"]
    restriction = ""
    if base == "circle":
        queries.insert(2, "restriction")
        restriction = """  - id: restriction
    kind: restriction-check
    operator: op
"""
    text = f"""scenario-version: 1
label: {name}

operators:
  - id: op
    base: {'circle' if base == 'circle' else 'graph-path'} {size}
    directions: {n}
{chr(10).join(terms)}

queries:
  - id: spectrum
    kind: parametric-spectrum
    operator: op
    window: {WINDOW}
    step: 1/{steps}
    resolution: 1e-9
  - id: invertible
    kind: parametric-invertible
    operator: op
    window: {WINDOW}
    step: 1/{steps}
{restriction}  - id: observable
    kind: observable-spectrum
    operator: op
    window: {OBS_WINDOW}
    step: 1/{obs_steps}
    resolution: 1e-9
"""
    params = {
        "base": base, "size": size, "n": n, "steps": steps,
        "obs_steps": obs_steps, "shift": shift,
    }
    return Case(name, text, queries, params)


def _compact_spectrum(base: str, size: int) -> np.ndarray:
    if base == "circle":
        k = np.arange(-size, size + 1, dtype=float)
        return k * k
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(size) / size)


def _flat_squares(n: int, window: float, steps: int) -> np.ndarray:
    axis = np.arange(-window * steps, window * steps + 1) / steps
    sq = axis * axis
    total = np.zeros(1)
    for _ in range(n):
        total = np.unique(total[:, None] + sq[None, :])
    return total


def check_fiber(case: Case, report: dict) -> list[tuple[str, str]]:
    p = case.params
    s = p["shift"]
    mu = _compact_spectrum(p["base"], p["size"])
    chk = _Checks(report)

    def reference(window: float, steps: int) -> np.ndarray:
        flat = _flat_squares(p["n"], window, steps)
        return np.unique(mu[:, None] + flat[None, :]) + s

    def spectrum(r):
        pts = _real_points(r)
        _require(r["truncated"] is True, "parametric spectrum not flagged truncated")
        _require(abs(pts[0] - s) <= 1e-8, f"spectrum minimum {pts[0]} vs shift {s}")
        dist = _hausdorff_real(pts, reference(WINDOW, p["steps"]))
        _require(dist <= 1e-8 * max(1.0, float(pts[-1])), f"spectrum off by {dist:.3g}")

    def invertible(r):
        want = s > 0
        _require(r["invertible"] is want, f"invertible {r['invertible']} for shift {s}")
        _require((r["failing_lambda"] is None) is want, "failing lambda disagrees with verdict")
        _require(r["min_symbol"] >= 1e-6, "principal symbol margin lost")

    def restriction(r):
        k2 = p["size"] ** 2
        _require(r["passed"] is True, "restriction check failed")
        _require(np.isclose(r["c0"], (k2 + s) / k2, rtol=1e-12), "c0 off the top mode")
        _require(np.isclose(r["c1"], (k2 + 1 + s) / k2, rtol=1e-12), "c1 off the top mode")

    def observable(r):
        pts = _real_points(r)
        _require(r["truncated"] is True, "fibered observable not flagged truncated")
        dist = _hausdorff_real(pts, reference(OBS_WINDOW, p["obs_steps"]))
        _require(dist <= 1e-7, f"observable spectrum off by {dist:.3g}")

    chk.run("spectrum", spectrum)
    chk.run("invertible", invertible)
    if "restriction" in case.queries:
        chk.run("restriction", restriction)
    chk.run("observable", observable)
    return chk.failures


# ---------------------------------------------------------------------------
# pass plans


@dataclass(frozen=True)
class Workload:
    name: str
    plan: tuple  # (builder, extra args) slots for one full pass
    smoke: tuple  # the same slots at smoke size
    check: object

    def generate(self, seed: int, smoke: bool = False) -> list[Case]:
        rng = random.Random(f"{self.name}:{seed}")
        slots = self.smoke if smoke else self.plan
        return [build(rng, i, *args) for i, (build, args) in enumerate(slots)]


# Sizes are interleaved so that each size class is sampled across the whole
# pass, and the small class holds most scenarios so that the median scenario
# time falls inside it rather than between two classes.  Every size
# parameter is fixed per slot (the certify slots are (steps, coarse
# stride)), so that seeds differ only in coefficients and do the same work.
CERTIFY_PLAN = ((32, 2), (32, 2), (64, 4), (32, 2), (128, 2), (32, 2), (32, 2))
TOEPLITZ_PLAN = (128, 128, 256, 128, 512, 128, 128)
FIBER_PLAN = (
    ("circle", 8, 1, 128), ("graph", 8, 1, 128), ("circle", 16, 1, 256),
    ("circle", 8, 1, 128), ("graph", 4, 2, 8), ("graph", 8, 1, 128),
    ("circle", 4, 2, 16), ("circle", 8, 1, 128), ("graph", 12, 1, 256),
    ("graph", 8, 1, 128), ("circle", 4, 2, 8), ("circle", 8, 1, 128),
    ("graph", 8, 1, 128),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-interval",
            tuple((_certify_case, args) for args in CERTIFY_PLAN),
            tuple((_certify_case, args) for args in ((8, 2), (16, 4), (8, 4))),
            check_certify,
        ),
        Workload(
            "toeplitz-ladder",
            tuple((_toeplitz_case, (n,)) for n in TOEPLITZ_PLAN),
            tuple((_toeplitz_case, (n,)) for n in (64, 128, 64)),
            check_toeplitz,
        ),
        Workload(
            "fiber-sweep",
            tuple((_fiber_case, args) for args in FIBER_PLAN),
            tuple(
                (_fiber_case, args)
                for args in (("circle", 4, 1, 8), ("graph", 4, 1, 8), ("circle", 2, 2, 2))
            ),
            check_fiber,
        ),
    )
}
