"""Scenario files: a small line-oriented format and its query runner.

Layout rules: "key: value" scalars, "key:" opens a nested block, list
items start with "- ", nesting indents by exactly two spaces, tabs are
rejected, full-line # comments and blank lines are skipped.  Numbers
accept fractions like 1/64 so grid steps stay exact in the report.

A scenario declares at most one model, elements on that model, named
families, standalone invariant operators, and a list of queries.  The
runner executes the queries in order and produces one deterministic
report: keys sorted, floats via repr, timing null unless explicitly
requested, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    IncompatibleModel,
    IncompatibleQuery,
    ParseError,
)
from .families import (
    RepFamily,
    direct_invertible,
    family_report,
    fredholm_via_family,
    invertible_via_family,
    norm_via_family,
    spectrum_union,
)
from .gallery import build_family, build_model
from .models import (
    AlgebraElement,
    FunctionModel,
    ToeplitzElement,
    ToeplitzModel,
    elem_norm,
    rep_apply,
)
from .observables import Observable, _fiber_points, spec_observable, spec_union_observable
from .parametric import (
    CircleBase,
    GraphBase,
    InvariantOperator,
    LambdaGrid,
    _fiber_chunks,
    invertible_parametric,
    spectrum_parametric,
    symbol_restriction_check,
)
from .spectral import DEFAULT_RESOLUTION, SpectrumSet

SCENARIO_VERSION = 1
REPORT_VERSION = "0.1.0"

QUERY_KINDS = (
    "norm",
    "invertible",
    "spectrum",
    "family-report",
    "fredholm",
    "parametric-spectrum",
    "parametric-invertible",
    "restriction-check",
    "observable-spectrum",
)


# ---------------------------------------------------------------------------
# parse tree


@dataclass
class _Pair:
    key: str
    value: object  # str scalar, list of _Pair (section), or list of items
    line: int


def _scan(text: str) -> list[tuple[int, str, int]]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.rstrip()
        if not body.strip():
            continue
        indent = 0
        for ch in body:
            if ch == " ":
                indent += 1
            elif ch == "\t":
                raise ParseError("tab character in indentation", lineno, indent + 1)
            else:
                break
        content = body[indent:]
        if content.startswith("#"):
            continue
        if indent % 2:
            raise ParseError("indentation must step by two spaces", lineno, indent + 1)
        rows.append((indent, content, lineno))
    return rows


def _unique_keys(pairs: list[_Pair]) -> list[_Pair]:
    """A key given twice is an error on its second line; add-block entries collect."""
    seen = set()
    for p in pairs:
        key = tuple(p.key.split())
        if key in seen and p.key != "add-block":
            raise ParseError(f"duplicate key {p.key!r}", p.line)
        seen.add(key)
    return pairs


def _parse_section(rows, pos: int, indent: int) -> tuple[list[_Pair], int]:
    pairs: list[_Pair] = []
    while pos < len(rows):
        ind, content, line = rows[pos]
        if ind < indent:
            break
        if ind > indent:
            raise ParseError("unexpected indentation", line, ind + 1)
        if content.startswith("- "):
            raise ParseError("list item outside a list", line, ind + 1)
        if ":" not in content:
            raise ParseError("expected 'key: value' or 'key:'", line, ind + 1)
        key, _, rest = content.partition(":")
        key = key.strip()
        if not key:
            raise ParseError("empty key", line, ind + 1)
        rest = rest.strip()
        pos += 1
        if rest:
            pairs.append(_Pair(key, rest, line))
            continue
        if pos < len(rows) and rows[pos][0] > indent:
            child_indent = rows[pos][0]
            if child_indent != indent + 2:
                raise ParseError(
                    "nested blocks must indent by exactly two spaces",
                    rows[pos][2],
                    child_indent + 1,
                )
            if rows[pos][1].startswith("- "):
                value, pos = _parse_items(rows, pos, child_indent)
            else:
                value, pos = _parse_section(rows, pos, child_indent)
            pairs.append(_Pair(key, value, line))
        else:
            raise ParseError(f"section {key!r} has no content", line, ind + 1)
    return _unique_keys(pairs), pos


def _parse_items(rows, pos: int, indent: int) -> tuple[list, int]:
    items = []
    while pos < len(rows):
        ind, content, line = rows[pos]
        if ind < indent:
            break
        if ind > indent:
            raise ParseError("unexpected indentation", line, ind + 1)
        if not content.startswith("- "):
            raise ParseError("expected a '- ' list item", line, ind + 1)
        rest = content[2:].strip()
        if not rest:
            raise ParseError("empty list item", line, ind + 3)
        pos += 1
        if ":" in rest:
            key, _, val = rest.partition(":")
            first = _Pair(key.strip(), val.strip(), line)
            if not first.key:
                raise ParseError("empty key", line, ind + 3)
            body: list[_Pair] = [first]
            if pos < len(rows) and rows[pos][0] > indent:
                child_indent = rows[pos][0]
                if child_indent != indent + 2:
                    raise ParseError(
                        "item fields must indent by exactly two spaces",
                        rows[pos][2],
                        child_indent + 1,
                    )
                more, pos = _parse_section(rows, pos, child_indent)
                body.extend(more)
            items.append(_unique_keys(body))
        else:
            items.append(_Pair("", rest, line))
    return items, pos


# ---------------------------------------------------------------------------
# scalar conversion


def _num(text: str, line: int) -> float:
    tok = text.strip()
    top, slash, bottom = tok.partition("/")
    try:
        value = float(top) / float(bottom) if slash else float(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad {'fraction' if slash else 'number'} {tok!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {tok!r}", line)
    return value


def _int(text: str, line: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(f"bad integer {text.strip()!r}", line) from None


def _nums(text: str, line: int) -> list[float]:
    toks = text.split()
    if not toks:
        raise ParseError("expected at least one number", line)
    return [_num(t, line) for t in toks]


def _bool(text: str, line: int) -> bool:
    tok = text.strip().lower()
    if tok in ("true", "yes", "on"):
        return True
    if tok in ("false", "no", "off"):
        return False
    raise ParseError(f"bad boolean {tok!r}", line)


def _section_pairs(value, line: int) -> list[_Pair]:
    if not isinstance(value, list) or any(not isinstance(p, _Pair) for p in value):
        raise ParseError("expected a nested section", line)
    return value


def _items(value, line: int) -> list:
    if not isinstance(value, list):
        raise ParseError("expected a list", line)
    return value


def _get(pairs: list[_Pair], key: str):
    for p in pairs:
        if p.key == key:
            return p
    return None


def _need(pairs: list[_Pair], key: str, line: int) -> _Pair:
    p = _get(pairs, key)
    if p is None:
        raise ParseError(f"missing required field {key!r}", line)
    return p


def _scalar(p: _Pair) -> str:
    if not isinstance(p.value, str):
        raise ParseError(f"field {p.key!r} must be a scalar", p.line)
    return p.value


# ---------------------------------------------------------------------------
# scenario objects


@dataclass
class Query:
    id: str
    kind: str
    params: list[_Pair]
    line: int


@dataclass
class Scenario:
    label: str
    model: object | None
    elements: dict
    families: dict
    operators: dict
    queries: list[Query]


def parse_scenario(text: str) -> Scenario:
    rows = _scan(text)
    if not rows:
        raise ParseError("empty scenario", 1)
    pairs, pos = _parse_section(rows, 0, 0)
    if pos != len(rows):
        raise ParseError("unexpected indentation", rows[pos][2], rows[pos][0] + 1)
    if not pairs or pairs[0].key != "scenario-version":
        raise ParseError("the first line must be 'scenario-version: 1'", rows[0][2])
    version = _int(_scalar(pairs[0]), pairs[0].line)
    if version != SCENARIO_VERSION:
        raise ParseError(f"unsupported scenario version {version}", pairs[0].line)

    known = {
        "scenario-version", "label", "model",
        "elements", "families", "operators", "queries",
    }
    for p in pairs:
        if p.key not in known:
            raise ParseError(f"unknown top-level section {p.key!r}", p.line)

    label_pair = _get(pairs, "label")
    label = _scalar(label_pair) if label_pair else ""

    model = None
    model_pair = _get(pairs, "model")
    if model_pair:
        model = _build_model(_section_pairs(model_pair.value, model_pair.line))

    scenario = Scenario(label, model, {}, {}, {}, [])

    el_pair = _get(pairs, "elements")
    if el_pair:
        for item in _items(el_pair.value, el_pair.line):
            body = _section_pairs(item, el_pair.line)
            eid, element = _build_element(body, model)
            if eid in scenario.elements:
                raise ParseError(f"duplicate element id {eid!r}", body[0].line)
            scenario.elements[eid] = element

    fam_pair = _get(pairs, "families")
    if fam_pair:
        for item in _items(fam_pair.value, fam_pair.line):
            body = _section_pairs(item, fam_pair.line)
            try:
                fid, fam = _build_family_entry(body, model)
            except ValueError as err:
                raise ParseError(str(err), body[0].line) from None
            if fid in scenario.families:
                raise ParseError(f"duplicate family id {fid!r}", body[0].line)
            scenario.families[fid] = fam

    op_pair = _get(pairs, "operators")
    if op_pair:
        for item in _items(op_pair.value, op_pair.line):
            body = _section_pairs(item, op_pair.line)
            try:
                oid, op = _build_operator(body)
            except ValueError as err:
                raise ParseError(str(err), body[0].line) from None
            if oid in scenario.operators:
                raise ParseError(f"duplicate operator id {oid!r}", body[0].line)
            scenario.operators[oid] = op

    q_pair = _get(pairs, "queries")
    if q_pair:
        for item in _items(q_pair.value, q_pair.line):
            body = _section_pairs(item, q_pair.line)
            qid = _scalar(_need(body, "id", body[0].line))
            kind = _scalar(_need(body, "kind", body[0].line))
            if kind not in QUERY_KINDS:
                raise ParseError(f"unknown query kind {kind!r}", body[0].line)
            if any(q.id == qid for q in scenario.queries):
                raise ParseError(f"duplicate query id {qid!r}", body[0].line)
            scenario.queries.append(Query(qid, kind, body, body[0].line))
    return scenario


def load_scenario(path: str) -> Scenario:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # the sentinel makes a bad byte at the start of a line count as its own line
        lines = (data[: err.start].decode("utf-8") + "?").splitlines()
        raise ParseError(
            f"byte 0x{data[err.start]:02x} is not UTF-8", len(lines), len(lines[-1])
        ) from None
    return parse_scenario(text)


# -- builders ----------------------------------------------------------------


def _build_model(pairs: list[_Pair]):
    name_pair = _need(pairs, "name", pairs[0].line if pairs else 1)
    name = _scalar(name_pair)
    params = {}
    for p in pairs:
        if p.key == "name":
            continue
        val = _scalar(p)
        if p.key == "step":
            params["step"] = _num(val, p.line)
        elif p.key == "points":
            params["points"] = _int(val, p.line)
        elif p.key == "dim":
            params["dim"] = _int(val, p.line)
        elif p.key == "constraint-point":
            params["constraint_point"] = _num(val, p.line)
        elif p.key == "theta-count":
            params["theta_count"] = _int(val, p.line)
        elif p.key == "sections":
            params["sections"] = tuple(int(x) for x in _nums(val, p.line))
        else:
            raise ParseError(f"unknown model field {p.key!r}", p.line)
    try:
        return build_model(name, **params)
    except ValueError as err:
        raise ParseError(str(err), name_pair.line) from None


def _build_element(pairs: list[_Pair], model):
    line = pairs[0].line
    eid = _scalar(_need(pairs, "id", line))
    kind = _scalar(_need(pairs, "kind", line))
    if model is None:
        raise ParseError("elements need a model section", line)
    if kind == "matrix-poly":
        if not isinstance(model, FunctionModel):
            raise IncompatibleModel("matrix-poly elements need a function model")
        entries = {}
        for p in pairs:
            toks = p.key.split()
            if toks[:1] != ["entry"]:
                continue
            if len(toks) != 3:
                raise ParseError("entry keys look like 'entry i j'", p.line)
            i, j = _int(toks[1], p.line), _int(toks[2], p.line)
            entries[(i, j)] = [complex(c) for c in _nums(_scalar(p), p.line)]
        if not entries:
            raise ParseError("matrix-poly elements need at least one entry", line)
        make = partial(AlgebraElement.from_polynomials, model, entries, label=eid)
    elif kind == "toeplitz":
        if not isinstance(model, ToeplitzModel):
            raise IncompatibleModel("toeplitz elements need a symbol model")
        symbol = {}
        corr_entries = {}
        for p in pairs:
            toks = p.key.split()
            if toks[:1] == ["c"]:
                if len(toks) != 2:
                    raise ParseError("symbol keys look like 'c k'", p.line)
                vals = _nums(_scalar(p), p.line)
                if len(vals) > 2:
                    raise ParseError("symbol values are 're' or 're im'", p.line)
                symbol[_int(toks[1], p.line)] = complex(
                    vals[0], vals[1] if len(vals) > 1 else 0.0
                )
            elif toks[:1] == ["corr"]:
                if len(toks) != 3:
                    raise ParseError("correction keys look like 'corr i j'", p.line)
                vals = _nums(_scalar(p), p.line)
                if len(vals) > 2:
                    raise ParseError("correction values are 're' or 're im'", p.line)
                corr_entries[(_int(toks[1], p.line), _int(toks[2], p.line))] = complex(
                    vals[0], vals[1] if len(vals) > 1 else 0.0
                )
        correction = None
        if corr_entries:
            side = 1 + max(max(i, j) for i, j in corr_entries)
            correction = np.zeros((side, side), dtype=complex)
            for (i, j), v in corr_entries.items():
                if i < 0 or j < 0:
                    raise ParseError("correction indices must be nonnegative", line)
                correction[i, j] = v
        make = partial(ToeplitzElement.build, model, symbol, correction=correction, label=eid)
    else:
        raise ParseError(f"unknown element kind {kind!r}", line)
    try:
        return eid, make()
    except (ValueError, OverflowError) as err:
        raise IncompatibleModel(
            f"line {line}: element {eid!r} does not fit the model: {err}"
        ) from None


def _build_family_entry(pairs: list[_Pair], model):
    line = pairs[0].line
    fid = _scalar(_need(pairs, "id", line))
    generator = _scalar(_need(pairs, "generator", line))
    if model is None:
        raise ParseError("families need a model section", line)
    options = {}
    add_blocks = []
    for p in pairs:
        if p.key in ("id", "generator"):
            continue
        val = _scalar(p)
        if p.key == "exclude-points":
            options["exclude_points"] = _nums(val, p.line)
        elif p.key == "add-block":
            toks = _nums(val, p.line)
            if len(toks) != 2:
                raise ParseError("add-block takes 'point block'", p.line)
            add_blocks.append((toks[0], int(toks[1])))
        elif p.key == "stride":
            options["stride"] = _int(val, p.line)
            if options["stride"] < 1:
                raise ParseError("stride must be at least 1", p.line)
        elif p.key == "at":
            options["at"] = _num(val, p.line)
        else:
            raise ParseError(f"unknown family field {p.key!r}", p.line)
    if add_blocks:
        options["add_blocks"] = add_blocks
    fam = build_family(model, generator, **options)
    return fid, RepFamily(fam.model, fam.members, label=fid)


def _build_operator(pairs: list[_Pair]):
    line = pairs[0].line
    oid = _scalar(_need(pairs, "id", line))
    base_pair = _need(pairs, "base", line)
    toks = _scalar(base_pair).split()
    if toks[:1] == ["circle"] and len(toks) == 2:
        base = CircleBase(_int(toks[1], base_pair.line))
    elif toks[:1] == ["graph-path"] and len(toks) == 2:
        v = _int(toks[1], base_pair.line)
        a = np.zeros((v, v))
        for i in range(v - 1):
            a[i, i + 1] = a[i + 1, i] = 1.0
        base = GraphBase(a)
    else:
        raise ParseError("base looks like 'circle K' or 'graph-path V'", base_pair.line)
    n = _int(_scalar(_need(pairs, "directions", line)), line)
    terms = {}
    for p in pairs:
        toks = p.key.split()
        if toks[:1] != ["term"]:
            continue
        if len(toks) != 2 + n:
            raise ParseError(
                f"term keys look like 'term j a1 .. a{n}'", p.line
            )
        j = _int(toks[1], p.line)
        alpha = tuple(_int(t, p.line) for t in toks[2:])
        terms[(j, alpha)] = _num(_scalar(p), p.line)
    if not terms:
        raise ParseError("operators need at least one term", line)
    return oid, InvariantOperator.build(base, n, terms, label=oid)


# ---------------------------------------------------------------------------
# query execution


def _lookup(table: dict, pair: _Pair, what: str):
    key = _scalar(pair)
    if key not in table:
        raise IncompatibleQuery(f"unknown {what} {key!r}")
    return table[key]


def _q_element(scenario: Scenario, q: Query):
    return _lookup(scenario.elements, _need(q.params, "element", q.line), "element")


def _q_family(scenario: Scenario, q: Query):
    return _lookup(scenario.families, _need(q.params, "family", q.line), "family")


def _q_operator(scenario: Scenario, q: Query):
    return _lookup(scenario.operators, _need(q.params, "operator", q.line), "operator")


def _q_num(q: Query, key: str, default: float) -> float:
    """A query number; window and step are checked as a pair by LambdaGrid.build."""
    p = _get(q.params, key)
    value = _num(_scalar(p), p.line) if p else default
    if value < 0 and key not in ("window", "step"):
        raise ParseError(f"{key} must be nonnegative, got {value!r}", p.line)
    return value


def _q_grid(q: Query, op: InvariantOperator) -> LambdaGrid:
    window = _q_num(q, "window", 4.0)
    step = _q_num(q, "step", 1 / 32)
    try:
        return LambdaGrid.build(op.n, window, step)
    except ValueError as err:
        raise ParseError(str(err), q.line) from None


def _run_norm(scenario: Scenario, q: Query) -> dict:
    a = _q_element(scenario, q)
    fam = _q_family(scenario, q)
    est = elem_norm(a)
    return {
        "family_value": float(norm_via_family(fam, a)),
        "element_value": float(est.value),
        "element_error": float(est.error),
    }


def _run_invertible(scenario: Scenario, q: Query) -> dict:
    a = _q_element(scenario, q)
    fam = _q_family(scenario, q)
    tol = _q_num(q, "resolution", DEFAULT_RESOLUTION)
    bounds_pair = _get(q.params, "bounds")
    bounds = _nums(_scalar(bounds_pair), bounds_pair.line) if bounds_pair else []
    if bounds and min(bounds) <= 0:
        raise ParseError(f"bounds must be positive, got {min(bounds)!r}", bounds_pair.line)
    out = invertible_via_family(fam, a, tol, tuple(bounds)).as_dict()
    if isinstance(a, AlgebraElement):
        d = direct_invertible(a, tol)
        out["direct"] = {
            "invertible": bool(d.invertible),
            "sigma_min": float(d.sigma_min),
            "margin": float(d.margin),
        }
    else:
        out["direct"] = None
    return out


def _run_spectrum(scenario: Scenario, q: Query) -> dict:
    a = _q_element(scenario, q)
    fam = _q_family(scenario, q)
    tol = _q_num(q, "resolution", 1e-9)
    report = family_report(fam)
    out = spectrum_union(fam, a, tol).as_dict()
    out["contract"] = (
        "equality" if report.exhausting else "closure" if report.faithful else "uncertified"
    )
    return out


def _run_family_report(scenario: Scenario, q: Query) -> dict:
    fam = _q_family(scenario, q)
    extras = []
    p = _get(q.params, "element")
    if p is not None:
        extras.append(_lookup(scenario.elements, p, "element"))
    return family_report(fam, probes=tuple(extras)).as_dict()


def _run_fredholm(scenario: Scenario, q: Query) -> dict:
    a = _q_element(scenario, q)
    fam = _q_family(scenario, q)
    tol = _q_num(q, "resolution", DEFAULT_RESOLUTION)
    return fredholm_via_family(fam, a, tol).as_dict()


def _run_parametric_spectrum(scenario: Scenario, q: Query) -> dict:
    op = _q_operator(scenario, q)
    grid = _q_grid(q, op)
    tol = _q_num(q, "resolution", 1e-9)
    out = spectrum_parametric(op, grid, tol).as_dict()
    out["window"] = float(grid.window)
    out["step"] = float(grid.step)
    return out


def _run_parametric_invertible(scenario: Scenario, q: Query) -> dict:
    op = _q_operator(scenario, q)
    grid = _q_grid(q, op)
    v = invertible_parametric(
        op,
        grid,
        delta_dir=_q_num(q, "delta-dir", 0.1),
        delta_sym=_q_num(q, "delta-sym", 1e-6),
        tol=_q_num(q, "resolution", 1e-9),
    )
    return v.as_dict()


def _run_restriction_check(scenario: Scenario, q: Query) -> dict:
    return symbol_restriction_check(_q_operator(scenario, q)).as_dict()


def _run_observable_spectrum(scenario: Scenario, q: Query) -> dict:
    tol = _q_num(q, "resolution", DEFAULT_RESOLUTION)
    inf_pair = _get(q.params, "infinite")
    if inf_pair is not None and _bool(_scalar(inf_pair), inf_pair.line):
        return spec_observable(Observable.infinite(), tol).as_dict()
    op_pair = _get(q.params, "operator")
    if op_pair is not None:
        op = _lookup(scenario.operators, op_pair, "operator")
        points = []
        for block in _fiber_chunks(op, _q_grid(q, op).nodes, op.reduction):
            Observable.fibered(block)  # raises NotSelfAdjoint on a bad fiber
            points += _fiber_points(block, tol)[0]
        return SpectrumSet.canonical(points, tol, truncated=True).as_dict()
    a = _q_element(scenario, q)
    fam = _q_family(scenario, q)
    members = []
    for m in fam.members:
        image = rep_apply(m, a)
        truncated = m.kind == "toeplitz-identity"
        members.append(Observable.fibered([image], truncated=truncated))
    return spec_union_observable(members, tol).as_dict()


_RUNNERS = {
    "norm": _run_norm,
    "invertible": _run_invertible,
    "spectrum": _run_spectrum,
    "family-report": _run_family_report,
    "fredholm": _run_fredholm,
    "parametric-spectrum": _run_parametric_spectrum,
    "parametric-invertible": _run_parametric_invertible,
    "restriction-check": _run_restriction_check,
    "observable-spectrum": _run_observable_spectrum,
}


def run_scenario(scenario: Scenario, with_timing: bool = False) -> dict:
    """Execute every query; the report is deterministic unless timed."""
    started = time.perf_counter()
    results = []
    for q in scenario.queries:
        payload = _RUNNERS[q.kind](scenario, q)
        results.append({"id": q.id, "kind": q.kind, "result": payload})
    report = {
        "version": REPORT_VERSION,
        "scenario_version": SCENARIO_VERSION,
        "label": scenario.label,
        "timing": (
            {"seconds": time.perf_counter() - started} if with_timing else None
        ),
        "results": results,
    }
    return report


def report_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


_SPECTRUM_KINDS = ("spectrum", "parametric-spectrum", "observable-spectrum")


def dump_spectrum_csv(scenario: Scenario, query_id: str) -> str:
    """Plot-ready CSV of one spectrum query: re,im,resolution,truncated."""
    match = [q for q in scenario.queries if q.id == query_id]
    if not match:
        raise IncompatibleQuery(f"no query with id {query_id!r}")
    q = match[0]
    if q.kind not in _SPECTRUM_KINDS:
        raise IncompatibleQuery(
            f"query {query_id!r} has kind {q.kind!r}, not a spectrum query"
        )
    payload = _RUNNERS[q.kind](scenario, q)
    lines = ["re,im,resolution,truncated"]
    flag = "true" if payload["truncated"] else "false"
    res = repr(payload["resolution"])
    for re_part, im_part in payload["points"]:
        lines.append(f"{re_part!r},{im_part!r},{res},{flag}")
    return "\n".join(lines) + "\n"
