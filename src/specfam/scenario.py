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
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import IncompatibleModel, IncompatibleQuery, ParseError
from .families import (
    direct_invertible,
    family_report,
    fredholm_via_family,
    invertible_via_family,
    norm_via_family,
    observable_spectrum_union,
    spectrum_union,
)
from .gallery import MAX_DENSE_ENTRIES, build_family, build_model
from .models import (
    AlgebraElement,
    FunctionModel,
    ToeplitzElement,
    ToeplitzModel,
    elem_norm,
)
from .observables import Observable, spec_observable
from .parametric import (
    CircleBase,
    GraphBase,
    InvariantOperator,
    LambdaGrid,
    _fiber_bound,
    invertible_parametric,
    observable_spectrum_parametric,
    spectrum_parametric,
    symbol_restriction_check,
)
from .spectral import DEFAULT_RESOLUTION

SCENARIO_VERSION = 1
REPORT_VERSION = "0.1.0"

# each query kind and the keys its runner reads, besides id and kind
QUERY_KINDS = {
    "norm": ("element", "family"),
    "invertible": ("element", "family", "resolution", "bounds"),
    "spectrum": ("element", "family", "resolution"),
    "family-report": ("family", "element"),
    "fredholm": ("element", "family", "resolution"),
    "parametric-spectrum": ("operator", "window", "step", "resolution"),
    "parametric-invertible": ("operator", "window", "step", "delta-dir", "delta-sym", "resolution"),
    "restriction-check": ("operator",),
    "observable-spectrum": (
        "infinite", "operator", "element", "family", "window", "step", "resolution",
    ),
}


# ---------------------------------------------------------------------------
# parse tree


class _Pair(NamedTuple):
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
        if not _nests(rows, pos, indent):
            raise ParseError(f"section {key!r} has no content", line, ind + 1)
        parse = _parse_items if rows[pos][1].startswith("- ") else _parse_section
        value, pos = parse(rows, pos, indent + 2)
        pairs.append(_Pair(key, value, line))
    return _unique_keys(pairs), pos


def _nests(rows, pos: int, indent: int) -> bool:
    """Does a block nested under indent start at rows[pos]?  It must indent by two."""
    if pos == len(rows) or rows[pos][0] <= indent:
        return False
    if rows[pos][0] != indent + 2:
        raise ParseError(
            "nested blocks must indent by exactly two spaces", rows[pos][2], rows[pos][0] + 1
        )
    return True


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
            if _nests(rows, pos, indent):
                more, pos = _parse_section(rows, pos, indent + 2)
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


def _check_keys(pairs: list[_Pair], fixed, what: str, indexed=()) -> None:
    """Refuse a key that is not in fixed and whose first word is not in indexed."""
    for p in pairs:
        if p.key not in fixed and p.key.split()[0] not in indexed:
            raise ParseError(f"unknown {what} {p.key!r}", p.line)


def _indexed(pairs: list[_Pair], word: str, arity: int, usage: str):
    """(indices, pair) for each key 'word i ..', compared by integers; usage is the arity error."""
    out: dict[tuple, _Pair] = {}
    for p in pairs:
        toks = p.key.split()
        if toks[0] == word:
            if len(toks) != 1 + arity:
                raise ParseError(usage, p.line)
            ix = tuple(_int(t, p.line) for t in toks[1:])
            if ix in out:
                raise ParseError(f"key {p.key!r} repeats {out[ix].key!r}", p.line)
            out[ix] = p
    return out.items()


# ---------------------------------------------------------------------------
# scenario objects


class Query(NamedTuple):
    id: str
    kind: str
    params: list[_Pair]
    line: int


class Scenario(NamedTuple):
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

    _check_keys(pairs, ("scenario-version", "label", "model", *_LISTS), "top-level section")
    label_pair = _get(pairs, "label")
    label = _scalar(label_pair) if label_pair else ""

    model = None
    model_pair = _get(pairs, "model")
    if model_pair:
        model = _build_model(_section_pairs(model_pair.value, model_pair.line))

    tables, bases = {}, {}  # operators that declare the same base share one base object
    for section, (noun, build) in _LISTS.items():
        table = tables[section] = {}
        pair = _get(pairs, section)
        if pair and not isinstance(pair.value, list):
            raise ParseError("expected a list", pair.line)
        for item in pair.value if pair else ():
            body = _section_pairs(item, pair.line)
            try:
                key, value = build(body, bases if section == "operators" else model)
            except ValueError as err:
                raise ParseError(str(err), body[0].line) from None
            if key in table:
                raise ParseError(f"duplicate {noun} id {key!r}", body[0].line)
            table[key] = value
    queries = list(tables.pop("queries").values())
    return Scenario(label, model, **tables, queries=queries)


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


# each model key, the build_model parameter it sets and how its value reads
_MODEL_KEYS = {
    "step": ("step", _num),
    "points": ("points", _int),
    "dim": ("dim", _int),
    "constraint-point": ("constraint_point", _num),
    "theta-count": ("theta_count", _int),
    "sections": ("sections", lambda val, line: tuple(_int(x, line) for x in val.split())),
}


def _build_model(pairs: list[_Pair]):
    name_pair = _need(pairs, "name", pairs[0].line if pairs else 1)
    name = _scalar(name_pair)
    _check_keys(pairs, ("name", *_MODEL_KEYS), "model field")
    params = {}
    for p in pairs:
        if p.key != "name":
            field, read = _MODEL_KEYS[p.key]
            params[field] = read(_scalar(p), p.line)
    try:
        return build_model(name, **params)
    except ValueError as err:
        raise ParseError(str(err), name_pair.line) from None


def _complex_value(pair: _Pair, what: str) -> complex:
    vals = _nums(_scalar(pair), pair.line)
    if len(vals) > 2:
        raise ParseError(f"{what} values are 're' or 're im'", pair.line)
    return complex(vals[0], vals[1] if len(vals) > 1 else 0.0)


# the indexed keys of each element kind, besides id and kind
_ELEMENT_KEYS = {"matrix-poly": ("entry",), "toeplitz": ("c", "corr")}


def _build_element(pairs: list[_Pair], model):
    line = pairs[0].line
    eid = _scalar(_need(pairs, "id", line))
    kind = _scalar(_need(pairs, "kind", line))
    if model is None:
        raise ParseError("elements need a model section", line)
    if kind not in _ELEMENT_KEYS:
        raise ParseError(f"unknown element kind {kind!r}", line)
    _check_keys(pairs, ("id", "kind"), "element field", _ELEMENT_KEYS[kind])
    if kind == "matrix-poly":
        if not isinstance(model, FunctionModel):
            raise IncompatibleModel("matrix-poly elements need a function model")
        entries = {
            ij: [complex(c) for c in _nums(_scalar(p), p.line)]
            for ij, p in _indexed(pairs, "entry", 2, "entry keys look like 'entry i j'")
        }
        if not entries:
            raise ParseError("matrix-poly elements need at least one entry", line)
        make = partial(AlgebraElement.from_polynomials, model, entries, label=eid)
    elif kind == "toeplitz":
        if not isinstance(model, ToeplitzModel):
            raise IncompatibleModel("toeplitz elements need a symbol model")
        symbol = {
            k: _complex_value(p, "symbol")
            for (k,), p in _indexed(pairs, "c", 1, "symbol keys look like 'c k'")
        }
        corr_keys = dict(_indexed(pairs, "corr", 2, "correction keys look like 'corr i j'"))
        corr_entries = {ij: _complex_value(p, "correction") for ij, p in corr_keys.items()}
        correction = None
        if corr_entries:
            # both refusals come before the dense correction is allocated
            low, far = min(corr_keys, key=min), max(corr_keys, key=max)
            if min(low) < 0:
                raise ParseError("correction indices must be nonnegative", corr_keys[low].line)
            side = 1 + max(far)
            if side**2 > MAX_DENSE_ENTRIES:
                raise ParseError(
                    f"the correction would hold {side**2:.4g} dense matrix entries, "
                    f"above the cap of {MAX_DENSE_ENTRIES} (2^20)",
                    corr_keys[far].line,
                )
            correction = np.zeros((side, side), dtype=complex)
            for ij, v in corr_entries.items():
                correction[ij] = v
        make = partial(ToeplitzElement.build, model, symbol, correction=correction, label=eid)
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
    keys = ("id", "generator", "exclude-points", "add-block", "stride", "at")
    _check_keys(pairs, keys, "family field")
    options = {}
    for p in pairs:
        if p.key == "exclude-points":
            options["exclude_points"] = _nums(_scalar(p), p.line)
        elif p.key == "add-block":
            toks = _scalar(p).split()
            if len(toks) != 2:
                raise ParseError("add-block takes 'point block'", p.line)
            options.setdefault("add_blocks", []).append((_num(toks[0], p.line), _int(toks[1], p.line)))
        elif p.key == "stride":
            options["stride"] = _int(_scalar(p), p.line)
            if options["stride"] < 1:
                raise ParseError("stride must be at least 1", p.line)
        elif p.key == "at":
            options["at"] = _num(_scalar(p), p.line)
    return fid, build_family(model, generator, label=fid, **options)


def _build_operator(pairs: list[_Pair], bases: dict):
    line = pairs[0].line
    oid = _scalar(_need(pairs, "id", line))
    _check_keys(pairs, ("id", "base", "directions"), "operator field", ("term",))
    base_pair = _need(pairs, "base", line)
    toks = _scalar(base_pair).split()
    if len(toks) != 2 or toks[0] not in ("circle", "graph-path"):
        raise ParseError("base looks like 'circle K' or 'graph-path V'", base_pair.line)
    size = _int(toks[1], base_pair.line)
    circle = toks[0] == "circle"
    dim = 2 * size + 1 if circle else size
    # refused before the dense graph adjacency or any fiber is allocated
    if dim * dim > MAX_DENSE_ENTRIES:
        raise ParseError(
            f"the base's {dim}x{dim} fibers would hold {dim * dim:.4g} dense matrix entries, "
            f"above the cap of {MAX_DENSE_ENTRIES} (2^20)",
            base_pair.line,
        )
    if (circle, size) not in bases:  # so a graph's Laplacian is solved once per scenario
        path = None if circle else np.eye(size, k=1) + np.eye(size, k=-1)
        bases[circle, size] = CircleBase(size) if circle else GraphBase(path)
    base = bases[circle, size]
    n = _int(_scalar(_need(pairs, "directions", line)), line)
    terms = {
        (ja[0], ja[1:]): _num(_scalar(p), p.line)
        for ja, p in _indexed(pairs, "term", 1 + n, f"term keys look like 'term j a1 .. a{n}'")
    }
    if not terms:
        raise ParseError("operators need at least one term", line)
    return oid, InvariantOperator.build(base, n, terms, label=oid)


def _build_query(pairs: list[_Pair], _model):
    line = pairs[0].line
    qid = _scalar(_need(pairs, "id", line))
    kind = _scalar(_need(pairs, "kind", line))
    if kind not in QUERY_KINDS:
        raise ParseError(f"unknown query kind {kind!r}", line)
    _check_keys(pairs, ("id", "kind", *QUERY_KINDS[kind]), "query field")
    return qid, Query(qid, kind, pairs, line)


# each list section, the noun its items go by and the builder of one item
_LISTS = {
    "elements": ("element", _build_element),
    "families": ("family", _build_family_entry),
    "operators": ("operator", _build_operator),
    "queries": ("query", _build_query),
}


# ---------------------------------------------------------------------------
# query execution


def _ref(scenario: Scenario, q: Query, what: str):
    """The element, family or operator that the query names under the key what."""
    key = _scalar(_need(q.params, what, q.line))
    table = {
        "element": scenario.elements, "family": scenario.families, "operator": scenario.operators,
    }[what]
    if key not in table:
        raise IncompatibleQuery(f"unknown {what} {key!r}")
    return table[key]


def _q_num(q: Query, key: str, default: float) -> float:
    """A query number; window and step are checked as a pair by LambdaGrid.build."""
    p = _get(q.params, key)
    value = _num(_scalar(p), p.line) if p else default
    if value < 0 and key not in ("window", "step"):
        raise ParseError(f"{key} must be nonnegative, got {value!r}", p.line)
    return value


def _q_grid(q: Query, op: InvariantOperator, reduced: bool = False) -> LambdaGrid:
    """The query's grid, refused before any fiber is built if a fiber entry could overflow."""
    window = _q_num(q, "window", 4.0)
    step = _q_num(q, "step", 1 / 32)
    try:
        grid = LambdaGrid.build(op.n, window, step)
    except ValueError as err:
        raise ParseError(str(err), q.line) from None
    if not math.isfinite(_fiber_bound(op, grid, reduced)):
        raise IncompatibleModel(f"line {q.line}: the fibers of {op.label!r} overflow on the window")
    return grid


def _run_norm(scenario: Scenario, q: Query) -> dict:
    a = _ref(scenario, q, "element")
    fam = _ref(scenario, q, "family")
    est = elem_norm(a)
    return {
        "family_value": float(norm_via_family(fam, a)),
        "element_value": float(est.value),
        "element_error": float(est.error),
    }


def _run_invertible(scenario: Scenario, q: Query) -> dict:
    a = _ref(scenario, q, "element")
    fam = _ref(scenario, q, "family")
    tol = _q_num(q, "resolution", DEFAULT_RESOLUTION)
    bounds_pair = _get(q.params, "bounds")
    bounds = _nums(_scalar(bounds_pair), bounds_pair.line) if bounds_pair else []
    if bounds and min(bounds) <= 0:
        raise ParseError(f"bounds must be positive, got {min(bounds)!r}", bounds_pair.line)
    out = invertible_via_family(fam, a, tol, tuple(bounds))._asdict()
    if not bounds:
        del out["faithful_route"]
    direct = isinstance(a, AlgebraElement)
    out["direct"] = direct_invertible(a, tol)._asdict() if direct else None
    return out


def _run_spectrum(scenario: Scenario, q: Query) -> dict:
    a = _ref(scenario, q, "element")
    fam = _ref(scenario, q, "family")
    tol = _q_num(q, "resolution", 1e-9)
    _, exhausting, faithful = fam._checks
    contract = "equality" if exhausting.ok else "closure" if faithful.ok else "uncertified"
    return {**spectrum_union(fam, a, tol).as_dict(), "contract": contract}


def _run_family_report(scenario: Scenario, q: Query) -> dict:
    fam = _ref(scenario, q, "family")
    extras = () if _get(q.params, "element") is None else (_ref(scenario, q, "element"),)
    return family_report(fam, probes=extras).as_dict()


def _run_fredholm(scenario: Scenario, q: Query) -> dict:
    a = _ref(scenario, q, "element")
    fam = _ref(scenario, q, "family")
    tol = _q_num(q, "resolution", DEFAULT_RESOLUTION)
    verdict = fredholm_via_family(fam, a, tol)
    if not math.isfinite(verdict.certified_margin):
        raise IncompatibleModel(
            f"line {q.line}: the certified margin of {a.label!r} overflows (slope bound x radius)"
        )
    return verdict._asdict()


def _run_parametric_spectrum(scenario: Scenario, q: Query) -> dict:
    op = _ref(scenario, q, "operator")
    grid = _q_grid(q, op)
    tol = _q_num(q, "resolution", 1e-9)
    out = spectrum_parametric(op, grid, tol).as_dict()
    return {**out, "window": grid.window, "step": grid.step}


def _run_parametric_invertible(scenario: Scenario, q: Query) -> dict:
    op = _ref(scenario, q, "operator")
    grid = _q_grid(q, op, reduced=True)
    try:
        v = invertible_parametric(
            op,
            grid,
            delta_dir=_q_num(q, "delta-dir", 0.1),
            delta_sym=_q_num(q, "delta-sym", 1e-6),
            tol=_q_num(q, "resolution", 1e-9),
        )
    except IncompatibleQuery as err:  # a delta-dir that leaves no symbol direction
        raise IncompatibleQuery(f"line {q.line}: {err}") from None
    return v._asdict()


def _run_restriction_check(scenario: Scenario, q: Query) -> dict:
    return symbol_restriction_check(_ref(scenario, q, "operator"))._asdict()


def _run_observable_spectrum(scenario: Scenario, q: Query) -> dict:
    tol = _q_num(q, "resolution", DEFAULT_RESOLUTION)
    inf_pair = _get(q.params, "infinite")
    if inf_pair is not None and _bool(_scalar(inf_pair), inf_pair.line):
        return spec_observable(Observable.infinite(), tol).as_dict()
    if _get(q.params, "operator") is not None:
        op = _ref(scenario, q, "operator")
        return observable_spectrum_parametric(op, _q_grid(q, op), tol).as_dict()
    a = _ref(scenario, q, "element")
    fam = _ref(scenario, q, "family")
    return observable_spectrum_union(fam, a, tol).as_dict()


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
    return {
        "version": REPORT_VERSION,
        "scenario_version": SCENARIO_VERSION,
        "label": scenario.label,
        "timing": (
            {"seconds": time.perf_counter() - started} if with_timing else None
        ),
        "results": results,
    }


def report_text(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) plus a newline, byte for byte.

    With an indent, json.dumps runs CPython's pure-Python encoder.  Here
    every key (a report's keys are strings) and scalar goes through the C
    encoder, and only the indented layout is Python; a list of strings
    (such as probes_used) is one join.  An array of spectrum points
    (SpectrumSet.values) is its [[re, im], ...] list: head, joined values, tail.
    """
    encode, quote = json.JSONEncoder().encode, json.encoder.encode_basestring_ascii
    parts = []

    def write(obj, pad):
        inner = pad + "  "
        if isinstance(obj, dict) and obj:
            sep = "{\n" + inner
            for key in sorted(obj):
                parts.extend((sep, quote(key), ": "))
                write(obj[key], inner)
                sep = ",\n" + inner
            parts.extend(("\n", pad, "}"))
        elif isinstance(obj, np.ndarray) and obj.size:
            deep = inner + "  "
            point, tail = f"\n{inner}],\n{inner}[\n{deep}", f"\n{inner}]\n{pad}]"
            if obj.dtype == complex:
                pairs = zip(obj.real.tolist(), obj.imag.tolist())
                text = point.join(f"{re!r},\n{deep}{im!r}" for re, im in pairs)
            else:  # one repr per value; the imaginary part is the constant 0.0
                zero = f",\n{deep}0.0"
                text, tail = (zero + point).join(map(float.__repr__, obj.tolist())), zero + tail
            if not np.isfinite(obj).all():  # as json.dumps writes them; finite reprs hold no n or i
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            parts.extend((f"[\n{inner}[\n{deep}", text, tail))
        elif isinstance(obj, np.ndarray):
            parts.append("[]")
        elif isinstance(obj, (list, tuple)) and obj and all(isinstance(x, str) for x in obj):
            parts.extend(("[\n", inner, f",\n{inner}".join(map(quote, obj)), "\n", pad, "]"))
        elif isinstance(obj, (list, tuple)) and obj:
            sep = "[\n" + inner
            for item in obj:
                parts.append(sep)
                write(item, inner)
                sep = ",\n" + inner
            parts.extend(("\n", pad, "]"))
        else:
            parts.append(encode(obj))

    write(report, "")
    del write  # a closure that holds itself: unbinding it frees parts on return, not at a GC pass
    parts.append("\n")
    return "".join(parts)


_SPECTRUM_KINDS = ("spectrum", "parametric-spectrum", "observable-spectrum")


def dump_spectrum_csv(scenario: Scenario, query_id: str) -> str:
    """Plot-ready CSV of one spectrum query: re,im,resolution,truncated."""
    q = next((q for q in scenario.queries if q.id == query_id), None)
    if q is None:
        raise IncompatibleQuery(f"no query with id {query_id!r}")
    if q.kind not in _SPECTRUM_KINDS:
        raise IncompatibleQuery(
            f"query {query_id!r} has kind {q.kind!r}, not a spectrum query"
        )
    payload = _RUNNERS[q.kind](scenario, q)
    tail = f"{payload['resolution']!r},{'true' if payload['truncated'] else 'false'}\n"
    values = payload["points"]  # floats from tolist: numpy 2 prints np.float64(...)
    rows = zip(values.real.tolist(), values.imag.tolist())
    return "".join(["re,im,resolution,truncated\n", *(f"{re!r},{im!r},{tail}" for re, im in rows)])
