"""Outside-in trace of specfam, installed from the benchmark's own files.

`Tracer.install()` wraps every public function and public method defined in
the specfam layer modules, plus `numpy.linalg.svd`, `eigh` and `eigvalsh`.
Each wrapper is rebound in the module that defines the name and in every
specfam module that imported it; `uninstall()` puts the originals back.

Every call records one span (name, start, end, parent, scenario) in compact
arrays that stay in memory until the pass ends.  Self time is a span's
duration minus the time of its direct child spans; time spent in unwrapped
private helpers is charged to the nearest wrapped caller.  Keys for the
useful-work ratios hold references to the objects involved, so a freed
temporary cannot alias a later one; they are reduced to values only after
the pass.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from array import array
from collections.abc import Sized

import numpy as np

LAYERS = (
    "cli", "scenario", "gallery", "families",
    "models", "spectral", "observables", "parametric",
)
LINALG = ("svd", "eigh", "eigvalsh")
CHECKS = ("check_full", "check_exhausting", "check_faithful")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _linalg_cost(kind: str, a: np.ndarray, compute_uv: bool) -> tuple[int, float, int]:
    """(matrices, flops, bytes) of one call, computed from the operand shape.

    Flop counts are the Golub-Van Loan leading terms for real data, times 4
    for complex data; bytes are operand plus results.  Neither is measured.
    """
    m, n = a.shape[-2:]
    batch = int(np.prod(a.shape[:-2], dtype=np.int64))
    cplx = np.iscomplexobj(a)
    item = a.dtype.itemsize
    real = 8
    if kind == "svd":
        lo, hi = min(m, n), max(m, n)
        flops = 4 * hi * lo * lo - 4 * lo**3 / 3
        out = lo * real
        if compute_uv:
            flops = 4 * hi * hi * lo + 8 * hi * lo * lo + 9 * lo**3
            out += (m * m + n * n) * item
    elif kind == "eigh":
        flops = 9 * n**3
        out = n * real + n * n * item
    else:
        flops = 4 * n**3 / 3
        out = n * real
    if cplx:
        flops *= 4
    return batch, float(batch * flops), int(a.nbytes + batch * out)


def _value_key(el) -> bytes:
    """Digest of an element's value; equal values give equal keys."""
    h = hashlib.sha1(type(el).__name__.encode())
    if hasattr(el, "matrices"):
        h.update(np.asarray(el.breakpoints, dtype=float).tobytes())
        for mat in el.matrices:
            h.update(np.ascontiguousarray(mat).tobytes())
        h.update(repr(el.lipschitz_bound).encode())
    else:
        h.update(np.asarray(el.coeffs, dtype=complex).tobytes())
        h.update(repr(el.correction.shape).encode())
        h.update(np.ascontiguousarray(el.correction).tobytes())
        h.update(repr(el.section_sizes).encode())
    return h.digest()


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.span_scenario = array("i")
        self.scenarios: list[str] = []
        self.scenario_id = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.rep_apply_args: list[tuple] = []
        self.toeplitz_norm_args: list = []
        self.cert_args: list[tuple] = []
        self.canonical_points = 0
        self.fibers = 0
        self.linalg = {k: {"calls": 0, "matrices": 0, "flops": 0.0, "bytes": 0} for k in LINALG}

    # -- recording ---------------------------------------------------------

    def begin_scenario(self, label: str):
        self.scenario_id = len(self.scenarios)
        self.scenarios.append(label)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, hook=None):
        nid = self._name_id(name)
        names, parents, scen = self.span_name, self.parent, self.span_scenario
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            scen.append(tracer.scenario_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    # -- counters fed by argument hooks ------------------------------------

    def _hooks(self) -> dict:
        def rep_apply(args, kwargs):
            self.rep_apply_args.append((_arg(args, kwargs, 0, "rep"), _arg(args, kwargs, 1, "a")))
            return args, kwargs

        def toeplitz_norm(args, kwargs):
            self.toeplitz_norm_args.append(_arg(args, kwargs, 0, "x"))
            return args, kwargs

        def check(name):
            def hook(args, kwargs):
                probes = () if name == "check_full" else _arg(args, kwargs, 1, "probes")
                family = _arg(args, kwargs, 0, "family")
                self.cert_args.append((self.scenario_id, name, family, tuple(probes)))
                return args, kwargs
            return hook

        def canonical(args, kwargs):
            # classmethod: args[0] is the class, args[1] the points
            if len(args) > 1:
                points = args[1]
                if not isinstance(points, Sized):
                    points = list(points)
                    args = (args[0], points) + tuple(args[2:])
            else:
                points = kwargs["points"]
                if not isinstance(points, Sized):
                    points = kwargs["points"] = list(points)
            self.canonical_points += len(points)
            return args, kwargs

        def spec_observable(args, kwargs):
            self.fibers += len(_arg(args, kwargs, 0, "obs").fibers)
            return args, kwargs

        hooks = {
            "models.rep_apply": rep_apply,
            "models.toeplitz_norm": toeplitz_norm,
            "spectral.SpectrumSet.canonical": canonical,
            "observables.spec_observable": spec_observable,
        }
        for c in CHECKS:
            hooks[f"families.{c}"] = check(c)
        return hooks

    def _linalg_hook(self, kind: str):
        stats = self.linalg[kind]

        def hook(args, kwargs):
            a = np.asarray(_arg(args, kwargs, 0, "a"))
            uv = kind == "svd" and bool(args[2] if len(args) > 2 else kwargs.get("compute_uv", True))
            mats, flops, nbytes = _linalg_cost(kind, a, uv)
            stats["calls"] += 1
            stats["matrices"] += mats
            stats["flops"] += flops
            stats["bytes"] += nbytes
            return args, kwargs

        return hook

    # -- install / uninstall -----------------------------------------------

    def install(self):
        """Wrap every public specfam function and method and the linalg entry points."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        wrapped: dict = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"specfam.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{layer}.{name}"
                    wrapped[obj] = self._wrap(obj, key, hooks.get(key))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{name}", hooks)
        namespaces = [
            m for n, m in list(sys.modules.items())
            if n == "specfam" or n.startswith("specfam.")
        ]
        for ns in namespaces:
            for name, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._rebind(ns, name, wrapped[val])
        for kind in LINALG:
            orig = getattr(np.linalg, kind)
            self._rebind(np.linalg, kind, self._wrap(orig, f"linalg.{kind}", self._linalg_hook(kind)))

    def _wrap_methods(self, cls, prefix: str, hooks: dict):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, key, hooks.get(key)))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, key, hooks.get(key))
            else:
                continue
            self._rebind(cls, attr, new)

    def _rebind(self, target, attr: str, new):
        self._restore.append((target, attr, vars(target)[attr]))
        setattr(target, attr, new)

    def uninstall(self):
        while self._restore:
            target, attr, orig = self._restore.pop()
            setattr(target, attr, orig)

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        n, k = names.size, len(self.names)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)[:n]
        self_by_name = np.bincount(names, weights=dur - child, minlength=k)
        count_by_name = np.bincount(names, minlength=k)

        def ids(*qual: str) -> list[int]:
            return [self._name_ids[q] for q in qual if q in self._name_ids]

        def self_of(layer: str) -> float:
            return float(sum(self_by_name[i] for i, nm in enumerate(self.names)
                             if nm.split(".", 1)[0] == layer))

        def self_named(*qual: str) -> float:
            return float(sum(self_by_name[i] for i in ids(*qual)))

        def count(*qual: str) -> int:
            return int(sum(count_by_name[i] for i in ids(*qual)))

        def incl(*qual: str) -> float:
            """Time under the outermost spans named in qual."""
            inset = np.isin(names, ids(*qual))
            total = 0.0
            for i in np.flatnonzero(inset):
                p = parents[i]
                while p >= 0 and not inset[p]:
                    p = parents[p]
                if p < 0:
                    total += dur[i]
            return float(total)

        linalg_calls = sum(s["calls"] for s in self.linalg.values())
        linalg_mats = sum(s["matrices"] for s in self.linalg.values())
        invert = (
            "families.member_invertibility", "families.invertible_via_exhausting",
            "families.invertible_via_faithful", "families.direct_invertible",
        )
        return {
            "cli.self_s": self_of("cli"),
            "scenario.parse_s": self_named("scenario.load_scenario", "scenario.parse_scenario"),
            "scenario.report_s": self_named("scenario.report_text"),
            "gallery.build_s": incl("gallery.build_model", "gallery.build_family"),
            "families.self_s": self_of("families"),
            "families.probes_s": self_named("families.standard_probes"),
            "families.cert_s": incl(*(f"families.{c}" for c in CHECKS)),
            "families.invert_s": incl(*invert),
            "families.spectrum_union_s": self_named("families.spectrum_union"),
            "families.cert_calls": count(*(f"families.{c}" for c in CHECKS)),
            "families.norm_via_family_calls": count("families.norm_via_family"),
            "families.cert_useful_ratio": self._cert_ratio(),
            "models.self_s": self_of("models"),
            "models.rep_apply_calls": count("models.rep_apply"),
            "models.value_at_calls": count("models.AlgebraElement.value_at"),
            "models.elem_norm_calls": count("models.elem_norm"),
            "models.toeplitz_norm_calls": count("models.toeplitz_norm"),
            "models.rep_apply_useful_ratio": self._rep_apply_ratio(),
            "models.toeplitz_norm_useful_ratio": self._toeplitz_norm_ratio(),
            "spectral.self_s": self_of("spectral"),
            "spectral.canonical_points": self.canonical_points,
            "spectral.eig_normal_calls": count("spectral.eig_normal"),
            "spectral.op_norm_calls": count("spectral.op_norm"),
            "observables.self_s": self_of("observables"),
            "observables.fibers": self.fibers,
            "parametric.self_s": self_of("parametric"),
            "parametric.spectrum_s": incl("parametric.spectrum_parametric"),
            "parametric.invertible_s": incl("parametric.invertible_parametric"),
            "parametric.fiber_calls": count("parametric.fiber"),
            "parametric.principal_symbol_calls": count("parametric.principal_symbol"),
            "linalg.self_s": self_of("linalg"),
            "linalg.svd_calls": self.linalg["svd"]["calls"],
            "linalg.eigh_calls": self.linalg["eigh"]["calls"],
            "linalg.eigvalsh_calls": self.linalg["eigvalsh"]["calls"],
            "linalg.matrices": linalg_mats,
            "linalg.matrices_per_call": linalg_mats / linalg_calls if linalg_calls else 0.0,
            "linalg.flops_computed": sum(s["flops"] for s in self.linalg.values()),
            "linalg.bytes_computed": sum(s["bytes"] for s in self.linalg.values()),
        }

    def _element_keys(self, elements) -> list[bytes]:
        memo: dict = {}
        out = []
        for el in elements:
            # elements compare by identity, so memo holds one entry per object
            key = memo.get(el)
            if key is None:
                key = memo[el] = _value_key(el)
            out.append(key)
        return out

    def _rep_apply_ratio(self) -> float:
        if not self.rep_apply_args:
            return 0.0
        keys = self._element_keys(el for _, el in self.rep_apply_args)
        distinct = {(member, k) for (member, _), k in zip(self.rep_apply_args, keys)}
        return len(distinct) / len(self.rep_apply_args)

    def _toeplitz_norm_ratio(self) -> float:
        if not self.toeplitz_norm_args:
            return 0.0
        return len(set(self._element_keys(self.toeplitz_norm_args))) / len(self.toeplitz_norm_args)

    def _cert_ratio(self) -> float:
        if not self.cert_args:
            return 0.0
        distinct = {
            (scen, check, family, tuple(p.label for p in probes))
            for scen, check, family, probes in self.cert_args
        }
        return len(distinct) / len(self.cert_args)

    def save(self, path):
        """Write the spans; names and scenarios index the integer columns."""
        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            scenario=np.frombuffer(self.span_scenario, dtype=np.int32),
            names=np.array(self.names),
            scenarios=np.array(self.scenarios),
        )
