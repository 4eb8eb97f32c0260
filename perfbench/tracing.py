"""Spans around the public functions of each qtcatalan layer.

The tracer replaces names where callers look them up (module globals and
class attributes) with wrappers that record one span per call: name, parent
span, start and end.  Spans live in flat arrays while the run is traced and
are written out when it ends.  ``restore`` puts every original object back.

Layer metrics are derived from the spans: call counts, self time (a span's
duration minus that of its child spans), inclusive per-call percentiles and
work counts (term products of polynomial multiplies, terms divided).
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from importlib import import_module

#: (module, attribute, span name).  A span name is "<layer>.<function>".
#: Route functions are wrapped where their callers look them up: the
#: package namespace (used by the route sweeps) and the verification module.
FUNCTION_TARGETS = [
    ("qtcatalan", "f_tesler", "tesler.f_tesler"),
    ("qtcatalan", "f_tableaux", "tableaux.f_tableaux"),
    ("qtcatalan.verification", "f_tesler", "tesler.f_tesler"),
    ("qtcatalan.verification", "f_tableaux", "tableaux.f_tableaux"),
    ("qtcatalan.verification", "h_tableaux", "tableaux.h_tableaux"),
    ("qtcatalan.verification", "_run_case", "verification.check"),
    ("qtcatalan.rational", "exact_divide", "rational.exact_divide"),
] + [
    ("qtcatalan.verification", name, f"closed_forms.{name}")
    for name in ("f1", "f2", "h2", "h3", "f3_recursive", "f3_two_step")
] + [
    ("qtcatalan.verification", name, f"chains.{name}")
    for name in (
        "f_chains", "f_stat", "hcomb_recursion_residual", "enumerate_tails",
        "enumerate_pseudoheads", "enumerate_heads", "enumerate_quasiheads",
        "chain_of", "area", "locate", "stat", "subpartitions3",
    )
]

#: (module, class, attribute, span name) for the arithmetic kernels.
METHOD_TARGETS = [
    ("qtcatalan.poly", "LaurentPoly", "__mul__", "poly.mul"),
    ("qtcatalan.poly", "LaurentPoly", "__rmul__", "poly.mul"),
    ("qtcatalan.poly", "LaurentPoly", "__add__", "poly.add"),
    ("qtcatalan.poly", "LaurentPoly", "__radd__", "poly.add"),
    ("qtcatalan.rational", "FactoredRational", "__add__", "rational.add"),
    ("qtcatalan.rational", "FactoredRational", "__radd__", "rational.add"),
]

LAYERS = ("poly", "rational", "tableaux", "tesler", "closed_forms", "chains", "verification")


def _mul_work(a, b) -> int:
    return len(a) * (len(b) if hasattr(b, "terms") else 1)


def _divide_work(p, factor) -> int:
    return len(p)


#: Work counted per span name, from the call's arguments.
WORK = {"poly.mul": _mul_work, "rational.exact_divide": _divide_work}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent_of = array("q")
        self.start_of = array("q")
        self.end_of = array("q")
        self.work: dict[str, int] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, name: str):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.work[name] = 0
        nid = self._ids[name]
        work_of = WORK.get(name)
        name_of, parent_of = self.name_of, self.parent_of
        start_of, end_of = self.start_of, self.end_of
        stack, work, clock = self._stack, self.work, time.perf_counter_ns

        def span(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent_of.append(stack[-1])
            end_of.append(0)
            if work_of is not None:
                work[name] += work_of(*args)
            stack.append(i)
            start_of.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_of[i] = clock()
                stack.pop()

        span.__wrapped__ = fn
        return span

    def install(self) -> "Tracer":
        for module, attr, name in FUNCTION_TARGETS:
            owner = import_module(module)
            self._replace(owner, attr, name)
        for module, cls, attr, name in METHOD_TARGETS:
            owner = getattr(import_module(module), cls)
            self._replace(owner, attr, name)
        return self

    def _replace(self, owner, attr: str, name: str) -> None:
        # read through __dict__ so a class attribute is restored as stored
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name_of)

    def durations_and_self(self) -> tuple[list[int], list[int]]:
        n = len(self)
        dur = [self.end_of[i] - self.start_of[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent_of[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def write(self, path) -> None:
        """One JSON header line, then the four columns as raw arrays."""
        header = {
            "names": self.names,
            "count": len(self),
            "columns": [["name", "H"], ["parent", "q"], ["start_ns", "q"], ["end_ns", "q"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_of, self.parent_of, self.start_of, self.end_of):
                col.tofile(fh)


def read_spans(path) -> tuple[list[str], list[tuple[int, int, int, int]]]:
    """Read a file written by ``Tracer.write``: (names, [(name, parent, start, end)])."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = []
        for _, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            cols.append(col)
    return header["names"], list(zip(*cols))


def _ms_quantiles(durations_ns: list[int]) -> tuple[float, float]:
    if not durations_ns:
        return 0.0, 0.0
    ms = [d / 1e6 for d in durations_ns]
    if len(ms) == 1:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times from the recorded spans."""
    dur, self_ns = tracer.durations_and_self()
    names = tracer.names
    layer_ids = {layer: {i for i, nm in enumerate(names) if nm.split(".")[0] == layer} for layer in LAYERS}
    by_name = {nm: i for i, nm in enumerate(names)}
    nid_of = tracer.name_of

    calls = [0] * len(names)
    self_by_name = [0] * len(names)
    durs_by_name: list[list[int]] = [[] for _ in names]
    for i, nid in enumerate(nid_of):
        calls[nid] += 1
        self_by_name[nid] += self_ns[i]
        durs_by_name[nid].append(dur[i])

    # poly multiplies made under a Tesler span, at any depth
    tesler_ids = layer_ids["tesler"]
    mul_id = by_name["poly.mul"]
    under_tesler = bytearray(len(nid_of))
    tesler_muls = 0
    for i, nid in enumerate(nid_of):
        p = tracer.parent_of[i]
        inside = p >= 0 and (under_tesler[p] or nid_of[p] in tesler_ids)
        under_tesler[i] = inside
        if inside and nid == mul_id:
            tesler_muls += 1

    def count(name):
        return calls[by_name[name]]

    def seconds(name):
        return self_by_name[by_name[name]] / 1e9

    def layer_calls(layer):
        return sum(calls[i] for i in layer_ids[layer])

    def layer_self(layer):
        return sum(self_by_name[i] for i in layer_ids[layer]) / 1e9

    def layer_durs(layer):
        return [d for i in sorted(layer_ids[layer]) for d in durs_by_name[i]]

    tesler_calls = layer_calls("tesler")
    tab_p50, tab_p90 = _ms_quantiles(layer_durs("tableaux"))
    tes_p50, tes_p90 = _ms_quantiles(layer_durs("tesler"))
    return {
        "poly.mul_calls": count("poly.mul"),
        "poly.mul_term_products": tracer.work["poly.mul"],
        "poly.mul_s": seconds("poly.mul"),
        "poly.add_calls": count("poly.add"),
        "poly.add_s": seconds("poly.add"),
        "rational.exact_divide_calls": count("rational.exact_divide"),
        "rational.exact_divide_terms": tracer.work["rational.exact_divide"],
        "rational.exact_divide_s": seconds("rational.exact_divide"),
        "rational.add_calls": count("rational.add"),
        "rational.add_s": seconds("rational.add"),
        "tableaux.calls": layer_calls("tableaux"),
        "tableaux.self_s": layer_self("tableaux"),
        "tableaux.call_p50_ms": tab_p50,
        "tableaux.call_p90_ms": tab_p90,
        "tesler.calls": tesler_calls,
        "tesler.self_s": layer_self("tesler"),
        "tesler.mul_calls_per_call": tesler_muls / tesler_calls if tesler_calls else 0.0,
        "tesler.call_p50_ms": tes_p50,
        "tesler.call_p90_ms": tes_p90,
        "closed_forms.calls": layer_calls("closed_forms"),
        "closed_forms.self_s": layer_self("closed_forms"),
        "chains.calls": layer_calls("chains"),
        "chains.self_s": layer_self("chains"),
        "verification.checks": count("verification.check"),
        "verification.self_s": layer_self("verification"),
        "trace.spans": len(tracer),
    }
