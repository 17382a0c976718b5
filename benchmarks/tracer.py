"""Per-layer tracing of the ``addext`` package, installed from outside it.

The layers are the package modules. ``Tracer.install`` replaces each public
function of a layer (and the public ``FieldSpec`` methods) with a wrapper,
everywhere the package refers to it: ``from .x import f`` copies are patched
too. A wrapper always counts its call. It records a span (id, name, start,
end, parent span, run id) when the call crosses a layer boundary, when it has
no open span above it, or when the function is one whose own time is a
metric (``TIMED``); calls inside one layer are only counted, so the hot
field arithmetic does not flood the trace. Spans stay in memory, one list per
thread, and ``dump`` writes them out when the pass ends.

``summarize`` turns a dump into the per-layer metrics. A span's self time is
its duration minus the part of it that its child spans cover, so the
children of a thread pool, which overlap, are not subtracted twice. A
layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "sources", "extractors", "gf", "numtheory", "analysis", "suites")
FAMILIES = ("zp", "zpn", "line", "ap", "pgc")
SEARCHES = ("smallest_prime_congruent_one", "linnik_primes", "order_p_element",
            "smallest_primitive_root", "factorize", "primes_upto", "index_table")
CHARSUMS = ("additive_charsum", "encoded_charsum", "charsum_table")

# Functions whose time is a metric: always spanned. Private ones are wrapped
# only because they are listed here.
TIMED = {
    "cli": ("main", "_load_validated"),
    "sources": ("build_source", "sym_set", "doubling"),
    "extractors": tuple(f"build_{f}_extractor" for f in FAMILIES)
                  + tuple(f"{f}_extract" for f in FAMILIES),
    "gf": ("norm_poly_eval", "get_extension"),
    "numtheory": SEARCHES + ("discrete_log",),
    "analysis": CHARSUMS + ("extractor_distribution", "moment_sum"),
    "suites": None,  # every suite_* function, filled in by install()
}


class _ThreadState:
    __slots__ = ("index", "stack", "spans", "counts", "errors", "extra",
                 "last_error", "seq")

    def __init__(self, index: int):
        self.index = index
        self.stack: list[tuple[int, str]] = []     # (span id, layer) of open spans
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self.last_error = None
        self.seq = 0


class Tracer:
    def __init__(self):
        self.run_id = 0
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = self._state()
        self._undo: list = []
        self._layer_of: dict[str, str] = {}
        self._lru = None
        self._suites: dict[str, str] = {}

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.st = st
        return st

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, fn, name: str, layer: str, timed: bool, probe=None):
        state, main, tracer = self._state, self._main, self
        perf = time.perf_counter
        memory = name == "sources.sym_set"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            st.counts[name] += 1
            stack = st.stack
            if stack:
                if not timed and stack[-1][1] == layer:
                    try:
                        return fn(*args, **kwargs)
                    except BaseException as exc:
                        tracer._error(st, name, exc)
                        raise
                parent = stack[-1][0]
            elif st is not main and main.stack:
                parent = main.stack[-1][0]   # a pool thread's work belongs to its caller
            else:
                parent = None
            st.seq += 1
            sid = (st.index << 40) | st.seq
            stack.append((sid, layer))
            own_memory = memory and not tracemalloc.is_tracing()
            if own_memory:
                tracemalloc.start()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(st, name, exc)
                raise
            finally:
                t1 = perf()
                stack.pop()
                st.spans.append((sid, name, t0, t1, parent, tracer.run_id))
                if own_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    st.extra["sources.sym_set.peak_mib"] = max(
                        st.extra["sources.sym_set.peak_mib"], peak)
            if probe is not None:
                probe(st.extra, args, kwargs, result, t1 - t0)
            return result

        return wrapper

    @staticmethod
    def _error(st: _ThreadState, name: str, exc: BaseException) -> None:
        # an exception is counted once, in the innermost wrapped call it leaves
        if exc is not st.last_error:
            st.last_error = exc
            st.errors[name] += 1

    def install(self) -> None:
        """Wrap the package's public functions and ``FieldSpec`` methods."""
        import addext
        from addext import analysis, cli, extractors, gf, numtheory, sources, suites
        modules = {"cli": cli, "sources": sources, "extractors": extractors, "gf": gf,
                   "numtheory": numtheory, "analysis": analysis, "suites": suites}
        self._suites = {name: fn.__name__ for name, fn in suites.SUITES.items()}
        timed = dict(TIMED, suites=(*self._suites.values(), "suite_sweep"))
        probes = _probes()
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                inner = getattr(fn, "__wrapped__", fn)   # lru_cache keeps the function here
                if not (callable(fn) and inspect.isfunction(inner)
                        and inner.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and attr not in timed[layer]:
                    continue
                name = f"{layer}.{attr}"
                self._layer_of[name] = layer
                wrapped[id(fn)] = self._wrap(fn, name, layer, attr in timed[layer],
                                             probes.get(name))
        self._lru = gf.get_extension
        for attr, fn in list(vars(gf.FieldSpec).items()):
            if inspect.isfunction(fn) and not attr.startswith("_"):
                name = f"gf.FieldSpec.{attr}"
                self._layer_of[name] = "gf"
                self._patch(gf.FieldSpec, attr, self._wrap(fn, name, "gf", False))
        # patch every reference: `from .module import name` copies, and tables
        # of functions such as suites.SUITES, which the CLI dispatches through
        for mod in [addext, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._patch(mod, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._undo.append(functools.partial(value.__setitem__, key, item))
                            value[key] = wrapped[id(item)]

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append(functools.partial(setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- output --------------------------------------------------------------
    def dump(self, path: str) -> None:
        counts: dict[str, int] = defaultdict(int)
        errors: dict[str, int] = defaultdict(int)
        extra: dict[str, float] = defaultdict(float)
        spans = []
        for st in self._states:
            spans.extend(st.spans)
            for k, v in st.counts.items():
                counts[k] += v
            for k, v in st.errors.items():
                errors[k] += v
            for k, v in st.extra.items():
                extra[k] = max(extra[k], v) if k.endswith("peak_mib") else extra[k] + v
        extra["gf.get_extension.misses"] = self._lru.cache_info().misses
        columns = list(zip(*spans)) if spans else [()] * 6
        data = {"layers": self._layer_of, "suites": self._suites, "counts": counts,
                "errors": errors, "extra": extra,
                "spans": dict(zip(("id", "name", "start", "end", "parent", "run"),
                                  map(list, columns)))}
        with open(path, "w") as fh:
            json.dump(data, fh)


def _probes() -> dict:
    """Counters that need a call's arguments or result, by wrapped name."""

    def build_source(extra, args, kwargs, result, seconds):
        extra["sources.elements"] += len(result)

    def sym_set(extra, args, kwargs, result, seconds):
        extra["sources.sym_set.pairs"] += len(args[0]) ** 2

    def distribution(extra, args, kwargs, result, seconds):
        extra["extractors.points"] += len(args[0])

    def one_freq(extra, args, kwargs, result, seconds):
        extra["analysis.charsum.freqs"] += 1

    def charsum_table(extra, args, kwargs, result, seconds):
        values, modulus, freqs = args[:3]
        extra["analysis.charsum.freqs"] += len(freqs)
        extra["analysis.charsum.rows"] += 1
        extra["analysis.charsum.exact_rows"] += len(freqs) == modulus - 1

    def suite_sweep(extra, args, kwargs, result, seconds):
        # the sweep metrics describe the thread pool: serial sweeps are left out
        if (kwargs.get("threads") or 1) > 1:
            extra["suites.sweep.rows"] += len(args[0])
            extra["suites.sweep.row_s_sum"] += sum(r.seconds for r in result.rows)
            extra["suites.sweep.s"] += seconds

    return {"sources.build_source": build_source, "sources.sym_set": sym_set,
            "analysis.extractor_distribution": distribution,
            "analysis.additive_charsum": one_freq, "analysis.encoded_charsum": one_freq,
            "analysis.charsum_table": charsum_table, "suites.suite_sweep": suite_sweep}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _outer_time(spans: dict, names: set[str]) -> float:
    """Time inside calls of the named functions, nested calls counted once."""
    by_id = dict(zip(spans["id"], zip(spans["name"], spans["parent"])))
    total = 0.0
    for sid, name, t0, t1, parent in zip(spans["id"], spans["name"], spans["start"],
                                         spans["end"], spans["parent"]):
        if name not in names:
            continue
        while parent is not None and by_id[parent][0] not in names:
            parent = by_id[parent][1]
        if parent is None:
            total += t1 - t0
    return total


def summarize(data: dict, traced_wall: float, untraced_wall: float,
              bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans, counts, extra, layer_of = data["spans"], data["counts"], data["extra"], data["layers"]
    children: dict[int, list] = defaultdict(list)
    for parent, t0, t1 in zip(spans["parent"], spans["start"], spans["end"]):
        if parent is not None:
            children[parent].append((t0, t1))
    self_s: dict[str, float] = defaultdict(float)
    for sid, name, t0, t1 in zip(spans["id"], spans["name"], spans["start"], spans["end"]):
        self_s[layer_of[name]] += (t1 - t0) - _covered(children.get(sid, []), t0, t1)

    def calls(*names: str) -> int:
        return sum(counts.get(n, 0) for n in names)

    def outer(layer: str, *names: str) -> float:
        return _outer_time(spans, {f"{layer}.{n}" for n in names})

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        names = [n for n, lay in layer_of.items() if lay == layer]
        m[f"{layer}.calls"] = calls(*names)
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.errors"] = sum(data["errors"].get(n, 0) for n in names)
    m["cli.load_s"] = outer("cli", "_load_validated")
    m["cli.bytes_out"] = bytes_out
    m["sources.build_source.s"] = outer("sources", "build_source")
    m["sources.elements"] = extra.get("sources.elements", 0)
    m["sources.sym_set.s"] = outer("sources", "sym_set")
    m["sources.sym_set.pairs"] = extra.get("sources.sym_set.pairs", 0)
    m["sources.sym_set.peak_mib"] = extra.get("sources.sym_set.peak_mib", 0.0)
    m["sources.doubling.s"] = outer("sources", "doubling")
    points = extra.get("extractors.points", 0)
    m["extractors.points"] = points
    m["extractors.evals_per_point"] = ratio(
        calls(*(f"extractors.{f}_extract" for f in FAMILIES)), points)
    m["extractors.build.s"] = outer("extractors", *(f"build_{f}_extractor" for f in FAMILIES))
    for f in FAMILIES:
        m[f"extractors.{f}.us_per_point"] = 1e6 * ratio(
            outer("extractors", f"{f}_extract"), calls(f"extractors.{f}_extract"))
    m["gf.mul.calls"] = calls("gf.FieldSpec.mul")
    m["gf.pow.calls"] = calls("gf.FieldSpec.pow")
    m["gf.norm_poly_eval.calls"] = calls("gf.norm_poly_eval")
    m["gf.norm_poly_eval.us_per_call"] = 1e6 * ratio(
        outer("gf", "norm_poly_eval"), calls("gf.norm_poly_eval"))
    m["gf.get_extension.misses"] = extra.get("gf.get_extension.misses", 0)
    m["gf.get_extension.s"] = outer("gf", "get_extension")
    m["numtheory.discrete_log.calls"] = calls("numtheory.discrete_log")
    m["numtheory.search.s"] = outer("numtheory", *SEARCHES)
    m["analysis.charsum.freqs"] = extra.get("analysis.charsum.freqs", 0)
    m["analysis.charsum.s"] = outer("analysis", *CHARSUMS)
    m["analysis.charsum.exact_ratio"] = ratio(extra.get("analysis.charsum.exact_rows", 0),
                                              extra.get("analysis.charsum.rows", 0))
    m["analysis.distribution.s"] = outer("analysis", "extractor_distribution")
    m["analysis.moment_sum.s"] = outer("analysis", "moment_sum")
    for suite, fn in data["suites"].items():
        m[f"suites.{suite}.s"] = outer("suites", fn)
    m["suites.sweep.rows"] = extra.get("suites.sweep.rows", 0)
    m["suites.sweep.row_s_sum"] = extra.get("suites.sweep.row_s_sum", 0.0)
    m["suites.sweep.inflation"] = ratio(m["suites.sweep.row_s_sum"],
                                        extra.get("suites.sweep.s", 0.0))
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m
