"""Per-layer spans recorded from outside the library.

The tracer replaces the public functions of each ``mton`` module (and a
few methods) with timing wrappers, in every ``mton`` module namespace
that holds them, so that calls made inside the library go through the
wrappers too.  Nothing under ``src/mton`` is edited.  Spans are
aggregated in memory as they close: per span name it keeps the call
count, the busy (inclusive) time, the self time (busy minus the time
covered by child spans) and a work count; per layer it keeps the time
in which at least one span of that layer was open.

Generators (``tree.iter_level``, ``tree.stream_level``) are timed per
``next()``, so their busy time excludes the consumer's loop body and
their work count is the number of nodes yielded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("tree", "laplace", "stats", "polynomials", "closed_forms",
          "cumulants", "reference", "partitions", "harness", "cli")

# methods are not module attributes, so they are listed by hand
METHODS = {
    "polynomials": {"ExactPolynomial": ("__mul__", "__add__", "__sub__",
                                        "derivative", "evaluate", "scaled",
                                        "shifted")},
    "harness": {"Check": ("run",)},
}
_METHOD_NAMES = {"__mul__": "mul", "__add__": "add", "__sub__": "sub"}


def _scan_nodes(args, kwargs, result) -> int:
    return sum(sum(counter.values()) for counter in result.values())


# span name -> function(args, kwargs, result) giving the work done
WORK = {
    "laplace.scan_chunk": _scan_nodes,
    "tree.children": lambda a, k, r: len(r),
    "tree.pair_children": lambda a, k, r: len(r),
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# span name -> function(args, kwargs) giving a sub-key; the span is also
# aggregated under "<name>[<key>]"
KEYS = {
    "laplace.scan_chunk": lambda a, k: _arg(a, k, 0, "kind"),
    "laplace.recursion_transform": lambda a, k: f"n{_arg(a, k, 1, 'n')}",
    "cumulants.moments_from_cumulants":
        lambda a, k: f"order{_arg(a, k, 1, 'upto') or len(a[0])}",
    "cumulants.cumulants_from_moments":
        lambda a, k: f"order{_arg(a, k, 1, 'upto') or len(a[0])}",
}

# span names whose callers are counted, as (caller, callee) pairs
CALLERS_OF = {"laplace.scan_chunk"}

# span names whose open call labels every span beneath it (the check id)
CONTEXT = {"harness.Check.run": lambda a, k: a[0].spec.id}


class _Agg:
    __slots__ = ("calls", "busy", "self_time", "work")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.work = 0

    def to_json(self) -> dict:
        return {"calls": self.calls, "busy_s": self.busy,
                "self_s": self.self_time, "work": self.work}


class Tracer:
    """Aggregating span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: dict[str, _Agg] = defaultdict(_Agg)
        self.layer_busy: Counter = Counter()
        self.edges: Counter = Counter()  # (caller, callee) -> calls
        self.by_context: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[list] = []  # [name, layer, start, child_s, aggs]
        self._depth: Counter = Counter()       # open spans per name
        self._layer_depth: Counter = Counter()
        self._layer_start: dict[str, float] = {}
        self._context: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- span bookkeeping --------------------------------------------------

    def _aggs(self, name: str, key: str | None) -> tuple[_Agg, ...]:
        if key is None:
            return (self.spans[name],)
        return (self.spans[name], self.spans[f"{name}[{key}]"])

    def _enter(self, name: str, layer: str, aggs: tuple[_Agg, ...],
               call: bool = True) -> None:
        # bookkeeping first, clock last, so the span covers the call only
        if call:
            for agg in aggs:
                agg.calls += 1
        stack = self._stack
        if name in CALLERS_OF and stack:
            self.edges[(stack[-1][0], name)] += 1
        self._layer_depth[layer] += 1
        self._depth[name] += 1
        frame = [name, layer, 0.0, 0.0, aggs]
        stack.append(frame)
        frame[2] = now = time.perf_counter()
        if self._layer_depth[layer] == 1:
            self._layer_start[layer] = now

    def _exit(self, work: int = 0) -> None:
        now = time.perf_counter()
        name, layer, start, child, aggs = self._stack.pop()
        elapsed = now - start
        if self._stack:
            self._stack[-1][3] += elapsed
        self._depth[name] -= 1
        outermost = self._depth[name] == 0
        for agg in aggs:
            agg.self_time += elapsed - child
            agg.work += work
            if outermost:
                agg.busy += elapsed
        if outermost and self._context:
            self.by_context[self._context[-1]][name] += elapsed
        self._layer_depth[layer] -= 1
        if self._layer_depth[layer] == 0:
            self.layer_busy[layer] += now - self._layer_start[layer]

    def span(self, name: str, layer: str):
        """Context manager for a span opened by benchmark code itself."""
        tracer = self
        aggs = self._aggs(name, None)

        class _Span:
            def __enter__(self):
                tracer._enter(name, layer, aggs)

            def __exit__(self, *exc):
                tracer._exit()
                return False

        return _Span()

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, name: str, layer: str, fn):
        tracer = self
        keyer = KEYS.get(name)
        worker = WORK.get(name)
        labeller = CONTEXT.get(name)
        plain = self._aggs(name, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            aggs = tracer._aggs(name, keyer(args, kwargs)) if keyer else plain
            if labeller:
                tracer._context.append(labeller(args, kwargs))
            tracer._enter(name, layer, aggs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit()
                if worker and result is not None:
                    work = worker(args, kwargs, result)
                    for agg in aggs:
                        agg.work += work
                if labeller:
                    tracer._context.pop()

        return wrapper

    def _wrap_generator(self, name: str, layer: str, fn):
        tracer = self
        aggs = self._aggs(name, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            aggs[0].calls += 1
            inner = fn(*args, **kwargs)
            while True:
                tracer._enter(name, layer, aggs, call=False)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._exit()
                    return
                except BaseException:
                    tracer._exit()
                    raise
                tracer._exit(work=1)
                yield item

        return wrapper

    def _wrap(self, name: str, layer: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, layer, fn)
        return self._wrap_function(name, layer, fn)

    def install(self) -> "Tracer":
        """Wrap every public function of every layer, wherever bound."""
        modules = {layer: sys.modules.get(f"mton.{layer}") for layer in LAYERS}
        if any(m is None for m in modules.values()):
            import mton.cli  # noqa: F401  (loads every layer)
            modules = {layer: sys.modules[f"mton.{layer}"] for layer in LAYERS}
        namespaces = [m for key, m in sys.modules.items()
                      if key == "mton" or key.startswith("mton.")]
        replacement: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                replacement[id(obj)] = self._wrap(name, layer, obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    short = _METHOD_NAMES.get(meth, meth)
                    name = (f"{layer}.{short}" if layer == "polynomials"
                            else f"{layer}.{cls_name}.{meth}")
                    self.originals[name] = fn
                    self._patches.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(name, layer, fn))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapped = replacement.get(id(obj))
                if wrapped is not None and not attr.startswith("__"):
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for target, attr, obj in reversed(self._patches):
            setattr(target, attr, obj)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data aggregates, mergeable across processes."""
        lru = {}
        for name, obj in self.originals.items():
            info = getattr(obj, "cache_info", None)
            if info is not None:
                ci = info()
                lru[name] = {"hits": ci.hits, "misses": ci.misses}
        return {
            "spans": {name: agg.to_json() for name, agg in self.spans.items()},
            "layers": dict(self.layer_busy),
            "edges": {f"{p}>{c}": n for (p, c), n in self.edges.items()},
            "by_context": {ctx: dict(c) for ctx, c in self.by_context.items()},
            "lru": lru,
        }


def merge_snapshots(snaps: list[dict]) -> dict:
    """Sum snapshots taken in separate processes."""
    out = {"spans": {}, "layers": Counter(), "edges": Counter(),
           "by_context": defaultdict(Counter), "lru": {}}
    for snap in snaps:
        for name, agg in snap["spans"].items():
            acc = out["spans"].setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0})
            for field in acc:
                acc[field] += agg[field]
        out["layers"].update(snap["layers"])
        out["edges"].update(snap["edges"])
        for ctx, counter in snap["by_context"].items():
            out["by_context"][ctx].update(counter)
        for name, info in snap["lru"].items():
            acc = out["lru"].setdefault(name, {"hits": 0, "misses": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
    return out
