"""Span tracer for opendyn's public functions, installed from outside.

Each traced function is replaced by a wrapper at every opendyn module
attribute that is bound to it (a name imported with ``from .x import f``
is a second binding of the same function), and each traced method is
replaced on its class.  A wrapper records one span per call: name,
parent span, start and end.  Self time is a span's duration minus the
durations of its traced children; calls run on one thread, so children
never overlap.  Spans stay in memory until the pass writes them out.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, qualified name) of every traced callable, in layer order
TARGETS = (
    ("opendyn.cli", "main"),
    ("opendyn.experiments", "run_local"),
    ("opendyn.experiments", "emit_report"),
    ("opendyn.seminorm", "estimate_LY"),
    ("opendyn.seminorm", "total_variation"),
    ("opendyn.cone", "select_parameters"),
    ("opendyn.mixing", "find_mixing_time"),
    ("opendyn.mixing", "mixing_ratios"),
    ("opendyn.mixing", "stability_check"),
    ("opendyn.maps", "perturbation_distance"),
    ("opendyn.transfer", "block_operator"),
    ("opendyn.transfer", "OperatorCache.get"),
    ("opendyn.transfer", "build_open"),
    ("opendyn.transfer", "build_closed"),
    ("opendyn.transfer", "UlamOperator.apply"),
)


def metric_prefix(module: str, qualname: str) -> str:
    """'opendyn.transfer', 'OperatorCache.get' -> 'transfer.OperatorCache.get'."""
    return module.split(".", 1)[1] + "." + qualname


def _count_nnz(stats, args, out, before):
    stats["nnz"] += int(out.matrix.nnz)


def _count_nnz_max(stats, args, out, before):
    stats["nnz_max"] = max(stats["nnz_max"], int(out.matrix.nnz))


def _cache_size(args):
    return len(args[0])


def _count_hit(stats, args, out, before):
    # a get that left the cache size unchanged served a stored operator
    stats["hits"] += int(len(args[0]) == before)


# work counters taken at the boundary:
# name -> (before hook, after hook, counter keys)
COUNTERS = {
    "transfer.build_closed": (None, _count_nnz, ("nnz",)),
    "transfer.block_operator": (None, _count_nnz_max, ("nnz_max",)),
    "transfer.OperatorCache.get": (_cache_size, _count_hit, ("hits",)),
}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, parent index or -1, start, end]
        self.stats = {}        # name -> {"calls", "total_s", "self_s", ...}
        self.bindings = {}     # name -> attributes rebound to the wrapper
        self._stack = []       # open span indices
        self._child_s = []     # traced-children seconds of each open span

    def _wrap(self, name: str, fn):
        before_hook, after_hook, _ = COUNTERS.get(name, (None, None, ()))
        stats = self.stats[name]
        spans, stack, child_s = self.spans, self._stack, self._child_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = before_hook(args) if before_hook else None
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(idx)
            child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                inner = child_s.pop()
                dur = t1 - t0
                spans[idx][2:] = [t0, t1]
                if child_s:
                    child_s[-1] += dur
                stats["calls"] += 1
                stats["total_s"] += dur
                stats["self_s"] += dur - inner
            if after_hook:
                after_hook(stats, args, out, before)
            return out

        return wrapper

    def install(self) -> None:
        """Rebind every target; opendyn must already be imported."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "opendyn" or key.startswith("opendyn."))]
        for modname, qualname in TARGETS:
            name = metric_prefix(modname, qualname)
            keys = COUNTERS.get(name, (None, None, ()))[2]
            self.stats[name] = dict({"calls": 0, "total_s": 0.0, "self_s": 0.0},
                                    **{k: 0 for k in keys})
            self.bindings[name] = []
            owner = sys.modules.get(modname)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    self.bindings[name] = [f"{modname}.{qualname}"]
                continue
            # a target a later version removed reads as zero calls
            orig = getattr(owner, qualname, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig)
            bound = []
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        bound.append(f"{mod.__name__}.{attr}")
            self.bindings[name] = sorted(bound)

    def layer_metrics(self) -> dict:
        """Per-layer figures named as in BENCHMARK.json (without overhead)."""
        out = {}
        for name, st in self.stats.items():
            for key, value in st.items():
                if key not in ("total_s", "hits"):
                    out[f"{name}.{key}"] = value
        gets = self.stats["transfer.OperatorCache.get"]
        out["transfer.OperatorCache.hit_ratio"] = \
            gets["hits"] / gets["calls"] if gets["calls"] else 0.0
        return out
