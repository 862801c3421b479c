"""Spans around medlog's public functions, installed only for the traced run.

``Tracer.install`` wraps every public module-level function of the layer
modules, and rebinds the wrapper wherever medlog binds that function: in its
own module, in every medlog module that imported the name (``kpform.valid_on``
is ``medvedev.valid_on``), and in the package namespace.  ``remove`` puts the
original objects back.

Spans are aggregated by (parent, child) edge as they close, because a single
``nf-verify`` pass opens tens of thousands of them.  A span's self time is its
duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

LAYERS = ("formula", "medvedev", "ipc", "kpform", "alpha", "structural", "randgen", "cli")

# Helpers on the inner loops of the forcing kernel and the frame code
# (down_closure runs millions of times in one nf-verify run): a span around
# each call would cost more than the call.  Their time counts as the self
# time of the wrapped function that calls them.
UNWRAPPED = frozenset({"down_closure", "close_up", "is_upset", "gens", "world",
                       "upset_from_worlds"})

ROOT = "task"


def _tree_size(f, memo: dict) -> int:
    """Node count of a formula as a tree, each shared object walked once."""
    hit = memo.get(id(f))
    if hit is None:
        children = [getattr(f, a) for a in ("body", "lhs", "rhs") if hasattr(f, a)]
        hit = 1 + sum(_tree_size(c, memo) for c in children)
        memo[id(f)] = hit
    return hit


def _valid_on(counts, args, kwargs, result):
    fr = args[0] if args else kwargs["fr"]
    counts["medvedev.valuations_checked"] += result.checked
    counts["medvedev.valuation_worlds"] += result.checked * fr.world_count
    kind = "exhaustive_calls" if result.exhaustive else "sampled_calls"
    counts[f"medvedev.valid_on.{kind}"] += 1


# work counts read off a wrapped function's result
HOOKS = {
    "medvedev.valid_on": _valid_on,
    "medvedev.compile_formula": lambda counts, args, kwargs, result: counts.update(
        {"medvedev.prog_instrs": len(result)}),
    "formula.apply_subst": lambda counts, args, kwargs, result: counts.update(
        {"formula.subst_image_nodes": _tree_size(result, {})}),
    "kpform.kp_normalize": lambda counts, args, kwargs, result: counts.update(
        {"kpform.bodies": len(result)}),
    "cli.main": lambda counts, args, kwargs, result: counts.update(
        {f"cli.exit_{result}": 1}),
}


class Tracer:
    """Installs and removes the wrappers, and holds what they record."""

    def __init__(self, lib):
        self.lib = lib
        self._saved: list[tuple] = []
        # shared with the wrappers, so cleared in place, never rebound
        self.stack: list[list] = []  # open spans [name, ns in children], root first
        self.edges: dict = {}  # (parent, child) -> [calls, total ns, self ns]
        self.counts: Counter = Counter()  # work counts and exceptions raised
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far."""
        self.stack[:] = [[ROOT, 0]]
        self.edges.clear()
        self.counts.clear()

    def targets(self) -> dict[int, tuple[str, object]]:
        """id of each function to wrap -> (span name, function)."""
        out = {}
        for layer in LAYERS:
            mod = getattr(self.lib, layer)
            for name, obj in vars(mod).items():
                fn = getattr(obj, "__wrapped__", obj)  # lru_cache wrappers
                if (name.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        # a generator's work happens in its consumer
                        or inspect.isgeneratorfunction(fn)):
                    continue
                out[id(obj)] = (f"{layer}.{name}", obj)
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {i: self._wrap(key, fn) for i, (key, fn) in self.targets().items()}
        for mod in [self.lib.package, self.lib.errors] + [getattr(self.lib, m) for m in LAYERS]:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def remove(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def _wrap(self, key: str, fn):
        stack, edges, counts = self.stack, self.edges, self.counts
        clock = time.perf_counter_ns
        hook = HOOKS.get(key)

        def close(span, parent, t0, t1, t2):
            stack.pop()
            rec = edges.get((parent[0], key))
            if rec is None:
                rec = edges[parent[0], key] = [0, 0, 0]
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += t1 - t0 - span[1]
            parent[1] += t2 - t0  # a hook's time is the tracer's, not the parent's

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == key:  # direct recursion folds into the outer span
                return fn(*args, **kwargs)
            span = [key, 0]
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                counts[f"{key}.raised.{type(exc).__name__}"] += 1
                close(span, parent, t0, t1, t1)
                raise
            t1 = clock()
            if hook is not None:
                hook(counts, args, kwargs, result)
            close(span, parent, t0, t1, clock())
            return result

        wrapper.perfbench_span = key
        return wrapper

    def task_span(self, run, *args):
        """Run one task under the root span so its top-level calls link to it."""
        if len(self.stack) != 1:
            raise RuntimeError("span stack not empty between tasks")
        root = self.stack[0]
        root[1] = 0
        t0 = time.perf_counter_ns()
        try:
            return run(*args)
        finally:
            dur = time.perf_counter_ns() - t0
            rec = self.edges.setdefault((None, ROOT), [0, 0, 0])
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - root[1]


def span_totals(edges: dict) -> dict[str, list[int]]:
    """Per function: [calls, total ns, self ns], summed over its callers."""
    out: dict[str, list[int]] = {}
    for (_, child), rec in edges.items():
        agg = out.setdefault(child, [0, 0, 0])
        for i in range(3):
            agg[i] += rec[i]
    return out
