"""Outside-in span tracer for the tsring layers.

`Tracer.install()` wraps every public function of the layer modules and
every public method (plus `__init__`) of their classes, then rebinds each
wrapped object under every name it has in any `tsring.*` namespace, so
that a call through `from .groupmodel import conj` is seen just like a
call through `groupmodel.conj`.  Nothing under `src/` is edited.

Spans are aggregated in memory while the program runs and written out by
the caller when it ends.  Per function: calls, inclusive seconds (only
the outermost of recursive calls counts) and self seconds (inclusive
minus the time of traced children).  Per (parent, child) edge: calls, so
that ratios such as conj calls made by canonicalize can be taken where
the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "tring", "mackey", "groupmodel", "exactarith", "cartan", "blocks")

# Per-element methods run millions of times (about 5.2M g_mul calls on
# (7,2,3)); wrapping them would make the trace measure the tracer.  Their
# cost lands in the self time of the traced caller instead.
UNTRACED_CLASSES = {
    "exactarith.IntegerRing",
    "exactarith.RationalField",
    "exactarith.PrimeField",
    "exactarith.CyclotomicRing",
    "tring.RingElement",
    "tring.ProjPair",
    "tring.NonProj",
    "groupmodel.AutCoset",
}
UNTRACED_METHODS = {
    "groupmodel.ModelParams.g_mul",
    "groupmodel.ModelParams.g_inv",
    "groupmodel.ModelParams.g_conj",
    "groupmodel.ModelParams.char_value",
    "groupmodel.ModelParams.nontrivial_coset_count",
    "blocks.LevelGroup.mul",
    "blocks.LevelGroup.inv",
    "blocks.LevelGroup.power",
    "blocks.LevelGroup.character_exponent",
}

# Functions whose results are counted when they are not None, giving the
# share of useful outcomes among attempts.
COUNT_NOT_NONE = {"mackey.MackeyOracle.star_module"}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, seconds spent in traced children]
        self.active: dict[str, int] = {}
        self.functions: dict[str, list] = {}  # name -> [calls, s, self_s, not_none]
        self.edges: dict[tuple, int] = {}  # (parent, child) -> calls
        self.traced: set[str] = set()

    def _enter(self, name):
        self.stack.append([name, 0.0])
        self.active[name] = self.active.get(name, 0) + 1

    def _leave(self, name, dt, not_none=0):
        frame = self.stack.pop()
        depth = self.active[name]
        self.active[name] = depth - 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dt
        rec = self.functions.get(name)
        if rec is None:
            rec = self.functions[name] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        if depth == 1:
            rec[1] += dt
        rec[2] += dt - frame[1]
        rec[3] += not_none
        edge = (parent[0] if parent is not None else None, name)
        self.edges[edge] = self.edges.get(edge, 0) + 1

    @contextmanager
    def span(self, name):
        """An explicit span, for boundaries that are not a single call."""
        self.traced.add(name)
        self._enter(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._leave(name, perf_counter() - t0)

    def wrap(self, name, fn):
        self.traced.add(name)
        enter, leave = self._enter, self._leave
        count_result = name in COUNT_NOT_NONE

        def traced(*args, **kwargs):
            enter(name)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(name, perf_counter() - t0, count_result and result is not None)

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap the layers of `tsring` and rebind every name they have."""
        modules = {m: importlib.import_module(f"tsring.{m}") for m in LAYERS}
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(f"{short}.{attr}", obj)
                elif inspect.isroutine(obj):
                    replaced[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != "tsring" and not name.startswith("tsring."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, qual, cls):
        if qual in UNTRACED_CLASSES or issubclass(cls, BaseException):
            return
        for attr, obj in list(vars(cls).items()):
            name = f"{qual}.{attr}"
            if not inspect.isfunction(obj) or name in UNTRACED_METHODS:
                continue
            if attr.startswith("_") and attr != "__init__":
                continue
            setattr(cls, attr, self.wrap(name, obj))

    def dump(self) -> dict:
        return {
            "traced": sorted(self.traced),
            "functions": {
                name: {"calls": c, "s": s, "self_s": self_s, "not_none": nn}
                for name, (c, s, self_s, nn) in sorted(self.functions.items())
            },
            "edges": [
                {"parent": parent, "child": child, "calls": calls}
                for (parent, child), calls in sorted(
                    self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
                )
            ],
        }
