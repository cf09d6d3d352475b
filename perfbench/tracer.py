"""In-process tracer for one qortho CLI invocation.

`install` wraps the public functions of every qortho layer module and
rebinds each wrapper in every qortho module that imported the original,
so calls across module boundaries go through it.  Two kinds of probe
share one frame stack:

* span probes, on every layer except scalars, record the first
  SPAN_LIMIT calls of each function as (id, name, start, end, parent,
  invocation, self_s) in memory; later calls are counted and timed like
  aggregate ones, so an envelope run (130k `pairing` calls) keeps a
  bounded trace;
* aggregate probes, on the Scalar operators and the other public scalars
  functions, only count calls and accumulate time: the operators run
  about a million times per envelope invocation.

Every frame, of either kind, charges its duration to its caller, so a
layer's self time is its frames' durations minus the time spent in the
wrapped calls they made, and a span's parent is the nearest enclosing
recorded span.  Counts and times cover every call.  Nothing here
changes what the program prints.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("scalars", "itensor", "rmatrix", "presentations", "envelope",
          "calculus", "cli")

# Monomial and polynomial kernels run inside the Scalar operators; their
# time is part of the operator that called them.
SCALAR_KERNELS = frozenset(
    ("mono_mul", "mono_inv", "poly_add", "poly_neg", "poly_mul"))
SCALAR_OPERATORS = ("__add__", "__sub__", "__mul__", "__neg__")

SPAN_LIMIT = 256

Span = Tuple[int, str, float, float, int, str, float]


class Tracer:
    """Frame stack, call counts, per-layer self time and span records.

    `clock` is injectable so the accounting can be tested with synthetic
    times.
    """

    def __init__(self, invocation: str = "",
                 clock: Callable[[], float] = time.perf_counter):
        self.invocation = invocation
        self.clock = clock
        # open frames: [seconds spent in wrapped callees, enclosing span id]
        self.stack: List[list] = []
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = {}
        self.inclusive_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.tallies: Dict[str, int] = {}
        self._next_id = 1

    def wrap(self, layer: str, name: str, fn: Callable, span: bool,
             observe: Optional[Callable] = None) -> Callable:
        """Return fn wrapped as a probe named `name` in `layer`.

        `observe(tracer, args, result)` runs inside the timed frame after
        a successful call; it feeds `tallies`.
        """
        calls, incl, layer_self = self.calls, self.inclusive_s, self.self_s
        calls.setdefault(name, 0)
        incl.setdefault(name, 0.0)
        stack, spans, clock = self.stack, self.spans, self.clock
        invocation = self.invocation

        def probe(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1][1] if stack else 0
            recorded = span and calls[name] <= SPAN_LIMIT
            if recorded:
                sid = self._next_id
                self._next_id = sid + 1
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, args, result)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                layer_self[layer] += own
                incl[name] += dur
                if stack:
                    stack[-1][0] += dur
                if recorded:
                    spans.append((sid, name, t0, t1, parent, invocation, own))
            return result

        return functools.wraps(fn)(probe)

    def tally(self, key: str, amount: int = 1) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + amount

    def summary(self) -> dict:
        return {"calls": dict(self.calls),
                "inclusive_s": dict(self.inclusive_s),
                "self_s": dict(self.self_s),
                "tallies": dict(self.tallies)}


def _observe_mul(tracer: Tracer, args, result) -> None:
    a, b = args
    if a.is_laurent() and b.is_laurent():
        tracer.tally("scalars.mul.laurent")


def _observe_compose(tracer: Tracer, args, result) -> None:
    tracer.tally("itensor.entries_out", len(result.entries))


def _observe_triple(tracer: Tracer, args, result) -> None:
    tracer.tally("itensor.entries_out", len(result))


def _observe_reduce(tracer: Tracer, args, result) -> None:
    if result.terms == args[0].terms:
        tracer.tally("presentations.reduce.noop")


OBSERVERS = {
    "itensor.tensor_compose": _observe_compose,
    "itensor.triple_compose": _observe_triple,
    "presentations.reduce": _observe_reduce,
}


def install(tracer: Tracer) -> None:
    """Wrap every public qortho layer function and the Scalar operators.

    The layer modules must already be imported.  Each wrapper replaces
    the original in every loaded qortho module that holds it by name.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "qortho"
                                     or name.startswith("qortho."))]
    replaced: Dict[int, Callable] = {}
    for layer in LAYERS:
        mod = sys.modules["qortho." + layer]
        for attr, obj in sorted(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            if layer == "scalars" and attr in SCALAR_KERNELS:
                continue
            name = "%s.%s" % (layer, attr)
            replaced[id(obj)] = tracer.wrap(layer, name, obj,
                                            layer != "scalars",
                                            OBSERVERS.get(name))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and wrapper.__wrapped__ is obj:
                setattr(mod, attr, wrapper)

    scalar_cls = sys.modules["qortho.scalars"].Scalar
    for op in SCALAR_OPERATORS:
        observe = _observe_mul if op == "__mul__" else None
        setattr(scalar_cls, op, tracer.wrap(
            "scalars", "scalars.Scalar." + op, vars(scalar_cls)[op], False,
            observe))
    bundle_cls = sys.modules["qortho.rmatrix"].RMatrixBundle
    bundle_cls.__init__ = tracer.wrap(
        "rmatrix", "rmatrix.RMatrixBundle.__init__",
        vars(bundle_cls)["__init__"], True)


def gc_counts() -> Tuple[int, int]:
    """(collections of any generation, generation-2 collections) so far."""
    stats = gc.get_stats()
    return sum(s["collections"] for s in stats), stats[2]["collections"]
