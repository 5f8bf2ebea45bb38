"""Spans around every public function of treecount's modules, recorded from outside.

While a Tracer is installed, each public function of the layers below is
replaced, wherever it is bound as a module global, by a wrapper that records
a span: name, start, end and parent span. Because the library calls
its own functions through module globals, this sees calls inside a module
and from ``cli`` into the library. A generator records one span per
``next()`` call, marked as yielding an item or not, plus a zero-length span
for its creation, which is what its ``calls`` counts. Private helpers are
not wrapped, so their time counts toward the public caller's self time.

Spans live in flat arrays until their op ends, when they are folded into
per-function totals and cleared, so the op id of a span is the op being
folded. A traced op records about 10^4 spans and a 35-second run about
10^6, more as the program gets faster; folding per op bounds the tracer's
memory by one op.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

LAYERS = ("cli", "graph", "algebra", "counting", "degree_formula", "identity", "fpoly", "randgraph")

# functions whose result length is recorded as the span's terms
SIZED = frozenset({"algebra.multiply_forms"})

# float slack for comparing sums of perf_counter differences
EPS = 1e-9


def public_functions() -> dict[str, object]:
    """`<layer>.<function>` -> function, for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"treecount.{layer}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                found[f"{layer}.{name}"] = obj
    return found


class Totals:
    __slots__ = ("calls", "items", "terms", "self_s", "inclusive_s")

    def __init__(self) -> None:
        self.calls = self.items = self.terms = 0
        self.self_s = self.inclusive_s = 0.0


class Tracer:
    """Records spans while installed and folds them per op into `totals`."""

    def __init__(self) -> None:
        self.functions = public_functions()
        self.names = list(self.functions)
        self.totals = {name: Totals() for name in self.names}
        # items yielded by generators, keyed by (generator, parent span's function)
        self.items_under: Counter = Counter()
        self.ops = 0
        self.op_seconds = 0.0
        # spans with negative self time, plus ops whose self times outgrow them
        self.violations = 0
        self._name = array("i")
        self._next = array("b")
        self._parent = array("q")
        self._n = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._wrappers = {
            fn: self._wrap(code, name, fn) for code, (name, fn) in enumerate(self.functions.items())
        }

    def _wrap(self, code: int, name: str, fn):
        names, nexts, parents, ns = self._name, self._next, self._parent, self._n
        starts, ends, stack = self._start, self._end, self._stack
        sized = name in SIZED

        def open_span(is_next: int) -> int:
            i = len(names)
            names.append(code)
            nexts.append(is_next)
            parents.append(stack[-1])
            ns.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            return i

        class TracedIterator:
            __slots__ = ("gen",)

            def __init__(self, gen) -> None:
                self.gen = gen

            def __iter__(self):
                return self

            def __next__(self):
                i = open_span(1)
                try:
                    item = next(self.gen)
                    ns[i] = 1
                    return item
                finally:
                    ends[i] = perf_counter()
                    stack.pop()

        if inspect.isgeneratorfunction(fn):

            @wraps(fn)
            def traced_generator(*args, **kwargs):
                i = open_span(0)
                try:
                    return TracedIterator(fn(*args, **kwargs))
                finally:
                    ends[i] = starts[i]
                    stack.pop()

            return traced_generator

        @wraps(fn)
        def traced(*args, **kwargs):
            i = open_span(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if sized:
                ns[i] = len(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for every module global bound to a public function.

        Every swapped attribute is put back on exit, even if the body raised.
        """
        patched = []
        try:
            for modname, mod in list(sys.modules.items()):
                if modname != "treecount" and not modname.startswith("treecount."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in self._wrappers:
                        setattr(mod, attr, self._wrappers[value])
                        patched.append((mod, attr, value))
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)

    def end_op(self, op_seconds: float) -> None:
        """Fold the op's spans into the totals and check their self times.

        A span's self time is its duration minus its child spans'. Summed over
        the op, the self times must not exceed the op's own measured duration.
        """
        names, nexts, parents, ns = self._name, self._next, self._parent, self._n
        starts, ends = self._start, self._end
        count = len(names)
        child = [0.0] * count
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_sum = 0.0
        for i in range(count):
            t = self.totals[self.names[names[i]]]
            duration = ends[i] - starts[i]
            own = duration - child[i]
            if own < -EPS:
                self.violations += 1
            self_sum += own
            t.self_s += own
            t.inclusive_s += duration
            if nexts[i]:
                t.items += ns[i]
                p = parents[i]
                if p >= 0 and ns[i]:
                    self.items_under[(names[i], names[p])] += 1
            else:
                t.calls += 1
                t.terms += ns[i]
        if self_sum > op_seconds + EPS:
            self.violations += 1
        self.ops += 1
        self.op_seconds += op_seconds
        for arr in (names, nexts, parents, ns, starts, ends):
            del arr[:]
        del self._stack[1:]

    def items_consumed_by(self, name: str) -> int:
        """Items that spans of `name` drew from generators called directly under it."""
        code = self.names.index(name)
        return sum(k for (gen, parent), k in self.items_under.items() if parent == code)
