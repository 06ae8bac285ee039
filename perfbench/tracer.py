"""An in-memory span tracer that instruments l0convex from outside.

`instrument` wraps the public functions and public methods of each
l0convex module, plus the two constructors and the report writer that
the layer metrics name, and rebinds every module-level reference to
them (including the copies made by `from .x import y`).  The package
itself is not edited: `restore` puts every original back.

Each call records a span (name, start, end, parent) in flat arrays; the
spans stay in memory until the benchmark writes them out.  Self times
include the tracer's own per-call cost, which the benchmark reports as
`trace_overhead_ratio`.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

PACKAGE = "l0convex"
MODULES = (
    "l0", "measure", "sampling", "seminorms", "sets",
    "topology", "concatenation", "syntax", "config", "cli",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name table; spans store an index
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack = [-1]
        self.canonical_inputs = 0  # EcRv constructions whose input was canonical
        self.max_bits = 0  # widest numerator/denominator in any EcRv built or returned

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording one span per call; `observe(result)` runs after
        the span closes."""
        name_id = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def observe_ecrv(self, value) -> None:
        if type(value).__name__ != "EcRv":
            return
        for v in value.values():
            bits = max(v.numerator.bit_length(), v.denominator.bit_length())
            if bits > self.max_bits:
                self.max_bits = bits

    def wrap_ecrv_init(self, init):
        traced = self.wrap("l0.EcRv.new", init)

        def new(obj, overrides=None, tail=0):
            self.canonical_inputs += _canonical_input(overrides, tail)
            traced(obj, overrides, tail)
            self.observe_ecrv(obj)

        return new

    # -- aggregation --

    def span_count(self) -> int:
        return len(self.name_ids)

    def calls(self) -> Counter:
        counts = Counter(self.name_ids)
        return Counter({self.names[i]: n for i, n in counts.items()})

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self time summed per span name."""
        own = self_times(self.starts, self.ends, self.parents)
        inclusive: dict[str, float] = {}
        exclusive: dict[str, float] = {}
        for i, name_id in enumerate(self.name_ids):
            name = self.names[name_id]
            inclusive[name] = inclusive.get(name, 0.0) + self.ends[i] - self.starts[i]
            exclusive[name] = exclusive.get(name, 0.0) + own[i]
        return inclusive, exclusive

    def root_time(self) -> float:
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

    def write_csv_gz(self, path) -> None:
        """One row per span; `request` is the root span the span belongs to."""
        request = array("q")
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("id,parent,request,name,start_s,end_s\n")
            for i, name_id in enumerate(self.name_ids):
                p = self.parents[i]
                request.append(i if p < 0 else request[p])
                out.write(
                    f"{i},{p},{request[i]},{self.names[name_id]},"
                    f"{self.starts[i]:.9f},{self.ends[i]:.9f}\n"
                )


def _canonical_input(overrides, tail) -> bool:
    """Already in canonical form: Fraction values on positive int atoms,
    none equal to the tail, so a trusted constructor could skip the checks."""
    if type(tail) is not Fraction:
        return False
    return all(
        type(j) is int and j >= 1 and type(v) is Fraction and v != tail
        for j, v in (overrides or {}).items()
    )


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Overlapping children are counted once, and a child reaching outside
    its parent is clipped to the parent's interval.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = list(starts)  # how far each span's covered prefix extends
    for c in sorted(range(n), key=starts.__getitem__):
        p = parents[c]
        if p < 0:
            continue
        lo = max(starts[c], reach[p])
        hi = min(ends[c], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def instrument(tracer: Tracer) -> list[tuple]:
    """Install `tracer`'s wrappers in the loaded l0convex modules and
    return the patches for `restore`."""
    modules = {short: sys.modules[f"{PACKAGE}.{short}"] for short in MODULES}
    wrappers: dict[int, object] = {}  # id(original function) -> wrapper
    patches: list[tuple] = []

    def patch(owner, attr, value):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def traceable(fn, owner_module) -> bool:
        return (
            inspect.isfunction(fn)
            and fn.__module__ == owner_module
            and not fn.__name__.startswith("_")
            and not inspect.isgeneratorfunction(fn)
        )

    for short, module in modules.items():
        observe = tracer.observe_ecrv if short == "l0" else None
        for attr, value in vars(module).items():
            if traceable(value, module.__name__):
                wrappers[id(value)] = tracer.wrap(f"{short}.{attr}", value, observe)
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for method_name, method in list(vars(value).items()):
                    if traceable(method, module.__name__):
                        name = f"{short}.{value.__qualname__}.{method_name}"
                        patch(value, method_name, tracer.wrap(name, method))

    ecrv, event_set = modules["l0"].EcRv, modules["measure"].EventSet
    patch(ecrv, "__init__", tracer.wrap_ecrv_init(ecrv.__init__))
    patch(event_set, "__init__", tracer.wrap("measure.EventSet.new", event_set.__init__))
    emit = modules["cli"]._emit
    wrappers[id(emit)] = tracer.wrap("cli._emit", emit)

    originals = {}
    for module in (sys.modules[PACKAGE], *modules.values()):
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                originals[id(value)] = value
                patch(module, attr, wrappers[id(value)])
    # defaults such as `value=random_fraction` hold the function itself
    for fn in originals.values():
        defaults = fn.__defaults__
        if defaults and any(id(d) in wrappers for d in defaults):
            patch(fn, "__defaults__", tuple(wrappers.get(id(d), d) for d in defaults))
    return patches


def restore(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
