"""In-memory spans around the calls into each gcirc layer.

Installing a Tracer wraps every public function of the traced modules
and rebinds each name that refers to one, in every gcirc module: the
layers import each other's functions by name (`search.is_mds`,
`cli.full_report`, `catalog.is_mds`, ...), so patching only the
defining module would miss most calls. Selected class methods are
wrapped on the class. Field arithmetic (`GF2m.mul`, `inv`, `pow`) is
only counted, so that its wrapper adds no span cost to the matrix
layer's self time. Uninstalling restores every binding.

A span is (name, start, end, parent), kept in four arrays. Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "jsonio", "catalog", "search", "properties", "circulant", "matrix", "field", "modular")

SPAN_METHODS = {
    ("matrix", "Matrix"): {
        "__init__": "init",
        "__matmul__": "matmul",
        "__add__": "add",
        "determinant": "determinant",
        "inverse": "inverse",
        "submatrix": "submatrix",
        "transpose": "transpose",
        "scale": "scale",
    },
    ("search", "SearchJob"): {"row_at": "row_at"},
    ("field", "GF2m"): {"__init__": "ctx"},
}
COUNT_METHODS = {("field", "GF2m"): ("mul", "inv", "pow")}

_MARK = "_perfbench_wrapper"


def _mark(fn):
    setattr(fn, _MARK, True)
    return fn


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, list[int]] = {}
        self.is_mds_rejects = [0]
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation

    def install(self) -> None:
        modules = _gcirc_modules()
        wrappers = {}
        for layer in LAYERS:
            if layer == "field":
                continue  # its functions are the polynomial helpers inside the field.ctx span
            mod = modules[f"gcirc.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self._span(f"{layer}.{name}", obj))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
        for (layer, cls_name), methods in SPAN_METHODS.items():
            cls = getattr(modules[f"gcirc.{layer}"], cls_name)
            for attr, metric in methods.items():
                self._set(cls, attr, self._span(f"{layer}.{metric}", cls.__dict__[attr]))
        for (layer, cls_name), methods in COUNT_METHODS.items():
            cls = getattr(modules[f"gcirc.{layer}"], cls_name)
            for attr in methods:
                self._set(cls, attr, self._counter(f"{layer}.{attr}", cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        left = find_wrappers()
        if left:
            raise RuntimeError(f"tracing wrappers still bound: {left}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- wrappers

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn):
        nid = self._intern(name)
        calls = self.calls.setdefault(name, [0])
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        perf = time.perf_counter
        rejects = self.is_mds_rejects if name == "properties.is_mds" else None

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between
            # items is not charged to the generator
            def segments(gen):
                try:
                    while True:
                        idx = len(names)
                        names.append(nid)
                        parents.append(stack[-1])
                        ends.append(0.0)
                        stack.append(idx)
                        starts.append(perf())
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            ends[idx] = perf()
                            stack.pop()
                        yield item
                finally:
                    gen.close()

            def gen_wrapper(*args, **kwargs):
                calls[0] += 1
                return segments(fn(*args, **kwargs))

            return _mark(gen_wrapper)

        def wrapper(*args, **kwargs):
            calls[0] += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if rejects is not None and not result[0]:
                rejects[0] += 1
            return result

        return _mark(wrapper)

    def _counter(self, name: str, fn):
        calls = self.calls.setdefault(name, [0])

        def counter(*args):
            calls[0] += 1
            return fn(*args)

        return _mark(counter)

    # -- results

    def count(self, name: str) -> int:
        return self.calls.get(name, [0])[0]

    def summary(self):
        """({name: (total_s, self_s)}, Counter of (child, parent) name pairs)."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = array("d", (e - s for s, e in zip(self.span_start, self.span_end)))
        child = array("d", bytes(8 * n))
        pairs = Counter()
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
                pairs[(names[i], names[p])] += 1
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            total[names[i]] += dur[i]
            own[names[i]] += dur[i] - child[i]
        times = {name: (total[i], own[i]) for i, name in enumerate(self.names)}
        named_pairs = Counter({(self.names[c], self.names[p]): v for (c, p), v in pairs.items()})
        return times, named_pairs


def _gcirc_modules() -> dict:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "gcirc" or name.startswith("gcirc."))
    }


def find_wrappers() -> list[str]:
    """Names in gcirc modules and classes still bound to a tracing wrapper."""
    found = []
    for mod_name, mod in _gcirc_modules().items():
        for name, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                found.append(f"{mod_name}.{name}")
            elif inspect.isclass(obj) and obj.__module__ == mod_name:
                found += [
                    f"{mod_name}.{name}.{attr}"
                    for attr, val in vars(obj).items()
                    if getattr(val, _MARK, False)
                ]
    return found
