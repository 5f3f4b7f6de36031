"""Timing and counting wrappers around c3control's public entry points.

A span is one call of a wrapped function (or one step of a wrapped
iterator). Its self time is its duration minus the time of the wrapped
calls nested inside it. The wrappers are installed on every loaded
c3control module that holds the function, so calls between modules are
seen too, and removed again by ``uninstall``.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute, is an iterator). A module's class is
# written as "module:Class".
ENTRY_POINTS = (
    ("poset.construct", "c3control.poset:Poset", "__init__", False),
    ("poset.canonical", "c3control.poset:Poset", "canonical_form", False),
    ("poset.extensions", "c3control.poset:Poset", "linear_extensions", True),
    ("linearize.merge", "c3control.linearize", "c3_merge", False),
    ("linearize.mro", "c3control.linearize", "c3_mro", False),
    ("control.instrument", "c3control.control", "c3_instrumented", False),
    ("control.sort_keys", "c3control.control", "compute_sort_keys", False),
    ("hierarchy.serialize", "c3control.hierarchy", "serialize_hierarchy", False),
    ("hierarchy.parse", "c3control.hierarchy", "parse_hierarchy", False),
    ("search", "c3control.search", "map_reduce_search", False),
    ("search", "c3control.search", "run_experiment", False),
)


class Tracer:
    """Per-span-name call counts and self times for one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._child: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self) -> float:
        self._child.append(0.0)
        return perf_counter()

    def _exit(self, name: str, t0: float) -> None:
        dt = perf_counter() - t0
        self.self_s[name] += dt - self._child.pop()
        if self._child:
            self._child[-1] += dt

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, t0)

        return traced

    def wrap_iterator(self, name: str, fn):
        """Time each step of the returned iterator; count the items."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._steps(name, fn(*args, **kwargs))

        return traced

    def _steps(self, name: str, it):
        while True:
            t0 = self._enter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit(name, t0)
            self.calls[name] += 1
            yield item

    def install(self) -> None:
        for name, where, attr, is_iter in ENTRY_POINTS:
            module_name, _, class_name = where.partition(":")
            owner = sys.modules[module_name]
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            wrapped = (self.wrap_iterator if is_iter else self.wrap)(name, original)
            if class_name:
                self._patch(owner, attr, wrapped)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "c3control" or mod_name.startswith("c3control."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
