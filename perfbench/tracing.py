"""In-memory span recorder for the traced benchmark run.

The recorder wraps lattrans's public functions from the outside.  Several
modules bind a function by name at import (``optimizer`` imports
``distance_to_identity_many``, ``materialize_slk``, ``singular_values``
and others), so a wrapper is installed on every ``lattrans`` module
attribute that refers to the original function object: each caller then
finds the wrapper under the name it looks up.

A span is (id, parent, op, name, thread, start, end, counts).  The stack
of open spans is kept per thread.  A span opened on a worker thread with
an empty stack takes the innermost open span of the thread that installed
the recorder as its parent: with one client, that is the call which
handed the work to the pool.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _solve_counts(rec, args, kwargs, report):
    return {"returned": 1, "candidates": report.candidates, "k_used": report.k_used,
            "minimizers": len(report.minimizers)}


def _search_bound_counts(rec, args, kwargs, bound):
    rec.m0 = bound.m0
    return None


def _rows_counts(rec, args, kwargs, result):
    return {"rows": len(args[0])}


def _distance_many_counts(rec, args, kwargs, d):
    useful = int((d <= rec.m0).sum()) if rec.m0 is not None else 0
    return {"rows": len(d), "useful": useful}


def _count_slk_counts(rec, args, kwargs, stats):
    return {"count": stats.count, "examined": stats.candidates_examined}


def _region_counts(rec, args, kwargs, result):
    return {"cells": len(result.flags)}


def _exit_code_counts(rec, args, kwargs, code):
    return {f"exit_code.{code}": 1}


#: (module, public function, counter) for every traced call.  A counter
#: turns the call's arguments and result into work counts.
TRACED = (
    ("optimizer", "solve", _solve_counts),
    ("optimizer", "search_bound", _search_bound_counts),
    ("optimizer", "group_classes", _rows_counts),
    ("optimizer", "point_group_orbit", None),
    ("unimodular", "materialize_slk", None),
    ("unimodular", "integer_inverse_batch", _rows_counts),
    ("unimodular", "count_slk", _count_slk_counts),
    ("metrics", "distance_to_identity_many", _distance_many_counts),
    ("metrics", "distance_to_identity", None),
    ("matrix3", "singular_values", None),
    ("matrix3", "spd_power", None),
    ("lattice", "triclinic_to_primitive", None),
    ("lattice", "cubic_point_group", None),
    ("applications", "bct_stability_flags", None),
    ("applications", "bct_region_scan", _region_counts),
    ("cli", "parse_lattice", None),
    ("cli", "report_document", None),
    ("cli", "dumps_structured", None),
    ("cli", "main", _exit_code_counts),
)


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class Recorder:
    """Records spans around the wrapped lattrans functions."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self.m0 = None
        self.paused = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = self._stack()
        self._patched: list = []
        self.cache_before = None
        self.cache_after = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start_op(self, op: int) -> None:
        self.op = op
        self.m0 = None

    @contextmanager
    def pause(self):
        """Calls made inside (answer checks) record no spans."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _wrap(self, name: str, fn, counter):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            stack = rec._stack()
            if stack:
                parent = stack[-1]
            else:
                home = rec._home_stack
                parent = home[-1] if home else None
            sid = next(rec._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                rec.spans.append((sid, parent, rec.op, name, threading.get_ident(),
                                  start, end, None))
                raise
            end = time.perf_counter()
            stack.pop()
            counts = counter(rec, args, kwargs, result) if counter else None
            rec.spans.append((sid, parent, rec.op, name, threading.get_ident(),
                              start, end, counts))
            return result

        return traced

    def install(self) -> None:
        self.cache_before = self._cache_info()
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lattrans" or n.startswith("lattrans.")]
        for modname, attr, counter in TRACED:
            home = sys.modules.get(f"lattrans.{modname}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{modname}.{attr}", original, counter)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.cache_after = self._cache_info()

    @staticmethod
    def _cache_info():
        unimodular = sys.modules.get("lattrans.unimodular")
        info = getattr(getattr(unimodular, "materialize_slk", None), "cache_info", None)
        return info() if info else None

    def summary(self) -> dict:
        """Per span name: calls, busy_s, self_s and summed counts."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[1]].append((span[5], span[6]))
        out: dict = {}
        for sid, _, _, name, _, start, end, counts in self.spans:
            entry = out.setdefault(name, defaultdict(float))
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += (end - start) - _covered(start, end, children.get(sid, ()))
            for key, value in (counts or {}).items():
                entry[key] += value
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for sid, parent, op, name, thread, start, end, counts in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name, "thread": thread,
                    "start": start, "end": end, "counts": counts,
                }) + "\n")
