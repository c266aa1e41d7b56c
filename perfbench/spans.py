"""Spans recorded around calls into renokit, from outside the program.

`Tracer.patch` replaces a renokit function with a timing wrapper in every
renokit module that refers to it, so calls through `from x import f` names
are caught too. Spans stay in memory as (id, name, start, end, parent) and
are written out once the traced run ends.

A span's parent is the innermost open span of its thread; a span opened in a
worker thread with nothing open there gets the main thread's innermost span,
so the requests a thread pool sends count as children of the call that
started the pool.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import resource
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._ambient: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else self._ambient
        main = threading.current_thread() is self._main
        stack.append(sid)
        if main:
            self._ambient = sid
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if main:
                self._ambient = stack[-1] if stack else None
            self.spans.append((sid, name, start, end, parent))

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            # Time each step of the generator, not the call that creates it.
            @functools.wraps(fn)
            def stepped(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item

            return stepped

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    def patch(self, module, attr: str, name: str) -> None:
        """Wrap module.attr wherever a renokit module holds that function."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("renokit"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str) -> None:
        setattr(cls, attr, self.wrap(getattr(cls, attr), name))

    # --- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part of it its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _ in self.spans:
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[sid] = (end - start) - covered
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer, the span-name prefix before the first dot."""
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for sid, name, *_ in self.spans:
            out[name.split(".", 1)[0]] += selfs[sid]
        return dict(out)

    def total(self, name: str) -> float:
        return sum(end - start for _, n, start, end, _ in self.spans if n == name)

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def inner_total(self, parent_name: str, child_names: set[str]) -> float:
        """Summed duration of `child_names` spans whose parent is a `parent_name` span."""
        parents = {sid for sid, n, *_ in self.spans if n == parent_name}
        return sum(end - start for _, n, start, end, p in self.spans if n in child_names and p in parents)

    def write(self, path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
