"""Outside-in tracing of the tamari modules.

`Tracer.install()` replaces every public function of the traced modules
(and the `FinitePoset` methods) with a wrapper that records a span around
the call.  A function is patched under every name it is looked up by,
including names bound with `from ... import` in another traced module, so
`bracket_b.from_red_set` and the `polygon` helpers inside `tri_b` are seen.
The package source is not modified; `uninstall()` puts the originals back.

Spans are kept in memory: per-name aggregates (calls, total and self time,
where self time is the duration minus the time covered by child spans),
call counts per (parent, child) edge below a few parents, per-call durations for a few names,
and the raw (id, name, start, end, parent id) spans of the outer layers up
to a cap.  `snapshot()` returns all of it as plain data for writing out.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
from contextlib import contextmanager
from time import perf_counter

MODULES = (
    "bracket_b",
    "tri_b",
    "polygon",
    "noncross",
    "quotient_bds",
    "shelling",
    "tamari_a",
    "oracle",
    "verify",
)
# Modules that only look names up (they define nothing traced themselves).
LOOKUP_ONLY = ("tamari", "tamari.cli")
# Names whose every call duration is kept, for per-call percentiles.
DURATION_NAMES = frozenset({"bracket_b.upper_covers", "noncross.psi_inverse"})
# Names whose returned sequence length is summed, for yield ratios.
ITEM_NAMES = frozenset({"tamari_a.enumerate_a"})
# Call counts per (parent, child) edge are kept below these parents.
EDGE_PARENTS = frozenset({"oracle.build", "noncross.psi_inverse", "tamari_a.enumerate_a"})
# Raw spans are kept only this close to the root, and only this many.
SPAN_DEPTH = 3
SPAN_CAP = 20_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, int] = {}
        self.durations: dict[str, list] = {name: [] for name in DURATION_NAMES}
        self.items: dict[str, int] = {name: 0 for name in ITEM_NAMES}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        # stack frames: [span id, name, child time]; ids only near the root
        self._stack: list[list] = [[0, None, 0.0]]
        self._ids = itertools.count(1)
        self._on = [True]
        self._undo: list = []

    # -- recording ------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn under a span called `name` (used for the benchmark's own ops)."""
        return self._wrap(name, fn)(*args, **kwargs)

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, edges, spans, on, ids = self._stack, self.edges, self.spans, self._on, self._ids
        durations = self.durations.get(name)
        count_items = name in self.items

        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            near_root = len(stack) < SPAN_DEPTH
            frame = [next(ids) if near_root else 0, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent = stack[-1]
                dur = end - start
                parent[2] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[2]
                if parent[1] in EDGE_PARENTS:
                    key = (parent[1], name)
                    edges[key] = edges.get(key, 0) + 1
                if durations is not None:
                    durations.append(dur)
                if near_root:
                    if len(spans) < SPAN_CAP:
                        spans.append((frame[0], name, start, end, parent[0]))
                    else:
                        self.spans_dropped += 1
            if count_items:
                self.items[name] += len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Patch every traced function under every name it is looked up by."""
        mods = {m: importlib.import_module(f"tamari.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        sites = list(mods.values()) + [importlib.import_module(m) for m in LOOKUP_ONLY]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._set(mod, attr, w)
        poset = mods["oracle"].FinitePoset
        for attr, obj in list(vars(poset).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = "oracle." + ("init" if attr == "__init__" else attr)
            if isinstance(obj, classmethod):
                self._set(poset, attr, classmethod(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(poset, attr, self._wrap(name, obj))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {k: v for k, v in self.stats.items() if v[0]},
            "edges": [[p, c, k] for (p, c), k in self.edges.items()],
            "durations": self.durations,
            "items": self.items,
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }


def merge(into: dict, other: dict) -> dict:
    """Add the aggregates of one snapshot to another (raw spans are not merged)."""
    for name, (calls, total, self_s) in other["stats"].items():
        acc = into["stats"].setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_s
    edges = {(p, c): k for p, c, k in into["edges"]}
    for p, c, k in other["edges"]:
        edges[(p, c)] = edges.get((p, c), 0) + k
    into["edges"] = [[p, c, k] for (p, c), k in edges.items()]
    for name, ds in other["durations"].items():
        into["durations"].setdefault(name, []).extend(ds)
    for name, k in other["items"].items():
        into["items"][name] = into["items"].get(name, 0) + k
    into["spans_dropped"] += other["spans_dropped"] + len(other["spans"])
    return into
