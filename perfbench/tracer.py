"""An in-memory span tracer that wraps entry points from outside the program.

The benchmark never edits the code it measures.  Instead a :class:`Tracer`
replaces chosen methods and module functions with thin wrappers that record
one span each — name, parent, start, end — and restores the originals on
:meth:`Tracer.uninstall`.  Spans stay in memory; :func:`summarize` derives
per-name and per-layer self time afterwards, plus an explicit
``unattributed`` row for traced wall time no span covers, so the rows sum
to the traced wall time.

Span names are ``"<layer>/<label>"``.  A span is a four-item list
``[name_id, parent, start, end]`` where ``parent`` is the enclosing span
(the same list object) on the calling thread, or ``None``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


def union_length(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high)) for start, end in intervals if end > low and start < high
    )
    covered = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Overlapping children (threads) are counted once, through their union.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[id(span[1])].append((span[2], span[3]))
    return [
        (span[3] - span[2]) - union_length(children.get(id(span), ()), span[2], span[3])
        for span in spans
    ]


def summarize(spans, names, wall: float) -> dict:
    """Per-name and per-layer totals, self times and call counts.

    ``unattributed`` is ``wall`` minus the union of top-level spans, so for
    spans that do not overlap across threads the layer self times plus
    ``unattributed`` equal ``wall``.
    """
    by_name: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = by_name.setdefault(names[span[0]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[3] - span[2]
        row["self_s"] += own
    layers: dict[str, dict] = {}
    for name, row in by_name.items():
        layer = layers.setdefault(name.split("/", 1)[0], {"calls": 0, "self_s": 0.0})
        layer["calls"] += row["calls"]
        layer["self_s"] += row["self_s"]
    top_level = [(span[2], span[3]) for span in spans if span[1] is None]
    covered = union_length(top_level, float("-inf"), float("inf"))
    return {
        "wall_s": wall,
        "spans": len(spans),
        "names": by_name,
        "layers": layers,
        "unattributed_s": wall - covered,
    }


class Tracer:
    """Records spans around patched entry points while installed and started."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.wall = 0.0
        self.active = False
        self._started_at = 0.0
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------ recording
    def start(self) -> None:
        self._started_at = _clock()
        self.active = True

    def stop(self) -> None:
        self.active = False
        self.wall += _clock() - self._started_at

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span named ``name`` per call while active.

        ``observe(args, kwargs, result)`` runs after each traced call that
        returned, for counters that need the call's arguments or result.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans = self.spans
        local = self._local
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name_id, stack[-1] if stack else None, _clock(), 0.0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = _clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -------------------------------------------------------------- patching
    def patch_method(self, cls, attr: str, name: str, observe=None) -> None:
        """Wrap ``cls.attr`` (plain, static or class method) in place."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(name, raw.__func__, observe))
        elif isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, observe))
        else:
            replacement = self.wrap(name, raw, observe)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, raw, False))

    def patch_function(self, module, attr: str, name: str, observe=None, *, package: str = "repro") -> None:
        """Wrap a module function everywhere ``package`` modules bound it."""
        original = getattr(module, attr)
        replacement = self.wrap(name, original, observe)
        for module_name, loaded in list(sys.modules.items()):
            if loaded is None or not (module_name == package or module_name.startswith(package + ".")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, replacement)
                    self._patches.append((loaded, key, original, False))

    def patch_item(self, mapping: dict, key, name: str) -> None:
        """Wrap one value of a registry dict."""
        original = mapping[key]
        mapping[key] = self.wrap(name, original)
        self._patches.append((mapping, key, original, True))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, key, original, is_item = self._patches.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def summary(self) -> dict:
        return summarize(self.spans, self.names, self.wall)
