"""Outside-in span tracer for the benchmark.

The tracer wraps public callables of the ``repro`` layers from the
benchmark's own files; nothing under ``src/`` knows it exists.  Each
wrapped call records one span ``[span_id, parent_id, request_id, name,
start_ns, end_ns]`` in memory.  A span opened with no enclosing span on
its thread starts a new request id; nested spans inherit it, so every
span of one query, write or recovery shares an identifier.

``install`` patches the boundaries in, ``uninstall`` restores the
originals exactly, so an uninstalled tracer costs nothing.  A layer's
self time is its span minus the time its direct child spans cover
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence

#: (module, class name or None, attribute, span name, kind).  ``kind``
#: is "method", "classmethod" or "function" (a module-level binding).
CLASS_TARGETS = (
    ("repro.serve.service", "SkylineService", "query", "serve.query", "method"),
    ("repro.serve.service", "SkylineService", "insert_rows", "serve.insert", "method"),
    ("repro.serve.service", "SkylineService", "delete_rows", "serve.delete", "method"),
    ("repro.serve.service", "SkylineService", "recover", "serve.recover", "classmethod"),
    # canonical_cache_key as the service module binds it.
    ("repro.serve.service", None, "canonical_cache_key", "core.cache_key", "function"),
    ("repro.core.dominance", "RankTable", "compile", "core.rank_compile", "classmethod"),
    ("repro.serve.cache", "SemanticCache", "lookup", "serve.cache.lookup", "method"),
    ("repro.serve.planner", "Planner", "plan", "serve.planner.plan", "method"),
    ("repro.ipo.tree", "IPOTree", "query", "ipo.query", "method"),
    ("repro.ipo.tree", "IPOTree", "prime_refresh_baseline", "ipo.prime_baseline", "method"),
    ("repro.ipo.tree", "IPOTree", "refresh", "ipo.refresh", "method"),
    ("repro.mdc.filter", "MDCFilter", "query", "mdc.query", "method"),
    ("repro.mdc.filter", "MDCFilter", "__init__", "mdc.build", "method"),
    ("repro.adaptive.adaptive_sfs", "AdaptiveSFS", "query", "adaptive.query", "method"),
    ("repro.adaptive.adaptive_sfs", "AdaptiveSFS", "insert", "adaptive.insert", "method"),
    ("repro.updates.incremental", "IncrementalSkyline", "insert", "updates.insert", "method"),
    ("repro.updates.incremental", "IncrementalSkyline", "delete", "updates.delete", "method"),
    ("repro.updates.incremental", "IncrementalSkyline", "__init__", "updates.init", "method"),
    ("repro.storage.store", "DurableStore", "log", "storage.log", "method"),
    ("repro.storage.store", "DurableStore", "checkpoint", "storage.checkpoint", "method"),
    ("repro.storage.store", "DurableStore", "recover", "storage.recover", "method"),
)

#: Engine kernels are wrapped on the backend *instances* a service
#: executes with (``service.backend`` and ``service.bitset``).
ENGINE_TARGETS = (("prepare", "engine.prepare"), ("skyline", "engine.sweep"))


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._patches: List[tuple] = []

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        spans = self.spans
        local = self._local
        span_ids = self._span_ids
        request_ids = self._request_ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
                record = [next(span_ids), parent[0], parent[2], name, 0, 0]
            else:
                record = [next(span_ids), 0, next(request_ids), name, 0, 0]
            stack.append(record)
            record[4] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
                spans.append(record)

        return traced

    def install(self, backends: Iterable[object] = ()) -> None:
        """Patch every boundary; ``backends`` get engine wrappers."""
        if self._patches:
            return
        for module_name, class_name, attr, name, kind in CLASS_TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            original = owner.__dict__[attr]
            if kind == "classmethod":
                replacement = classmethod(self.wrap(name, original.__func__))
            else:
                replacement = self.wrap(name, original)
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original, False))
        seen = set()
        for backend in backends:
            if backend is None or id(backend) in seen:
                continue
            seen.add(id(backend))
            for attr, name in ENGINE_TARGETS:
                setattr(backend, attr, self.wrap(name, getattr(backend, attr)))
                self._patches.append((backend, attr, None, True))

    def uninstall(self) -> None:
        """Restore every patched attribute to its original."""
        while self._patches:
            owner, attr, original, instance = self._patches.pop()
            if instance:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w") as handle:
            for span_id, parent, request, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")


def load_spans(path: str) -> List[list]:
    """Read spans written by :meth:`Tracer.dump` back as records."""
    out = []
    with open(path) as handle:
        for line in handle:
            s = json.loads(line)
            out.append([s["id"], s["parent"], s["request"], s["name"],
                        s["start_ns"], s["end_ns"]])
    return out


def self_times(spans: Sequence[list]) -> Dict[str, List[float]]:
    """Per span name, the self time (ns) of every span of that name.

    Children record before their parent ends, so a parent's child time
    is the sum over spans naming it as parent.  Spans whose parent was
    not recorded (opened before an install) count as roots.
    """
    child_ns: Dict[int, int] = defaultdict(int)
    for span_id, parent, _request, _name, start, end in spans:
        if parent:
            child_ns[parent] += end - start
    out: Dict[str, List[float]] = defaultdict(list)
    for span_id, _parent, _request, name, start, end in spans:
        out[name].append(end - start - child_ns.get(span_id, 0))
    return out


def mean_self(times: Dict[str, List[float]], name: str, scale: float) -> float:
    """Mean self time of ``name`` spans in units of ``scale`` ns (0 if none)."""
    values = times.get(name)
    return sum(values) / len(values) / scale if values else 0.0


def check_nesting(spans: Sequence[list]) -> Optional[str]:
    """None when every child lies inside its parent and shares its request."""
    by_id = {span[0]: span for span in spans}
    for span_id, parent, request, name, start, end in spans:
        if end < start:
            return f"span {span_id} ({name}) ends before it starts"
        if not parent or parent not in by_id:
            continue
        _pid, _pp, p_request, p_name, p_start, p_end = by_id[parent]
        if request != p_request:
            return f"span {span_id} ({name}) has request {request}, parent {p_request}"
        if start < p_start or end > p_end:
            return f"span {span_id} ({name}) lies outside parent {parent} ({p_name})"
    return None
