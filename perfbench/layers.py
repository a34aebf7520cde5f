"""Per-layer split of a traced run, recorded from the benchmark's side.

Three instruments, all switched on only in the traced run:

* :class:`LayerProfiler` runs cProfile on the calling thread and, through
  ``threading.setprofile``, on every thread started while it is
  installed (the service's scheduler, event-loop and executor threads).
  :func:`split_by_layer` sums self time per ``repro.<subpackage>``;
  stdlib self time (json, socket, selectors, os, ...) is charged to the
  nearest calling repro function, so wire costs land on ``service`` and
  cache I/O on ``experiments``.  Time blocked in a wait (poll, sleep,
  lock acquire, queue get, socket receive) is busy time of no layer and
  is kept apart.
* :func:`call_counts` reads call counts at named public entry points out
  of the same profile.
* :class:`SpanRecorder` wraps a few public methods with spans (name,
  start, end, parent, point or job id), kept in memory and written out
  when the run ends.
"""

import cProfile
import contextlib
import itertools
import os
import pstats
import sys
import threading
import time

#: Built-ins whose self time is a blocked wait, not work.
_WAITS = ("'poll' of 'select.", "select.select>", "'acquire' of '_thread.",
          "'get' of '_queue.SimpleQueue'", "time.sleep>",
          "'recv_into' of '_socket.", "'recv' of '_socket.",
          "'accept' of '_socket.")

#: Layer names reported as ``<layer>.self_s``; top-level repro modules
#: (``api.py``, ``config.py``) form the ``api`` layer.
LAYERS = ("core", "isa", "pipeline", "memory", "coherence", "workloads",
          "analysis", "api", "experiments", "service", "unattributed")


class LayerProfiler:
    """cProfile over the calling thread plus every thread started while
    :meth:`install_thread_hook` is in effect."""

    def __init__(self):
        self._main = cProfile.Profile()
        self._threads = []
        self._lock = threading.Lock()

    def _hook(self, frame, event, arg):
        sys.setprofile(None)
        prof = cProfile.Profile()
        with self._lock:
            self._threads.append(prof)
        prof.enable()

    def install_thread_hook(self):
        threading.setprofile(self._hook)

    def remove_thread_hook(self):
        threading.setprofile(None)

    def enable(self):
        self._main.enable()

    def disable(self):
        self._main.disable()

    def stats(self):
        """Merged ``pstats`` table; call after the profiled threads end."""
        self._main.disable()
        merged = pstats.Stats(self._main)
        with self._lock:
            for prof in self._threads:
                merged.add(prof)
        return merged.stats


def layer_of(filename, src_root, bench_root):
    """``repro`` layer of a source file, "bench", or None (not ours)."""
    if filename.startswith(bench_root):
        return "bench"
    repro_root = os.path.join(src_root, "repro") + os.sep
    if not filename.startswith(repro_root):
        return None
    head = filename[len(repro_root):].split(os.sep, 1)
    return head[0] if len(head) == 2 else "api"


def _is_wait(func):
    return func[0] == "~" and any(w in func[2] for w in _WAITS)


def split_by_layer(stats, src_root, bench_root):
    """(self seconds per layer, blocked-wait seconds) from a stats table.

    A repro function's self time goes to its own layer.  Any other
    function's self time is split over its callers by the time each
    caller edge accounts for, walking up through non-repro callers until
    a repro (or benchmark) frame is reached; time with no such ancestor
    is ``unattributed``.  The benchmark's own frames are dropped.
    """
    layers = {}
    memo = {}
    wait = 0.0

    def owners(func, seen):
        """{layer: share} of the nearest owning ancestors of ``func``."""
        entry = stats.get(func)
        layer = layer_of(func[0], src_root, bench_root)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if entry is None or func in seen or not entry[4]:
            return {"unattributed": 1.0}
        callers = entry[4]
        total = sum(edge[3] for edge in callers.values())
        out = {}
        for caller, edge in callers.items():
            weight = (edge[3] / total if total > 0
                      else 1.0 / len(callers))
            for owner, share in owners(caller, seen | {func}).items():
                out[owner] = out.get(owner, 0.0) + weight * share
        memo[func] = out
        return out

    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if tt <= 0:
            continue
        layer = layer_of(func[0], src_root, bench_root)
        if layer is not None:
            layers[layer] = layers.get(layer, 0.0) + tt
            continue
        if _is_wait(func):
            wait += tt
            continue
        if not callers:
            layers["unattributed"] = layers.get("unattributed", 0.0) + tt
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        for caller, edge in callers.items():
            part = (tt * edge[2] / edge_total if edge_total > 0
                    else tt / len(callers))
            for owner, share in owners(caller, {func}).items():
                layers[owner] = layers.get(owner, 0.0) + part * share
    layers.pop("bench", None)
    return layers, wait


def code_key(function):
    """The pstats key of a Python function (None if it has no code)."""
    code = getattr(function, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def call_counts(stats, functions):
    """Total calls of ``functions`` (missing ones count 0)."""
    total = 0
    for function in functions:
        entry = stats.get(code_key(function))
        if entry is not None:
            total += entry[1]
    return total


def cumulative_seconds(stats, functions):
    """Summed inclusive time of ``functions`` (missing ones count 0)."""
    total = 0.0
    for function in functions:
        entry = stats.get(code_key(function))
        if entry is not None:
            total += entry[3]
    return total


class SpanRecorder:
    """In-memory spans around calls the benchmark makes into a layer.

    A span's parent is the innermost open span on the same thread, or
    :attr:`root` (the benchmark's current pass/job span) on threads with
    no open span of their own.
    """

    def __init__(self):
        self.spans = []
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name, ident=None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        record = {"id": sid, "name": name, "parent": parent,
                  "point": ident,
                  "start": time.perf_counter() - self._t0}
        stack.append(sid)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter() - self._t0
            with self._lock:
                self.spans.append(record)

    def wrap(self, owner, attr, name, ident=None, generator=False):
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`unwrap`.

        ``ident(args, kwargs)`` names the point or job a call is for;
        a wrapped generator's span lasts until it is exhausted.
        """
        original = owner.__dict__[attr]
        label = ident or (lambda args, kwargs: None)
        if generator:
            def wrapper(*args, **kwargs):
                with self.span(name, label(args, kwargs)):
                    yield from original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                with self.span(name, label(args, kwargs)) as record:
                    result = original(*args, **kwargs)
                    if record["point"] is None and isinstance(result, str):
                        record["point"] = result
                    return result
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
