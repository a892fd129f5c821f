"""Benchmark-side measurement: process memory and per-layer proxies.

The per-layer numbers of the traced run come from two sources: the
program's own build spans and counters (read from an enabled
``Observability`` passed through the public ``obs=`` parameters), and
thin proxies defined here that time calls into public surfaces - an
index's or snapshot's ``search`` and ``ShardRouter.scatter``.  No
tracing is added inside the program.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np


# -- memory -------------------------------------------------------------------


def _status_kb(field_name: str) -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field_name + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"{field_name} missing from /proc/self/status")


class PeakRss:
    """Peak resident memory the program adds above the benchmark's own.

    :meth:`reset` runs once inputs and ground truth exist: it resets the
    kernel's high-water mark (``VmHWM``) to the current resident size
    through ``/proc/self/clear_refs`` and remembers that size as the
    baseline.  :meth:`peak_mb` then reads the high-water mark and
    subtracts the baseline, leaving what set-up and the timed phase
    added.
    """

    def __init__(self) -> None:
        self.baseline_kb = 0.0

    def reset(self) -> None:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        self.baseline_kb = _status_kb("VmRSS")

    def peak_mb(self) -> float:
        return (_status_kb("VmHWM") - self.baseline_kb) / 1024.0


# -- search proxies ------------------------------------------------------------


@dataclass
class SearchCall:
    """One timed engine call (monotonic clock)."""

    t0: float
    t1: float
    rows: int
    keys: list[bytes]
    stats: dict[str, Any]
    shard: int = -1


@dataclass
class CallLog:
    """Thread-safe append-only list of :class:`SearchCall` records."""

    calls: list[SearchCall] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, call: SearchCall) -> None:
        with self.lock:
            self.calls.append(call)


class TimedEngine:
    """Forwards everything to ``inner`` and times its ``search`` calls.

    ``inner`` is a ``GraphSearchIndex`` or an ``IndexSnapshot`` (whose
    engine counters live on its ``index``).  Each call records its
    start/end, the query rows' bytes (to match requests to the
    micro-batch that served them) and the engine's work counters for that
    call.
    """

    def __init__(self, inner: Any, log: CallLog, shard: int = -1) -> None:
        self._inner = inner
        self._log = log
        self._shard = shard

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def search(self, queries: np.ndarray, k: int, *, ef: int | None = None):
        t0 = time.monotonic()
        out = self._inner.search(queries, k, ef=ef)
        t1 = time.monotonic()
        engine = getattr(self._inner, "index", self._inner)
        q = np.asarray(queries, dtype=np.float32)
        self._log.add(SearchCall(t0, t1, q.shape[0],
                                 [row.tobytes() for row in q],
                                 engine.stats(), self._shard))
        return out


class TimedMutable:
    """Proxy of a ``MutableIndex`` whose published snapshots are timed."""

    def __init__(self, inner: Any, log: CallLog) -> None:
        self._inner = inner
        self._log = log

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    @property
    def snapshot(self) -> TimedEngine:
        return TimedEngine(self._inner.snapshot, self._log)


def time_scatter(router: Any, log: CallLog) -> None:
    """Replace ``router.scatter`` on this instance by a timed wrapper."""
    inner = router.scatter

    def scatter(qmat, k, ef):
        t0 = time.monotonic()
        out = inner(qmat, k, ef)
        t1 = time.monotonic()
        q = np.asarray(qmat, dtype=np.float32)
        log.add(SearchCall(t0, t1, q.shape[0], [row.tobytes() for row in q], {}))
        return out

    router.scatter = scatter


# -- request <-> batch matching -----------------------------------------------


def match_requests(calls: list[SearchCall], queries: np.ndarray,
                   sent: np.ndarray, served: np.ndarray) -> np.ndarray:
    """For each served request, the index of the engine call that ran it.

    A request is matched to the earliest call that started after it was
    sent and carried its query bytes; ``-1`` where none did (cache hits,
    or requests not served by the engine).
    """
    by_key: dict[bytes, list[int]] = {}
    order = sorted(range(len(calls)), key=lambda i: calls[i].t0)
    for ci in order:
        for key in calls[ci].keys:
            by_key.setdefault(key, []).append(ci)
    out = np.full(queries.shape[0], -1, dtype=np.int64)
    used: dict[tuple[int, bytes], int] = {}
    for i in np.argsort(sent, kind="stable"):
        if not served[i]:
            continue
        key = np.asarray(queries[i], dtype=np.float32).tobytes()
        for ci in by_key.get(key, ()):
            slot = (ci, key)
            if calls[ci].t0 >= sent[i] and used.get(slot, 0) < \
                    calls[ci].keys.count(key):
                used[slot] = used.get(slot, 0) + 1
                out[i] = ci
                break
    return out
