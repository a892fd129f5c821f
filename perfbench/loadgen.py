"""Benchmark-owned open-loop load generator.

Reads are open loop: request ``i`` of a phase is due at ``t0 + i / rate``
and is submitted then, whether or not earlier requests have completed
(``rate=inf`` offers the whole phase at once, as a burst).
Latency is timed from the *due* time, so a stall in the program also
charges the requests that queued behind it, and the generator reports
how late it ran (``lag``).  Every phase is count based - a fixed number
of requests - so each run does identical work.

A refusal (``ServerOverloaded`` at submit), a timeout and an error all
count as failed attempts, and as missing any latency limit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

#: how long to wait for the stragglers of one phase before giving up
DRAIN_TIMEOUT_S = 60.0


def pct(values, q: float) -> float:
    """The ``q`` quantile (0..100) of ``values`` (linear interpolation)."""
    arr = np.asarray(values, dtype=np.float64)
    return float(np.percentile(arr, q)) if arr.size else float("nan")


@dataclass
class PhaseResult:
    """What one open-loop phase observed, aligned by request index."""

    rate: float
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    resolutions: np.ndarray
    results: list[Any] = field(default_factory=list)
    errors: list[BaseException | None] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return int(self.due.size)

    @property
    def ok(self) -> np.ndarray:
        return np.array([e is None for e in self.errors], dtype=bool)

    @property
    def failed(self) -> int:
        return int((~self.ok).sum())

    def latencies_ms(self) -> np.ndarray:
        """Due-time latency per request; failed requests read +inf."""
        lat = (self.done - self.due) * 1000.0
        return np.where(self.ok, lat, np.inf)

    def lag_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1000.0


def run_open_loop(submit: Callable[[np.ndarray], Any], queries: np.ndarray,
                  rate: float) -> PhaseResult:
    """Submit ``queries`` row by row at a fixed ``rate`` (requests/s).

    ``submit`` returns a future.  Completion times are stamped by a done
    callback, which also counts how often each future resolved so the
    caller can check that every future resolved exactly once.
    """
    m = queries.shape[0]
    due = np.empty(m)
    sent = np.empty(m)
    done = np.full(m, np.nan)
    resolutions = np.zeros(m, dtype=np.int64)
    futures: list[Any] = [None] * m
    errors: list[BaseException | None] = [None] * m
    lock = threading.Lock()

    def on_done(i: int, _fut) -> None:
        t = time.monotonic()
        with lock:
            done[i] = t
            resolutions[i] += 1

    t0 = time.monotonic() + 0.005
    for i in range(m):
        due[i] = t0 + i / rate
        wait = due[i] - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        sent[i] = time.monotonic()
        try:
            fut = submit(queries[i])
        except Exception as exc:  # refusal at admission counts as failed
            errors[i] = exc
            done[i] = time.monotonic()
            resolutions[i] = 1
            continue
        futures[i] = fut
        fut.add_done_callback(partial(on_done, i))

    results: list[Any] = [None] * m
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    for i, fut in enumerate(futures):
        if fut is None:
            continue
        try:
            results[i] = fut.result(timeout=max(0.0, deadline - time.monotonic()))
        except Exception as exc:
            errors[i] = exc
    # result() can return before the done callback has run: let the
    # callbacks land before reading their stamps
    while np.isnan(done).any() and time.monotonic() < deadline:
        time.sleep(0.001)
    return PhaseResult(rate, due, sent, done, resolutions, results, errors)


def run_phases(open_client: Callable[[], Any], queries: np.ndarray, rate: float,
               parts: int) -> list[PhaseResult]:
    """Split ``queries`` into ``parts`` consecutive open-loop phases, each
    on a fresh client from ``open_client`` (closed after its phase).

    A micro-batching server settles into a batching rhythm that can hold
    for a whole phase and differs from one server instance to the next;
    summarising each metric as the median over several instances keeps
    one rhythm from setting a run's figure.
    """
    out = []
    for chunk in np.array_split(queries, parts):
        client = open_client()
        try:
            out.append(run_open_loop(lambda q: client.submit(q), chunk, rate))
        finally:
            client.close()
    return out


def saturated_rate(phase: PhaseResult) -> float:
    """Completions per second of a burst offered all at once: the rate at
    which the server drains a standing backlog, i.e. the highest offered
    rate it sustains without the backlog growing."""
    return phase.attempted / float(np.nanmax(phase.done) - phase.due[0])
