"""The online K-NN query server: admission, micro-batching, deadlines.

:class:`KNNServer` turns the batched query engine - a synchronous library
call - into an online service shape: many client threads each submit one
``(query_vector, k, ef, deadline)`` request and get a future back; the
server coalesces concurrent requests into micro-batches, executes them on
the underlying engine, and resolves each future individually.  Around
that core sit the production envelope pieces:

* **admission control** - a bounded queue; past ``admission.queue_limit``,
  :meth:`KNNServer.submit` raises :class:`~repro.errors.ServerOverloaded`
  synchronously (backpressure beats unbounded queueing);
* **deadline enforcement** - requests whose deadline expires while queued
  are dropped *before* scoring; results that complete past the deadline
  are returned as :class:`~repro.errors.DeadlineExceeded`, never as late
  successes;
* **graceful degradation** - sustained queue growth sheds the beam width
  ``ef`` (see :mod:`repro.serve.degrade`), trading a little recall for a
  lot of latency, mirroring the build-time strategy crossover;
* **result caching** - an optional LRU keyed on quantized query bytes and
  the index epoch (:mod:`repro.serve.cache`); hits resolve at submit time
  without ever touching the engine;
* **failure isolation** - an engine error fails only the ``(k, ef)``
  group whose call raised, never the rest of its micro-batch.

This is the package's one serving envelope: the sharded
:class:`~repro.serve.cluster.ClusterClient` is this server over a
:class:`~repro.serve.cluster.ShardedEngine`.

Configuration is the frozen, sectioned :class:`ServeConfig`
(:class:`AdmissionPolicy` / :class:`DeadlinePolicy` / :class:`CachePolicy`
/ :class:`~repro.serve.degrade.ShedPolicy`).  The server implements the
:class:`~repro.serve.client.SearchClient` protocol.

Everything is observable: ``serve/*`` metrics (counters, queue-depth and
shed-level gauges, p50/p95/p99 latency quantile histograms) and
``SERVE_*`` profiling hook events, for a cluster too.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    ServerClosed,
    ServerOverloaded,
)
from repro.obs import Events, Observability
from repro.serve.cache import ResultCache
from repro.serve.client import SearchResult, engine_view
from repro.serve.degrade import DegradationController, ShedPolicy
from repro.serve.queue import AdmissionQueue
from repro.serve.scheduler import MicroBatcher, Request, resolve
from repro.utils.validation import (
    check_positive_int,
    check_query_vector,
)

#: registry namespace the serving metrics emit under
SERVE_METRICS_PREFIX = "serve/"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Micro-batching and backpressure knobs.

    Attributes
    ----------
    max_batch:
        Flush a micro-batch at this many coalesced requests.
    max_wait_ms:
        ... or when the oldest request of the forming batch has waited
        this long, whichever comes first.  The knob trades per-request
        latency floor against batch width.
    queue_limit:
        Admission high-water mark: :meth:`KNNServer.submit` raises
        :class:`~repro.errors.ServerOverloaded` when this many requests
        are already queued.
    n_workers:
        Execution pool size (see :class:`~repro.serve.scheduler.MicroBatcher`).
    """

    max_batch: int = 64
    max_wait_ms: float = 2.0
    queue_limit: int = 256
    n_workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "max_batch", check_positive_int(self.max_batch, "max_batch"))
        object.__setattr__(
            self, "queue_limit",
            check_positive_int(self.queue_limit, "queue_limit"))
        object.__setattr__(
            self, "n_workers", check_positive_int(self.n_workers, "n_workers"))
        if self.max_wait_ms < 0:
            raise ConfigurationError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        object.__setattr__(self, "max_wait_ms", float(self.max_wait_ms))


@dataclass(frozen=True)
class DeadlinePolicy:
    """Deadline defaults.

    ``default_ms`` is applied to requests that do not carry their own
    deadline (``None`` = no deadline).
    """

    default_ms: float | None = None

    def __post_init__(self) -> None:
        if self.default_ms is not None and self.default_ms <= 0:
            raise ConfigurationError(
                f"deadline default_ms must be > 0, got {self.default_ms}"
            )


@dataclass(frozen=True)
class CachePolicy:
    """Result-cache knobs: LRU ``size`` (0 disables) and the quantization
    grid ``decimals`` of the cache key (see
    :class:`~repro.serve.cache.ResultCache`)."""

    size: int = 0
    decimals: int = 6

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ConfigurationError(
                f"cache size must be >= 0, got {self.size}"
            )
        object.__setattr__(
            self, "decimals", check_positive_int(self.decimals, "decimals"))


@dataclass(frozen=True)
class QuantizationPolicy:
    """Compressed-tier knobs the serving stack forwards to its indexes.

    ``mode`` is a :func:`repro.core.quant.parse_quantization` spec
    (``"none"``, ``"sq8"``, ``"pq<M>"``); ``rerank`` is the
    full-precision rerank width (``0`` = the whole beam).  The policy
    maps 1:1 onto :class:`~repro.apps.search.SearchConfig` fields - see
    :meth:`to_search_fields` - so servers, cluster shards and the CLI
    all build quantized stores the same way.
    """

    mode: str = "none"
    rerank: int = 0

    def __post_init__(self) -> None:
        from repro.core.quant import parse_quantization

        # store the canonical spec, not the raw string: downstream spec
        # comparisons (SearchConfig, persisted stores) are string equality
        object.__setattr__(self, "mode", parse_quantization(self.mode).spec)
        object.__setattr__(self, "rerank", int(self.rerank))
        if self.rerank < 0:
            raise ConfigurationError(
                f"quant rerank must be >= 0, got {self.rerank}"
            )

    def to_search_fields(self) -> dict[str, Any]:
        """The :class:`~repro.apps.search.SearchConfig` kwargs this maps to."""
        return {"quantization": self.mode, "rerank": self.rerank}


_SECTION_TYPES = {
    "admission": AdmissionPolicy,
    "deadline": DeadlinePolicy,
    "cache": CachePolicy,
    "quant": QuantizationPolicy,
    "shed": ShedPolicy,
}


@dataclass(frozen=True)
class ServeConfig:
    """Serving parameters, grouped into frozen policy sections.

    Attributes
    ----------
    admission:
        Micro-batching + backpressure (:class:`AdmissionPolicy`).
    deadline:
        Deadline defaults (:class:`DeadlinePolicy`).
    cache:
        Result caching (:class:`CachePolicy`).
    quant:
        Compressed vector tier (:class:`QuantizationPolicy`) forwarded
        to the indexes the stack builds.
    shed:
        The degradation policy (:class:`~repro.serve.degrade.ShedPolicy`).
    default_k:
        ``k`` used when a request does not specify one.
    ef:
        Full-quality beam width served at (``None`` = the index's
        configured ``ef``).

    ``from_dict``/``as_dict`` round-trip the nested form for CLI/JSON use.
    """

    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    deadline: DeadlinePolicy = field(default_factory=DeadlinePolicy)
    cache: CachePolicy = field(default_factory=CachePolicy)
    quant: QuantizationPolicy = field(default_factory=QuantizationPolicy)
    shed: ShedPolicy = field(default_factory=ShedPolicy)
    default_k: int = 10
    ef: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "default_k", check_positive_int(self.default_k, "default_k"))
        if self.ef is not None:
            object.__setattr__(self, "ef", check_positive_int(self.ef, "ef"))

    def as_dict(self) -> dict[str, Any]:
        """Nested plain-dict form (the inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "ServeConfig":
        """Build a config from the nested dict form.

        Sections may be given as dicts or as policy objects; an unknown
        key (a section field at the top level, say) raises ``TypeError``.
        """
        data = dict(mapping)
        for name, cls_ in _SECTION_TYPES.items():
            if name in data and not isinstance(data[name], cls_):
                data[name] = cls_(**data[name])
        return cls(**data)


class KNNServer:
    """Micro-batching online query service over a fitted search index.

    Usage::

        index = GraphSearchIndex.build(points, k=16)
        config = ServeConfig(admission=AdmissionPolicy(max_batch=64))
        with KNNServer(index, config) as server:
            fut = server.submit(query_vector, k=10, deadline_ms=50.0)
            result = fut.result()          # SearchResult (or raises)

    The index must expose ``search(queries, k, *, ef=None)`` over a fixed
    dimensionality ``dim`` - :class:`~repro.apps.search.GraphSearchIndex`
    is the intended engine (an engine's ``n_shards``, if any, is reported
    as each result's ``shard_fanout``).  One server instance is safe to
    submit to from any number of threads, and implements the
    :class:`~repro.serve.client.SearchClient` protocol.
    """

    def __init__(
        self,
        index: Any,
        config: ServeConfig | None = None,
        *,
        obs: Observability | None = None,
    ) -> None:
        self.index = index
        # the envelope reads ``_serve``: a subclass may widen ``config``
        self.config = self._serve = config or ServeConfig()
        self.obs = obs
        self._dim = int(index.dim)
        self._fanout = int(getattr(index, "n_shards", 1))
        base_ef = self._serve.ef
        if base_ef is None:
            base_ef = int(getattr(getattr(index, "config", None), "ef", 32))
        self._base_ef = base_ef
        cache_cfg = self._serve.cache
        self.cache: ResultCache | None = (
            ResultCache(cache_cfg.size, cache_cfg.decimals)
            if cache_cfg.size > 0 else None
        )
        self.degradation = DegradationController(self._serve.shed)
        self._queue: AdmissionQueue | None = None
        self._batcher: MicroBatcher | None = None
        self._accepting = False
        self._lock = threading.Lock()  # guards counters + obs emission
        self.counters: dict[str, int] = {
            "submitted": 0, "accepted": 0, "completed": 0, "rejected": 0,
            "timeout_queued": 0, "timeout_late": 0, "cache_hits": 0,
            "shed_served": 0, "batches": 0, "cancelled": 0,
            "engine_errors": 0,
        }
        self._latencies_ok: list[float] = []

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._accepting

    @property
    def dim(self) -> int:
        """Query dimensionality (SearchClient protocol)."""
        return self._dim

    @property
    def default_ef(self) -> int:
        """The full-quality beam width served by default (protocol)."""
        return self._base_ef

    def start(self) -> "KNNServer":
        if self._accepting:
            raise ConfigurationError("server already started")
        adm = self._serve.admission
        self._queue = AdmissionQueue(adm.queue_limit)
        self._batcher = MicroBatcher(
            self._queue, self._execute,
            max_batch=adm.max_batch, max_wait_s=adm.max_wait_ms / 1000.0,
            n_workers=adm.n_workers,
        )
        self._batcher.start()
        self._accepting = True
        self._emit(Events.SERVE_START, max_batch=adm.max_batch,
                   max_wait_ms=adm.max_wait_ms, queue_limit=adm.queue_limit,
                   n_workers=adm.n_workers, ef=self._base_ef)
        return self

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting and shut the batcher down.

        With ``drain=True`` (default) every queued request is still
        executed before the batcher exits; with ``drain=False`` queued
        requests fail with :class:`~repro.errors.ServerClosed`.
        """
        if self._queue is None:
            return
        self._accepting = False
        queue, batcher = self._queue, self._batcher
        if not drain:
            dropped = queue.drain()
            MicroBatcher.fail_all(
                dropped, ServerClosed("server stopped before execution")
            )
            self._count("cancelled", len(dropped))
        queue.close()
        if batcher is not None:
            batcher.stop(timeout=timeout)
        self._queue = None
        self._batcher = None
        self._emit(Events.SERVE_STOP, **self.counters)

    def close(self) -> None:
        """SearchClient protocol alias of :meth:`stop` (graceful drain)."""
        self.stop()

    def __enter__(self) -> "KNNServer":
        if not self._accepting:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- client API ------------------------------------------------------------

    def submit(
        self,
        query: np.ndarray,
        k: int | None = None,
        *,
        ef: int | None = None,
        deadline_ms: float | None = None,
    ) -> Future:
        """Submit one query vector; returns a future.

        The future resolves to a :class:`~repro.serve.client.SearchResult`,
        or raises :class:`~repro.errors.DeadlineExceeded` /
        :class:`~repro.errors.ServerClosed`.  Admission failures are
        synchronous: :class:`~repro.errors.ServerOverloaded` is raised
        *here*, not set on a future, so callers feel backpressure
        immediately.
        """
        queue = self._queue
        if not self._accepting or queue is None:
            raise ServerClosed("submit() on a stopped server")
        cfg = self._serve
        q = check_query_vector(query, self._dim, "query")
        k = cfg.default_k if k is None else check_positive_int(k, "k")
        ef = self._base_ef if ef is None else check_positive_int(ef, "ef")
        if deadline_ms is None:
            deadline_ms = cfg.deadline.default_ms
        now = time.monotonic()
        deadline = None if deadline_ms is None else now + deadline_ms / 1000.0

        self._count("submitted")

        req = Request(query=q, k=k, ef=ef, deadline=deadline, submitted=now)
        if self.cache is not None:
            # the lookup key carries the *current* epoch: after a mutable
            # index flips, entries computed against older graphs become
            # structurally unreachable (zero stale hits by construction)
            epoch = int(getattr(engine_view(self.index), "epoch", 0))
            req.cache_key = self.cache.key(q, k, ef, epoch)
            hit = self.cache.get(req.cache_key)
            if hit is not None:
                ids, dists, served_ef = hit
                self._count("cache_hits")
                self._count("completed")
                self._emit(Events.SERVE_CACHE_HIT, k=k, ef=ef, epoch=epoch)
                self._observe_latency(time.monotonic() - now)
                resolve(req.future, SearchResult(
                    ids=ids.copy(), dists=dists.copy(), served_ef=served_ef,
                    from_cache=True, shard_fanout=self._fanout, batch_size=0,
                    latency_ms=(time.monotonic() - now) * 1000.0,
                    epoch=epoch,
                ))
                return req.future

        if not queue.offer(req):
            depth = queue.depth()
            self._count("rejected")
            self._emit(Events.SERVE_REQUEST_REJECTED, queue_depth=depth,
                       limit=cfg.admission.queue_limit)
            raise ServerOverloaded(
                f"admission queue full ({depth}/{cfg.admission.queue_limit} "
                f"pending); retry with backoff", queue_depth=depth,
            )
        self._count("accepted")
        self._gauge("queue_depth", queue.depth())
        return req.future

    def query(
        self,
        query: np.ndarray,
        k: int | None = None,
        *,
        ef: int | None = None,
        deadline_ms: float | None = None,
        timeout: float | None = None,
    ) -> SearchResult:
        """Blocking convenience wrapper: ``submit(...).result()``."""
        return self.submit(query, k, ef=ef, deadline_ms=deadline_ms) \
            .result(timeout=timeout)

    # -- batch execution (worker threads) --------------------------------------

    def _execute(self, batch: list[Request]) -> None:
        now = time.monotonic()
        queue = self._queue
        depth = queue.depth() if queue is not None else 0

        # deadline enforcement, part 1: drop requests that expired while
        # queued before spending any engine work on them
        live: list[Request] = []
        expired = 0
        for req in batch:
            if req.expired(now):
                expired += 1
                req.future.set_exception(DeadlineExceeded(
                    f"deadline expired while queued "
                    f"({(now - req.submitted) * 1000.0:.1f}ms in queue)"
                ))
            else:
                live.append(req)
        if expired:
            self._count("timeout_queued", expired)
            self._emit(Events.SERVE_REQUEST_TIMEOUT, phase="queued",
                       count=expired)
        if not live:
            return

        # degradation: one queue-pressure observation per flush
        old_level = self.degradation.level
        level = self.degradation.observe(
            depth, self._serve.admission.queue_limit
        )
        if level != old_level:
            self._gauge("shed_level", level)
            self._emit(Events.SERVE_SHED_CHANGE, old_level=old_level,
                       new_level=level, queue_depth=depth)

        # group by (k, requested ef): each group is one engine call
        groups: dict[tuple[int, int], list[Request]] = {}
        for req in live:
            groups.setdefault((req.k, req.ef), []).append(req)
        for (k, ef), reqs in groups.items():
            self._run_group(k, ef, reqs, depth)

    def _run_group(self, k: int, ef: int, reqs: list[Request],
                   depth: int) -> None:
        served_ef = self.degradation.effective_ef(ef)
        shed = served_ef < ef
        qmat = np.stack([r.query for r in reqs], axis=0)
        # one snapshot for the whole micro-batch: epoch flips between
        # here and resolution cannot tear this group's results
        view = engine_view(self.index)
        epoch = int(getattr(view, "epoch", 0))
        self._emit(Events.SERVE_BATCH_BEFORE, batch=len(reqs), k=k,
                   ef=served_ef, shed=shed, queue_depth=depth, epoch=epoch)
        t0 = time.monotonic()
        for req in reqs:
            self._observe_hist("queue_wait_seconds", t0 - req.submitted)
        try:
            ids, dists = view.search(qmat, k, ef=served_ef)
        except Exception as exc:  # noqa: BLE001 - delivered to the group
            # fail this group only: the batch's other (k, ef) groups are
            # independent engine calls and are still served
            self._count("engine_errors")
            MicroBatcher.fail_all(reqs, exc)
            return
        seconds = time.monotonic() - t0
        self._count("batches")
        if shed:
            self._count("shed_served", len(reqs))
        self._observe_hist("batch_seconds", seconds)
        self._observe_hist("batch_size", len(reqs))
        self._emit(Events.SERVE_BATCH_AFTER, batch=len(reqs), k=k,
                   ef=served_ef, shed=shed, seconds=seconds)

        now = time.monotonic()
        late = 0
        for i, req in enumerate(reqs):
            # deadline enforcement, part 2: a result completed past its
            # deadline is a timeout, never a late success
            if req.expired(now):
                late += 1
                req.future.set_exception(DeadlineExceeded(
                    f"execution finished {(now - req.deadline) * 1000.0:.1f}ms "
                    f"past the deadline"
                ))
                continue
            if self.cache is not None and req.cache_key is not None and not shed:
                # store under the epoch actually *served*, not the one the
                # key was cut with at submit time - if a flip landed in
                # between, the entry must be findable by post-flip lookups
                # and unreachable from pre-flip ones
                self.cache.put(
                    self.cache.key(req.query, k, ef, epoch),
                    (ids[i], dists[i], served_ef),
                )
            latency = now - req.submitted
            self._observe_latency(latency)
            self._count("completed")
            resolve(req.future, SearchResult(
                ids=ids[i], dists=dists[i], served_ef=served_ef,
                from_cache=False, shard_fanout=self._fanout,
                latency_ms=latency * 1000.0, batch_size=len(reqs),
                epoch=epoch,
            ))
        if late:
            self._count("timeout_late", late)
            self._emit(Events.SERVE_REQUEST_TIMEOUT, phase="late", count=late)

    # -- observability ---------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        """Bump a serving counter, mirrored into the obs registry.

        The mirror is what makes shed/reject/timeout accounting visible
        in an exported trace (``serve/<name>`` counters), not just in
        :meth:`stats`.
        """
        with self._lock:
            self.counters[name] += n
            if self.obs is not None:
                self.obs.metrics.counter(SERVE_METRICS_PREFIX + name).inc(n)

    def _emit(self, event: str, **payload: Any) -> None:
        if self.obs is not None:
            self.obs.hooks.emit(event, **payload)

    def _gauge(self, name: str, value: float) -> None:
        if self.obs is not None:
            with self._lock:
                self.obs.metrics.gauge(SERVE_METRICS_PREFIX + name).set(value)

    def _observe_hist(self, name: str, value: float) -> None:
        if self.obs is not None:
            with self._lock:
                self.obs.metrics.histogram(
                    SERVE_METRICS_PREFIX + name
                ).observe(value)

    def _observe_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies_ok.append(seconds)
            if len(self._latencies_ok) > 100_000:
                del self._latencies_ok[: len(self._latencies_ok) // 2]
        if self.obs is not None:
            with self._lock:
                self.obs.metrics.quantile_histogram(
                    SERVE_METRICS_PREFIX + "latency_seconds"
                ).observe(seconds)

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 (milliseconds) of successful responses so far."""
        with self._lock:
            lat = sorted(self._latencies_ok)
        if not lat:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        def pct(p: float) -> float:
            idx = min(len(lat) - 1, int(round(p * (len(lat) - 1))))
            return lat[idx] * 1000.0
        return {"p50": pct(0.50), "p95": pct(0.95), "p99": pct(0.99)}

    def stats(self) -> dict[str, Any]:
        """A snapshot of the serving counters, queue state and latencies."""
        queue = self._queue
        with self._lock:
            counters = dict(self.counters)
        out: dict[str, Any] = {
            "engine": "knn-server",
            **counters,
            "timeouts": counters["timeout_queued"] + counters["timeout_late"],
            "queue_depth": queue.depth() if queue is not None else 0,
            "queue_limit": self._serve.admission.queue_limit,
            "shed_level": self.degradation.level,
            "shed_transitions": self.degradation.transitions,
            "latency_ms": self.latency_percentiles(),
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out
