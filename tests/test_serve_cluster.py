"""Sharded serving cluster: merge parity, failover and health routing.

The central claim under test: with the ``"full"`` shard-ef policy and an
exhaustive beam (``ef >= n`` and enough graph connectivity that the flat
search equals brute force - asserted as a precondition, not assumed), a
``ClusterClient`` over S shards x R replicas returns **bitwise** the same
``(ids, dists)`` as one flat ``GraphSearchIndex`` over the same points.
And: killing a replica mid-run changes capacity, never answers.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.apps.search import BuildConfig, GraphSearchIndex, SearchConfig
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    ShardUnavailable,
)
from repro.obs import Events, Observability
from repro.serve import (
    CachePolicy,
    ClusterClient,
    ClusterConfig,
    SearchResult,
    ServeConfig,
    ShedPolicy,
    merge_topk,
)
from repro.serve.cluster import ReplicaGroup, ThreadReplica
from repro.core.sharding import shard_partition
from repro.utils.parallel import fork_available

N = 240
DIM = 16
TOP_K = 10
#: exhaustive-search recipe: beam covers every point, graph degree and
#: seed coverage high enough that every point is reachable (verified by
#: the flat==brute precondition below)
EF = 2 * N
GRAPH_K = 24
SEARCH_CFG = SearchConfig(ef=EF, max_expansions=8 * N, seeds_per_tree=16)


def build_cfg(metric: str) -> BuildConfig:
    return BuildConfig(k=GRAPH_K, metric=metric, seed=7, strategy="tiled")


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(0)
    return rng.standard_normal((N, DIM), dtype=np.float32)


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(1)
    return rng.standard_normal((8, DIM), dtype=np.float32)


@pytest.fixture(scope="module", params=["sqeuclidean", "cosine"])
def metric(request):
    return request.param


@pytest.fixture(scope="module")
def flat(points, metric):
    return GraphSearchIndex.build(
        points, build_config=build_cfg(metric), search_config=SEARCH_CFG,
        seed=7)


@pytest.fixture(scope="module")
def flat_answers(flat, queries):
    """Flat-index answers, with the exhaustiveness precondition asserted."""
    ids, dists = flat.search(queries, TOP_K)
    # precondition: the flat beam is exhaustive == exact brute force in
    # the prepared metric space; without this, shard-vs-flat parity
    # would be comparing two different approximations
    xp = flat._require_fitted()._x
    qp = flat._prepare_queries(queries)
    d = ((qp[:, None, :].astype(np.float32) - xp[None, :, :]) ** 2).sum(-1)
    exact = np.argsort(d, axis=1, kind="stable")[:, :TOP_K].astype(np.int32)
    assert np.array_equal(ids, exact), (
        "test recipe no longer exhaustive; raise ef/seeds_per_tree/k")
    return ids, dists


def make_cluster(points, metric, n_shards, n_replicas, *, backend="thread",
                 serve=None, obs=None, **kw) -> ClusterClient:
    cfg = ClusterConfig(
        n_shards=n_shards, n_replicas=n_replicas, backend=backend,
        serve=serve or ServeConfig(ef=EF), **kw)
    return ClusterClient.build(
        points, build_config=build_cfg(metric), search_config=SEARCH_CFG,
        seed=7, config=cfg, obs=obs)


class TestMergeTopk:
    def test_two_way_merge_is_global_sort(self):
        ids_a = np.array([[0, 2, 4]], dtype=np.int32)
        d_a = np.array([[0.1, 0.3, 0.5]], dtype=np.float32)
        ids_b = np.array([[1, 3, 5]], dtype=np.int32)
        d_b = np.array([[0.2, 0.4, 0.6]], dtype=np.float32)
        ids, dists = merge_topk([(ids_a, d_a), (ids_b, d_b)], 4)
        assert ids.tolist() == [[0, 1, 2, 3]]
        assert np.allclose(dists, [[0.1, 0.2, 0.3, 0.4]])

    def test_distance_ties_break_by_id(self):
        ids_a = np.array([[7]], dtype=np.int32)
        ids_b = np.array([[3]], dtype=np.int32)
        d = np.array([[0.25]], dtype=np.float32)
        ids, _ = merge_topk([(ids_a, d), (ids_b, d)], 2)
        assert ids.tolist() == [[3, 7]]

    def test_unfilled_slots_sort_last_and_pad(self):
        ids_a = np.array([[4, -1]], dtype=np.int32)
        d_a = np.array([[0.5, np.inf]], dtype=np.float32)
        ids_b = np.array([[9, -1]], dtype=np.int32)
        d_b = np.array([[0.1, np.inf]], dtype=np.float32)
        ids, dists = merge_topk([(ids_a, d_a), (ids_b, d_b)], 4)
        assert ids.tolist() == [[9, 4, -1, -1]]
        assert dists[0, 0] == np.float32(0.1)
        assert np.isinf(dists[0, 2]) and np.isinf(dists[0, 3])

    def test_width_capped_by_available_columns(self):
        ids = np.array([[2]], dtype=np.int32)
        d = np.array([[1.0]], dtype=np.float32)
        out_ids, out_d = merge_topk([(ids, d)], 5)
        assert out_ids.shape == (1, 5)
        assert out_ids[0, 0] == 2 and (out_ids[0, 1:] == -1).all()

    def test_empty_parts_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_topk([], 3)


class TestClusterParity:
    @pytest.mark.parametrize("n_shards", [2, 3, 5])
    @pytest.mark.parametrize("n_replicas", [1, 2])
    def test_bitwise_equal_to_flat(self, points, queries, metric,
                                   flat_answers, n_shards, n_replicas):
        fids, fdists = flat_answers
        with make_cluster(points, metric, n_shards, n_replicas) as client:
            results = [client.query(q, TOP_K) for q in queries]
        ids = np.stack([r.ids for r in results])
        dists = np.stack([r.dists for r in results])
        assert np.array_equal(ids, fids)
        assert np.array_equal(dists, fdists)
        assert all(r.shard_fanout == n_shards for r in results)

    def test_parity_through_shed_path(self, points, queries, metric,
                                      flat_answers):
        """A forced shed level lowers served_ef but (still exhaustive)
        keeps answers bitwise identical - quality degradation composes
        with sharding."""
        fids, fdists = flat_answers
        serve = ServeConfig(
            ef=4 * N,
            shed=ShedPolicy(high_water=0.5, low_water=0.01, factor=0.5,
                            min_ef=8, max_level=2, step_down_after=1000))
        with make_cluster(points, metric, 3, 1, serve=serve) as client:
            client.degradation.level = 1        # forced: served_ef = 2N >= N
            results = [client.query(q, TOP_K) for q in queries]
        assert all(r.served_ef == 2 * N < 4 * N for r in results)
        assert np.array_equal(np.stack([r.ids for r in results]), fids)
        assert np.array_equal(np.stack([r.dists for r in results]), fdists)

    def test_parity_with_deadline_set(self, points, queries, metric,
                                      flat_answers):
        """A generous deadline must not perturb results."""
        fids, _ = flat_answers
        with make_cluster(points, metric, 2, 1) as client:
            results = [client.query(q, TOP_K, deadline_ms=60_000.0)
                       for q in queries]
        assert np.array_equal(np.stack([r.ids for r in results]), fids)

    def test_deadline_expired_while_queued(self, points, queries, metric):
        with make_cluster(points, metric, 2, 1) as client:
            fut = client.submit(queries[0], TOP_K, deadline_ms=0.0)
            with pytest.raises(DeadlineExceeded):
                fut.result(timeout=10.0)
            assert client.stats()["timeouts"] >= 1

    def test_scaled_policy_returns_valid_results(self, points, queries,
                                                 metric):
        """The throughput policy is approximate but well-formed: k valid
        in-range ids, ascending dists, per-shard ef divided down."""
        with make_cluster(points, metric, 3, 1,
                          shard_ef_policy="scaled", shard_ef_floor=8,
                          serve=ServeConfig(ef=60)) as client:
            res = client.query(queries[0], TOP_K)
        assert res.ids.shape == (TOP_K,)
        assert ((res.ids >= 0) & (res.ids < N)).all()
        assert len(set(res.ids.tolist())) == TOP_K
        assert (np.diff(res.dists) >= 0).all()
        assert client.config.shard_ef(60, TOP_K) == 20


class TestFailover:
    def test_kill_replica_zero_wrong_answers(self, points, queries, metric):
        """Replicas are deterministic copies: killing one mid-run must not
        change a single answer (capacity degrades, correctness never)."""
        obs = Observability()
        events = []
        obs.hooks.subscribe("*", lambda name, payload: events.append(name))
        serve = ServeConfig(ef=EF, shed=ShedPolicy(enabled=False))
        with make_cluster(points, metric, 2, 2, serve=serve, obs=obs,
                          heartbeat_interval_s=0.05,
                          readmit_after_s=30.0) as client:
            expected = [client.query(q, TOP_K) for q in queries]
            client.kill_replica(0, 0)
            wrong = 0
            for _ in range(3):                  # several passes post-kill
                for q, exp in zip(queries, expected):
                    res = client.query(q, TOP_K)
                    if not (np.array_equal(res.ids, exp.ids)
                            and np.array_equal(res.dists, exp.dists)):
                        wrong += 1
            deadline = time.monotonic() + 5.0
            while (client.stats()["router"]["ejections"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            stats = client.stats()
        assert wrong == 0
        assert stats["router"]["ejections"] >= 1
        assert stats["router"]["healthy_replicas"] == 3
        assert Events.REPLICA_EJECTED in events

    def test_dead_replica_readmitted_after_revive(self, points, metric):
        rng = np.random.default_rng(3)
        q = rng.standard_normal(DIM).astype(np.float32)
        with make_cluster(points, metric, 2, 2,
                          heartbeat_interval_s=0.05,
                          readmit_after_s=0.05) as client:
            replica = client.router.groups[1].replicas[0]
            replica.kill()
            deadline = time.monotonic() + 5.0
            while (client.router.groups[1].state(replica) != "ejected"
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert client.router.groups[1].state(replica) == "ejected"
            replica.revive()
            deadline = time.monotonic() + 5.0
            while (client.router.groups[1].state(replica) != "healthy"
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert client.router.groups[1].state(replica) == "healthy"
            assert client.stats()["router"]["readmissions"] >= 1
            res = client.query(q, TOP_K)        # still serving
            assert res.ids.shape == (TOP_K,)

    def test_whole_shard_down_fails_request_not_merge(self, points, metric):
        """No live replica for one shard -> the request errors; a silent
        partial merge (missing that shard's points) would be worse."""
        rng = np.random.default_rng(4)
        q = rng.standard_normal(DIM).astype(np.float32)
        with make_cluster(points, metric, 2, 1) as client:
            client.kill_replica(0, 0)
            fut = client.submit(q, TOP_K)
            with pytest.raises(ShardUnavailable) as exc_info:
                fut.result(timeout=10.0)
            assert exc_info.value.shard_id == 0
            assert client.stats()["shard_errors"] >= 1


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestProcessBackend:
    def test_process_parity_and_kill(self, points, queries):
        flat = GraphSearchIndex.build(
            points, build_config=build_cfg("sqeuclidean"),
            search_config=SEARCH_CFG, seed=7)
        fids, fdists = flat.search(queries, TOP_K)
        serve = ServeConfig(ef=EF, shed=ShedPolicy(enabled=False))
        with make_cluster(points, "sqeuclidean", 2, 2, backend="process",
                          serve=serve, rpc_timeout_s=10.0,
                          heartbeat_interval_s=0.05,
                          readmit_after_s=30.0) as client:
            assert client.backend == "process"
            results = [client.query(q, TOP_K) for q in queries]
            assert np.array_equal(np.stack([r.ids for r in results]), fids)
            assert np.array_equal(np.stack([r.dists for r in results]),
                                  fdists)
            client.kill_replica(1, 1)           # hard process termination
            for q, exp in zip(queries, results):
                res = client.query(q, TOP_K)
                assert np.array_equal(res.ids, exp.ids)
                assert np.array_equal(res.dists, exp.dists)
            deadline = time.monotonic() + 5.0
            while (client.stats()["router"]["ejections"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert client.stats()["router"]["ejections"] >= 1


class TestClusterCache:
    def test_repeat_query_served_from_cache(self, points, queries):
        serve = ServeConfig(ef=EF, cache=CachePolicy(size=64))
        with make_cluster(points, "sqeuclidean", 2, 1,
                          serve=serve) as client:
            first = client.query(queries[0], TOP_K)
            second = client.query(queries[0], TOP_K)
            stats = client.stats()
        assert not first.from_cache and second.from_cache
        assert second.ids.tobytes() == first.ids.tobytes()
        assert second.dists.tobytes() == first.dists.tobytes()
        assert first.epoch == second.epoch == 0
        assert second.shard_fanout == 2
        assert stats["cache_hits"] == 1

    def test_shed_answer_not_cached(self, points, queries):
        serve = ServeConfig(
            ef=4 * N, cache=CachePolicy(size=64),
            shed=ShedPolicy(high_water=0.5, low_water=0.01, factor=0.5,
                            min_ef=8, max_level=2, step_down_after=1000))
        with make_cluster(points, "sqeuclidean", 2, 1,
                          serve=serve) as client:
            client.degradation.level = 1        # forced: served_ef = 2N
            first = client.query(queries[0], TOP_K)
            second = client.query(queries[0], TOP_K)
        assert first.served_ef == 2 * N
        assert not first.from_cache and not second.from_cache
        assert len(client.cache) == 0


class TestReplicaGroup:
    def _group(self, n=3):
        index = GraphSearchIndex.build(
            np.random.default_rng(0).standard_normal((64, 4),
                                                     dtype=np.float32),
            k=4, seed=0)
        replicas = [ThreadReplica(0, i, index, 0) for i in range(n)]
        return ReplicaGroup(0, replicas, ewma_alpha=0.5,
                            readmit_after_s=0.01), replicas

    def test_pick_prefers_idle_then_fast(self):
        group, (r0, r1, r2) = self._group()
        group.record_success(r0, 5.0)
        group.record_success(r1, 1.0)
        group.record_success(r2, 3.0)
        picked = group.pick()
        assert picked is r1                      # lowest EWMA at equal load
        assert group.pick() is r2                # r1 now has 1 in-flight

    def test_ejected_is_last_resort_and_readmits(self):
        group, (r0, r1, r2) = self._group()
        assert group.eject(r0) is True
        assert group.eject(r0) is False          # already ejected
        assert group.healthy_count() == 2
        picked = {group.pick() for _ in range(2)}
        assert picked == {r1, r2}                # healthy first
        # with every healthy sibling excluded (the failover path),
        # the ejected replica is still tried - last resort, not never
        assert group.pick(exclude=[r1, r2]) is r0
        assert group.record_success(r0, 2.0) is True   # traffic readmits
        assert group.healthy_count() == 3
        assert group.readmissions == 1


class TestClusterConfig:
    def test_round_trip(self):
        cfg = ClusterConfig(n_shards=4, n_replicas=2, backend="thread",
                            shard_ef_policy="scaled", shard_ef_floor=12,
                            serve=ServeConfig(default_k=7, ef=48))
        clone = ClusterConfig.from_dict(cfg.as_dict())
        assert clone == cfg
        assert clone.serve.default_k == 7

    def test_shard_ef_policies(self):
        full = ClusterConfig(n_shards=4, shard_ef_policy="full")
        assert full.shard_ef(64, 10) == 64
        scaled = ClusterConfig(n_shards=4, shard_ef_policy="scaled",
                               shard_ef_floor=8)
        assert scaled.shard_ef(64, 10) == 16     # ceil(64/4) = 16
        assert scaled.shard_ef(64, 20) == 20     # k floor wins
        assert scaled.shard_ef(20, 2) == 8       # shard_ef_floor wins

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(backend="mpi")
        with pytest.raises(ConfigurationError):
            ClusterConfig(shard_ef_policy="half")
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_shards=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(ewma_alpha=0.0)

    def test_shard_partition_guards(self):
        assert shard_partition(10, 3) == [(0, 4), (4, 7), (7, 10)]
        with pytest.raises(ValueError):
            shard_partition(2, 3)

    def test_mismatched_shard_count_rejected(self, points):
        ranges = shard_partition(N, 2)
        indexes = [GraphSearchIndex.build(points[lo:hi], k=8, seed=0)
                   for lo, hi in ranges]
        with pytest.raises(ConfigurationError):
            ClusterClient(indexes, ranges, ClusterConfig(n_shards=3))


class TestClusterObservability:
    def test_spans_and_events_thread_through(self, points, queries, metric):
        obs = Observability()
        events = []
        obs.hooks.subscribe("*", lambda name, payload: events.append(name))
        with make_cluster(points, metric, 2, 1, obs=obs) as client:
            res = client.query(queries[0], TOP_K)
        assert isinstance(res, SearchResult)
        names = set(events)
        assert Events.CLUSTER_START in names
        assert Events.CLUSTER_BATCH_BEFORE in names
        assert Events.CLUSTER_BATCH_AFTER in names
        assert Events.CLUSTER_STOP in names
        spans = [s.name for s in obs.trace.records]
        assert "cluster_batch" in spans
        assert "merge" in spans
        assert {"shard-0", "shard-1"} <= set(spans)
        shard_span = next(s for s in obs.trace.records
                          if s.name == "shard-0")
        assert "engine_seconds" in shard_span.attrs
        assert shard_span.attrs["replica"] == "s0/r0"
        # shard spans last as long as the shard call really took, and sit
        # inside the batch span that scattered them
        batch = next(s for s in obs.trace.records
                     if s.name == "cluster_batch")
        for sid in range(2):
            span = next(s for s in obs.trace.records
                        if s.name == f"shard-{sid}")
            assert span.parent_path == batch.path
            assert span.seconds >= span.attrs["engine_seconds"] > 0
            assert batch.start <= span.start
            assert span.start + span.seconds <= batch.start + batch.seconds
        # the envelope's metrics are the server's; the router's are cluster's
        assert obs.metrics.section("serve/")["completed"] == 1
        assert obs.metrics.section("serve/")["latency_seconds"]["count"] == 1
        assert obs.metrics.section("cluster/")["shard_calls"] == 2
