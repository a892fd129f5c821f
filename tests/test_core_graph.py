"""Tests for the KNNGraph result object."""

import numpy as np
import pytest

from repro.core.graph import KNNGraph
from repro.errors import DataError


@pytest.fixture()
def graph():
    ids = np.array([[1, 2], [0, 2], [0, 1]], dtype=np.int32)
    dists = np.array([[1.0, 4.0], [1.0, 2.0], [4.0, 2.0]], dtype=np.float32)
    return KNNGraph(ids=ids, dists=dists)


class TestBasics:
    def test_shape_properties(self, graph):
        assert graph.n == 3 and graph.k == 2

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DataError):
            KNNGraph(ids=np.zeros((2, 2), dtype=np.int32),
                     dists=np.zeros((2, 3), dtype=np.float32))

    def test_neighbors_excludes_unfilled(self):
        g = KNNGraph(ids=np.array([[1, -1]], dtype=np.int32),
                     dists=np.array([[1.0, np.inf]], dtype=np.float32))
        assert g.neighbors(0).tolist() == [1]

    def test_is_complete(self, graph):
        assert graph.is_complete()
        g = KNNGraph(ids=np.array([[-1, 1]], dtype=np.int32),
                     dists=np.array([[np.inf, 1.0]], dtype=np.float32))
        assert not g.is_complete()

    def test_mean_distance(self, graph):
        assert graph.mean_distance() == pytest.approx((1 + 4 + 1 + 2 + 4 + 2) / 6)

    def test_mean_distance_empty(self):
        g = KNNGraph(ids=np.full((2, 2), -1, dtype=np.int32),
                     dists=np.full((2, 2), np.inf, dtype=np.float32))
        assert np.isnan(g.mean_distance())


class TestRecall:
    def test_perfect_recall(self, graph):
        assert graph.recall(graph) == 1.0

    def test_recall_against_id_matrix(self, graph):
        assert graph.recall(graph.ids) == 1.0

    def test_partial_recall(self, graph):
        other = KNNGraph(ids=np.array([[1, 9], [0, 9], [0, 9]], dtype=np.int32),
                         dists=graph.dists)
        assert other.recall(graph) == pytest.approx(0.5)

    def test_size_mismatch(self, graph):
        with pytest.raises(DataError):
            graph.recall(np.zeros((5, 2), dtype=np.int32))


class TestConversions:
    def test_to_csr(self, graph):
        m = graph.to_csr()
        assert m.shape == (3, 3)
        assert m.nnz == 6
        assert m[0, 1] == pytest.approx(1.0)

    def test_to_csr_zero_distance_edge_kept(self):
        g = KNNGraph(ids=np.array([[1], [0]], dtype=np.int32),
                     dists=np.array([[0.0], [0.0]], dtype=np.float32))
        m = g.to_csr()
        assert m.nnz == 2

    def test_symmetrized_ids(self):
        g = KNNGraph(ids=np.array([[1], [2], [-1]], dtype=np.int32),
                     dists=np.array([[1.0], [1.0], [np.inf]], dtype=np.float32))
        sym = g.symmetrized_ids()
        assert sym[2].tolist() == [1]  # reverse edge from 1 -> 2
        assert sym[1].tolist() == [0, 2]


class TestToCOO:
    def test_directed_matches_rows(self, graph):
        edges, dists = graph.to_coo()
        assert edges.dtype == np.int64
        assert edges.shape == (2, 6)
        # row-major: query order, then stored (ascending-distance) order
        assert edges[0].tolist() == [0, 0, 1, 1, 2, 2]
        assert edges[1].tolist() == [1, 2, 0, 2, 0, 1]
        assert dists.tolist() == [1.0, 4.0, 1.0, 2.0, 4.0, 2.0]

    def test_unfilled_slots_excluded(self):
        g = KNNGraph(ids=np.array([[1, -1], [0, -1], [-1, -1]],
                                  dtype=np.int32),
                     dists=np.array([[1.0, np.inf], [1.0, np.inf],
                                     [np.inf, np.inf]], dtype=np.float32))
        edges, dists = g.to_coo()
        assert edges.shape == (2, 2)
        assert np.isfinite(dists).all()

    def test_symmetrize_emits_both_directions_once(self):
        # 0->1 stored both ways, 1->2 stored one way only
        g = KNNGraph(ids=np.array([[1], [0], [1]], dtype=np.int32),
                     dists=np.array([[1.0], [1.0], [2.0]],
                                    dtype=np.float32))
        edges, dists = g.to_coo(symmetrize=True)
        pairs = list(zip(edges[0].tolist(), edges[1].tolist(), dists.tolist()))
        assert pairs == [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 2.0), (2, 1, 2.0)]

    def test_symmetrize_takes_min_distance_on_asymmetric_pairs(self):
        g = KNNGraph(ids=np.array([[1], [0]], dtype=np.int32),
                     dists=np.array([[3.0], [1.5]], dtype=np.float32))
        edges, dists = g.to_coo(symmetrize=True)
        assert (dists == 1.5).all()
        assert edges.shape == (2, 2)

    def test_symmetrize_sorted_by_src_then_dst(self, graph):
        edges, _ = graph.to_coo(symmetrize=True)
        keys = edges[0] * graph.n + edges[1]
        assert (np.diff(keys) > 0).all()

    def test_gaussian_affinity_symmetric_normalised(self, graph):
        s = graph.gaussian_affinity()
        assert s.shape == (3, 3)
        dense = s.toarray()
        assert np.allclose(dense, dense.T)
        # symmetric normalisation bounds the spectral radius by 1
        vals = np.linalg.eigvalsh(dense)
        assert vals.max() <= 1.0 + 1e-12


class TestPersistence:
    def test_save_load_round_trip(self, graph, tmp_path):
        path = tmp_path / "g.npz"
        graph.save(path)
        loaded = KNNGraph.load(path)
        assert np.array_equal(loaded.ids, graph.ids)
        assert np.array_equal(loaded.dists, graph.dists)

    def test_save_keeps_numpy_scalar_meta(self, tmp_path):
        """np.float32/np.int64 meta values must survive the round-trip
        (previously they failed json.dumps and silently vanished)."""
        g = KNNGraph(
            ids=np.array([[1], [0]], dtype=np.int32),
            dists=np.array([[1.0], [1.0]], dtype=np.float32),
            meta={
                "recall": np.float32(0.875),
                "inserted": np.int64(42),
                "stats": {"ratio": np.float64(1.25), "per_round": [np.int32(3)]},
                "metric": "sqeuclidean",
            },
        )
        path = tmp_path / "g.npz"
        g.save(path)
        loaded = KNNGraph.load(path)
        assert loaded.meta["recall"] == pytest.approx(0.875)
        assert loaded.meta["inserted"] == 42
        assert loaded.meta["stats"] == {"ratio": 1.25, "per_round": [3]}
        assert loaded.meta["metric"] == "sqeuclidean"

    def test_save_still_drops_non_serialisable_meta(self, tmp_path):
        g = KNNGraph(
            ids=np.array([[1], [0]], dtype=np.int32),
            dists=np.array([[1.0], [1.0]], dtype=np.float32),
            meta={"arr": np.zeros(4), "obj": object(), "ok": 1},
        )
        path = tmp_path / "g.npz"
        g.save(path)
        loaded = KNNGraph.load(path)
        assert loaded.meta == {"ok": 1}


class TestSymmetrizedVectorized:
    """Parity of the vectorized symmetrized_ids with the former O(n*k) loop."""

    @staticmethod
    def _reference(g: KNNGraph) -> list[np.ndarray]:
        out: list[list[int]] = [[] for _ in range(g.n)]
        for i in range(g.n):
            for j in g.neighbors(i):
                out[i].append(int(j))
                out[int(j)].append(i)
        return [np.unique(np.array(lst, dtype=np.int64)) for lst in out]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parity_with_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 50, 6
        ids = rng.integers(0, n, size=(n, k)).astype(np.int32)
        ids[rng.random((n, k)) < 0.25] = -1  # unfilled slots
        g = KNNGraph(ids=ids, dists=np.ones((n, k), dtype=np.float32))
        got, want = g.symmetrized_ids(), self._reference(g)
        assert len(got) == len(want) == n
        for a, b in zip(got, want):
            assert a.dtype == np.int64
            assert np.array_equal(a, b)

    def test_isolated_point_gets_empty_int64_array(self):
        g = KNNGraph(ids=np.array([[1], [0], [-1]], dtype=np.int32),
                     dists=np.array([[1.0], [1.0], [np.inf]], dtype=np.float32))
        sym = g.symmetrized_ids()
        assert sym[2].size == 0 and sym[2].dtype == np.int64
