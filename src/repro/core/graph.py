"""The K-NN graph result object."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import DataError


def _denumpy(value: Any) -> Any:
    """Coerce numpy scalars to native Python numbers, recursively.

    Containers are rebuilt (dicts/lists/tuples) so nested stats like
    ``{"recall": np.float32(0.99)}`` survive the JSON-serialisability check
    in :meth:`KNNGraph.save`.  Non-scalar objects pass through unchanged.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {k: _denumpy(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_denumpy(v) for v in value]
    return value


@dataclass
class KNNGraph:
    """An (approximate) K-nearest-neighbour graph over ``n`` points.

    Attributes
    ----------
    ids:
        ``(n, k)`` int32 neighbour indices, each row sorted by ascending
        distance.  Unfilled slots (possible only in pathological configs)
        carry ``-1`` and ``+inf`` distance.
    dists:
        ``(n, k)`` float32 *squared* Euclidean distances.
    meta:
        Free-form provenance (build configuration, timings, counters).
    report:
        The :class:`~repro.core.builder.BuildReport` of the build that
        produced this graph (``None`` for graphs from other sources or
        loaded from disk; not persisted by :meth:`save`).
    """

    ids: np.ndarray
    dists: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)
    report: Any | None = None

    def __post_init__(self) -> None:
        if self.ids.shape != self.dists.shape or self.ids.ndim != 2:
            raise DataError(
                f"ids/dists must be matching (n, k) matrices, got "
                f"{self.ids.shape} and {self.dists.shape}"
            )

    # -- basic properties ------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of points."""
        return self.ids.shape[0]

    @property
    def k(self) -> int:
        """Neighbours per point."""
        return self.ids.shape[1]

    def neighbors(self, i: int) -> np.ndarray:
        """Valid neighbour ids of point ``i`` (ascending distance)."""
        row = self.ids[i]
        return row[row >= 0]

    def is_complete(self) -> bool:
        """True when every point has a full, valid neighbour list."""
        return bool((self.ids >= 0).all())

    # -- quality ---------------------------------------------------------------

    def recall(self, exact: "KNNGraph | np.ndarray") -> float:
        """Mean per-point recall against an exact graph (or its id matrix).

        recall@k = |approx_neighbours(i)  ∩  exact_neighbours(i)| / k,
        averaged over points - the standard KNNG accuracy measure the
        paper's "equivalent accuracy" comparisons use.
        """
        exact_ids = exact.ids if isinstance(exact, KNNGraph) else np.asarray(exact)
        if exact_ids.shape[0] != self.n:
            raise DataError(
                f"exact graph has {exact_ids.shape[0]} points, this graph has {self.n}"
            )
        k = min(self.k, exact_ids.shape[1])
        from repro.metrics.recall import knn_recall  # local import: avoid cycle

        return knn_recall(self.ids[:, : self.k], exact_ids[:, :k])

    def mean_distance(self) -> float:
        """Mean valid edge distance (lower = tighter graph at fixed k)."""
        valid = self.ids >= 0
        if not valid.any():
            return float("nan")
        return float(self.dists[valid].mean())

    # -- conversions -------------------------------------------------------------

    def to_csr(self):
        """Adjacency as ``scipy.sparse.csr_matrix`` with distance weights.

        Edges with unfilled slots are omitted.  Distances of exactly zero
        (duplicate points) are kept by storing ``eps`` instead, so the
        explicit sparsity structure is preserved.
        """
        from scipy import sparse

        valid = self.ids >= 0
        rows = np.repeat(np.arange(self.n), valid.sum(axis=1))
        cols = self.ids[valid]
        vals = self.dists[valid].astype(np.float64)
        vals[vals == 0.0] = np.finfo(np.float64).tiny
        return sparse.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))

    def to_coo(
        self, *, symmetrize: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Edge list as ``(edge_index, dists)`` COO arrays.

        ``edge_index`` is ``(2, E)`` int64 with row 0 the source point
        (the graph row) and row 1 its neighbour; ``dists`` is the
        ``(E,)`` per-edge squared distance (the graph's native dtype).
        Unfilled slots are omitted.

        With ``symmetrize=False`` (default) the directed graph edges are
        emitted row-major: points in order, neighbours by ascending
        distance - exactly the valid ``(ids, dists)`` slots.

        With ``symmetrize=True`` the undirected closure is emitted: every
        unique pair ``{i, j}`` stored in either direction contributes
        *both* directions, each carrying the minimum distance over
        whichever directions the graph stores (for a Gaussian kernel this
        reproduces the classic ``A.maximum(A.T)`` symmetrisation exactly,
        since ``exp`` is monotone).  Edges are sorted by (source, dest).
        """
        valid = self.ids >= 0
        src = np.repeat(np.arange(self.n, dtype=np.int64), valid.sum(axis=1))
        dst = self.ids[valid].astype(np.int64)
        d = self.dists[valid]
        if not symmetrize:
            return np.stack([src, dst]), d
        n = np.int64(self.n)
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        key = lo * n + hi
        # sort by (pair, distance); the first entry per pair is its min
        order = np.lexsort((d, key))
        key_s, d_s = key[order], d[order]
        first = np.ones(key_s.shape[0], dtype=bool)
        first[1:] = key_s[1:] != key_s[:-1]
        ukey, ud = key_s[first], d_s[first]
        ulo, uhi = ukey // n, ukey % n
        off_diag = ulo != uhi  # self-loops (if any) are emitted once
        out_src = np.concatenate([ulo, uhi[off_diag]])
        out_dst = np.concatenate([uhi, ulo[off_diag]])
        out_d = np.concatenate([ud, ud[off_diag]])
        order = np.lexsort((out_dst, out_src))
        return np.stack([out_src[order], out_dst[order]]), out_d[order]

    def gaussian_affinity(self, kernel_scale: float = 1.0):
        """Symmetrised, Gaussian-weighted, symmetrically-normalised affinity.

        The shared affinity stage of label propagation and spectral
        embedding: edges are weighted ``exp(-d2 / (kernel_scale *
        mean_d2))`` with ``mean_d2`` the mean *directed* valid edge
        distance, symmetrised over the undirected closure (per-pair
        weight = max of the two directions, via :meth:`to_coo`'s
        min-distance closure), then normalised as ``D^-1/2 A D^-1/2``.
        Returns a ``scipy.sparse.csr_matrix``.
        """
        from scipy import sparse

        _, d_dir = self.to_coo()
        d_dir = d_dir.astype(np.float64)
        mean_d2 = float(d_dir.mean()) if d_dir.size else 1.0
        if mean_d2 <= 0:
            mean_d2 = 1.0
        sym, d2 = self.to_coo(symmetrize=True)
        w = np.exp(-d2.astype(np.float64) / (kernel_scale * mean_d2))
        a = sparse.csr_matrix((w, (sym[0], sym[1])), shape=(self.n, self.n))
        deg = np.asarray(a.sum(axis=1)).reshape(-1)
        deg[deg == 0] = 1.0
        inv_sqrt = sparse.diags(1.0 / np.sqrt(deg))
        return inv_sqrt @ a @ inv_sqrt

    def symmetrized_ids(self) -> list[np.ndarray]:
        """Per-point neighbour sets of the undirected closure (i~j if either
        direction is present).  Used by t-SNE, which symmetrises affinities.

        Vectorized: one concatenate + sort over all edges (both directions),
        split back into per-point unique neighbour arrays - O(E log E)
        instead of the former O(n*k) Python-level append loop.
        """
        valid = self.ids >= 0
        src = np.repeat(np.arange(self.n, dtype=np.int64), valid.sum(axis=1))
        dst = self.ids[valid].astype(np.int64)
        # every edge contributes both directions to the closure
        rows = np.concatenate([src, dst])
        nbrs = np.concatenate([dst, src])
        # sort by (row, neighbour); unique keys collapse duplicate edges
        key = rows * np.int64(self.n) + nbrs
        key = np.unique(key)
        rows = key // self.n
        nbrs = key % self.n
        # split the sorted edge list at row boundaries
        starts = np.searchsorted(rows, np.arange(self.n + 1, dtype=np.int64))
        return [nbrs[starts[i]:starts[i + 1]] for i in range(self.n)]

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> None:
        """Save to an ``.npz`` file (ids, dists, and the JSON-serialisable
        subset of ``meta``).

        Meta entries that JSON cannot encode (arrays, reports, arbitrary
        objects) are silently dropped; everything else - crucially the
        build ``metric``, which :class:`repro.apps.search.GraphSearchIndex`
        needs to prepare queries correctly after a reload - round-trips.
        NumPy scalars (``np.float32`` recall values, ``np.int64`` counters,
        anywhere in a nested dict/list) are coerced to native Python numbers
        first - previously they failed ``json.dumps`` and the whole entry
        silently vanished from the saved file.
        """
        keep: dict[str, Any] = {}
        for key, value in self.meta.items():
            value = _denumpy(value)
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                continue
            keep[key] = value
        np.savez_compressed(
            path, ids=self.ids, dists=self.dists,
            meta_json=np.array(json.dumps(keep)),
        )

    @classmethod
    def load(cls, path) -> "KNNGraph":
        with np.load(path) as data:
            meta: dict[str, Any] = {}
            if "meta_json" in data.files:
                meta = json.loads(str(data["meta_json"]))
            return cls(ids=data["ids"], dists=data["dists"], meta=meta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KNNGraph(n={self.n}, k={self.k}, complete={self.is_complete()})"
