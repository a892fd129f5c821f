"""Dynamic K-NN graph maintenance: incremental point insertion.

Production similarity systems rarely rebuild from scratch when data
arrives; they insert.  :class:`DynamicKNNG` extends a built w-KNNG graph
with new points using the same machinery the batch pipeline uses:

1. **Routing**: each new point descends every retained RP tree to a leaf
   (:meth:`~repro.core.rpforest.RPTree.leaf_for`); the leaf members are
   its candidate pool, and the new point joins those leaves so *later*
   insertions see it too.
2. **Candidate pairs**: (new point, leaf member) pairs in both directions
   go through the configured maintenance strategy - existing points'
   lists are updated in place, exactly as a concurrent GPU insertion
   kernel would.
3. **Local repair**: one local-join round whose *new* flags are exactly
   the entries the insertion touched, so refinement work concentrates
   around the new points instead of rescanning the whole graph.

Leaves grow over time, so per-insertion cost creeps up; the
:attr:`DynamicKNNG.growth_factor` property tells callers when a full
rebuild is worthwhile (the usual policy: rebuild at ~2x).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.builder import WKNNGBuilder
from repro.core.config import BuildConfig
from repro.core.graph import KNNGraph
from repro.core.metric import prepare_points
from repro.core.refine import RefineState, refine_round
from repro.core.rpforest import RPForest, RPTree
from repro.errors import ConfigurationError, DataError
from repro.kernels.knn_state import KnnState
from repro.kernels.strategy import Strategy, get_strategy
from repro.utils.rng import as_generator
from repro.utils.validation import check_points_matrix


class DynamicKNNG:
    """A K-NN graph that accepts new points after construction.

    Usage::

        dyn = DynamicKNNG.build(points, BuildConfig(k=16, seed=0))
        new_ids = dyn.add(more_points)      # graph now covers both
        graph = dyn.snapshot()              # KNNGraph over all points
    """

    def __init__(
        self,
        points: np.ndarray,
        state: KnnState,
        forest: RPForest,
        config: BuildConfig,
    ) -> None:
        self._x = points
        self._state = state
        # Private copy of the forest: ``add`` grows leaves as points join
        # them, and sharing that mutation with the caller's forest would
        # leak ids that other consumers (a second ``extend_graph`` on the
        # same builder, a search index holding the forest) cannot resolve.
        self._forest = RPForest(
            trees=[
                RPTree(
                    normals=tree.normals,
                    thresholds=tree.thresholds,
                    children=tree.children,
                    leaves=[leaf.copy() for leaf in tree.leaves],
                )
                for tree in forest.trees
            ]
        )
        config = replace(
            config, strategy=config.resolved_strategy(points.shape[1])
        )
        self.config = config
        self._strategy: Strategy = get_strategy(
            config.strategy, **config.strategy_kwargs
        )
        self._rng = as_generator(config.seed).spawn(1)[0]
        self._initial_n = points.shape[0]

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(cls, points: np.ndarray, config: BuildConfig | None = None) -> "DynamicKNNG":
        """Build the initial graph and wrap it for dynamic updates."""
        config = config or BuildConfig()
        builder = WKNNGBuilder(config)
        graph = builder.build(points)
        assert builder.last_forest is not None
        x = check_points_matrix(points, "points")
        x, _ = prepare_points(x, config.metric)
        state = KnnState(graph.n, graph.k)
        state.ids[...] = graph.ids
        state.dists[...] = graph.dists
        return cls(x, state, builder.last_forest, config)

    # -- inspection ------------------------------------------------------------

    @property
    def n(self) -> int:
        """Points currently covered by the graph."""
        return self._x.shape[0]

    @property
    def growth_factor(self) -> float:
        """Current size relative to the size the forest was built for.

        Above ~2 the grown leaves make insertions noticeably more
        expensive and per-point recall of *old* points starts to lag;
        rebuild via :meth:`DynamicKNNG.build` on :meth:`points`.
        """
        return self.n / max(1, self._initial_n)

    @property
    def points(self) -> np.ndarray:
        """The (metric-transformed) point matrix backing the graph."""
        return self._x

    def snapshot(self) -> KNNGraph:
        """An immutable KNNGraph over the current point set."""
        ids, dists = self._state.sorted_arrays()
        return KNNGraph(
            ids=ids,
            dists=dists,
            meta={
                "algorithm": "w-knng/dynamic",
                "strategy": self.config.strategy,
                "metric": self.config.metric,
                "initial_n": self._initial_n,
                "n": self.n,
            },
        )

    # -- updates -----------------------------------------------------------------

    def add(self, new_points: np.ndarray, repair_rounds: int = 1) -> np.ndarray:
        """Insert new points; returns their assigned ids.

        ``repair_rounds`` local-join rounds run after the insertions
        (0 disables repair; 1 is usually enough because the join flags
        concentrate on the fresh entries).
        """
        new_points = np.asarray(new_points, dtype=np.float32)
        # shape validation comes before the empty early-return: an empty
        # batch of the wrong dimensionality is still a malformed input
        if new_points.ndim == 2 and new_points.shape[1] != self._x.shape[1]:
            raise DataError(
                f"new points have dim {new_points.shape[1]}, graph has "
                f"{self._x.shape[1]}"
            )
        if new_points.ndim == 2 and new_points.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        q = check_points_matrix(new_points, "new_points")
        if self.config.metric == "cosine":
            q, _ = prepare_points(q, "cosine")
        m = q.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64)
        new_ids = np.arange(self.n, self.n + m, dtype=np.int64)

        # grow storage
        prev_ids_snapshot = self._state.ids.copy()
        self._x = np.concatenate([self._x, q], axis=0)
        self._grow_state(m)

        # route and collect candidate pairs
        rows_list: list[np.ndarray] = []
        cols_list: list[np.ndarray] = []
        for tree in self._forest.trees:
            leaf_idx = tree.leaf_for(q)
            for local, li in enumerate(leaf_idx):
                members = tree.leaves[int(li)]
                nid = new_ids[local]
                rows_list.append(np.full(members.shape[0], nid))
                cols_list.append(members)
                # the new point becomes part of the leaf for future adds
                tree.leaves[int(li)] = np.concatenate([members, [nid]])
        rows = np.concatenate(rows_list) if rows_list else np.empty(0, dtype=np.int64)
        cols = np.concatenate(cols_list) if cols_list else np.empty(0, dtype=np.int64)
        # both directions: new -> member and member -> new
        all_rows = np.concatenate([rows, cols])
        all_cols = np.concatenate([cols, rows])
        self._strategy.update_pairs(self._state, self._x, all_rows, all_cols)

        # local repair: flag exactly what changed as "new"
        refine_state = RefineState(
            prev_ids=np.concatenate(
                [prev_ids_snapshot,
                 np.full((m, self._state.k), -1, dtype=prev_ids_snapshot.dtype)]
            )
        )
        sample = self.config.effective_refine_sample()
        for _ in range(max(0, repair_rounds)):
            if refine_round(
                self._state, self._x, self._strategy, self._rng, sample,
                refine_state, n_jobs=self.config.n_jobs,
            ) == 0:
                break
        return new_ids

    def _grow_state(self, m: int) -> None:
        old = self._state
        grown = KnnState(old.n + m, old.k)
        grown.ids[: old.n] = old.ids
        grown.dists[: old.n] = old.dists
        self._state = grown


def extend_graph(
    points: np.ndarray,
    graph: KNNGraph,
    forest: RPForest,
    new_points: np.ndarray,
    config: BuildConfig | None = None,
) -> KNNGraph:
    """One-shot convenience: extend an existing build with new points.

    ``points``/``graph``/``forest`` come from a prior
    :class:`~repro.core.builder.WKNNGBuilder` run (the builder retains the
    forest on ``last_forest``).  The metric is inherited from
    ``graph.meta["metric"]`` - the extension must prepare points and score
    candidates in the space the graph was built in - and an explicit
    ``config`` whose metric disagrees with the graph's is rejected.
    """
    graph_metric = graph.meta.get("metric")
    if config is None:
        config = BuildConfig(
            k=graph.k, metric=graph_metric or "sqeuclidean"
        )
    elif graph_metric is not None and config.metric != graph_metric:
        raise ConfigurationError(
            f"config metric={config.metric!r} does not match the graph's "
            f"build metric {graph_metric!r}"
        )
    if config.k != graph.k:
        raise ConfigurationError(
            f"config k={config.k} does not match the graph's k={graph.k}"
        )
    x = check_points_matrix(points, "points")
    x, _ = prepare_points(x, config.metric)
    state = KnnState(graph.n, graph.k)
    state.ids[...] = graph.ids
    state.dists[...] = graph.dists
    dyn = DynamicKNNG(x, state, forest, config)
    dyn.add(new_points)
    return dyn.snapshot()
