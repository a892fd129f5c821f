"""Build configuration for :class:`repro.core.builder.WKNNGBuilder`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError
from repro.kernels.strategy import available_strategies
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive_int

#: execution backends; "vectorized" is the scalable NumPy layer,
#: "simt" routes kernels through the warp-level simulator (small inputs only)
BACKENDS = ("vectorized", "simt")


@dataclass
class BuildConfig:
    """All knobs of a w-KNNG build.

    Attributes
    ----------
    k:
        Neighbours per point in the output graph.
    strategy:
        k-NN maintenance strategy: ``"baseline"``, ``"atomic"``,
        ``"tiled"`` (see :mod:`repro.kernels`), or ``"auto"``.  The
        paper's guidance - ``atomic`` for low-dimensional data, ``tiled``
        for high-dimensional data - is a claim about GPU cycles.  ``"auto"``
        picks by the axis the build runs on (:meth:`resolved_strategy`):
        the SIMT backend applies the device cost model
        (:meth:`model_strategy`); the vectorized backend runs ``tiled``,
        its fastest kernel by wall-clock at every measured d
        (``benchmarks/bench_auto_strategy.py``).  The model's answer is
        reported beside the resolved strategy either way.
    strategy_kwargs:
        Extra constructor arguments for the strategy (e.g. ``tile_size``
        for ``tiled``).
    n_trees:
        Trees in the random projection forest.  More trees -> more candidate
        pairs -> higher recall, linearly more work.
    leaf_size:
        Maximum points per leaf.  The leaf all-pairs kernel is
        O(leaf_size^2) per leaf, so this is the accuracy/time dial within a
        tree.
    spill:
        Spill-tree overlap fraction in ``[0, 0.45)``: boundary points
        descend both children, trading larger leaf volume for more
        neighbour pairs caught per tree (see
        :func:`repro.core.rpforest.build_tree`).  ``0`` (default) gives
        classic disjoint RP trees.
    refine_iters:
        NN-descent local-join refinement rounds after the forest phase.
    refine_sample:
        Neighbourhood sample size of the local join (entries sampled per
        list per new/old category and direction; a round joins
        O(refine_sample^2) pairs per point).  ``None`` means
        ``max(4, k // 2) * refine_fanout`` - the rho ~ 0.5 setting of the
        NN-descent paper.
    refine_fanout:
        Multiplier applied to the default ``refine_sample``.
    refine_delta:
        Convergence threshold: refinement stops early once a round inserts
        fewer than ``refine_delta * n * k`` entries (the NN-descent
        stopping rule), so a generous ``refine_iters`` budget is safe.
    metric:
        ``"sqeuclidean"`` (default) or ``"cosine"``.  Cosine reduces to
        squared L2 on normalised inputs (see :mod:`repro.core.metric`);
        the graph's stored ``dists`` are then in the transformed space and
        halve to cosine distances.  ``"inner_product"`` is search-only and
        rejected here (its L2 reduction breaks for point-point pairs).
    seed:
        Random seed (int / Generator / SeedSequence / None).
    backend:
        ``"vectorized"`` (default) or ``"simt"`` (warp simulator;
        orders of magnitude slower, used for microarchitecture metrics).
    n_jobs:
        Worker processes for the whole vectorized build: the forest phase
        (trees are independent), the leaf all-pairs phase (leaf batches
        sharded, per-worker lists merged in fixed shard order), and the
        refinement rounds (candidate generation and insertion sharded by
        point ranges).  Results are bitwise identical for any value; >1
        uses forked workers on POSIX and silently falls back to serial
        elsewhere.  See ``docs/parallel.md``.
    """

    k: int = 16
    strategy: str = "tiled"
    strategy_kwargs: dict[str, Any] = field(default_factory=dict)
    n_trees: int = 8
    leaf_size: int = 128
    spill: float = 0.0
    refine_iters: int = 2
    refine_sample: int | None = None
    refine_fanout: int = 1
    refine_delta: float = 0.001
    metric: str = "sqeuclidean"
    seed: RngStream = None
    backend: str = "vectorized"
    n_jobs: int = 1

    def __post_init__(self) -> None:
        self.k = check_positive_int(self.k, "k")
        self.n_trees = check_positive_int(self.n_trees, "n_trees")
        self.leaf_size = check_positive_int(self.leaf_size, "leaf_size", minimum=2)
        self.refine_fanout = check_positive_int(self.refine_fanout, "refine_fanout")
        if self.refine_iters < 0:
            raise ConfigurationError(
                f"refine_iters must be >= 0, got {self.refine_iters}"
            )
        if self.refine_sample is not None:
            self.refine_sample = check_positive_int(self.refine_sample, "refine_sample")
        if not 0.0 <= float(self.refine_delta) < 1.0:
            raise ConfigurationError(
                f"refine_delta must lie in [0, 1), got {self.refine_delta}"
            )
        if self.strategy != "auto" and self.strategy not in available_strategies():
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; "
                f"available: {available_strategies() + ('auto',)}"
            )
        self.n_jobs = check_positive_int(self.n_jobs, "n_jobs")
        if not 0.0 <= float(self.spill) < 0.45:
            raise ConfigurationError(
                f"spill must lie in [0, 0.45), got {self.spill}"
            )
        from repro.core.metric import check_metric

        check_metric(self.metric)
        if self.metric == "inner_product":
            raise ConfigurationError(
                "inner_product is a search-only metric (its L2 reduction is "
                "query-vs-database); build the graph with sqeuclidean or "
                "cosine instead"
            )
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; available: {BACKENDS}"
            )
        if self.leaf_size <= self.k:
            # a leaf must be able to supply at least k candidates for its
            # members, otherwise the forest phase cannot fill the lists
            raise ConfigurationError(
                f"leaf_size ({self.leaf_size}) must exceed k ({self.k}); "
                f"leaves are each point's candidate pool"
            )

    def model_strategy(self, dim: int) -> str:
        """The SIMT cost model's pick for ``dim`` (the paper's crossover)."""
        from repro.bench.costmodel import preferred_strategy  # import cycle
        from repro.kernels.tiled import DEFAULT_TILE_SIZE

        return preferred_strategy(
            dim, self.k, self.leaf_size,
            tile_size=self.strategy_kwargs.get("tile_size", DEFAULT_TILE_SIZE),
        )

    def resolved_strategy(self, dim: int) -> str:
        """The strategy a build over ``dim``-d points runs.

        An explicit strategy is returned unchanged.  ``"auto"`` resolves
        by the axis the backend is measured on: modeled cycles for
        ``"simt"`` (:meth:`model_strategy`), wall-clock for
        ``"vectorized"``, where ``tiled`` is fastest.
        """
        if self.strategy != "auto":
            return self.strategy
        if self.backend == "simt":
            return self.model_strategy(dim)
        return "tiled"

    def effective_refine_sample(self) -> int:
        """Local-join neighbourhood sample size per round (see class docs)."""
        if self.refine_sample is not None:
            return self.refine_sample
        return max(4, self.k // 2) * self.refine_fanout
