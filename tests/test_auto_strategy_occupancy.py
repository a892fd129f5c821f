"""Tests for strategy="auto" resolution and the multi-SM occupancy model."""

import numpy as np
import pytest

from repro import BuildConfig, WKNNGBuilder
from repro.bench.costmodel import preferred_strategy
from repro.data.synthetic import gaussian_mixture
from repro.errors import ConfigurationError
from repro.simt.device import Device


class TestPreferredStrategy:
    def test_low_dim_prefers_atomic(self):
        assert preferred_strategy(8, 16, 64) == "atomic"

    def test_high_dim_prefers_tiled(self):
        assert preferred_strategy(960, 16, 64) == "tiled"

    def test_monotone_in_dim(self):
        """Once tiled wins, it keeps winning for larger d (fixed geometry)."""
        choices = [preferred_strategy(d, 16, 64) for d in (4, 32, 128, 512, 960)]
        first_tiled = choices.index("tiled") if "tiled" in choices else len(choices)
        assert all(c == "tiled" for c in choices[first_tiled:])


class TestAutoStrategy:
    def test_auto_accepted_by_config(self):
        assert BuildConfig(strategy="auto").strategy == "auto"

    def test_unknown_still_rejected(self):
        with pytest.raises(ConfigurationError):
            BuildConfig(strategy="automagic")

    def test_auto_resolves_low_dim(self):
        """Vectorized ``auto`` runs ``tiled``; the model's low-d pick stays
        visible in the report."""
        x = gaussian_mixture(500, 8, n_clusters=10, seed=0)
        g, report = WKNNGBuilder(BuildConfig(
            k=8, strategy="auto", n_trees=2, leaf_size=40, refine_iters=1,
            seed=0)).build(x, return_report=True)
        assert report.model_strategy == "atomic"
        assert report.as_dict()["model_strategy"] == "atomic"
        assert g.meta["model_strategy"] == "atomic"
        assert g.meta["strategy"] == "tiled"

    def test_auto_resolves_high_dim(self):
        x = gaussian_mixture(300, 512, n_clusters=10, seed=0)
        g = WKNNGBuilder(BuildConfig(k=8, strategy="auto", n_trees=2,
                                     leaf_size=40, refine_iters=1, seed=0)).build(x)
        assert g.meta["strategy"] == "tiled"

    def test_auto_graph_quality(self):
        from repro.baselines import exact_knn_graph
        from repro.metrics.recall import knn_recall

        x = gaussian_mixture(600, 16, n_clusters=12, seed=1)
        g = WKNNGBuilder(BuildConfig(k=8, strategy="auto", n_trees=4,
                                     leaf_size=48, refine_iters=2, seed=0)).build(x)
        assert knn_recall(g.ids, exact_knn_graph(x, 8).ids) > 0.9

    def test_explicit_strategy_unchanged(self):
        x = gaussian_mixture(300, 8, n_clusters=10, seed=0)
        g = WKNNGBuilder(BuildConfig(k=8, strategy="tiled", n_trees=2,
                                     leaf_size=40, refine_iters=0, seed=0)).build(x)
        assert g.meta["strategy"] == "tiled"


class TestResolvedStrategy:
    """``BuildConfig.resolved_strategy``: the one ``auto`` resolver."""

    @pytest.mark.parametrize("dim", [8, 960])
    def test_simt_follows_the_cost_model(self, dim):
        cfg = BuildConfig(k=16, leaf_size=64, strategy="auto", backend="simt")
        assert cfg.resolved_strategy(dim) == preferred_strategy(dim, 16, 64)
        assert cfg.model_strategy(dim) == preferred_strategy(dim, 16, 64)

    @pytest.mark.parametrize("dim", [4, 8, 64, 960])
    def test_vectorized_runs_tiled(self, dim):
        cfg = BuildConfig(k=16, leaf_size=64, strategy="auto")
        assert cfg.resolved_strategy(dim) == "tiled"

    @pytest.mark.parametrize("backend", ["vectorized", "simt"])
    @pytest.mark.parametrize("strategy", ["baseline", "atomic", "tiled"])
    def test_explicit_strategy_returned_unchanged(self, strategy, backend):
        cfg = BuildConfig(strategy=strategy, backend=backend)
        assert cfg.resolved_strategy(8) == strategy
        assert cfg.resolved_strategy(960) == strategy

    def test_tile_size_reaches_the_model(self):
        cfg = BuildConfig(k=16, leaf_size=64, strategy="auto", backend="simt",
                          strategy_kwargs={"tile_size": 128})
        assert preferred_strategy(64, 16, 64) == "atomic"
        assert cfg.resolved_strategy(64) == "tiled"


class TestAutoMaintenance:
    """Indexes created with ``auto`` maintain with the resolved kernel."""

    CFG = dict(k=8, strategy="auto", n_trees=2, leaf_size=40,
               refine_iters=1, seed=0)

    def test_mutable_index_maintains_with_tiled(self):
        from repro.core.mutable import MutableIndex

        x = gaussian_mixture(300, 8, n_clusters=6, seed=0)
        mut = MutableIndex.build(x[:240], BuildConfig(**self.CFG))
        assert mut._build_config.strategy == "tiled"
        assert mut._strategy.name == "tiled"
        mut.insert(x[240:])
        assert mut._strategy.name == "tiled"

    def test_compaction_rebuilds_with_tiled(self):
        from repro.core.mutable import MutableConfig, MutableIndex

        x = gaussian_mixture(300, 8, n_clusters=6, seed=0)
        mut = MutableIndex.build(x, BuildConfig(**self.CFG),
                                 config=MutableConfig(compact_threshold=1.0))
        mut.delete(np.arange(20))
        mut.compact()
        assert mut.counters["compactions"] == 1
        assert mut.snapshot.index.graph.meta["strategy"] == "tiled"
        assert mut.snapshot.index.graph.meta["model_strategy"] == "atomic"

    def test_dynamic_knng_maintains_with_tiled(self):
        from repro.core.update import DynamicKNNG

        x = gaussian_mixture(300, 8, n_clusters=6, seed=0)
        dyn = DynamicKNNG.build(x[:240], BuildConfig(**self.CFG))
        assert dyn.config.strategy == "tiled"
        assert dyn._strategy.name == "tiled"
        dyn.add(x[240:])
        assert dyn.snapshot().n == 300


class TestOccupancyModel:
    def _launch(self, dev, grid_blocks):
        buf = dev.to_device(np.zeros(64 * grid_blocks, dtype=np.float32))

        def kernel(ctx, b):
            base = ctx.block_id * 64
            ctx.load(b, base + ctx.lane_id)
            ctx.load(b, base + 32 + ctx.lane_id)

        dev.launch(kernel, grid_blocks=grid_blocks, block_warps=1, args=(buf,))

    def test_single_sm_equals_sum(self):
        dev = Device()
        self._launch(dev, 6)
        assert dev.parallel_cycles(1) == sum(dev.last_launch_block_cycles)

    def test_many_sms_equals_max(self):
        dev = Device()
        self._launch(dev, 6)
        assert dev.parallel_cycles(100) == max(dev.last_launch_block_cycles)

    def test_monotone_in_sms(self):
        dev = Device()
        self._launch(dev, 8)
        times = [dev.parallel_cycles(p) for p in (1, 2, 4, 8)]
        assert times == sorted(times, reverse=True)

    def test_no_launch_zero(self):
        assert Device().parallel_cycles(4) == 0

    def test_invalid_sms(self):
        with pytest.raises(ValueError):
            Device().parallel_cycles(0)

    def test_block_cycles_recorded_per_launch(self):
        dev = Device()
        self._launch(dev, 3)
        assert len(dev.last_launch_block_cycles) == 3
        self._launch(dev, 5)
        assert len(dev.last_launch_block_cycles) == 5
