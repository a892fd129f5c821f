"""SIMT == vectorized: the two backends build the same graph.

The vectorized backend claims to do the same arithmetic as the SIMT
kernels, so the modeled cycles describe our wall-clock runs only if both
backends agree on every neighbour id - through the leaf phase *and* the
refinement rounds - and count the same refine work.
"""

import numpy as np
import pytest

from repro import BuildConfig, WKNNGBuilder
from repro.data.synthetic import gaussian_mixture

#: distance bound per strategy.  The direct-schedule kernels (baseline,
#: atomic) accumulate the same differences in a different order: a few
#: ulp.  The tiled vectorized kernel uses the float32 GEMM form
#: ||a||^2 + ||b||^2 - 2ab, whose cancellation costs up to ~2e-5 relative
#: against the simulator's direct sum.
RTOL = {"baseline": 1e-6, "atomic": 1e-6, "tiled": 1e-4}
REFINE_COUNTERS = ("refine/candidate_pairs", "refine/insertions")


@pytest.fixture(scope="module")
def points():
    return gaussian_mixture(200, 24, n_clusters=10, seed=0)


@pytest.mark.parametrize("refine_iters", [0, 2])
@pytest.mark.parametrize("metric", ["sqeuclidean", "cosine"])
@pytest.mark.parametrize("strategy", ["baseline", "atomic", "tiled"])
def test_simt_matches_vectorized(points, strategy, metric, refine_iters):
    cfg = dict(k=5, n_trees=2, leaf_size=16, seed=3, strategy=strategy,
               metric=metric, refine_iters=refine_iters)
    gs, rs = WKNNGBuilder(BuildConfig(backend="simt", **cfg)).build(
        points, return_report=True)
    gv, rv = WKNNGBuilder(BuildConfig(**cfg)).build(
        points, return_report=True)

    np.testing.assert_array_equal(gs.ids, gv.ids)
    np.testing.assert_allclose(gs.dists, gv.dists, rtol=RTOL[strategy],
                               atol=1e-6)
    assert rs.refine_insertions == rv.refine_insertions
    assert len(rs.refine_insertions) == refine_iters
    for name in REFINE_COUNTERS:
        assert rs.metrics.get(name, 0) == rv.metrics.get(name, 0), name
    if refine_iters:
        assert all(count > 0 for count in rs.refine_insertions)


def test_refine_insertions_mean_one_thing_across_strategies(points):
    """A round's insertion count is the entries it added to the lists, so
    strategies that build the same graph report the same per-round counts
    (an atomic CAS win evicted later in the same round is not counted)."""
    cfg = dict(k=5, n_trees=2, leaf_size=16, seed=3, refine_iters=2)
    graphs, counts = {}, {}
    for strategy in ("baseline", "atomic", "tiled"):
        graph, report = WKNNGBuilder(BuildConfig(strategy=strategy, **cfg)).build(
            points, return_report=True)
        graphs[strategy], counts[strategy] = graph.ids, report.refine_insertions
    np.testing.assert_array_equal(graphs["atomic"], graphs["baseline"])
    np.testing.assert_array_equal(graphs["tiled"], graphs["baseline"])
    assert len(counts["baseline"]) == 2
    assert counts["atomic"] == counts["baseline"] == counts["tiled"]
