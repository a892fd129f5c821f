"""AUTO - wall-clock evidence for what ``strategy="auto"`` resolves to.

``BuildConfig.resolved_strategy`` sends vectorized ``auto`` builds to
``tiled`` and keeps the SIMT cost model (``preferred_strategy``, the
paper's atomic-at-low-d / tiled-at-high-d crossover) for the SIMT
backend.  That rule is a wall-clock claim about the CPU kernels, so this
bench times every strategy on the two paths ``auto`` drives:

* a full build (forest, leaf all-pairs, refine), k=16, ``n_jobs=1``,
  Gaussian mixture, at d in {4, 16, 64, 128, 256};
* ``MutableIndex.insert`` of 32-row batches into an sq8 index (attach,
  reverse edges through the strategy, one repair round) at
  d in {16, 64, 128}.

Strategies run in rotated order per repeat so drift spreads evenly.  Each
row records the median, the strategy ``auto`` resolves to and the cost
model's pick, and ``BENCH_AUTO.json`` carries the same figures.

The timing gate - ``auto``'s pick within 10% of the fastest strategy's
median, per d and per path - fires only at ``WKNNG_BENCH_SCALE >= 1``
(n=3000); at smoke scale the run only checks that every path completes.
"""

import time

import numpy as np

from conftest import BENCH_SCALE, publish, publish_summary
from repro.apps.search import GraphSearchIndex, SearchConfig
from repro.core.builder import WKNNGBuilder
from repro.core.config import BuildConfig
from repro.core.mutable import IndexSnapshot, MutableIndex
from repro.data.synthetic import gaussian_mixture
from repro.metrics.records import RecordSet

FULL_SCALE = BENCH_SCALE >= 1.0
STRATEGIES = ("baseline", "atomic", "tiled")
BUILD_DIMS = (4, 16, 64, 128, 256)
INSERT_DIMS = (16, 64, 128)
N_POINTS = 3000
K = 16
INSERT_BATCH = 32
#: timed builds per (d, strategy); timed inserts per repeat
BUILD_REPEATS = 3 if FULL_SCALE else 1
INSERT_REPEATS, INSERTS = (3, 30) if FULL_SCALE else (1, 3)
#: the gate: auto's pick may trail the fastest strategy by this fraction
MAX_SLOWDOWN = 0.10


def _scaled(n: int, floor: int = 300) -> int:
    return max(floor, int(n * BENCH_SCALE))


def _points(n: int, dim: int) -> np.ndarray:
    return gaussian_mixture(n, dim, n_clusters=32, seed=dim)


def _config(strategy: str) -> BuildConfig:
    return BuildConfig(k=K, strategy=strategy, seed=0, n_jobs=1)


def _rotations(repeats: int):
    """Strategy order per repeat, rotated so none always runs first."""
    for rep in range(repeats):
        yield STRATEGIES[rep % 3:] + STRATEGIES[:rep % 3]


def _time_builds(x: np.ndarray) -> dict[str, list[float]]:
    seconds: dict[str, list[float]] = {s: [] for s in STRATEGIES}
    for order in _rotations(BUILD_REPEATS):
        for strategy in order:
            builder = WKNNGBuilder(_config(strategy))
            t0 = time.perf_counter()
            builder.build(x)
            seconds[strategy].append(time.perf_counter() - t0)
    return seconds


def _time_inserts(x: np.ndarray, n_base: int) -> dict[str, list[float]]:
    """Milliseconds per insert call, every strategy from one snapshot."""
    builder = WKNNGBuilder(_config("tiled"))
    graph = builder.build(x[:n_base])
    index = GraphSearchIndex.from_parts(
        x[:n_base], graph, builder.last_forest,
        SearchConfig(ef=32, quantization="sq8"))
    snapshot = IndexSnapshot(0, index, np.arange(n_base, dtype=np.int64),
                             np.zeros(n_base, dtype=bool))
    batches = np.split(x[n_base:], INSERTS)
    ms: dict[str, list[float]] = {s: [] for s in STRATEGIES}
    for order in _rotations(INSERT_REPEATS):
        for strategy in order:
            # snapshots are immutable: each run grows its own successors
            mutable = MutableIndex(snapshot, _config(strategy))
            for batch in batches:
                t0 = time.perf_counter()
                mutable.insert(batch)
                ms[strategy].append(1e3 * (time.perf_counter() - t0))
            assert mutable.counters["inserted"] == INSERTS * INSERT_BATCH
    return ms


def _summarize(path: str, dim: int, samples: dict[str, list[float]],
               unit: str, records: RecordSet) -> dict:
    medians = {s: float(np.median(v)) for s, v in samples.items()}
    auto_pick = BuildConfig(k=K, strategy="auto").resolved_strategy(dim)
    model_pick = BuildConfig(k=K).model_strategy(dim)
    fastest = min(medians, key=medians.get)
    for strategy in STRATEGIES:
        records.add(
            "AUTO",
            {"path": path, "dim": dim, "strategy": strategy, "unit": unit,
             "auto_pick": auto_pick, "model_pick": model_pick},
            {"median": medians[strategy],
             "vs_fastest": medians[strategy] / medians[fastest],
             "samples": len(samples[strategy])},
        )
    return {"dim": dim, f"median_{unit}": medians, "auto_pick": auto_pick,
            "model_pick": model_pick, "fastest": fastest,
            "auto_vs_fastest": medians[auto_pick] / medians[fastest]}


def test_auto_strategy_evidence(results_dir):
    n = _scaled(N_POINTS)
    records = RecordSet()
    builds = [_summarize("build", d, _time_builds(_points(n, d)), "s", records)
              for d in BUILD_DIMS]
    inserts = [
        _summarize("insert", d, _time_inserts(
            _points(n + INSERTS * INSERT_BATCH, d), n), "ms", records)
        for d in INSERT_DIMS
    ]
    publish(results_dir, "AUTO_strategy", records)
    publish_summary(results_dir, "AUTO", {
        "workload": {"n": n, "k": K, "insert_batch": INSERT_BATCH,
                     "build_repeats": BUILD_REPEATS,
                     "insert_repeats": INSERT_REPEATS, "inserts": INSERTS},
        "build": builds,
        "insert": inserts,
    })

    for row in builds + inserts:
        assert row["auto_pick"] == "tiled"
    if FULL_SCALE:
        for path, rows in (("build", builds), ("insert", inserts)):
            for row in rows:
                assert row["auto_vs_fastest"] <= 1.0 + MAX_SLOWDOWN, (
                    f"{path} d={row['dim']}: auto picks {row['auto_pick']}, "
                    f"{row['auto_vs_fastest']:.2f}x the fastest "
                    f"({row['fastest']})"
                )
