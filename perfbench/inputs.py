"""Benchmark-owned inputs and yardstick.

Everything the benchmark feeds the program, and the exact answers it
grades the program against, is generated here from the ``--seed``
argument with plain NumPy.  Nothing is imported from ``repro.data`` or
``repro.baselines``, so a change to the program's own dataset generators
or brute-force baseline cannot move the inputs or the recall figures.
"""

from __future__ import annotations

import numpy as np

#: row block of the brute-force ground truth (bounds its scratch memory)
_GT_BLOCK = 1024


#: the mixtures' cluster centres come from this fixed stream: a workload
#: is one distribution, and ``--seed`` draws a sample of points from it
_LAYOUT_SEED = 0


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, named stream)."""
    tag = int.from_bytes(stream.encode(), "little") % (2**63)
    return np.random.default_rng([int(seed), tag])


def _mixture(n: int, centers: np.ndarray, std: float, seed: int,
             stream: str) -> np.ndarray:
    """``n`` points spread evenly over the clusters (round robin, then
    shuffled), Gaussian noise of ``std`` around each centre."""
    rng = rng_for(seed, stream)
    labels = rng.permutation(np.arange(n) % centers.shape[0])
    return centers[labels] + rng.standard_normal((n, centers.shape[1])) * std


def sift_like(n: int, dim: int, seed: int) -> np.ndarray:
    """SIFT-statistics descriptors: clustered, non-negative, integer-valued
    coordinates clipped to [0, 255], stored as float32."""
    centers = rng_for(_LAYOUT_SEED, "sift-centers").standard_normal((128, dim)) * 40.0
    pts = np.abs(_mixture(n, centers, 12.0, seed, "sift"))
    return np.rint(np.clip(pts, 0.0, 255.0)).astype(np.float32)


def gauss_mixture(n: int, dim: int, seed: int, n_clusters: int = 32) -> np.ndarray:
    """Isotropic Gaussian blobs (std 1) around centres of scale 5."""
    centers = rng_for(_LAYOUT_SEED, "gauss-centers").standard_normal(
        (n_clusters, dim)) * 5.0
    return _mixture(n, centers, 1.0, seed, "gauss").astype(np.float32)


def perturbed(points: np.ndarray, m: int, seed: int, stream: str,
              noise: float = 0.25) -> np.ndarray:
    """``m`` queries: random base points plus Gaussian noise."""
    rng = rng_for(seed, stream)
    base = points[rng.integers(0, points.shape[0], m)]
    return (base + rng.standard_normal(base.shape) * noise).astype(np.float32)


def skewed_reads(points: np.ndarray, length: int, seed: int, stream: str,
                 hot_share: float = 0.3, hot_size: int = 256,
                 exponent: float = 1.1) -> np.ndarray:
    """Read traffic in which a steady share repeats.

    Each request is, with probability ``hot_share``, drawn Zipf-skewed
    from a small pool of ``hot_size`` perturbed points (these repeat, so
    a result cache can serve them); otherwise it is a fresh perturbed
    point seen once.  The share of repeats is therefore the same in every
    run and stays clearly below one half, so the median request is a
    cache miss and the tail is set by the engine.
    """
    rng = rng_for(seed, stream)
    out = perturbed(points, length, seed, stream + "-cold")
    hot = perturbed(points, hot_size, seed, stream + "-hot")
    weights = 1.0 / np.arange(1, hot_size + 1) ** exponent
    is_hot = rng.random(length) < hot_share
    picks = rng.choice(hot_size, size=int(is_hot.sum()), p=weights / weights.sum())
    out[is_hot] = hot[picks]
    return out


def churn_trace(n_initial: int, n_ops: int, batch: int,
                seed: int) -> list[tuple[str, np.ndarray]]:
    """A fixed insert/delete op trace over external ids.

    Ids ``0..n_initial-1`` are the initial points; inserts take the next
    fresh ids in order (the mutable index assigns external ids the same
    way), deletes pick uniformly among the ids live at that point of the
    trace.  Ops cycle insert, insert, delete-of-three-batches, so two
    thirds of the calls are inserts, and the tombstone fraction crosses
    the compaction threshold at the same points of every trace.
    """
    rng = rng_for(seed, "churn-trace")
    live = list(range(n_initial))
    next_id = n_initial
    ops: list[tuple[str, np.ndarray]] = []
    for i in range(n_ops):
        if i % 3 != 2:
            ids = np.arange(next_id, next_id + batch, dtype=np.int64)
            next_id += batch
            live.extend(int(v) for v in ids)
            ops.append(("insert", ids))
        else:
            pick = np.sort(rng.choice(len(live), size=3 * batch, replace=False))
            ids = np.array([live[j] for j in pick], dtype=np.int64)
            for j in pick[::-1]:
                live[j] = live[-1]
                live.pop()
            ops.append(("delete", ids))
    return ops


def exact_knn(base: np.ndarray, queries: np.ndarray, k: int,
              exclude_self: bool = False) -> np.ndarray:
    """Exact k nearest base rows of each query (squared L2), ids only.

    Distances are formed in float64 so ties and cancellation do not
    disturb the yardstick.  ``exclude_self`` drops row ``i`` from query
    ``i``'s candidates (the all-points graph convention).
    """
    b = base.astype(np.float64)
    b_sq = np.einsum("ij,ij->i", b, b)
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for lo in range(0, queries.shape[0], _GT_BLOCK):
        q = queries[lo:lo + _GT_BLOCK].astype(np.float64)
        d = b_sq[None, :] - 2.0 * (q @ b.T) + np.einsum("ij,ij->i", q, q)[:, None]
        if exclude_self:
            rows = np.arange(q.shape[0])
            d[rows, lo + rows] = np.inf
        part = np.argpartition(d, k, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(d, part, axis=1), axis=1, kind="stable")
        out[lo:lo + q.shape[0]] = np.take_along_axis(part, order, axis=1)
    return out


def exact_sq_dists(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Row-paired squared L2 ``|queries[i] - points[i, j]|^2`` in float64.

    ``queries`` is ``(m, d)``, ``points`` is ``(m, k, d)``.
    """
    diff = points.astype(np.float64) - queries.astype(np.float64)[:, None, :]
    return np.einsum("mkd,mkd->mk", diff, diff)


def recall_at_k(found: np.ndarray, truth: np.ndarray) -> float:
    """Mean share of each truth row found in the matching result row."""
    k = truth.shape[1]
    hits = sum(len(np.intersect1d(f[f >= 0], t)) for f, t in zip(found, truth))
    return hits / float(truth.shape[0] * k)
