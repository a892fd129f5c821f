"""Neighbour-of-neighbour refinement: the NN-descent local join.

After the forest phase each point's list is good but imperfect: true
neighbour pairs that never co-located in any leaf are missing.  Refinement
exploits the transitivity of proximity with the **local join** of
NN-descent (Dong et al., WWW'11): for every point ``i``, the members of its
*general neighbourhood* ``B[i]`` (forward neighbours plus reverse
neighbours - points listing ``i``) are proposed **to each other** as
candidates.  Two points that share any common neighbour therefore meet,
which is a much stronger generator than forward-only two-hop walks.

Two standard optimisations keep rounds cheap:

* **new/old flags** - a pair is only joined if at least one endpoint
  entered its list since the previous round (``new x new`` and
  ``new x old`` pairs); converged regions stop generating work, which is
  what makes the iteration terminate;
* **sampling** - at most ``sample`` new and ``sample`` old entries per
  list (forward and reverse separately) participate per round, bounding
  the join to O(sample^2) pairs per point.

Everything is vectorised: neighbourhoods are padded ``(n, s)`` matrices,
the join is one broadcast, and duplicate proposals are removed with a
sort over encoded ``(row, col)`` keys.

The round is **row-sharded** across ``n_jobs`` forked workers, and the
one-shard case is the serial round.  Once the global inputs (new/old
flags, sampling keys, reverse neighbourhoods) are drawn - by the parent,
in one fixed RNG order - candidate generation is row-local: workers join
and canonicalise their row ranges, the parent takes the global union, and
a second row-sharded stage computes distances and inserts.  All three
maintenance disciplines are row-independent, so splitting the insert by
row ranges is *exact*: every ``n_jobs`` gives the same lists, bitwise.

A round's **insertion count** is the number of entries present in the
lists at its end and absent at its start - one definition for every
strategy and backend, whatever a kernel counts internally (an atomic CAS
win that a later candidate evicts in the same round is not an insertion).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.kernels.counters import OpCounters
from repro.kernels.distance import sq_l2_pairs
from repro.kernels.knn_state import EMPTY_ID, KnnState
from repro.kernels.strategy import Strategy
from repro.utils.parallel import map_forked, shard_ranges

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability


@dataclass
class RefineState:
    """Cross-round bookkeeping for the local join.

    ``prev_ids`` snapshots the lists at the start of the previous round so
    the next round can derive the *new* flags (entries not present
    before).  ``None`` means "everything is new" (the first round after
    the forest phase joins every entry).  ``shard_seconds`` collects each
    round's per-shard worker time (join + insert).
    """

    prev_ids: np.ndarray | None = None
    rounds_run: int = 0
    insertions: list[int] = field(default_factory=list)
    shard_seconds: list[float] = field(default_factory=list)


def _new_flags(state: KnnState, prev_ids: np.ndarray | None) -> np.ndarray:
    """Boolean (n, k): True where the entry was not in the row last round."""
    ids = state.ids
    valid = ids != EMPTY_ID
    if prev_ids is None:
        return valid
    # only a row whose slots differ from last round can hold a new entry;
    # for those, row-wise membership via offset-encoded searchsorted
    rows = np.flatnonzero((ids != prev_ids).any(axis=1))
    flags = np.zeros(ids.shape, dtype=bool)
    if rows.size:
        cur = ids[rows].astype(np.int64)
        m, k = cur.shape
        offs = (np.arange(m, dtype=np.int64) * np.int64(2) ** 34)[:, None]
        prev_sorted = np.sort(prev_ids[rows].astype(np.int64) + offs, axis=1).reshape(-1)
        flat = (cur + offs).reshape(-1)
        pos = np.clip(np.searchsorted(prev_sorted, flat), 0, prev_sorted.size - 1)
        flags[rows] = (prev_sorted[pos] != flat).reshape(m, k)
    return valid & flags


def sample_columns_with_keys(
    ids: np.ndarray,
    eligible: np.ndarray,
    sample: int,
    keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sample of up to ``sample`` eligible entries (vectorised).

    Returns a padded ``(n, sample)`` id matrix and its validity mask.
    Sampling is by the given random ``keys`` (same shape as ``ids``):
    ineligible entries get pushed past the horizon, then the ``sample``
    smallest keys per row are kept.  Row-local, so the round draws the
    keys once and each shard slices its row range.
    """
    n, k = ids.shape
    s = min(sample, k)
    keys = keys.copy()
    keys[~eligible] = 2.0  # beyond any real key
    take = np.argsort(keys, axis=1)[:, :s]
    out = np.take_along_axis(ids, take, axis=1).astype(np.int64)
    ok = np.take_along_axis(eligible, take, axis=1)
    out[~ok] = EMPTY_ID
    return out, ok


def _reverse_lists(
    state: KnnState,
    flags_new: np.ndarray,
    sample: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled reverse neighbourhoods, split by the forward entry's flag.

    Returns two padded ``(n, sample)`` matrices: reverse-new and
    reverse-old (``EMPTY_ID`` padding).  An edge ``i -> j`` contributes
    ``i`` to ``j``'s reverse list, carrying the *forward* entry's new/old
    flag, as in the reference NN-descent.
    """
    n, k = state.ids.shape
    valid = state.ids != EMPTY_ID
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = state.ids.reshape(-1).astype(np.int64)
    is_new = flags_new.reshape(-1)
    keep = valid.reshape(-1)
    src, dst, is_new = src[keep], dst[keep], is_new[keep]

    out = []
    for select in (is_new, ~is_new):
        s_src, s_dst = src[select], dst[select]
        # random order within each destination group, then take first `sample`
        order = np.lexsort((rng.random(s_dst.shape[0]), s_dst))
        s_src, s_dst = s_src[order], s_dst[order]
        first = np.searchsorted(s_dst, np.arange(n))
        last = np.searchsorted(s_dst, np.arange(n), side="right")
        counts = np.minimum(last - first, sample)
        mat = np.full((n, sample), EMPTY_ID, dtype=np.int64)
        rows_with = np.flatnonzero(counts > 0)
        if rows_with.size:
            pos = first[rows_with, None] + np.arange(sample)[None, :]
            ok = np.arange(sample)[None, :] < counts[rows_with, None]
            pos = np.where(ok, pos, 0)
            mat[rows_with] = np.where(ok, s_src[pos], EMPTY_ID)
        out.append(mat)
    return out[0], out[1]


def _join_worker(shared: tuple, lo: int, hi: int) -> tuple:
    """Local join for rows ``[lo, hi)``: canonical unique pair keys.

    Every sampled *new* neighbourhood member is paired with every sampled
    member (new or old); pairs are canonicalised to ``lo * n + hi`` keys
    before the dedupe sort, halving its volume.
    """
    ids, flags, keys_new, keys_old, rev_new, rev_old, sample, n = shared
    t0 = time.perf_counter()
    # a row with no new member, forward or reverse, proposes no pair
    rows = lo + np.flatnonzero(
        flags[lo:hi].any(axis=1) | (rev_new[lo:hi] != EMPTY_ID).any(axis=1)
    )
    ids_s = ids[rows]
    flags_s = flags[rows]
    valid = ids_s != EMPTY_ID
    fwd_new, _ = sample_columns_with_keys(ids_s, flags_s, sample, keys_new[rows])
    fwd_old, _ = sample_columns_with_keys(
        ids_s, valid & ~flags_s, sample, keys_old[rows]
    )
    b_new = np.concatenate([fwd_new, rev_new[rows]], axis=1)
    b_all = np.concatenate([fwd_new, rev_new[rows], fwd_old, rev_old[rows]], axis=1)
    shape = (rows.size, b_new.shape[1], b_all.shape[1])
    a = np.broadcast_to(b_new[:, :, None], shape).reshape(-1)
    b = np.broadcast_to(b_all[:, None, :], shape).reshape(-1)
    ok = (a != EMPTY_ID) & (b != EMPTY_ID) & (a != b)
    a, b = a[ok], b[ok]
    if a.size == 0:
        return np.empty(0, dtype=np.int64), time.perf_counter() - t0
    keys = np.minimum(a, b) * np.int64(n) + np.maximum(a, b)
    return np.unique(keys), time.perf_counter() - t0


def _join(
    state: KnnState,
    rs: RefineState,
    rng: np.random.Generator,
    sample: int,
    n_jobs: int,
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]], list[float]]:
    """Draw the round's inputs, join per shard, and unite the shards.

    Consumes the RNG in one fixed order (forward-new keys, forward-old
    keys, then the two reverse-list draws) and records the lists' current
    ids as ``rs.prev_ids`` - what the round's insertions are counted
    against.  Returns ``(rows, cols, shards, seconds)``: both directions
    of every unique unordered pair, the row shards and their join time.
    """
    n, k = state.ids.shape
    flags = _new_flags(state, rs.prev_ids)
    keys_new = rng.random((n, k))
    keys_old = rng.random((n, k))
    rev_new, rev_old = _reverse_lists(state, flags, sample, rng)
    shards = shard_ranges(n, max(1, n_jobs))
    parts = map_forked(
        _join_worker,
        (state.ids, flags, keys_new, keys_old, rev_new, rev_old, sample, n),
        shards,
        n_jobs,
    )
    rs.prev_ids = state.ids.copy()
    key_parts = [part[0] for part in parts if part[0].size]
    uniq = (
        np.unique(np.concatenate(key_parts))
        if key_parts
        else np.empty(0, dtype=np.int64)
    )
    klo = uniq // n
    khi = uniq % n
    rows = np.concatenate([klo, khi])
    cols = np.concatenate([khi, klo])
    return rows, cols, shards, [float(part[1]) for part in parts]


def local_join_candidates(
    state: KnnState,
    refine_state: RefineState,
    rng: np.random.Generator,
    sample: int,
    n_jobs: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """One round's candidate pairs from the sampled local join.

    Returns deduplicated ``(rows, cols)`` pair arrays: for every point, each
    sampled *new* neighbourhood member is paired with every sampled member
    (new or old), in both directions.  Records the lists' current ids in
    ``refine_state.prev_ids``; a caller that inserts the pairs itself
    closes the round with :func:`end_round`.
    """
    rows, cols, _, _ = _join(state, refine_state, rng, sample, n_jobs)
    return rows, cols


def end_round(state: KnnState, refine_state: RefineState) -> int:
    """Close a round: count the entries present now and absent at its start."""
    inserted = int(_new_flags(state, refine_state.prev_ids).sum())
    refine_state.rounds_run += 1
    refine_state.insertions.append(inserted)
    return inserted


def _insert_worker(shared: tuple, lo: int, hi: int) -> tuple:
    """Distances + insertion for the candidates targeting rows ``[lo, hi)``.

    Every maintenance discipline is row-independent, so running it on a
    row slice with the row's full (order-preserved) candidate sequence is
    exactly the serial computation for those rows.  Distances are
    computed once per unordered pair within the shard and mirrored
    (``(a-b)**2 == (b-a)**2`` holds bitwise in IEEE arithmetic).
    """
    ids, dists, x, rows, cols, strategy, k = shared
    t0 = time.perf_counter()
    mask = (rows >= lo) & (rows < hi)
    r, c = rows[mask], cols[mask]
    sub = KnnState(hi - lo, k)
    sub.ids = ids[lo:hi]
    sub.dists = dists[lo:hi]
    strat = strategy.detached()
    inserted = 0
    if r.size:
        # rows/cols are the unique (lo, hi) pairs followed by their mirror
        half = rows.size // 2
        need = mask[:half] | mask[half:]
        d = np.empty(half, dtype=np.float32)
        d[need] = sq_l2_pairs(x, rows[:half][need], cols[:half][need])
        strat.counters.distance_evals += int(need.sum())
        inserted = strat.insert(sub, r - lo, c, np.concatenate([d, d])[mask])
    return (
        sub.ids,
        sub.dists,
        inserted,
        strat.counters.as_dict(),
        time.perf_counter() - t0,
    )


def refine_round(
    state: KnnState,
    x: np.ndarray,
    strategy: Strategy,
    rng: np.random.Generator,
    sample: int,
    refine_state: RefineState | None = None,
    obs: "Observability | None" = None,
    n_jobs: int = 1,
) -> int:
    """Run one local-join round; returns the number of list insertions.

    Passing the same :class:`RefineState` across rounds enables the
    new/old-flag optimisation; without it every round joins everything
    (correct, just more work).  A return of 0 means the round converged.
    ``n_jobs > 1`` shards the join and the insert by row ranges across
    forked workers; the lists are the same for every ``n_jobs``.

    With an :class:`~repro.obs.Observability` attached, the round emits
    ``refine_round:before``/``:after`` profiling hooks and accumulates the
    ``refine/candidate_pairs`` and ``refine/insertions`` counters.
    """
    rs = refine_state if refine_state is not None else RefineState()
    round_index = rs.rounds_run
    if obs is not None:
        from repro.obs.hooks import Events

        obs.hooks.emit(Events.REFINE_ROUND_BEFORE, round=round_index,
                       sample=sample)
    rows, cols, shards, seconds = _join(state, rs, rng, sample, n_jobs)
    pair_count = int(rows.size)
    if pair_count:
        kernel = f"refine_pairs/{strategy.name}"
        t0 = strategy._dispatch_begin(kernel, pairs=pair_count)
        parts = map_forked(
            _insert_worker,
            (state.ids, state.dists, x, rows, cols, strategy, state.k),
            shards,
            n_jobs,
        )
        kernel_inserted = 0
        for i, ((lo, hi), part) in enumerate(zip(shards, parts)):
            state.ids[lo:hi] = part[0]
            state.dists[lo:hi] = part[1]
            kernel_inserted += int(part[2])
            strategy.counters.add(OpCounters(**part[3]))
            seconds[i] += float(part[4])
        strategy._dispatch_end(t0, kernel, kernel_inserted, pairs=pair_count)
    rs.shard_seconds.extend(seconds)
    inserted = end_round(state, rs)
    if obs is not None:
        from repro.obs.hooks import Events

        obs.metrics.counter("refine/candidate_pairs").inc(pair_count)
        obs.metrics.counter("refine/insertions").inc(inserted)
        obs.hooks.emit(Events.REFINE_ROUND_AFTER, round=round_index,
                       candidates=pair_count, inserted=inserted)
    return inserted
