"""Tests for the NN-descent local-join refinement."""

import numpy as np

from repro.core.refine import (
    RefineState,
    _new_flags,
    _reverse_lists,
    local_join_candidates,
    refine_round,
    sample_columns_with_keys,
)
from repro.kernels.knn_state import EMPTY_ID, KnnState
from repro.kernels.strategy import get_strategy


def make_state(ids):
    ids = np.asarray(ids, dtype=np.int32)
    state = KnnState(ids.shape[0], ids.shape[1])
    state.ids[...] = ids
    state.dists[...] = np.where(ids == EMPTY_ID, np.inf, 1.0)
    return state


class TestNewFlags:
    def test_everything_new_without_prev(self):
        state = make_state([[1, 2], [0, EMPTY_ID]])
        flags = _new_flags(state, None)
        assert flags.tolist() == [[True, True], [True, False]]

    def test_unchanged_entries_old(self):
        state = make_state([[1, 2], [0, 3]])
        prev = np.array([[2, 1], [3, 9]], dtype=np.int32)
        flags = _new_flags(state, prev)
        assert flags.tolist() == [[False, False], [True, False]]

    def test_empty_slots_never_new(self):
        state = make_state([[EMPTY_ID, 5]])
        flags = _new_flags(state, np.array([[9, 9]], dtype=np.int32))
        assert flags.tolist() == [[False, True]]


class TestSampleColumns:
    def test_samples_only_eligible(self):
        rng = np.random.default_rng(0)
        ids = np.array([[10, 20, 30, 40]], dtype=np.int32)
        eligible = np.array([[True, False, True, False]])
        out, ok = sample_columns_with_keys(ids, eligible, 4, rng.random(ids.shape))
        got = set(out[ok].tolist())
        assert got <= {10, 30}

    def test_sample_cap(self):
        rng = np.random.default_rng(0)
        ids = np.tile(np.arange(10, dtype=np.int32), (3, 1))
        eligible = np.ones((3, 10), dtype=bool)
        out, ok = sample_columns_with_keys(ids, eligible, 4, rng.random(ids.shape))
        assert out.shape == (3, 4)
        assert ok.all()

    def test_invalid_marked(self):
        rng = np.random.default_rng(0)
        ids = np.array([[5, 6]], dtype=np.int32)
        eligible = np.array([[False, False]])
        out, ok = sample_columns_with_keys(ids, eligible, 2, rng.random(ids.shape))
        assert (out == EMPTY_ID).all() and not ok.any()


class TestReverseLists:
    def test_reverse_edges_found(self):
        state = make_state([[1, 2], [2, EMPTY_ID], [EMPTY_ID, EMPTY_ID]])
        flags = state.ids != EMPTY_ID  # everything new
        rev_new, rev_old = _reverse_lists(state, flags, 4, np.random.default_rng(0))
        assert 0 in rev_new[1].tolist()  # 0 lists 1
        assert set(rev_new[2][rev_new[2] != EMPTY_ID].tolist()) == {0, 1}
        assert (rev_old == EMPTY_ID).all()

    def test_old_edges_go_to_old_list(self):
        state = make_state([[1, EMPTY_ID]])
        flags = np.zeros((1, 2), dtype=bool)  # nothing new
        rev_new, rev_old = _reverse_lists(state, flags, 2, np.random.default_rng(0))
        assert (rev_new == EMPTY_ID).all()
        assert 0 in rev_old[1].tolist() if state.n > 1 else True

    def test_sample_bound(self):
        # many rows all pointing at node 0
        n = 20
        ids = np.full((n, 2), EMPTY_ID, dtype=np.int32)
        ids[1:, 0] = 0
        state = make_state(ids)
        flags = state.ids != EMPTY_ID
        rev_new, _ = _reverse_lists(state, flags, 3, np.random.default_rng(0))
        assert (rev_new[0] != EMPTY_ID).sum() == 3


class TestLocalJoin:
    def test_pairs_are_deduplicated(self):
        state = make_state([[1, 2], [0, 2], [0, 1]])
        rows, cols = local_join_candidates(state, RefineState(), np.random.default_rng(0), 4)
        keys = rows * 3 + cols
        assert len(np.unique(keys)) == len(keys)

    def test_no_self_pairs(self):
        state = make_state([[1, 2], [0, 2], [0, 1]])
        rows, cols = local_join_candidates(state, RefineState(), np.random.default_rng(0), 4)
        assert (rows != cols).all()

    def test_join_proposes_shared_neighbour_pair(self):
        # 1 and 2 both appear in 0's list -> the join must propose (1, 2)
        state = make_state([[1, 2], [0, EMPTY_ID], [0, EMPTY_ID]])
        rows, cols = local_join_candidates(state, RefineState(), np.random.default_rng(0), 4)
        pairs = set(zip(rows.tolist(), cols.tolist()))
        assert (1, 2) in pairs and (2, 1) in pairs

    def test_converged_state_generates_nothing(self):
        state = make_state([[1, 2], [0, 2], [0, 1]])
        rs = RefineState(prev_ids=state.ids.copy())
        rows, cols = local_join_candidates(state, rs, np.random.default_rng(0), 4)
        assert rows.size == 0


class TestRefineRound:
    def test_improves_random_graph(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 8)).astype(np.float32)
        state = KnnState(200, 6)
        strat = get_strategy("tiled")
        # seed with random neighbours
        for i in range(200):
            cand = rng.choice(np.delete(np.arange(200), i), 6, replace=False)
            d = ((x[i] - x[cand]) ** 2).sum(1)
            state.merge_rows(np.array([i]), cand[None, :].astype(np.int32),
                             d[None, :].astype(np.float32))
        before = state.dists.sum()
        rs = RefineState()
        inserted = refine_round(state, x, strat, rng, 6, rs)
        assert inserted > 0
        assert state.dists.sum() < before

    def test_rounds_converge_to_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((150, 4)).astype(np.float32)
        state = KnnState(150, 5)
        strat = get_strategy("tiled")
        strat.update_leaf(state, x, np.arange(150))  # exact already
        rs = RefineState()
        for _ in range(3):
            inserted = refine_round(state, x, strat, rng, 5, rs)
        assert inserted == 0

    def test_refine_state_tracks_rounds(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 4)).astype(np.float32)
        state = KnnState(50, 4)
        strat = get_strategy("tiled")
        strat.update_leaf(state, x, np.arange(25))
        rs = RefineState()
        refine_round(state, x, strat, rng, 4, rs)
        refine_round(state, x, strat, rng, 4, rs)
        assert rs.rounds_run == 2
        assert len(rs.insertions) == 2

    def test_insertions_are_entries_added_by_the_round(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((120, 6)).astype(np.float32)
        state = KnnState(120, 5)
        strat = get_strategy("atomic")
        strat.update_leaf(state, x, np.arange(40))
        start = state.ids.copy()
        rs = RefineState()
        inserted = refine_round(state, x, strat, rng, 5, rs)
        assert inserted == int(_new_flags(state, start).sum())
        assert rs.insertions == [inserted]

    def test_sharded_round_matches_one_shard(self):
        x = np.random.default_rng(5).standard_normal((160, 6)).astype(np.float32)
        states = []
        for n_jobs in (1, 3):
            rng = np.random.default_rng(6)
            state = KnnState(160, 5)
            strat = get_strategy("baseline")
            strat.update_leaf(state, x, np.arange(80))
            rs = RefineState()
            counts = [refine_round(state, x, strat, rng, 5, rs, n_jobs=n_jobs)
                      for _ in range(2)]
            states.append((state.ids.copy(), state.dists.copy(), counts))
        np.testing.assert_array_equal(states[0][0], states[1][0])
        np.testing.assert_array_equal(states[0][1], states[1][1])
        assert states[0][2] == states[1][2]
