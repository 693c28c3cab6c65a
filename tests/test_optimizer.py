"""Solver cross-checks: DP against exhaustive search and the knapsack form."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefetch360 import (
    DirectionGrid,
    Instance,
    QualityLadder,
    SizeModel,
    TileState,
    UtilityModel,
    brute_force,
    circular_smooth,
    eval_objective,
    point_mass,
    selection_size,
    solve_dp,
    solve_mckp,
    uniform,
    upgrade_sizes,
    wrapped_gaussian,
)
from prefetch360 import optimizer
from prefetch360.cli import ORACLE_TOL

from conftest import dyadic_instance, random_instance


class TestToyInstance:
    def test_optimum_spends_the_budget_where_the_eyes_are(self, toy_instance):
        report = solve_dp(toy_instance(capacity=300, beta=0.0))
        assert report.selection.levels == (2, 1, 0)
        assert report.value == pytest.approx(0.65, abs=1e-12)
        assert report.method == "dp"

    def test_smoothness_weight_flattens_the_optimum(self, toy_instance):
        report = solve_dp(toy_instance(capacity=300, beta=0.5))
        assert report.selection.levels == (1, 1, 1)
        assert report.value == pytest.approx(0.25, abs=1e-12)

    def test_zero_capacity_pays_the_full_stall_penalty(self, toy_instance):
        for beta in (0.0, 0.25, 0.5):
            report = solve_dp(toy_instance(capacity=0, beta=beta))
            assert report.selection.levels == (0, 0, 0)
            assert report.value == pytest.approx(-(1.0 - beta), abs=1e-12)

    def test_report_value_matches_reevaluation(self, toy_instance):
        inst = toy_instance(capacity=300, beta=0.5)
        report = solve_dp(inst)
        assert eval_objective(report.selection, inst) == pytest.approx(report.value, abs=1e-12)

    def test_subproblem_count(self, toy_instance):
        report = solve_dp(toy_instance(capacity=300))
        assert report.stats.subproblems == 3 * 3 * 3 * 301  # (L+1)^2 * N * (C+1)


class TestAgainstBruteForce:
    def test_values_agree_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(80):
            inst = random_instance(rng)
            dp = solve_dp(inst)
            exhaustive = brute_force(inst)
            assert abs(dp.value - exhaustive.value) <= 1e-9
            assert selection_size(dp.selection, inst) <= inst.capacity
            assert eval_objective(dp.selection, inst) == pytest.approx(dp.value, abs=1e-9)

    def test_selections_agree_when_arithmetic_is_exact(self):
        # dyadic probabilities and utilities make equal values compare equal,
        # so the tie order itself must match, not just the optimum
        rng = np.random.default_rng(7)
        for _ in range(120):
            inst = dyadic_instance(rng)
            dp = solve_dp(inst)
            exhaustive = brute_force(inst)
            assert dp.value == exhaustive.value
            assert dp.selection.levels == exhaustive.selection.levels

    @pytest.mark.parametrize("n_tiles", [4, 6])
    def test_exact_ties_resolve_in_the_documented_order(self, toy_ladder, n_tiles):
        # one level-1 tile ties across tiles 1..N-1; the order (levels[0], levels[N-1],
        # ..., levels[1]) puts it on tile 1, where plain digit order would put it on N-1
        probs = np.array([0.5] + [0.5 / (n_tiles - 1)] * (n_tiles - 1))
        inst = Instance(DirectionGrid(n_tiles), toy_ladder, UtilityModel("linear"), probs, 300, 0.0)
        expected = (2, 1) + (0,) * (n_tiles - 2)
        assert solve_dp(inst).selection.levels == expected
        assert brute_force(inst).selection.levels == expected

    def test_brute_force_refuses_huge_spaces(self, ladder6):
        inst = Instance(DirectionGrid(12), ladder6, UtilityModel("linear"),
                        np.full(12, 1 / 12), 1000, 0.0)
        with pytest.raises(ValueError, match="brute-force limit"):
            brute_force(inst)


class TestKnapsackForm:
    def test_requires_beta_zero(self, toy_instance):
        with pytest.raises(ValueError, match="beta = 0"):
            solve_mckp(toy_instance(beta=0.5))

    def test_matches_dp_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            inst = random_instance(rng)
            if inst.beta != 0.0:
                inst = Instance(inst.grid, inst.ladder, inst.utility, inst.probs,
                                inst.capacity, 0.0)
            assert solve_mckp(inst).value == solve_dp(inst).value

    def test_toy_value(self, toy_instance):
        report = solve_mckp(toy_instance(capacity=300, beta=0.0))
        assert report.method == "mckp"
        assert report.value == 0.65


class TestCapacityGrid:
    @pytest.mark.parametrize("draw, seed", [(random_instance, 11), (dyadic_instance, 12)],
                             ids=["random", "dyadic"])
    def test_one_pass_matches_a_solve_per_capacity(self, draw, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            inst = draw(rng)
            # unsorted, with 0, the top budget and a repeated entry
            picks = rng.integers(0, inst.capacity + 1, size=4).tolist()
            caps = [picks[0], 0, inst.capacity, *picks[1:], picks[0]]
            # each pin's tile-0 price -1, +0 and +1: every pin meets room -1, 0 and 1
            caps += [min(max(int(b) + d, 0), inst.capacity)
                     for b in inst.size_table[0] for d in (-1, 0, 1)]
            rng.shuffle(caps)
            report = solve_dp(inst, caps)
            assert len(report.selections) == len(caps)
            for cap, selection in zip(caps, report.selections):
                alone = solve_dp(replace(inst, capacity=cap))
                assert selection.levels == alone.selection.levels
                assert selection.value == alone.value
                assert selection_size(selection, inst) <= cap
                if draw is dyadic_instance:
                    # exact arithmetic, so brute force agrees bit for bit, ties included
                    exhaustive = brute_force(replace(inst, capacity=cap))
                    assert selection.levels == exhaustive.selection.levels
                    assert selection.value == exhaustive.value

    def test_rejects_capacities_outside_the_table(self, toy_instance):
        inst = toy_instance(capacity=300)
        with pytest.raises(ValueError, match="capacity"):
            solve_dp(inst, [100, 301])
        with pytest.raises(ValueError, match="capacity"):
            solve_dp(inst, [-5, 100])

    def test_dp_refuses_parents_tables_over_the_limit(self, ladder6, grid6, monkeypatch):
        from prefetch360 import optimizer

        # the limit admits N=24, six levels, C=400k (four-second chunks)
        assert 7 * 7 * 23 * 400_001 * 2 <= optimizer.PARENTS_TABLE_LIMIT
        inst = Instance(grid6, ladder6, UtilityModel("linear"), np.full(6, 1 / 6), 1000, 0.0)
        # tiles 1..5 only: tile 0's level is the pinned l0
        table_bytes = 7 * 7 * 5 * 1001 * 2
        monkeypatch.setattr(optimizer, "PARENTS_TABLE_LIMIT", table_bytes)
        assert solve_dp(inst).selection.levels
        monkeypatch.setattr(optimizer, "PARENTS_TABLE_LIMIT", table_bytes - 1)
        with pytest.raises(ValueError, match="parents table"):
            solve_dp(inst)

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_dp_holds_one_pinned_levels_table_at_a_time(self, ladder6, beta):
        n_tiles, cap = 24, 8000
        # one conditioned row at beta = 0, where every row is the same
        width = 1 if beta == 0.0 else ladder6.n_levels + 1
        grid = DirectionGrid(n_tiles)
        inst = Instance(grid, ladder6, UtilityModel("log"), wrapped_gaussian(30.0, grid), cap, beta)
        tracemalloc.start()
        try:
            solve_dp(inst, [cap // 2, cap // 4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one pin's int16 parents table, the two float64 value layers, 1 MiB of block scratch
        one_table = (n_tiles - 1) * width * (cap + 1) * 2
        layers = 2 * width * (cap + 1) * 8
        assert peak <= one_table + layers + (1 << 20)


class TestBlocking:
    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_block_edges_move_no_bit(self, block, monkeypatch):
        rng = np.random.default_rng(block)
        cases = []
        for i in range(30):
            inst = random_instance(rng, max_capacity=300 if block == 1 else 900)
            if i % 2:
                # levels at or below the cached one are free: many exact ties
                cached = TileState(rng.integers(0, inst.ladder.n_levels + 1, size=inst.grid.n_tiles))
                mode = ("svc_ideal", "redownload")[i // 2 % 2]
                inst = replace(inst, sizes=upgrade_sizes(cached, inst.ladder, SizeModel(mode)))
            picks = rng.integers(0, inst.capacity + 1, size=3).tolist()
            caps = [picks[0], 0, inst.capacity, picks[1], picks[0], picks[2]]
            cases.append((inst, caps, solve_dp(inst, caps)))
        monkeypatch.setattr(optimizer, "_BLOCK", block)
        for inst, caps, default in cases:
            blocked = solve_dp(inst, caps)
            assert blocked.selection.levels == default.selection.levels
            assert blocked.value == default.value
            for got, want in zip(blocked.selections, default.selections, strict=True):
                assert got.levels == want.levels
                assert got.value == want.value

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_capacity_over_two_blocks_matches_the_references(self, ladder6, grid6, beta):
        capacity = 20_000
        assert capacity > 2 * optimizer._BLOCK
        inst = Instance(grid6, ladder6, UtilityModel("large_screen"), wrapped_gaussian(30.0, grid6),
                        capacity, beta)
        dp = solve_dp(inst)
        exhaustive = brute_force(inst)
        assert dp.selection.levels == exhaustive.selection.levels
        assert abs(dp.value - exhaustive.value) <= ORACLE_TOL
        if beta == 0.0:
            assert dp.value == solve_mckp(inst).value


class TestTwoPasses:
    def test_one_row_is_every_dense_row_at_beta_zero(self, ladder6, grid6):
        cap = 2 * optimizer._BLOCK + 500
        probs = np.array([0.0, 0.1, 0.4, 0.3, 0.2, 0.0])
        inst = Instance(grid6, ladder6, UtilityModel("log"), probs, cap, 0.0)
        gains, sizes, width = optimizer._gains(inst), inst.size_table, ladder6.n_levels + 1
        for l0 in (0, 3, width - 1):
            room = cap - int(sizes[0, l0])
            tables = (np.empty((5, width, room + 1), dtype=np.int16),
                      np.empty((5, 1, room + 1), dtype=np.int16))
            for dense_parents, one_parents in ((None, None), tables):
                dense = optimizer._forward(gains, sizes, l0, room, np.empty((2, width, cap + 1)),
                                           parents=dense_parents)
                one = optimizer._forward(gains[:, :, :1], sizes, l0, room,
                                         np.empty((2, 1, cap + 1)), parents=one_parents)
                for row in dense[:, :room + 1]:
                    assert np.array_equal(row, one[0, :room + 1])
            # the backtrack reads row 0 for every conditioned level
            for row in range(width):
                assert np.array_equal(dense_parents[:, row], one_parents[:, 0])

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_parents_only_for_the_winning_pins(self, ladder6, grid6, beta):
        inst = Instance(grid6, ladder6, UtilityModel("log"), wrapped_gaussian(30.0, grid6),
                        12_000, beta)
        sizes = inst.size_table
        paying = sum(1 for b in sizes[0] if b <= inst.capacity)
        for caps in ([], [0, 300, 700, 1500, 3000, 6000, 9000, 12_000]):
            with mock.patch.object(optimizer, "_forward", wraps=optimizer._forward) as spy:
                report = solve_dp(inst, caps)
            reruns = [call for call in spy.call_args_list if call.kwargs.get("parents") is not None]
            assert len(spy.call_args_list) == paying + len(reruns)
            # each rerun stops at the room of the largest budget its pin wins
            won = {}
            budgets = [inst.capacity, *caps]
            for cap, selection in zip(budgets, [report.selection, *report.selections]):
                l0 = selection.levels[0]
                won[l0] = max(won.get(l0, 0), cap - int(sizes[0, l0]))
            assert {call.args[2]: call.args[3] for call in reruns} == won
            assert len(reruns) == len(won) <= ladder6.n_levels + 1
            if caps:
                assert len(won) > 1
            else:
                assert len(reruns) == 1

    @settings(deadline=None, max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1),
           shares=st.lists(st.integers(0, 1000), min_size=1, max_size=6))
    def test_every_budget_matches_brute_force_on_exact_arithmetic(self, seed, shares):
        # dyadic draws make ties exact, so pass 1's choice among tied pins shows in the levels
        inst = dyadic_instance(np.random.default_rng(seed), max_tiles=5, max_levels=3)
        caps = [inst.capacity * share // 1000 for share in shares]
        report = solve_dp(inst, caps)
        for cap, selection in zip(caps, report.selections, strict=True):
            exhaustive = brute_force(replace(inst, capacity=cap))
            assert selection.levels == exhaustive.selection.levels
            assert selection.value == exhaustive.value


class TestStructuralProperties:
    def test_value_is_nondecreasing_in_capacity(self, ladder6, grid6):
        probs = wrapped_gaussian(80.0, grid6)
        last = -np.inf
        for capacity in range(0, 6000, 500):
            inst = Instance(grid6, ladder6, UtilityModel("sqrt"), probs, capacity, 0.2)
            value = solve_dp(inst).value
            assert value >= last - 1e-12
            last = value

    def test_saturated_budget_buys_the_top_level_everywhere(self, ladder6, grid6):
        inst = Instance(grid6, ladder6, UtilityModel("linear"), uniform(grid6),
                        6 * 4198, 0.0)
        report = solve_dp(inst)
        assert report.selection.levels == (6,) * 6
        assert report.value == pytest.approx(1.0, abs=1e-12)

    def test_probability_rotation_rotates_the_selection_value(self, ladder6, grid6):
        probs = wrapped_gaussian(45.0, grid6)
        for shift in (1, 3):
            base = solve_dp(Instance(grid6, ladder6, UtilityModel("linear"),
                                     probs, 3000, 0.25))
            moved = solve_dp(Instance(grid6, ladder6, UtilityModel("linear"),
                                      np.roll(probs, shift), 3000, 0.25))
            assert moved.value == pytest.approx(base.value, abs=1e-9)

    def test_point_mass_spends_everything_on_one_tile(self, ladder6, grid6):
        probs = np.zeros(6)
        probs[2] = 1.0
        inst = Instance(grid6, ladder6, UtilityModel("linear"), probs, 4198, 0.0)
        report = solve_dp(inst)
        assert report.selection.levels[2] == 6

    def test_sizes_override_changes_affordability(self, toy_ladder):
        # tile 0 artificially expensive: the optimum shifts to tiles 1 and 2
        sizes = np.array([[0, 1000, 2000], [0, 100, 200], [0, 100, 200]])
        inst = Instance(DirectionGrid(3), toy_ladder, UtilityModel("linear"),
                        np.array([0.6, 0.3, 0.1]), 300, 0.0, sizes=sizes)
        report = solve_dp(inst)
        assert report.selection.levels[0] == 0
        assert brute_force(inst).value == pytest.approx(report.value, abs=1e-12)


def weights(n):
    """A probability vector over n entries, from drawn integer weights."""
    return st.lists(st.integers(0, 100), min_size=n, max_size=n).filter(any).map(
        lambda w: np.asarray(w, dtype=float) / sum(w))


class TestSpreadNeverHelps:
    """On tiles that share one size row and one utility row, V(p) is convex and
    invariant under rotating p, and circular_smooth mixes rotations of p, so
    spreading p never raises the optimum (Marshall, Olkin & Arnold 2011)."""

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_smoothing_and_the_uniform_and_point_mass_bounds(self, data):
        n_tiles = data.draw(st.integers(2, 24), label="N")
        rates = data.draw(st.lists(st.integers(50, 2000), min_size=1, max_size=6, unique=True),
                          label="rates")
        f = data.draw(st.sampled_from([0.0, 0.1, 1.0, 10.0]), label="f")
        kind = data.draw(st.sampled_from(["linear", "sqrt", "log", "large_screen"]), label="kind")
        beta = data.draw(st.floats(0.0, 1.0), label="beta")
        capacity = data.draw(st.integers(0, 4000), label="capacity")
        probs = data.draw(weights(n_tiles), label="probs")
        kernel = data.draw(weights(n_tiles), label="kernel")
        grid = DirectionGrid(n_tiles)
        ladder = QualityLadder(tuple(sorted(float(r) for r in rates)), stall_penalty=f)
        # theta below the lowest rate keeps large_screen utilities positive
        utility = UtilityModel(kind, theta_kbps=40.0) if kind == "large_screen" else UtilityModel(kind)
        caps = sorted({0, capacity // 3, capacity})

        def values(p):
            report = solve_dp(Instance(grid, ladder, utility, p, capacity, beta), caps)
            return np.array([selection.value for selection in report.selections])

        tol = 1e-12 * max(1.0, f)
        at_p = values(probs)
        assert np.all(values(circular_smooth(probs, kernel)) <= at_p + tol)
        assert np.all(values(uniform(grid)) <= at_p + tol)
        assert np.all(at_p <= values(point_mass(0.0, grid)) + tol)
