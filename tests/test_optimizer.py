"""Solver cross-checks: DP against exhaustive search and the knapsack form."""

from dataclasses import replace

import numpy as np
import pytest

from prefetch360 import (
    DirectionGrid,
    Instance,
    QualityLadder,
    UtilityModel,
    brute_force,
    eval_objective,
    selection_size,
    solve_dp,
    solve_mckp,
    uniform,
    wrapped_gaussian,
)

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
        assert report.stats.wall_time_s >= 0.0


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
            rng.shuffle(caps)
            report = solve_dp(inst, caps)
            assert len(report.selections) == len(caps)
            for cap, selection in zip(caps, report.selections):
                alone = solve_dp(replace(inst, capacity=cap))
                assert selection.levels == alone.selection.levels
                assert selection.value == alone.value
                assert selection_size(selection, inst) <= cap

    def test_rejects_capacities_outside_the_table(self, toy_instance):
        inst = toy_instance(capacity=300)
        with pytest.raises(ValueError, match="capacity"):
            solve_dp(inst, [100, 301])
        with pytest.raises(ValueError, match="capacity"):
            solve_dp(inst, [-5, 100])

    def test_dp_refuses_parents_tables_over_the_limit(self, ladder6, grid6, monkeypatch):
        from prefetch360 import optimizer

        # the limit admits N=24, six levels, C=400k (four-second chunks)
        assert 7 * 7 * 24 * 400_001 * 2 <= optimizer.PARENTS_TABLE_LIMIT
        inst = Instance(grid6, ladder6, UtilityModel("linear"), np.full(6, 1 / 6), 1000, 0.0)
        table_bytes = 7 * 7 * 6 * 1001 * 2
        monkeypatch.setattr(optimizer, "PARENTS_TABLE_LIMIT", table_bytes)
        assert solve_dp(inst).selection.levels
        monkeypatch.setattr(optimizer, "PARENTS_TABLE_LIMIT", table_bytes - 1)
        with pytest.raises(ValueError, match="parents table"):
            solve_dp(inst)


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
        probs = wrapped_gaussian(45.0, grid6).probs
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
