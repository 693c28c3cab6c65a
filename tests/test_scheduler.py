"""Layered refinement: upgrade pricing, single passes, and full plans."""

import warnings

import numpy as np
import pytest

from prefetch360 import (
    DirectionGrid,
    Instance,
    PrefetchPass,
    PrefetchPlan,
    QualityLadder,
    SizeModel,
    TileState,
    UtilityModel,
    eval_objective,
    refine,
    run_plan,
    solve_dp,
    upgrade_sizes,
    wrapped_gaussian,
)

from conftest import TOY_PROBS


class TestStateAndPlanValidation:
    def test_tile_state(self):
        state = TileState(np.array([0, 1, 2]))
        assert state.levels.dtype == np.int64
        np.testing.assert_array_equal(TileState.empty(4).levels, [0, 0, 0, 0])
        with pytest.raises(ValueError, match="at least two tiles"):
            TileState(np.array([1]))
        with pytest.raises(ValueError, match="integers"):
            TileState(np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            TileState(np.array([-1, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning before the message
            with pytest.raises(ValueError, match="nonnegative integers"):
                TileState(np.array([1, np.inf]))

    def test_size_model(self):
        assert SizeModel().mode == "svc_ideal"
        with pytest.raises(ValueError, match="unknown size mode"):
            SizeModel("delta_only")
        with pytest.raises(ValueError, match="overhead"):
            SizeModel(overhead=1.5)

    def test_pass_and_plan(self):
        p = np.array(TOY_PROBS)
        with pytest.raises(ValueError, match="lead time"):
            PrefetchPass(-1.0, 100, p)
        for budget in (-5, float("inf"), "5", True):
            with pytest.raises(ValueError, match="budget"):
                PrefetchPass(1.0, budget, p)
        with pytest.raises(ValueError, match="at least one pass"):
            PrefetchPlan(())
        with pytest.raises(ValueError, match="strictly decrease"):
            PrefetchPlan((PrefetchPass(5.0, 10, p), PrefetchPass(5.0, 10, p)))


class TestUpgradeSizes:
    def test_layered_prices_charge_only_the_increment(self, toy_ladder):
        state = TileState(np.array([1, 0, 0]))
        sizes = upgrade_sizes(state, toy_ladder, SizeModel("svc_ideal"))
        np.testing.assert_array_equal(sizes, [[0, 0, 100], [0, 100, 200], [0, 100, 200]])

    def test_overhead_inflates_the_increment(self, toy_ladder):
        state = TileState(np.array([1, 0, 0]))
        sizes = upgrade_sizes(state, toy_ladder, SizeModel("svc_ideal", overhead=0.1))
        np.testing.assert_array_equal(sizes, [[0, 0, 110], [0, 110, 220], [0, 110, 220]])

    def test_redownload_charges_the_full_level(self, toy_ladder):
        state = TileState(np.array([1, 0, 0]))
        sizes = upgrade_sizes(state, toy_ladder, SizeModel("redownload"))
        np.testing.assert_array_equal(sizes, [[0, 0, 200], [0, 100, 200], [0, 100, 200]])

    def test_cached_levels_are_free_in_both_modes(self, ladder6):
        state = TileState(np.array([6, 3, 0, 0, 0, 0]))
        for mode in ("svc_ideal", "redownload"):
            sizes = upgrade_sizes(state, ladder6, SizeModel(mode))
            assert np.all(sizes[0] == 0)
            np.testing.assert_array_equal(sizes[1, :4], [0, 0, 0, 0])
            assert np.all(sizes[1, 4:] > 0)

    def test_rejects_states_above_the_ladder(self, toy_ladder):
        with pytest.raises(ValueError, match="exceeds the ladder"):
            upgrade_sizes(TileState(np.array([3, 0, 0])), toy_ladder, SizeModel())


class TestRefine:
    def test_merged_state_never_drops_below_cached(self, toy_ladder):
        state = TileState(np.array([2, 0, 0]))
        # probs now favor tile 1; the solver would strip tile 0 if it could
        merged, report = refine(state, np.array([0.05, 0.9, 0.05]), 100,
                                SizeModel(), toy_ladder, UtilityModel("linear"))
        assert np.all(merged.levels >= state.levels)
        assert merged.levels[1] >= 1

    def test_zero_budget_keeps_the_state(self, toy_ladder):
        state = TileState(np.array([1, 1, 0]))
        merged, _ = refine(state, np.array(TOY_PROBS), 0, SizeModel(),
                           toy_ladder, UtilityModel("linear"))
        np.testing.assert_array_equal(merged.levels, state.levels)

    def test_tile_count_mismatch(self, toy_ladder):
        with pytest.raises(ValueError, match="disagree on tile count"):
            refine(TileState(np.array([0, 0])), np.array(TOY_PROBS), 100,
                   SizeModel(), toy_ladder, UtilityModel("linear"))


class TestRunPlan:
    def test_two_passes_recover_the_single_shot_optimum(self, toy_ladder, toy_instance):
        p = np.array(TOY_PROBS)
        plan = PrefetchPlan((PrefetchPass(20.0, 100, p), PrefetchPass(5.0, 200, p)))
        results = run_plan(plan, toy_ladder, UtilityModel("linear"), beta=0.0)
        single = solve_dp(toy_instance(capacity=300, beta=0.0))
        assert len(results) == 2
        assert results[-1].value == single.value
        np.testing.assert_array_equal(results[0].state.levels, [1, 0, 0])
        np.testing.assert_array_equal(results[1].state.levels, [2, 1, 0])

    def test_redownload_wastes_budget_on_upgrades(self, toy_ladder):
        p = np.array(TOY_PROBS)
        plan = PrefetchPlan((PrefetchPass(20.0, 100, p), PrefetchPass(5.0, 200, p)))
        svc = run_plan(plan, toy_ladder, UtilityModel("linear"),
                       size_model=SizeModel("svc_ideal"))
        full = run_plan(plan, toy_ladder, UtilityModel("linear"),
                        size_model=SizeModel("redownload"))
        assert full[-1].value < svc[-1].value

    def test_levels_climb_monotonically(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            rates = tuple(np.sort(rng.choice(np.arange(20, 400), 2, replace=False)).astype(float))
            leads = np.sort(rng.uniform(1.0, 60.0, 3))[::-1]
            passes = tuple(PrefetchPass(float(t), int(rng.integers(0, 600)),
                                        rng.dirichlet(np.ones(n))) for t in leads)
            results = run_plan(PrefetchPlan(passes), QualityLadder(rates),
                               UtilityModel("linear"), beta=0.25)
            prev = np.zeros(n, dtype=np.int64)
            for res in results:
                assert np.all(res.state.levels >= prev)
                prev = res.state.levels

    def test_pass_value_is_the_merged_state_under_pass_probs(self, toy_ladder):
        early = np.full(3, 1 / 3)
        late = np.array([0.8, 0.1, 0.1])
        plan = PrefetchPlan((PrefetchPass(20.0, 200, early), PrefetchPass(5.0, 100, late)))
        results = run_plan(plan, toy_ladder, UtilityModel("linear"), beta=0.1)
        for res, probs in zip(results, (early, late)):
            inst = Instance(DirectionGrid(3), toy_ladder, UtilityModel("linear"),
                            probs, 0, 0.1)
            assert res.value == eval_objective(res.state.levels, inst)

    def test_narrowing_probabilities_refine_the_front_tiles(self, ladder6):
        # wide guess early, sharp forward view late: the last pass should
        # push the front pair above the rest
        plan = PrefetchPlan((
            PrefetchPass(20.0, 3000, wrapped_gaussian(111.8, DirectionGrid(6))),
            PrefetchPass(2.0, 2000, wrapped_gaussian(25.0, DirectionGrid(6))),
        ))
        results = run_plan(plan, ladder6, UtilityModel("sqrt"), beta=0.1)
        final = results[-1].state.levels
        assert min(final[0], final[5]) >= max(final[2], final[3])
        assert results[-1].value >= results[0].value - 1e-12


def test_run_plan_reports_pass_metadata(toy_ladder):
    p = np.array(TOY_PROBS)
    plan = PrefetchPlan((PrefetchPass(9.0, 100, p), PrefetchPass(4.0, 50, p)))
    results = run_plan(plan, toy_ladder, UtilityModel("linear"))
    assert [r.index for r in results] == [0, 1]
    assert [r.lead_time_s for r in results] == [9.0, 4.0]
    assert all(r.report.method == "dp" for r in results)
