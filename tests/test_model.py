"""Ladder, utility tables, tile grid, and the slot objective."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefetch360 import (
    DirectionGrid,
    Instance,
    QualityLadder,
    Selection,
    UtilityModel,
    build_utility_table,
    eval_objective,
    selection_size,
    uniform,
)

from conftest import SIX_LEVEL_RATES, TOY_PROBS


def ladders():
    rates = st.lists(st.integers(50, 5000), min_size=1, max_size=6, unique=True)
    return rates.map(lambda r: QualityLadder(tuple(float(x) for x in sorted(r))))


class TestQualityLadder:
    @pytest.mark.parametrize("rates, message", [
        ((), "at least one level"),
        ((0.0, 100.0), "finite and positive"),
        ((-5.0,), "finite and positive"),
        ((100.0, 100.0), "strictly increasing"),
        ((200.0, 100.0), "strictly increasing"),
    ])
    def test_rejects_bad_rates(self, rates, message):
        with pytest.raises(ValueError, match=message):
            QualityLadder(rates)

    def test_rejects_bad_chunk_and_penalty(self):
        for chunk in (0.0, np.nan, np.inf, 1e300):
            with pytest.raises(ValueError, match="chunk duration"):
                QualityLadder((100.0,), chunk_s=chunk)
        for penalty in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="stall penalty"):
                QualityLadder((100.0,), stall_penalty=penalty)

    def test_level_sizes_are_integers_with_zero_floor(self, toy_ladder, ladder6):
        np.testing.assert_array_equal(toy_ladder.level_sizes(), [0, 100, 200])
        np.testing.assert_array_equal(ladder6.level_sizes(),
                                      [0, 144, 268, 625, 1124, 2217, 4198])
        assert toy_ladder.level_sizes().dtype == np.int64

    def test_level_sizes_scale_with_chunk(self):
        ladder = QualityLadder((101.0, 333.0), chunk_s=0.5)
        np.testing.assert_array_equal(ladder.level_sizes(), [0, 50, 166])

    def test_n_levels(self, ladder6):
        assert ladder6.n_levels == 6


class TestUtilityModel:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown utility kind"):
            UtilityModel("cubic")

    def test_rejects_bad_large_screen_shape(self):
        with pytest.raises(ValueError, match="a > 1"):
            UtilityModel("large_screen", a=1.0)
        with pytest.raises(ValueError, match="b > 0"):
            UtilityModel("large_screen", b=0.0)

    def test_linear_and_sqrt(self):
        np.testing.assert_array_equal(UtilityModel("linear").raw([4.0, 9.0]), [4.0, 9.0])
        np.testing.assert_array_equal(UtilityModel("sqrt").raw([4.0, 9.0]), [2.0, 3.0])

    def test_log_needs_reference(self):
        with pytest.raises(ValueError, match="reference rate"):
            UtilityModel("log").raw(100.0)
        assert UtilityModel("log").raw(100.0, ref_rate_kbps=100.0) == pytest.approx(np.log(2.0))

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError, match="rates must be positive"):
            UtilityModel("linear").raw([100.0, 0.0])

    def test_large_screen_closed_form(self):
        # a = 2 collapses to b * (1 - theta / q)
        model = UtilityModel("large_screen")
        assert model.raw(4198.0) == pytest.approx(10.0 * (1.0 - 200.0 / 4198.0), abs=1e-12)
        assert model.raw(268.0) == pytest.approx(10.0 * (1.0 - 200.0 / 268.0), abs=1e-12)
        assert model.raw(4198.0) == pytest.approx(9.523583, abs=1e-6)
        assert model.raw(268.0) == pytest.approx(2.537313, abs=1e-6)

    def test_large_screen_below_theta_is_negative(self):
        assert UtilityModel("large_screen").raw(144.0) < 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", [
        {"a": 1e300}, {"a": np.inf}, {"theta_kbps": np.inf}, {"theta_kbps": 5e-324},
        {"b": 1e308, "a": 1.5},
    ], ids=["a-1e300", "a-inf", "theta-inf", "theta-subnormal", "b-1e308"])
    def test_extreme_large_screen_parameters_do_not_warn(self, params):
        # each set overflows or divides by zero inside the closed form
        assert UtilityModel("large_screen", **params).raw([1.0, 100.0, 625.0]).shape == (3,)


class TestUtilityTable:
    def test_toy_table(self, toy_ladder):
        np.testing.assert_array_equal(build_utility_table(toy_ladder, UtilityModel("linear")),
                                      [-1.0, 0.5, 1.0])

    def test_stall_penalty_lands_in_slot_zero(self):
        ladder = QualityLadder((100.0, 200.0), stall_penalty=3.5)
        assert build_utility_table(ladder, UtilityModel("linear"))[0] == -3.5

    def test_large_screen_normalization(self, ladder6):
        table = build_utility_table(ladder6, UtilityModel("large_screen"))
        assert table[2] == pytest.approx(0.266424, abs=1e-6)
        assert table[1] < 0.0  # 144 kbps sits below theta, worse than nothing at small f

    def test_rejects_nonpositive_top_utility(self):
        ladder = QualityLadder((50.0, 100.0))
        with pytest.raises(ValueError, match="top-level raw utility"):
            build_utility_table(ladder, UtilityModel("large_screen"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model, message", [
        (UtilityModel("large_screen", a=1e300), "must be finite"),
        (UtilityModel("large_screen", a=np.inf), "top-level raw utility"),
        (UtilityModel("large_screen", b=np.inf), "must be finite"),
        (UtilityModel("large_screen", theta_kbps=np.inf), "top-level raw utility"),
    ], ids=["a-1e300", "a-inf", "b-inf", "theta-inf"])
    def test_overflowing_parameters_are_refused_without_a_warning(self, ladder6, model, message):
        with pytest.raises(ValueError, match=message):
            build_utility_table(ladder6, model)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_theta_gives_a_flat_table(self, ladder6):
        # every rate over theta overflows to inf, and inf^(1-a) is 0: one raw value b/(a-1)
        table = build_utility_table(ladder6, UtilityModel("large_screen", theta_kbps=5e-324))
        np.testing.assert_array_equal(table, [-1.0] + [1.0] * 6)

    @given(ladders(), st.sampled_from(["linear", "sqrt", "log", "large_screen"]))
    def test_table_ends_in_one_and_increases(self, ladder, kind):
        model = UtilityModel(kind, theta_kbps=40.0) if kind == "large_screen" else UtilityModel(kind)
        table = build_utility_table(ladder, model)
        assert table.shape == (ladder.n_levels + 1,)
        assert table[-1] == 1.0
        assert np.all(np.diff(table[1:]) > 0)


class TestDirectionGrid:
    def test_rejects_small_or_fractional_counts(self):
        with pytest.raises(ValueError, match="at least 2"):
            DirectionGrid(1)
        with pytest.raises(ValueError, match="at least 2"):
            DirectionGrid(4.5)

    def test_rejects_more_than_one_tile_per_degree(self):
        assert DirectionGrid(360).tile_width_deg == 1.0
        for n_tiles in (361, 10**13, 10**400):
            with pytest.raises(ValueError, match="at most 360"):
                DirectionGrid(n_tiles)

    def test_tile_width_and_starts(self, grid6):
        assert grid6.tile_width_deg == 60.0
        # tile n starts at n * 60 degrees
        np.testing.assert_array_equal(grid6.tile_index(np.arange(6) * 60.0), np.arange(6))

    @pytest.mark.parametrize("angle, tile", [
        (0.0, 0),
        (59.9, 0),
        (60.0, 1),
        (-0.1, 5),
        (-180.0, 3),
        (179.9, 2),
        (360.0, 0),
    ])
    def test_tile_index_examples(self, grid6, angle, tile):
        assert grid6.tile_index(angle) == tile

    def test_tile_index_vectorized(self, grid6):
        np.testing.assert_array_equal(grid6.tile_index([0.0, 60.0, -60.0]), [0, 1, 5])

    @given(st.integers(2, 24), st.floats(-720.0, 720.0, allow_nan=False))
    def test_tile_index_in_range(self, n_tiles, angle):
        idx = DirectionGrid(n_tiles).tile_index(angle)
        assert 0 <= idx < n_tiles


class TestInstance:
    def test_accepts_prob_vector_objects(self, toy_ladder):
        grid = DirectionGrid(4)
        inst = Instance(grid, toy_ladder, UtilityModel("linear"), uniform(grid), 100, 0.0)
        np.testing.assert_array_equal(inst.probs, np.full(4, 0.25))

    @pytest.mark.parametrize("probs, message", [
        ((0.5, 0.5), "3 tile probabilities"),
        ((0.5, 0.4, 0.2), "sum to 1"),
        ((-0.1, 0.6, 0.5), "nonnegative"),
    ])
    def test_rejects_bad_probs(self, toy_ladder, probs, message):
        with pytest.raises(ValueError, match=message):
            Instance(DirectionGrid(3), toy_ladder, UtilityModel("linear"),
                     np.array(probs), 100, 0.0)

    # from 2^63 up, int64 would wrap to a negative capacity
    @pytest.mark.parametrize("capacity", [-1, 1.5, np.nan, True, np.inf, "100",
                                          np.uint64(2**63), 1e19])
    def test_rejects_bad_capacity(self, toy_ladder, capacity):
        with pytest.raises(ValueError, match="nonnegative integer"):
            Instance(DirectionGrid(3), toy_ladder, UtilityModel("linear"),
                     np.array(TOY_PROBS), capacity, 0.0)

    def test_rejects_beta_outside_unit_interval(self, toy_instance):
        with pytest.raises(ValueError, match="beta"):
            toy_instance(beta=1.5)

    def test_default_tables_broadcast_the_ladder(self, toy_instance):
        inst = toy_instance()
        assert inst.size_table.shape == (3, 3)
        assert inst.utility_table.shape == (3, 3)
        np.testing.assert_array_equal(inst.size_table, [[0, 100, 200]] * 3)
        np.testing.assert_array_equal(inst.utility_table, [[-1.0, 0.5, 1.0]] * 3)
        # the overrides stay the caller's, so a replaced utility model gets a fresh table
        assert inst.sizes is None and inst.utilities is None
        sqrt = replace(inst, utility=UtilityModel("sqrt"))
        np.testing.assert_array_equal(sqrt.utility_table,
                                      [build_utility_table(inst.ladder, UtilityModel("sqrt"))] * 3)

    def test_size_override_validation(self, toy_ladder):
        def build(sizes):
            return Instance(DirectionGrid(3), toy_ladder, UtilityModel("linear"),
                            np.array(TOY_PROBS), 100, 0.0, sizes=np.array(sizes))

        with pytest.raises(ValueError, match="shape"):
            build([[0, 1], [0, 1], [0, 1]])
        with pytest.raises(ValueError, match="round before"):
            build([[0, 1.5, 2], [0, 1, 2], [0, 1, 2]])
        with pytest.raises(ValueError, match="level 0"):
            build([[1, 1, 2], [0, 1, 2], [0, 1, 2]])
        inst = build([[0, 10, 20], [0, 30, 40], [0, 0, 5]])
        assert inst.size_table.dtype == np.int64

    def test_utility_override_validation(self, toy_ladder):
        for utilities, message in ((np.full((3, 3), np.inf), "utilities must be finite"),
                                   (np.zeros((3, 2)), r"utility table must have shape \(3, 3\)")):
            with pytest.raises(ValueError, match=message):
                Instance(DirectionGrid(3), toy_ladder, UtilityModel("linear"),
                         np.array(TOY_PROBS), 100, 0.0, utilities=utilities)


class TestEvalObjective:
    def test_toy_values_by_hand(self, toy_instance):
        # beta = 0: 0.6*1 + 0.3*0.5 + 0.1*(-1) = 0.65
        assert eval_objective((2, 1, 0), toy_instance(beta=0.0)) == pytest.approx(0.65, abs=1e-12)
        # flat selection kills the penalty term
        assert eval_objective((1, 1, 1), toy_instance(beta=0.5)) == pytest.approx(0.25, abs=1e-12)
        # mixed: 0.5*0.65 - 0.5*(0.45*0.5 + 0.2*1.5 + 0.35*2)/... worked out by hand
        assert eval_objective((2, 1, 0), toy_instance(beta=0.5)) == pytest.approx(-0.2875, abs=1e-12)

    def test_empty_selection_pays_the_stall_penalty(self, toy_instance):
        for beta in (0.0, 0.25, 1.0):
            assert eval_objective((0, 0, 0), toy_instance(beta=beta)) == pytest.approx(
                -(1.0 - beta), abs=1e-12)

    def test_accepts_selection_objects(self, toy_instance):
        inst = toy_instance()
        assert eval_objective(Selection((2, 1, 0), np.nan), inst) == eval_objective((2, 1, 0), inst)

    @pytest.mark.parametrize("levels, message", [
        ((2, 1), "length"),
        ((2, 1, 3), "0..L"),
        ((2, 1, -1), "0..L"),
    ])
    def test_rejects_bad_selections(self, toy_instance, levels, message):
        with pytest.raises(ValueError, match=message):
            eval_objective(levels, toy_instance())

    @given(st.data())
    def test_beta_zero_is_plain_expectation(self, data):
        n = data.draw(st.integers(2, 6))
        levels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        weights = data.draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
        p = np.array(weights, dtype=float) / sum(weights)
        inst = Instance(DirectionGrid(n), QualityLadder((100.0, 200.0)),
                        UtilityModel("linear"), p, 0, 0.0)
        u = inst.utility_table[np.arange(n), levels]
        assert eval_objective(levels, inst) == pytest.approx(float(p @ u), abs=1e-12)

    @given(st.data())
    def test_rotation_invariance(self, data):
        n = data.draw(st.integers(2, 6))
        shift = data.draw(st.integers(0, n - 1))
        beta = data.draw(st.sampled_from([0.0, 0.25, 0.5]))
        levels = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        weights = data.draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
        p = np.array(weights, dtype=float) / sum(weights)
        ladder = QualityLadder((100.0, 200.0))
        inst = Instance(DirectionGrid(n), ladder, UtilityModel("linear"), p, 0, beta)
        rotated = Instance(DirectionGrid(n), ladder, UtilityModel("linear"),
                           np.roll(p, shift), 0, beta)
        assert eval_objective(np.roll(levels, shift), rotated) == pytest.approx(
            eval_objective(levels, inst), abs=1e-12)

    def test_flat_selection_value_is_scaled_utility(self, ladder6, grid6):
        inst = Instance(grid6, ladder6, UtilityModel("sqrt"), np.full(6, 1 / 6), 0, 0.3)
        table = build_utility_table(ladder6, UtilityModel("sqrt"))
        for level in range(7):
            assert eval_objective([level] * 6, inst) == pytest.approx(
                0.7 * table[level], abs=1e-12)


def test_selection_size(toy_instance):
    inst = toy_instance()
    assert selection_size((2, 1, 0), inst) == 300
    assert selection_size((0, 0, 0), inst) == 0
    assert selection_size(Selection((2, 2, 2), 0.0), inst) == 600
