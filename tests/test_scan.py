import math
import warnings

import numpy as np
import pytest

from lidar_cfe import GoalFeatures, ModelState, Scan
from lidar_cfe.scan import assemble_state

from oracles import combine_gen_priority, combine_min_distance, proximity_loss


def random_scan(rng, n=180, max_range=3.5):
    return Scan(rng.uniform(1e-6, max_range, size=n), max_range)


class TestScanType:
    def test_rejects_out_of_range_readings(self):
        with pytest.raises(ValueError):
            Scan(np.array([0.0, 1.0]), 3.5)
        with pytest.raises(ValueError):
            Scan(np.array([1.0, 3.6]), 3.5)

    def test_rejects_bad_max_range(self):
        with pytest.raises(ValueError):
            Scan(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("max_range", [True, "3.5", None, [3.5], np.array([3.5])])
    def test_rejects_a_max_range_that_is_not_a_real_number(self, max_range):
        with pytest.raises(ValueError, match="max_range must be a number"):
            Scan(np.ones(3), max_range)

    @pytest.mark.parametrize(
        "readings",
        [["1.0", "2.0"], np.array(["1.0", "2.0"]), [True, True], np.ones(2, dtype=bool), [1.0, True], (np.True_, 1.0), [1.0, None], [1.0, {}], [10**400, 1.0]],
        ids=["text-list", "text-array", "bool-list", "bool-array", "bool-among-floats", "numpy-bool-among-floats", "none", "mapping", "huge-int"],
    )
    def test_rejects_readings_that_are_not_real_numbers(self, readings):
        with pytest.raises(ValueError, match="readings must be real numbers"):
            Scan(readings, 3.5)

    def test_takes_integer_and_single_precision_readings_as_floats(self):
        for readings in ([1, 2], np.array([1, 2], dtype=np.int32), np.array([1.0, 2.0], dtype=np.float32)):
            scan = Scan(readings, 3)
            assert scan.readings.dtype == np.float64 and scan.readings.tolist() == [1.0, 2.0]
            assert type(scan.max_range) is float

    def test_readings_are_frozen(self):
        scan = Scan.empty(8, 3.5)
        with pytest.raises(ValueError):
            scan.readings[0] = 1.0

    def test_empty_scan(self):
        scan = Scan.empty(12, 2.0)
        assert scan.n == 12
        assert np.all(scan.readings == 2.0)


class TestCombineMinDistance:
    def test_elementwise_min(self):
        base = Scan(np.array([2.0, 3.5]), 3.5)
        gen = Scan(np.array([3.0, 1.0]), 3.5)
        assert combine_min_distance(base, gen).readings.tolist() == [2.0, 1.0]

    def test_empty_generated_is_identity(self):
        rng = np.random.default_rng(0)
        base = random_scan(rng)
        out = combine_min_distance(base, Scan.empty(base.n, base.max_range))
        assert np.array_equal(out.readings, base.readings)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        base, gen = random_scan(rng), random_scan(rng)
        out = combine_min_distance(base, gen)
        for i in range(base.n):
            assert out.readings[i] == min(base.readings[i], gen.readings[i])

    def test_commutative_and_dominated(self):
        rng = np.random.default_rng(2)
        a, b = random_scan(rng), random_scan(rng)
        ab = combine_min_distance(a, b).readings
        ba = combine_min_distance(b, a).readings
        assert np.array_equal(ab, ba)
        assert np.all(ab <= a.readings) and np.all(ab <= b.readings)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        a = random_scan(rng)
        assert np.array_equal(combine_min_distance(a, a).readings, a.readings)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine_min_distance(Scan.empty(10), Scan.empty(12))
        with pytest.raises(ValueError):
            combine_min_distance(Scan.empty(10, 3.5), Scan.empty(10, 4.0))


class TestCombineGenPriority:
    def test_generated_overrides_even_when_farther(self):
        base = Scan(np.array([2.0, 2.0]), 3.5)
        gen = Scan(np.array([3.0, 3.5]), 3.5)
        assert combine_gen_priority(base, gen).readings.tolist() == [3.0, 2.0]

    def test_empty_generated_is_identity(self):
        rng = np.random.default_rng(4)
        base = random_scan(rng)
        out = combine_gen_priority(base, Scan.empty(base.n, base.max_range))
        assert np.array_equal(out.readings, base.readings)

    def test_full_coverage_returns_generated(self):
        rng = np.random.default_rng(5)
        base = random_scan(rng)
        gen = Scan(rng.uniform(0.5, 3.4, size=base.n), 3.5)  # every ray a real return
        out = combine_gen_priority(base, gen)
        assert np.array_equal(out.readings, gen.readings)

    def test_not_commutative(self):
        base = Scan(np.array([1.0, 2.0]), 3.5)
        gen = Scan(np.array([3.0, 2.5]), 3.5)
        ab = combine_gen_priority(base, gen).readings
        ba = combine_gen_priority(gen, base).readings
        assert not np.array_equal(ab, ba)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        a = random_scan(rng)
        assert np.array_equal(combine_gen_priority(a, a).readings, a.readings)


class TestGoalFeatures:
    def test_unit_circle_enforced(self):
        with pytest.raises(ValueError):
            GoalFeatures(1.0, 0.5, 1.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            GoalFeatures(1.0, 0.0, -0.1)


class TestAssembleState:
    def test_boundary_values(self):
        scan = Scan.empty(180, 3.5)
        d_g_max = 2.0 * math.sqrt(2.0) * 3.5
        state = assemble_state(scan, GoalFeatures(1.0, 0.0, d_g_max), d_g_max)
        assert np.all(state.values[:180] == 1.0)
        assert state.values[180] == 1.0
        assert state.values[181] == 0.5
        assert state.values[182] == 1.0

    def test_half_range_reading(self):
        scan = Scan(np.full(4, 1.75), 3.5)
        state = assemble_state(scan, GoalFeatures(1.0, 0.0, 1.0), 10.0)
        assert np.all(state.values[:4] == 0.5)

    def test_clamps_far_goal_without_warning(self):
        # The warning comes once, from building the query (test_cfe).
        scan = Scan.empty(4, 3.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = assemble_state(scan, GoalFeatures(1.0, 0.0, 25.0), 10.0)
        assert state.values[-1] == 1.0

    def test_round_trips_through_denormalization(self):
        rng = np.random.default_rng(7)
        d_g_max = 9.0
        for _ in range(50):
            scan = random_scan(rng, n=32)
            theta = rng.uniform(-math.pi, math.pi)
            goal = GoalFeatures(math.cos(theta), math.sin(theta), rng.uniform(0.0, d_g_max))
            state = assemble_state(scan, goal, d_g_max)
            # Inverse maps recover the raw quantities.
            assert np.allclose(state.values[:32] * scan.max_range, scan.readings, atol=1e-9)
            assert 2.0 * state.values[32] - 1.0 == pytest.approx(goal.cos, abs=1e-9)
            assert 2.0 * state.values[33] - 1.0 == pytest.approx(goal.sin, abs=1e-9)
            assert state.values[34] * d_g_max == pytest.approx(goal.distance, abs=1e-9)

    def test_output_always_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            scan = random_scan(rng, n=16)
            theta = rng.uniform(-math.pi, math.pi)
            goal = GoalFeatures(math.cos(theta), math.sin(theta), rng.uniform(0.0, 20.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # far goals clamp on purpose here
                state = assemble_state(scan, goal, 10.0)
            assert np.all((state.values >= 0.0) & (state.values <= 1.0))

    def test_model_state_validation(self):
        with pytest.raises(ValueError, match="^state values must lie in"):
            ModelState(np.array([0.5, 1.2, 0.0, 0.1]))
        for values in (np.full((2, 4), 0.5), np.full(3, 0.5)):
            with pytest.raises(ValueError, match="^state must be 1-d with at least 4 entries$"):
                ModelState(values)


class TestProximityLoss:
    def test_identical_scans(self):
        scan = Scan.empty(180, 3.5)
        assert proximity_loss(scan, scan) == 0.0

    def test_forced_arithmetic(self):
        # 18 of 180 rays differ by 0.35 m at 3.5 m range: (18 * 0.1) / 180 = 0.01.
        base = Scan.empty(180, 3.5)
        readings = np.full(180, 3.5)
        readings[:18] -= 0.35
        assert proximity_loss(Scan(readings, 3.5), base) == pytest.approx(0.01, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        a, b = random_scan(rng), random_scan(rng)
        expected = sum(abs(a.readings[i] / 3.5 - b.readings[i] / 3.5) for i in range(a.n)) / a.n
        assert proximity_loss(a, b) == pytest.approx(expected, rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            x, y, z = (random_scan(rng, n=64) for _ in range(3))
            assert proximity_loss(x, z) <= proximity_loss(x, y) + proximity_loss(y, z) + 1e-12

    def test_non_negative(self):
        rng = np.random.default_rng(11)
        a, b = random_scan(rng), random_scan(rng)
        assert proximity_loss(a, b) >= 0.0
