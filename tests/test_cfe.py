import math
from dataclasses import replace

import numpy as np
import pytest

from lidar_cfe import (
    ActionBounds,
    ActionVector,
    CfeQuery,
    GaConfig,
    GoalFeatures,
    ModelError,
    PolicyModel,
    Scan,
    fitness_for_query,
    generate_cfes,
    run_ga,
    scripted_policy,
)
from lidar_cfe.cfe import GENES_PER_OBSTACLE, SearchFacts, decode_genome, hinge_loss
from lidar_cfe.geometry import ORIGIN, raycast_scan, shape_overlaps_disk

from oracles import hinge_oracle


GOAL_AHEAD = GoalFeatures(1.0, 0.0, 2.0)


class ConstantPolicy(PolicyModel):
    def __init__(self, action, input_size=183):
        self.input_size = input_size
        self.output_size = len(action)
        self._action = np.asarray(action, dtype=float)

    def act(self, state):
        return ActionVector(self._action.copy())


def reverse_query(**overrides):
    defaults = dict(
        base_scan=Scan.empty(180, 3.5),
        goal=GOAL_AHEAD,
        bounds=ActionBounds.from_pairs([(-1.0, 0.0), (-0.2, 0.2)]),
        n_cfes=3,
        rng_seed=7,
    )
    defaults.update(overrides)
    return CfeQuery(**defaults)


class TestActionBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            ActionBounds.from_pairs([(0.5, -0.5)])
        with pytest.raises(ValueError):
            ActionBounds.from_pairs([(-2.0, 0.0)])
        with pytest.raises(ValueError):
            ActionBounds.from_pairs([])

    def test_contains_is_inclusive(self):
        bounds = ActionBounds.from_pairs([(-1.0, 0.0), (-0.2, 0.2)])
        assert bounds.contains(ActionVector(np.array([0.0, 0.2])))
        assert not bounds.contains(ActionVector(np.array([0.01, 0.0])))


class TestDecodeGenome:
    def test_midpoint_circle(self):
        shapes = decode_genome([0.0, 0.5, 0.5, 0.3, 0.5, 0.9], 1, 3.5, (0.05, 1.0))
        (shape,) = shapes
        assert shape.kind == "circle"
        assert shape.center.x == pytest.approx(0.0, abs=1e-12)
        assert shape.center.y == pytest.approx(0.0, abs=1e-12)
        assert shape.radius == pytest.approx(0.525, abs=1e-12)

    def test_endpoint_rectangle(self):
        shapes = decode_genome([1.0, 1.0, 0.5, 0.5, 0.2, 0.7], 1, 3.5, (0.05, 1.0))
        (shape,) = shapes
        assert shape.kind == "rectangle"
        assert shape.center.x == pytest.approx(3.5, abs=1e-12)
        assert shape.center.y == pytest.approx(0.0, abs=1e-12)
        assert shape.orientation == pytest.approx(math.pi / 2, abs=1e-12)
        assert shape.half_extents[0] == pytest.approx(0.05 + 0.2 * 0.95, abs=1e-12)
        assert shape.half_extents[1] == pytest.approx(0.05 + 0.7 * 0.95, abs=1e-12)

    def test_round_trip_through_inverse_maps(self):
        rng = np.random.default_rng(0)
        wb, (lo, hi) = 3.5, (0.05, 1.0)
        for _ in range(100):
            genes = rng.random(GENES_PER_OBSTACLE * 3)
            shapes = decode_genome(genes, 3, wb, (lo, hi))
            for j, shape in enumerate(shapes):
                t, x, y, theta, s1, s2 = genes[6 * j : 6 * j + 6]
                assert (shape.kind == "circle") == (t < 0.5)
                assert (shape.center.x / wb + 1.0) / 2.0 == pytest.approx(x, abs=1e-9)
                assert (shape.center.y / wb + 1.0) / 2.0 == pytest.approx(y, abs=1e-9)
                if shape.kind == "circle":
                    assert (shape.radius - lo) / (hi - lo) == pytest.approx(s1, abs=1e-9)
                else:
                    assert shape.orientation / math.pi == pytest.approx(theta, abs=1e-9)
                    assert (shape.half_extents[0] - lo) / (hi - lo) == pytest.approx(s1, abs=1e-9)
                    assert (shape.half_extents[1] - lo) / (hi - lo) == pytest.approx(s2, abs=1e-9)

    def test_any_genome_yields_valid_shapes(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            shapes = decode_genome(rng.random(GENES_PER_OBSTACLE * 4), 4, 3.5)
            for shape in shapes:
                if shape.kind == "circle":
                    assert shape.radius > 0
                else:
                    assert all(h > 0 for h in shape.half_extents)
                    assert 0.0 <= shape.orientation < math.pi

    def test_length_checked(self):
        with pytest.raises(ValueError):
            decode_genome(np.zeros(7), 1, 3.5)


class TestHingeLoss:
    def test_inside_bounds_is_zero(self):
        bounds = ActionBounds.from_pairs([(0.0, 1.0)])
        assert hinge_loss(ActionVector(np.array([0.5])), bounds) == 0.0

    def test_forced_arithmetic(self):
        bounds = ActionBounds.from_pairs([(-1.0, 0.0), (-0.1, 0.1)])
        action = ActionVector(np.array([-0.3, 0.15]))
        assert hinge_loss(action, bounds) == pytest.approx(0.05, abs=1e-12)

    def test_boundary_is_inclusive(self):
        bounds = ActionBounds.from_pairs([(-0.5, 0.5)])
        assert hinge_loss(ActionVector(np.array([0.5])), bounds) == 0.0
        assert hinge_loss(ActionVector(np.array([-0.5])), bounds) == 0.0

    def test_matches_piecewise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            m = int(rng.integers(1, 4))
            lo = rng.uniform(-1, 1, m)
            hi = rng.uniform(-1, 1, m)
            lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
            action = rng.uniform(-1, 1, m)
            if rng.random() < 0.3:  # force boundary cases
                action[0] = lo[0] if rng.random() < 0.5 else hi[0]
            bounds = ActionBounds(lo, hi)
            got = hinge_loss(ActionVector(action), bounds)
            assert got == hinge_oracle(action, lo, hi)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hinge_loss(ActionVector(np.array([0.0])), ActionBounds.from_pairs([(-1, 0), (0, 1)]))


class TestFitness:
    def test_obstacle_at_origin_gets_rejection_sentinel(self):
        query = reverse_query()
        fitness = fitness_for_query(query, ConstantPolicy([0.0, 0.0]))
        genome = np.full(GENES_PER_OBSTACLE * query.n_obstacles, 0.5)  # every obstacle at the sensor
        assert fitness(genome[np.newaxis]).tolist() == [-math.inf]

    def test_constant_in_bounds_model_scores_zero(self):
        query = reverse_query(lambda_p=0.0)
        fitness = fitness_for_query(query, ConstantPolicy([-0.5, 0.0]))
        rng = np.random.default_rng(3)
        found = 0
        for value in fitness(rng.random((50, GENES_PER_OBSTACLE * query.n_obstacles))):
            if value != -math.inf:
                assert value == 0.0
                found += 1
        assert found > 0

    def test_goal_seeker_box_ahead_vs_behind(self):
        query = reverse_query(n_obstacles=1)
        fitness = fitness_for_query(query, scripted_policy("goal_seeker"))
        # One box with half extents 0.5 m, centered 1.5 m from the sensor;
        # gene layout is [type, x, y, theta, s1, s2].
        size_gene = (0.5 - 0.05) / 0.95
        ahead = np.array([1.0, 0.5 + 1.5 / 7.0, 0.5, 0.0, size_gene, size_gene])
        behind = np.array([1.0, 0.5 - 1.5 / 7.0, 0.5, 0.0, size_gene, size_gene])
        assert fitness(ahead[np.newaxis])[0] == 0.0
        assert fitness(behind[np.newaxis])[0] < 0.0

    def test_fitness_never_positive(self):
        rng = np.random.default_rng(4)
        query = reverse_query(lambda_p=0.3)
        fitness = fitness_for_query(query, scripted_policy("goal_seeker"))
        values = fitness(rng.random((100, GENES_PER_OBSTACLE * query.n_obstacles)))
        assert values.shape == (100,)
        assert np.all(values <= 0.0)

    def test_model_shape_mismatch_rejected(self):
        query = reverse_query()
        with pytest.raises(ModelError):
            fitness_for_query(query, ConstantPolicy([0.0, 0.0], input_size=99))
        with pytest.raises(ModelError):
            fitness_for_query(query, ConstantPolicy([0.0]))

    def test_reach_zero_termination_implies_satisfied(self):
        query = reverse_query(lambda_p=0.0)
        fitness = fitness_for_query(query, scripted_policy("goal_seeker"))
        run = run_ga(GaConfig(rng_seed=3), GENES_PER_OBSTACLE * query.n_obstacles, fitness)
        assert run.termination == "reach_zero"
        assert fitness(run.best_genome[np.newaxis])[0] == 0.0  # zero hinge = satisfied


class TestGenerateCfes:
    def test_zero_requested_gives_empty_list(self):
        results = generate_cfes(reverse_query(n_cfes=0), scripted_policy("goal_seeker"))
        assert results == []

    def test_results_sorted_by_fitness(self):
        results = generate_cfes(reverse_query(n_cfes=4), scripted_policy("goal_seeker"))
        fits = [r.fitness for r in results]
        assert fits == sorted(fits, reverse=True)

    def test_results_self_verify(self):
        from lidar_cfe.scan import assemble_state

        from oracles import combine_min_distance

        query = reverse_query(n_cfes=4, lambda_p=0.05)
        model = scripted_policy("goal_seeker")
        results = generate_cfes(query, model)
        objective = fitness_for_query(query, model)
        for r in results:
            # The objective the search ran scores the packaged genome the same.
            assert objective(r.genome[np.newaxis])[0] == r.fitness
            # Re-applying the combination operator reproduces the stored scan.
            regenerated = raycast_scan(ORIGIN, r.obstacles, query.base_scan.n, query.base_scan.max_range)
            recombined = combine_min_distance(query.base_scan, regenerated)
            assert np.array_equal(recombined.readings, r.combined_scan.readings)
            # Re-running the model reproduces the stored action exactly.
            state = assemble_state(r.combined_scan, query.goal, query.goal_distance_scale)
            assert np.array_equal(model.act(state).values, r.achieved_action.values)
            # satisfied <=> inclusive bounds membership <=> zero hinge.
            assert r.satisfied == query.bounds.contains(r.achieved_action)
            assert r.satisfied == (r.hinge_component == 0.0)

    def test_combined_scan_never_deeper_than_base_under_min_distance(self):
        query = reverse_query(n_cfes=3)
        base = query.base_scan
        for r in generate_cfes(query, scripted_policy("goal_seeker")):
            assert np.all(r.combined_scan.readings <= base.readings)

    def test_obstacles_respect_sensor_disk(self):
        query = reverse_query(n_cfes=3, d_min=0.25)
        for r in generate_cfes(query, scripted_policy("goal_seeker")):
            assert math.isfinite(r.fitness)
            for shape in r.obstacles:
                assert not shape_overlaps_disk(shape, ORIGIN, query.d_min)

    def test_search_facts_match_the_run(self):
        query = reverse_query(n_cfes=3, lambda_p=0.05)
        model = scripted_policy("goal_seeker")
        config = GaConfig(generations=6, population=20, saturate_k=3)
        results = generate_cfes(query, model, config)
        assert sorted(r.search.seed for r in results) == [7, 8, 9]
        objective = fitness_for_query(query, model)
        for r in results:
            run = run_ga(replace(config, rng_seed=r.search.seed), GENES_PER_OBSTACLE * query.n_obstacles, objective)
            assert np.array_equal(run.best_genome, r.genome)
            assert r.search == SearchFacts(r.search.seed, run.termination, run.generations_run, run.generations_run * 20)

    def test_deterministic_across_calls(self):
        query = reverse_query(n_cfes=3)
        a = generate_cfes(query, scripted_policy("goal_seeker"))
        b = generate_cfes(query, scripted_policy("goal_seeker"))
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.genome, rb.genome)
            assert ra.fitness == rb.fitness

    def test_unsatisfied_results_flagged_not_dropped(self, caplog):
        # Impossible request: constant model far outside the bounds.
        query = reverse_query(n_cfes=2, bounds=ActionBounds.from_pairs([(0.9, 1.0), (-0.1, 0.1)]))
        model = ConstantPolicy([-0.9, 0.0])
        import logging

        with caplog.at_level(logging.WARNING, logger="lidar_cfe.cfe"):
            results = generate_cfes(query, model, GaConfig(generations=3))
        assert len(results) == 2
        assert all(not r.satisfied for r in results)
        assert all(r.hinge_component > 0 for r in results)
        assert any("no generated counterfactual" in rec.message for rec in caplog.records)

    def test_gen_priority_combination_used(self):
        query = reverse_query(n_cfes=2, combination="gen_priority")
        results = generate_cfes(query, scripted_policy("goal_seeker"))
        from oracles import combine_gen_priority

        for r in results:
            regenerated = raycast_scan(ORIGIN, r.obstacles, query.base_scan.n, query.base_scan.max_range)
            recombined = combine_gen_priority(query.base_scan, regenerated)
            assert np.array_equal(recombined.readings, r.combined_scan.readings)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            reverse_query(combination="mean")
        with pytest.raises(ValueError):
            reverse_query(n_obstacles=0)
        with pytest.raises(ValueError):
            reverse_query(lambda_y=-1.0)
        with pytest.raises(ValueError):
            reverse_query(size_limits=(0.0, 1.0))
        with pytest.raises(ValueError):
            reverse_query(size_limits=(0.1, math.inf))
        with pytest.raises(ValueError):
            reverse_query(n_cfes=True)
        with pytest.raises(ValueError):
            reverse_query(n_obstacles=2.0)
        with pytest.raises(ValueError, match="ray count"):
            reverse_query(n_obstacles=181)  # more obstacle slots than the 180 rays
        assert reverse_query(n_obstacles=180).n_obstacles == 180
        with pytest.raises(ValueError):
            reverse_query(rng_seed=-1)
        for field in ("lambda_y", "lambda_p", "d_min", "world_bounds", "d_g_max"):
            with pytest.raises(ValueError):
                reverse_query(**{field: math.nan})

    def test_world_extent_defaults_to_max_range(self):
        query = reverse_query()
        assert query.world_extent == 3.5
        assert query.goal_distance_scale == pytest.approx(2 * math.sqrt(2) * 3.5)
        assert reverse_query(world_bounds=2.0).world_extent == 2.0
        assert reverse_query(d_g_max=5.0).goal_distance_scale == 5.0
