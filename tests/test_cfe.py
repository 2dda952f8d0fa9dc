import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lidar_cfe import (
    ActionBounds,
    CfeQuery,
    GaConfig,
    GoalFeatures,
    ModelError,
    PolicyModel,
    Scan,
    Scenario,
    fitness_for_query,
    generate_cfes,
    run_ga,
    scripted_policy,
)
from lidar_cfe.bridge import external_policy
from lidar_cfe.cfe import GENES_PER_OBSTACLE, SearchFacts, _decode_rows, _hinge_rows, _package
from lidar_cfe.geometry import ORIGIN, ObstacleShape, Point2, ShapeRows, raycast_scan, shape_overlaps_disk

from oracles import hinge_oracle, scalar_decode


GOAL_AHEAD = GoalFeatures(1.0, 0.0, 2.0)


class ConstantPolicy(PolicyModel):
    def __init__(self, action, input_size=183):
        self.input_size = input_size
        self.output_size = len(action)
        self._action = np.asarray(action, dtype=float)

    def act_batch(self, states):
        return np.tile(self._action, (len(states), 1))


class NoisyPolicy(PolicyModel):
    """``left_preferrer`` plus N(0, 0.3) noise: not deterministic."""

    input_size, output_size = 183, 2

    def __init__(self):
        self.inner, self.rng = scripted_policy("left_preferrer"), np.random.default_rng(0)

    def act_batch(self, states):
        return np.clip(self.inner.act_batch(states) + self.rng.normal(0.0, 0.3, (len(states), 2)), -1.0, 1.0)


class BatchMeanPolicy(PolicyModel):
    """``left_preferrer`` less half its batch mean: deterministic, but each row depends on the others."""

    input_size, output_size = 183, 2

    def __init__(self):
        self.inner = scripted_policy("left_preferrer")

    def act_batch(self, states):
        actions = self.inner.act_batch(states)
        return np.clip(actions - 0.5 * actions.mean(axis=0), -1.0, 1.0)


def swerve_query():
    return CfeQuery(
        Scan.empty(180, 3.5), GOAL_AHEAD, ActionBounds.from_pairs([(0.9, 1.0), (-1.0, -0.5)]), n_obstacles=1, n_cfes=3, seed=3
    )


def reverse_query(**overrides):
    defaults = dict(
        base_scan=Scan.empty(180, 3.5),
        goal=GOAL_AHEAD,
        bounds=ActionBounds.from_pairs([(-1.0, 0.0), (-0.2, 0.2)]),
        n_cfes=3,
        seed=7,
    )
    defaults.update(overrides)
    return CfeQuery(**defaults)


def hinge(action, bounds):
    """The library's row hinge of one action."""
    return _hinge_rows(np.array([action], dtype=float), bounds)[0]


def decode(genome, n_obstacles, world_bounds, size_limits=(0.05, 1.0)):
    """One genome through the library's row decode, checked against the scalar oracle."""
    shapes = _decode_rows(np.array([genome], dtype=float), world_bounds, size_limits).shapes(0)
    assert shapes == tuple(scalar_decode(genome, n_obstacles, world_bounds, size_limits))
    return shapes


@st.composite
def canonical_shape_rows(draw):
    """Random ShapeRows as ``from_shapes`` writes them: a circle's size2 is its radius, its turn 0."""
    n_rows, n_slots = draw(st.integers(1, 4)), draw(st.integers(1, 5))

    def column(elements):
        return draw(arrays(float, (n_rows, n_slots), elements=elements))

    rect = draw(arrays(bool, (n_rows, n_slots)))
    cx, cy, size1 = column(st.floats(-10.0, 10.0)), column(st.floats(-10.0, 10.0)), column(st.floats(1e-3, 5.0))
    size2 = np.where(rect, column(st.floats(1e-3, 5.0)), size1)
    turn = np.where(rect, column(st.floats(0.0, math.pi, exclude_max=True)), 0.0)
    return ShapeRows(rect, cx, cy, size1, size2, turn, np.cos(turn), np.sin(turn))


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
        assert hinge([0.0, 0.2], bounds) == 0.0
        assert hinge([0.01, 0.0], bounds) != 0.0


class TestDecodeGenome:
    def test_midpoint_circle(self):
        shapes = decode([0.0, 0.5, 0.5, 0.3, 0.5, 0.9], 1, 3.5, (0.05, 1.0))
        (shape,) = shapes
        assert shape.kind == "circle"
        assert shape.center.x == pytest.approx(0.0, abs=1e-12)
        assert shape.center.y == pytest.approx(0.0, abs=1e-12)
        assert shape.radius == pytest.approx(0.525, abs=1e-12)

    def test_endpoint_rectangle(self):
        shapes = decode([1.0, 1.0, 0.5, 0.5, 0.2, 0.7], 1, 3.5, (0.05, 1.0))
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
            shapes = decode(genes, 3, wb, (lo, hi))
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
            shapes = decode(rng.random(GENES_PER_OBSTACLE * 4), 4, 3.5)
            for shape in shapes:
                if shape.kind == "circle":
                    assert shape.radius > 0
                else:
                    assert all(h > 0 for h in shape.half_extents)
                    assert 0.0 <= shape.orientation < math.pi

    def test_length_checked(self):
        fitness = fitness_for_query(reverse_query(n_obstacles=1), scripted_policy("goal_seeker"))
        with pytest.raises(ValueError, match="population shape"):
            fitness(np.zeros((1, 7)))

    @settings(max_examples=100, deadline=None)
    @given(
        rows=canonical_shape_rows(),
        genomes=st.integers(1, 3).flatmap(lambda k: arrays(float, (3, GENES_PER_OBSTACLE * k), elements=st.floats(0.0, 1.0))),
    )
    def test_shape_rows_and_packaged_obstacles_round_trip(self, rows, genomes):
        for i in range(len(rows.rect)):
            again, want = ShapeRows.from_shapes(rows.shapes(i)), rows.take([i])
            for f in fields(ShapeRows):
                a, b = getattr(again, f.name), getattr(want, f.name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        n_obstacles = genomes.shape[1] // GENES_PER_OBSTACLE
        query = reverse_query(n_obstacles=n_obstacles)
        searches = [SearchFacts(0, "generations", 1, 1)] * len(genomes)
        for genome, result in zip(genomes, _package(query, scripted_policy("goal_seeker"), genomes, searches), strict=True):
            assert result.obstacles == tuple(scalar_decode(genome, n_obstacles, query.world_bounds, query.size_limits))


class TestHingeLoss:
    def test_inside_bounds_is_zero(self):
        bounds = ActionBounds.from_pairs([(0.0, 1.0)])
        assert hinge([0.5], bounds) == 0.0

    def test_forced_arithmetic(self):
        bounds = ActionBounds.from_pairs([(-1.0, 0.0), (-0.1, 0.1)])
        assert hinge([-0.3, 0.15], bounds) == pytest.approx(0.05, abs=1e-12)

    def test_boundary_is_inclusive(self):
        bounds = ActionBounds.from_pairs([(-0.5, 0.5)])
        assert hinge([0.5], bounds) == 0.0
        assert hinge([-0.5], bounds) == 0.0

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
            assert hinge(action, bounds) == hinge_oracle(action, lo, hi)


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

    def test_empty_population_scores_empty(self):
        query = reverse_query()
        fitness = fitness_for_query(query, scripted_policy("goal_seeker"))
        assert fitness(np.empty((0, GENES_PER_OBSTACLE * query.n_obstacles))).shape == (0,)

    def test_model_shape_mismatch_rejected(self):
        query = reverse_query()
        with pytest.raises(ModelError):
            fitness_for_query(query, ConstantPolicy([0.0, 0.0], input_size=99))
        with pytest.raises(ModelError):
            fitness_for_query(query, ConstantPolicy([0.0]))

    def test_reach_zero_termination_implies_satisfied(self):
        query = reverse_query(lambda_p=0.0)
        fitness = fitness_for_query(query, scripted_policy("goal_seeker"))
        run = run_ga(GaConfig(), GENES_PER_OBSTACLE * query.n_obstacles, fitness, 3)
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
            state = assemble_state(r.combined_scan, query.goal, query.d_g_max)
            assert np.array_equal(model.act(state).values, r.achieved_action)
            # satisfied <=> inclusive bounds membership <=> zero hinge.
            assert r.satisfied == (hinge(r.achieved_action, query.bounds) == 0.0)
            assert r.satisfied == (r.hinge_component == 0.0)

    def test_achieved_action_is_a_read_only_row_of_the_models_actions(self):
        from lidar_cfe.scan import assemble_state

        policy = scripted_policy("goal_seeker")

        class Reusing(PolicyModel):
            """Returns one array of its own each call, overwritten by the next call."""

            input_size, output_size = policy.input_size, policy.output_size
            buffer = np.empty((0, 2))

            def act_batch(self, states):
                if len(self.buffer) != len(states):
                    self.buffer = np.empty((len(states), 2))
                self.buffer[:] = policy.act_batch(states)
                return self.buffer

        query = reverse_query(n_cfes=4)
        model = Reusing()
        results = generate_cfes(query, model)
        states = np.array([assemble_state(r.combined_scan, query.goal, query.d_g_max).values for r in results])
        want = policy.act_batch(states)
        model.act_batch(np.zeros_like(states))  # overwrites the array packaging got
        for r, row in zip(results, want, strict=True):
            assert r.achieved_action.shape == (2,) and not r.achieved_action.flags.writeable
            assert np.array_equal(r.achieved_action.view(np.uint64), row.view(np.uint64))
            with pytest.raises(ValueError, match="read-only"):
                r.achieved_action[0] = 0.0

    def test_packaging_scores_every_best_genome_in_one_batch(self, monkeypatch):
        from lidar_cfe import cfe

        query = reverse_query(n_cfes=4, lambda_p=0.05)
        policy = scripted_policy("goal_seeker")
        calls = []

        class Counting(PolicyModel):
            input_size, output_size = policy.input_size, policy.output_size

            def act_batch(self, states):
                calls.append(len(states))
                return policy.act_batch(states)

        def marked_run_ga(*args):
            run = run_ga(*args)
            calls.append("search done")
            return run

        monkeypatch.setattr(cfe, "run_ga", marked_run_ga)
        results = generate_cfes(query, Counting())
        assert calls.count("search done") == 4
        assert calls[len(calls) - calls[::-1].index("search done"):] == [4]
        # Each row packages as it would alone.
        for r in results:
            (alone,) = cfe._package(query, policy, r.genome[np.newaxis], [r.search])
            assert alone.obstacles == r.obstacles
            assert np.array_equal(alone.combined_scan.readings, r.combined_scan.readings)
            assert np.array_equal(alone.achieved_action, r.achieved_action)
            parts = ("fitness", "hinge_component", "proximity_component", "satisfied", "search")
            assert [getattr(alone, name) for name in parts] == [getattr(r, name) for name in parts]

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
            run = run_ga(config, GENES_PER_OBSTACLE * query.n_obstacles, objective, r.search.seed)
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
            reverse_query(seed=-1)
        for field in ("lambda_y", "lambda_p", "d_min", "world_bounds", "d_g_max"):
            with pytest.raises(ValueError):
                reverse_query(**{field: math.nan})
        overflowing = {"base_scan": Scan.empty(8, 1e308), "n_obstacles": 1}
        with pytest.raises(ValueError, match=r"goal-distance scale must be finite: 2\*sqrt\(2\)\*max_range overflows"):
            reverse_query(**overflowing)  # 2·√2 times the scan's max range overflows
        assert reverse_query(d_g_max=9.0, **overflowing).d_g_max == 9.0
        assert reverse_query(world_bounds=1e308).d_g_max == reverse_query().d_g_max  # the decode square does not set the scale

    def test_world_bounds_defaults_to_max_range(self):
        query = reverse_query()
        assert query.world_bounds == 3.5
        assert query.d_g_max == pytest.approx(2 * math.sqrt(2) * 3.5)
        assert reverse_query(world_bounds=2.0).world_bounds == 2.0
        assert reverse_query(d_g_max=5.0).d_g_max == 5.0
        assert replace(query, world_bounds=2.0).d_g_max == query.d_g_max  # a copy keeps the resolved scale

    def test_far_goal_warns_once_when_the_query_is_built(self, caplog):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the notice is a log record, not a Python warning
            query = reverse_query(goal=GoalFeatures(1.0, 0.0, 25.0), d_g_max=10.0, n_cfes=2)
            assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
                ("lidar_cfe.cfe", "WARNING", "goal distance 25.0 exceeds d_g_max 10.0; clamping to 1")
            ]
            caplog.clear()
            results = generate_cfes(query, scripted_policy("goal_seeker"), GaConfig(generations=2, population=10, parents_mating=4, keep_parents=2))
        assert len(results) == 2
        assert not any("clamping" in r.getMessage() for r in caplog.records)  # the search and packaging only clamp


@pytest.mark.parametrize("make", [NoisyPolicy, BatchMeanPolicy])
def test_a_packaged_fitness_that_differs_from_its_search_is_a_model_error(make):
    with pytest.raises(ModelError, match=r"model is not deterministic: search \d+ saw fitness .+, packaging scored the same genome"):
        generate_cfes(swerve_query(), make(), GaConfig(generations=3))


HUGE = 10**400  # an integer no float can hold


@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(lambda: GoalFeatures(HUGE, 0.0, 1.0), "goal cos", id="GoalFeatures-cos"),
        pytest.param(lambda: GoalFeatures(1.0, HUGE, 1.0), "goal sin", id="GoalFeatures-sin"),
        pytest.param(lambda: GoalFeatures(1.0, 0.0, HUGE), "goal distance", id="GoalFeatures-distance"),
        pytest.param(lambda: reverse_query(lambda_y=HUGE), "lambda_y", id="CfeQuery-lambda_y"),
        pytest.param(lambda: reverse_query(lambda_p=HUGE), "lambda_p", id="CfeQuery-lambda_p"),
        pytest.param(lambda: reverse_query(d_min=HUGE), "d_min", id="CfeQuery-d_min"),
        pytest.param(lambda: reverse_query(world_bounds=HUGE), "world_bounds", id="CfeQuery-world_bounds"),
        pytest.param(lambda: reverse_query(d_g_max=HUGE), "d_g_max", id="CfeQuery-d_g_max"),
        pytest.param(lambda: Point2(HUGE, 0.0), "point x", id="Point2-x"),
        pytest.param(lambda: Point2(0.0, -HUGE), "point y", id="Point2-y"),
        pytest.param(lambda: ObstacleShape.circle(ORIGIN, HUGE), "radius", id="circle-radius"),
        pytest.param(lambda: ObstacleShape.rectangle(ORIGIN, (1.0, HUGE)), "half_extents", id="rectangle-half_extents"),
        pytest.param(lambda: ObstacleShape.rectangle(ORIGIN, (1.0, 1.0), HUGE), "orientation", id="rectangle-orientation"),
        pytest.param(lambda: Scan(np.ones(4), HUGE), "max_range", id="Scan-max_range"),
        pytest.param(lambda: Scenario("room", Point2(1.0, 0.0), max_range=HUGE), "max_range", id="Scenario-max_range"),
        pytest.param(lambda: reverse_query(size_limits=(0.1, HUGE)), "size_limits", id="CfeQuery-size_limits"),
        pytest.param(lambda: ActionBounds.from_pairs([(-HUGE, 0.0)]), "bounds lower", id="ActionBounds-lower"),
        pytest.param(lambda: ActionBounds.from_pairs([(-1, HUGE)]), "bounds upper", id="ActionBounds-upper"),
        pytest.param(lambda: GaConfig(mutation_fraction=HUGE), "mutation_fraction", id="GaConfig-mutation_fraction"),
        pytest.param(lambda: external_policy(["/nonexistent/policy-binary"], 183, 2, timeout=HUGE), "timeout", id="bridge-timeout"),
    ],
)
def test_an_integer_beyond_the_float_range_is_a_value_error_naming_its_field(build, field):
    with pytest.raises(ValueError, match=f"^{field} is too large for a float$"):
        build()


@pytest.mark.parametrize("value", [True, "0.1"], ids=["bool", "string"])
@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(lambda v: reverse_query(size_limits=(v, 1.0)), "size_limits", id="CfeQuery-size_limits"),
        pytest.param(lambda v: ActionBounds.from_pairs([(v, 0.5)]), "bounds lower", id="ActionBounds-lower"),
        pytest.param(lambda v: ActionBounds.from_pairs([(-0.5, v)]), "bounds upper", id="ActionBounds-upper"),
        pytest.param(lambda v: GaConfig(mutation_fraction=v), "mutation_fraction", id="GaConfig-mutation_fraction"),
    ],
)
def test_a_bool_or_a_string_is_not_a_number(build, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a number, got {value!r}$"):
        build(value)
