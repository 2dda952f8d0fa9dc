"""Population scoring against the one-genome chain, bit for bit.

The search scores a whole generation in one call. Each row must come out
exactly as the single-shape public functions score that genome alone
(``oracles.scalar_score``), whatever else is in the batch.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lidar_cfe import (
    ActionBounds,
    ActionVector,
    Activation,
    CfeQuery,
    Conv1d,
    Dense,
    GoalFeatures,
    ModelError,
    ModelState,
    NetworkPolicy,
    NetworkSpec,
    PolicyModel,
    fitness_for_query,
    scripted_policy,
)
from lidar_cfe.cfe import GENES_PER_OBSTACLE, _hinge_rows, _scorer
from lidar_cfe.geometry import ORIGIN, ObstacleShape, Point2, raycast_scan
from lidar_cfe.model import (
    AVOID_THRESHOLD,
    BLEND_WIDTH,
    BLOCK_THRESHOLD,
    FORWARD_SPEED,
    REVERSE_SPEED,
    ROW_FLOOR,
    SIDE_THRESHOLD,
    distinct_rows,
)

from oracles import naive_net_forward, random_micro_net, random_wide_net, scalar_net_act, scalar_score, scalar_scripted_act

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

PROPERTY = settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class MeanRangePolicy(PolicyModel):
    """A plain subclass that defines act_batch with whole-array numpy and nothing else."""

    input_size = 183
    output_size = 2

    def act_batch(self, states):
        linear = 4.0 * (states[:, :90].mean(axis=1) - 0.8)
        angular = 3.0 * (states[:, 90:180].min(axis=1) - states[:, 180])
        return np.tanh(np.column_stack([linear, angular]))


def bench_conv_net() -> NetworkPolicy:
    """The benchmark's seeded README conv net (workload seed 7)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    (c1, c2), (d1, d2) = workloads.CONV_LAYERS, workloads.DENSE_LAYERS
    k, pad = workloads.KERNEL, workloads.PADDING
    layers = (
        Conv1d(c1[0], c1[1], k, c1[2], pad, True),
        Activation("relu"),
        Conv1d(c2[0], c2[1], k, c2[2], pad, True),
        Activation("relu"),
        Dense(*d1),
        Activation("relu"),
        Dense(*d2),
        Activation("tanh"),
    )
    w = workloads.conv_weights(7)
    return NetworkPolicy(NetworkSpec(workloads.N_RAYS, 3, layers), [w[0], None, w[1], None, w[2], None, w[3], None])


MODELS = {
    "goal_seeker": (scripted_policy("goal_seeker"), [(-1.0, 0.0), (-0.2, 0.2)]),
    "left_preferrer": (scripted_policy("left_preferrer"), [(0.9, 1.0), (-1.0, -0.5)]),
    "conv_net": (bench_conv_net(), [(-0.03, 0.03), (-1.0, -0.01)]),
    "plain_subclass": (MeanRangePolicy(), [(-0.5, 0.5), (-1.0, 0.0)]),
}

BOX_AHEAD = raycast_scan(ORIGIN, [ObstacleShape.rectangle(Point2(2.75, 0.0), (0.25, 0.4))], 180, 3.5)


def make_query(model_name, **overrides):
    fields = dict(
        base_scan=BOX_AHEAD,
        goal=GoalFeatures(1.0, 0.0, 3.25),
        bounds=ActionBounds.from_pairs(MODELS[model_name][1]),
    )
    fields.update(overrides)
    return CfeQuery(**fields)


def populations(n_obstacles, max_rows=6):
    rows = st.integers(1, max_rows)
    genes = st.floats(0.0, 1.0, exclude_max=True)
    return rows.flatmap(lambda p: arrays(float, (p, GENES_PER_OBSTACLE * n_obstacles), elements=genes))


def bits(values):
    """The float64 bit patterns, so -0.0 and 0.0 count as different."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def assert_rows_match_oracle(query, model, pop):
    oracle = [scalar_score(query, model, genome) for genome in pop]
    objective = fitness_for_query(query, model)(pop)
    fitness, merged, actions, hinge, proximity = _scorer(query, model)(pop, True)
    assert np.array_equal(bits(objective), bits([o[0] for o in oracle]))
    assert np.array_equal(bits(fitness), bits([o[0] for o in oracle]))
    assert np.array_equal(bits(merged), bits([o[1].readings for o in oracle]))
    assert np.array_equal(bits(actions), bits([o[2].values for o in oracle]))
    assert np.array_equal(bits(hinge), bits([o[3] for o in oracle]))
    assert np.array_equal(bits(proximity), bits([o[4] for o in oracle]))
    assert np.all(fitness <= 0.0)
    for action, h in zip(actions, hinge):
        assert (_hinge_rows(action[np.newaxis], query.bounds)[0] == 0.0) == (h == 0.0)


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("n_obstacles", [1, 5])
@pytest.mark.parametrize("combination", ["min_distance", "gen_priority"])
@pytest.mark.parametrize("lambda_p", [0.0, 0.3])
def test_batched_scores_equal_the_one_genome_chain(model_name, n_obstacles, combination, lambda_p):
    query = make_query(model_name, n_obstacles=n_obstacles, combination=combination, lambda_p=lambda_p)

    @PROPERTY
    @given(pop=populations(n_obstacles))
    def check(pop):
        assert_rows_match_oracle(query, MODELS[model_name][0], pop)

    check()


class CountingPolicy(PolicyModel):
    """Wraps a model and counts the states it is asked to act on."""

    def __init__(self, inner):
        self.inner = inner
        self.input_size = inner.input_size
        self.output_size = inner.output_size
        self.rows = 0

    def act_batch(self, states):
        self.rows += len(states)
        return self.inner.act_batch(states)


@pytest.mark.parametrize("combination", ["min_distance", "gen_priority"])
@pytest.mark.parametrize("lambda_p", [0.0, 0.3])
def test_an_objective_scores_each_population_as_a_fresh_one_would(combination, lambda_p):
    # The objective keeps its scan and difference arrays between calls. The
    # populations grow past them, shrink, are all rejected, are empty and grow again.
    query = make_query("left_preferrer", n_obstacles=2, combination=combination, lambda_p=lambda_p)
    model = MODELS["left_preferrer"][0]
    rng = np.random.default_rng(11)
    length = GENES_PER_OBSTACLE * 2
    pops = [rng.random((p, length)) for p in (5, 40, 3, 7, 0, 60, 1)]
    pops[1][::3, 1:3] = 0.5  # some rows rejected: fewer scans than genomes
    pops[3][:, 1:3] = 0.5  # every row rejected
    objective = fitness_for_query(query, model)
    returned = []
    for pop in pops:
        fitness = objective(pop)
        assert np.array_equal(bits(fitness), bits(fitness_for_query(query, model)(pop)))
        returned.append((fitness, fitness.copy()))
    assert np.all(returned[3][0] == -math.inf)
    for fitness, kept in returned:  # later calls leave the arrays handed out alone
        assert np.array_equal(bits(fitness), bits(kept))


@PROPERTY
@given(pop=populations(2))
def test_every_genome_rejected_skips_the_model(pop):
    model = CountingPolicy(scripted_policy("goal_seeker"))
    query = make_query("goal_seeker", n_obstacles=2, d_min=10.0)  # the disk covers the whole decode region
    assert np.all(fitness_for_query(query, model)(pop) == -math.inf)
    assert model.rows == 0
    assert_rows_match_oracle(query, model, pop)


def test_rejected_rows_skip_the_model():
    model = CountingPolicy(scripted_policy("goal_seeker"))
    query = make_query("goal_seeker", n_obstacles=1)
    pop = np.random.default_rng(5).random((40, GENES_PER_OBSTACLE))
    pop[::2, 1:3] = 0.5  # every other obstacle centered on the sensor
    values = fitness_for_query(query, model)(pop)
    assert np.all(values[::2] == -math.inf)
    assert np.all(np.isfinite(values[1::2]))
    assert model.rows == 20


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_act_batch_rows_equal_act(model_name):
    model = MODELS[model_name][0]

    @PROPERTY
    @given(states=st.integers(1, 8).flatmap(lambda p: arrays(float, (p, 183), elements=st.floats(0.0, 1.0))))
    def check(states):
        batch = model.act_batch(states)
        single = [model.act(ModelState(row)).values for row in states]
        assert np.array_equal(bits(batch), bits(single))

    check()


NETS = {
    "bench_conv_net": MODELS["conv_net"][0],
    **{f"micro_{seed}": NetworkPolicy(*random_micro_net(np.random.default_rng(seed))) for seed in range(4)},
    **{f"wide_{seed}": NetworkPolicy(*random_wide_net(np.random.default_rng(seed))) for seed in range(3)},
}


def test_nets_cover_each_padding_with_each_stride():
    # Zero padding gathers from an appended zero column and circular padding
    # wraps; both with and without a stride.
    layers = [layer for net in NETS.values() for layer in net.spec.layers if isinstance(layer, Conv1d) and layer.padding]
    assert {(layer.circular, layer.stride > 1) for layer in layers} == {(True, False), (True, True), (False, False), (False, True)}


@pytest.mark.parametrize("name", sorted(NETS))
def test_net_rows_equal_the_one_state_oracle_in_any_batch(name):
    # Batches below and above the row floor, at offsets and as strided views, and a one-row act.
    model = NETS[name]
    states = np.random.default_rng(8).random((403, model.input_size))
    alone = bits([scalar_net_act(model.spec, model.weights, row) for row in states])
    for n in (1, 2, 15, 16, 17, 100, 101, 400):
        for offset in (0, 1, 3):
            assert np.array_equal(bits(model.act_batch(states[offset : offset + n])), alone[offset : offset + n]), (n, offset)
    for step in (2, 3):
        assert np.array_equal(bits(model.act_batch(states[1::step])), alone[1::step]), step
    assert np.array_equal(bits(model.act(ModelState(states[5])).values), alone[5])


@pytest.mark.parametrize("name", sorted(NETS))
def test_net_rows_with_repeats_equal_one_row_calls_and_the_oracles(name):
    # 40 rows over 5 distinct states, two of which differ only in the sign of a zero:
    # the net runs 5 states, below the row floor, and copies their actions to the repeats.
    model = NETS[name]
    base = np.random.default_rng(9).random((5, model.input_size))
    base[1] = base[0]
    base[0, 0], base[1, 0] = 0.0, -0.0
    order = np.random.default_rng(10).permutation(np.arange(40) % 5)
    states = base[order]
    assert len(distinct_rows(states)[0]) == 5 < ROW_FLOOR
    batch = model.act_batch(states)
    assert np.array_equal(bits(batch), bits([model.act_batch(row[np.newaxis])[0] for row in states]))
    assert np.array_equal(bits(batch), bits([scalar_net_act(model.spec, model.weights, row) for row in base])[order])
    naive = np.array([naive_net_forward(model.spec, model.weights, row) for row in base])[order]
    assert np.max(np.abs(batch - naive)) < 1e-6  # the loop oracle sums in another order


# Bit patterns that equality on values would merge or split wrongly: both zeros,
# NaNs with different payloads and signs, infinities and the smallest subnormal.
SPECIAL_BITS = [0, 1 << 63, 0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF0000000000000, 1]


@st.composite
def row_batches(draw):
    """A (P, n) float view, strided and offset inside a larger array, whose rows repeat a few base rows."""
    width = draw(st.integers(0, 5))
    n_base = draw(st.integers(1, 4))
    patterns = st.sampled_from(SPECIAL_BITS) | st.integers(0, 2**64 - 1)
    base = np.array(draw(st.lists(patterns, min_size=n_base * width, max_size=n_base * width)), dtype=np.uint64)
    rows = base.view(float).reshape(n_base, width)[draw(st.lists(st.integers(0, n_base - 1), max_size=30))]
    step, offset = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    holder = np.full((offset + step * len(rows), 2 * width + offset), 7.0)
    view = holder[offset::step, offset::2][: len(rows), :width]
    view[...] = rows
    return view


def check_distinct_rows(states):
    firsts = []  # each row's bytes, first occurrences in order: the oracle
    for row in states:
        if row.tobytes() not in firsts:
            firsts.append(row.tobytes())
    distinct, inverse = distinct_rows(states)
    assert distinct.shape == (len(firsts), states.shape[1]) and inverse.shape == (len(states),)
    assert [row.tobytes() for row in distinct] == firsts
    assert distinct[inverse].tobytes() == np.ascontiguousarray(states).tobytes()


@settings(max_examples=300, deadline=None)  # cheap draws, so many more than the scoring properties
@given(states=row_batches())
def test_distinct_rows_keeps_first_occurrences_by_their_bits(states):
    check_distinct_rows(states)


@pytest.mark.parametrize(
    "states",
    [np.empty((0, 4)), np.empty((3, 0)), np.full((6, 4), 0.25), np.zeros((5, 3)), np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]])],
    ids=["no rows", "no columns", "all identical", "all zero", "signed zeros"],
)
def test_distinct_rows_edge_batches(states):
    check_distinct_rows(states)


def test_scripted_act_batch_covers_the_blend_region():
    # Random states put something near the sensor almost always; sweep a
    # forward obstacle through the logistic blend so the smooth part is checked too.
    model = scripted_policy("left_preferrer")
    states = np.ones((200, 183))
    states[:, 180:] = [1.0, 0.6, 0.3]
    states[:, 0] = np.linspace(0.3, 0.9, 200)
    states[:, 45] = np.linspace(0.45, 0.55, 200)
    batch = model.act_batch(states)
    assert len(np.unique(batch[:, 0])) > 50
    single = [model.act(ModelState(row)).values for row in states]
    assert np.array_equal(bits(batch), bits(single))


@pytest.mark.parametrize("kind", ["goal_seeker", "left_preferrer"])
@pytest.mark.parametrize("rows", ["default", "near_thresholds"])
def test_scripted_act_batch_equals_the_scalar_oracle(kind, rows):
    # Goals off the x axis send the bearing through arctan2. The default rows
    # each get their own nearest reading. The near_thresholds rows put their
    # nearest forward and left readings within five blend widths of the
    # thresholds, which keeps the logistic gates off 0 and 1, where the last
    # bit of exp shows.
    rng = np.random.default_rng(41)
    goal_angle = rng.uniform(-math.pi, math.pi, 500)
    if rows == "default":
        lidar = rng.uniform(rng.uniform(0.0, 0.9, (500, 1)), 1.0, (500, 180))
    else:
        lidar = rng.uniform(0.9, 1.0, (500, 180))
        near = 5.0 * BLEND_WIDTH * rng.uniform(-1.0, 1.0, (500, 2))
        lidar[:, 0] = np.where(np.arange(500) % 2, BLOCK_THRESHOLD, AVOID_THRESHOLD) + near[:, 0]  # forward, not left
        lidar[:, 45] = SIDE_THRESHOLD + near[:, 1]  # left, not forward
    states = np.column_stack([lidar, (np.cos(goal_angle) + 1.0) / 2.0, (np.sin(goal_angle) + 1.0) / 2.0, rng.random(500)])
    oracle = [scalar_scripted_act(kind, 180, row) for row in states]
    actions = scripted_policy(kind).act_batch(states)
    assert np.array_equal(bits(actions), bits(oracle))
    if rows == "near_thresholds":  # the rows at the block threshold drive at a blended speed
        assert np.all((actions[1::2, 0] > REVERSE_SPEED) & (actions[1::2, 0] < FORWARD_SPEED))


class FixedBatchPolicy(PolicyModel):
    """Returns one preset action array from act_batch, whatever the states."""

    input_size = 183
    output_size = 2

    def __init__(self, actions):
        self.actions = np.asarray(actions, dtype=float)

    def act_batch(self, states):
        return self.actions


@pytest.mark.parametrize(
    "actions, message",
    [([[0.0, 2.0]], "action values must lie in [-1, 1], got [0.0, 2.0]"), ([[math.nan, 0.0]], "action values must be finite")],
)
def test_batched_actions_keep_action_vector_checks(actions, message):
    with pytest.raises(ValueError) as single:
        ActionVector(np.asarray(actions[0]))
    assert str(single.value) == message
    objective = fitness_for_query(make_query("goal_seeker", n_obstacles=1), FixedBatchPolicy(actions))
    with pytest.raises(ModelError) as batched:
        objective(np.full((1, GENES_PER_OBSTACLE), 0.9))
    assert str(batched.value) == message


def test_act_batch_of_the_wrong_shape_is_a_model_error():
    objective = fitness_for_query(make_query("goal_seeker", n_obstacles=1), FixedBatchPolicy([[0.0, 0.0]]))
    with pytest.raises(ModelError, match="shape"):
        objective(np.full((3, GENES_PER_OBSTACLE), 0.9))


def test_objective_rejects_a_single_genome():
    objective = fitness_for_query(make_query("goal_seeker", n_obstacles=1), scripted_policy("goal_seeker"))
    with pytest.raises(ValueError, match="population shape"):
        objective(np.full(GENES_PER_OBSTACLE, 0.9))


def test_act_comes_from_act_batch_and_a_model_needs_one_of_them():
    state = ModelState(np.full(183, 0.5))
    assert FixedBatchPolicy([[0.25, -0.5]]).act(state).values.tolist() == [0.25, -0.5]

    class Neither(PolicyModel):
        input_size, output_size = 183, 2

    for call in (lambda m: m.act(state), lambda m: m.act_batch(state.values[np.newaxis])):
        with pytest.raises(NotImplementedError, match="Neither does not define act_batch"):
            call(Neither())
