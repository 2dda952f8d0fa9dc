"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The two end-to-end scenario batches run once (module fixtures) and
feed several criteria.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from lidar_cfe import (
    ActionBounds,
    BridgeError,
    BridgeTimeout,
    GaConfig,
    ModelState,
    NetworkPolicy,
    external_policy,
    fitness_for_query,
    run_ga,
    scripted_policy,
)
from lidar_cfe.cfe import GENES_PER_OBSTACLE, CfeQuery, _hinge_rows
from lidar_cfe.cli import EXIT_OK, main, verify_results_file
from lidar_cfe.geometry import ORIGIN, ObstacleShape, Point2, raycast_scan
from lidar_cfe.scan import GoalFeatures, Scan

from oracles import hinge_oracle, march_headings, march_scan, naive_net_forward, random_micro_net, random_scene


def report(cid: str, message: str) -> None:
    print(f"[acceptance] {cid}: PASS ({message})")


# ---------------------------------------------------------------------------
# End-to-end batches shared by criteria 6, 7, and 8


@pytest.fixture(scope="module")
def case1_run(tmp_path_factory):
    """Open floor, goal ahead; ask for reversing with little turning."""
    root = tmp_path_factory.mktemp("case1")
    (root / "room.yaml").write_text(
        "name: case1\nn_rays: 180\nmax_range: 3.5\norigin: [0.0, 0.0]\ngoal: [2.0, 0.0]\nobstacles: []\n"
    )
    (root / "query.yaml").write_text(
        "base: room.yaml\n"
        "bounds:\n  linear: [-1.0, 0.0]\n  angular: [-0.2, 0.2]\n"
        "combination: min_distance\nlambda_y: 1.0\nlambda_p: 0.0\n"
        "n_obstacles: 5\nd_min: 0.2\nn_cfes: 10\nseed: 42\n"
    )
    out = root / "out"
    started = time.monotonic()
    code = main(["explain", str(root / "query.yaml"), "--model", "scripted:goal_seeker", "-o", str(out)])
    elapsed = time.monotonic() - started
    assert code == EXIT_OK
    return {"out": out, "elapsed": elapsed, "model": "goal_seeker"}


@pytest.fixture(scope="module")
def case3_run(tmp_path_factory):
    """Box ahead; ask for a fast right swerve from the left-preferring policy."""
    root = tmp_path_factory.mktemp("case3")
    (root / "scene.yaml").write_text(
        "name: case3\nn_rays: 180\nmax_range: 3.5\norigin: [0.0, 0.0]\ngoal: [3.25, 0.0]\n"
        "obstacles:\n  - kind: rectangle\n    center: [2.75, 0.0]\n    half_extents: [0.25, 0.4]\n"
    )
    (root / "query.yaml").write_text(
        "base: scene.yaml\n"
        "bounds:\n  linear: [0.9, 1.0]\n  angular: [-1.0, -0.5]\n"
        "combination: min_distance\nlambda_y: 1.0\nlambda_p: 0.1\n"
        "n_obstacles: 1\nd_min: 0.2\nn_cfes: 100\nseed: 42\n"
    )
    out = root / "out"
    code = main(
        ["explain", str(root / "query.yaml"), "--model", "scripted:left_preferrer", "-o", str(out), "--no-plots"]
    )
    assert code == EXIT_OK
    return {"out": out, "model": "left_preferrer"}


def load_results(run) -> dict:
    return json.loads((run["out"] / "results.json").read_text())


def obstacles_from_entry(entry) -> list[ObstacleShape]:
    shapes = []
    for payload in entry["obstacles"]:
        center = Point2(*payload["center"])
        if payload["kind"] == "circle":
            shapes.append(ObstacleShape.circle(center, payload["radius"]))
        else:
            shapes.append(ObstacleShape.rectangle(center, tuple(payload["half_extents"]), payload["orientation"]))
    return shapes


# ---------------------------------------------------------------------------
# Criteria


def test_c01_raycast_matches_marching_oracle():
    rng = np.random.default_rng(20240)
    budget_start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        shapes = random_scene(rng, max_shapes=5, graze_free_rays=180)
        scan = raycast_scan(ORIGIN, shapes, 180, 3.5)
        marched = march_scan(shapes, 180, 3.5, step=1e-3)
        worst = max(worst, float(np.max(np.abs(scan.readings - marched))))
        assert worst < 2e-3
    elapsed = time.monotonic() - budget_start
    assert elapsed < 60.0
    report("C01 raycast-oracle-equivalence", f"1000 scenes, max err {worst:.2e} m, {elapsed:.1f} s")


def test_c02_combination_operator_laws():
    from oracles import combine_gen_priority, combine_min_distance

    rng = np.random.default_rng(20241)
    n = 180
    violations = 0
    for _ in range(10_000):
        a = Scan(rng.uniform(1e-6, 3.5, n), 3.5)
        b = Scan(rng.uniform(1e-6, 3.5, n), 3.5)
        merged_min = combine_min_distance(a, b).readings
        merged_prio = combine_gen_priority(a, b).readings
        for i in range(n):
            if merged_min[i] != min(a.readings[i], b.readings[i]):
                violations += 1
            expected = b.readings[i] if b.readings[i] < 3.5 else a.readings[i]
            if merged_prio[i] != expected:
                violations += 1
        if not np.array_equal(combine_min_distance(a, a).readings, a.readings):
            violations += 1
        if not np.array_equal(combine_gen_priority(a, a).readings, a.readings):
            violations += 1
        empty = Scan.empty(n, 3.5)
        if not np.array_equal(combine_gen_priority(a, empty).readings, a.readings):
            violations += 1
        if not np.array_equal(combine_min_distance(a, empty).readings, a.readings):
            violations += 1
    assert violations == 0
    report("C02 combination-operator-laws", "10^4 random scan pairs, zero violations")


def test_c03_hinge_loss_exact_against_oracle():
    rng = np.random.default_rng(20242)
    for _ in range(100_000):
        m = int(rng.integers(1, 4))
        lo = rng.uniform(-1.0, 1.0, m)
        hi = rng.uniform(-1.0, 1.0, m)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        action = rng.uniform(-1.0, 1.0, m)
        if rng.random() < 0.25:  # boundary values must count as inside
            j = int(rng.integers(0, m))
            action[j] = lo[j] if rng.random() < 0.5 else hi[j]
        got = _hinge_rows(action[np.newaxis], ActionBounds(lo, hi))[0]
        assert got == hinge_oracle(action, lo, hi)
    report("C03 hinge-loss-exactness", "10^5 pairs incl. boundaries, exact match")


def test_c04_network_inference_oracle():
    from lidar_cfe import Conv1d

    from oracles import conv1d_forward

    rng = np.random.default_rng(20243)
    worst = 0.0
    for _ in range(200):
        spec, weights = random_micro_net(rng)
        values = rng.random(spec.lidar_inputs + spec.extra_inputs)
        got = NetworkPolicy(spec, weights).act(ModelState(values)).values
        want = naive_net_forward(spec, weights, values)
        worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-6
        # Rotation property for every stride-1 circular conv layer in the net.
        for idx, layer in enumerate(spec.layers):
            if not isinstance(layer, Conv1d) or layer.stride != 1 or not layer.circular:
                continue
            if 2 * layer.padding != layer.kernel - 1:
                continue  # rotation equivariance needs length-preserving padding
            length = int(rng.integers(max(layer.kernel, 6), 24))
            x = rng.normal(size=(layer.in_channels, length))
            w, b = weights[idx]
            shift = int(rng.integers(1, length))
            plain = conv1d_forward(x, w, b, 1, layer.padding, True)
            rolled = conv1d_forward(np.roll(x, shift, axis=1), w, b, 1, layer.padding, True)
            assert np.allclose(np.roll(plain, shift, axis=1), rolled, atol=1e-9)
    report("C04 network-inference-oracle", f"200 micro-nets, max err {worst:.2e}")


def test_c05_ga_engine_properties_and_convergence():
    def objective(pop):
        return -np.abs(np.asarray(pop) - 0.5).sum(axis=1)

    # Engine laws over 50 seeded runs (run twice each for determinism).
    for seed in range(50):
        config = GaConfig()
        first = run_ga(config, 6, objective, seed)
        second = run_ga(config, 6, objective, seed)
        assert first.trace == second.trace
        assert np.array_equal(first.best_genome, second.best_genome)
        assert np.array_equal(first.population, second.population)
        trace = np.array(first.trace)
        assert np.all(np.diff(trace) >= 0.0)  # elitism keeps the best
        assert first.population.shape == (config.population, 6)
        assert np.all((first.population >= 0.0) & (first.population <= 1.0))

    # Search quality: full generation budget (stall stop disabled), 100 seeds.
    reached = 0
    for seed in range(100):
        run = run_ga(GaConfig(saturate_k=None), 6, objective, seed)
        assert run.generations_run <= 100
        reached += run.best_fitness >= -0.05
    assert reached >= 95
    report("C05 ga-engine", f"50 determinism runs clean; {reached}/100 seeds within 0.05 of optimum")


def test_c06_reversing_batch(case1_run):
    results = load_results(case1_run)
    entries = results["results"]
    assert len(entries) == 10
    satisfied = [e for e in entries if e["satisfied"]]
    assert len(satisfied) >= 8

    # Every satisfied counterfactual must put a return in the forward +-30
    # degree cone within 1.5 m; checked with the independent marching oracle
    # on the decoded obstacles alone.
    cone = [i for i in range(180) if min(i, 180 - i) * 2.0 <= 30.0]
    headings = np.array(cone) * (2.0 * math.pi / 180.0)
    for entry in satisfied:
        shapes = obstacles_from_entry(entry)
        distances = march_headings(shapes, headings, 3.5, step=1e-3)
        assert float(distances.min()) <= 1.5

    assert case1_run["elapsed"] <= 60.0
    report(
        "C06 reversing-batch",
        f"{len(satisfied)}/10 satisfied, all block the forward cone, {case1_run['elapsed']:.1f} s",
    )


def test_c07_left_half_plane_batch(case3_run):
    results = load_results(case3_run)
    entries = results["results"]
    assert len(entries) == 100
    satisfied = [e for e in entries if e["satisfied"]]
    assert satisfied, "no satisfied counterfactuals to analyze"
    lefties = sum(1 for e in satisfied if obstacles_from_entry(e)[0].center.y > 0.0)
    fraction = lefties / len(satisfied)
    assert fraction >= 0.95
    report("C07 left-preference-batch", f"{lefties}/{len(satisfied)} satisfied place the obstacle left")


def test_c08_results_files_self_verify(case1_run, case3_run):
    total = 0
    for run in (case1_run, case3_run):
        model = scripted_policy(run["model"])
        total += verify_results_file(run["out"] / "results.json", model)
    assert total == 110
    report("C08 self-verification", f"{total} stored actions reproduced exactly, flags consistent")


def test_c09_sensor_disk_guard():
    base = Scan.empty(180, 3.5)
    query = CfeQuery(
        base_scan=base,
        goal=GoalFeatures(1.0, 0.0, 2.0),
        bounds=ActionBounds.from_pairs([(-1.0, 0.0), (-0.2, 0.2)]),
        n_cfes=1,
        seed=0,
    )
    fitness = fitness_for_query(query, scripted_policy("goal_seeker"))
    rng = np.random.default_rng(20244)
    pop = rng.random((1000, GENES_PER_OBSTACLE * query.n_obstacles))
    pop[:, 1] = 0.5  # first obstacle centered on the sensor
    pop[:, 2] = 0.5
    assert np.all(fitness(pop) == -math.inf)

    # Violators never survive into the elite slots of a real run.
    run = run_ga(GaConfig(), GENES_PER_OBSTACLE * query.n_obstacles, fitness, 11)
    order = np.argsort(-run.fitnesses, kind="stable")
    elites = run.fitnesses[order[:10]]
    assert np.all(np.isfinite(elites))
    assert math.isfinite(run.best_fitness)
    report("C09 sensor-disk-guard", "1000 crowding genomes rejected; elites all finite")


def test_c10_bridge_protocol_conformance(tmp_path):
    n_in, n_out = 19, 2

    def script(body: str, name: str):
        path = tmp_path / name
        path.write_text(body)
        return [sys.executable, str(path)]

    state = ModelState(np.full(n_in, 0.5))

    # Handshake checked, then normal operation.
    good = script(
        f'import sys\nprint("HELLO {n_in} {n_out}", flush=True)\n'
        'for line in sys.stdin:\n    print("0.25 -0.25", flush=True)\n',
        "good.py",
    )
    with external_policy(good, n_in, n_out) as policy:
        for _ in range(3):
            assert policy.act(state).values.tolist() == [0.25, -0.25]

    # Handshake mismatch aborts before any act call.
    bad_hello = script('print("HELLO 5 2", flush=True)\n', "hello.py")
    with pytest.raises(BridgeError, match="handshake"):
        external_policy(bad_hello, n_in, n_out)

    # Malformed response surfaces as a protocol error.
    malformed = script(
        f'import sys\nprint("HELLO {n_in} {n_out}", flush=True)\n'
        'for line in sys.stdin:\n    print("one two", flush=True)\n',
        "malformed.py",
    )
    with external_policy(malformed, n_in, n_out) as policy:
        with pytest.raises(BridgeError, match="malformed"):
            policy.act(state)

    # A silent process trips the timeout within the configured deadline.
    sleepy = script(
        f'import sys, time\nprint("HELLO {n_in} {n_out}", flush=True)\n'
        "sys.stdin.readline()\ntime.sleep(30)\n",
        "sleepy.py",
    )
    started = time.monotonic()
    with external_policy(sleepy, n_in, n_out, timeout=0.5) as policy:
        with pytest.raises(BridgeTimeout):
            policy.act(state)
    assert time.monotonic() - started < 5.0
    report("C10 bridge-protocol", "handshake, normal, malformed, and timeout paths conform")
