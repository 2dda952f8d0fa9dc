"""Tests of the benchmark itself: generated inputs, the output gate, hooks, the bridge child.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# A small turn-right query: two searches of three generations.
SMALL_SWERVE = dataclasses.replace(
    workloads.WORKLOADS["bridge-1obs"],
    query=dict(workloads.SWERVE_QUERY, ga={"generations": 3, "saturate_k": None}),
    n_cfes=2,
)


def explain(inputs, model_spec: str, out_dir: Path) -> bytes:
    """Run ``lidar-cfe explain`` in a fresh interpreter and return results.json."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "lidar_cfe.cli", "explain", str(inputs.query_path), "--model", model_spec]
    argv += ["-o", str(out_dir), "--seed", str(inputs.query_seed), "--no-plots"]
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
    return (out_dir / "results.json").read_bytes()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("small")
    inputs = workloads.write_inputs(SMALL_SWERVE, 3, work)
    bridged = explain(inputs, inputs.model_spec, work / "bridge")
    in_process = explain(inputs, "scripted:left_preferrer", work / "scripted")
    return inputs, work, bridged, in_process


def test_benchmark_json_matches_the_code():
    spec = run.declared()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    explain = FakeExplain(Path("."), 600)
    explain.stats.update(layers={}, main_end=3.0, search_start=1.0, search_end=2.0, objective_rejected=0)
    computed = set(run.layer_metrics(explain, results_bytes=10, mean_hinge=0.0)) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == computed


def test_bridge_child_matches_in_process_policy(small_run):
    inputs, _, bridged, in_process = small_run
    assert inputs.model_spec.startswith("exec:")
    assert len(json.loads(bridged)["results"]) == 2
    assert bridged == in_process


def test_inputs_are_a_function_of_the_seed(tmp_path):
    convnet = workloads.WORKLOADS["convnet-1obs"]
    files = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / name).mkdir()
        inputs = workloads.write_inputs(convnet, seed, tmp_path / name)
        assert inputs.query_seed == 1000 * seed
        files[name] = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
    assert files["a"] == files["b"]
    assert files["a"]["convnet.weights.txt"] != files["c"]["convnet.weights.txt"]
    assert files["a"]["convnet-1obs.query.yaml"] == files["c"]["convnet-1obs.query.yaml"]


def test_conv_net_base_action_is_zero(tmp_path):
    from lidar_cfe.cli import load_model
    from lidar_cfe.scan import assemble_state
    from lidar_cfe.scenario import load_scenario

    inputs = workloads.write_inputs(workloads.WORKLOADS["convnet-1obs"], 7, tmp_path)
    scenario = load_scenario(tmp_path / "box_ahead.yaml")
    state = assemble_state(scenario.base_scan(), scenario.goal_features(), scenario.goal_distance_scale())
    np.testing.assert_allclose(state.values, workloads.conv_base_state(), rtol=0, atol=1e-12)
    action = load_model(inputs.model_spec, 183, 2).act(state)
    np.testing.assert_allclose(action.values, [0.0, 0.0], rtol=0, atol=1e-9)


class FakeExplain:
    """The parts of run.Explain the gate reads, over an existing output directory."""

    traced = False
    exit_code = 0
    log = ""

    def __init__(self, out_dir: Path, n_evals: int) -> None:
        self.out_dir = out_dir
        self.stats = {
            "missing": [],
            "searches": [{"seconds": 1.0, "generations": n_evals // 100, "population": 100, "termination": "generations"}],
            "objective_rows": 0,
        }

    counts = run.Explain.counts


def gate_output(small_run, tmp_path, edit=None) -> list[str]:
    inputs, _, _, in_process = small_run
    inputs = dataclasses.replace(inputs, model_spec="scripted:left_preferrer")
    data = json.loads(in_process)
    if edit is not None:
        edit(data)
    (tmp_path / "results.json").write_text(json.dumps(data), encoding="utf-8")
    (tmp_path / "manifest.json").write_text("{}", encoding="utf-8")
    for i in range(len(data["results"])):
        (tmp_path / f"cfe_{i:03d}.svg").write_text("<svg/>", encoding="utf-8")
    gate = run.Gate(inputs, run.make_verifier(inputs))
    gate.check(FakeExplain(tmp_path, 600), 0)
    return gate.breaches


def test_gate_passes_untouched_results(small_run, tmp_path):
    assert gate_output(small_run, tmp_path) == []


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda d: d["results"][0].update(fitness=0.5), "fitness 0.5 > 0"),
        (lambda d: d["results"][0].update(satisfied=not d["results"][0]["satisfied"]), "satisfied="),
        (lambda d: d["results"][1]["achieved_action"].__setitem__(0, 0.123), "verify_results_file"),
        (lambda d: d["results"].pop(), "1 results, expected 2"),
    ],
)
def test_gate_reports_each_breach(small_run, tmp_path, edit, expected):
    breaches = gate_output(small_run, tmp_path, edit)
    assert any(expected in b for b in breaches), breaches


def test_gate_requires_identical_results_across_explains(small_run, tmp_path):
    inputs, work, _, _ = small_run
    inputs = dataclasses.replace(inputs, model_spec="scripted:left_preferrer")
    gate = run.Gate(inputs, run.make_verifier(inputs))
    first = work / "scripted"
    for svg_index in range(2):
        (first / f"cfe_{svg_index:03d}.svg").write_text("<svg/>", encoding="utf-8")
    (first / "manifest.json").write_text("{}", encoding="utf-8")
    assert gate.check(FakeExplain(first, 600), 0) is not None
    assert gate.check(FakeExplain(first, 700), 1) is None
    assert "counts" in gate.breaches[-1]
    shutil.copytree(first, tmp_path / "other")
    data = json.loads((first / "results.json").read_text(encoding="utf-8"))
    (tmp_path / "other" / "results.json").write_text(json.dumps(data, indent=1), encoding="utf-8")
    assert gate.check(FakeExplain(tmp_path / "other", 600), 2) is None
    assert "sha256" in gate.breaches[-1]
    assert gate.failed == 2


def fake_lidar_cfe(*drop: str) -> dict:
    """Stand-in modules with the functions the probe hooks, less those named in ``drop``."""
    modules = {name: types.ModuleType(f"lidar_cfe.{name}") for name in ("cli", "cfe", "model")}
    for module_name, attr, _ in probe.TRACED_HOOKS + (("cli", "generate_cfes", ""), ("cfe", "run_ga", "")):
        setattr(modules[module_name], attr, lambda *args, **kwargs: 0.0)
    for name in drop:
        module_name, attr = name.split(".")
        delattr(modules[module_name], attr)
    return modules


def test_probe_reports_a_missing_hook_and_keeps_the_others():
    tracer = probe.Probe(traced=True)
    modules = fake_lidar_cfe("cfe.raycast_scan")
    tracer.install(modules)
    assert tracer.missing == ["cfe.raycast_scan"]
    modules["cfe"].decode_genome()
    modules["cli"].generate_cfes()
    summary = tracer.summary(0, 0.0)
    assert summary["layers"]["cfe.decode_genome"]["calls"] == 1
    assert summary["search_start"] is not None


def test_probe_accepts_either_combine_operator_alone():
    for drop in probe.COMBINE_HOOKS:
        tracer = probe.Probe(traced=True)
        tracer.install(fake_lidar_cfe(drop))
        assert tracer.missing == []
    tracer = probe.Probe(traced=True)
    tracer.install(fake_lidar_cfe(*probe.COMBINE_HOOKS))
    assert tracer.missing == list(probe.COMBINE_HOOKS)


def test_untraced_probe_hooks_only_the_search():
    tracer = probe.Probe(traced=False)
    modules = fake_lidar_cfe()
    tracer.install(modules)
    modules["cfe"].decode_genome()
    assert "cfe.decode_genome" not in tracer.durations
    assert set(tracer.durations) == {"ga.run_ga"}


def test_missing_layer_metrics_read_zero():
    explain = FakeExplain(Path("."), 600)
    explain.stats.update(
        layers={}, main_end=3.0, search_start=1.0, search_end=2.0, objective_rejected=0, missing=["cfe.raycast_scan"]
    )
    metrics = run.layer_metrics(explain, results_bytes=10, mean_hinge=0.0)
    assert metrics["geometry.raycast_scan.calls"] == 0
    assert metrics["trace.missing_hooks"] == 1
