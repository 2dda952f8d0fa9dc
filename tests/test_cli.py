import hashlib
import json
import logging
import math
import re
import sys
import tempfile
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lidar_cfe import (
    ActionBounds,
    Activation,
    CfeQuery,
    Dense,
    GaConfig,
    GoalFeatures,
    LidarCfeError,
    ModelError,
    NetworkPolicy,
    NetworkSpec,
    PolicyModel,
    Scan,
    Scenario,
    external_policy,
    generate_cfes,
    save_weight_file,
    scripted_policy,
)
from lidar_cfe import cli
from lidar_cfe.cfe import _package
from lidar_cfe.cli import EXIT_INPUT, EXIT_MODEL, EXIT_OK, main, verify_results_file

from oracles import FROZEN_NOT_XML_CHAR, frozen_cfe_plot_svg, frozen_ray_directions
from test_cfe import BatchMeanPolicy, NoisyPolicy, swerve_query

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

FAST_GA = [
    "--set", "ga.population=30",
    "--set", "ga.parents_mating=6",
    "--set", "ga.keep_parents=4",
    "--set", "ga.generations=25",
]


def write_empty_room(tmp_path, goal=(2.0, 0.0)):
    path = tmp_path / "room.yaml"
    path.write_text(
        f"name: room\nn_rays: 180\nmax_range: 3.5\norigin: [0.0, 0.0]\ngoal: [{goal[0]}, {goal[1]}]\nobstacles: []\n"
    )
    return path


def write_reverse_query(tmp_path, base_name, n_cfes=3, seed=5):
    path = tmp_path / "query.yaml"
    path.write_text(
        f"base: {base_name}\n"
        "bounds:\n  linear: [-1.0, 0.0]\n  angular: [-0.2, 0.2]\n"
        "combination: min_distance\n"
        f"n_cfes: {n_cfes}\nseed: {seed}\n"
    )
    return path


class TestScanCommand:
    def test_empty_room(self, tmp_path):
        scenario = write_empty_room(tmp_path)
        out = tmp_path / "out"
        assert main(["scan", str(scenario), "-o", str(out)]) == EXIT_OK
        data = json.loads((out / "room.scan.json").read_text())
        assert data["kind"] == "scan"
        assert data["n_rays"] == 180
        assert all(r == 3.5 for r in data["readings"])
        assert data["goal"]["cos"] == 1.0
        assert data["goal"]["sin"] == 0.0
        assert data["goal"]["distance"] == 2.0
        svg = (out / "room.scan.svg").read_text()
        assert svg.startswith("<svg") and svg.count("<circle") >= 180

    def test_four_walls_hit_points_lie_on_walls(self, tmp_path):
        out = tmp_path / "out"
        assert main(["scan", str(SAMPLES / "walled_room.yaml"), "-o", str(out)]) == EXIT_OK
        data = json.loads((out / "walled-room.scan.json").read_text())
        readings = np.array(data["readings"])
        assert np.all(readings < 3.5)  # a closed room returns on every ray
        angles = np.arange(180) * (2 * math.pi / 180)
        xs = readings * np.cos(angles)
        ys = readings * np.sin(angles)
        # Every return sits on one of the four inner wall faces.
        on_wall = (
            np.isclose(np.abs(xs), 1.95, atol=1e-9) & (np.abs(ys) <= 1.95 + 1e-9)
        ) | (np.isclose(np.abs(ys), 1.95, atol=1e-9) & (np.abs(xs) <= 1.95 + 1e-9))
        assert np.all(on_wall)

    def test_goal_inside_obstacle_is_input_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "name: bad\ngoal: [1.0, 0.0]\n"
            "obstacles:\n  - kind: circle\n    center: [1.0, 0.0]\n    radius: 0.3\n"
        )
        assert main(["scan", str(path), "-o", str(tmp_path)]) == EXIT_INPUT

    def test_unparseable_yaml_is_input_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("goal: [1.0, 0.0\nobstacles: {{{\n")
        assert main(["scan", str(path), "-o", str(tmp_path)]) == EXIT_INPUT

    def test_missing_goal_is_input_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("name: nogoal\nobstacles: []\n")
        assert main(["scan", str(path), "-o", str(tmp_path)]) == EXIT_INPUT

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        scenario = write_empty_room(tmp_path)
        out = tmp_path / "envout"
        monkeypatch.setenv("LIDAR_CFE_OUT", str(out))
        assert main(["scan", str(scenario)]) == EXIT_OK
        assert (out / "room.scan.json").exists()


class TestExplainCommand:
    def test_end_to_end(self, tmp_path):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml")
        out = tmp_path / "out"
        code = main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), *FAST_GA])
        assert code == EXIT_OK
        results = json.loads((out / "results.json").read_text())
        assert len(results["results"]) == 3
        assert results["warning"] is None
        searches = [entry["search"] for entry in results["results"]]
        assert sorted(search["seed"] for search in searches) == [5, 6, 7]
        for search in searches:
            assert set(search) == {"seed", "termination", "generations", "evaluations"}
            assert search["termination"] in ("generations", "saturate", "reach_zero")
            assert search["evaluations"] == search["generations"] * 30  # ga.population in FAST_GA
        assert (out / "manifest.json").exists()
        for i in range(3):
            assert (out / f"cfe_{i:03d}.svg").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [5, 6, 7]
        assert manifest["model"]["spec"] == "scripted:goal_seeker"
        assert manifest["version"]
        assert manifest["duration_seconds"] >= 0.0

    def test_results_file_verifies_against_model(self, tmp_path):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml")
        out = tmp_path / "out"
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), *FAST_GA]) == EXIT_OK
        checked = verify_results_file(out / "results.json", scripted_policy("goal_seeker"))
        assert checked == 3

    def test_verify_names_a_missing_results_file(self, tmp_path):
        path = tmp_path / "results.json"
        with pytest.raises(LidarCfeError, match=f"{re.escape(str(path))}: .*No such file"):
            verify_results_file(path, scripted_policy("goal_seeker"))

    def test_verify_scores_every_entry_in_one_batch_and_names_bad_entries(self, tmp_path):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml")
        out = tmp_path / "out"
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), *FAST_GA]) == EXIT_OK
        policy = scripted_policy("goal_seeker")
        batches = []

        class Counting(PolicyModel):
            input_size, output_size = policy.input_size, policy.output_size

            def act_batch(self, states):
                batches.append(len(states))
                return policy.act_batch(states)

        path = out / "results.json"
        assert verify_results_file(path, Counting()) == 3
        assert batches == [3]
        text = path.read_text()
        data = json.loads(text)
        data["results"][1]["achieved_action"][0] += 0.001
        path.write_text(json.dumps(data))
        with pytest.raises(LidarCfeError, match="entry 1 achieved_action differs from its re-packaging"):
            verify_results_file(path, policy)
        data = json.loads(text)
        data["results"][2]["satisfied"] = not data["results"][2]["satisfied"]
        path.write_text(json.dumps(data))
        with pytest.raises(LidarCfeError, match="entry 2 satisfied differs from its re-packaging"):
            verify_results_file(path, policy)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda row: row.__setitem__(5, 0.0), "entry 1 combined_readings differs from its re-packaging"),
            (lambda row: row.__setitem__(5, 99.0), "entry 1 combined_readings differs from its re-packaging"),
            (lambda row: row.pop(), "entry 1 combined_readings differs from its re-packaging"),
        ],
        ids=["zero", "beyond-max-range", "short-row"],
    )
    def test_verify_names_the_entry_with_malformed_readings(self, tmp_path, edit, message):
        path = self.edited_results(tmp_path, lambda data: edit(data["results"][1]["combined_readings"]))
        with pytest.raises(LidarCfeError, match=message):
            verify_results_file(path, scripted_policy("goal_seeker"))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data["goal"].__setitem__("cos", 2.0), "results.json: goal cos/sin must lie on the unit circle"),
            (lambda data: data["bounds"].__setitem__(0, [0.5, -0.5]), "results.json: every lower bound must be <= its upper bound"),
            (lambda data: data["results"][1].pop("achieved_action"), "results.json: entry 1 lacks achieved_action"),
            (lambda data: data.pop("d_g_max"), "results.json: missing field 'd_g_max'"),
            (lambda data: data["results"][1]["genome"].__setitem__(2, "x"), "results.json: entry 1 genome: could not convert string to float: 'x'"),
            (lambda data: data["results"][1]["genome"].pop(), r"results.json: entry 1 genome: must be a list of 30 numbers, 6 per obstacle, got shape \(29,\)"),
            (lambda data: data["results"][1]["genome"].__setitem__(0, 10**400), "results.json: entry 1 genome: int too large to convert to float"),
            (lambda data: data["results"].__setitem__(1, 5), "results.json: entry 1 must be a mapping, got int"),
            (lambda data: data["results"].__setitem__(1, ["genome", "search"]), "results.json: entry 1 must be a mapping, got list"),
            (lambda data: data.__setitem__("results", {"a": 1}), "results.json: results must be a list of entries, got dict"),
        ],
        ids=[
            "goal-off-unit-circle", "crossed-bounds", "no-achieved-action", "no-d_g_max", "string-gene", "short-genome", "huge-gene",
            "entry-a-number", "entry-a-list", "results-a-mapping",
        ],
    )
    def test_verify_names_the_file_or_entry_with_malformed_fields(self, tmp_path, edit, message):
        path = self.edited_results(tmp_path, edit)
        with pytest.raises(LidarCfeError, match=message):
            verify_results_file(path, scripted_policy("goal_seeker"))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data["results"][1].__setitem__("hinge", 0.25), "entry 1 hinge differs"),
            (lambda data: data["results"][1].__setitem__("fitness", -0.25), "entry 1 fitness differs"),
            (lambda data: data["results"][1].__setitem__("proximity", 0.25), "entry 1 proximity differs"),
            (lambda data: data["results"][1]["obstacles"][0]["center"].__setitem__(0, 9.0), "entry 1 obstacles differs"),
            (lambda data: data["results"][1]["obstacles"][0].__setitem__("colour", "red"), "entry 1 obstacles differs"),
            (lambda data: data["results"][1]["genome"].__setitem__(1, 0.5), r"entry 1 \w+ differs"),
            (lambda data: data["results"][1].__setitem__("index", 0), "entry 1 index differs"),
            (lambda data: data["results"][1].__setitem__("note", 1), "entry 1 note differs"),
            (lambda data: data["results"][1].pop("genome"), "entry 1 lacks genome"),
            (lambda data: data["results"].pop(), "2 entries for n_cfes 3"),
            (lambda data: data["base_readings"].__setitem__(0, 3.0), r"entry 0 \w+ differs"),
            (lambda data: data.__setitem__("warning", "no satisfied counterfactuals"), "header field warning differs"),
            (lambda data: data.__setitem__("n_rays", 179), "header field n_rays differs"),
        ],
        ids=[
            "hinge", "fitness", "proximity", "obstacle-center", "obstacle-extra-key", "genome",
            "index", "extra-entry-field", "no-genome", "dropped-entry", "base-reading", "warning", "n-rays",
        ],
    )
    def test_verify_names_the_header_field_or_entry_field_that_differs(self, tmp_path, edit, message):
        path = self.edited_results(tmp_path, edit)
        with pytest.raises(LidarCfeError, match=message):
            verify_results_file(path, scripted_policy("goal_seeker"))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data["results"][1]["search"].__setitem__("seed", "x"), "entry 1 search: seed must be an integer, got 'x'"),
            (
                lambda data: data["results"][1]["search"].__setitem__("termination", "nope"),
                "entry 1 search: termination must be 'generations', 'saturate' or 'reach_zero', got 'nope'",
            ),
            (lambda data: data["results"][1]["search"].__setitem__("generations", -1), "entry 1 search: generations must be >= 1, got -1"),
            (lambda data: data["results"][1]["search"].__setitem__("generations", 31), "entry 1 search: evaluations must be >= 31, got 30"),
            (lambda data: data["results"][1]["search"].__setitem__("evaluations", None), "entry 1 search: missing field 'evaluations'"),
            (lambda data: data["results"][1]["search"].__setitem__("seed", -1), "entry 1 search: seed must be >= 0, got -1"),
            (lambda data: data["results"][1]["search"].__setitem__("colour", 1), "entry 1 search: unknown fields ['colour']"),
            (lambda data: data["results"][1].__setitem__("search", [6]), "entry 1 search: expected a mapping of SearchFacts fields"),
            (lambda data: data["results"][1]["search"].pop("seed"), "entry 1 search: missing field 'seed'"),
            (lambda data: data.__setitem__("seed", 2**70), "entry 0 search seed 5 is not one of header seed 1180591620717411303424"),
            (lambda data: data.__setitem__("seed", 6), "entry 0 search seed 5 is not one of header seed 6"),
            (lambda data: data["results"][2]["search"].__setitem__("seed", 5), "entry 2 search seed 5 is not one of header seed 5"),
        ],
        ids=[
            "seed-text", "termination-unknown", "generations-negative", "generations-past-evaluations",
            "evaluations-null", "seed-negative", "extra-search-field", "search-not-a-mapping", "search-missing-key",
            "header-seed-2-70", "header-seed-shifted", "seed-twice",
        ],
    )
    def test_verify_names_the_entry_whose_search_block_is_malformed(self, tmp_path, edit, message):
        path = self.edited_results(tmp_path, edit)
        with pytest.raises(LidarCfeError, match=re.escape(message)) as caught:
            verify_results_file(path, scripted_policy("goal_seeker"))
        assert "__init__()" not in str(caught.value)

    def test_verify_takes_the_seeds_in_any_order_but_the_entries_best_first(self, tmp_path):
        def swap_first_two(data):
            first, second = data["results"][:2]
            data["results"][:2] = [{**second, "index": 0}, {**first, "index": 1}]

        path = self.edited_results(tmp_path, swap_first_two)  # equal fitness: any order of seeds verifies
        assert [entry["fitness"] for entry in json.loads(path.read_text())["results"]] == [-0.0] * 3
        assert verify_results_file(path, scripted_policy("goal_seeker")) == 3
        out = tmp_path / "weighted"
        query = write_reverse_query(tmp_path, "room.yaml")
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), "--set", "lambda_p=1.0", *FAST_GA]) == EXIT_OK
        path = out / "results.json"
        data = json.loads(path.read_text())
        assert data["results"][0]["fitness"] > data["results"][1]["fitness"]
        swap_first_two(data)
        path.write_text(json.dumps(data))
        with pytest.raises(LidarCfeError, match=r"entry 1 fitness \S+ is above entry 0's: entries must run best first"):
            verify_results_file(path, scripted_policy("goal_seeker"))

    def test_verify_of_zero_results_checks_the_header(self, tmp_path):
        write_empty_room(tmp_path)
        out = tmp_path / "out"
        query = write_reverse_query(tmp_path, "room.yaml", n_cfes=0)
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out)]) == EXIT_OK
        path = out / "results.json"
        assert verify_results_file(path, scripted_policy("goal_seeker")) == 0
        path.write_text(path.read_text().replace('"n_rays": 180', '"n_rays": 179'))
        with pytest.raises(LidarCfeError, match="header field n_rays differs"):
            verify_results_file(path, scripted_policy("goal_seeker"))

    @staticmethod
    def edited_results(tmp_path, edit):
        """A fresh results.json of three entries, after ``edit`` has changed its parsed content."""
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml")
        out = tmp_path / "out"
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), *FAST_GA]) == EXIT_OK
        path = out / "results.json"
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        return path

    def test_reruns_are_byte_identical(self, tmp_path):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), *FAST_GA]) == EXIT_OK
        assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
        assert (out1 / "cfe_000.svg").read_bytes() == (out2 / "cfe_000.svg").read_bytes()

    def test_scan_file_as_base(self, tmp_path):
        scenario = write_empty_room(tmp_path)
        out = tmp_path / "out"
        assert main(["scan", str(scenario), "-o", str(out)]) == EXIT_OK
        query = tmp_path / "query.yaml"
        query.write_text(
            f"base: {out / 'room.scan.json'}\n"
            "bounds: [[-1.0, 0.0], [-0.2, 0.2]]\n"
            "n_cfes: 2\nseed: 1\n"
        )
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), *FAST_GA]) == EXIT_OK
        results = json.loads((out / "results.json").read_text())
        assert len(results["results"]) == 2
        query.write_text(query.read_text().replace(str(out / "room.scan.json"), str(scenario)))
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(tmp_path / "scene"), *FAST_GA]) == EXIT_OK
        assert (tmp_path / "scene" / "results.json").read_bytes() == (out / "results.json").read_bytes()

    def test_seed_flag_overrides_query(self, tmp_path):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml", n_cfes=2, seed=5)
        out = tmp_path / "out"
        code = main(
            ["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), "--seed", "99", *FAST_GA]
        )
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [99, 100]

    def test_set_overrides(self, tmp_path):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml", n_cfes=4)
        out = tmp_path / "out"
        code = main(
            ["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), "--set", "n_cfes=1", *FAST_GA]
        )
        assert code == EXIT_OK
        results = json.loads((out / "results.json").read_text())
        assert len(results["results"]) == 1

    def test_set_writes_into_a_null_mapping(self, tmp_path):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml", n_cfes=1)
        query.write_text(query.read_text() + "ga:\n")  # a key with no value loads as null
        out = tmp_path / "out"
        code = main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), "--set", "ga.generations=2"])
        assert code == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["ga"]["generations"] == 2

    @pytest.mark.parametrize(
        "override",
        [
            "bounds=[[a,1],[0,1]]",
            "size_limits=[x,1]",
            "world_bounds=.inf",
            "n_obstacles=2.5",
            "n_cfes=true",
            "lambda_y=.nan",
            "lambda_y=true",
            "bounds=[[true,1],[-1,1]]",
            "seed=-1",
            "ga.reach_zero=maybe",
            "ga.generations=2.5",
            "ga.crossover=single_point",
            "n_obstacles=181",
            "n_obstacles=100000000",
            "lambda_p=1e",
            pytest.param(f"size_limits=[0.1, {10**400}]", id="size_limits=[0.1, 10**400]"),
            pytest.param(f"bounds=[[0, {10**400}], [0, 1]]", id="bounds=[[0, 10**400], [0, 1]]"),
            "ga.mutation_fraction=true",
            "n_cfes=9223372036854775808",
        ],
    )
    def test_malformed_query_value_is_input_error(self, tmp_path, capsys, override):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml")
        args = ["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(tmp_path), "--no-plots"]
        assert main([*args, *FAST_GA, "--set", override]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {query}: " in err and override.split("=")[0].split(".")[-1] in err  # names the file and the field

    @pytest.mark.parametrize("text, value", [("1e-3", 0.001), ("1E+2", 100.0)])
    def test_exponent_floats_are_numbers(self, tmp_path, text, value):
        # YAML 1.1 reads an exponent without a dot as text; queries read it as YAML 1.2 does.
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml", n_cfes=1)
        args = ["explain", str(query), "--model", "scripted:goal_seeker", "--no-plots", *FAST_GA]
        assert main([*args, "-o", str(tmp_path / "set"), "--set", f"lambda_p={text}"]) == EXIT_OK
        query.write_text(query.read_text() + f"lambda_p: {text}\n")
        assert main([*args, "-o", str(tmp_path / "file")]) == EXIT_OK
        for out in ("set", "file"):
            assert json.loads((tmp_path / out / "results.json").read_text())["lambda_p"] == value

    def test_ga_rng_seed_is_input_error_naming_seed(self, tmp_path, capsys):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml")
        args = ["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(tmp_path)]
        assert main([*args, "--set", "ga.rng_seed=1"]) == EXIT_INPUT
        assert f"{query}: ga: unknown fields ['rng_seed']" in capsys.readouterr().err
        assert main([*args, "--set", "ga.crossover=two_point"]) == EXIT_INPUT
        assert f"{query}: ga: unknown fields ['crossover']" in capsys.readouterr().err

    def test_workers_flag_is_gone(self, tmp_path):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml")
        with pytest.raises(SystemExit) as exc:
            main(["explain", str(query), "--model", "scripted:goal_seeker", "--workers", "2"])
        assert exc.value.code == EXIT_INPUT

    def test_every_genome_rejected_still_packages(self, tmp_path):
        # A sensor disk wider than the decode square rejects every genome, so
        # each result packages a genome whose fitness is -inf.
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml", n_cfes=2)
        out = tmp_path / "out"
        args = ["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), "--no-plots"]
        assert main([*args, *FAST_GA, "--set", "d_min=5.0", "--set", "ga.generations=3"]) == EXIT_OK
        entries = json.loads((out / "results.json").read_text())["results"]
        assert len(entries) == 2
        for entry in entries:
            assert entry["fitness"] == "-inf"
            assert math.isfinite(entry["hinge"]) and math.isfinite(entry["proximity"])
            assert entry["satisfied"] == (entry["hinge"] == 0.0)
        assert verify_results_file(out / "results.json", scripted_policy("goal_seeker")) == 2

    def test_unknown_query_field_is_input_error(self, tmp_path):
        write_empty_room(tmp_path)
        query = tmp_path / "query.yaml"
        query.write_text("base: room.yaml\nbounds: [[-1, 0], [-0.2, 0.2]]\nturbo: true\n")
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(tmp_path)]) == EXIT_INPUT

    @pytest.mark.parametrize("key, value", [("rng_seed", 3), ("base_scan", "room.yaml"), ("goal", [1.0, 0.0])])
    def test_field_names_that_are_not_query_keys_are_unknown(self, tmp_path, capsys, key, value):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml")
        query.write_text(query.read_text() + yaml.safe_dump({key: value}))
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(tmp_path)]) == EXIT_INPUT
        assert f"unknown fields ['{key}']" in capsys.readouterr().err

    def test_every_query_key_is_written_back_under_its_name(self, tmp_path):
        # One value off the default for each settable CfeQuery field; the
        # base_scan and goal come from "base".
        values = {
            "bounds": [[-1.0, 0.0], [-0.25, 0.25]],
            "combination": "gen_priority",
            "lambda_y": 2.0,
            "lambda_p": 0.5,
            "n_obstacles": 2,
            "d_min": 0.3,
            "world_bounds": 3.0,
            "size_limits": [0.1, 0.5],
            "d_g_max": 9.0,
            "n_cfes": 1,
            "seed": 11,
        }
        assert set(values) == {f.name for f in fields(CfeQuery)} - {"base_scan", "goal"}
        write_empty_room(tmp_path)
        query = tmp_path / "query.yaml"
        query.write_text(yaml.safe_dump({"base": "room.yaml", **values}))
        out = tmp_path / "out"
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), "--no-plots", *FAST_GA]) == EXIT_OK
        header = json.loads((out / "results.json").read_text())
        assert {key: header[key] for key in values} == values

    def test_missing_base_is_input_error(self, tmp_path):
        query = tmp_path / "query.yaml"
        query.write_text("base: nowhere.yaml\nbounds: [[-1, 0], [-0.2, 0.2]]\n")
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(tmp_path)]) == EXIT_INPUT

    def test_unknown_model_is_model_error(self, tmp_path):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml")
        assert main(["explain", str(query), "--model", "scripted:bogus", "-o", str(tmp_path)]) == EXIT_MODEL

    def test_external_model_end_to_end(self, tmp_path):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml", n_cfes=1)
        script = tmp_path / "policy.py"
        script.write_text(
            "import sys\n"
            'print("HELLO 183 2", flush=True)\n'
            "for line in sys.stdin:\n"
            '    print("-0.5 0.0", flush=True)\n'
        )
        out = tmp_path / "out"
        code = main(
            [
                "explain", str(query),
                "--model", f"exec:{sys.executable} {script}",
                "-o", str(out),
                "--set", "ga.generations=2", "--set", "ga.population=10",
                "--set", "ga.parents_mating=4", "--set", "ga.keep_parents=2",
            ]
        )
        assert code == EXIT_OK
        results = json.loads((out / "results.json").read_text())
        assert results["results"][0]["achieved_action"] == [-0.5, 0.0]
        assert results["results"][0]["satisfied"] is True

    def test_handshake_mismatch_is_model_error(self, tmp_path):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml", n_cfes=1)
        script = tmp_path / "policy.py"
        script.write_text('print("HELLO 7 2", flush=True)\n')
        code = main(["explain", str(query), "--model", f"exec:{sys.executable} {script}", "-o", str(tmp_path)])
        assert code == EXIT_MODEL

    def test_no_satisfied_sets_warning_but_exits_zero(self, tmp_path, capsys, caplog):
        write_empty_room(tmp_path)
        query = tmp_path / "query.yaml"
        # The goal-seeker never emits linear in [0.98, 1.0]: unattainable bounds.
        query.write_text(
            "base: room.yaml\nbounds: [[0.98, 1.0], [-1.0, 1.0]]\nn_cfes: 2\nseed: 3\n"
            "ga: {generations: 3, population: 20, parents_mating: 4, keep_parents: 2}\n"
        )
        out = tmp_path / "out"
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out)]) == EXIT_OK
        assert [(r.levelname, r.getMessage()) for r in caplog.records if r.levelno >= logging.WARNING] == [
            ("WARNING", "no generated counterfactual landed inside the requested action bounds")
        ]
        assert "warning:" not in capsys.readouterr().out
        results = json.loads((out / "results.json").read_text())
        assert results["warning"] == "no satisfied counterfactuals"
        assert all(not entry["satisfied"] for entry in results["results"])


class TestValidateModelCommand:
    def test_scripted_ok(self, capsys):
        assert main(["validate-model", "--model", "scripted:goal_seeker"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ok" in out
        assert "outputs: 2" in out

    def test_weight_file_ok(self, tmp_path, capsys):
        import numpy as np

        from lidar_cfe import Activation, Dense, NetworkSpec, save_weight_file

        spec = NetworkSpec(180, 3, (Dense(183, 2), Activation("tanh")))
        weights = [(np.zeros((2, 183)), np.zeros(2)), None]
        path = tmp_path / "net.txt"
        save_weight_file(path, spec, weights)
        assert main(["validate-model", "--model", f"weights:{path}"]) == EXIT_OK
        assert "probe action" in capsys.readouterr().out

    def test_truncated_weight_file_names_layer(self, tmp_path, capsys):
        path = tmp_path / "net.txt"
        path.write_text(
            "format: 1\nlidar: 180\nextra: 3\n"
            "layer: dense in=183 out=2\nweights: 1.0 2.0\nbias: 0.0 0.0\nlayer: activation tanh\n"
        )
        assert main(["validate-model", "--model", f"weights:{path}"]) == EXIT_MODEL
        err = capsys.readouterr().err
        assert "layer 0 (dense)" in err

    def test_bridge_wrong_hello_arity(self, tmp_path):
        script = tmp_path / "policy.py"
        script.write_text('print("HELLO 9 2", flush=True)\n')
        assert main(["validate-model", "--model", f"exec:{sys.executable} {script}"]) == EXIT_MODEL

    def test_shape_mismatch_against_flags(self, tmp_path):
        import numpy as np

        from lidar_cfe import Activation, Dense, NetworkSpec, save_weight_file

        spec = NetworkSpec(16, 3, (Dense(19, 2), Activation("tanh")))
        weights = [(np.zeros((2, 19)), np.zeros(2)), None]
        path = tmp_path / "net.txt"
        save_weight_file(path, spec, weights)
        # Model is 19->2 but the default probe expects 183->2.
        assert main(["validate-model", "--model", f"weights:{path}"]) == EXIT_MODEL
        assert main(["validate-model", "--model", f"weights:{path}", "--n-rays", "16"]) == EXIT_OK


def write_nan_net(tmp_path):
    path = tmp_path / "nan.txt"
    weights = " ".join(["0.0"] * 365 + ["nan"])
    path.write_text(f"format: 1\nlidar: 180\nextra: 3\nlayer: dense in=183 out=2\nweights: {weights}\nbias: 0 0\nlayer: activation tanh\n")
    return path


def write_overflowing_net(tmp_path):
    """A 183->2->2 net, tanh head, whose first layer overflows to +inf and -inf on the probe state."""
    from lidar_cfe import Activation, Dense, NetworkSpec, save_weight_file

    first = np.zeros((2, 183))
    first[0, :2], first[1, :2] = 1e308, -1e308
    path = tmp_path / "overflow.txt"
    spec = NetworkSpec(180, 3, (Dense(183, 2), Dense(2, 2), Activation("tanh")))
    save_weight_file(path, spec, [(first, np.zeros(2)), (np.ones((2, 2)), np.zeros(2)), None])
    return path


CIRCLE_AHEAD = {"kind": "circle", "center": [2.0, 1.0], "radius": 0.5}


def scan_of_scenario(tmp_path, **keys):
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump({"goal": [1.0, 0.0], **keys}))
    return ["scan", str(path)]


def explain_on_scenario(tmp_path, **keys):
    scan_of_scenario(tmp_path, **keys)
    return ["explain", str(write_reverse_query(tmp_path, "scene.yaml")), "--model", "scripted:goal_seeker"]


def explain_with_scan_base(tmp_path, drop=(), **keys):
    """An explain on a fresh scan of the empty room, with ``keys`` set and the keys in ``drop`` taken out."""
    write_empty_room(tmp_path)
    assert main(["scan", str(tmp_path / "room.yaml"), "-o", str(tmp_path)]) == EXIT_OK
    scan_path = tmp_path / "room.scan.json"
    data = {**json.loads(scan_path.read_text()), **keys}
    scan_path.write_text(json.dumps({key: value for key, value in data.items() if key not in drop}))
    return ["explain", str(write_reverse_query(tmp_path, scan_path.name)), "--model", "scripted:goal_seeker"]


def file_in_the_way(tmp_path):
    path = tmp_path / "not_a_dir"
    path.write_text("file in the way")
    return str(path)


def explain_reverse(tmp_path, *args):
    write_empty_room(tmp_path)
    return ["explain", str(write_reverse_query(tmp_path, "room.yaml")), *args]


LATIN_1_COMMENT = "# café\n".encode("latin-1")  # 0xe9 is not UTF-8


def with_bytes_appended(command, extra: bytes):
    """``command`` after appending ``extra`` to the scenario or query file it reads first."""
    path = Path(command[1])
    path.write_bytes(path.read_bytes() + extra)
    return command


def explain_with_scan_text(tmp_path, edit):
    """An explain on a fresh scan of the empty room whose JSON text ``edit`` rewrote."""
    command = explain_with_scan_base(tmp_path)
    path = tmp_path / "room.scan.json"
    path.write_text(edit(path.read_text()))
    return command


def validate_tiny_net(tmp_path, text: bytes):
    path = tmp_path / "net.txt"
    path.write_bytes(text)
    return ["validate-model", "--model", f"weights:{path}", "--n-rays", "8"]


@pytest.mark.parametrize(
    "command, code, message",
    [
        (lambda tmp: scan_of_scenario(tmp, max_range=math.inf), EXIT_INPUT, "max_range must be positive and finite"),
        (lambda tmp: explain_with_scan_base(tmp, d_g_max="x"), EXIT_INPUT, "room.scan.json"),
        # Sizes of 10**15 or more are refused by numpy before anything is allocated.
        (lambda tmp: scan_of_scenario(tmp, n_rays=10**15), EXIT_INPUT, "more memory than is available"),
        (
            lambda tmp: explain_reverse(tmp, "--model", "scripted:goal_seeker", "--set", f"ga.population={10**15}"),
            EXIT_INPUT,
            "more memory than is available",
        ),
        (lambda tmp: ["validate-model", "--model", f"weights:{write_nan_net(tmp)}"], EXIT_MODEL, "layer 0 (dense)"),
        (lambda tmp: explain_reverse(tmp, "--model", f"weights:{write_nan_net(tmp)}"), EXIT_MODEL, "must be finite"),
        (
            lambda tmp: ["validate-model", "--model", f"weights:{write_overflowing_net(tmp)}"],
            EXIT_MODEL,
            "action values must be finite",
        ),
        (lambda tmp: explain_on_scenario(tmp, max_range=1.0e308), EXIT_INPUT, "query.yaml: goal-distance scale must be finite: 2*sqrt(2)*max_range overflows for max_range 1e+308"),
        (lambda tmp: explain_with_scan_base(tmp, d_g_max=True), EXIT_INPUT, "room.scan.json: unknown fields ['d_g_max']"),
        (
            lambda tmp: explain_with_scan_base(tmp, goal={"cos": math.nan, "sin": 0.0, "distance": 2.0}),
            EXIT_INPUT,
            "room.scan.json: goal cos must be finite, got nan",
        ),
        (
            lambda tmp: explain_with_scan_base(tmp, goal={"cos": 1.0, "sin": False, "distance": 2.0}),
            EXIT_INPUT,
            "room.scan.json: goal sin must be a number, got False",
        ),
        (lambda tmp: scan_of_scenario(tmp, max_rang=5.0), EXIT_INPUT, "unknown fields ['max_rang']"),
        (
            lambda tmp: scan_of_scenario(tmp, obstacles=[{**CIRCLE_AHEAD, "colour": "red"}]),
            EXIT_INPUT,
            "obstacles[0]: unknown fields ['colour'] for a circle",
        ),
        (
            lambda tmp: scan_of_scenario(tmp, obstacles=[{**CIRCLE_AHEAD, "half_extents": [0.1, 0.1]}]),
            EXIT_INPUT,
            "obstacles[0]: unknown fields ['half_extents'] for a circle",
        ),
        (
            lambda tmp: ["scan", str(SAMPLES / "empty_room.yaml"), "--name", "a/b"],
            EXIT_INPUT,
            "--name: name must be a file name stem",
        ),
        *(
            (
                lambda tmp, value=value: ["validate-model", "--model", f"exec:{sys.executable} -c pass", "--timeout", value],
                EXIT_INPUT,
                f"timeout must be positive and finite, got {value!r}",
            )
            for value in ("nan", "-1", "0", "inf")
        ),
        (lambda tmp: [*scan_of_scenario(tmp), "-o", file_in_the_way(tmp)], EXIT_INPUT, "cannot create output directory"),
        (
            lambda tmp: explain_reverse(tmp, "--model", "scripted:goal_seeker", "-o", file_in_the_way(tmp)),
            EXIT_INPUT,
            "cannot create output directory",
        ),
        *(
            (
                lambda tmp, flag=flag, value=value: ["validate-model", "--model", "scripted:goal_seeker", flag, value],
                EXIT_INPUT,
                f"argument {flag}: must be at least 1, got {value!r}",
            )
            for flag, value in (("--n-rays", "0"), ("--n-rays", "-4"), ("--outputs", "0"))
        ),
        (lambda tmp: ["scan", str(SAMPLES / "empty_room.yaml"), "--name", ""], EXIT_INPUT, "--name: name must be a file name stem"),
        (lambda tmp: explain_with_scan_base(tmp, max_range=1.0e308), EXIT_INPUT, "query.yaml: goal-distance scale must be finite: 2*sqrt(2)*max_range overflows for max_range 1e+308"),
        # Sizes of 2**62 are past numpy's array limit, which it refuses with a ValueError, not a MemoryError.
        (
            lambda tmp: explain_reverse(tmp, "--model", "scripted:goal_seeker", "--set", f"n_cfes={2**62}"),
            EXIT_INPUT,
            "more memory than is available",
        ),
        (
            lambda tmp: explain_reverse(
                tmp, "--model", "scripted:goal_seeker", "--set", f"ga.population={2**62}",
                "--set", "ga.parents_mating=1", "--set", "ga.keep_parents=0", "--set", "ga.tournament_size=1",
            ),
            EXIT_INPUT,
            "more memory than is available",
        ),
        (lambda tmp: scan_of_scenario(tmp, d_g_max=9.0), EXIT_INPUT, "scene.yaml: unknown fields ['d_g_max']"),
        (lambda tmp: explain_with_scan_base(tmp, format=2), EXIT_INPUT, "room.scan.json: format must be 1 and name a string, got 2"),
        (lambda tmp: explain_with_scan_base(tmp, format=True), EXIT_INPUT, "room.scan.json: format must be 1 and name a string, got True"),
        (lambda tmp: explain_with_scan_base(tmp, name=7), EXIT_INPUT, "room.scan.json: format must be 1 and name a string, got 1 and 7"),
        (lambda tmp: explain_with_scan_base(tmp, n_rays=7), EXIT_INPUT, "room.scan.json: n_rays 7 does not match the 180 readings"),
        (lambda tmp: explain_with_scan_base(tmp, n_rays=180.0), EXIT_INPUT, "room.scan.json: n_rays must be an integer, got 180.0"),
        (lambda tmp: explain_with_scan_base(tmp, colour="red"), EXIT_INPUT, "room.scan.json: unknown fields ['colour']"),
        (lambda tmp: explain_with_scan_base(tmp, drop=["goal"]), EXIT_INPUT, "room.scan.json: missing field 'goal'"),
        (lambda tmp: explain_with_scan_base(tmp, max_range="3.5"), EXIT_INPUT, "room.scan.json: max_range must be a number, got '3.5'"),
        (
            lambda tmp: explain_with_scan_base(tmp, max_range=True, readings=[1.0] * 180),
            EXIT_INPUT,
            "room.scan.json: max_range must be a number, got True",
        ),
        (lambda tmp: explain_with_scan_base(tmp, readings=["3.5"] * 180), EXIT_INPUT, "room.scan.json: readings must be real numbers"),
        (lambda tmp: explain_with_scan_base(tmp, readings=[True] * 180), EXIT_INPUT, "room.scan.json: readings must be real numbers"),
        (lambda tmp: scan_of_scenario(tmp, goal=[10**400, 0.0]), EXIT_INPUT, "scene.yaml: goal: point x is too large for a float"),
        (
            lambda tmp: scan_of_scenario(tmp, obstacles=[{**CIRCLE_AHEAD, "center": [2.0, 10**400]}]),
            EXIT_INPUT,
            "scene.yaml: obstacles[0]: center: point y is too large for a float",
        ),
        (
            lambda tmp: scan_of_scenario(tmp, obstacles=[{**CIRCLE_AHEAD, "radius": 10**400}]),
            EXIT_INPUT,
            "scene.yaml: obstacles[0]: radius is too large for a float",
        ),
        (
            lambda tmp: scan_of_scenario(tmp, obstacles=[{"kind": "rectangle", "center": [-2.0, 0.0], "half_extents": [0.1, 1.0], "orientation": 10**400}]),
            EXIT_INPUT,
            "scene.yaml: obstacles[0]: orientation is too large for a float",
        ),
        (lambda tmp: with_bytes_appended(scan_of_scenario(tmp), LATIN_1_COMMENT), EXIT_INPUT, "scene.yaml: 'utf-8' codec can't decode byte 0xe9"),
        (
            lambda tmp: with_bytes_appended(explain_reverse(tmp, "--model", "scripted:goal_seeker"), LATIN_1_COMMENT),
            EXIT_INPUT,
            "query.yaml: 'utf-8' codec can't decode byte 0xe9",
        ),
        (lambda tmp: validate_tiny_net(tmp, TINY_NET.encode() + LATIN_1_COMMENT), EXIT_MODEL, "net.txt: 'utf-8' codec can't decode byte 0xe9"),
        (lambda tmp: with_bytes_appended(scan_of_scenario(tmp), b"goal: [2.0, 0.0]\n"), EXIT_INPUT, "found repeated key 'goal'"),
        (
            lambda tmp: with_bytes_appended(explain_reverse(tmp, "--model", "scripted:goal_seeker"), b"n_cfes: 1\n"),
            EXIT_INPUT,
            "found repeated key 'n_cfes'",
        ),
        (
            lambda tmp: explain_with_scan_text(tmp, lambda text: text.rstrip()[:-1] + ', "max_range": 9.0}'),
            EXIT_INPUT,
            "room.scan.json: repeated key 'max_range'",
        ),
        (lambda tmp: validate_tiny_net(tmp, TINY_NET.replace("lidar: 8", "lidar: 4\nlidar: 8").encode()), EXIT_MODEL, "net.txt: repeated 'lidar' line"),
        # A --set value that is not YAML is refused, naming the flag in the message and in its marks.
        (
            lambda tmp: explain_reverse(tmp, "--model", "scripted:goal_seeker", "--set", "bounds={a: 1, a: 2}"),
            EXIT_INPUT,
            "found repeated key 'a'\n  in \"--set bounds\"",
        ),
        (
            lambda tmp: explain_reverse(tmp, "--model", "scripted:goal_seeker", "--set", "bounds=[[-1, 0], [-0.2, 0.2]"),
            EXIT_INPUT,
            "--set bounds: while parsing a flow sequence\n  in \"--set bounds\"",
        ),
        # A YAML error in a file names the file in its marks.
        (
            lambda tmp: with_bytes_appended(explain_reverse(tmp, "--model", "scripted:goal_seeker"), b"base: room.yaml\n"),
            EXIT_INPUT,
            "query.yaml\", line 8, column 1",  # the mark of the repeated key
        ),
        (
            lambda tmp: scan_of_scenario(tmp, obstacles=[{"kind": "triangle", "center": [2.0, 1.0]}]),
            EXIT_INPUT,
            "scene.yaml: obstacles[0]: unknown obstacle kind 'triangle'",
        ),
        (
            lambda tmp: explain_reverse(tmp, "--model", "scripted:goal_seeker", "--set", "bounds={linear: [-1, 0], turn: [-0.2, 0.2]}"),
            EXIT_INPUT,
            "query.yaml: bounds mapping must have exactly the keys linear and angular",
        ),
        (lambda tmp: explain_reverse(tmp, "--model", "scripted:goal_seeker", "--set", "n_cfes"), EXIT_INPUT, "argument --set: expected KEY=VALUE, got 'n_cfes'"),
        # An exec: command that names no program, or that shlex cannot split, is the model's fault.
        (lambda tmp: ["validate-model", "--model", "exec:"], EXIT_MODEL, "model error: policy command '' names no program"),
        (lambda tmp: ["validate-model", "--model", "exec:   "], EXIT_MODEL, "model error: policy command '   ' names no program"),
        (
            lambda tmp: ["validate-model", "--model", "exec:'unclosed"],
            EXIT_MODEL,
            "model error: cannot parse policy command \"'unclosed\": No closing quotation",
        ),
    ],
    ids=[
        "scenario-max-range-inf",
        "scan-d-g-max-text",
        "scenario-n-rays-1e15",
        "ga-population-1e15",
        "validate-nan-weight",
        "explain-nan-weight",
        "validate-overflowing-net",
        "scenario-max-range-1e308",
        "scan-d-g-max-bool",
        "scan-goal-cos-nan",
        "scan-goal-sin-bool",
        "scenario-unknown-key",
        "circle-unknown-key",
        "circle-with-half-extents",
        "scan-name-with-slash",
        "validate-timeout-nan",
        "validate-timeout-negative",
        "validate-timeout-zero",
        "validate-timeout-inf",
        "scan-out-is-a-file",
        "explain-out-is-a-file",
        "validate-n-rays-zero",
        "validate-n-rays-negative",
        "validate-outputs-zero",
        "scan-name-empty",
        "scan-base-scale-overflows",
        "n-cfes-past-array-limit",
        "ga-population-past-array-limit",
        "scenario-d-g-max",
        "scan-format-2",
        "scan-format-bool",
        "scan-name-number",
        "scan-n-rays-7",
        "scan-n-rays-float",
        "scan-unknown-key",
        "scan-no-goal",
        "scan-max-range-text",
        "scan-max-range-bool",
        "scan-readings-text",
        "scan-readings-bool",
        "scenario-goal-huge",
        "scenario-center-huge",
        "scenario-radius-huge",
        "scenario-orientation-huge",
        "scenario-latin-1",
        "query-latin-1",
        "weight-file-latin-1",
        "scenario-repeated-key",
        "query-repeated-key",
        "scan-repeated-key",
        "weight-file-repeated-lidar",
        "set-bounds-repeated-key",
        "set-bounds-unclosed",
        "query-repeated-base",
        "scenario-obstacle-kind-unknown",
        "set-bounds-mapping-keys",
        "set-without-equals",
        "exec-empty",
        "exec-blank",
        "exec-unclosed-quote",
    ],
)
def test_malformed_inputs_exit_2_and_faulty_models_exit_3(tmp_path, capsys, monkeypatch, command, code, message):
    monkeypatch.setenv("LIDAR_CFE_OUT", str(tmp_path / "out"))
    try:
        exit_code = main(command(tmp_path))
    except SystemExit as exc:  # argparse refuses a malformed flag value by exiting 2
        exit_code = exc.code
    assert exit_code == code
    err = capsys.readouterr().err
    assert message in err
    assert "<unicode string>" not in err


def scan_of_text(tmp_path, text):
    path = tmp_path / "scene.yaml"
    path.write_text(text)
    return ["scan", str(path)]


def explain_on_query_text(tmp_path, text):
    write_empty_room(tmp_path)
    path = tmp_path / "query.yaml"
    path.write_text(text)
    return ["explain", str(path), "--model", "scripted:goal_seeker"]


GOAL = {"cos": 1.0, "sin": 0.0, "distance": 2.0}
NO_COS = {"sin": 0.0, "distance": 2.0}
INTERNALS = ("__init__()", "argument after **")

# Per reader, a value that is not a mapping, an unknown key, a missing required field and a null
# for a required field, each with the texts the error must name: the file, then the key.
# GaConfig has no required field; its nulls are in the test of defaults below.
READER_CASES = {
    "scenario-not-a-mapping": (lambda tmp: scan_of_text(tmp, "- goal\n"), "scene.yaml: ", "top-level mapping"),
    "scenario-unknown-key": (lambda tmp: scan_of_scenario(tmp, colour="red"), "scene.yaml: ", "['colour']"),
    "scenario-missing-goal": (lambda tmp: scan_of_text(tmp, "n_rays: 90\n"), "scene.yaml: ", "missing field 'goal'"),
    "scenario-null-goal": (lambda tmp: scan_of_scenario(tmp, goal=None), "scene.yaml: ", "missing field 'goal'"),
    "obstacle-not-a-mapping": (lambda tmp: scan_of_scenario(tmp, obstacles=[[2.0, 1.0]]), "scene.yaml: obstacles[0]: ", "mapping"),
    "obstacle-unknown-key": (lambda tmp: scan_of_scenario(tmp, obstacles=[{**CIRCLE_AHEAD, "colour": "red"}]), "scene.yaml: obstacles[0]: ", "['colour']"),
    "obstacle-missing-center": (
        lambda tmp: scan_of_scenario(tmp, obstacles=[{"kind": "circle", "radius": 0.5}]), "scene.yaml: obstacles[0]: ", "missing field 'center'",
    ),
    "obstacle-null-center": (
        lambda tmp: scan_of_scenario(tmp, obstacles=[{**CIRCLE_AHEAD, "center": None}]), "scene.yaml: obstacles[0]: ", "missing field 'center'",
    ),
    "query-not-a-mapping": (lambda tmp: explain_on_query_text(tmp, "- base\n"), "query.yaml: ", "top-level mapping"),
    "query-unknown-key": (lambda tmp: with_bytes_appended(explain_reverse(tmp, "--model", "scripted:goal_seeker"), b"turbo: 1\n"), "query.yaml: ", "['turbo']"),
    "query-missing-bounds": (lambda tmp: explain_on_query_text(tmp, "base: room.yaml\n"), "query.yaml: ", "bounds"),
    "query-null-base": (lambda tmp: explain_reverse(tmp, "--model", "scripted:goal_seeker", "--set", "base=null"), "query.yaml: ", "'base'"),
    "ga-not-a-mapping": (lambda tmp: explain_reverse(tmp, "--model", "scripted:goal_seeker", "--set", "ga=[1, 2]"), "query.yaml: ", "ga"),
    "ga-unknown-key": (lambda tmp: explain_reverse(tmp, "--model", "scripted:goal_seeker", "--set", "ga.colour=red"), "query.yaml: ga: ", "['colour']"),
    "scan-not-a-mapping": (lambda tmp: explain_with_scan_text(tmp, lambda text: "[1, 2]"), "room.scan.json: ", "top-level mapping"),
    "scan-unknown-key": (lambda tmp: explain_with_scan_base(tmp, colour="red"), "room.scan.json: ", "['colour']"),
    "scan-missing-goal": (lambda tmp: explain_with_scan_base(tmp, drop=["goal"]), "room.scan.json: ", "missing field 'goal'"),
    "scan-null-n-rays": (lambda tmp: explain_with_scan_base(tmp, n_rays=None), "room.scan.json: ", "n_rays"),
    "scan-goal-not-a-mapping": (lambda tmp: explain_with_scan_base(tmp, goal=[1.0, 0.0, 2.0]), "room.scan.json: ", "GoalFeatures"),
    "scan-goal-unknown-key": (lambda tmp: explain_with_scan_base(tmp, goal={**GOAL, "colour": "red"}), "room.scan.json: ", "['colour']"),
    "scan-goal-missing-cos": (lambda tmp: explain_with_scan_base(tmp, goal=NO_COS), "room.scan.json: ", "missing field 'cos'"),
    "scan-goal-null-cos": (lambda tmp: explain_with_scan_base(tmp, goal={**GOAL, "cos": None}), "room.scan.json: ", "cos"),
}


@pytest.mark.parametrize("command, file, key", READER_CASES.values(), ids=READER_CASES.keys())
def test_every_reader_names_the_file_and_the_key(tmp_path, capsys, monkeypatch, command, file, key):
    monkeypatch.setenv("LIDAR_CFE_OUT", str(tmp_path / "out"))
    assert main(command(tmp_path)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert file in err and key in err[err.index(file) :]
    assert not any(text in err for text in INTERNALS)


@pytest.mark.parametrize(
    "goal, key",
    [([1.0, 0.0, 2.0], "GoalFeatures"), ({**GOAL, "colour": "red"}, "['colour']"), (NO_COS, "missing field 'cos'"), ({**GOAL, "cos": None}, "cos")],
    ids=["not-a-mapping", "unknown-key", "missing-cos", "null-cos"],
)
def test_the_results_header_goal_names_the_file_and_the_key(tmp_path, reverse_results, goal, key):
    path = tmp_path / "results.json"
    path.write_text(json.dumps({**reverse_results, "goal": goal}))
    with pytest.raises(LidarCfeError) as exc:
        verify_results_file(path, scripted_policy("goal_seeker"))
    assert str(exc.value).startswith(f"{path}: ") and key in str(exc.value)
    assert not any(text in str(exc.value) for text in INTERNALS)


def test_a_null_takes_the_default_of_its_field(tmp_path):
    wall = {"kind": "rectangle", "center": [-2.0, 0.0], "half_extents": [0.1, 1.0]}
    for name, orientation in (("set", {}), ("null", {"orientation": None})):
        scene = {"name": name, "goal": [1.0, 0.0], "n_rays": None if orientation else 180, "obstacles": [{**wall, **orientation}]}
        (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(scene))
        assert main(["scan", str(tmp_path / f"{name}.yaml"), "-o", str(tmp_path)]) == EXIT_OK
    written = [json.loads((tmp_path / f"{name}.scan.json").read_text()) for name in ("set", "null")]
    assert written[0]["readings"] == written[1]["readings"] and written[1]["n_rays"] == 180

    nulls = ["lambda_y=null", "ga.generations=null", "ga.saturate_k=null", "ga.reach_zero=null"]
    command = explain_reverse(tmp_path, "--model", "scripted:goal_seeker", "-o", str(tmp_path / "out"), "--no-plots", "--set", "n_cfes=1")
    assert main([*command, *(arg for setting in nulls for arg in ("--set", setting))]) == EXIT_OK
    assert json.loads((tmp_path / "out" / "results.json").read_text())["lambda_y"] == 1.0
    ga = json.loads((tmp_path / "out" / "manifest.json").read_text())["ga"]
    assert (ga["generations"], ga["saturate_k"], ga["reach_zero"]) == (100, None, True)  # a null saturate_k disables that stop


def test_a_yaml_merge_key_still_loads(tmp_path):
    wall = "{kind: rectangle, center: [0.0, 2.0], half_extents: [2.0, 0.05]}"
    merged = f"name: merged\ngoal: [1.0, 0.0]\nobstacles:\n  - &wall {wall}\n  - <<: *wall\n    center: [0.0, -2.0]\n"
    written = f"name: written\ngoal: [1.0, 0.0]\nobstacles:\n  - {wall}\n  - {wall.replace('0.0, 2.0', '0.0, -2.0')}\n"
    for text in (merged, written):
        assert main(scan_of_text(tmp_path, text) + ["-o", str(tmp_path)]) == EXIT_OK
    readings = [json.loads((tmp_path / f"{name}.scan.json").read_text())["readings"] for name in ("merged", "written")]
    assert readings[0] == readings[1] and min(readings[0]) < 3.5


def test_far_goal_warns_once_per_explain_and_once_per_verify(tmp_path, caplog):
    write_empty_room(tmp_path)  # goal 2 m ahead
    query = write_reverse_query(tmp_path, "room.yaml", n_cfes=2)
    out = tmp_path / "out"
    notice = ("lidar_cfe.cfe", "WARNING", "goal distance 2.0 exceeds d_g_max 1.0; clamping to 1")

    def clamp_records():
        return [(r.name, r.levelname, r.getMessage()) for r in caplog.records if "clamping" in r.getMessage()]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), "--set", "d_g_max=1.0", *FAST_GA]) == EXIT_OK
        assert clamp_records() == [notice]
        caplog.clear()
        assert verify_results_file(out / "results.json", scripted_policy("goal_seeker")) == 2
        assert clamp_records() == [notice]
    assert caught == []


def test_a_query_equals_the_query_its_results_header_rebuilds(tmp_path, monkeypatch):
    # world_bounds and d_g_max are left to their defaults, which the query resolves when it is built.
    query = CfeQuery(Scan.empty(180, 3.5), GoalFeatures(1.0, 0.0, 2.0), ActionBounds.from_pairs([(-1.0, 0.0), (-0.2, 0.2)]), n_cfes=2, seed=5)
    model = scripted_policy("goal_seeker")
    path = tmp_path / "results.json"
    path.write_text(json.dumps(cli._results_payload(query, generate_cfes(query, model, GaConfig(generations=2)))))
    rebuilt = []
    monkeypatch.setattr(cli, "_package", lambda q, *args: rebuilt.append(q) or _package(q, *args))
    assert verify_results_file(path, model) == 2

    def by_value(q):
        values = {f.name: getattr(q, f.name) for f in fields(CfeQuery)}
        values["base_scan"] = (q.base_scan.readings.tolist(), q.base_scan.max_range)
        values["bounds"] = (q.bounds.lower.tolist(), q.bounds.upper.tolist())
        return values

    assert by_value(rebuilt[0]) == by_value(query)
    assert query.world_bounds == 3.5 and query.d_g_max == 2.0 * math.sqrt(2.0) * 3.5


def test_svg_outputs_are_well_formed_xml(tmp_path):
    import xml.etree.ElementTree as ET

    write_empty_room(tmp_path)
    query = write_reverse_query(tmp_path, "room.yaml", n_cfes=1)
    out = tmp_path / "out"
    assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), *FAST_GA]) == EXIT_OK
    assert main(["scan", str(tmp_path / "room.yaml"), "-o", str(out)]) == EXIT_OK
    for svg in out.glob("*.svg"):
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")


def test_svg_label_is_escaped(tmp_path):
    import xml.etree.ElementTree as ET

    scenario = write_empty_room(tmp_path)
    scenario.write_text(scenario.read_text().replace("name: room", "name: a<b&c"))
    assert main(["scan", str(scenario), "-o", str(tmp_path)]) == EXIT_OK
    root = ET.fromstring((tmp_path / "a<b&c.scan.svg").read_text())
    assert root.find("{http://www.w3.org/2000/svg}text").text == "a<b&c"


def test_svg_label_drops_control_characters(tmp_path):
    import xml.etree.ElementTree as ET

    scenario = write_empty_room(tmp_path)
    scenario.write_text(scenario.read_text().replace("name: room", 'name: "a\\x01b"'))
    assert main(["scan", str(scenario), "-o", str(tmp_path)]) == EXIT_OK
    root = ET.fromstring((tmp_path / "a\x01b.scan.svg").read_text())
    assert root.find("{http://www.w3.org/2000/svg}text").text == "ab"


@settings(max_examples=200, deadline=None)
@given(label=st.text(st.characters(min_codepoint=0, max_codepoint=sys.maxunicode, exclude_categories=())))
def test_svg_parses_with_any_label(label):
    import xml.etree.ElementTree as ET

    from lidar_cfe.plot import cfe_plot_svg, scan_plot_svg

    scan = Scan(np.full(8, 3.5), 3.5)
    for svg in (scan_plot_svg(scan, label=label), cfe_plot_svg(scan, scan, [], label=label)):
        text = ET.fromstring(svg).find("{http://www.w3.org/2000/svg}text")
        kept = "".join(c for c in label if c in "\t\n\r" or "\x20" <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000")
        shown = "" if text is None else text.text or ""  # no text element for an empty label
        assert shown == kept.replace("\r\n", "\n").replace("\r", "\n")  # XML reads every line end as \n


def test_counterfactual_plots_draw_their_own_base_scan():
    from lidar_cfe.plot import _COLOR_BASE, _COLOR_COMBINED, cfe_plot_svg, scan_plot_svg

    def points(svg, color):
        return [line for line in svg.splitlines() if f'r="1.7" fill="{color}"' in line]

    near, far = Scan(np.full(180, 1.0), 3.5), Scan(np.linspace(0.5, 3.5, 180), 3.5)
    for base, combined in ((near, far), (far, near), (Scan(near.readings, 3.5), far), (near, near)):
        svg = cfe_plot_svg(base, combined, [])
        want = [line.replace(_COLOR_COMBINED, _COLOR_BASE) for line in points(scan_plot_svg(base), _COLOR_COMBINED)]
        assert points(svg, _COLOR_BASE) == want
        assert points(svg, _COLOR_COMBINED) == points(scan_plot_svg(combined), _COLOR_COMBINED)


def test_plots_draw_the_geometry_headings_with_the_bytes_of_the_former_table(monkeypatch):
    from lidar_cfe import plot
    from lidar_cfe.scenario import load_scenario

    scenes = [load_scenario(SAMPLES / f"{name}.yaml") for name in ("empty_room", "box_ahead", "walled_room")]
    plots = [(None, scene.base_scan(), (), scene.goal_features()) for scene in scenes]
    for name, kind in (("reverse_query", "goal_seeker"), ("turn_right_query", "left_preferrer")):
        query, config, _ = cli._load_query(SAMPLES / f"{name}.yaml", [("n_cfes", "20")])
        plots += [(query.base_scan, r.combined_scan, r.obstacles, query.goal) for r in generate_cfes(query, scripted_policy(kind), config)]

    def render():
        plot._base_points.cache_clear()
        return [
            plot.scan_plot_svg(scan, goal, "scan") if base is None else plot.cfe_plot_svg(base, scan, obstacles, goal, "counterfactual")
            for base, scan, obstacles, goal in plots
        ]

    svgs = render()
    monkeypatch.setattr(plot, "_ray_directions", frozen_ray_directions)
    assert render() == svgs
    plot._base_points.cache_clear()  # no later plot may reuse points drawn from the frozen table


def test_xml_filter_removes_the_code_points_the_negated_class_removed():
    from lidar_cfe.plot import _NOT_XML_CHAR

    every = "".join(map(chr, range(sys.maxunicode + 1)))
    kept = _NOT_XML_CHAR.sub("", every)
    assert kept == FROZEN_NOT_XML_CHAR.sub("", every)
    assert len(every) - len(kept) == 29 + 2048 + 2  # controls, surrogates, U+FFFE and U+FFFF


@dataclass(frozen=True, eq=False)
class UncheckedScan:
    """A scan without ``Scan``'s checks, so that readings of 0.0 and -0.0 reach the plot."""

    readings: np.ndarray
    max_range: float

    @property
    def n(self) -> int:
        return self.readings.size


def plotted_scan(readings, max_range):
    readings = np.array(readings, dtype=float)
    return Scan(readings, max_range) if np.all(readings > 0.0) else UncheckedScan(readings, max_range)


def _reading(max_range):
    return st.one_of(st.just(max_range), st.floats(0.0, max_range, exclude_min=True))


def _ray_pairs(max_range):
    """A base reading and a combined reading of one ray."""
    return st.one_of(
        _reading(max_range).map(lambda r: (r, r)),  # the same bits
        st.tuples(_reading(max_range), _reading(max_range)),  # either one may sit at max_range
        _reading(max_range).map(lambda r: (r, float(np.nextafter(r, 0.0)))),  # the neighbouring double
        st.sampled_from([(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)]),  # equal in value, not always in bits
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data(), max_range=st.floats(0.5, 50.0), n=st.integers(1, 24), wider=st.booleans(), with_goal=st.booleans())
def test_the_overlay_reuses_base_points_byte_for_byte(data, max_range, n, wider, with_goal):
    from lidar_cfe.plot import cfe_plot_svg

    pairs = data.draw(st.lists(_ray_pairs(max_range), min_size=n, max_size=n))
    base = plotted_scan([b for b, _ in pairs], max_range)
    combined = plotted_scan([c for _, c in pairs], 2.0 * max_range if wider else max_range)
    goal = GoalFeatures(0.6, -0.8, max_range / 2) if with_goal else None
    assert cfe_plot_svg(base, combined, [], goal) == frozen_cfe_plot_svg(base, combined, goal)
    assert cfe_plot_svg(base, combined, [], goal, "again") == frozen_cfe_plot_svg(base, combined, goal, "again")  # from the cache


@pytest.mark.parametrize("n_base, n_combined", [(1, 5), (5, 1), (4, 8)])
def test_the_overlay_of_scans_with_different_ray_counts_draws_each_scan(n_base, n_combined):
    from lidar_cfe.plot import cfe_plot_svg

    base, combined = Scan(np.full(n_base, 1.0), 3.5), Scan(np.full(n_combined, 1.0), 3.5)
    assert cfe_plot_svg(base, combined, []) == frozen_cfe_plot_svg(base, combined)


def test_obstacles_far_off_the_canvas_write_no_non_finite_numbers(tmp_path):
    import xml.etree.ElementTree as ET

    out = tmp_path / "out"
    args = ["explain", str(SAMPLES / "reverse_query.yaml"), "--model", "scripted:goal_seeker", "-o", str(out)]
    assert main([*args, "--set", "world_bounds=1e308", "--set", "n_cfes=2", "--set", "ga.generations=3"]) == EXIT_OK
    svgs = sorted(out.glob("cfe_*.svg"))
    assert len(svgs) == 2
    for svg in svgs:
        for element in ET.fromstring(svg.read_text()).iter():
            assert not any("inf" in value or "nan" in value for value in element.attrib.values()), svg.name
    assert verify_results_file(out / "results.json", scripted_policy("goal_seeker")) == 2


def test_samples_ship_and_scan(tmp_path):
    for name in ("empty_room.yaml", "box_ahead.yaml", "walled_room.yaml"):
        assert (SAMPLES / name).exists()
    assert main(["scan", str(SAMPLES / "box_ahead.yaml"), "-o", str(tmp_path)]) == EXIT_OK
    data = json.loads((tmp_path / "box-ahead.scan.json").read_text())
    assert data["readings"][0] == pytest.approx(2.5, abs=1e-9)


# ---------------------------------------------------------------------------
# The exit-code contract under drawn input: 0, 2 or 3, never 4.

NUMBERS = (
    st.integers(-5, 400)
    | st.sampled_from([0.0, -1.0, 0.5, 3.5, math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400])
    | st.floats(-10.0, 10.0)
)
SCALARS = st.none() | st.booleans() | NUMBERS | st.text(max_size=8)
VALUES = SCALARS | st.lists(SCALARS, max_size=3) | st.lists(NUMBERS, min_size=2, max_size=2)
OBSTACLE_KEYS = ["kind", "center", "radius", "half_extents", "orientation", "colour", "raduis"]
SCENARIO_KEYS = [f.name for f in fields(Scenario)] + ["max_rang", "nrays", "origen", "obstacle", "d_g_max"]
VALID_SCENE = {
    "goal": [2.0, 0.0],
    "obstacles": [CIRCLE_AHEAD, {"kind": "rectangle", "center": [-2.0, 0.0], "half_extents": [0.1, 1.0]}],
}


@st.composite
def scenario_mappings(draw):
    """A valid scene with some keys, its obstacles' keys too, replaced by drawn values."""
    obstacle = st.builds(
        lambda base, edits: {**base, **edits},
        st.sampled_from(VALID_SCENE["obstacles"]),
        st.dictionaries(st.sampled_from(OBSTACLE_KEYS), VALUES | st.sampled_from(["circle", "rectangle"]), max_size=2),
    )
    edits = st.dictionaries(st.sampled_from(SCENARIO_KEYS), VALUES | st.lists(obstacle, max_size=3), max_size=3)
    return {**VALID_SCENE, **draw(edits)}


YAML_VALUES = (
    st.sampled_from(["null", "true", "abc", ".nan", ".inf", "-.inf", "1e308", str(10**400)])
    | st.sampled_from(["[]", "[0.1, 0.2]", "[[-1, 0], [0, 1]]", "{}"])
    | st.integers(-5, 400).map(str)
    | st.floats(-10.0, 10.0).map(repr)
)
QUERY_KEYS = [f.name for f in fields(CfeQuery) if f.name not in ("base_scan", "goal", "n_cfes")]
SET_KEYS = QUERY_KEYS + ["base", "lambda", "ga.mutation_fraction", "ga.saturate_k", "ga.reach_zero", "ga.crossover"]
TINY_GA = ["n_cfes=1", "ga.population=6", "ga.parents_mating=2", "ga.keep_parents=1", "ga.tournament_size=2"]  # set last, so they win
EXIT_CODE_PROPERTY = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@EXIT_CODE_PROPERTY
@given(scene=scenario_mappings())
def test_scan_of_any_scenario_exits_0_or_2(scene):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.yaml"
        path.write_text(yaml.safe_dump(scene))
        code = main(["scan", str(path), "-o", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_INPUT)
    if set(scene) - {f.name for f in fields(Scenario)}:  # even with a null value
        assert code == EXIT_INPUT


@EXIT_CODE_PROPERTY
@given(overrides=st.lists(st.tuples(st.sampled_from(SET_KEYS), YAML_VALUES), max_size=3), generations=st.integers(1, 2))
def test_explain_with_any_overrides_exits_0_2_or_3(overrides, generations):
    with tempfile.TemporaryDirectory() as tmp:
        args = explain_reverse(Path(tmp), "--model", "scripted:goal_seeker", "-o", str(Path(tmp) / "out"))
        for setting in [f"{key}={value}" for key, value in overrides] + TINY_GA + [f"ga.generations={generations}"]:
            args += ["--set", setting]
        assert main(args) in (EXIT_OK, EXIT_INPUT, EXIT_MODEL)


SAMPLE_EDITS = st.tuples(st.sampled_from(["box_ahead.yaml", "turn_right_query.yaml"]), st.booleans(), st.integers(0, 10**4), st.integers(0, 255))


@settings(max_examples=200, deadline=None)
@given(edit=SAMPLE_EDITS)
def test_scan_and_explain_of_a_sample_with_any_byte_inserted_or_line_repeated_exit_0_or_2(edit):
    name, repeat_line, pick, byte = edit
    with tempfile.TemporaryDirectory() as tmp:
        for sample in ("box_ahead.yaml", "turn_right_query.yaml"):
            (Path(tmp) / sample).write_bytes((SAMPLES / sample).read_bytes())
        path = Path(tmp) / name
        data = path.read_bytes()
        if repeat_line:
            lines = data.splitlines(keepends=True)
            data = b"".join(lines[: pick % len(lines) + 1] + lines[pick % len(lines) :])
        else:
            data = data[: pick % (len(data) + 1)] + bytes([byte]) + data[pick % (len(data) + 1) :]
        path.write_bytes(data)
        out = str(Path(tmp) / "out")
        assert main(["scan", str(Path(tmp) / "box_ahead.yaml"), "-o", out]) in (EXIT_OK, EXIT_INPUT)
        args = ["explain", str(Path(tmp) / "turn_right_query.yaml"), "--model", "scripted:left_preferrer", "-o", out, "--no-plots"]
        for setting in TINY_GA + ["ga.generations=2"]:
            args += ["--set", setting]
        assert main(args) in (EXIT_OK, EXIT_INPUT)


TINY_NET = """format: 1
lidar: 8
extra: 3
layer: conv1d in=1 out=2 kernel=3 stride=1 padding=1 circular=yes
weights: 0.04 -0.04 0.19 0.03 -0.16 0.11
bias: 0.39 0.28
layer: activation relu
layer: dense in=19 out=2
weights: """ + " ".join(f"{0.01 * (i % 7 - 3):.2f}" for i in range(38)) + """
bias: 0.44 0.59
layer: activation tanh
"""
NET_LINES = [line.split() for line in TINY_NET.splitlines()]
NET_TOKENS = sorted({token for line in NET_LINES for token in line}) + [
    "", "#", "=", "x", "nan", "inf", "-inf", "-0", "1e308", "1e999", "0x10", "1_0", "\u0663", str(10**30),
    "in=", "out=0", "out=-1", "kernel=0", "stride=0", "padding=-1", "circular=maybe", "circular=no",
    "lidar:", "extra:", "format:", "conv1d", "dense", "sigmoid", "in=10", "out=3", "kernel=99", "stride=4",
]
LINE_EDITS = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "drop-line", "copy-line"]),
    st.integers(0, len(NET_LINES) - 1),
    st.integers(0, 40),
    st.sampled_from(NET_TOKENS),
)


def test_the_tiny_net_validates():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.txt"
        path.write_text(TINY_NET)
        assert main(["validate-model", "--model", f"weights:{path}", "--n-rays", "8"]) == EXIT_OK


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(LINE_EDITS, min_size=1, max_size=4))
def test_validate_model_on_any_token_edit_of_a_weight_file_exits_0_2_or_3(edits):
    lines = [list(line) for line in NET_LINES]
    for op, i, j, token in edits:
        if not lines:
            break
        line = lines[i % len(lines)]
        if op == "replace" and line:
            line[j % len(line)] = token
        elif op == "insert":
            line.insert(j % (len(line) + 1), token)
        elif op == "delete" and line:
            del line[j % len(line)]
        elif op == "drop-line":
            lines.remove(line)
        elif op == "copy-line":
            lines.insert(j % (len(lines) + 1), list(line))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.txt"
        path.write_text("\n".join(" ".join(line) for line in lines) + "\n", encoding="utf-8")
        assert main(["validate-model", "--model", f"weights:{path}", "--n-rays", "8"]) in (EXIT_OK, EXIT_INPUT, EXIT_MODEL)


@pytest.mark.parametrize("make", [NoisyPolicy, BatchMeanPolicy], ids=["noisy", "batch-mean"])
def test_explain_with_a_model_that_scores_a_genome_two_ways_exits_3(tmp_path, capsys, monkeypatch, make):
    monkeypatch.setattr(cli, "load_model", lambda *args, **kwargs: make())
    query = tmp_path / "query.yaml"
    query.write_text(
        "base: room.yaml\nbounds: [[0.9, 1.0], [-1.0, -0.5]]\nn_obstacles: 1\nn_cfes: 3\nseed: 3\n"
    )
    write_empty_room(tmp_path)
    code = main(["explain", str(query), "--model", "scripted:left_preferrer", "-o", str(tmp_path / "out"), "--set", "ga.generations=3"])
    assert code == EXIT_MODEL
    assert "model is not deterministic: search " in capsys.readouterr().err


# An exec: child that answers left_preferrer plus seeded N(0, 0.3) noise on every line: the
# line-protocol counterpart of NoisyPolicy.
NOISY_CHILD = f"""
import sys
sys.path.insert(0, {str(Path(cli.__file__).resolve().parents[1])!r})
import numpy as np
from lidar_cfe import scripted_policy
policy, rng = scripted_policy("left_preferrer"), np.random.default_rng(0)
print(f"HELLO {{policy.input_size}} {{policy.output_size}}", flush=True)
for line in sys.stdin:
    action = policy.act_batch(np.array([[float(v) for v in line.split()]]))[0] + rng.normal(0.0, 0.3, 2)
    print(" ".join(repr(float(v)) for v in np.clip(action, -1.0, 1.0)), flush=True)
"""


def noisy_child(tmp_path):
    path = tmp_path / "noisy_child.py"
    path.write_text(NOISY_CHILD)
    return f"{sys.executable} {path}"


def test_a_noisy_exec_child_is_refused_even_when_its_answers_are_recalled(tmp_path):
    # One search: packaging scores only its best genome, which the search's last
    # batch answered, so a recalled answer would hide the noise.
    with external_policy(noisy_child(tmp_path), 183, 2) as policy:
        with pytest.raises(ModelError, match=r"model is not deterministic: search \d+ saw fitness .+, packaging scored the same genome"):
            generate_cfes(replace(swerve_query(), n_cfes=1), policy, GaConfig(generations=3))


def test_explain_with_a_noisy_exec_child_exits_3(tmp_path, capsys):
    query = tmp_path / "query.yaml"
    query.write_text("base: room.yaml\nbounds: [[0.9, 1.0], [-1.0, -0.5]]\nn_obstacles: 1\nn_cfes: 1\nseed: 3\n")
    write_empty_room(tmp_path)
    args = ["--model", f"exec:{noisy_child(tmp_path)}", "-o", str(tmp_path / "out"), "--set", "ga.generations=3"]
    assert main(["explain", str(query), *args]) == EXIT_MODEL
    assert "model is not deterministic: search " in capsys.readouterr().err


def test_manifest_hashes_the_weight_file_bytes_that_were_parsed(tmp_path, monkeypatch):
    path = tmp_path / "net.txt"
    save_weight_file(path, NetworkSpec(180, 3, (Dense(183, 2), Activation("tanh"))), [(np.zeros((2, 183)), np.zeros(2)), None])
    parsed = hashlib.sha256(path.read_bytes()).hexdigest()
    act_batch = NetworkPolicy.act_batch

    def rewriting_act_batch(self, states):  # the first call replaces the weight file on disk
        if hashlib.sha256(path.read_bytes()).hexdigest() == parsed:
            path.write_text(path.read_text().replace("bias: 0.0 0.0", "bias: 0.5 0.5"))
        return act_batch(self, states)

    monkeypatch.setattr(NetworkPolicy, "act_batch", rewriting_act_batch)
    out = tmp_path / "out"
    assert main(explain_reverse(tmp_path, "--model", f"weights:{path}", "-o", str(out), "--set", "n_cfes=1", "--no-plots", *FAST_GA)) == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() != parsed
    assert json.loads((out / "manifest.json").read_text())["model"]["sha256"] == parsed


@pytest.fixture(scope="module")
def reverse_results(tmp_path_factory):
    """The parsed content of a 3-entry reverse results.json."""
    tmp_path = tmp_path_factory.mktemp("reverse")
    write_empty_room(tmp_path)
    out = tmp_path / "out"
    assert main(["explain", str(write_reverse_query(tmp_path, "room.yaml")), "--model", "scripted:goal_seeker", "-o", str(out), "--no-plots", *FAST_GA]) == EXIT_OK
    return json.loads((out / "results.json").read_text())


def json_paths(node, prefix=()):
    """The path to every mapping value and list element under ``node``, taking of each list its first two and its last."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = [(i, node[i]) for i in sorted({0, 1, len(node) - 1}) if 0 <= i < len(node)]
    else:
        return []
    return [path for key, child in items for path in [(*prefix, key), *json_paths(child, (*prefix, key))]]


DELETE = object()
JSON_VALUES = st.one_of(
    st.just(DELETE),
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "x", "-inf", "generations", "saturate", "rectangle", "circle"]),
    st.lists(st.floats(-5.0, 5.0), max_size=3),
    st.dictionaries(st.sampled_from(["seed", "kind", "cos", "x"]), st.integers(-3, 3), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 10**6), JSON_VALUES), min_size=1, max_size=2))
def test_verify_of_any_one_or_two_field_edit_verifies_or_raises_lidar_cfe_error(reverse_results, edits):
    data = json.loads(json.dumps(reverse_results))
    for pick, value in edits:
        paths = json_paths(data)
        if not paths:
            break
        *parents, last = paths[pick % len(paths)]
        node = data
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.json"
        path.write_text(json.dumps(data))
        try:
            verify_results_file(path, scripted_policy("goal_seeker"))
        except LidarCfeError:
            pass
