import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from lidar_cfe import LidarCfeError, PolicyModel, scripted_policy
from lidar_cfe.cli import EXIT_INPUT, EXIT_MODEL, EXIT_OK, main, verify_results_file

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

    def test_verify_scores_every_entry_in_one_batch_and_names_bad_entries(self, tmp_path):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml")
        out = tmp_path / "out"
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out), *FAST_GA]) == EXIT_OK
        policy = scripted_policy("goal_seeker")
        batches = []

        class Counting(PolicyModel):
            input_size, output_size = policy.input_size, policy.output_size

            def act(self, state):
                raise AssertionError("verify must score entries through act_batch")

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
        with pytest.raises(LidarCfeError, match="entry 1 action mismatch"):
            verify_results_file(path, policy)
        data = json.loads(text)
        data["results"][2]["satisfied"] = not data["results"][2]["satisfied"]
        path.write_text(json.dumps(data))
        with pytest.raises(LidarCfeError, match="entry 2 satisfied flag disagrees with bounds"):
            verify_results_file(path, policy)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda row: row.__setitem__(5, 0.0), r"entry 1 has a reading outside \(0, 3.5\]"),
            (lambda row: row.__setitem__(5, 99.0), r"entry 1 has a reading outside \(0, 3.5\]"),
            (lambda row: row.pop(), "entry 1 has 179 readings, not 180"),
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
        ],
        ids=["goal-off-unit-circle", "crossed-bounds", "no-achieved-action", "no-d_g_max"],
    )
    def test_verify_names_the_file_or_entry_with_malformed_fields(self, tmp_path, edit, message):
        path = self.edited_results(tmp_path, edit)
        with pytest.raises(LidarCfeError, match=message):
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
        ],
    )
    def test_malformed_query_value_is_input_error(self, tmp_path, override):
        write_empty_room(tmp_path)
        query = write_reverse_query(tmp_path, "room.yaml")
        args = ["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(tmp_path), "--no-plots"]
        assert main([*args, *FAST_GA, "--set", override]) == EXIT_INPUT

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
        assert "top-level seed" in capsys.readouterr().err

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

    def test_no_satisfied_sets_warning_but_exits_zero(self, tmp_path):
        write_empty_room(tmp_path)
        query = tmp_path / "query.yaml"
        # The goal-seeker never emits linear in [0.98, 1.0]: unattainable bounds.
        query.write_text(
            "base: room.yaml\nbounds: [[0.98, 1.0], [-1.0, 1.0]]\nn_cfes: 2\nseed: 3\n"
            "ga: {generations: 3, population: 20, parents_mating: 4, keep_parents: 2}\n"
        )
        out = tmp_path / "out"
        assert main(["explain", str(query), "--model", "scripted:goal_seeker", "-o", str(out)]) == EXIT_OK
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


def test_unusable_out_dir_is_internal_error(tmp_path):
    scenario = write_empty_room(tmp_path)
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file in the way")
    assert main(["scan", str(scenario), "-o", str(blocker)]) == 4


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


def test_samples_ship_and_scan(tmp_path):
    for name in ("empty_room.yaml", "box_ahead.yaml", "walled_room.yaml"):
        assert (SAMPLES / name).exists()
    assert main(["scan", str(SAMPLES / "box_ahead.yaml"), "-o", str(tmp_path)]) == EXIT_OK
    data = json.loads((tmp_path / "box-ahead.scan.json").read_text())
    assert data["readings"][0] == pytest.approx(2.5, abs=1e-9)
