"""A `.scan.json` base under drawn edits: every explain exits 0, 2 or 3, never 4,
and one whose scan file has a key missing, malformed or unknown exits 2."""

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_cfe.cli import EXIT_INPUT, EXIT_MODEL, EXIT_OK, main

SCAN_KEYS = ["format", "kind", "name", "n_rays", "max_range", "readings", "goal"]
# A string, bools, null, NaN, 1e308, lists and an empty mapping: no scan-file key takes any of them, but a name takes a string.
BAD_VALUES = ["3.5", True, False, None, math.nan, 1e308, [], [1.0, 0.0], {}]
QUERY = "base: room.scan.json\nbounds: [[-1.0, 0.0], [-0.2, 0.2]]\nn_obstacles: 1\nn_cfes: 1\nseed: 3\n"
MAX_RANGE = 3.5  # the scene's, by the scenario default
TINY_GA = ["ga.generations=1", "ga.population=4", "ga.parents_mating=2", "ga.keep_parents=1", "ga.tournament_size=2"]

# Each edit is (key, action, value); no two edits of one example touch the same key.
EDITS = (
    st.tuples(st.sampled_from(SCAN_KEYS), st.just("drop"), st.none())
    | st.tuples(st.sampled_from(["d_g_max", "max_rang", "origin", "obstacles"]), st.just("add"), st.sampled_from([*BAD_VALUES, 9.0]))
    | st.tuples(st.sampled_from(SCAN_KEYS), st.just("replace"), st.sampled_from(BAD_VALUES))
    | st.tuples(
        st.just("readings"),
        st.just("reading"),
        st.tuples(st.integers(0, 179), st.sampled_from(BAD_VALUES) | st.floats(-1.0, 5.0) | st.integers(-1, 5)),
    )
)


@pytest.fixture(scope="module")
def scan_file(tmp_path_factory) -> dict:
    """The parsed scan file of a room with one box ahead, as ``lidar-cfe scan`` writes it."""
    tmp = tmp_path_factory.mktemp("scan")
    (tmp / "room.yaml").write_text(
        "name: room\ngoal: [2.0, 0.0]\nobstacles:\n  - {kind: rectangle, center: [1.5, 0.0], half_extents: [0.2, 0.4]}\n"
    )
    assert main(["scan", str(tmp / "room.yaml"), "-o", str(tmp)]) == EXIT_OK
    return json.loads((tmp / "room.scan.json").read_text())


def apply(data: dict, edit) -> bool:
    """Make ``edit`` on ``data``; True when it leaves a key missing, malformed or unknown."""
    key, action, value = edit
    if action == "drop":
        del data[key]
        return True
    if action == "reading":
        index, reading = value
        data["readings"][index] = reading
        # Against the range as written: an edit of max_range itself is malformed anyway.
        in_range = isinstance(reading, (int, float)) and not isinstance(reading, bool) and 0.0 < reading <= MAX_RANGE
        return not in_range
    data[key] = value
    return not (action == "replace" and key == "name" and isinstance(value, str))


def explain(data: dict) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "room.scan.json").write_text(json.dumps(data))
        (Path(tmp) / "query.yaml").write_text(QUERY)
        args = ["explain", str(Path(tmp) / "query.yaml"), "--model", "scripted:goal_seeker", "--no-plots", "-o", str(Path(tmp) / "out")]
        for setting in TINY_GA:
            args += ["--set", setting]
        return main(args)


def test_the_scan_file_as_written_explains(scan_file):
    assert sorted(scan_file) == sorted(SCAN_KEYS)
    assert explain(scan_file) == EXIT_OK


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(EDITS, min_size=1, max_size=2, unique_by=lambda edit: edit[0]))
def test_an_edited_scan_file_exits_2_when_a_key_is_missing_malformed_or_unknown(scan_file, edits):
    data = copy.deepcopy(scan_file)
    malformed = [apply(data, edit) for edit in edits]
    code = explain(data)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_MODEL)
    assert code == (EXIT_INPUT if any(malformed) else EXIT_OK)
