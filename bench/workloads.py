"""The benchmark's workloads and the inputs each one writes for itself.

Every input the program sees is generated here from the workload definition
and the seed: the scenario and query YAML files, the seeded conv-net weight
file, and the command line of the bridge child. Nothing is read from
``samples/``, so editing the samples never moves a benchmark number.

The 1-obstacle searches run a fixed number of generations (``saturate_k:
null``). Under the saturate stop, the number of generations of one search
varies by about half its mean from seed to seed, so the work in a run, and
with it ``explain_s``, would follow the seed instead of the code. With the
stop off, every search spends the same number of evaluations on every seed.
On every seed tried, each reverse search stopped at zero penalty in its first
generation.
"""

from __future__ import annotations

import math
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml
from numpy.lib.stride_tricks import sliding_window_view

BENCH_DIR = Path(__file__).resolve().parent

N_RAYS = 180
MAX_RANGE = 3.5

# Scenes, in the documented scenario format. The box's near face sits 2.5 m
# ahead of the sensor and spans y in [-0.4, 0.4]; conv_base_state() relies on
# that geometry.
SCENARIOS = {
    "box_ahead.yaml": f"""\
name: box-ahead
n_rays: {N_RAYS}
max_range: {MAX_RANGE}
origin: [0.0, 0.0]
goal: [3.25, 0.0]
obstacles:
  - kind: rectangle
    center: [2.75, 0.0]
    half_extents: [0.25, 0.4]
    orientation: 0.0
""",
    "empty_room.yaml": f"""\
name: empty-room
n_rays: {N_RAYS}
max_range: {MAX_RANGE}
origin: [0.0, 0.0]
goal: [2.0, 0.0]
obstacles: []
""",
}

# Turn right at speed, in front of the box: the scripted left preferrer
# swerves left here. lambda_p > 0 keeps the penalty above zero, so no search
# stops early and each runs all its generations.
SWERVE_QUERY = {
    "base": "box_ahead.yaml",
    "bounds": {"linear": [0.9, 1.0], "angular": [-1.0, -0.5]},
    "combination": "min_distance",
    "lambda_y": 1.0,
    "lambda_p": 0.1,
    "n_obstacles": 1,
    "d_min": 0.2,
    "ga": {"generations": 40, "saturate_k": None},
}

# Back up without turning, in an empty room: the goal seeker reverses when
# its forward cone is blocked, which a random 5-obstacle scene almost always
# does, so every search reaches zero penalty in its first generation.
REVERSE_QUERY = {
    "base": "empty_room.yaml",
    "bounds": {"linear": [-1.0, 0.0], "angular": [-0.2, 0.2]},
    "combination": "min_distance",
    "lambda_y": 1.0,
    "lambda_p": 0.0,
    "n_obstacles": 5,
    "d_min": 0.2,
}

# The seeded conv net is shifted so that its action on the box-ahead base
# state is (0, 0); one obstacle moves it by a few hundredths at most. The
# bounds ask for a slight right turn at unchanged speed.
CONVNET_QUERY = dict(
    SWERVE_QUERY,
    combination="gen_priority",
    bounds={"linear": [-0.03, 0.03], "angular": [-1.0, -0.01]},
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a query, a model form, and the search count."""

    name: str
    query: dict
    model: str  # "scripted:<name>", "convnet" or "bridge"
    n_cfes: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("swerve-1obs", SWERVE_QUERY, "scripted:left_preferrer", n_cfes=4),
        Workload("reverse-5obs", REVERSE_QUERY, "scripted:goal_seeker", n_cfes=60),
        Workload("convnet-1obs", CONVNET_QUERY, "convnet", n_cfes=2),
        Workload("bridge-1obs", SWERVE_QUERY, "bridge", n_cfes=1),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Files and arguments generated for one workload and seed."""

    query_path: Path
    model_spec: str
    query_seed: int
    n_cfes: int
    n_outputs: int


def query_seed(seed: int) -> int:
    """The query ``--seed`` for a workload seed; search i runs with this plus i.

    Spacing seeds 1000 apart keeps the searches of neighbouring workload
    seeds disjoint.
    """
    return 1000 * seed


def write_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the scenario, query and model files of ``workload`` into ``workdir``."""
    for name, text in SCENARIOS.items():
        (workdir / name).write_text(text, encoding="ascii")
    query = dict(workload.query, n_cfes=workload.n_cfes, seed=0)
    query_path = workdir / f"{workload.name}.query.yaml"
    query_path.write_text(yaml.safe_dump(query, sort_keys=False), encoding="ascii")
    if workload.model == "convnet":
        weight_path = workdir / "convnet.weights.txt"
        write_conv_weights(weight_path, seed)
        spec = f"weights:{weight_path}"
    elif workload.model == "bridge":
        child = shlex.join([sys.executable, str(BENCH_DIR / "policy_child.py"), "left_preferrer", str(N_RAYS)])
        spec = f"exec:{child}"
    else:
        spec = workload.model
    return Inputs(query_path, spec, query_seed(seed), workload.n_cfes, len(query["bounds"]))


# ---------------------------------------------------------------------------
# The README conv net: conv 1->4 (k5, s1, p2, circular), relu, conv 4->8
# (k5, s2, p2, circular), relu, dense 723->128, relu, dense 128->2, tanh.

CONV_LAYERS = ((1, 4, 1), (4, 8, 2))  # (in, out, stride); kernel 5, padding 2, circular
KERNEL = 5
PADDING = 2
DENSE_LAYERS = ((8 * 90 + 3, 128), (128, 2))


def conv_base_state() -> np.ndarray:
    """The normalized state of the box-ahead scene, computed from its geometry."""
    theta = 2.0 * math.pi * np.arange(N_RAYS) / N_RAYS
    readings = np.full(N_RAYS, MAX_RANGE)
    ahead = np.cos(theta) > 0.0
    t = 2.5 / np.where(ahead, np.cos(theta), 1.0)
    hit = ahead & (np.abs(t * np.sin(theta)) <= 0.4)
    readings[hit] = t[hit]
    d_g_max = 2.0 * math.sqrt(2.0) * MAX_RANGE
    return np.concatenate([readings / MAX_RANGE, [1.0, 0.5, 3.25 / d_g_max]])


def conv_pre_activation(weights, state: np.ndarray) -> np.ndarray:
    """The net's output before the final tanh."""
    x = state[:N_RAYS][np.newaxis, :]
    for (w, b), (_, _, stride) in zip(weights[:2], CONV_LAYERS):
        padded = np.concatenate([x[:, -PADDING:], x, x[:, :PADDING]], axis=1)
        windows = sliding_window_view(padded, KERNEL, axis=1)[:, ::stride, :]
        x = np.maximum(np.einsum("ink,oik->on", windows, w) + b[:, None], 0.0)
    (w1, b1), (w2, b2) = weights[2:]
    hidden = np.maximum(w1 @ np.concatenate([x.reshape(-1), state[N_RAYS:]]) + b1, 0.0)
    return w2 @ hidden + b2


def conv_weights(seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded weights, LeCun-normal, with the last bias set so the base action is (0, 0)."""
    rng = np.random.default_rng([seed, 180])
    weights = []
    for n_in, n_out, _ in CONV_LAYERS:
        weights.append((rng.normal(0.0, 1.0 / math.sqrt(n_in * KERNEL), (n_out, n_in, KERNEL)), rng.normal(0.0, 0.1, n_out)))
    for n_in, n_out in DENSE_LAYERS:
        weights.append((rng.normal(0.0, 1.0 / math.sqrt(n_in), (n_out, n_in)), rng.normal(0.0, 0.1, n_out)))
    w_last, b_last = weights[-1]
    weights[-1] = (w_last, b_last - conv_pre_activation(weights, conv_base_state()))
    return weights


def _floats(values: np.ndarray) -> str:
    return " ".join(repr(v) for v in values.reshape(-1).tolist())


def write_conv_weights(path: Path, seed: int) -> None:
    """Write the seeded conv net in the documented plain-text weight format."""
    weights = conv_weights(seed)
    lines = ["format: 1", f"lidar: {N_RAYS}", "extra: 3"]
    for (w, b), (n_in, n_out, stride) in zip(weights[:2], CONV_LAYERS):
        lines.append(f"layer: conv1d in={n_in} out={n_out} kernel={KERNEL} stride={stride} padding={PADDING} circular=yes")
        lines += ["weights: " + _floats(w), "bias: " + _floats(b), "layer: activation relu"]
    for (w, b), (n_in, n_out) in zip(weights[2:], DENSE_LAYERS):
        lines += [f"layer: dense in={n_in} out={n_out}", "weights: " + _floats(w), "bias: " + _floats(b)]
        lines.append("layer: activation relu" if n_out != 2 else "layer: activation tanh")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
