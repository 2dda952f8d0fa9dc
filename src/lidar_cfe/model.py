"""Policy models: a small inference engine, scripted reactive policies, weight files.

The network engine runs a 1-d convolutional stack (circular padding
supported) over the range part of the state, concatenates the remaining
state values, and finishes with dense layers. It exists so trained
controllers can be exported to a plain-text weight file and probed here
without any ML framework.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ModelError, NetworkConfigError
from .scan import ModelState

RELU = "relu"
TANH = "tanh"

GOAL_SEEKER = "goal_seeker"
LEFT_PREFERRER = "left_preferrer"


def check_action_rows(values: np.ndarray) -> None:
    """Raise ValueError unless every value of a (P, m) action array is finite and in [-1, 1]."""
    if not np.all(np.isfinite(values)):
        raise ValueError("action values must be finite")
    outside = ~np.all((values >= -1.0) & (values <= 1.0), axis=1)
    if np.any(outside):
        raise ValueError(f"action values must lie in [-1, 1], got {values[outside][0].tolist()}")


@dataclass(frozen=True, eq=False)
class ActionVector:
    """Bounded controller output; every component lies in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("action must be a non-empty 1-d vector")
        check_action_rows(values[np.newaxis])
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)


class PolicyModel:
    """A deterministic mapping from a normalized state to a bounded action."""

    input_size: int
    output_size: int

    def act(self, state: ModelState) -> ActionVector:
        """The action for one state: a one-row ``act_batch`` call."""
        if type(self).act_batch is PolicyModel.act_batch:
            raise NotImplementedError(f"{type(self).__name__} defines neither act nor act_batch")
        return ActionVector(self.act_batch(state.values[np.newaxis])[0])

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        """Actions for a (P, input_size) array of states, as a (P, output_size) array.

        Row i must equal ``act`` on row i. This default calls ``act`` once
        per row; models that can score rows together override it.
        """
        actions = [self.act(ModelState(row)).values for row in states]
        return np.array(actions, dtype=float).reshape(len(states), self.output_size)


# ---------------------------------------------------------------------------
# Network engine


@dataclass(frozen=True)
class Conv1d:
    """1-d convolution layer; ``circular`` pads by wrapping the signal."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    circular: bool = True

    def __post_init__(self) -> None:
        if min(self.in_channels, self.out_channels, self.kernel, self.stride) < 1:
            raise ValueError("conv channels, kernel, and stride must be >= 1")
        if self.padding < 0:
            raise ValueError("conv padding must be >= 0")


@dataclass(frozen=True)
class Dense:
    in_size: int
    out_size: int

    def __post_init__(self) -> None:
        if min(self.in_size, self.out_size) < 1:
            raise ValueError("dense sizes must be >= 1")


@dataclass(frozen=True)
class Activation:
    fn: str  # "relu" or "tanh"

    def __post_init__(self) -> None:
        if self.fn not in (RELU, TANH):
            raise ValueError(f"unknown activation {self.fn!r}")


Layer = Conv1d | Dense | Activation


def _layer_name(idx: int, layer: Layer) -> str:
    kind = {Conv1d: "conv1d", Dense: "dense", Activation: "activation"}[type(layer)]
    return f"layer {idx} ({kind})"


@dataclass(frozen=True)
class NetworkSpec:
    """Layer stack with a declared input split.

    The first ``lidar_inputs`` state values run through the convolution
    layers as a single channel; the flattened features concatenate with the
    remaining ``extra_inputs`` values right before the first dense layer.
    """

    lidar_inputs: int
    extra_inputs: int
    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        if self.lidar_inputs < 1 or self.extra_inputs < 0:
            raise NetworkConfigError("lidar_inputs must be >= 1 and extra_inputs >= 0")
        object.__setattr__(self, "layers", tuple(self.layers))
        self.output_size()  # fail fast on incompatible layer chains

    def output_size(self) -> int:
        """Walk the layer chain, checking dimension compatibility; returns the output width."""
        channels, length = 1, self.lidar_inputs
        dense_size: int | None = None
        for idx, layer in enumerate(self.layers):
            where = _layer_name(idx, layer)
            if isinstance(layer, Conv1d):
                if dense_size is not None:
                    raise NetworkConfigError(f"{where}: convolution after the dense stack")
                if layer.in_channels != channels:
                    raise NetworkConfigError(
                        f"{where}: expects {layer.in_channels} input channels, previous layer gives {channels}"
                    )
                if layer.circular and layer.padding > length:
                    raise NetworkConfigError(f"{where}: circular padding {layer.padding} wider than signal {length}")
                padded = length + 2 * layer.padding
                if padded < layer.kernel:
                    raise NetworkConfigError(f"{where}: kernel {layer.kernel} wider than padded signal {padded}")
                length = (padded - layer.kernel) // layer.stride + 1
                channels = layer.out_channels
            elif isinstance(layer, Dense):
                if dense_size is None:
                    dense_size = channels * length + self.extra_inputs
                if layer.in_size != dense_size:
                    raise NetworkConfigError(f"{where}: expects {layer.in_size} inputs, previous stage gives {dense_size}")
                dense_size = layer.out_size
            elif not isinstance(layer, Activation):
                raise NetworkConfigError(f"layer {idx}: unsupported layer type {type(layer).__name__}")
        if dense_size is None:
            raise NetworkConfigError("network needs at least one dense layer")
        return dense_size


def conv1d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    circular: bool = True,
) -> np.ndarray:
    """One 1-d convolution; ``x`` is (..., channels, length), ``weight`` is (out, in, kernel).

    Leading axes of ``x`` are batch axes. Output length is
    ``(length + 2*padding - kernel) // stride + 1``; circular padding wraps
    the signal ends before the sweep.
    """
    length = x.shape[-1]
    kernel = weight.shape[2]
    if padding:
        if circular:
            if padding > length:
                raise ValueError(f"circular padding {padding} wider than signal {length}")
            x = np.concatenate([x[..., length - padding:], x, x[..., :padding]], axis=-1)
        else:
            x = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(padding, padding)])
    if x.shape[-1] < kernel:
        raise ValueError(f"kernel {kernel} wider than padded signal {x.shape[-1]}")
    windows = sliding_window_view(x, kernel, axis=-1)[..., ::stride, :]  # (..., in, n_out, kernel)
    return np.einsum("...ink,oik->...on", windows, weight) + bias[:, None]


def _layer_weights(weights, idx: int, layer: Layer) -> tuple[np.ndarray, np.ndarray]:
    where = _layer_name(idx, layer)
    entry = weights[idx]
    if entry is None:
        raise NetworkConfigError(f"{where}: missing weights")
    w, b = entry
    w = np.asarray(w, dtype=float)
    b = np.asarray(b, dtype=float)
    if isinstance(layer, Conv1d):
        expect_w = (layer.out_channels, layer.in_channels, layer.kernel)
        expect_b = (layer.out_channels,)
    else:
        expect_w = (layer.out_size, layer.in_size)
        expect_b = (layer.out_size,)
    if w.shape != expect_w:
        raise NetworkConfigError(f"{where}: weight shape {w.shape} does not match spec {expect_w}")
    if b.shape != expect_b:
        raise NetworkConfigError(f"{where}: bias shape {b.shape} does not match spec {expect_b}")
    return w, b


def _checked_weights(spec: NetworkSpec, weights) -> list:
    """The weight list as float arrays, every shape checked against ``spec``."""
    if len(weights) != len(spec.layers):
        raise NetworkConfigError(f"{len(weights)} weight entries for {len(spec.layers)} layers")
    return [
        None if isinstance(layer, Activation) else _layer_weights(weights, idx, layer)
        for idx, layer in enumerate(spec.layers)
    ]


def _forward(spec: NetworkSpec, weights: list, states: np.ndarray) -> np.ndarray:
    """Run a network whose layer chain and weights are already checked on (P, inputs) states.

    Dense layers run as a stack of matrix-vector products, one per row, so
    every row gets the same bits as a single-state pass; one matrix-matrix
    product over all rows (``x @ w.T``) can round differently.
    """
    expected = spec.lidar_inputs + spec.extra_inputs
    if states.shape[1] != expected:
        raise NetworkConfigError(f"state length {states.shape[1]} does not match spec inputs {expected}")
    x = states[:, np.newaxis, : spec.lidar_inputs]
    for layer, entry in zip(spec.layers, weights):
        if isinstance(layer, Conv1d):
            w, b = entry
            x = conv1d_forward(x, w, b, layer.stride, layer.padding, layer.circular)
        elif isinstance(layer, Dense):
            if x.ndim == 3:  # first dense layer: flatten the conv features, append the extra inputs
                x = np.concatenate([x.reshape(len(x), -1), states[:, spec.lidar_inputs:]], axis=1)
            w, b = entry
            x = (w @ x[:, :, np.newaxis])[:, :, 0] + b
        elif layer.fn == RELU:
            x = np.maximum(x, 0.0)
        else:
            x = np.tanh(x)
    return x


class NetworkPolicy(PolicyModel):
    """Policy backed by the built-in network engine; weights are checked once, at construction."""

    def __init__(self, spec: NetworkSpec, weights) -> None:
        last = spec.layers[-1] if spec.layers else None
        if not (isinstance(last, Activation) and last.fn == TANH):
            raise ModelError("policy network must end with a tanh activation")
        self.spec = spec
        self.weights = _checked_weights(spec, weights)
        self.input_size = spec.lidar_inputs + spec.extra_inputs
        self.output_size = spec.output_size()

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        return _forward(self.spec, self.weights, states)

    @classmethod
    def from_file(cls, path) -> "NetworkPolicy":
        spec, weights = load_weight_file(path)
        return cls(spec, weights)


# ---------------------------------------------------------------------------
# Weight file format (format: 1)
#
#   format: 1
#   lidar: 180
#   extra: 3
#   layer: conv1d in=1 out=4 kernel=5 stride=1 padding=2 circular=yes
#   weights: <out*in*kernel floats, row-major, may wrap onto following lines>
#   bias: <out floats>
#   layer: activation relu
#   layer: dense in=363 out=2
#   weights: ...
#   bias: ...
#   layer: activation tanh
#
# '#' starts a comment; blank lines are ignored.

_KEY_RE = re.compile(r"^([a-z_][a-z_0-9]*):\s*(.*)$")
_FLAG_TRUE = {"yes", "true", "1"}
_FLAG_FALSE = {"no", "false", "0"}


def _format_floats(values: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in values.reshape(-1))


def save_weight_file(path, spec: NetworkSpec, weights) -> None:
    """Write the self-describing plain-text weight format."""
    lines = ["format: 1", f"lidar: {spec.lidar_inputs}", f"extra: {spec.extra_inputs}"]
    for idx, layer in enumerate(spec.layers):
        if isinstance(layer, Conv1d):
            flag = "yes" if layer.circular else "no"
            lines.append(
                f"layer: conv1d in={layer.in_channels} out={layer.out_channels} "
                f"kernel={layer.kernel} stride={layer.stride} padding={layer.padding} circular={flag}"
            )
        elif isinstance(layer, Dense):
            lines.append(f"layer: dense in={layer.in_size} out={layer.out_size}")
        else:
            lines.append(f"layer: activation {layer.fn}")
        if isinstance(layer, (Conv1d, Dense)):
            w, b = _layer_weights(weights, idx, layer)
            lines.append("weights: " + _format_floats(w))
            lines.append("bias: " + _format_floats(b))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _parse_kv(text: str, where: str) -> dict[str, str]:
    out = {}
    for token in text.split():
        if "=" not in token:
            raise ModelError(f"{where}: expected key=value tokens, got {token!r}")
        key, value = token.split("=", 1)
        out[key] = value
    return out


def _parse_int(raw: str | None, name: str, where: str) -> int:
    if raw is None:
        raise ModelError(f"{where}: missing {name}")
    try:
        return int(raw)
    except ValueError:
        raise ModelError(f"{where}: {name} must be an integer, got {raw!r}") from None


def _parse_floats(text: str, count: int, where: str) -> np.ndarray:
    tokens = text.split()
    if len(tokens) != count:
        raise NetworkConfigError(f"{where}: expected {count} values, got {len(tokens)}")
    try:
        return np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise ModelError(f"{where}: bad number ({exc})") from None


def load_weight_file(path) -> tuple[NetworkSpec, list]:
    """Parse a weight file back into a spec and aligned weight list."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelError(f"cannot read weight file {path}: {exc}") from exc

    entries: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _KEY_RE.match(line)
        if match:
            entries.append([match.group(1), match.group(2)])
        elif entries:
            entries[-1][1] += " " + line  # numeric continuation of the previous array
        else:
            raise ModelError(f"{path}: file must start with 'format: 1'")

    if not entries or entries[0][0] != "format" or entries[0][1].strip() != "1":
        raise ModelError(f"{path}: file must start with 'format: 1'")

    header = {"lidar": None, "extra": None}
    pos = 1
    while pos < len(entries) and entries[pos][0] in header:
        header[entries[pos][0]] = entries[pos][1].strip()
        pos += 1
    lidar = _parse_int(header["lidar"], "lidar", str(path))
    extra = _parse_int(header["extra"], "extra", str(path))

    layers: list[Layer] = []
    weights: list = []
    while pos < len(entries):
        key, value = entries[pos]
        if key != "layer":
            raise ModelError(f"{path}: unexpected field {key!r}, expected a layer line")
        head, _, rest = value.strip().partition(" ")
        idx = len(layers)
        where = f"{path}: layer {idx} ({head})"
        if head == "conv1d":
            kv = _parse_kv(rest, where)
            flag = kv.get("circular", "yes").lower()
            if flag not in _FLAG_TRUE | _FLAG_FALSE:
                raise ModelError(f"{where}: circular must be yes/no, got {flag!r}")
            try:
                layer: Layer = Conv1d(
                    in_channels=_parse_int(kv.get("in"), "in", where),
                    out_channels=_parse_int(kv.get("out"), "out", where),
                    kernel=_parse_int(kv.get("kernel"), "kernel", where),
                    stride=_parse_int(kv.get("stride", "1"), "stride", where),
                    padding=_parse_int(kv.get("padding", "0"), "padding", where),
                    circular=flag in _FLAG_TRUE,
                )
            except ValueError as exc:
                raise ModelError(f"{where}: {exc}") from None
        elif head == "dense":
            kv = _parse_kv(rest, where)
            try:
                layer = Dense(in_size=_parse_int(kv.get("in"), "in", where), out_size=_parse_int(kv.get("out"), "out", where))
            except ValueError as exc:
                raise ModelError(f"{where}: {exc}") from None
        elif head == "activation":
            try:
                layer = Activation(rest.strip())
            except ValueError as exc:
                raise ModelError(f"{where}: {exc}") from None
        else:
            raise ModelError(f"{where}: unknown layer type {head!r}")
        layers.append(layer)
        pos += 1

        if isinstance(layer, Activation):
            weights.append(None)
            continue
        if isinstance(layer, Conv1d):
            w_shape = (layer.out_channels, layer.in_channels, layer.kernel)
            b_count = layer.out_channels
        else:
            w_shape = (layer.out_size, layer.in_size)
            b_count = layer.out_size
        if pos >= len(entries) or entries[pos][0] != "weights":
            raise NetworkConfigError(f"{where}: missing weights")
        w = _parse_floats(entries[pos][1], int(np.prod(w_shape)), f"{where} weights").reshape(w_shape)
        pos += 1
        if pos >= len(entries) or entries[pos][0] != "bias":
            raise NetworkConfigError(f"{where}: missing bias")
        b = _parse_floats(entries[pos][1], b_count, f"{where} bias")
        pos += 1
        weights.append((w, b))

    spec = NetworkSpec(lidar_inputs=lidar, extra_inputs=extra, layers=tuple(layers))
    return spec, weights


# ---------------------------------------------------------------------------
# Scripted reactive policies


@dataclass(frozen=True)
class ScriptedParams:
    """Tuning for the scripted reactive policies.

    Distance thresholds are fractions of the sensor max range, matching the
    normalized state the policy consumes. ``blend_width`` sets how sharply
    the behaviors switch; the policies stay continuous in the state.
    """

    n_lidar: int = 180
    forward_speed: float = 0.95
    reverse_speed: float = -0.6
    block_threshold: float = 0.35
    avoid_threshold: float = 0.8
    side_threshold: float = 0.5
    turn_gain: float = 2.0
    turn_magnitude: float = 0.9
    blend_width: float = 0.01
    cone_half_angle: float = math.pi / 6

    def __post_init__(self) -> None:
        if self.n_lidar < 8:
            raise ValueError("n_lidar must be >= 8")
        for name in ("forward_speed", "reverse_speed", "turn_magnitude"):
            v = getattr(self, name)
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [-1, 1], got {v}")
        for name in ("block_threshold", "avoid_threshold", "side_threshold"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")
        if self.blend_width <= 0.0:
            raise ValueError("blend_width must be > 0")
        if self.turn_gain < 0.0:
            raise ValueError("turn_gain must be >= 0")
        if not 0.0 < self.cone_half_angle < math.pi:
            raise ValueError("cone_half_angle must lie in (0, pi)")


def _logistic(x: np.ndarray) -> np.ndarray:
    # exp only ever sees -|x|, so it never overflows.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


class _ScriptedPolicy(PolicyModel):
    output_size = 2

    def __init__(self, kind: str, params: ScriptedParams) -> None:
        self.kind = kind
        self.params = params
        self.input_size = params.n_lidar + 3
        n = params.n_lidar
        headings = np.arange(n) * (2.0 * math.pi / n)
        off_forward = np.minimum(headings, 2.0 * math.pi - headings)
        self._cone = np.flatnonzero(off_forward <= params.cone_half_angle + 1e-12)
        self._left = np.flatnonzero((headings > 1e-12) & (headings < math.pi - 1e-12))

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        if states.shape[1] != self.input_size:
            raise ModelError(f"state length {states.shape[1]}, policy expects {self.input_size}")
        p = self.params
        lidar = states[:, : p.n_lidar]
        cos_g = 2.0 * states[:, p.n_lidar] - 1.0
        sin_g = 2.0 * states[:, p.n_lidar + 1] - 1.0
        bearing = np.arctan2(sin_g, cos_g)
        goal_steer = np.clip(p.turn_gain * bearing, -1.0, 1.0)

        min_forward = lidar[:, self._cone].min(axis=1)
        gaps = [p.block_threshold - min_forward]
        if self.kind == LEFT_PREFERRER:
            gaps += [p.avoid_threshold - min_forward, lidar[:, self._left].min(axis=1) - p.side_threshold]
        # One logistic call for every gate: a one-row act pays numpy's per-call overhead once.
        blocked, *gates = _logistic(np.array(gaps) / p.blend_width)
        linear = (1.0 - blocked) * p.forward_speed + blocked * p.reverse_speed

        if self.kind == GOAL_SEEKER:
            angular = goal_steer
        else:
            avoid, left_clear = gates
            swerve = p.turn_magnitude * (2.0 * left_clear - 1.0)
            angular = avoid * swerve + (1.0 - avoid) * goal_steer

        return np.stack([linear, angular], axis=1)


def scripted_policy(kind: str, params: ScriptedParams | None = None) -> PolicyModel:
    """Build one of the scripted reactive test policies.

    ``goal_seeker`` steers at the goal bearing and backs up when anything
    sits close in the forward cone. ``left_preferrer`` additionally swerves
    around forward obstacles, to the left unless the left half of the scan
    is blocked too, in which case it turns right. Both are deterministic,
    total, and continuous in the state.
    """
    if kind not in (GOAL_SEEKER, LEFT_PREFERRER):
        raise ValueError(f"unknown scripted policy {kind!r}")
    return _ScriptedPolicy(kind, params or ScriptedParams())
