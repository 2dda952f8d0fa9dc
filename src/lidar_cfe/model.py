"""Policy models: a small inference engine, scripted reactive policies, weight files.

The network engine runs a 1-d convolutional stack (circular padding
supported) over the range part of the state, concatenates the remaining
state values, and finishes with dense layers. It exists so trained
controllers can be exported to a plain-text weight file and probed here
without any ML framework.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import ClassVar, get_args

import numpy as np

from .errors import ModelError, NetworkConfigError
from .ga import require_int
from .scan import ModelState

RELU = "relu"
TANH = "tanh"

GOAL_SEEKER = "goal_seeker"
LEFT_PREFERRER = "left_preferrer"


def check_action_rows(values: np.ndarray) -> None:
    """Raise ValueError unless every value of a (P, m) action array is finite and in [-1, 1]."""
    if np.max(np.abs(values), initial=0.0) <= 1.0:  # false for NaN, so only a failing batch runs the checks below
        return
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
        return ActionVector(self.act_batch(state.values[np.newaxis])[0])

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        """Actions for a (P, input_size) array of states, as a (P, output_size) array.

        Every model defines this. Row i must not depend on the other rows.
        ``NetworkPolicy`` and ``ExternalPolicy`` compute or send each
        distinct state of a batch once, so their row i may come from an
        earlier, bit-equal row; ``ExternalPolicy``'s also from one of its
        previous batch.
        """
        raise NotImplementedError(f"{type(self).__name__} does not define act_batch")

    def _set_reference(self, state: np.ndarray) -> None:
        """Hint that coming batches hold states close to ``state``; it may change speed, never an action."""

    def close(self) -> None:
        """Release what the model holds, such as a child process; by default nothing."""

    def __enter__(self) -> "PolicyModel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Network engine


# Each layer type declares its weight-file line: ``kind`` names it, each field
# is written ``key=value`` under its ``key`` metadata (default: the field name;
# key "" writes the bare value), and ``param_shapes`` gives the arrays after it.


@dataclass(frozen=True)
class Conv1d:
    """1-d convolution layer; ``circular`` pads by wrapping the signal."""

    kind: ClassVar[str] = "conv1d"
    in_channels: int = field(metadata={"key": "in"})
    out_channels: int = field(metadata={"key": "out"})
    kernel: int
    stride: int = 1
    padding: int = 0
    circular: bool = True

    def __post_init__(self) -> None:
        for name in ("in_channels", "out_channels", "kernel", "stride"):
            require_int(name, getattr(self, name), 1)
        require_int("padding", self.padding, 0)
        if not isinstance(self.circular, bool):
            raise ValueError(f"circular must be true or false, got {self.circular!r}")

    def param_shapes(self) -> tuple[tuple[int, ...], ...]:
        return (self.out_channels, self.in_channels, self.kernel), (self.out_channels,)


@dataclass(frozen=True)
class Dense:
    kind: ClassVar[str] = "dense"
    in_size: int = field(metadata={"key": "in"})
    out_size: int = field(metadata={"key": "out"})

    def __post_init__(self) -> None:
        require_int("in_size", self.in_size, 1)
        require_int("out_size", self.out_size, 1)

    def param_shapes(self) -> tuple[tuple[int, ...], ...]:
        return (self.out_size, self.in_size), (self.out_size,)


@dataclass(frozen=True)
class Activation:
    kind: ClassVar[str] = "activation"
    fn: str = field(metadata={"key": ""})  # "relu" or "tanh"

    def __post_init__(self) -> None:
        if self.fn not in (RELU, TANH):
            raise ValueError(f"unknown activation {self.fn!r}")

    def param_shapes(self) -> tuple[tuple[int, ...], ...]:
        return ()


Layer = Conv1d | Dense | Activation
_PARAMS = ("weights", "bias")


def conv_length(length: int, kernel: int, stride: int, padding: int) -> int:
    """How many outputs a convolution gives a signal of ``length``; below 1 when the kernel is wider than the padded signal."""
    return (length + 2 * padding - kernel) // stride + 1


def _layer_name(idx: int, layer: Layer) -> str:
    return f"layer {idx} ({layer.kind})"


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
        require_int("lidar_inputs", self.lidar_inputs, 1, error=NetworkConfigError)
        require_int("extra_inputs", self.extra_inputs, 0, error=NetworkConfigError)
        object.__setattr__(self, "layers", tuple(self.layers))
        self.output_size()  # fail fast on incompatible layer chains

    def output_size(self) -> int:
        """Walk the layer chain, checking dimension compatibility; returns the output width."""
        channels, length = 1, self.lidar_inputs
        dense_size: int | None = None
        for idx, layer in enumerate(self.layers):
            if not isinstance(layer, Layer):
                raise NetworkConfigError(f"layer {idx}: unsupported layer type {type(layer).__name__}")
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
                n_out = conv_length(length, layer.kernel, layer.stride, layer.padding)
                if n_out < 1:
                    raise NetworkConfigError(f"{where}: kernel {layer.kernel} wider than padded signal {length + 2 * layer.padding}")
                length, channels = n_out, layer.out_channels
            elif isinstance(layer, Dense):
                if dense_size is None:
                    dense_size = channels * length + self.extra_inputs
                if layer.in_size != dense_size:
                    raise NetworkConfigError(f"{where}: expects {layer.in_size} inputs, previous stage gives {dense_size}")
                dense_size = layer.out_size
        if dense_size is None:
            raise NetworkConfigError("network needs at least one dense layer")
        return dense_size


def row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a C-contiguous (P, n) float array: two keys compare equal only when every bit does."""
    width = rows.itemsize * rows.shape[1]
    return rows.view(np.dtype((np.void, width)))[:, 0].tolist() if width else [b""] * len(rows)


def distinct_rows(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (P, n) float array, and where each row of it went.

    Returns ``(distinct, inverse)``, ``distinct[inverse]`` bit-equal to
    ``states``. Rows are told apart by their bits, so a row holding -0.0 and
    one holding 0.0 stay distinct, as do NaNs with different payloads.
    ``distinct``, read-only, keeps the rows in the order of their first occurrence.
    """
    rows = np.ascontiguousarray(states, dtype=float)
    ids: dict[bytes, int] = {}
    inverse = np.array([ids.setdefault(key, len(ids)) for key in row_keys(rows)], dtype=np.intp)
    return np.frombuffer(b"".join(ids)).reshape(len(ids), rows.shape[1]), inverse


ROW_FLOOR = 16  # a gemm never runs fewer rows than this many states give it
FULL_PASS_SHARE = 0.25  # a batch that must recompute more of its last conv outputs than this runs the full conv pass
GEMM_MIN_OUTPUTS = 128  # values a product must give each state to run as gemm


def _row_products(rows: np.ndarray, w: np.ndarray, per_state: int) -> np.ndarray:
    """``rows @ w.T`` for an (n, in) array of rows, ``per_state`` consecutive rows for each state.

    Each conv and dense layer of the engine runs through here: its rows are a state's convolution
    windows or its one input row. The product runs as one matrix-matrix product (gemm) when ``w``
    has at least two rows and each state gets at least GEMM_MIN_OUTPUTS values from it, padded with
    zero rows when fewer than ROW_FLOOR states give it rows; otherwise as one matrix-vector product
    (gemv) per row. So every gemm makes at least ROW_FLOOR * GEMM_MIN_OUTPUTS values. BLAS picks
    its kernel by the size of a product, and a product this large keeps one kernel however many rows
    share it, so a row gets the same bits in any batch. A one-column product would go to a gemv over
    all rows, whose tail rows round differently; a stacked gemv makes the same call for every row.
    tests/test_invariance.py checks every shape the engine and its tests use, on the BLAS build that runs them.
    """
    if len(w) > 1 and per_state * len(w) >= GEMM_MIN_OUTPUTS:
        missing = ROW_FLOOR * per_state - len(rows)
        padded = np.concatenate([rows, np.zeros((missing, rows.shape[1]))]) if missing > 0 else rows
        return (padded @ w.T)[: len(rows)]
    return (w @ rows[:, :, np.newaxis])[:, :, 0]


@functools.lru_cache(maxsize=32)
def _window_index(length: int, in_channels: int, kernel: int, stride: int, padding: int, circular: bool) -> np.ndarray:
    """The (n_out, in * kernel) gather index of one convolution's im2col matrix.

    A signal is a row of ``length * in_channels`` values, channels-last:
    position p of channel c sits at ``p * in_channels + c``. Window row i,
    column ``c * kernel + k`` reads position ``i * stride - padding + k``.
    Circular padding wraps that position around the signal; zero padding
    points it at index ``length * in_channels``, a zero column appended to
    the signal.
    """
    n_out = conv_length(length, kernel, stride, padding)
    position = np.arange(n_out)[:, np.newaxis, np.newaxis] * stride - padding + np.arange(kernel)
    index = (position % length) * in_channels + np.arange(in_channels)[:, np.newaxis]  # (n_out, in, kernel)
    if not circular:
        index = np.where((position < 0) | (position >= length), length * in_channels, index)
    index = index.reshape(n_out, in_channels * kernel)
    index.flags.writeable = False
    return index


def _conv_rows(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, stride: int, padding: int, circular: bool) -> np.ndarray:
    """One 1-d convolution of channels-last signals: ``x`` is (P, length * in), the result (P, n_out * out).

    The windows of all signals are gathered into one (P * n_out, in * kernel)
    matrix through ``_window_index`` and multiplied by
    ``weight.reshape(out, -1).T``, by the rule of ``_row_products``.
    ``NetworkSpec.output_size`` has already checked the padding and the
    kernel against the signal length.
    """
    out_channels, in_channels, kernel = weight.shape
    length = x.shape[1] // in_channels
    index = _window_index(length, in_channels, kernel, stride, padding, circular)
    if padding and not circular:
        x = np.concatenate([x, np.zeros((len(x), 1))], axis=1)
    windows = np.take(x, index, axis=1)  # (P, n_out, in * kernel)
    y = _row_products(windows.reshape(-1, in_channels * kernel), weight.reshape(out_channels, -1), len(index))
    y = y.reshape(len(x), len(index) * out_channels)
    y += np.tile(bias, len(index))  # one long row broadcasts over P rows faster than ``bias`` over P * n_out
    return y


def _checked_weights(spec: NetworkSpec, weights) -> list:
    """The weight list as float arrays, every shape checked against ``spec`` and every value finite."""
    if len(weights) != len(spec.layers):
        raise NetworkConfigError(f"{len(weights)} weight entries for {len(spec.layers)} layers")
    checked = []
    for idx, (layer, entry) in enumerate(zip(spec.layers, weights)):
        shapes = layer.param_shapes()
        if not shapes:
            checked.append(None)
            continue
        where = _layer_name(idx, layer)
        if entry is None:
            raise NetworkConfigError(f"{where}: missing weights")
        arrays = tuple(np.asarray(a, dtype=float) for a in entry)
        for name, array, shape in zip(_PARAMS, arrays, shapes, strict=True):
            if array.shape != shape:
                raise NetworkConfigError(f"{where}: {name} shape {array.shape} does not match spec {shape}")
            if not np.all(np.isfinite(array)):
                raise NetworkConfigError(f"{where}: {name} values must be finite")
        checked.append(arrays)
    return checked


def _activate(layer: Activation, x: np.ndarray, owned: bool) -> np.ndarray:
    """The activation of ``x``, written in place when ``owned``."""
    return (np.maximum(x, 0.0, out=x if owned else None) if layer.fn == RELU else np.tanh(x, out=x if owned else None))


def _conv_input(spec: NetworkSpec, weights: list, states: np.ndarray) -> np.ndarray:
    """The first dense layer's input for (P, inputs) states, every layer before it run in full:
    the channels-last conv features in (channel, position) order, then the extras."""
    x, channels, owned = states[:, : spec.lidar_inputs], 1, False  # x is a view of the caller's states until a layer allocates
    for layer, entry in zip(spec.layers, weights):  # convolutions run on channels-last rows
        if isinstance(layer, Dense):
            size, length = x.shape[1], x.shape[1] // channels
            out = np.empty((len(x), size + spec.extra_inputs))
            # Splitting the contiguous last axis of a column slice never copies, so this reshape is a view of ``out``.
            out[:, :size].reshape(len(x), channels, length)[...] = x.reshape(len(x), length, channels).transpose(0, 2, 1)
            out[:, size:] = states[:, spec.lidar_inputs :]
            return out
        if isinstance(layer, Conv1d):
            x, channels = _conv_rows(x, *entry, layer.stride, layer.padding, layer.circular), layer.out_channels
        else:
            x = _activate(layer, x, owned)
        owned = True


def _receptive_fields(spec: NetworkSpec):
    """What recomputing output j of the last conv layer takes; None where the full pass is cheaper.

    j reads k positions of the layer below, each of those k of the layer below it, down to the rays:
    a tree, listed level by level, window by window (``_window_index``). Returns its (n_last, w_0)
    rays, each level's (n_last, w_l) mask of zero padding (None without any), and for each ray the
    outputs whose tree holds it, an (n_rays, m) table whose short rows repeat their first entry."""
    convs, lengths, indexes = [layer for layer in spec.layers if isinstance(layer, Conv1d)], [spec.lidar_inputs], []
    if not convs or math.prod(conv.kernel for conv in convs) > spec.lidar_inputs:
        return None  # a tree with more leaves than the scan has rays would cost more than the full pass
    for conv in convs:  # position ``length`` of a level is its zero padding
        indexes.append(_window_index(lengths[-1], 1, conv.kernel, conv.stride, conv.padding, conv.circular))
        lengths.append(len(indexes[-1]))
    positions, pads = np.arange(lengths[-1])[:, np.newaxis], []
    for index, length in zip(reversed(indexes), reversed(lengths[:-1])):
        index = np.concatenate([index, np.full((1, index.shape[1]), length)])  # a padding position's window is all padding
        positions = index[positions].reshape(len(positions), -1)
        pads.insert(0, positions == length if np.any(positions == length) else None)
    hits, inside = np.zeros((spec.lidar_inputs, lengths[-1]), dtype=bool), positions < spec.lidar_inputs
    hits[positions[inside], np.nonzero(inside)[0]] = True
    order = np.argsort(~hits, axis=1, kind="stable")[:, : hits.sum(axis=1).max()]
    reach = np.where(np.take_along_axis(hits, order, axis=1), order, order[:, :1])
    return np.where(inside, positions, 0), pads, reach


def _reference_input(spec: NetworkSpec, weights: list, reference: tuple, states: np.ndarray) -> np.ndarray:
    """``_conv_input`` of (P, inputs) states, copied from the reference state's where no changed ray reaches.

    A ray changes when its bits differ. Each last-layer output whose tree (``_receptive_fields``)
    holds one is recomputed up the tree, all together, layer by layer, through ``_row_products`` as
    the full pass runs the layer, so each gets the full pass's bits.
    """
    rays, pads, reach, bits, row = reference
    n_rays, n_last, size = spec.lidar_inputs, len(rays), row.size - spec.extra_inputs
    changed = np.flatnonzero(states[:, :n_rays].view(np.uint64) != bits)
    if changed.size > FULL_PASS_SHARE * len(states) * n_rays:  # then at least that share of outputs is hit, too
        return _conv_input(spec, weights, states)
    hit = np.zeros(len(states) * n_last, dtype=bool)
    hit[(changed // n_rays * n_last)[:, np.newaxis] + reach[changed % n_rays]] = True
    rows, outputs = np.divmod(np.flatnonzero(hit), n_last)
    if rows.size > FULL_PASS_SHARE * hit.size:
        return _conv_input(spec, weights, states)
    dense = np.concatenate([np.broadcast_to(row[:size], (len(states), size)), states[:, n_rays:]], axis=1)
    if rows.size == 0:
        return dense
    x, level, length = np.take(states, (rows * states.shape[1])[:, np.newaxis] + rays[outputs]), 0, n_rays
    for layer, entry in zip(spec.layers, weights):
        if isinstance(layer, Dense):
            break
        if not isinstance(layer, Conv1d):
            x = _activate(layer, x, True)
            continue
        (out_channels, in_channels, kernel), (weight, bias) = entry[0].shape, entry
        if pads[level] is not None:
            x.reshape(len(rows), -1, in_channels)[pads[level][outputs]] = 0.0
        length, level = conv_length(length, kernel, layer.stride, layer.padding), level + 1
        windows = x.reshape(len(rows), -1, kernel, in_channels).transpose(0, 1, 3, 2).reshape(-1, in_channels * kernel)
        x = _row_products(windows, weight.reshape(out_channels, -1), length).reshape(len(rows), -1)
        x += np.tile(bias, x.shape[1] // out_channels)
    dense[:, :size].reshape(len(states), -1, n_last)[rows, :, outputs] = x
    return dense


def _forward(spec: NetworkSpec, weights: list, states: np.ndarray, reference: tuple | None = None) -> np.ndarray:
    """Run a network whose layer chain, weights and state length are already checked on (P, inputs) states.

    With the product rule of ``_row_products`` every row gets the same bits
    whatever batch it sits in, a batch of one state included. A ``reference``
    (``NetworkPolicy._set_reference``) changes which conv outputs are
    computed and which copied, never a bit of the result.
    """
    x = _conv_input(spec, weights, states) if reference is None else _reference_input(spec, weights, reference, states)
    first_dense = next(i for i, layer in enumerate(spec.layers) if isinstance(layer, Dense))
    for layer, entry in zip(spec.layers[first_dense:], weights[first_dense:]):
        if isinstance(layer, Dense):
            x = _row_products(x, entry[0], 1)
            x += entry[1]
        else:
            x = _activate(layer, x, True)
    return x


class NetworkPolicy(PolicyModel):
    """Policy backed by the built-in network engine; weights are checked once, at construction.

    ``act_batch`` runs each distinct state of a batch once (``distinct_rows``)
    and copies its action to the state's repeats. Rows are batch-invariant,
    so a repeat gets the bits it would get in any batch. After ``_set_reference``
    the conv layers run only where a state's rays differ from the reference's.
    """

    file_sha256: str | None = None  # set by from_file: the sha256 of the bytes it parsed

    def __init__(self, spec: NetworkSpec, weights) -> None:
        last = spec.layers[-1] if spec.layers else None
        if not (isinstance(last, Activation) and last.fn == TANH):
            raise ModelError("policy network must end with a tanh activation")
        self.spec = spec
        self.weights = _checked_weights(spec, weights)
        self.input_size = spec.lidar_inputs + spec.extra_inputs
        self.output_size = spec.output_size()
        self._fields = _receptive_fields(spec)
        self._reference = None  # one tuple, swapped whole: the fields, the reference's ray bits and its dense input

    def _set_reference(self, state: np.ndarray) -> None:
        bits = np.array(state[: self.spec.lidar_inputs], dtype=float).view(np.uint64)
        if self._fields is None or (self._reference is not None and np.array_equal(self._reference[3], bits)):
            return
        with np.errstate(over="ignore", invalid="ignore"):
            row = _conv_input(self.spec, self.weights, np.array(state, dtype=float)[np.newaxis])[0]
        self._reference = (*self._fields, bits, row)

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        if states.shape[1] != self.input_size:
            raise NetworkConfigError(f"state length {states.shape[1]} does not match spec inputs {self.input_size}")
        distinct, inverse = distinct_rows(states)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as a non-finite action, a model error
            return _forward(self.spec, self.weights, distinct, self._reference)[inverse]

    @classmethod
    def from_file(cls, path) -> "NetworkPolicy":
        text, digest = _read_weight_file(path)
        policy = cls(*load_weight_file(path, text))
        policy.file_sha256 = digest
        return policy


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
_LAYER_TYPES = {layer_type.kind: layer_type for layer_type in get_args(Layer)}
_FLAG_TEXT = {True: "yes", False: "no"}


def _file_keys(layer_type) -> dict:
    """The layer line's keys, in writing order, each mapped to its dataclass field."""
    return {f.metadata.get("key", f.name): f for f in fields(layer_type)}


def save_weight_file(path, spec: NetworkSpec, weights) -> None:
    """Write the self-describing plain-text weight format."""
    lines = ["format: 1", f"lidar: {spec.lidar_inputs}", f"extra: {spec.extra_inputs}"]
    for layer, arrays in zip(spec.layers, _checked_weights(spec, weights)):
        tokens = [layer.kind]
        for key, f in _file_keys(type(layer)).items():
            value = getattr(layer, f.name)
            text = _FLAG_TEXT[value] if isinstance(value, bool) else str(value)
            tokens.append(f"{key}={text}" if key else text)
        lines.append("layer: " + " ".join(tokens))
        for name, array in zip(_PARAMS, arrays or ()):
            lines.append(f"{name}: " + " ".join(repr(float(v)) for v in array.reshape(-1)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _parse_int(raw: str | None, name: str, where: str) -> int:
    if raw is None:
        raise ModelError(f"{where}: missing {name}")
    try:
        return int(raw)
    except ValueError:
        raise ModelError(f"{where}: {name} must be an integer, got {raw!r}") from None


def _parse_value(text: str, f, name: str, where: str):
    # Annotations are postponed in this module, so f.type is the annotation's text.
    if f.type == "bool":
        if text not in _FLAG_TEXT.values():
            raise ModelError(f"{where}: {name} must be yes or no, got {text!r}")
        return text == _FLAG_TEXT[True]
    return _parse_int(text, name, where) if f.type == "int" else text


def _parse_layer(layer_type, tokens: list[str], where: str) -> Layer:
    keys = _file_keys(layer_type)
    kwargs = {}
    for token in tokens:
        key, _, text = token.rpartition("=")  # a bare token is the value of the field keyed ""
        f = keys.get(key)
        if f is None or f.name in kwargs:
            raise ModelError(f"{where}: unexpected {token!r}")
        kwargs[f.name] = _parse_value(text, f, key, where)
    for key, f in keys.items():
        if f.name not in kwargs and f.default is MISSING:
            raise ModelError(f"{where}: missing {key or f.name}")
    try:
        return layer_type(**kwargs)
    except ValueError as exc:
        raise ModelError(f"{where}: {exc}") from None


def _read_weight_file(path) -> tuple[str, str]:
    """The text of a weight file and the sha256 of its bytes, both from one read."""
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8"), hashlib.sha256(data).hexdigest()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read weight file {path}: {exc}") from exc


def load_weight_file(path, text: str | None = None) -> tuple[NetworkSpec, list]:
    """Parse a weight file back into a spec and aligned weight list.

    ``text``, when given, is the file's content as already read; ``path`` then only names the file in messages.
    """
    path = Path(path)
    text = _read_weight_file(path)[0] if text is None else text

    lines: list[tuple[str, list[str]]] = []  # each key with its value and continuation lines, joined once below
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _KEY_RE.match(line)
        if match:
            lines.append((match.group(1), [match.group(2)]))
        elif lines:
            lines[-1][1].append(line)  # numeric continuation of the previous array
        else:
            raise ModelError(f"{path}: file must start with 'format: 1'")
    entries = [(key, " ".join(parts)) for key, parts in lines]

    if not entries or entries[0][0] != "format" or entries[0][1].strip() != "1":
        raise ModelError(f"{path}: file must start with 'format: 1'")

    header = {"lidar": None, "extra": None}
    pos = 1
    while pos < len(entries) and entries[pos][0] in header:
        if header[entries[pos][0]] is not None:
            raise ModelError(f"{path}: repeated {entries[pos][0]!r} line")
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
        kind, *tokens = value.split() or [""]
        where = f"{path}: layer {len(layers)} ({kind})"
        if kind not in _LAYER_TYPES:
            raise ModelError(f"{where}: unknown layer type {kind!r}")
        layer = _parse_layer(_LAYER_TYPES[kind], tokens, where)
        pos += 1
        arrays = []
        for name, shape in zip(_PARAMS, layer.param_shapes()):
            if pos >= len(entries) or entries[pos][0] != name:
                raise NetworkConfigError(f"{where}: missing {name}")
            try:  # ASCII decimals between ASCII whitespace; older numpy only warns on text it cannot read
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    values = np.fromstring(entries[pos][1], sep=" ")
            except (ValueError, DeprecationWarning) as exc:
                raise ModelError(f"{where} {name}: bad number ({exc})") from None
            if len(values) != math.prod(shape):
                raise NetworkConfigError(f"{where} {name}: expected {math.prod(shape)} values, got {len(values)}")
            arrays.append(values.reshape(shape))
            pos += 1
        layers.append(layer)
        weights.append(tuple(arrays) or None)

    spec = NetworkSpec(lidar_inputs=lidar, extra_inputs=extra, layers=tuple(layers))
    return spec, weights


# ---------------------------------------------------------------------------
# Scripted reactive policies


# Tuning of the scripted reactive policies. Distance thresholds are fractions
# of the sensor max range, matching the normalized state the policies consume.
# BLEND_WIDTH sets how sharply the behaviors switch; the policies stay
# continuous in the state.
FORWARD_SPEED = 0.95
REVERSE_SPEED = -0.6
BLOCK_THRESHOLD = 0.35
AVOID_THRESHOLD = 0.8
SIDE_THRESHOLD = 0.5
TURN_GAIN = 2.0
TURN_MAGNITUDE = 0.9
BLEND_WIDTH = 0.01
CONE_HALF_ANGLE = math.pi / 6


def _logistic(x: np.ndarray) -> np.ndarray:
    # exp only ever sees -|x|, so it never overflows.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


class _ScriptedPolicy(PolicyModel):
    output_size = 2

    def __init__(self, kind: str, n_lidar: int) -> None:
        self.kind = kind
        self.n_lidar = n_lidar
        self.input_size = n_lidar + 3
        headings = np.arange(n_lidar) * (2.0 * math.pi / n_lidar)
        off_forward = np.minimum(headings, 2.0 * math.pi - headings)
        self._cone = np.flatnonzero(off_forward <= CONE_HALF_ANGLE + 1e-12)  # two runs, whose strided minima cost more than a gather
        left = np.flatnonzero((headings > 1e-12) & (headings < math.pi - 1e-12))
        self._left = slice(left[0], left[-1] + 1)  # one run: a minimum over its view has a gathered copy's bits

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        if states.shape[1] != self.input_size:
            raise ModelError(f"state length {states.shape[1]}, policy expects {self.input_size}")
        n = self.n_lidar
        lidar = states[:, :n]
        cos_g = 2.0 * states[:, n] - 1.0
        sin_g = 2.0 * states[:, n + 1] - 1.0
        bearing = np.arctan2(sin_g, cos_g)
        goal_steer = np.minimum(np.maximum(TURN_GAIN * bearing, -1.0), 1.0)  # np.clip's bits, with less call overhead

        min_forward = lidar[:, self._cone].min(axis=1)
        gaps = [BLOCK_THRESHOLD - min_forward]
        if self.kind == LEFT_PREFERRER:
            gaps += [AVOID_THRESHOLD - min_forward, lidar[:, self._left].min(axis=1) - SIDE_THRESHOLD]
        # One logistic call for every gate: a one-row act pays numpy's per-call overhead once.
        blocked, *gates = _logistic(np.array(gaps) / BLEND_WIDTH)
        linear = (1.0 - blocked) * FORWARD_SPEED + blocked * REVERSE_SPEED

        if self.kind == GOAL_SEEKER:
            angular = goal_steer
        else:
            avoid, left_clear = gates
            swerve = TURN_MAGNITUDE * (2.0 * left_clear - 1.0)
            angular = avoid * swerve + (1.0 - avoid) * goal_steer

        return np.column_stack([linear, angular])


def scripted_policy(kind: str, n_lidar: int = 180) -> PolicyModel:
    """Build one of the scripted reactive test policies for ``n_lidar`` rays (at least 8).

    ``goal_seeker`` steers at the goal bearing and backs up when anything
    sits close in the forward cone. ``left_preferrer`` additionally swerves
    around forward obstacles, to the left unless the left half of the scan
    is blocked too, in which case it turns right. Both are deterministic,
    total, and continuous in the state.
    """
    if kind not in (GOAL_SEEKER, LEFT_PREFERRER):
        raise ValueError(f"unknown scripted policy {kind!r}")
    require_int("n_lidar", n_lidar, 8)
    return _ScriptedPolicy(kind, n_lidar)
