import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_cfe import (
    Activation,
    Conv1d,
    Dense,
    ModelState,
    NetworkConfigError,
    NetworkPolicy,
    NetworkSpec,
    load_weight_file,
    save_weight_file,
    scripted_policy,
)
from lidar_cfe import model as model_module
from lidar_cfe.errors import ModelError
from lidar_cfe.model import FULL_PASS_SHARE, ROW_FLOOR, _forward, _window_index, conv_length

from oracles import conv1d_forward, naive_conv1d, naive_net_forward, random_micro_net, random_wide_net
from test_batch import bench_conv_net


def make_state(values):
    return ModelState(np.asarray(values, dtype=float))


def checked_conv(x, w, b, stride, padding, circular):
    """The library kernel's convolution of one signal, held against the naive oracle."""
    out = conv1d_forward(x, w, b, stride, padding, circular)
    assert np.array_equal(out, naive_conv1d(x, w, b, stride, padding, circular))
    return out


class TestConvPrimitive:
    def test_all_ones_kernel_sums_window(self):
        x = np.ones((1, 8))
        w = np.ones((1, 1, 3))
        b = np.zeros(1)
        out = checked_conv(x, w, b, stride=1, padding=1, circular=True)
        assert out.shape == (1, 8)
        assert np.all(out == 3.0)

    def test_circular_wrap_at_boundaries(self):
        x = np.arange(1.0, 9.0)[None, :]  # 1..8
        w = np.ones((1, 1, 3))
        b = np.zeros(1)
        out = checked_conv(x, w, b, stride=1, padding=1, circular=True)[0]
        assert out[0] == 8 + 1 + 2
        assert out[-1] == 7 + 8 + 1

    def test_zero_padding(self):
        x = np.arange(1.0, 5.0)[None, :]
        w = np.ones((1, 1, 3))
        out = checked_conv(x, w, np.zeros(1), stride=1, padding=1, circular=False)[0]
        assert out[0] == 0 + 1 + 2
        assert out[-1] == 3 + 4 + 0

    def test_stride_two_output_length(self):
        # 180 in, kernel 5, padding 2, stride 2 gives ceil(180 / 2) = 90 out.
        x = np.zeros((1, 180))
        w = np.zeros((1, 1, 5))
        out = checked_conv(x, w, np.zeros(1), stride=2, padding=2, circular=True)
        assert out.shape == (1, 90)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 70), st.integers(1, 8), st.integers(0, 40), st.booleans())
    def test_conv_length_counts_the_windows_of_every_accepted_shape(self, length, kernel, stride, padding, circular):
        n_out = conv_length(length, kernel, stride, padding)
        layers = (Conv1d(1, 1, kernel, stride, padding, circular), Dense(max(n_out, 1), 1))
        try:
            NetworkSpec(length, 0, layers)
        except NetworkConfigError:
            assert n_out < 1 or (circular and padding > length)
            return
        assert n_out == len(_window_index(length, 1, kernel, stride, padding, circular))
        assert n_out == len(range(0, length + 2 * padding - kernel + 1, stride)) >= 1


def identity_dense_spec(n):
    # One dense layer with identity weights over the whole (lidar + extra) input, then the tanh head.
    spec = NetworkSpec(n - 3, 3, (Dense(n, n), Activation("tanh")))
    weights = [(np.eye(n), np.zeros(n)), None]
    return spec, weights


def net_act(spec, weights, values):
    return NetworkPolicy(spec, weights).act(make_state(values)).values


class TestNetForward:
    def test_identity_dense(self):
        spec, weights = identity_dense_spec(7)
        values = np.array([0.1, 0.2, 0.3, 0.4, 0.9, 0.5, 0.6])
        assert np.allclose(net_act(spec, weights, values), np.tanh(values), atol=1e-15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            spec, weights = random_micro_net(rng)
            values = rng.random(spec.lidar_inputs + spec.extra_inputs)
            got = net_act(spec, weights, values)
            want = naive_net_forward(spec, weights, values)
            assert np.max(np.abs(got - want)) < 1e-6

    def test_wide_nets_match_naive_oracle(self):
        # These run their convolutions and 128-wide dense layer as gemm, with both padding modes.
        rng = np.random.default_rng(124)
        for _ in range(10):
            spec, weights = random_wide_net(rng)
            states = rng.random((5, spec.lidar_inputs + spec.extra_inputs))
            got = NetworkPolicy(spec, weights).act_batch(states)
            want = [naive_net_forward(spec, weights, values) for values in states]
            assert np.max(np.abs(got - want)) < 1e-6

    def test_tanh_head_stays_bounded(self):
        rng = np.random.default_rng(321)
        for _ in range(20):
            spec, weights = random_micro_net(rng)
            values = rng.random(spec.lidar_inputs + spec.extra_inputs)
            out = net_act(spec, weights, values)
            assert np.all(np.abs(out) < 1.0)

    def test_circular_rotation_equivariance(self):
        # Stride-1 circular conv with length-preserving padding commutes with rotation.
        rng = np.random.default_rng(77)
        for _ in range(20):
            channels = int(rng.integers(1, 4))
            kernel = int(rng.choice([3, 5]))
            layer = Conv1d(channels, int(rng.integers(1, 4)), kernel, 1, (kernel - 1) // 2, True)
            length = int(rng.integers(8, 30))
            x = rng.normal(size=(channels, length))
            w = rng.normal(size=(layer.out_channels, channels, kernel))
            b = rng.normal(size=layer.out_channels)
            shift = int(rng.integers(1, length))
            plain = conv1d_forward(x, w, b, 1, layer.padding, True)
            rolled = conv1d_forward(np.roll(x, shift, axis=1), w, b, 1, layer.padding, True)
            assert np.allclose(np.roll(plain, shift, axis=1), rolled, atol=1e-12)

    def test_leading_activation_leaves_the_callers_states_alone(self):
        # The first layer sees a view of the states, so only later layers may work in place.
        spec = NetworkSpec(4, 3, (Activation("relu"), Dense(7, 2), Activation("tanh")))
        weights = [None, (np.full((2, 7), 0.1), np.zeros(2)), None]
        states = np.random.default_rng(6).normal(size=(20, 7))
        before = states.copy()
        _forward(spec, weights, states)
        NetworkPolicy(spec, weights).act_batch(states)
        assert states.tobytes() == before.tobytes()

    def test_shape_mismatch_names_layer(self):
        spec = NetworkSpec(4, 3, (Dense(7, 2), Activation("tanh")))
        weights = [(np.zeros((2, 6)), np.zeros(2)), None]
        with pytest.raises(NetworkConfigError, match="layer 0 \\(dense\\)"):
            NetworkPolicy(spec, weights)

    def test_state_length_checked(self):
        spec, weights = identity_dense_spec(7)
        with pytest.raises(NetworkConfigError):
            net_act(spec, weights, np.zeros(9))

    def test_spec_rejects_incompatible_chain(self):
        with pytest.raises(NetworkConfigError, match="layer 1"):
            NetworkSpec(8, 3, (Conv1d(1, 4, 3, 1, 1, True), Conv1d(2, 4, 3, 1, 1, True), Dense(1, 1)))

    @pytest.mark.parametrize(
        "layers, message",
        [
            ((Dense(11, 4), Conv1d(1, 4, 3)), "layer 1 (conv1d): convolution after the dense stack"),
            ((Dense(11, 4), Dense(5, 2)), "layer 1 (dense): expects 5 inputs, previous stage gives 4"),
            ((Dense(11, 2), "tanh"), "layer 1: unsupported layer type str"),
        ],
        ids=["conv-after-dense", "dense-size-mismatch", "unsupported-layer"],
    )
    def test_spec_names_the_layer_that_breaks_the_chain(self, layers, message):
        with pytest.raises(NetworkConfigError) as caught:
            NetworkSpec(8, 3, layers)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([(np.zeros((2, 11)), np.zeros(2))], "1 weight entries for 2 layers"),
            ([None, None], "layer 0 (dense): missing weights"),
        ],
        ids=["too-few-entries", "missing-weights"],
    )
    def test_weights_that_do_not_cover_the_layers_are_refused(self, weights, message):
        with pytest.raises(NetworkConfigError) as caught:
            NetworkPolicy(NetworkSpec(8, 3, (Dense(11, 2), Activation("tanh"))), weights)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Conv1d(1, 2, 2.5, padding=1), ValueError, "kernel must be an integer, got 2.5"),
            (lambda: Conv1d(True, 2, 3), ValueError, "in_channels must be an integer, got True"),
            (lambda: Conv1d(1, 2, 3, padding=1.0), ValueError, "padding must be an integer, got 1.0"),
            (lambda: Dense(19, 2.0), ValueError, "out_size must be an integer, got 2.0"),
            (lambda: Conv1d(1, 2, 3, padding=1, circular="no"), ValueError, "circular must be true or false, got 'no'"),
            (lambda: Conv1d(1, 2, 3, padding=1, circular=1), ValueError, "circular must be true or false, got 1"),
            (lambda: NetworkSpec(7.5, 3.5, (Dense(11, 2), Activation("tanh"))), NetworkConfigError, "lidar_inputs must be an integer, got 7.5"),
            (lambda: NetworkSpec(8, 3.5, (Dense(11, 2), Activation("tanh"))), NetworkConfigError, "extra_inputs must be an integer, got 3.5"),
            (lambda: NetworkSpec(True, 3, (Dense(4, 2), Activation("tanh"))), NetworkConfigError, "lidar_inputs must be an integer, got True"),
        ],
        ids=[
            "conv-kernel-float",
            "conv-in-bool",
            "conv-padding-float",
            "dense-out-float",
            "conv-circular-string",
            "conv-circular-int",
            "spec-lidar-float",
            "spec-extra-float",
            "spec-lidar-bool",
        ],
    )
    def test_a_layer_size_that_is_not_an_integer_is_refused(self, build, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            build()

    def test_spec_requires_dense(self):
        with pytest.raises(NetworkConfigError, match="dense"):
            NetworkSpec(8, 3, (Conv1d(1, 4, 3, 1, 1, True),))


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


BENCH_NET = bench_conv_net()
BATCHES = [1, ROW_FLOOR - 1, ROW_FLOOR, 2 * ROW_FLOOR + 1, 100, 400]


def edited_states(rng, base, n, n_lidar, rays):
    """``n`` copies of ``base``, each with ``rays`` contiguous rays redrawn (None: all of them).

    A quarter of the rows also get new extras, and where the base holds 0.0
    some rows hold -0.0, which the reference must count as a change.
    """
    states = np.repeat(base[np.newaxis], n, axis=0)
    k = n_lidar if rays is None else min(rays, n_lidar)
    for row in states:
        at = (int(rng.integers(n_lidar)) + np.arange(k)) % n_lidar
        row[at] = rng.random(k)
    states[::4, n_lidar:] = rng.random((len(states[::4]), len(base) - n_lidar))
    states[1::3, :n_lidar][states[1::3, :n_lidar] == 0.0] = -0.0
    return states


class TestReferenceState:
    """After ``_set_reference`` the conv layers run only where a state's rays differ
    from the reference's; every action must keep the full pass's bits."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        net=st.sampled_from(["bench", "micro", "wide"]),
        n=st.sampled_from(BATCHES),
        rays=st.sampled_from([0, 1, 3, None]),
        share=st.sampled_from([FULL_PASS_SHARE, 1.0]),
    )
    def test_actions_keep_the_full_pass_bits(self, seed, net, n, rays, share):
        # share 1.0 never falls back to the full conv pass, so every recomputed window is checked too.
        rng = np.random.default_rng(seed)
        if net == "bench":
            spec, weights = BENCH_NET.spec, BENCH_NET.weights
        else:
            spec, weights = random_micro_net(rng, n_outputs=int(rng.integers(1, 4))) if net == "micro" else random_wide_net(rng)
        width = spec.lidar_inputs + spec.extra_inputs
        base = rng.random(width)
        base[: spec.lidar_inputs][rng.random(spec.lidar_inputs) < 0.1] = 0.0
        states = edited_states(rng, base, n, spec.lidar_inputs, rays)
        full = bits(_forward(spec, weights, states))
        policy = NetworkPolicy(spec, weights)
        assert np.array_equal(bits(policy.act_batch(states)), full)  # no reference
        with mock.patch.object(model_module, "FULL_PASS_SHARE", share):
            for reference in (base, rng.random(width), states[-1]):
                policy._set_reference(reference)
                assert np.array_equal(bits(policy.act_batch(states)), full)
                for i in (0, n - 1):  # one-row calls pad to the row floor
                    assert np.array_equal(bits(policy.act_batch(states[i : i + 1])), full[i : i + 1])

    def test_the_reference_is_rebuilt_only_when_its_rays_change(self):
        rng = np.random.default_rng(8)
        policy = NetworkPolicy(BENCH_NET.spec, BENCH_NET.weights)
        first, second = rng.random((2, policy.input_size))
        policy._set_reference(first)
        cache = policy._reference
        policy._set_reference(np.concatenate([first[:180], rng.random(3)]))  # other extras, same rays
        assert policy._reference is cache
        states = edited_states(rng, second, 40, 180, 3)
        full = bits(_forward(BENCH_NET.spec, BENCH_NET.weights, states))
        policy._set_reference(second)
        assert policy._reference is not cache and np.array_equal(bits(policy.act_batch(states)), full)
        flipped = second.copy()
        flipped[7] = -0.0 if second[7] == 0.0 else -second[7]
        policy._set_reference(flipped)  # a sign alone is a change too
        assert not np.array_equal(policy._reference[3], cache[3]) and np.array_equal(bits(policy.act_batch(states)), full)

    @pytest.mark.parametrize(
        "layers",
        [
            (Dense(11, 2), Activation("tanh")),
            # Each output of the second conv reads 9 rays: more than the 8 the scan has.
            (Conv1d(1, 1, 3, 1, 1), Conv1d(1, 1, 3, 1, 1), Dense(11, 2), Activation("tanh")),
        ],
        ids=["no-conv", "tree-wider-than-the-scan"],
    )
    def test_a_net_the_reference_cannot_speed_up_keeps_none(self, layers):
        spec = NetworkSpec(8, 3, layers)
        weights = [tuple(np.full(shape, 0.1) for shape in layer.param_shapes()) or None for layer in layers]
        policy = NetworkPolicy(spec, weights)
        policy._set_reference(np.full(11, 0.5))
        assert policy._reference is None
        states = np.random.default_rng(2).random((20, 11))
        assert np.array_equal(bits(policy.act_batch(states)), bits(_forward(spec, policy.weights, states)))

    def test_zero_states_give_zero_actions_with_a_reference(self):
        policy = NetworkPolicy(BENCH_NET.spec, BENCH_NET.weights)
        policy._set_reference(np.full(policy.input_size, 0.5))
        assert policy.act_batch(np.empty((0, policy.input_size))).shape == (0, policy.output_size)


class TestWeightFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        spec, weights = random_micro_net(rng)
        path = tmp_path / "net.txt"
        save_weight_file(path, spec, weights)
        spec2, weights2 = load_weight_file(path)
        assert spec2 == spec
        values = rng.random(spec.lidar_inputs + spec.extra_inputs)
        out1 = net_act(spec, weights, values)
        out2 = net_act(spec2, weights2, values)
        assert np.array_equal(out1, out2)

    def test_save_load_save_is_exact(self, tmp_path):
        path = tmp_path / "net.txt"

        @settings(max_examples=60, deadline=None)
        @given(seed=st.integers(0, 2**32 - 1))
        def check(seed):
            spec, weights = random_micro_net(np.random.default_rng(seed))
            save_weight_file(path, spec, weights)
            text = path.read_bytes()
            spec2, weights2 = load_weight_file(path)
            assert spec2 == spec
            for entry, entry2 in zip(weights, weights2, strict=True):
                assert (entry is None) == (entry2 is None)
                for a, a2 in zip(entry or (), entry2 or (), strict=True):
                    assert a2.dtype == float and a2.shape == a.shape and a2.tobytes() == a.tobytes()
            save_weight_file(path, spec2, weights2)
            assert path.read_bytes() == text

        check()

    def test_conv1d_line_may_omit_stride_padding_and_circular(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(
            "format: 1\nlidar: 4\nextra: 3\n"
            "layer: conv1d in=1 out=1 kernel=3\nweights: 1 2 3\nbias: 0\n"
            "layer: dense in=5 out=1\nweights: 1 1 1 1 1\nbias: 0\n"
            "layer: activation tanh\n"
        )
        spec, _ = load_weight_file(path)
        assert spec.layers[0] == Conv1d(in_channels=1, out_channels=1, kernel=3)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("in=1 out=1 kernel=3 strde=2", "unexpected 'strde=2'"),
            ("in=1 in=1 out=1 kernel=3", "unexpected 'in=1'"),
            ("in=1 out=1 kernel=3 circular=true", "circular must be yes or no"),
            ("out=1 kernel=3", "missing in"),
        ],
    )
    def test_malformed_conv1d_line_names_the_key(self, tmp_path, line, message):
        path = tmp_path / "net.txt"
        path.write_text(f"format: 1\nlidar: 4\nextra: 3\nlayer: conv1d {line}\n")
        with pytest.raises(ModelError, match=f"layer 0 \\(conv1d\\): {message}"):
            load_weight_file(path)

    def test_policy_from_file(self, tmp_path):
        rng = np.random.default_rng(6)
        spec, weights = random_micro_net(rng)
        path = tmp_path / "net.txt"
        save_weight_file(path, spec, weights)
        policy = NetworkPolicy.from_file(path)
        assert policy.input_size == spec.lidar_inputs + spec.extra_inputs
        assert policy.output_size == 2
        state = make_state(rng.random(policy.input_size))
        assert np.array_equal(policy.act(state).values, net_act(spec, weights, state.values))

    def test_truncated_weights_name_the_layer(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "format: 1\n"
            "lidar: 4\n"
            "extra: 3\n"
            "layer: dense in=7 out=2\n"
            "weights: 0.1 0.2 0.3\n"
            "bias: 0.0 0.0\n"
            "layer: activation tanh\n"
        )
        with pytest.raises(NetworkConfigError, match="layer 0 \\(dense\\).*expected 14"):
            load_weight_file(path)

    def test_missing_bias_detected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "format: 1\nlidar: 4\nextra: 3\n"
            "layer: dense in=7 out=1\n"
            "weights: 1 1 1 1 1 1 1\n"
            "layer: activation tanh\n"
        )
        with pytest.raises(NetworkConfigError, match="missing bias"):
            load_weight_file(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("format: 2\nlidar: 4\nextra: 3\n")
        with pytest.raises(ModelError, match="format: 1"):
            load_weight_file(path)

    @pytest.mark.parametrize("key", ["lidar", "extra"])
    def test_a_repeated_header_line_is_refused(self, key):
        text = "format: 1\nlidar: 4\nextra: 3\nlayer: dense in=7 out=1\nweights: 0 0 0 0 0 0 0\nbias: 0\nlayer: activation tanh\n"
        assert load_weight_file("net.txt", text)[0].lidar_inputs == 4
        with pytest.raises(ModelError, match=f"^net\\.txt: repeated '{key}' line$"):
            load_weight_file("net.txt", text.replace(f"{key}:", f"{key}: 9\n{key}:"))

    def test_a_file_that_is_not_utf8_is_a_model_error(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_bytes("# caf\xe9\nformat: 1\nlidar: 4\nextra: 3\n".encode("latin-1"))
        for load in (load_weight_file, NetworkPolicy.from_file):
            with pytest.raises(ModelError, match=r"^cannot read weight file .*net\.txt: 'utf-8' codec can't decode byte 0xe9"):
                load(path)

    def test_wrapped_arrays_and_comments(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(
            "# tiny test net\n"
            "format: 1\n"
            "lidar: 1\n"
            "extra: 3\n"
            "layer: dense in=4 out=1\n"
            "weights: 1.0 2.0\n"
            "  3.0 4.0\n"
            "bias: 0.5\n"
            "layer: activation tanh\n"
        )
        spec, weights = load_weight_file(path)
        out = net_act(spec, weights, [0.1, 0.2, 0.3, 0.1])
        assert out[0] == pytest.approx(math.tanh(0.1 + 0.4 + 0.9 + 0.4 + 0.5), abs=1e-12)

    def test_a_file_wrapped_at_8_values_per_line_loads_the_same_arrays(self, tmp_path):
        one_line, wrapped = tmp_path / "net.txt", tmp_path / "wrapped.txt"
        save_weight_file(one_line, BENCH_NET.spec, BENCH_NET.weights)
        lines = []
        for line in one_line.read_text().splitlines():
            key, _, values = line.partition(": ")
            tokens = values.split() if key in ("weights", "bias") else [values]
            lines += [f"{key}: " + " ".join(tokens[:8])] + [" ".join(tokens[i : i + 8]) for i in range(8, len(tokens), 8)]
        wrapped.write_text("\n".join(lines) + "\n")
        assert len(lines) > 11_000
        spec, weights = load_weight_file(one_line)
        spec2, weights2 = load_weight_file(wrapped)
        assert spec2 == spec
        for entry, entry2 in zip(weights, weights2, strict=True):
            for a, a2 in zip(entry or (), entry2 or (), strict=True):
                assert a2.shape == a.shape and a2.tobytes() == a.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8),
        gaps=st.lists(st.sampled_from([" ", "  ", "\t", "\n"]), min_size=7, max_size=7),
    )
    def test_the_repr_of_any_finite_double_parses_to_its_float(self, values, gaps):
        tokens = [repr(v) for v in values]
        weights = tokens[0] + "".join(gap + token for gap, token in zip(gaps, tokens[1:7]))
        text = f"format: 1\nlidar: 4\nextra: 3\nlayer: dense in=7 out=1\nweights: {weights}\nbias: {tokens[7]}\n"
        _, [(w, b)] = load_weight_file("net.txt", text)
        assert np.concatenate([w.reshape(-1), b]).tobytes() == np.array([float(t) for t in tokens]).tobytes()

    @pytest.mark.parametrize("token", ["x", "1,5", "1_0", "0x1p3", "\uff11", "0.5\xa00.5"], ids=["letter", "comma", "underscore", "hex", "full-width-digit", "nbsp-separator"])
    def test_a_number_float_reads_but_the_file_format_does_not_is_a_bad_number(self, token):
        text = f"format: 1\nlidar: 4\nextra: 3\nlayer: dense in=7 out=1\nweights: 0 0 0 {token} 0 0 0\nbias: 0\n"
        with pytest.raises(ModelError, match=r"^net\.txt: layer 0 \(dense\) weights: bad number \("):
            load_weight_file("net.txt", text)

    def test_unread_text_is_a_bad_number_where_numpy_only_warns(self):
        def fromstring_that_warns(text, sep):  # older numpy: the values read so far, and a warning
            warnings.warn("string or file could not be read to its end due to unmatched data", DeprecationWarning)
            return np.zeros(7)

        text = "format: 1\nlidar: 4\nextra: 3\nlayer: dense in=7 out=1\nweights: 0 0 0 0 0 0 0 x\nbias: 0\n"
        with mock.patch.object(model_module.np, "fromstring", fromstring_that_warns):
            with pytest.raises(ModelError, match=r"layer 0 \(dense\) weights: bad number \(string or file"):
                load_weight_file("net.txt", text)

    def test_a_weights_key_with_no_values_counts_zero(self):
        text = "format: 1\nlidar: 4\nextra: 3\nlayer: dense in=7 out=1\nweights:\nbias: 0\n"
        with pytest.raises(NetworkConfigError, match=r"layer 0 \(dense\) weights: expected 7 values, got 0$"):
            load_weight_file("net.txt", text)

    def test_policy_requires_tanh_head(self):
        spec = NetworkSpec(4, 3, (Dense(7, 2),))
        with pytest.raises(ModelError, match="tanh"):
            NetworkPolicy(spec, [(np.zeros((2, 7)), np.zeros(2))])


def state_from_scan(readings, cos=1.0, sin=0.0, d=0.5, max_range=3.5):
    lidar = np.asarray(readings, dtype=float) / max_range
    return make_state(np.concatenate([lidar, [(cos + 1) / 2, (sin + 1) / 2, d]]))


class TestScriptedPolicies:
    def test_goal_seeker_drives_at_goal_in_the_open(self):
        policy = scripted_policy("goal_seeker")
        action = policy.act(state_from_scan(np.full(180, 3.5))).values
        assert action[0] > 0.5
        assert abs(action[1]) < 0.2

    def test_goal_seeker_reverses_when_blocked(self):
        policy = scripted_policy("goal_seeker")
        readings = np.full(180, 3.5)
        readings[:4] = 0.4
        readings[-4:] = 0.4
        action = policy.act(state_from_scan(readings)).values
        assert action[0] < 0.0

    def test_goal_seeker_steers_toward_goal_bearing(self):
        policy = scripted_policy("goal_seeker")
        theta = math.pi / 3
        action = policy.act(state_from_scan(np.full(180, 3.5), cos=math.cos(theta), sin=math.sin(theta))).values
        assert action[1] > 0.5  # goal on the left, turn left

    def test_left_preferrer_swerves_left_when_clear(self):
        policy = scripted_policy("left_preferrer")
        readings = np.full(180, 3.5)
        readings[:6] = 2.0  # forward obstacle inside the avoid range
        readings[-6:] = 2.0
        action = policy.act(state_from_scan(readings)).values
        assert action[1] > 0.5

    def test_left_preferrer_turns_right_when_left_blocked(self):
        policy = scripted_policy("left_preferrer")
        readings = np.full(180, 3.5)
        readings[:6] = 2.0
        readings[-6:] = 2.0
        readings[30:60] = 1.0  # wall on the left
        action = policy.act(state_from_scan(readings)).values
        assert action[1] < -0.5

    def test_deterministic(self):
        policy = scripted_policy("left_preferrer")
        rng = np.random.default_rng(9)
        for _ in range(20):
            values = rng.random(183)
            state = make_state(values)
            a1 = policy.act(state).values
            a2 = policy.act(make_state(values)).values
            assert np.array_equal(a1, a2)

    def test_actions_stay_bounded(self):
        rng = np.random.default_rng(10)
        for kind in ("goal_seeker", "left_preferrer"):
            policy = scripted_policy(kind)
            for _ in range(50):
                action = policy.act(make_state(rng.random(183))).values
                assert np.all((action >= -1.0) & (action <= 1.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            scripted_policy("wall_hugger")

    def test_fewer_than_eight_rays_rejected(self):
        with pytest.raises(ValueError, match="n_lidar must be >= 8"):
            scripted_policy("goal_seeker", 7)
        assert scripted_policy("left_preferrer", 8).input_size == 11

    @pytest.mark.parametrize("n_lidar", [8.5, 16.0, True, "8"], ids=repr)
    def test_a_ray_count_that_is_not_an_integer_is_refused(self, n_lidar):
        with pytest.raises(ValueError, match=f"^n_lidar must be an integer, got {re.escape(repr(n_lidar))}$"):
            scripted_policy("goal_seeker", n_lidar)

    def test_wrong_state_length_rejected(self):
        policy = scripted_policy("goal_seeker", 16)
        with pytest.raises(ModelError):
            policy.act(make_state(np.zeros(183)))
