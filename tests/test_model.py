import math

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
from lidar_cfe.errors import ModelError
from lidar_cfe.model import _forward

from oracles import conv1d_forward, naive_conv1d, naive_net_forward, random_micro_net, random_wide_net


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

    def test_spec_requires_dense(self):
        with pytest.raises(NetworkConfigError, match="dense"):
            NetworkSpec(8, 3, (Conv1d(1, 4, 3, 1, 1, True),))


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

    def test_wrong_state_length_rejected(self):
        policy = scripted_policy("goal_seeker", 16)
        with pytest.raises(ModelError):
            policy.act(make_state(np.zeros(183)))
