import sys
import time

import numpy as np
import pytest

from lidar_cfe import BridgeError, BridgeTimeout, ModelState, external_policy

N_INPUTS = 19  # 16 rays + 3 goal features keeps the protocol tests fast
N_OUTPUTS = 2


@pytest.fixture
def bridge_script(tmp_path):
    """Write a python bridge process and return its command line."""

    def make(body: str, name: str = "policy.py") -> list[str]:
        path = tmp_path / name
        path.write_text(body)
        return [sys.executable, str(path)]

    return make


CONSTANT_RESPONDER = f"""
import sys
import time
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
for line in sys.stdin:
    print("0.5 -0.5", flush=True)
"""

REVERSER = f"""
import sys
import time
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
for line in sys.stdin:
    values = [float(v) for v in line.split()]
    linear = -0.5 if values[0] < 0.1 else 0.5
    print(linear, 0.0, flush=True)
"""


def make_state(values):
    return ModelState(np.asarray(values, dtype=float))


def test_constant_responder(bridge_script):
    with external_policy(bridge_script(CONSTANT_RESPONDER), N_INPUTS, N_OUTPUTS) as policy:
        for _ in range(5):
            action = policy.act(make_state(np.full(N_INPUTS, 0.5)))
            assert action.values.tolist() == [0.5, -0.5]


def test_rule_matches_in_process_twin(bridge_script):
    def in_process(values):
        return -0.5 if values[0] < 0.1 else 0.5

    rng = np.random.default_rng(0)
    with external_policy(bridge_script(REVERSER), N_INPUTS, N_OUTPUTS) as policy:
        for _ in range(20):
            values = rng.random(N_INPUTS)
            action = policy.act(make_state(values))
            assert action.values[0] == in_process(values)
            assert action.values[1] == 0.0


def test_process_death_is_surfaced(bridge_script):
    body = f"""
import sys
import time
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
sys.stdin.readline()
sys.exit(3)
"""
    with external_policy(bridge_script(body), N_INPUTS, N_OUTPUTS, timeout=5.0) as policy:
        with pytest.raises(BridgeError):
            policy.act(make_state(np.zeros(N_INPUTS)))


def test_malformed_response_rejected(bridge_script):
    body = f"""
import sys
import time
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
for line in sys.stdin:
    print("not numbers", flush=True)
"""
    with external_policy(bridge_script(body), N_INPUTS, N_OUTPUTS) as policy:
        with pytest.raises(BridgeError, match="malformed"):
            policy.act(make_state(np.zeros(N_INPUTS)))


def test_wrong_arity_response_rejected(bridge_script):
    body = f"""
import sys
import time
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
for line in sys.stdin:
    print("0.1 0.2 0.3", flush=True)
"""
    with external_policy(bridge_script(body), N_INPUTS, N_OUTPUTS) as policy:
        with pytest.raises(BridgeError, match="expected 2 values"):
            policy.act(make_state(np.zeros(N_INPUTS)))


def test_out_of_range_action_rejected(bridge_script):
    body = f"""
import sys
import time
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
for line in sys.stdin:
    print("1.5 0.0", flush=True)
"""
    with external_policy(bridge_script(body), N_INPUTS, N_OUTPUTS) as policy:
        with pytest.raises(BridgeError, match="bad action"):
            policy.act(make_state(np.zeros(N_INPUTS)))


def test_timeout_fires_within_deadline(bridge_script):
    body = f"""
import sys, time
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
sys.stdin.readline()
time.sleep(30)
"""
    with external_policy(bridge_script(body), N_INPUTS, N_OUTPUTS, timeout=0.4) as policy:
        with pytest.raises(BridgeTimeout):
            policy.act(make_state(np.zeros(N_INPUTS)))


def test_handshake_arity_mismatch(bridge_script):
    body = """
import sys
import time
print("HELLO 7 2", flush=True)
for line in sys.stdin:
    print("0.0 0.0", flush=True)
"""
    with pytest.raises(BridgeError, match="handshake mismatch"):
        external_policy(bridge_script(body), N_INPUTS, N_OUTPUTS)


def test_garbled_handshake(bridge_script):
    body = """
print("HOWDY", flush=True)
"""
    with pytest.raises(BridgeError, match="handshake"):
        external_policy(bridge_script(body), N_INPUTS, N_OUTPUTS)


def test_missing_command():
    with pytest.raises(BridgeError, match="could not start"):
        external_policy(["/nonexistent/policy-binary"], N_INPUTS, N_OUTPUTS)


def test_state_round_trip_is_exact(bridge_script):
    # repr-formatted decimals survive the pipe bit for bit.
    body = f"""
import sys
import time
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
for line in sys.stdin:
    values = [float(v) for v in line.split()]
    # Echo back a value derived from the exact input floats.
    print(repr(min(values) - 1.0), repr(max(values) - 1.0), flush=True)
"""
    rng = np.random.default_rng(1)
    values = rng.random(N_INPUTS)
    with external_policy(bridge_script(body), N_INPUTS, N_OUTPUTS) as policy:
        action = policy.act(make_state(values))
        assert action.values[0] == float(values.min()) - 1.0
        assert action.values[1] == float(values.max()) - 1.0


def test_partial_line_then_stall_times_out_within_deadline(bridge_script):
    body = f"""
import sys, time
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
sys.stdin.readline()
sys.stdout.write("0.5 ")
sys.stdout.flush()
time.sleep(30)
"""
    with external_policy(bridge_script(body), N_INPUTS, N_OUTPUTS, timeout=0.4) as policy:
        start = time.monotonic()
        with pytest.raises(BridgeTimeout):
            policy.act(make_state(np.zeros(N_INPUTS)))
        assert time.monotonic() - start < 3.0


def test_stderr_flood_does_not_block_answers(bridge_script):
    # stderr is inherited, not piped, so a child that writes far more than a
    # pipe buffer holds never blocks on it.
    body = f"""
import sys
import time
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
for line in sys.stdin:
    sys.stderr.write("x" * (1 << 20))
    sys.stderr.flush()
    print("0.5 -0.5", flush=True)
"""
    with external_policy(bridge_script(body), N_INPUTS, N_OUTPUTS, timeout=5.0) as policy:
        for _ in range(3):
            assert policy.act(make_state(np.zeros(N_INPUTS))).values.tolist() == [0.5, -0.5]
