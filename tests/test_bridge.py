import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_cfe import BridgeError, BridgeTimeout, ModelState, external_policy

from oracles import frozen_state_lines

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


@pytest.mark.parametrize(
    "command, message",
    [
        ("", "policy command '' names no program"),
        ("   ", "policy command '   ' names no program"),
        ([], "policy command [] names no program"),
        ("'unclosed", "cannot parse policy command \"'unclosed\": No closing quotation"),
        ("policy \\", "cannot parse policy command 'policy \\\\': No escaped character"),
    ],
    ids=["empty", "blank", "empty-list", "unclosed-quote", "trailing-escape"],
)
def test_a_command_that_names_no_program_is_a_bridge_error(command, message):
    with pytest.raises(BridgeError) as caught:
        external_policy(command, N_INPUTS, N_OUTPUTS)
    assert str(caught.value) == message


NOT_POSITIVE = "timeout must be positive and finite"


@pytest.mark.parametrize(
    "timeout, message",
    [
        pytest.param(0.0, NOT_POSITIVE, id="0.0"),
        pytest.param(-1.0, NOT_POSITIVE, id="-1.0"),
        pytest.param(float("nan"), NOT_POSITIVE, id="nan"),
        pytest.param(float("inf"), NOT_POSITIVE, id="inf"),
        pytest.param(True, "timeout must be a number, got True", id="bool"),
        pytest.param("5", "timeout must be a number, got '5'", id="string"),
        pytest.param(10**400, "timeout is too large for a float", id="huge"),
    ],
)
def test_timeout_that_is_not_positive_and_finite_is_refused_before_the_spawn(timeout, message):
    # The command cannot start, so a spawn would raise BridgeError instead.
    with pytest.raises(ValueError, match=message):
        external_policy(["/nonexistent/policy-binary"], N_INPUTS, N_OUTPUTS, timeout=timeout)


@pytest.mark.parametrize(
    "sizes, message",
    [
        pytest.param((4.7, N_OUTPUTS), "input_size must be an integer, got 4.7", id="input-float"),
        pytest.param((True, N_OUTPUTS), "input_size must be an integer, got True", id="input-bool"),
        pytest.param((N_INPUTS, 2.0), "output_size must be an integer, got 2.0", id="output-float"),
        pytest.param((N_INPUTS, "2"), "output_size must be an integer, got '2'", id="output-string"),
    ],
)
def test_a_size_that_is_not_an_integer_is_refused_before_the_spawn(sizes, message):
    # The command cannot start, so a spawn would raise BridgeError instead.
    with pytest.raises(ValueError, match=f"^{message}$"):
        external_policy(["/nonexistent/policy-binary"], *sizes)


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


# A child that answers each state line with (-first value, last value), both
# as repr text, so every reply bit depends on the exact floats that crossed
# the pipe. ``sleep_first`` delays the first reply; ``pad`` appends that many
# spaces to each reply line; after ``stall_after`` replies it stops answering;
# the reply to line ``bad_at`` is ``bad`` and every later one is ``after_bad``.
ECHO_CHILD = f"""
import sys, time
sleep_first, pad, stall_after, bad_at, bad, after_bad = {{config}}
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
for i, line in enumerate(sys.stdin):
    if i == 0:
        time.sleep(sleep_first)
    if i == stall_after:
        time.sleep(30)
    values = [float(v) for v in line.split()]
    reply = repr(-values[0]) + " " + repr(values[-1])
    if bad_at is not None and i >= bad_at:
        reply = bad if i == bad_at else after_bad
    print(reply + " " * pad, flush=True)
"""


def echo_child(bridge_script, sleep_first=0.0, pad=0, stall_after=None, bad_at=None, bad="", after_bad=""):
    config = (sleep_first, pad, stall_after, bad_at, bad, after_bad)
    return bridge_script(ECHO_CHILD.replace("{config}", repr(config)))


def echo_states(rows, seed=5):
    states = np.random.default_rng(seed).random((rows, N_INPUTS))
    states[0, 0] = -0.0  # the sign of zero must cross the pipe too
    if rows > 1:
        states[1, 0] = 0.0
    return states


@pytest.mark.parametrize("rows", [1, 7, 300])
def test_act_batch_rows_equal_act_bit_for_bit(bridge_script, rows):
    states = echo_states(rows)
    with external_policy(echo_child(bridge_script), N_INPUTS, N_OUTPUTS) as policy:
        batch = policy.act_batch(states)
        singles = np.array([policy.act(ModelState(row)).values for row in states])
    expected = np.stack([-states[:, 0], states[:, -1]], axis=1)
    assert batch.shape == (rows, N_OUTPUTS)
    assert batch.tobytes() == singles.tobytes() == expected.tobytes()


def test_a_batch_of_the_wrong_width_is_refused_and_an_empty_one_sends_nothing(bridge_script):
    states = echo_states(3)
    with external_policy(echo_child(bridge_script), N_INPUTS, N_OUTPUTS) as policy:
        with pytest.raises(BridgeError, match=f"^state length {N_INPUTS + 1}, bridge expects {N_INPUTS}$"):
            policy.act_batch(np.zeros((2, N_INPUTS + 1)))
        assert policy.act_batch(np.empty((0, N_INPUTS))).shape == (0, N_OUTPUTS)
        batch = policy.act_batch(states)  # each answer is still its own state's
    assert batch.tobytes() == np.stack([-states[:, 0], states[:, -1]], axis=1).tobytes()


def test_batch_larger_than_both_pipe_buffers_does_not_deadlock(bridge_script):
    # 2000 requests (about 700 KB) against 2000 replies padded to about 4 KB
    # (about 8 MB): both directions overflow a 64 KB pipe buffer, so writing
    # every request before reading any reply would block both processes.
    states = echo_states(2000)
    with external_policy(echo_child(bridge_script, pad=4000), N_INPUTS, N_OUTPUTS, timeout=5.0) as policy:
        start = time.monotonic()
        batch = policy.act_batch(states)
        assert time.monotonic() - start < 5.0
    assert batch.tobytes() == np.stack([-states[:, 0], states[:, -1]], axis=1).tobytes()


def test_batch_stalled_after_k_replies_times_out_within_deadline(bridge_script):
    with external_policy(echo_child(bridge_script, stall_after=3), N_INPUTS, N_OUTPUTS, timeout=0.4) as policy:
        start = time.monotonic()
        with pytest.raises(BridgeTimeout, match=r"\(3 of 10 answered\)"):
            policy.act_batch(echo_states(10))
        assert time.monotonic() - start < 3.0
        with pytest.raises(BridgeError, match="policy process is closed"):
            policy.act_batch(echo_states(10))


@pytest.mark.parametrize(
    "bad",
    ["not numbers", "0.1 0.2 0.3", "0.5", "1.5 0.0", "nan 0.0", "-inf 0.0", ""],
)
def test_bad_reply_in_a_batch_raises_what_act_raises(bridge_script, bad):
    # Row 4 is bad, and so is every later row in a different way: the error
    # must name row 4's line, with the message act gives for that line alone.
    with external_policy(echo_child(bridge_script, bad_at=0, bad=bad), N_INPUTS, N_OUTPUTS) as policy:
        with pytest.raises(BridgeError) as single:
            policy.act(ModelState(echo_states(1)[0]))
    with external_policy(
        echo_child(bridge_script, bad_at=4, bad=bad, after_bad="7.0 7.0 7.0"), N_INPUTS, N_OUTPUTS
    ) as policy:
        with pytest.raises(BridgeError) as batched:
            policy.act_batch(echo_states(9))
        assert str(batched.value) == str(single.value)
        assert type(batched.value) is type(single.value)
        with pytest.raises(BridgeError, match="policy process is closed"):
            policy.act_batch(echo_states(9))


def test_late_reply_never_answers_a_later_call(bridge_script):
    # The first reply arrives after the deadline. It must not be taken as the
    # answer to the next state: the timed-out process is closed instead.
    with external_policy(echo_child(bridge_script, sleep_first=0.6), N_INPUTS, N_OUTPUTS, timeout=0.4) as policy:
        with pytest.raises(BridgeTimeout):
            policy.act(make_state(np.full(N_INPUTS, 0.25)))
        time.sleep(0.4)  # the late reply to 0.25 is now in the pipe
        with pytest.raises(BridgeError, match="policy process is closed"):
            policy.act(make_state(np.full(N_INPUTS, 0.75)))


@pytest.mark.parametrize("gap", [0.0, 0.2])
def test_unsolicited_reply_is_rejected_before_the_next_batch(bridge_script, gap):
    # Two lines per request. With no gap both arrive in one read, so the
    # bridge holds the extra line; with a gap it is still in the pipe when
    # 0.75 is asked. Either way it must not answer 0.75.
    body = f"""
import sys, time
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
for line in sys.stdin:
    first = float(line.split()[0])
    sys.stdout.write(f"{{-first}} 0.0\\n")
    if {gap}:
        sys.stdout.flush()
        time.sleep({gap})
    sys.stdout.write(f"{{-first}} 0.5\\n")
    sys.stdout.flush()
"""
    with external_policy(bridge_script(body), N_INPUTS, N_OUTPUTS) as policy:
        assert policy.act(make_state(np.full(N_INPUTS, 0.25))).values.tolist() == [-0.25, 0.0]
        time.sleep(2 * gap)
        with pytest.raises(BridgeError, match=r"unsolicited output .*-0\.25 0\.5"):
            policy.act(make_state(np.full(N_INPUTS, 0.75)))
        with pytest.raises(BridgeError, match="policy process is closed"):
            policy.act(make_state(np.full(N_INPUTS, 0.75)))


# An echo child that also writes every state line it receives to the file named by its argument.
LOGGING_CHILD = f"""
import sys
log = open(sys.argv[1], "w")
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
for line in sys.stdin:
    log.write(line)
    log.flush()
    values = [float(v) for v in line.split()]
    print(repr(-values[0]) + " " + repr(values[-1]), flush=True)
"""


def repeated_states():
    """Ten rows over five distinct states; states 0 and 1 differ only in the sign of a zero."""
    base = echo_states(5)
    base[1] = base[0]
    base[1, 0] = 0.0
    order = [0, 2, 0, 1, 2, 3, 3, 0, 4, 1]
    return base, order


def test_act_batch_sends_each_distinct_state_once_in_first_occurrence_order(bridge_script, tmp_path):
    base, order = repeated_states()
    states = base[order]
    log = tmp_path / "received.txt"
    with external_policy(bridge_script(LOGGING_CHILD) + [str(log)], N_INPUTS, N_OUTPUTS) as policy:
        batch = policy.act_batch(states)
    assert batch.tobytes() == np.stack([-states[:, 0], states[:, -1]], axis=1).tobytes()
    received = [np.array([float(v) for v in line.split()]).tobytes() for line in log.read_text().splitlines()]
    assert received == [base[i].tobytes() for i in (0, 2, 1, 3, 4)]


def test_batch_with_repeats_stalled_after_k_replies_counts_the_lines_sent(bridge_script):
    base, order = repeated_states()
    with external_policy(echo_child(bridge_script, stall_after=3), N_INPUTS, N_OUTPUTS, timeout=0.4) as policy:
        with pytest.raises(BridgeTimeout, match=r"\(3 of 5 answered\)"):
            policy.act_batch(base[order])


@pytest.mark.parametrize("bad", ["not numbers", "1.5 0.0"])
def test_bad_reply_in_a_batch_with_repeats_names_the_first_bad_line(bridge_script, bad):
    # The third distinct state (row 3 of the batch) gets the bad reply, every later one another bad reply.
    with external_policy(echo_child(bridge_script, bad_at=0, bad=bad), N_INPUTS, N_OUTPUTS) as policy:
        with pytest.raises(BridgeError) as single:
            policy.act(ModelState(echo_states(1)[0]))
    base, order = repeated_states()
    with external_policy(
        echo_child(bridge_script, bad_at=2, bad=bad, after_bad="7.0 7.0 7.0"), N_INPUTS, N_OUTPUTS
    ) as policy:
        with pytest.raises(BridgeError) as batched:
            policy.act_batch(base[order])
        assert str(batched.value) == str(single.value)


def test_first_bad_line_is_named_whatever_its_fault(bridge_script):
    # The 2nd distinct line is out of range and the 4th is malformed. A
    # malformed line fails an earlier check than a range does, but the error
    # still names the 2nd line: lines are checked in order.
    body = f"""
import sys
replies = ["0.1 0.2", "1.5 0.0", "0.3 0.4", "not numbers", "0.5 0.6"]
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
for i, line in enumerate(sys.stdin):
    print(replies[i], flush=True)
"""
    base, order = repeated_states()
    with external_policy(bridge_script(body), N_INPUTS, N_OUTPUTS) as policy:
        with pytest.raises(BridgeError) as raised:
            policy.act_batch(base[order])
        assert str(raised.value) == "bad action line '1.5 0.0': action values must lie in [-1, 1], got [1.5, 0.0]"
        with pytest.raises(BridgeError, match="policy process is closed"):
            policy.act_batch(base[order])


def received_rows(log):
    """The bytes of each state line a logging child received, parsed back to floats."""
    return [np.array([float(v) for v in line.split()]).tobytes() for line in log.read_text().splitlines()]


def eight_states():
    """Eight distinct states; states 0 and 1 differ only in the sign of a zero."""
    base = echo_states(8)
    base[1] = base[0]
    base[1, 0] = 0.0
    return base


def test_act_batch_sends_only_the_states_the_previous_batch_did_not_answer(bridge_script, tmp_path):
    # The second batch recalls 2 and 0, which the first sent. The third recalls 0,
    # which the second recalled, and 6, which it sent; 3, which only the first
    # batch sent, goes out again.
    base = eight_states()
    batches = [[0, 1, 2, 1, 3], [4, 2, 0, 5, 4, 6], [0, 3, 6, 7, 0]]
    log = tmp_path / "received.txt"
    with external_policy(bridge_script(LOGGING_CHILD) + [str(log)], N_INPUTS, N_OUTPUTS) as policy:
        for order in batches:
            states = base[order]
            assert policy.act_batch(states).tobytes() == np.stack([-states[:, 0], states[:, -1]], axis=1).tobytes()
    sent = [0, 1, 2, 3, 4, 5, 6, 3, 7]
    assert received_rows(log) == [base[i].tobytes() for i in sent]
    assert log.read_bytes() == frozen_state_lines(base[sent])


def test_set_reference_and_a_new_bridge_forget_the_answers(bridge_script, tmp_path):
    base = eight_states()
    logs = tmp_path / "first.txt", tmp_path / "second.txt"
    with external_policy(bridge_script(LOGGING_CHILD) + [str(logs[0])], N_INPUTS, N_OUTPUTS) as policy:
        policy.act_batch(base[:3])
        policy._set_reference(base[5])
        policy.act_batch(base[:3])
    with external_policy(bridge_script(LOGGING_CHILD) + [str(logs[1])], N_INPUTS, N_OUTPUTS) as policy:
        policy.act_batch(base[:3])
    assert received_rows(logs[0]) == [row.tobytes() for row in base[[0, 1, 2, 0, 1, 2]]]
    assert logs[0].read_bytes() == frozen_state_lines(base[[0, 1, 2, 0, 1, 2]])
    assert received_rows(logs[1]) == [row.tobytes() for row in base[:3]]


def test_a_closed_bridge_raises_for_states_it_answered(bridge_script):
    states = eight_states()[:3]
    with external_policy(echo_child(bridge_script), N_INPUTS, N_OUTPUTS) as policy:
        policy.act_batch(states)
        policy.close()
        with pytest.raises(BridgeError, match="policy process is closed"):
            policy.act_batch(states)


def test_unsolicited_reply_is_rejected_before_a_batch_the_previous_one_answers(bridge_script):
    body = f"""
import sys
print("HELLO {N_INPUTS} {N_OUTPUTS}", flush=True)
for line in sys.stdin:
    print("0.5 0.0", flush=True)
    print("0.5 0.5", flush=True)
"""
    state = make_state(np.full(N_INPUTS, 0.25))
    with external_policy(bridge_script(body), N_INPUTS, N_OUTPUTS) as policy:
        assert policy.act(state).values.tolist() == [0.5, 0.0]
        time.sleep(0.2)
        with pytest.raises(BridgeError, match=r"unsolicited output .*0\.5 0\.5"):
            policy.act(state)


def test_timeout_after_a_recall_counts_the_lines_sent(bridge_script):
    base = eight_states()
    with external_policy(echo_child(bridge_script, stall_after=3), N_INPUTS, N_OUTPUTS, timeout=0.4) as policy:
        policy.act_batch(base[:2])
        with pytest.raises(BridgeTimeout, match=r"\(1 of 3 answered\)"):
            policy.act_batch(base[:5])


@pytest.fixture(scope="module")
def line_bridge(tmp_path_factory):
    """One bridge whose line formatter the property test drives; its process is never asked."""
    path = tmp_path_factory.mktemp("bridge") / "policy.py"
    path.write_text(CONSTANT_RESPONDER)
    with external_policy([sys.executable, str(path)], N_INPUTS, N_OUTPUTS) as policy:
        yield policy


OTHER_NAN = float(np.array([0x7FF8000000000001]).view(float)[0])  # a NaN with another payload
STATE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.1, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan, OTHER_NAN]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def state_batches(draw):
    """A reference state and a batch of its edits, repeats, sign flips and unrelated states."""
    n = draw(st.integers(0, 12))
    reference = np.array(draw(st.lists(STATE_VALUES, min_size=n, max_size=n)), dtype=float)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["reference", "edited", "unrelated", "repeat"]))
        if kind == "repeat" and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        elif kind == "unrelated":
            rows.append(np.array(draw(st.lists(STATE_VALUES, min_size=n, max_size=n)), dtype=float))
        else:
            row = reference.copy()
            for i in draw(st.lists(st.integers(0, n - 1), max_size=n)) if kind == "edited" and n else []:
                row[i] = -row[i] if draw(st.booleans()) else draw(STATE_VALUES)
            rows.append(row)
    return reference, np.array(rows).reshape(len(rows), n)


@settings(max_examples=300, deadline=None)
@given(batch=state_batches(), with_reference=st.booleans())
def test_spliced_lines_equal_lines_formatted_from_scratch(line_bridge, batch, with_reference):
    reference, rows = batch
    if with_reference:
        line_bridge._set_reference(reference)
    else:
        line_bridge._reference = None  # the first row sent becomes the reference
    assert line_bridge._lines(rows) == frozen_state_lines(rows)
