"""Line-protocol bridge to policies running in external processes."""

from __future__ import annotations

import math
import os
import select
import shlex
import subprocess
import time

import numpy as np

from .errors import BridgeError, BridgeTimeout
from .model import PolicyModel, check_action_rows, distinct_rows


def _state_lines(states: np.ndarray) -> bytes:
    """One LF-terminated line of ``repr`` decimals per state row.

    Rows share most values (the base scan, the goal), so each distinct
    value, told apart by its bits so that -0.0 stays distinct from 0.0, is
    formatted once.
    """
    bits = np.ascontiguousarray(states, dtype=float).view(np.int64)
    distinct, where = np.unique(bits, return_inverse=True)
    texts = np.array([repr(v) for v in distinct.view(float).tolist()], dtype=object)
    rows = texts[where.reshape(states.shape)].tolist()
    return "".join([" ".join(row) + "\n" for row in rows]).encode("ascii")


class ExternalPolicy(PolicyModel):
    """Policy spoken to over stdin/stdout, one text line per state.

    Protocol: the process prints ``HELLO <inputs> <outputs>`` on startup,
    then answers each state line (space-separated decimals, LF-terminated)
    with one action line of ``outputs`` decimals in [-1, 1]. The process is
    reused across calls.

    ``act_batch`` sends a whole batch: it writes state lines while it reads
    replies, so the process may get later state lines before its earlier
    replies are read. It must answer in order, one line per request; the
    wire format is the same as for a single ``act``. Each distinct state of
    a batch is sent once, in the order of its first occurrence
    (``distinct_rows``), and its answer is copied to its repeats, so the
    process must answer a line as a function of that line alone. A timeout,
    a protocol error or output that arrives before a batch is sent closes
    the process, and later calls raise.
    """

    def __init__(self, command, input_size: int, output_size: int, timeout: float = 5.0) -> None:
        self.input_size = int(input_size)
        self.output_size = int(output_size)
        self.timeout = float(timeout)
        if not 0.0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be positive and finite, got {timeout!r}")
        argv = shlex.split(command) if isinstance(command, str) else [str(a) for a in command]
        self.command = argv
        self._buffer = b""
        self._proc: subprocess.Popen | None = None
        try:
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise BridgeError(f"could not start policy process {argv!r}: {exc}") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)
        (hello,) = self._exchange(b"", 1, "handshake")
        try:
            tag, n_in, n_out = hello.split()
            agreed = tag == "HELLO" and (int(n_in), int(n_out)) == (self.input_size, self.output_size)
        except ValueError:  # not three fields, or a size that is not an integer
            agreed = False
        if not agreed:
            self.close()
            raise BridgeError(f"handshake mismatch: process sent {hello!r}, expected 'HELLO {self.input_size} {self.output_size}'")

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        if self._proc is None:
            raise BridgeError("policy process is closed")
        if states.shape[1] != self.input_size:
            raise BridgeError(f"state length {states.shape[1]}, bridge expects {self.input_size}")
        if len(states) == 0:
            return np.empty((0, self.output_size))
        distinct, inverse = distinct_rows(states)
        self._reject_unsolicited()
        lines = self._exchange(_state_lines(distinct), len(distinct), "action")
        try:
            actions = [self._parse_action(line) for line in lines]
        except BridgeError:
            self.close()
            raise
        return np.array(actions)[inverse]

    def _parse_action(self, line: str) -> list[float]:
        """The values of one action line, checked for arity, then for numbers, then for range."""
        fields = line.split()
        if len(fields) != self.output_size:
            raise BridgeError(f"malformed action line {line!r}: expected {self.output_size} values")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise BridgeError(f"malformed action line {line!r}: not all fields are numbers") from None
        if not all(-1.0 <= v <= 1.0 for v in values):  # also false for NaN
            try:
                check_action_rows(np.array([values]))  # raises, naming what is wrong
            except ValueError as exc:
                raise BridgeError(f"bad action line {line!r}: {exc}") from None
        return values

    def _reject_unsolicited(self) -> None:
        """Close the process and raise if it has output that no request asked for.

        Replies carry no request ids, so only output present before a
        batch's first write can be told apart from an answer.
        """
        extra = self._buffer
        out_fd = self._proc.stdout.fileno()
        if select.select([out_fd], [], [], 0)[0]:
            extra += os.read(out_fd, 65536)
        if extra:
            self.close()
            raise BridgeError(f"unsolicited output from policy process: {extra.decode('utf-8', 'replace')!r}")

    def _exchange(self, payload: bytes, count: int, what: str) -> list[str]:
        """Write ``payload`` while reading ``count`` reply lines; close the process on failure.

        One ``select`` loop does both, so replies that fill the pipe never
        block the writes. Each reply line must arrive within ``timeout``
        seconds of the previous one.
        """
        proc = self._proc
        out_fd, in_fd = proc.stdin.fileno(), proc.stdout.fileno()
        unsent = memoryview(payload)
        chunks = [self._buffer]
        got = self._buffer.count(b"\n")
        deadline = time.monotonic() + self.timeout
        try:
            while unsent or got < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    answered = f" ({got} of {count} answered)" if count > 1 else ""
                    raise BridgeTimeout(f"timed out after {self.timeout:g}s waiting for {what} line{answered}")
                readable, writable, _ = select.select([in_fd], [out_fd] if unsent else [], [], remaining)
                if writable:
                    try:
                        unsent = unsent[os.write(out_fd, unsent) :]
                    except BlockingIOError:
                        pass
                    except OSError as exc:
                        raise BridgeError(f"policy process died (exit code {proc.poll()})") from exc
                if readable:
                    chunk = os.read(in_fd, 65536)
                    if not chunk:
                        raise BridgeError(
                            f"policy process closed its output while waiting for {what} line "
                            f"(exit code {proc.poll()})"
                        )
                    chunks.append(chunk)
                    if b"\n" in chunk:
                        got += chunk.count(b"\n")
                        deadline = time.monotonic() + self.timeout
        except BaseException:  # replies still in flight must never answer a later call
            self.close()
            raise
        *lines, self._buffer = b"".join(chunks).split(b"\n", count)
        return [line.decode("utf-8", "replace").strip() for line in lines]

    def close(self) -> None:
        """Terminate the child process; safe to call more than once."""
        proc = self._proc
        if proc is None:
            return
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._proc = None

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


external_policy = ExternalPolicy  # the public name: start ``command`` and wrap it as a policy via the line protocol
