"""Line-protocol bridge to policies running in external processes."""

from __future__ import annotations

import math
import os
import select
import shlex
import subprocess
import time
from itertools import chain

import numpy as np

from .errors import BridgeError, BridgeTimeout
from .ga import require_int, require_real
from .model import PolicyModel, check_action_rows, row_keys


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
    a batch is sent once, in the order of its first occurrence, and its
    answer is copied to its repeats. A state that the previous call sent or
    recalled is not sent again: its answer is recalled. ``_set_reference``
    and ``close`` forget those answers. So the process must answer a line as
    a function of that line alone, across calls too. A timeout, a protocol
    error or output that arrives before a batch is sent closes the process,
    and later calls raise.

    A state line is ``repr`` decimals. Each is built from the reference
    state's line (``_set_reference``, else the first state sent), with the
    runs of values whose bits differ from the reference's formatted anew,
    so -0.0 and 0.0 are written apart and the line is the same as a
    from-scratch one.
    """

    def __init__(self, command, input_size: int, output_size: int, timeout: float = 5.0) -> None:
        self.input_size = require_int("input_size", input_size)
        self.output_size = require_int("output_size", output_size)
        self.timeout = require_real("timeout", timeout)
        if not 0.0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be positive and finite, got {timeout!r}")
        argv = shlex.split(command) if isinstance(command, str) else [str(a) for a in command]
        self.command = argv
        self._buffer = b""
        self._answers: dict[bytes, list[float]] = {}  # the last call's answers, by the state's bytes
        self._reference: tuple | None = None  # the reference's bits, its line and each value's span in the line
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
        self._reject_unsolicited()
        keys = row_keys(np.ascontiguousarray(states, dtype=float))
        answers = {key: self._answers.get(key) for key in keys}  # each distinct state, first occurrence first
        fresh = [key for key, action in answers.items() if action is None]
        if fresh:
            rows = np.frombuffer(b"".join(fresh)).reshape(len(fresh), self.input_size)
            lines = self._exchange(self._lines(rows), len(fresh), "action")
            try:
                answers.update(zip(fresh, [self._parse_action(line) for line in lines]))
            except BridgeError:
                self.close()
                raise
        self._answers = answers
        return np.array([answers[key] for key in keys])

    def _set_reference(self, state: np.ndarray) -> None:
        state = np.array(state, dtype=float)
        texts = [repr(v) for v in state.tolist()]
        lengths = np.array([len(text) for text in texts], dtype=np.intp)
        ends = np.cumsum(lengths + 1) - 1  # one past each value's last character
        self._reference = (state.view(np.int64), " ".join(texts) + "\n", ends - lengths, ends)
        self._answers = {}

    def _lines(self, rows: np.ndarray) -> bytes:
        """One LF-terminated line of ``repr`` decimals per row of a C-contiguous (F, n) array."""
        if self._reference is None:
            self._set_reference(rows[0])
        bits, line, starts, ends = self._reference
        changed = rows.view(np.int64) != bits
        r, c = np.nonzero(np.diff(changed, axis=1, prepend=False, append=False))  # a run of changed values opens and closes
        first, stop, at = c[::2], c[1::2], r[::2] * len(line)
        texts = [repr(v) for v in rows[changed].tolist()]
        bounds = np.cumsum(stop - first).tolist()
        runs = map(" ".join, map(texts.__getitem__, map(slice, [0, *bounds[:-1]], bounds)))
        text = line * len(rows)  # every row as the reference's line; the gaps between runs are cut from it
        gaps = map(text.__getitem__, map(slice, [0, *(at + ends[stop - 1]).tolist()], [*(at + starts[first]).tolist(), len(text)]))
        return "".join([next(gaps), *chain.from_iterable(zip(runs, gaps))]).encode("ascii")

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
        self._answers = {}
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
