"""Line-protocol bridge to policies running in external processes."""

from __future__ import annotations

import os
import select
import shlex
import subprocess
import time

import numpy as np

from .errors import BridgeError, BridgeTimeout
from .model import ActionVector, PolicyModel
from .scan import ModelState


class ExternalPolicy(PolicyModel):
    """Policy spoken to over stdin/stdout, one text line per call.

    Protocol: the process prints ``HELLO <inputs> <outputs>`` on startup,
    then answers each state line (space-separated decimals, LF-terminated)
    with one action line of ``outputs`` decimals in [-1, 1]. The process is
    reused across calls.
    """

    def __init__(self, command, input_size: int, output_size: int, timeout: float = 5.0) -> None:
        self.input_size = int(input_size)
        self.output_size = int(output_size)
        self.timeout = float(timeout)
        argv = shlex.split(command) if isinstance(command, str) else [str(a) for a in command]
        self.command = argv
        self._buffer = b""
        self._proc: subprocess.Popen | None = None
        try:
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise BridgeError(f"could not start policy process {argv!r}: {exc}") from exc
        hello = self._read_line("handshake")
        parts = hello.split()
        if len(parts) != 3 or parts[0] != "HELLO":
            self.close()
            raise BridgeError(f"bad handshake line {hello!r}, expected 'HELLO <inputs> <outputs>'")
        try:
            n_in, n_out = int(parts[1]), int(parts[2])
        except ValueError:
            self.close()
            raise BridgeError(f"bad handshake line {hello!r}: sizes must be integers") from None
        if (n_in, n_out) != (self.input_size, self.output_size):
            self.close()
            raise BridgeError(
                f"handshake mismatch: process speaks {n_in}->{n_out}, configured {self.input_size}->{self.output_size}"
            )

    def act(self, state: ModelState) -> ActionVector:
        if self._proc is None:
            raise BridgeError("policy process is closed")
        if len(state) != self.input_size:
            raise BridgeError(f"state length {len(state)}, bridge expects {self.input_size}")
        line = " ".join(repr(float(v)) for v in state.values) + "\n"
        try:
            self._proc.stdin.write(line.encode("ascii"))
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise BridgeError(f"policy process died (exit code {self._proc.poll()})") from exc
        reply = self._read_line("action")
        fields = reply.split()
        if len(fields) != self.output_size:
            raise BridgeError(f"malformed action line {reply!r}: expected {self.output_size} values")
        try:
            values = np.array([float(f) for f in fields])
        except ValueError:
            raise BridgeError(f"malformed action line {reply!r}: not all fields are numbers") from None
        try:
            return ActionVector(values)
        except ValueError as exc:
            raise BridgeError(f"bad action line {reply!r}: {exc}") from None

    def _read_line(self, what: str) -> str:
        deadline = time.monotonic() + self.timeout
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BridgeTimeout(f"timed out after {self.timeout:g}s waiting for {what} line")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue  # loop re-checks the deadline
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BridgeError(
                    f"policy process closed its output while waiting for {what} line "
                    f"(exit code {self._proc.poll()})"
                )
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode("utf-8", "replace").strip()

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

    def __enter__(self) -> "ExternalPolicy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


def external_policy(command, input_size: int, output_size: int, timeout: float = 5.0) -> ExternalPolicy:
    """Start ``command`` and wrap it as a policy via the line protocol."""
    return ExternalPolicy(command, input_size, output_size, timeout=timeout)
