"""Host-speed probes: wall times of the benchmark read at a reference speed.

The speed of a shared host drifts by up to 2x within minutes.  A probe times
a fixed kernel that calls nothing in `src/`, between the benchmark's
operations; `scaled` converts an operation's wall time to the reference speed
with the median of the probes nearest to it.  A change to the program moves
scaled times as it moves wall times; a change in host speed moves the probes
too and mostly cancels out.

    python3 perfbench/speed.py     # a lockstep peer: one kernel slice per byte read
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REF_MS = 2.0  # reported times assume a probe takes this long
WINDOW = 9  # probes nearest to an operation that set its speed
LOCKSTEP_ROUNDS = 10

_SMALL = np.random.default_rng(0).random(64)
_BIG = np.random.default_rng(1).random(1 << 18)


def kernel(loops: int = 20_000, calls: int = 300, stream: bool = True) -> None:
    """Interpreter work, small numpy calls and a 2 MB streaming pass: the mix
    the program itself spends its time in."""
    acc = 0
    for i in range(loops):
        acc += i * i
    for _ in range(calls):
        _SMALL.sum()
    if stream:
        (_BIG * _BIG).sum()


class SpeedProbe:
    """Host speed over a run, from kernels timed between operations."""

    def __init__(self):
        self.at: list[float] = []
        self.ms: list[float] = []

    def _measure(self) -> None:
        kernel()

    def probe(self, times: int = 1) -> float:
        """Take `times` probes; returns the clock after the last."""
        end = time.perf_counter()
        for _ in range(times):
            start = end
            self._measure()
            end = time.perf_counter()
            self.at.append((start + end) / 2)
            self.ms.append((end - start) * 1e3)
        return end

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would take at the reference speed."""
        mid = (start + end) / 2
        nearest = np.argsort(np.abs(np.asarray(self.at) - mid), kind="stable")[:WINDOW]
        return (end - start) * REF_MS / float(np.median(np.asarray(self.ms)[nearest]))

    def close(self) -> None:
        pass


class LockstepProbe(SpeedProbe):
    """Probe shaped like a master with lockstep workers.

    Each round sends one byte to every peer process, which runs a tenth of the
    kernel and answers; the master waits for all answers.  Like a distributed
    Gibbs iteration it needs every CPU and a process wake-up per message, which
    is where a shared host slows a TCP run down most.
    """

    def __init__(self, peers: int):
        super().__init__()
        self._peers = [
            subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE)
            for _ in range(peers)
        ]

    def _measure(self) -> None:
        for _ in range(LOCKSTEP_ROUNDS):
            for peer in self._peers:
                peer.stdin.write(b"x")
                peer.stdin.flush()
            for peer in self._peers:
                if peer.stdout.read(1) != b"x":
                    raise RuntimeError("a probe peer exited")

    def close(self) -> None:
        for peer in self._peers:
            peer.stdin.close()
        for peer in self._peers:
            peer.wait(timeout=30)
            peer.stdout.close()


def _peer() -> None:
    while sys.stdin.buffer.read(1):
        kernel(loops=2_000, calls=30, stream=False)
        sys.stdout.buffer.write(b"x")
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    _peer()
