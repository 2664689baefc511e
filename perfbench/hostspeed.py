"""Host-speed calibration of the benchmark's timings.

On a shared host a core's speed drifts with the other tenants' load: a
fixed pure-Python loop's time varies by up to 1.7 times within seconds,
and by a third between periods of minutes.  The program runs as fast in
process CPU time as in wall time, so CPU time does not hide the drift,
and a run's fastest samples do not absorb a slow period that outlasts
the run.

So every timed span is measured against a calibration chunk: a fixed
piece of pure-Python work (compiled float lambdas, small recursive
trees), the kind of work affsurf does, that no change to affsurf can
speed up.  A Sampler runs the chunk once when a span begins and then
every INTERVAL_S of wall time from a SIGALRM handler, so a long span is
sampled all along.  A span's time with its chunks taken out is its raw
time.  Its scaled time is the raw time times the mean, over the span's
chunks, of REF_CHUNK_S / chunk time: the chunks fall at even intervals of
wall time, so this adds up each interval at the speed the host ran it,
which is the span's time at the reference speed.  (The median chunk time
in its place moved A.M46's Killing probe by 16% between passes, the mean
speed by 1.3%, because the host's speed is not one level but switches
between several.)  On an unloaded host raw and scaled time are close;
when the host slows down, the chunk slows down with the program and the
scaled time holds.

Standard library only: the worker starts a Sampler before it imports
affsurf, so set-up is scaled too.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

#: wall time between two calibration chunks during a span
INTERVAL_S = 0.025
#: the chunk's time at the reference speed: about its time on an
#: unloaded 2-vCPU Intel Xeon virtual machine with Python 3.11, where it
#: took 0.30-0.35 ms at its fastest and 0.42-0.64 ms at its median
REF_CHUNK_S = 3.5e-4

_perf = time.perf_counter
_poly = eval("lambda x1, x2: ((x1 * x1 + 0.5 * x2) ** 2 - _exp(-x1) * _sin(x2))"  # noqa: S307
             " / (1.0 + x2 * x2)", {"_exp": math.exp, "_sin": math.sin})


class _Node:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def _tree(depth: int):
    return _Node(_tree(depth - 1), _tree(depth - 1)) if depth else 1.5


def _walk(node) -> float:
    if isinstance(node, _Node):
        return _walk(node.left) + 0.5 * _walk(node.right)
    return node


def chunk() -> float:
    """The calibration work: 600 lambda calls and six 127-node trees."""
    s = 0.0
    for i in range(600):
        s += _poly(i * 1e-3, 0.5)
    for _ in range(6):
        s += _walk(_tree(6))
    return s


class Sampler:
    """Calibrated spans: begin() runs a chunk and opens a span, end()
    returns (raw_s, scaled_s) of it.  Between start() and stop() a SIGALRM
    handler runs a chunk every INTERVAL_S.  program_time() is a clock
    that stands still while a chunk runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.total = 0.0
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:  # the timer fired inside a chunk
            return
        self._busy = True
        t = _perf()
        chunk()
        d = _perf() - t
        self.times.append(d)
        self.starts.append(t)
        self.total += d
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def program_time(self) -> float:
        """perf_counter with the chunks run so far taken out."""
        return _perf() - self.total

    def begin(self):
        self.sample()
        return len(self.times) - 1, _perf()

    def end(self, mark) -> tuple[float, float]:
        first, t0 = mark
        t1 = _perf()
        inside = [d for s, d in zip(self.starts[first + 1:], self.times[first + 1:]) if s < t1]
        raw = t1 - t0 - sum(inside)
        chunks = self.times[first:first + 1 + len(inside)]
        return raw, raw * REF_CHUNK_S * statistics.fmean(1.0 / c for c in chunks)
