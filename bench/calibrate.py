"""Measure how fast the host runs while a pass runs, and rescale the pass's times by it.

The host this benchmark was written on is a virtual machine that shares
its cores.  Its speed swings by up to 1.7x, from one second to the next
and for minutes at a time, and the qsattack passes slow down with it:
the raw pass times of ten runs spread by up to 34% (quartile distance
over median).  So every timed pass runs under a ``HostSampler``: a timer
interrupts the program every ``PERIOD_S`` seconds, and the signal handler
runs a fixed reference work in the same thread, timing it.  That work is
a small mix of what the program does: minibatch softmax gradient steps,
a one-dimensional convolution and scalar predictions, numpy on small
arrays driven from Python.  A pass's time, less the samples' time, is
divided by how much slower the samples ran than ``REFERENCE_S``.
Rescaled, the same spreads fell to 1-5%.

The reference work is the benchmark's own code and does not change with
the program, so a program that gets faster or slower moves the rescaled
times by the same share.  Rescaled times read as seconds on the
development host at its quiet speed (2-vCPU Xeon VM, Python 3.11,
numpy 2.4, one BLAS thread).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
# Wall (and CPU) seconds one sample took on the development host at its
# quiet speed, near the tenth percentile of 300 samples.
REFERENCE_S = 0.0110

_REPEATS = 3
_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((256, 64))
_Y = _rng.integers(0, 3, 256)
_W0 = 0.1 * _rng.standard_normal((3, 64))
_K = 0.1 * _rng.standard_normal((8, 4, 9))
_S = _rng.standard_normal((32, 4, 16))


def _work() -> float:
    W, b = _W0.copy(), np.zeros(3)
    for _ in range(6):  # epochs of minibatch softmax regression
        for i in range(0, len(_X), 32):
            xb, yb = _X[i:i + 32], _Y[i:i + 32]
            z = xb @ W.T + b
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(len(yb)), yb] -= 1.0
            W -= 0.01 * (p.T @ xb) / len(yb)
            b -= 0.01 * p.mean(axis=0)
    padded = np.pad(_S, ((0, 0), (0, 0), (4, 4)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, 9, axis=2)
    acc = float(np.einsum("nctk,fck->nft", windows, _K).sum())
    for x in _X:  # scalar predictions, as query synthesis makes them
        z = W @ x + b
        acc += int(np.argmax(np.exp(z - z.max())))
    return acc


def sample() -> tuple:
    """Wall and CPU seconds of one run of the reference work."""
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(_REPEATS):
        _work()
    return time.perf_counter() - w0, time.process_time() - c0


def warm_up(n: int = 50) -> None:
    for _ in range(n):
        sample()


class HostSampler:
    """Samples the host's speed on a timer while the ``with`` block runs.

    One sample is taken on entry, so there is at least one.  ``wall_s``
    and ``cpu_s`` are the seconds the samples took, to subtract from the
    block's own times; ``slowdown()`` is what to divide the rest by.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _on_timer(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self.samples.append(sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def wall_s(self) -> float:
        return sum(w for w, _ in self.samples)

    @property
    def cpu_s(self) -> float:
        return sum(c for _, c in self.samples)

    def slowdown(self) -> tuple:
        """How many times slower than the reference the samples ran: (wall, CPU)."""
        return (statistics.fmean(w for w, _ in self.samples) / REFERENCE_S,
                statistics.fmean(c for _, c in self.samples) / REFERENCE_S)
