"""Host-speed probes: fixed pieces of work timed next to every timed sample.

The benchmark runs on a few cores of a shared host.  Over minutes the same
pass there runs 15-50% slower or faster, in wall time and in CPU time alike,
and every kind of work in the benchmark moves together (see README.md).  A
single run lands in one such state, so ten runs of the same code spread by
more than a regression bound.

Two probes use numpy alone and none of kernelconnect, so no change to the
library moves them:

- `measure()` times `probe()` in process.  It does the kinds of work a pass
  does: a scalar-kernel Gram filled by a Python loop of small-array calls,
  small dense Hermitian eigen- and linear solves, and a walk over a few MB
  of Python objects.
- `measure_child(env)` times a fresh `python -c "import numpy"`, the process
  start and import work that dominates a cold CLI run or set-up probe.

run.py divides each timed sample by the mean of the matching probe timed
just before and just after it (`Bracket`) and multiplies by that probe's
median on the reference machine: the result is the sample's seconds at the
reference machine's speed.  On the reference machine in its usual state it
equals the raw wall time.
"""

import statistics
import subprocess
import sys
import time

import numpy as np

# medians on the reference machine of README.md: 340 in-process probe pairs
# over ten runs, and 150 child probes over 270 seconds (a run record keeps
# its probes' median under passes.host_probe and cli.host_probe)
REFERENCE_S = 0.0100
CHILD_REFERENCE_S = 0.172
REPEATS = 5
CHILD_TIMEOUT = 60

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_H = _A @ _A.conj().T + np.eye(6)
_POINTS = [complex(z) for z in 0.9 * np.sqrt(_rng.uniform(size=64))
           * np.exp(2j * np.pi * _rng.uniform(size=64))]
_OBJECTS = [{"k": i, "v": [float(i)] * 8, "z": complex(i, 1)} for i in range(20000)]


def _kernel(s, t):
    return np.array([[(1.0 - s[0] * np.conj(t[0])) ** -2]])


def probe():
    gram = np.empty((64, 32), dtype=complex)
    points = [np.array([z]) for z in _POINTS]
    for i, s in enumerate(points):
        for j, t in enumerate(points[:32]):
            gram[i, j] = _kernel(s, t)[0, 0]
    x = _H
    for _ in range(100):
        _, v = np.linalg.eigh(x)
        y = np.linalg.solve(x + 10.0 * np.eye(6), v)
        x = _H + 1e-3 * (y @ y.conj().T)
    acc = 0.0
    for o in _OBJECTS[::2]:
        acc += o["v"][3] + o["z"].real
    return gram, x, acc


def measure() -> float:
    """Median wall time of REPEATS in-process probes, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_child(env: dict) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits, in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True,
                   check=True, timeout=CHILD_TIMEOUT)
    return time.perf_counter() - start


class Bracket:
    """Pairs each timed sample with the mean of the probes timed just before
    and just after it.  `start()` takes the probe before; without it, the
    probe after the previous sample serves."""

    def __init__(self, measure_fn, reference_s: float):
        self.measure = measure_fn
        self.reference_s = reference_s
        self.last = None

    def start(self) -> None:
        self.last = self.measure()

    def pair(self, seconds):
        """(seconds, probe seconds) for one sample."""
        before, self.last = self.last, self.measure()
        return seconds, (before + self.last) / 2

    def adjust(self, sample) -> float:
        """A sample's seconds at the reference machine's speed."""
        seconds, probe_s = sample
        return seconds * self.reference_s / probe_s

