"""How fast the host runs right now, from a fixed calibration kernel.

The shared 2-vCPU host the benchmark was built on runs the same code up to
~60% faster or slower for minutes at a time. CPU time tracks wall time
through it, so the process is not descheduled: the core itself slows. Runs
at different moments therefore disagree far more than any in-run averaging
can fix. A kernel that does the same kinds of work as the program slows
with it (see ``kernel``).

While an untraced step runs, a timer interrupts it every ``REFERENCE_S /
share`` seconds of step time to run the kernel once, so the kernel samples
the host's speed all through the step, however long the step is. The
runner takes the kernel's time out of the step's time and divides the rest
by ``host_factor``, the kernel's mean time over ``REFERENCE_S``. The kernel
never changes with the program, so a faster program still reads faster.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

# Seconds one kernel takes at reference speed (roughly its time on the
# host above in a quiet phase).
REFERENCE_S = 5.0e-3
CELL_STEPS = 40
WALK_STRIDE = 14
SMALL_OPS = 150

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(16, 64))
_W = _rng.normal(size=(64, 256)) * 0.1
_U = _rng.normal(size=(64, 256)) * 0.1
_FLOATS = [float(i) for i in range(300_000)]  # ~10 MB of boxed floats


def kernel() -> float:
    """Three kinds of work that the program does, each slowing differently.

    LSTM-cell-like updates on fixed 16x64 arrays, a walk over ``_FLOATS``,
    and element-wise ops on 2x4 arrays held in small dicts and tuples, as
    the tape's nodes are. Over 9 s blocks on the host above, a ratio to
    any one part alone left 3-7% (coefficient of variation) of the 8-10%
    drift of infer-long, train-desk and gradient-check steps, and a ratio
    to the sum of all three 2.4-3.5%.
    """
    h = c = np.zeros((16, 64))
    acc = 0.0
    for t in range(CELL_STEPS):
        g = _X @ _W + h @ _U
        i = 1.0 / (1.0 + np.exp(-g[:, :64]))
        f = 1.0 / (1.0 + np.exp(-g[:, 64:128]))
        o = 1.0 / (1.0 + np.exp(-g[:, 128:192]))
        c = f * c + i * np.tanh(g[:, 192:])
        h = o * np.tanh(c)
        stats = {"h": float(h.sum()), "c": float(c.mean())}
        acc += stats["h"] + stats["c"] + sum(range(20 + t % 7))
    for k in range(0, len(_FLOATS), WALK_STRIDE):
        acc += _FLOATS[k]
    for t in range(SMALL_OPS):
        a = np.full((2, 4), t * 0.01)
        node = {"value": a * 2.0 + 1.0, "grad": None, "parents": (a,)}
        acc += float(np.tanh(node["value"]).sum()) + len(node["parents"])
    return acc


class Calibration:
    """Kernel runs sampled from inside the steps, on a SIGALRM timer.

    ``share`` is roughly the share of the sampled time the kernel takes.
    Samples are kept per key (a variant, or set-up), because the variants
    run at different moments of a run.
    """

    def __init__(self, share: float):
        self.interval = REFERENCE_S / share
        self.seconds: dict[str, float] = {}
        self.kernels: dict[str, int] = {}
        self.total_s = 0.0  # kernel seconds over all keys
        self._key: str | None = None  # the key being sampled
        self._left = self.interval  # timer time left when sampling last stopped

    def _sample(self, key: str) -> None:
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        self.seconds[key] = self.seconds.get(key, 0.0) + elapsed
        self.kernels[key] = self.kernels.get(key, 0) + 1
        self.total_s += elapsed

    def _on_alarm(self, signum, frame) -> None:
        if self._key is not None:
            self._sample(self._key)
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    @contextlib.contextmanager
    def installed(self):
        """Own SIGALRM for the block; ``sampling`` works only inside it."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            yield self
        finally:
            self._key = None
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def sampling(self, key: str):
        """Run the kernel on the timer during the block; the timer pauses after it."""
        self._key = key
        signal.setitimer(signal.ITIMER_REAL, self._left)
        try:
            yield
        finally:
            self._key = None
            self._left = signal.setitimer(signal.ITIMER_REAL, 0)[0] or self.interval

    def host_factor(self, key: str) -> float:
        """Mean kernel time over ``REFERENCE_S`` in ``key``'s samples: above 1 when
        the host was slow. Without samples of ``key``, all samples count; with
        none at all (blocks too short to be sampled), one kernel runs now."""
        if self.kernels.get(key):
            return self.seconds[key] / self.kernels[key] / REFERENCE_S
        if not self.kernels:
            self._sample(key)
        return sum(self.seconds.values()) / sum(self.kernels.values()) / REFERENCE_S
