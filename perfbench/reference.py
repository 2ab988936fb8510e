"""A frozen reference step that measures how fast the machine is right now.

On a shared machine the speed of the same code drifts by 20 % or more
between runs a minute apart, with all cells of a run slowed alike.  The
benchmark therefore times this fixed step before and after every cell and
reports throughput per reference step: machine-wide drift then cancels,
while a change to the library does not touch the reference.

The step is the benchmark's own code, shares nothing with the library and
mixes the same kinds of work as a training step: small dense products, a
leaky rectifier and an Adam-style update at batch 32 for a 48-128-128-9
network, a batched 3x3 SVD, and a per-sample Python loop of 3x3 products.
"""

from __future__ import annotations

import time

import numpy as np

_REPEATS = 12
_BATCH = 32

# Nominal duration of one reference step.  Set-up time is reported as
# measured seconds x REF_STEP_S / measured reference step, i.e. seconds on
# a machine where the step takes 10 ms (about this step's median on a
# 2-core x86 VM with numpy 2.4 and OpenBLAS 0.3.31).
REF_STEP_S = 0.010


class Reference:
    """Fixed inputs and state for the reference step."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20211021)
        self.x = rng.standard_normal((_BATCH, 48))
        self.weights = [rng.uniform(-0.2, 0.2, (48, 128)),
                        rng.uniform(-0.1, 0.1, (128, 128)),
                        rng.uniform(-0.1, 0.1, (128, 9))]
        self.biases = [np.zeros(128), np.zeros(128), np.zeros(9)]
        self.targets = np.stack([np.eye(3)] * _BATCH)

    def _step(self) -> float:
        acts, pre, h = [self.x], [], self.x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            pre.append(z)
            h = z if i == last else np.where(z > 0.0, z, 0.01 * z)
            acts.append(h)
        u, _, vt = np.linalg.svd(h.reshape(_BATCH, 3, 3))
        r = u @ vt
        g = (r - self.targets).reshape(_BATCH, 9) / _BATCH
        total = 0.0
        for i in range(last, -1, -1):
            dw = acts[i].T @ g
            m = 0.1 * dw
            v = 0.001 * dw * dw
            total += float((self.weights[i] - 1e-3 * m / (np.sqrt(v) + 1e-8)).sum())
            if i > 0:
                g = g @ self.weights[i].T
                g = np.where(pre[i - 1] > 0.0, g, 0.01 * g)
        for k in range(_BATCH):
            c = r[k].T @ self.targets[k]
            total += float(c[0, 1] - c[1, 0])
        return total

    def seconds(self) -> float:
        """Wall time of one reference step (a few milliseconds)."""
        t0 = time.perf_counter()
        for _ in range(_REPEATS):
            self._step()
        return time.perf_counter() - t0
