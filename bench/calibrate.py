"""Reference kernel that measures how fast the machine is right now.

On a host shared with other tenants the same op can take 0.19 s one
second and 0.37 s a few seconds later, and slow phases last minutes. The
benchmark therefore runs this fixed kernel between ops and reports every
time scaled to a machine on which one repetition of the kernel takes
``REFERENCE_S``: a measured time ``t`` next to a kernel repetition time
``k`` is reported as ``t * REFERENCE_S / k``. The kernel uses only numpy
and scipy, never ``cohsmix``, so a change to the program cannot change
it. Its mix follows the workloads: small-matrix sweeps like an E-step
(numpy calls on 150 x 3 arrays, ``logsumexp``, ``xlogy``) and a Python
loop that parses edge-list lines. It makes no BLAS call large enough to
start OpenBLAS threads, whose spinning would be charged to the next op.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import logsumexp, xlogy

# Seconds per repetition of the kernel on the reference machine: the
# median measured on a 2-vCPU Xeon (Sapphire Rapids) KVM guest, Python
# 3.11, numpy 2.4, OpenBLAS 0.3.31. Only the ratio to it matters.
REFERENCE_S = 0.002

_N, _Q, _P = 150, 3, 3
_SWEEPS = 6
_LINES = 400


class Kernel:
    """Fixed inputs of the reference kernel, built once."""

    def __init__(self):
        rng = np.random.default_rng(20091012)
        upper = np.triu(rng.random((_N, _N)) < 0.2, 1)
        self.adjacency = (upper | upper.T).astype(float)
        resp = rng.random((_N, _Q))
        self.resp = resp / resp.sum(axis=1, keepdims=True)
        self.pi = np.full((_Q, _Q), 0.1) + 0.3 * np.eye(_Q)
        self.alpha = np.full(_Q, 1.0 / _Q)
        self.points = rng.normal(size=(_N, _P))
        self.centers = rng.normal(size=(_Q, _P))
        self.lines = [f"{i % _N}\t{(7 * i + 3) % _N}" for i in range(_LINES)]

    def repetition(self) -> float:
        """One repetition; returns a value so the work cannot be skipped."""
        log_pi, log_not = np.log(self.pi), np.log1p(-self.pi)
        log_alpha = np.log(self.alpha)
        d2 = ((self.points ** 2).sum(axis=1)[:, None]
              + (self.centers ** 2).sum(axis=1)[None, :]
              - 2.0 * self.points @ self.centers.T)
        current, total = self.resp, 0.0
        for _ in range(_SWEEPS):
            on = self.adjacency @ current
            col = current.sum(axis=0)
            off = (col[None, :] - current) - on
            logits = (np.tile(log_alpha, (_N, 1)) + on @ log_pi.T
                      + off @ log_not.T - d2 / 2.0)
            logits -= logsumexp(logits, axis=1, keepdims=True)
            update = np.exp(logits)
            update /= update.sum(axis=1, keepdims=True)
            total += float(xlogy(current.T @ on, self.pi).sum())
            current = 0.5 * update + 0.5 * current
        pairs = []
        for line in self.lines:
            left, right = line.split("\t")
            pairs.append((int(left), int(right)))
        return total + len(pairs)

    def seconds_per_repetition(self, repetitions: int) -> float:
        """Run the kernel ``repetitions`` times; wall seconds per repetition."""
        begin = time.perf_counter()
        for _ in range(repetitions):
            self.repetition()
        return (time.perf_counter() - begin) / repetitions
