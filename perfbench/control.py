"""Host-speed control: a fixed loop timed right before and after each run.

A shared host drifts between faster and slower states that last tens of
seconds, so a run's updates per second moves with the host as much as
with the program. This loop is the benchmark's own code (it imports
nothing from the program), so no change to the program can move it;
only the host can. ``update_cost`` expresses a run's host time per
applied update in steps of this loop, which cancels most of the drift.

One step mixes the two kinds of work the engine's round path does: an
event pushed and popped through a heap with a closure call, and a small
NumPy mini-batch gradient step (64 rows of a 1024 x 16 matrix).
"""

from __future__ import annotations

import heapq
import time

import numpy as np

N, D, BATCH = 1024, 16, 64


def steps_per_s(seconds: float = 0.2) -> float:
    """Control-loop steps per second, timed over at least ``seconds``."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((N, D))
    y = np.where(rng.random(N) < 0.5, -1.0, 1.0)
    w = np.zeros(D)
    queue: list = []
    seen: dict = {}
    steps = 0
    start = time.perf_counter()
    while True:
        for i in range(steps, steps + 100):
            heapq.heappush(queue, ((i * 7919) % 997, i, lambda i=i: i + 1))
            if len(queue) > 32:
                at, _, fn = heapq.heappop(queue)
                seen[at] = fn()
            idx = rng.integers(0, N, BATCH)
            Xb, yb = X[idx], y[idx]
            w -= 0.1 * (Xb.T @ (-yb / (1.0 + np.exp(yb * (Xb @ w))))) / BATCH
        steps += 100
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return steps / elapsed
