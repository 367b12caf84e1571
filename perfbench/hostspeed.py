"""Host-speed calibration for the time-based end-to-end metrics.

On a shared host the speed of one CPU-bound Python thread drifts by tens
of percent over seconds to minutes. The benchmark interleaves a fixed
reference kernel with the measured work and rescales the CPU part of each
measured interval to a reference host on which the kernel runs
REFERENCE_RATE times per second. Time spent waiting (sleeps, the fake
server's hold, backoff) is not rescaled.

The kernel mixes the operations the program spends its time on: frozen
dataclass construction with validation, float math, string formatting,
regex scanning, a seeded numpy generator and a small deepcopy. It never
calls the program, so a faster program cannot change the calibration.
"""

from __future__ import annotations

import copy
import math
import re
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_RATE = 1200.0  # kernel iterations per second on the reference host


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite number")
        object.__setattr__(self, "x", float(self.x) % (2 * math.pi))


_BRACKET = re.compile(r"\[([^\[\]]*)\]")


def kernel() -> int:
    draws = np.random.default_rng([3, 12345]).normal(0.0, 1.0, size=6)
    acc = int(draws[0] > 0)
    points = []
    for i in range(60):
        p = _Point(i * 0.1, math.sin(i), math.cos(i))
        points.append(p)
        text = f"[{int(p.x * 10)}, {int(p.y * 100)}, {int(p.z * 100)}, 0, 0, 1, 1]"
        for match in _BRACKET.finditer(text):
            acc += sum(int(t) for t in match.group(1).split(","))
    return acc + len(copy.deepcopy(points[:10]))


class HostSpeed:
    """Accumulates kernel samples; `factor` is host speed over reference."""

    def __init__(self):
        self.iterations = 0
        self.seconds = 0.0

    def sample(self, seconds: float) -> None:
        """Run the kernel for about `seconds` of wall time."""
        t0 = time.perf_counter()
        n = 0
        while True:
            kernel()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                break
        self.iterations += n
        self.seconds += elapsed

    @property
    def factor(self) -> float:
        return self.iterations / self.seconds / REFERENCE_RATE

    def reference_seconds(self, wall: float, cpu: float) -> float:
        """Wall time the interval would take on the reference host: the
        CPU part rescaled by host speed, the waiting part unchanged."""
        cpu = min(cpu, wall)
        return (wall - cpu) + cpu * self.factor
