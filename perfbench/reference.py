"""Fixed reference work that measures how fast the host runs right now.

The host of the reference machine runs a pinned command up to 2x slower in
phases that last seconds to minutes. ``child.py`` times this work on the
command's CPU right before and right after the command, and the parent
scales the command's wall and set-up times by it (``wall_norm_s``,
``setup_s``). The work mixes what the program spends its time on:
interpreted CSV parsing and dict updates, numpy arithmetic on an array that
fits in L2, and bootstrap least-squares solves as in the ``glm`` layer. It
keeps under a few MB. The first timing frees its arrays before the command
starts, and the second runs after the command's peak resident set is read.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

# ``Reference().time()`` on the reference machine in a fast phase of its host;
# ``wall_norm_s`` equals ``wall_s`` when the host runs at that speed
NOMINAL_S = 0.30


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.text = "\n".join(",".join(map(str, row))
                              for row in rng.integers(0, 9, size=(4000, 20)).tolist())
        self.array = rng.standard_normal(100_000)
        self.x = rng.standard_normal((10_000, 16))
        self.y = rng.standard_normal(10_000)

    def time(self) -> float:
        """Seconds the fixed work takes now."""
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        for _ in range(30):
            counts: dict[str, int] = {}
            for row in csv.reader(io.StringIO(self.text)):
                counts[row[0]] = counts.get(row[0], 0) + int(row[1])
        for _ in range(400):
            (self.array * 1.5 + 2.0).sum()
            np.sort(self.array[:20_000])
        for _ in range(150):
            idx = rng.integers(0, 10_000, size=10_000)
            xb = self.x[idx]
            np.linalg.solve(xb.T @ xb, xb.T @ self.y[idx])
        return time.perf_counter() - start
