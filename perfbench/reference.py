"""The fixed computations the benchmark scales its times by.

:class:`Probe` is the short one (about 1.5 ms on the sizing host):
``common.HostSampler`` runs it inside the process doing the work, while
the work runs.  Run as a script, this file is the helper process of
``common.Reference``: each line read from standard input runs the longer
reference twice and answers the best time in seconds on standard output;
end of input stops the process.  It imports NumPy only, never the
program, so neither a change to the program nor the heap state the
program leaves behind can move it.
"""

from __future__ import annotations

import random
import sys
import time

import numpy as np

#: Seconds between two probes.
PERIOD_S = 0.04


class Probe:
    """A Python loop and small-array NumPy calls, then a streaming pass
    over 4 MB, over data allocated once up front."""

    def __init__(self) -> None:
        self._values = list(range(30_000))
        self._small = np.linspace(0.0, 1.0, 64)
        self._out = np.empty_like(self._small)
        self._big = np.ones(500_000)

    def run(self) -> tuple[float, float, float]:
        """``(compute seconds, full seconds, end perf_counter)`` of one probe."""
        start = time.perf_counter()
        total = 0
        for value in self._values:
            total += value
        for _ in range(300):
            np.multiply(self._small, 0.999, out=self._out)
            np.maximum(self._out, self._small, out=self._out)
        computed = time.perf_counter()
        np.multiply(self._big, 1.0, out=self._big)
        end = time.perf_counter()
        return computed - start, end - start, end


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: float) -> None:
        self.a = a
        self.b = a * 0.5


def main() -> int:
    # A shuffled object graph, a streaming pass over a 4 MB array and many
    # small-array NumPy calls: the ways the program touches memory.
    nodes = [_Node(float(i)) for i in range(100_000)]
    random.Random(0).shuffle(nodes)
    rng = np.random.default_rng(0)
    big, small = rng.random(500_000), rng.random(64)
    for _ in sys.stdin:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            total = sum(node.a for node in nodes)
            index = {i: node for i, node in enumerate(nodes[:25_000])}
            total += sum(index[i].b for i in range(0, 25_000, 3))
            total += float(np.sqrt(big * 1.5 + 2.0).sum())
            vector = small
            for _ in range(1_500):
                vector = np.maximum(vector * 0.999, small)
            best = min(best, time.perf_counter() - start)
        print(repr(best), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
