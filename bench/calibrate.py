"""A fixed reference kernel that measures how fast the machine runs now.

The shared host this benchmark runs on changes speed by up to 1.5x for
tens of seconds at a time, which no median over one run removes. So each
pass runs this kernel between its calls, and the time metrics are
reported in reference seconds: measured seconds times REF_S over the time
the kernel took around them. A change to jetlift moves the metrics fully;
a change in the machine's speed moves the kernel too and cancels out.

The kernel does the kind of work jetlift does and nothing of jetlift's:
it builds and walks small expression trees of Python objects, with float
arithmetic, dict lookups and small numpy solves. It allocates no
container objects while it is timed, so it neither triggers nor pays for
a garbage collection of the library's objects. REF_S is the kernel's
time on the machine the benchmark was defined on; it must never change,
or every recorded number changes with it.
"""
from __future__ import annotations

import math
import random
import time

import numpy as np

#: seconds one kernel call took on the reference machine (x86_64, 2 vCPU)
REF_S = 0.0235


class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op, left=None, right=None, value=0.0):
        self.op = op
        self.left = left
        self.right = right
        self.value = value

    def eval(self, env):
        op = self.op
        if op == "var":
            return env[self.value]
        if op == "const":
            return self.value
        a = self.left.eval(env)
        if op == "sin":
            return math.sin(a)
        b = self.right.eval(env)
        if op == "add":
            return a + b
        if op == "mul":
            return a * b
        return a - b


def _tree(rng, depth):
    if depth == 0:
        if rng.random() < 0.6:
            return _Node("var", value=rng.choice(("t", "q1", "q2")))
        return _Node("const", value=rng.uniform(-2.0, 2.0))
    op = rng.choice(("add", "mul", "sub", "sin"))
    if op == "sin":
        return _Node(op, _tree(rng, depth - 1))
    return _Node(op, _tree(rng, depth - 1), _tree(rng, depth - 1))


class Kernel:
    """Build once (untimed), then `measure()` returns one timed call."""

    def __init__(self):
        rng = random.Random(12345)
        self.trees = [_tree(rng, 7) for _ in range(48)]
        self.envs = [{"t": rng.uniform(-2, 2), "q1": rng.uniform(-2, 2),
                      "q2": rng.uniform(-2, 2)} for _ in range(16)]
        self.mats = [np.array([[rng.uniform(-2, 2) for _ in range(3)]
                               for _ in range(3)]) + 4.0 * np.eye(3)
                     for _ in range(4)]
        self.rhs = np.ones(3)
        self.measure()  # warm-up

    def _work(self):
        total = 0.0
        for env in self.envs:
            for tree in self.trees:
                total += tree.eval(env)
        for mat in self.mats:
            for _ in range(80):
                total += float(np.linalg.solve(mat, self.rhs)[0])
        return total

    def measure(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def sample(self, n: int) -> list:
        return [self.measure() for _ in range(n)]
