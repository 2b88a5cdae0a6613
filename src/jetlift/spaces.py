"""Coordinate charts for the three spaces the calculus runs on.

Coordinate order is fixed: (t, q1..qn) on the base, (t, q, p) on momentum
phase space, (t, q, p0, p) on the extended space.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

BASE_E = "BaseE"
PHASE_J = "PhaseJ"
EXTENDED_T = "ExtendedT"


@dataclass(frozen=True)
class Space:
    kind: str
    n: int
    coords: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        t = ("t",)
        qs = tuple(f"q{i}" for i in range(1, self.n + 1))
        ps = tuple(f"p{i}" for i in range(1, self.n + 1))
        if self.kind == BASE_E:
            coords = t + qs
        elif self.kind == PHASE_J:
            coords = t + qs + ps
        elif self.kind == EXTENDED_T:
            coords = t + qs + ("p0",) + ps
        else:
            raise ValueError(f"unknown space kind {self.kind!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise KeyError(f"{name!r} is not a coordinate of {self}") from None

    def __str__(self):
        return f"{self.kind}({self.n})"


@lru_cache(maxsize=None)
def base_e(n: int) -> Space:
    return Space(BASE_E, n)


@lru_cache(maxsize=None)
def phase_j(n: int) -> Space:
    return Space(PHASE_J, n)


@lru_cache(maxsize=None)
def extended_t(n: int) -> Space:
    return Space(EXTENDED_T, n)
