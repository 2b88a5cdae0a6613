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
    """A chart by its kind and n, which fix its coordinates: equality (the
    same object first) and the hash go by them."""

    kind: str
    n: int
    coords: tuple[str, ...] = field(init=False)
    dim: int = field(init=False, repr=False, compare=False)
    coord_set: frozenset = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "dim", len(coords))
        object.__setattr__(self, "coord_set", frozenset(coords))

    def __eq__(self, other):
        if other.__class__ is not Space:
            return NotImplemented
        return self is other or (self.kind, self.n) == (other.kind, other.n)

    def __hash__(self):
        return hash((self.kind, self.n))

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
