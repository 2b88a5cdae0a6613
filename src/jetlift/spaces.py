"""Coordinate charts for the three spaces the calculus runs on.

Coordinate order is fixed: (t, q1..qn) on the base, (t, q, p) on momentum
phase space, (t, q, p0, p) on the extended space. There is one Space per
(kind, n): `Space(kind, n)` returns it, so that equality and the hash go
by identity.
"""
from __future__ import annotations

BASE_E = "BaseE"
PHASE_J = "PhaseJ"
EXTENDED_T = "ExtendedT"


class Space:
    """A chart by its kind and n, which fix its coordinates; immutable."""

    __slots__ = ("kind", "n", "coords", "dim", "coord_set")
    _made: dict = {}

    def __new__(cls, kind: str, n: int):
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"n must be an int, got {n!r}")
        space = cls._made.get((kind, n))
        if space is not None:
            return space
        if n < 1:
            raise ValueError("n must be a positive integer")
        t = ("t",)
        qs = tuple(f"q{i}" for i in range(1, n + 1))
        ps = tuple(f"p{i}" for i in range(1, n + 1))
        if kind == BASE_E:
            coords = t + qs
        elif kind == PHASE_J:
            coords = t + qs + ps
        elif kind == EXTENDED_T:
            coords = t + qs + ("p0",) + ps
        else:
            raise ValueError(f"unknown space kind {kind!r}")
        space = super().__new__(cls)
        for name, value in (("kind", kind), ("n", n), ("coords", coords),
                            ("dim", len(coords)), ("coord_set", frozenset(coords))):
            object.__setattr__(space, name, value)
        return cls._made.setdefault((kind, n), space)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self} is immutable")

    def __reduce__(self):  # a copy or an unpickled Space is the same object
        return Space, (self.kind, self.n)

    def index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise KeyError(f"{name!r} is not a coordinate of {self}") from None

    def __repr__(self):
        return f"Space({self.kind!r}, {self.n})"

    def __str__(self):
        return f"{self.kind}({self.n})"


def base_e(n: int) -> Space:
    return Space(BASE_E, n)


def phase_j(n: int) -> Space:
    return Space(PHASE_J, n)


def extended_t(n: int) -> Space:
    return Space(EXTENDED_T, n)
