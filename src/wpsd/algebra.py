"""Finite *-semigroups as dense tables, actions on finite point sets, validators.

Structures are small (sizes up to a few dozen), so every law is checked
exhaustively over all index tuples; a structure that passes the validators
satisfies the quantified laws literally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError

MAX_SIZE = 64


def _int_table(a, shape, name) -> np.ndarray:
    t = np.asarray(a, dtype=np.int64)
    if t.shape != shape:
        raise SchemaError(f"{name} must have shape {shape}, got {t.shape}")
    t.flags.writeable = False
    return t


@dataclass(frozen=True)
class StarSemigroup:
    """Multiplication and involution tables over element indices ``0..g-1``.

    The unit is optional; several constructions below are meaningful for
    non-unital semigroups and must not assume one.
    """

    mult: np.ndarray = field()  # (g, g)
    inv: np.ndarray = field()  # (g,)
    unit: int | None = None

    def __post_init__(self):
        g = np.asarray(self.mult).shape[0]
        if g < 1 or g > MAX_SIZE:
            raise SchemaError(f"semigroup size must be in 1..{MAX_SIZE}")
        object.__setattr__(self, "mult", _int_table(self.mult, (g, g), "mult"))
        object.__setattr__(self, "inv", _int_table(self.inv, (g,), "inv"))
        if self.unit is not None and not (0 <= self.unit < g):
            raise SchemaError("unit index out of range")

    @property
    def size(self) -> int:
        return self.mult.shape[0]


@dataclass(frozen=True)
class Action:
    """Table ``point = table[element, point]`` of a semigroup acting on ``0..m-1``."""

    table: np.ndarray = field()  # (g, m)
    unital: bool = True

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        if t.ndim != 2:
            raise SchemaError("action table must be 2-d")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)


def validate_semigroup(S: StarSemigroup) -> list[str]:
    """All violated laws, each with witness indices; empty iff valid."""
    g = S.size
    M, inv = S.mult, S.inv
    out = []
    if M.min() < 0 or M.max() >= g:
        return [f"mult entries out of range 0..{g - 1}"]
    if inv.min() < 0 or inv.max() >= g:
        return [f"inv entries out of range 0..{g - 1}"]

    lhs = M[M, :]  # lhs[a,b,c] = (ab)c
    rhs = M[:, M]  # rhs[a,b,c] = a(bc)
    for a, b, c in zip(*np.nonzero(lhs != rhs)):
        out.append(f"associativity: witness (a,b,c)=({a},{b},{c})")

    for a in np.nonzero(inv[inv] != np.arange(g))[0]:
        out.append(f"involutive: witness a={a}")

    anti = M[np.ix_(inv, inv)].T  # anti[a,b] = inv(b)... times inv(a) = b* a*
    for a, b in zip(*np.nonzero(inv[M] != anti)):
        out.append(f"anti-multiplicative: witness (a,b)=({a},{b})")

    if S.unit is not None:
        e = S.unit
        for a in np.nonzero(M[e] != np.arange(g))[0]:
            out.append(f"left unit: witness a={a}")
        for a in np.nonzero(M[:, e] != np.arange(g))[0]:
            out.append(f"right unit: witness a={a}")
        if inv[e] != e:
            out.append(f"unit not star-fixed: inv({e})={inv[e]}")
    return out


def validate_action(S: StarSemigroup, A: Action, m: int) -> list[str]:
    """Compatibility ``(ab).x = a.(b.x)`` checked over all triples."""
    g = S.size
    T = A.table
    if T.shape != (g, m):
        raise SchemaError(f"action table must have shape ({g}, {m}), got {T.shape}")
    if m and (T.min() < 0 or T.max() >= m):
        return [f"action entries out of range 0..{m - 1}"]
    out = []
    lhs = T[S.mult, :]  # lhs[a,b,x] = (ab).x
    rhs = T[:, T]  # rhs[a,b,x] = a.(b.x)
    for a, b, x in zip(*np.nonzero(lhs != rhs)):
        out.append(f"action compatibility: witness (a,b,x)=({a},{b},{x})")
    if A.unital and S.unit is not None:
        for x in np.nonzero(T[S.unit] != np.arange(m))[0]:
            out.append(f"unital action: witness x={x}")
    return out


def cyclic_group(n: int, involution: str = "inverse") -> StarSemigroup:
    """Cyclic group of order ``n`` with negation or identity as involution."""
    if n < 1:
        raise SchemaError("cyclic group needs n >= 1")
    idx = np.arange(n)
    mult = (idx[:, None] + idx[None, :]) % n
    if involution == "inverse":
        inv = (-idx) % n
    elif involution == "identity":
        inv = idx.copy()
    else:
        raise SchemaError(f"unknown involution {involution!r}")
    return StarSemigroup(mult, inv, unit=0)


def idempotent_pair() -> StarSemigroup:
    """Two elements {e, z} with z z = z and z* = z; the smallest non-group case."""
    return StarSemigroup(np.array([[0, 1], [1, 1]]), np.array([0, 1]), unit=0)


def left_translation_action(S: StarSemigroup) -> Action:
    """The semigroup acting on itself by left multiplication."""
    return Action(S.mult.copy(), unital=S.unit is not None)
