"""Concrete ordered *-spaces and gramian (vector-valued inner product) utilities.

Two coefficient spaces are supported: the complex scalars with the
nonnegative half-line as positive cone, and ``d x d`` complex matrices with
the conjugate transpose as involution and the positive semidefinite cone.
Elements of either space are plain ``(d, d)`` complex arrays (scalars as
``1 x 1``), so a single code path serves both.

A gram is an ``n x n`` table of such elements acting as a matrix-valued
metric on coefficient vectors in ``C^n``.  It is a ``Kernel`` on the basis
(for a decomposition, the kernel restricted to the pivot points), and the
functions here take it as one.  The pairing it induces is conjugate-linear
in the first slot and linear in the second.  All functions here are pure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SchemaError

if TYPE_CHECKING:
    from .kernels import Kernel

SEMINORM_TAGS = ("operator", "trace")

#: Multiplicative constant in the Schwarz-type bound for gram pairings.
#: The sharp constant for general weakly positive metrics is not known to be
#: smaller; claims of 2 in the literature have not survived scrutiny, so the
#: proven value 4 is used and the empirical ratio is merely reported.
SCHWARZ_CONSTANT = 4.0


@dataclass(frozen=True)
class Tolerances:
    """The tolerances of a run, and the one table of which check reads which.

    Callers pass it whole.  ``structural`` and ``rank`` are relative to
    :func:`entry_scale` of the table named; ``report`` is absolute, because
    reports are re-checked from outside the package against absolute bounds.

    ==============================================  ==========  ====================================
    check                                           field       relative to the entry scale of
    ==============================================  ==========  ====================================
    ``is_hermitian``, ``is_invariant``,             structural  the kernel
    ``twopos_diagnostics``, ``strong_positivity``,
    ``weak_positivity``, ``bound_constant``,
    ``build_kolmogorov``, ``build_representation``
    (invariance), ``linearity_preservation_check``
    ``lift_operator_kernel`` (Hermitian match)      structural  the operator table
    ``adjoint_solve``, the lift's adjoints          structural  each operator's ``[T b_i, b_j]``
    ``in_cone``, ``leq``                            structural  the element tested
    ``validate_gram``                               structural  the gram; each diagonal block's own
    ``gram_semigroup_map``                          structural  the representation
    ``build_representation`` (push-forward)         rank        the kernel, times the probe's norm
    ``rk_representation``                           rank        the reconstructed kernel
    ``unitary_equivalence``                         rank        the gram
    ``build_kolmogorov``'s pivot cut                rank        no table: the largest column norm
    ``bound_constant``'s null cut (>= 1e-12)        structural  no table: the largest eigenvalue
    the CLI's pass/fail tests                       report      nothing: absolute
    ``weak_positivity``'s column-span cut           (literal)   ``s_max * max(shape) * eps`` of the
                                                                column matrix: rounding level
    ``build_rk``'s injectivity cut                  (literal)   1e-10 times the larger of 1 and the
                                                                top singular value of the functions
    ==============================================  ==========  ====================================

    The two literals are not run options.  The column-span cut drops only
    directions whose forms are rounding (about 1e-12 times the kernel's entry
    scale, against a default ``structural`` of 1e-9), and every witness is
    re-checked on the raw table, so the cut can narrow the search but cannot
    make a verdict wrong.  A dependent realisation means the decomposition
    was not minimal, whatever the run asks for.
    """

    structural: float = 1e-9
    rank: float = 1e-8
    report: float = 1e-8

    def __post_init__(self):
        for name, v in vars(self).items():
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v <= sys.float_info.max:
                raise SchemaError(f"tolerance {name!r} must be a finite positive number, got {v!r}")


def entry_scale(table) -> float:
    """1 + the largest operator norm among the square entries of ``table``, shape ``(..., d, d)``."""
    d = np.shape(table)[-1]
    return float(entry_scales(np.reshape(table, (1, -1, d, d)))[0])


def entry_scales(tables) -> np.ndarray:
    """:func:`entry_scale` of each table in a stack of shape ``(P, n, d, d)``.

    Only entries whose Frobenius norm is within ``sqrt(d)`` of their table's
    largest can hold its largest operator norm (``|A|_F / sqrt(d) <= |A|_2
    <= |A|_F``), so only those are decomposed.  The norms are taken on each
    table scaled by a power of two: exact, and safe from overflow.
    """
    t = np.asarray(tables, dtype=complex)
    if t.shape[1] == 0:
        return np.ones(t.shape[0])
    exponent = np.frexp(np.max(np.abs(t), axis=(1, 2, 3)))[1]
    fro = np.linalg.norm(t * 2.0 ** np.minimum(-exponent, 1000)[:, None, None, None], axis=(2, 3))
    near = fro >= fro.max(axis=1, keepdims=True) / np.sqrt(t.shape[-1]) * (1.0 - 1e-12)
    top = np.zeros(near.shape)
    top[near] = np.linalg.svd(t[near], compute_uv=False)[:, 0]
    return 1.0 + top.max(axis=1)


@dataclass(frozen=True)
class ZSpaceDescriptor:
    """Which ordered *-space the elements live in.

    ``kind`` is ``"scalar"`` (complex numbers, cone = nonnegative reals) or
    ``"hermitian"`` (``dim x dim`` matrices, cone = positive semidefinite).
    """

    kind: str = "scalar"
    dim: int = 1

    def __post_init__(self):
        if self.kind not in ("scalar", "hermitian"):
            raise SchemaError(f"unknown space kind {self.kind!r}")
        if self.dim < 1:
            raise SchemaError("space dimension must be >= 1")
        if self.kind == "scalar" and self.dim != 1:
            raise SchemaError("scalar space has dim 1")


def scalar_space() -> ZSpaceDescriptor:
    return ZSpaceDescriptor("scalar", 1)


def hermitian_space(dim: int) -> ZSpaceDescriptor:
    return ZSpaceDescriptor("hermitian", dim)


def as_zelement(value, space: ZSpaceDescriptor) -> np.ndarray:
    """Coerce a scalar or array into a ``(dim, dim)`` complex array."""
    z = np.atleast_2d(np.asarray(value, dtype=complex))
    if z.shape != (space.dim, space.dim):
        raise SchemaError(f"element shape {z.shape} does not match space dim {space.dim}")
    if not np.all(np.isfinite(z)):
        raise SchemaError("element has non-finite entries")
    return z


def involution(z: np.ndarray) -> np.ndarray:
    """Conjugate transpose, applied to the last two axes."""
    return np.conj(np.swapaxes(np.asarray(z, dtype=complex), -1, -2))


def hermitian_part(z: np.ndarray) -> np.ndarray:
    """``(z + z*) / 2``, halved before the sum so that entries near the largest float stay finite."""
    half = 0.5 * np.asarray(z, dtype=complex)
    return half + involution(half)


def hermitian_defect(z: np.ndarray) -> float:
    """Max entrywise distance from ``z`` to its conjugate transpose."""
    return float(np.max(np.abs(z - involution(z)))) if np.size(z) else 0.0


def seminorm(z: np.ndarray, tag: str = "operator") -> float:
    """Increasing seminorm of an element.

    ``"operator"`` is the largest singular value, ``"trace"`` the sum of
    singular values.  Both are monotone for the semidefinite order.
    """
    if tag not in SEMINORM_TAGS:
        raise SchemaError(f"unknown seminorm tag {tag!r}")
    s = np.linalg.svd(np.atleast_2d(np.asarray(z, dtype=complex)), compute_uv=False)
    return float(s.max()) if tag == "operator" else float(s.sum())


def in_cone(z, space: ZSpaceDescriptor, tols: Tolerances = Tolerances()) -> bool:
    """Membership in the positive cone, up to ``tols.structural`` times the entry scale of ``z``.

    True iff the Hermitian defect is within that slack and the minimal
    eigenvalue of the Hermitian part is above minus the slack.
    """
    z = as_zelement(z, space)
    tol = tols.structural * entry_scale(z)
    if hermitian_defect(z) > tol:
        return False
    return float(np.linalg.eigvalsh(hermitian_part(z)).min()) >= -tol


def leq(a, b, space: ZSpaceDescriptor, tols: Tolerances = Tolerances()) -> bool:
    """Partial order induced by the cone: ``a <= b`` iff ``b - a`` is positive (see ``in_cone``)."""
    a = as_zelement(a, space)
    b = as_zelement(b, space)
    return in_cone(b - a, space, tols)


def validate_gram(G: Kernel, tols: Tolerances = Tolerances()) -> list[str]:
    """Structural gram invariants: block symmetry and diagonal positivity.

    The symmetry defect is held to ``tols.structural`` times the gram's entry
    scale, and each diagonal block to ``in_cone``.  Weak positivity of the
    full metric is deliberately left to the kernel verifier, which owns the
    search machinery.
    """
    out = []
    sym = G.hermitian_defect
    if sym > tols.structural * G.entry_scale:
        out.append(f"hermitian symmetry defect {sym:.3e}")
    for i in range(G.m):
        if not in_cone(G.table[i, i], G.space, tols):
            out.append(f"diagonal block {i} outside the positive cone")
    return out


def _check_coeff(G: Kernel, u) -> np.ndarray:
    u = np.asarray(u, dtype=complex).reshape(-1)
    if u.shape[0] != G.m:
        raise SchemaError(f"coefficient vector length {u.shape[0]} != gram size {G.m}")
    return u


def pair_coords(blocks: np.ndarray, U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """All pairings ``sum_ab conj(U[a, i]) W[b, j] blocks[a, b]`` as an ``(i, j, d, d)`` array.

    ``blocks`` is a raw ``(n, n, d, d)`` table, such as a gram's or a kernel's.
    The leading index is contracted first, through a copy-free reshape, and
    the second one as one more matrix product.
    """
    n, d = blocks.shape[0], blocks.shape[2]
    p, q = U.shape[1], W.shape[1]
    left = np.conj(U).T @ blocks.reshape(n, n * d * d)  # [i, (b, c, e)]
    left = left.reshape(p, n, d * d).transpose(1, 0, 2).reshape(n, p * d * d)  # [b, (i, c, e)]
    return (W.T @ left).reshape(q, p, d, d).transpose(1, 0, 2, 3)


def gram_pair(G: Kernel, u, v) -> np.ndarray:
    """Pairing ``sum_ij conj(u_i) v_j G[i, j]``; an element of the value space."""
    u = _check_coeff(G, u)
    v = _check_coeff(G, v)
    return pair_coords(G.table, u[:, None], v[:, None])[0, 0]


def polarisation_check(G: Kernel, u, v) -> float:
    """Defect of the polarisation identity recovering the pairing from squares.

    With the pairing linear in its second slot, the identity reads
    ``4 [u, v] = sum_k (-i)^k [u + i^k v, u + i^k v]``.  The defect is zero up
    to rounding on every gram; it measures arithmetic consistency, not
    positivity.
    """
    u = _check_coeff(G, u)
    v = _check_coeff(G, v)
    acc = np.zeros((G.d, G.d), dtype=complex)
    for k in range(4):
        w = u + (1j ** k) * v
        acc += ((-1j) ** k) * gram_pair(G, w, w)
    return float(np.max(np.abs(acc - 4.0 * gram_pair(G, u, v))))


def schwarz_check(G: Kernel, u, v, tag: str = "operator", tol: float | None = None):
    """Schwarz-type bound ``p([u,v]) <= 4 p([u,u])^{1/2} p([v,v])^{1/2}``.

    Returns ``(lhs, rhs, holds)``.  Requires the gram to be a weakly
    positive metric; on indefinite input the bound can genuinely fail.
    """
    lhs = seminorm(gram_pair(G, u, v), tag)
    puu = max(seminorm(gram_pair(G, u, u), tag), 0.0)
    pvv = max(seminorm(gram_pair(G, v, v), tag), 0.0)
    rhs = SCHWARZ_CONSTANT * np.sqrt(puu) * np.sqrt(pvv)
    if tol is None:
        tol = 1e-12 * (1.0 + rhs)
    return float(lhs), float(rhs), bool(lhs <= rhs + tol)


def ve_seminorm(G: Kernel, u, tag: str = "operator") -> float:
    """Seminorm induced on coefficient vectors: ``p([u, u])^{1/2}``."""
    return float(np.sqrt(max(seminorm(gram_pair(G, u, u), tag), 0.0)))
