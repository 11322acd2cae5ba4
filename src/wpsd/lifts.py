"""Reductions of operator-valued problems to scalar-coefficient kernels.

Three pipelines live here:

* kernels valued in adjointable operators on a finite-basis module are
  lifted to an ordinary kernel on (point, basis vector) pairs; a
  decomposition of the lift reassembles into an operator dilation
  ``l(y, x) = Vt(y)* Vt(x)``;
* a map ``T`` on a *-semigroup with values in sesquilinear-form tensors is
  lifted to the kernel ``k((s, i), (t, j)) = T[s* t][i][j]`` on
  (element, coordinate) pairs, invariant under left translation; with a unit
  the decomposition factorises ``T_t = A' pi(t) A``;
* the classical cyclic-representation construction is the special case of a
  single positive-type function on the semigroup itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import Action, StarSemigroup, left_translation_action
from .errors import (
    HermitianMismatchError,
    NoUnitError,
    NotAdjointableError,
    SchemaError,
)
from .dilation import linearised_kernel
from .kernels import Kernel
from .zspace import (
    Tolerances,
    ZSpaceDescriptor,
    entry_scale,
    entry_scales,
    hermitian_space,
    pair_coords,
    scalar_space,
)


@dataclass(frozen=True)
class VEModuleH:
    """A module with a value-space gramian and an explicit finite basis.

    ``hilbert(r)``: coefficient space ``C^r`` with the scalar inner product.
    ``matrix_module(d, kcols)``: elements are ``d x kcols`` complex matrices
    ``A`` with gramian ``[A, B] = B A*``, a ``d x d`` matrix; the basis is
    the matrix units in row-major order.
    """

    kind: str
    r: int = 0
    d: int = 0
    kcols: int = 0

    def __post_init__(self):
        if self.kind == "hilbert":
            if self.r < 1:
                raise SchemaError("hilbert module needs r >= 1")
        elif self.kind == "matrix_module":
            if self.d < 1 or self.kcols < 1:
                raise SchemaError("matrix module needs d, kcols >= 1")
        else:
            raise SchemaError(f"unknown module kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.r if self.kind == "hilbert" else self.d * self.kcols

    @property
    def zspace(self) -> ZSpaceDescriptor:
        return scalar_space() if self.kind == "hilbert" else hermitian_space(self.d)

    def gram_tensor(self) -> np.ndarray:
        """All pairings of basis elements; shape ``(dim, dim, dz, dz)``.

        Built on first use and kept, read-only.
        """
        return self._gram

    @cached_property
    def _gram(self) -> np.ndarray:
        if self.kind == "hilbert":
            G = np.eye(self.r, dtype=complex).reshape(self.r, self.r, 1, 1)
        else:
            # [E_pa, E_qb] = E_qb E_pa* = delta_ab e_q e_p^T for the matrix units E_pa.
            d, k = self.d, self.kcols
            G = np.einsum("ab,qc,pe->paqbce", np.eye(k), np.eye(d), np.eye(d)).astype(complex)
            G = G.reshape(self.dim, self.dim, d, d)
        G.flags.writeable = False
        return G


def hilbert_module(r: int) -> VEModuleH:
    return VEModuleH("hilbert", r=r)


def matrix_module(d: int, kcols: int) -> VEModuleH:
    return VEModuleH("matrix_module", d=d, kcols=kcols)


def right_multiplication(H: VEModuleH, M: np.ndarray) -> np.ndarray:
    """Coefficient matrix of ``A -> A M`` on a matrix module."""
    M = np.asarray(M, dtype=complex)
    return np.kron(np.eye(H.d, dtype=complex), M.T)


def left_multiplication(H: VEModuleH, N: np.ndarray) -> np.ndarray:
    """Coefficient matrix of ``A -> N A`` on a matrix module."""
    N = np.asarray(N, dtype=complex)
    return np.kron(N, np.eye(H.kcols, dtype=complex))


@dataclass(frozen=True)
class OperatorOnH:
    """A linear map on the module's coefficient space, optionally with adjoint."""

    matrix: np.ndarray = field()
    adjoint: np.ndarray | None = None

    def __post_init__(self):
        mtx = np.asarray(self.matrix, dtype=complex)
        mtx.flags.writeable = False
        object.__setattr__(self, "matrix", mtx)
        if self.adjoint is not None:
            adj = np.asarray(self.adjoint, dtype=complex)
            adj.flags.writeable = False
            object.__setattr__(self, "adjoint", adj)


def _basis_pairings(H: VEModuleH, T: np.ndarray) -> np.ndarray:
    """``[T b_i, b_j]`` for all basis pairs, for one operator or a stack of them.

    ``T`` holds coefficient matrices of shape ``(..., dim, dim)``; the result
    has shape ``(..., dim, dim, dz, dz)``.
    """
    G = H.gram_tensor()
    dim, dz = G.shape[0], G.shape[2]
    paired = np.conj(np.swapaxes(T, -1, -2)) @ G.reshape(dim, dim * dz * dz)  # [..., i, (j, c, d)]
    return paired.reshape(*T.shape, dz, dz)


def _adjoint_solves(H: VEModuleH, T: np.ndarray):
    """Least-squares adjoints of a stack of coefficient matrices ``(P, dim, dim)``, in one solve.

    The systems ``[T b_i, b_j] = [b_i, T* b_j]`` share their matrix, so their
    right-hand sides are stacked side by side.  Returns the adjoints, each
    system's largest residual and the entry scale of its pairings.
    """
    P, dim, dz = T.shape[0], H.dim, H.zspace.dim
    lhs = _basis_pairings(H, T)  # (P, i, j, c, d)
    A_sys = H.gram_tensor().transpose(0, 2, 3, 1).reshape(dim * dz * dz, dim)
    rhs = lhs.transpose(1, 3, 4, 0, 2).reshape(dim * dz * dz, P * dim)  # [(i, c, d), (P, j)]
    sol, *_ = np.linalg.lstsq(A_sys, rhs, rcond=None)
    resid = np.max(np.abs(A_sys @ sol - rhs).reshape(-1, P, dim), axis=(0, 2))
    adjoints = sol.reshape(dim, P, dim).transpose(1, 0, 2)
    return adjoints, resid, entry_scales(lhs.reshape(P, dim * dim, dz, dz))


def adjoint_solve(H: VEModuleH, T: OperatorOnH, tols: Tolerances = Tolerances()) -> OperatorOnH:
    """Solve ``[T b_i, b_j] = [b_i, T* b_j]`` for the adjoint.

    On a plain Hilbert module this is the conjugate transpose; on a matrix
    module the gramian is degenerate enough that the linear system may be
    inconsistent, in which case ``NotAdjointableError`` is raised (not every
    operator is adjointable) when the residual exceeds ``tols.structural``
    times the entry scale of the pairings ``[T b_i, b_j]``.
    """
    adjoints, resid, scale = _adjoint_solves(H, T.matrix[None])
    if resid[0] > tols.structural * scale[0]:
        raise NotAdjointableError(f"adjoint system inconsistent, residual {resid[0]:.3e}")
    return OperatorOnH(T.matrix, adjoints[0])


@dataclass(frozen=True)
class LiftedKernel:
    """A lift together with the legend mapping flat indices back to pairs."""

    kernel: Kernel
    legend: tuple  # ((point, basis index), ...)
    action: Action | None = None


def lift_operator_kernel(
    H: VEModuleH,
    l: np.ndarray,
    action: Action | None = None,
    tols: Tolerances = Tolerances(),
) -> LiftedKernel:
    """Lift an operator-valued kernel to value-space entries on pairs.

    ``l[x, y]`` is the coefficient matrix of the operator at ``(x, y)``; the
    lifted entry at ``((x, i), (y, j))`` is ``[l(y, x) b_i, b_j]``.  Since
    the lifted point depends linearly on the module argument, restricting to
    a basis loses nothing.  Every operator must be adjointable with
    ``l(x, y)* = l(y, x)`` to ``tols.structural``; the adjoints of all pairs
    ``x <= y`` come from one least-squares solve, and the first pair in
    row-major order that fails either check is reported.  An action on the
    points lifts to act on pairs by leaving the basis index alone.
    """
    l = np.asarray(l, dtype=complex)
    m = l.shape[0]
    dim, dz = H.dim, H.zspace.dim
    if m == 0:
        # Nothing to pair, so the module's dim**2 gram tensor is not built.
        return LiftedKernel(Kernel(H.zspace, np.zeros((0, 0, dz, dz), dtype=complex)), (), action)
    if l.shape != (m, m, dim, dim):
        raise SchemaError(f"operator table must have shape (m, m, {dim}, {dim}), got {l.shape}")
    # All pairs x <= y, in row-major order: the first to fail is reported.
    xs, ys = np.triu_indices(m)
    adjoints, resid, scale = _adjoint_solves(H, l[xs, ys])
    inconsistent = resid > tols.structural * scale
    mismatch = np.max(np.abs(adjoints - l[ys, xs]), axis=(1, 2)) > tols.structural * entry_scale(l)
    if np.any(inconsistent | mismatch):
        i = int(np.argmax(inconsistent | mismatch))
        if inconsistent[i]:
            raise NotAdjointableError(
                f"adjoint system of l({xs[i]},{ys[i]}) inconsistent, residual {resid[i]:.3e}"
            )
        raise HermitianMismatchError(f"l({xs[i]},{ys[i]})* differs from l({ys[i]},{xs[i]}) beyond tolerance")
    table = _basis_pairings(H, l).transpose(1, 2, 0, 3, 4, 5).reshape(m * dim, m * dim, dz, dz)
    legend = tuple((x, i) for x in range(m) for i in range(dim))
    lifted_action = None
    if action is not None:
        base = np.asarray(action.table)
        lifted = (base[:, :, None] * dim + np.arange(dim)[None, None, :]).reshape(base.shape[0], m * dim)
        lifted_action = Action(lifted, unital=action.unital)
    return LiftedKernel(Kernel(H.zspace, table), legend, lifted_action)


def recover_operator_dilation(dec, H: VEModuleH, l: np.ndarray):
    """Reassemble the operator dilation from a decomposition of the lift.

    Returns ``(Vt, defect)`` where ``Vt[x]`` maps module coefficients into
    the decomposition space (shape ``(n, dim)``) and ``defect`` is the worst
    entrywise gap in ``[Vt(x) b_i, Vt(y) b_j] = [l(y, x) b_i, b_j]``.
    """
    l = np.asarray(l, dtype=complex)
    dim = H.dim
    m = dec.V.shape[0] // dim
    if dec.V.shape[0] != m * dim or l.shape[0] != m:
        raise SchemaError("decomposition size does not match the lifted index set")
    Vt = dec.V.reshape(m, dim, dec.n).transpose(0, 2, 1)  # (m, n, dim)
    dz = dec.gram.d
    lhs = linearised_kernel(dec).table.reshape(m, dim, m, dim, dz, dz)
    target = _basis_pairings(H, l).transpose(1, 2, 0, 3, 4, 5)  # [l(y, x) b_i, b_j] at (x, i, y, j)
    return Vt, float(np.max(np.abs(lhs - target)))


@dataclass(frozen=True)
class SemigroupMapT:
    """A semigroup-indexed family of sesquilinear-form tensors.

    ``tensors[s, i, j]`` is the value-space element pairing coordinates
    ``i`` (conjugated slot) and ``j`` of ``C^q``; the map it represents
    sends ``y`` to the conjugate-linear functional
    ``x -> sum conj(x_i) y_j tensors[s, i, j]``.
    """

    space: ZSpaceDescriptor
    tensors: np.ndarray = field()  # (g, q, q, d, d)

    def __post_init__(self):
        t = np.asarray(self.tensors, dtype=complex)
        if t.ndim != 5 or t.shape[1] != t.shape[2]:
            raise SchemaError(f"tensors must have shape (g, q, q, d, d), got {t.shape}")
        if t.shape[3:] != (self.space.dim, self.space.dim):
            raise SchemaError("tensor entries do not match the value space")
        t.flags.writeable = False
        object.__setattr__(self, "tensors", t)

    @property
    def q(self) -> int:
        return self.tensors.shape[1]

    @property
    def g(self) -> int:
        return self.tensors.shape[0]


def lift_semigroup_map(T: SemigroupMapT, S: StarSemigroup) -> LiftedKernel:
    """Kernel ``k((s, i), (t, j)) = T[s* t][i][j]`` with the left-translation action.

    Positivity of the map in the vector sense is equivalent to weak
    positivity of this kernel, and the kernel is always invariant under the
    lifted left action, so the downstream machinery applies unchanged.
    """
    if T.g != S.size:
        raise SchemaError("tensor family size does not match the semigroup")
    g, q = S.size, T.q
    star_prod = S.mult[S.inv, :]  # star_prod[s, t] = s* t
    arr = T.tensors[star_prod]  # (s, t, i, j, d, d)
    table = arr.transpose(0, 2, 1, 3, 4, 5).reshape(g * q, g * q, T.space.dim, T.space.dim)
    legend = tuple((s, i) for s in range(g) for i in range(q))
    base = left_translation_action(S).table
    lifted = (base[:, :, None] * q + np.arange(q)[None, None, :]).reshape(g, g * q)
    return LiftedKernel(Kernel(T.space, table), legend, Action(lifted, unital=S.unit is not None))


def verify_factorization(T: SemigroupMapT, S: StarSemigroup, dec, rep) -> float:
    """Residual of ``T_t = A' pi(t) A`` with ``A`` the unit slice of ``V``.

    ``dec`` and ``rep`` must come from the lift of ``T``; the defect is the
    worst entrywise gap of ``[A e_j, pi(t) A e_i] - T[t][j][i]``.  Requires a
    unit element.
    """
    if S.unit is None:
        raise NoUnitError("factorisation needs a unital *-semigroup")
    q = T.q
    if dec.V.shape[0] != S.size * q:
        raise SchemaError("decomposition does not match the lifted index set")
    e = S.unit
    A = dec.V[e * q : (e + 1) * q].T  # (n, q)
    n, d = dec.n, T.space.dim
    PA = (rep.matrices @ A).transpose(1, 0, 2).reshape(n, S.size * q)  # [b, (t, i)] of pi(t) A
    lhs = pair_coords(dec.gram.table, A, PA)  # [j, (t, i), c, e]
    lhs = lhs.reshape(q, S.size, q, d, d).transpose(1, 0, 2, 3, 4)
    return float(np.max(np.abs(lhs - T.tensors)))


@dataclass(frozen=True)
class GnsInstance:
    """A positive-type function turned into a kernel on the semigroup itself.

    Decomposing the kernel and building the representation yields the cyclic
    construction with cyclic vector ``V(unit)``.
    """

    kernel: Kernel
    action: Action


def gns_instance(S: StarSemigroup, phi, space: ZSpaceDescriptor | None = None) -> GnsInstance:
    """Kernel ``k(s, t) = phi[s* t]`` on the semigroup with left translation."""
    if S.unit is None:
        raise NoUnitError("the cyclic construction needs a unit")
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim == 1:
        phi = phi.reshape(-1, 1, 1)
    if phi.shape[0] != S.size or phi.ndim != 3 or phi.shape[1] != phi.shape[2]:
        raise SchemaError("phi must hold one value-space element per semigroup element")
    if space is None:
        space = scalar_space() if phi.shape[1] == 1 else hermitian_space(phi.shape[1])
    table = phi[S.mult[S.inv, :]]
    return GnsInstance(Kernel(space, table), left_translation_action(S))


def gram_semigroup_map(S: StarSemigroup, rep: np.ndarray, factors: np.ndarray) -> SemigroupMapT:
    """Positive map ``T[u][i][j] = B_i* R(u) B_j`` from a *-representation ``R``.

    ``rep`` holds one ``r x r`` matrix per element with ``R(st) = R(s) R(t)``
    and ``R(s*) = R(s)*``, verified to the default ``Tolerances.structural``;
    ``factors`` is a ``(q, r, d)`` family of insertion maps.  The lift of the
    result is Gram-built, hence weakly (in fact strongly) positive.
    """
    rep = np.asarray(rep, dtype=complex)
    factors = np.asarray(factors, dtype=complex)
    if rep.shape[0] != S.size or rep.ndim != 3 or rep.shape[1] != rep.shape[2]:
        raise SchemaError("rep must hold one square matrix per semigroup element")
    if factors.ndim != 3 or factors.shape[1] != rep.shape[1]:
        raise SchemaError("factors must have shape (q, r, d)")
    tol = Tolerances.structural * entry_scale(rep)
    for a in range(S.size):
        if float(np.max(np.abs(rep[S.inv[a]] - rep[a].conj().T))) > tol:
            raise SchemaError(f"rep is not a *-representation: star fails at element {a}")
        for b in range(S.size):
            if float(np.max(np.abs(rep[S.mult[a, b]] - rep[a] @ rep[b]))) > tol:
                raise SchemaError(
                    f"rep is not a representation: product fails at ({a}, {b})"
                )
    d = factors.shape[2]
    tensors = np.einsum("ira,urs,jsb->uijab", np.conj(factors), rep, factors)
    space = scalar_space() if d == 1 else hermitian_space(d)
    return SemigroupMapT(space, tensors)


def left_regular_star_rep(S: StarSemigroup) -> np.ndarray:
    """Permutation matrices of left translation; a *-representation for groups.

    Valid when the involution is the group inverse (so translation is a
    bijection and the transpose matches the starred element); raises
    otherwise.  The 0/1 matrices are compared exactly.
    """
    g = S.size
    R = np.zeros((g, g, g), dtype=complex)
    for s in range(g):
        R[s, S.mult[s], np.arange(g)] = 1.0
    if not np.array_equal(R[S.inv], np.swapaxes(R, 1, 2)):
        raise SchemaError("left translation is not a *-representation for this involution")
    return R
