"""Matrix-valued kernels on finite point sets and their positivity verdicts.

A kernel assigns to every ordered pair of points an element of the value
space (a ``d x d`` complex matrix).  Two positivity notions are computed:

* **weak** positivity asks every scalar-coefficient contraction
  ``M(t) = sum_kj conj(t_k) t_j k(x_k, x_j)`` to land in the positive cone;
  for ``d > 1`` this is block-positivity, which is hard to certify in
  general, so the verdict is three-valued and a positive certificate is
  never claimed from a failed search;
* **strong** positivity is plain semidefiniteness of the ``md x md`` block
  matrix, a sufficient condition that is strictly stronger (the swap kernel
  separates the two).

The falsifier is an alternating eigenvector descent on the bilinear form
``(t, h) -> <h, M(t) h>`` over unit spheres, restarted from seeded random
points; any claimed negative witness is re-verified from the raw table.
Each descent stops once its cheap ``d x d`` step no longer lowers the value,
and the search stops at the first descent that finds a witness.

The starts run in lockstep chunks of ``DESCENT_CHUNK``, each step one
stacked ``eigh`` over the chunk.  The descents of a chunk do not depend on
one another, so its results are read in start order and the search stops
at the first witness: the verdict is that of running the starts one by one.

Every form ``M(t)`` depends on ``t`` only through its part in the span of
the kernel's columns, of dimension ``p <= m`` (the linearisation behind the
Kolmogorov decomposition), and vanishes on the complement.  So the
descent's ``t``-steps run on the kernel compressed to an orthonormal basis
of that span, ``p x p`` eigenproblems in place of ``m x m`` ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotHermitianError, SchemaError
from .zspace import (
    Tolerances,
    ZSpaceDescriptor,
    entry_scale,
    hermitian_part,
    involution,
    pair_coords,
    scalar_space,
)

STATUS_POSITIVE = "certified_positive"
STATUS_NOT_POSITIVE = "certified_not_positive"
STATUS_UNDETERMINED = "undetermined"

METHOD_SCALAR = "scalar_exact"
METHOD_BLOCK_PSD = "block_psd_sufficient"
METHOD_WITNESS = "witness_found"
METHOD_EXHAUSTED = "search_exhausted"

#: Falsifier starts descended in lockstep, as stacked ``eigh`` calls; the
#: verdict does not depend on it.
DESCENT_CHUNK = 16


@dataclass(frozen=True)
class Kernel:
    """An ``m x m`` table of value-space elements; ``table[x, y] = k(x, y)``."""

    space: ZSpaceDescriptor
    table: np.ndarray = field()  # (m, m, d, d)

    def __post_init__(self):
        t = np.asarray(self.table, dtype=complex)
        if t.ndim != 4 or t.shape[0] != t.shape[1]:
            raise SchemaError(f"kernel table must have shape (m, m, d, d), got {t.shape}")
        if t.shape[2:] != (self.space.dim, self.space.dim):
            raise SchemaError(
                f"kernel entries {t.shape[2:]} do not match space dim {self.space.dim}"
            )
        if not np.all(np.isfinite(t)):
            raise SchemaError("kernel has non-finite entries")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def m(self) -> int:
        return self.table.shape[0]

    @property
    def d(self) -> int:
        return self.table.shape[2]

    @cached_property
    def entry_scale(self) -> float:
        """``zspace.entry_scale`` of the table, kept: the table is read-only."""
        return entry_scale(self.table)

    @cached_property
    def hermitian_defect(self) -> float:
        """Max entrywise gap between ``k(x, y)`` and ``k(y, x)*``, kept like ``entry_scale``."""
        t = self.table
        return float(np.max(np.abs(t - involution(t).transpose(1, 0, 2, 3)), initial=0.0))


@dataclass(frozen=True)
class Witness:
    """A coefficient/direction pair exhibiting a quadratic form outside the cone.

    ``kind`` is ``"negative"`` when ``Re <h, M(t) h>`` is below the threshold
    and ``"non_selfadjoint"`` when the form itself fails selfadjointness (its
    value on ``h`` has a nonvanishing imaginary part); in both cases ``value``
    is negative and measures the violation.
    """

    t: np.ndarray
    h: np.ndarray
    value: float
    kind: str = "negative"


@dataclass(frozen=True)
class PositivityVerdict:
    status: str
    method: str
    witness: Witness | None = None
    best_found: float = 0.0
    diagnostics: dict = field(default_factory=dict)


def adjoint_kernel(k: Kernel) -> Kernel:
    """The kernel ``(x, y) -> k(y, x)*``."""
    return Kernel(k.space, involution(k.table).transpose(1, 0, 2, 3))


def hermitian_defect_kernel(k: Kernel) -> float:
    return k.hermitian_defect


def is_hermitian(k: Kernel, tols: Tolerances = Tolerances()) -> bool:
    """Whether ``k(x, y) = k(y, x)*`` up to ``tols.structural`` times the entry scale."""
    return k.hermitian_defect <= tols.structural * k.entry_scale


def is_invariant(k: Kernel, S, A, tols: Tolerances = Tolerances()) -> list[tuple]:
    """Violations of ``k(y, s.x) = k(s*.y, x)``, one tuple ``(s, x, y, defect)`` each.

    A violation is a defect above ``tols.structural`` times the entry scale.
    """
    if A.table.shape != (S.size, k.m):
        raise SchemaError(
            f"action table shape {A.table.shape} does not match ({S.size}, {k.m})"
        )
    tol = tols.structural * k.entry_scale
    out = []
    for s in range(S.size):
        lhs = k.table[:, A.table[s]]  # lhs[y, x] = k(y, s.x)
        rhs = k.table[A.table[S.inv[s]], :]  # rhs[y, x] = k(s*.y, x)
        defect = np.max(np.abs(lhs - rhs), axis=(2, 3))
        for y, x in zip(*np.nonzero(defect > tol)):
            out.append((int(s), int(x), int(y), float(defect[y, x])))
    return out


def _forms(table: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The forms ``M(t)`` of the rows of ``T`` (``s x n``) on an ``(n, n, d, d)`` table: ``(s, d, d)``."""
    n, d = table.shape[0], table.shape[2]
    left = (np.conj(T) @ table.reshape(n, n * d * d)).reshape(len(T), n, d * d)
    return (T[:, None, :] @ left).reshape(len(T), d, d)


def _direction_forms(table: np.ndarray, H: np.ndarray) -> np.ndarray:
    """The forms ``W_h`` of the rows of ``H`` (``s x d``) on an ``(n, n, d, d)`` table: ``(s, n, n)``."""
    n, d = table.shape[0], table.shape[2]
    outer = (np.conj(H)[:, :, None] * H[:, None, :]).reshape(len(H), d * d)  # [s, (a, b)] = conj(h_a) h_b
    return (outer @ table.reshape(n * n, d * d).T).reshape(len(H), n, n)


def quad_form(k: Kernel, t) -> np.ndarray:
    """``M(t) = sum_kj conj(t_k) t_j k(x_k, x_j)`` as a ``d x d`` matrix."""
    return _forms(k.table, np.asarray(t, dtype=complex).reshape(1, -1))[0]


def direction_form(k: Kernel, h) -> np.ndarray:
    """``W_h[k, j] = <h, k(x_k, x_j) h>`` as an ``m x m`` matrix."""
    return _direction_forms(k.table, np.asarray(h, dtype=complex).reshape(1, -1))[0]


def pair_value(k: Kernel, t, h) -> complex:
    """The scalar ``<h, M(t) h>``; real for Hermitian kernels."""
    h = np.asarray(h, dtype=complex).reshape(-1)
    M = quad_form(k, t)
    return complex(np.conj(h) @ M @ h)


def block_matrix(k: Kernel) -> np.ndarray:
    """The ``md x md`` matrix with blocks ``k(x, y)`` at block position ``(x, y)``."""
    m, d = k.m, k.d
    return k.table.transpose(0, 2, 1, 3).reshape(m * d, m * d)


def strong_positivity(k: Kernel, tols: Tolerances = Tolerances()):
    """Minimal eigenvalue of the block matrix and the PSD verdict.

    The verdict holds the eigenvalue to ``-tols.structural`` times the entry
    scale.  Assumes a Hermitian kernel (the block matrix is then Hermitian);
    this is the vector-coefficient notion that implies weak positivity.
    """
    if k.m == 0:
        return 0.0, True
    B = block_matrix(k)
    min_eig = float(np.linalg.eigvalsh(hermitian_part(B)).min())
    return min_eig, bool(min_eig >= -tols.structural * k.entry_scale)


def verify_witness(k: Kernel, w: Witness, threshold: float) -> bool:
    """Re-evaluate a witness from the raw table.

    ``"negative"`` witnesses must give ``Re <h, M(t) h> < -threshold``;
    ``"non_selfadjoint"`` ones must give ``|Im <h, M(t) h>| > threshold``.
    """
    q = pair_value(k, w.t, w.h)
    if w.kind == "negative":
        return q.real < -threshold
    return abs(q.imag) > threshold


def _least_eigpairs(M: np.ndarray):
    """The least eigenvalue and a unit eigenvector of the Hermitian part of each matrix in a stack."""
    w, v = np.linalg.eigh(hermitian_part(M))
    return w[:, 0], v[:, :, 0]


def _min_eigpair(M: np.ndarray):
    w, v = _least_eigpairs(M[None])
    return float(w[0]), v[0]


def _column_basis(k: Kernel) -> np.ndarray:
    """Orthonormal basis ``Q`` (``m x p``) of the span of the kernel's columns in ``C^m``.

    The span is the range of the column matrix ``C = table.reshape(m, m d^2)``,
    read off the ``m x m`` factor ``R^*`` of ``C = R^* Q_1^*`` (the QR of
    ``C^*``).  Singular values at or below ``s_max * max(C.shape) * eps`` are
    rounding and are cut, as ``numpy.linalg.matrix_rank`` cuts them.
    """
    C = k.table.reshape(k.m, -1)
    R = np.linalg.qr(C.conj().T, mode="r")
    U, s, _ = np.linalg.svd(R.conj().T)
    return U[:, : int(np.sum(s > s[0] * max(C.shape) * np.finfo(float).eps))]


def _nonhermitian_witness(k: Kernel, thresh: float) -> Witness:
    """Two-point witness that some quadratic form leaves the cone.

    A non-Hermitian kernel always yields one on supports of size <= 2 with
    coefficients from ``{1, +-1, +-i}``: either the Hermitian part of some
    ``M(t)`` has a negative eigenvalue or ``M(t)`` fails selfadjointness.
    """
    m = k.m
    best = None  # (violation, witness)
    patterns = [(1.0,), (1.0, 1.0), (1.0, -1.0), (1.0, 1j), (1.0, -1j)]
    for x in range(m):
        for y in range(x, m):
            for pat in patterns:
                if (len(pat) == 1) != (x == y):
                    continue
                t = np.zeros(m, dtype=complex)
                t[x] = pat[0]
                if len(pat) == 2:
                    t[y] = pat[1]
                t = t / np.linalg.norm(t)
                M = quad_form(k, t)
                lam, h = _min_eigpair(M)
                if lam < -thresh and (best is None or -abs(lam) < best[0]):
                    best = (lam, Witness(t, h, lam, "negative"))
                N = 0.5 * (M - M.conj().T)
                wN, vN = np.linalg.eigh(-1j * N)
                i_ext = int(np.argmax(np.abs(wN)))
                im = float(wN[i_ext])
                if abs(im) > thresh and (best is None or -abs(im) < best[0]):
                    best = (-abs(im), Witness(t, vN[:, i_ext], -abs(im), "non_selfadjoint"))
    if best is None:
        raise NotHermitianError(
            "kernel flagged non-Hermitian but no two-point witness found; "
            "the Hermitian defect is at tolerance level"
        )
    return best[1]


def weak_positivity(
    k: Kernel,
    restarts: int = 64,
    max_iters: int = 200,
    seed: int = 0,
    tols: Tolerances = Tolerances(),
) -> PositivityVerdict:
    """Three-valued weak (block) positivity verdict.

    Pipeline: non-Hermitian kernels are immediately refuted with a two-point
    witness; for scalar kernels the verdict is exact from the eigenvalues of
    the ``m x m`` matrix; if the full block matrix is PSD the kernel is
    certified positive (positivity on product directions follows); otherwise
    an alternating eigenvector descent searches for a product direction with
    a negative form.  Search failure yields ``undetermined``, never a
    positive certificate.

    Checking the single full tuple of all points over every coefficient
    vector is equivalent to checking all finite tuples with repetition, so
    the search space is ``C^m x C^d``.  The descent is deterministic: the
    ``m`` canonical single-point starts run first, then the random ones,
    whose seeds are the children ``SeedSequence(seed).spawn(restarts)``
    would give, drawn one at a time as the chunks need them.  ``max_iters``
    must be at least 1.

    Each iteration of a descent first takes the least eigenpair ``(b, h)``
    of the ``d x d`` form ``M(t)``, and stops once ``b`` is within 1e-12 of
    the previous iteration's value; only otherwise does it take the least
    eigenpair of the form ``W_h = [<h, k(x_k, x_j) h>]``.  The values never
    increase, and when ``M(t)`` has a simple least eigenvalue the skipped
    step would return ``t`` again.  The search stops after the first descent
    that ends below ``-tols.structural`` times the entry scale: a re-verified
    witness decides the verdict, so the rest of the budget could not change
    it.  ``diagnostics['restarts']`` counts the random starts run, and
    ``diagnostics['non_converged']`` those among them that used all
    ``max_iters`` iterations.

    The starts run in lockstep, ``DESCENT_CHUNK`` at a time in start order,
    each step one stacked ``eigh`` over the chunk's live descents; a descent
    leaves the chunk when it stalls or its iterations run out.  Each descent
    is independent of the others in its chunk, so once the chunk is done its
    results are read in start order, candidates are valued on the raw table,
    and the search stops at the first witness; the descents after it in the
    chunk are discarded.  So the verdict, ``restarts`` and ``non_converged``
    are those of running the starts one by one, whatever the chunk size.

    The ``t``-step runs in the span of the kernel's columns: with ``Q`` an
    orthonormal basis of it (``m x p``), it is the least eigenpair of the
    ``p x p`` form ``Q^* W_h Q``, or the value 0 of a direction outside the
    span when ``p < m`` and that is smaller; the iterate is ``t = Q u``.  The
    span is cut at rounding level (``numpy.linalg.matrix_rank``'s rule, a
    literal, not a run option): a dropped direction carries forms of at most
    about 1e-12 times the entry scale, three decades below the default
    ``tols.structural``, so the cut narrows the search to what it could
    resolve anyway.  The first ``h``-step of each start is read from the raw
    table, so canonical starts catch diagonal violations exactly, and so is
    the value of a descent that ends below the threshold: a witness is
    decided, re-checked and reported with its value on the raw table.
    """
    if max_iters < 1:
        raise SchemaError(f"max_iters must be >= 1, got {max_iters}")
    thresh = tols.structural * k.entry_scale
    diagnostics: dict = {"restarts": 0, "non_converged": 0}

    defect = k.hermitian_defect
    if defect > thresh:
        diagnostics["hermitian_defect"] = defect
        w = _nonhermitian_witness(k, thresh)
        return PositivityVerdict(STATUS_NOT_POSITIVE, METHOD_WITNESS, w, w.value, diagnostics)

    if k.m == 0:
        return PositivityVerdict(STATUS_POSITIVE, METHOD_BLOCK_PSD, None, 0.0, diagnostics)

    if k.d == 1:
        K = hermitian_part(k.table[:, :, 0, 0])
        w, v = np.linalg.eigh(K)
        lam = float(w[0])
        if lam >= -thresh:
            return PositivityVerdict(STATUS_POSITIVE, METHOD_SCALAR, None, lam, diagnostics)
        wit = Witness(v[:, 0], np.ones(1, dtype=complex), lam, "negative")
        return PositivityVerdict(STATUS_NOT_POSITIVE, METHOD_SCALAR, wit, lam, diagnostics)

    min_eig, psd = strong_positivity(k, tols)
    diagnostics["block_min_eig"] = min_eig
    if psd:
        return PositivityVerdict(STATUS_POSITIVE, METHOD_BLOCK_PSD, None, min_eig, diagnostics)

    Q = _column_basis(k)
    kc = pair_coords(k.table, Q, Q)  # M_kc(u) = M(Q u)
    best_val = np.inf
    wit = None
    starts = itertools.chain(np.eye(k.m, dtype=complex), _random_starts(k.m, restarts, seed))
    first = 0  # the index of the chunk's first start among all starts
    while wit is None:
        T = np.array(list(itertools.islice(starts, DESCENT_CHUNK)))
        if not len(T):
            break
        val, converged, U, H = _descend(k.table, kc, T, max_iters)
        stop = len(T)
        for i in np.flatnonzero(val < -thresh):  # a candidate is valued on the raw table
            t = Q @ U[i]
            val[i] = pair_value(k, t, H[i]).real
            if val[i] < -thresh:
                stop, wit = i + 1, Witness(t, H[i], float(val[i]), "negative")
                break
        is_random = np.arange(first, first + stop) >= k.m
        diagnostics["restarts"] += int(np.count_nonzero(is_random))
        diagnostics["non_converged"] += int(np.count_nonzero(is_random & ~converged[:stop]))
        best_val = min(best_val, float(val[:stop].min()))
        first += stop

    if wit is not None:
        if not verify_witness(k, wit, thresh / 2):
            raise AssertionError("falsifier witness failed re-verification")
        return PositivityVerdict(STATUS_NOT_POSITIVE, METHOD_WITNESS, wit, best_val, diagnostics)
    return PositivityVerdict(STATUS_UNDETERMINED, METHOD_EXHAUSTED, None, best_val, diagnostics)


def _random_starts(m: int, restarts: int, seed: int):
    """The random starts, each from the next child of ``SeedSequence(seed)``, drawn on demand."""
    seeds = np.random.SeedSequence(seed)
    for _ in range(restarts):
        rng = np.random.default_rng(seeds.spawn(1)[0])
        yield rng.standard_normal(m) + 1j * rng.standard_normal(m)


def _descend(table, kc, T, max_iters: int):
    """Descents from the rows of ``T``, run in lockstep; see ``weak_positivity``.

    Returns, per start, the final value (on the compressed table ``kc``),
    whether it stalled within ``max_iters`` iterations, and the final
    ``(u, h)``.
    """
    s, m, p = len(T), table.shape[0], kc.shape[0]
    val = np.full(s, np.inf)  # each start's latest value: its last h-step's or t-step's
    converged = np.zeros(s, dtype=bool)
    U = np.zeros((s, p), dtype=complex)
    H = np.zeros((s, table.shape[2]), dtype=complex)
    live = np.arange(s)
    forms = _forms(table, T / np.linalg.norm(T, axis=1, keepdims=True))
    for _ in range(max_iters):
        b, H[live] = _least_eigpairs(forms)
        stalled = val[live] - b < 1e-12
        val[live] = b
        converged[live[stalled]] = True
        live = live[~stalled]
        if not live.size:
            break
        lam, u = _least_eigpairs(_direction_forms(kc, H[live]))
        if p < m:  # every form vanishes on the complement of Q, where the value is 0
            outside = lam > 0
            lam[outside], u[outside] = 0.0, 0.0
        val[live], U[live] = lam, u
        forms = _forms(kc, U[live])
    return val, converged, U, H


def twopos_diagnostics(k: Kernel, tols: Tolerances = Tolerances()):
    """Split points by vanishing diagonal and flag off-diagonal leakage.

    Returns ``(X0, X1, violations)``: points whose self-value has operator
    norm within ``tols.structural`` times the entry scale versus the rest,
    and the pairs ``(x in X0, y)`` whose cross value exceeds that bound.
    Any violation certifies the kernel is not weakly 2-positive.
    """
    tol = tols.structural * k.entry_scale
    norms = np.linalg.norm(k.table, ord=2, axis=(2, 3)) if k.m else np.zeros((0, 0))
    X0 = [x for x in range(k.m) if norms[x, x] <= tol]
    X1 = [x for x in range(k.m) if norms[x, x] > tol]
    violations = []
    for x in X0:
        for y in range(k.m):
            if max(norms[x, y], norms[y, x]) > tol:
                violations.append((x, y))
    return X0, X1, violations


def random_block_psd_kernel(m: int, d: int, rank: int, seed: int) -> Kernel:
    """Deterministic Gram-built kernel ``k(x, y) = F(x)* F(y)``; block-PSD."""
    if rank < 1:
        raise SchemaError("rank must be >= 1")
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((m, rank, d)) + 1j * rng.standard_normal((m, rank, d))
    table = np.einsum("xra,yrb->xyab", np.conj(F), F)
    space = scalar_space() if d == 1 else ZSpaceDescriptor("hermitian", d)
    return Kernel(space, table)
