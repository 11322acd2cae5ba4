"""Minimal linearisations of Hermitian kernels and the induced *-representations.

The construction realises the linearisation space inside the space of
matrix-valued functions on the point set: the columns ``x -> k(., x)`` span
it, a rank-revealing pivoted orthogonalisation selects a function basis, the
metric on the basis (the gram) is the kernel restricted to the pivot points,
held as a ``Kernel`` of its own, and the map ``V`` sends each point to the
least-squares coordinates of its column.  For an invariant kernel the
representation acts by pushing columns along the action, which fixes its
matrices on the selected basis.

Elements of the realised space exist in two guises: realised functions
(arrays of shape ``(m, d, d)``) and coefficient vectors; equality is always
decided on realised functions, since coefficient representatives are not
unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Action, StarSemigroup
from .errors import (
    HypothesisFailsError,
    IllDefinedError,
    NoIsometryError,
    NotHermitianError,
    NotInvariantError,
    SchemaError,
    WeakPositivityError,
    ZeroDenominatorError,
)
from .kernels import (
    Kernel,
    block_matrix,
    direction_form,
    is_invariant,
    pair_value,
    quad_form,
)
from .zspace import Tolerances, entry_scale, hermitian_part, pair_coords


@dataclass(frozen=True)
class KolmogorovDecomposition:
    """Pair (space, V) with ``[V(x), V(y)] = k(x, y)`` and ``V(X)`` spanning.

    Basis vector ``i`` is the kernel column at point ``pivots[i]``, and
    ``gram`` is the metric on the basis: the kernel restricted to the pivot
    points, over the kernel's value space.  ``V[x]`` holds the coordinates
    of point ``x`` in the basis; minimality is automatic because the basis
    functions are themselves selected columns.  ``residual`` is the worst
    entrywise reconstruction error over all columns.
    """

    gram: Kernel
    pivots: tuple
    V: np.ndarray = field()  # (m, n)
    residual: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "pivots", tuple(int(p) for p in self.pivots))
        v = np.asarray(self.V, dtype=complex)
        v.flags.writeable = False
        object.__setattr__(self, "V", v)

    @property
    def n(self) -> int:
        return self.gram.m

    @property
    def m(self) -> int:
        return self.V.shape[0]


@dataclass(frozen=True)
class StarRepresentation:
    """Per-element matrices on the decomposition space plus law defects.

    ``mult_defect`` bounds ``pi(ab) - pi(a) pi(b)`` in spectral norm over all
    pairs by ``max_a sqrt(mu) ||inter_a||_2 + law_a``, which rests on the
    push-forward ``pi(s)[:, i] = V(s.p_i)``: ``inter_a`` is the intertwining
    gap of ``a`` at every point, ``mu`` the most pivots one element sends to
    one point (1 for a group action), and ``law_a`` is 0 unless the action
    law ``ab.p = a.(b.p)`` fails on the pivots.  ``star_defect`` is the
    entrywise gap in ``[pi(s) f, g] = [f, pi(s*) g]`` over basis pairs, and
    ``intertwine_defect`` the coordinate gap in ``pi(s) V(x) = V(s.x)``.
    """

    matrices: np.ndarray = field()  # (g, n, n)
    mult_defect: float = 0.0
    star_defect: float = 0.0
    intertwine_defect: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        ms = np.asarray(self.matrices, dtype=complex)
        ms.flags.writeable = False
        object.__setattr__(self, "matrices", ms)


@dataclass(frozen=True)
class BoundEstimate:
    """Bracket for the domination constant of one semigroup element.

    ``lower`` comes from a re-verified Rayleigh witness on product
    directions; ``upper`` from full-order pencil domination, which implies
    the product-direction inequality but may strictly exceed the minimal
    weak constant when ``d > 1``.  It is an upper bound, not the constant.
    """

    element: int
    lower: float
    upper: float
    witness_t: np.ndarray | None = None
    witness_h: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _pivoted_basis(C: np.ndarray, unit: float, rank_tol: float, pivot_order=None):
    """Select pivot columns of ``unit * C`` by modified Gram-Schmidt.

    ``unit`` is a power of two, so the scaling is exact.  Greedy mode picks
    the largest residual column (ties to the lowest index); with an explicit
    ``pivot_order`` the columns are scanned in that order and every column
    whose residual exceeds the tolerance is taken.  Returns the pivots and,
    for each, the residual norm that was compared against ``rank_tol``.
    """
    m = C.shape[1]
    R = unit * np.asarray(C, dtype=complex)
    pivots: list[int] = []
    cut_norms: list[float] = []

    def take(x, norm):
        q = R[:, x] / np.linalg.norm(R[:, x])
        R[:, :] -= np.outer(q, q.conj() @ R)
        R[:, x] = 0.0
        pivots.append(int(x))
        cut_norms.append(float(norm))

    if pivot_order is None:
        while True:
            norms = np.linalg.norm(R, axis=0)
            x = int(np.argmax(norms))
            if norms[x] <= rank_tol:
                break
            take(x, norms[x])
    else:
        order = [int(x) for x in pivot_order]
        if sorted(order) != list(range(m)):
            raise SchemaError("pivot_order must be a permutation of the point indices")
        for x in order:
            norm = np.linalg.norm(R[:, x])
            if norm > rank_tol:
                take(x, norm)
    return pivots, cut_norms


def build_kolmogorov(
    k: Kernel, tols: Tolerances = Tolerances(), pivot_order=None
) -> KolmogorovDecomposition:
    """Minimal linearisation of a Hermitian kernel.

    The rank cut is ``tols.rank`` times the largest column norm.  Weak
    positivity is not certified here (that is the positivity verifier's
    job); the builder only validates the quadratic forms it actually
    touches: diagonal values must sit in the cone and the self-form of every
    reconstruction-residual coefficient vector must not be significantly
    negative.  Functions with vanishing self-form are the zero function in
    this realisation, so no quotient is needed.

    Raises ``NotHermitianError`` (Hermitian defect above ``tols.structural``
    times the entry scale) or ``WeakPositivityError`` (a probed form with an
    eigenvalue below ``-tols.structural`` times the entry scale, the bound
    ``weak_positivity`` holds the cone to).  An unstable numerical rank
    is reported in ``diagnostics['rank_unstable']``, not fatal: some pivot
    was taken with a residual norm within a decade of the cut.  In greedy mode that is exactly when the pivot count at ten times
    the tolerance differs; with a ``pivot_order`` it only says that some
    pivot lies within a decade of the cut.
    """
    structural, scale = tols.structural, k.entry_scale
    defect = k.hermitian_defect
    if defect > structural * scale:
        raise NotHermitianError(f"kernel Hermitian defect {defect:.3e}")
    m, d = k.m, k.d
    C = k.table.transpose(1, 0, 2, 3).reshape(m, m * d * d).T.copy()  # C[:, x] = k(., x)
    # Pivots are chosen on the columns scaled by the power of two just above
    # their largest entry: the scaling is exact, and the column norms neither
    # overflow nor underflow.  The exponent is capped so that ``unit`` stays
    # finite for subnormal entries.
    exponent = int(np.frexp(np.max(np.abs(C), initial=0.0))[1])
    unit = 2.0 ** min(-exponent, 1000)
    col_scale = float(np.max(np.linalg.norm(C * unit, axis=0))) if m else 0.0
    rank_tol = tols.rank * col_scale
    diagnostics: dict = {}
    pivots: list[int] = []
    if col_scale > 0:
        pivots, cut_norms = _pivoted_basis(C, unit, rank_tol, pivot_order)
        diagnostics["rank_unstable"] = any(norm <= 10.0 * rank_tol for norm in cut_norms)
    n = len(pivots)

    def probe(forms, coeffs, what) -> float:
        """Least eigenvalue over the forms of the columns of ``coeffs``; raises on a negative one."""
        lam = np.linalg.eigvalsh(hermitian_part(forms)).min(axis=1)
        bad = np.flatnonzero(lam < -structural * scale)
        if bad.size:
            x = int(bad[0])
            raise WeakPositivityError(
                f"{what} at point {x} has eigenvalue {lam[x]:.3e}",
                witness=coeffs[:, x].copy(),
                value=float(lam[x]),
            )
        return float(lam.min(initial=np.inf))

    # Per-point probes of the quadratic forms the construction relies on.
    points = np.arange(m)
    probe_min = probe(k.table[points, points], np.eye(m, dtype=complex), "diagonal value")

    if n == 0:
        gram = Kernel(k.space, np.zeros((0, 0, d, d), dtype=complex))
        residual = float(np.max(np.abs(C))) if m else 0.0
        return KolmogorovDecomposition(gram, (), np.zeros((m, 0), dtype=complex), residual, diagnostics)

    B = C[:, pivots]
    W, *_ = np.linalg.lstsq(B, C, rcond=None)  # (n, m)
    V = W.T
    residual = float(np.max(np.abs(B @ W - C)))

    # Column x is the residual coefficient vector e_x - sum_i V[x, i] e_{p_i}.
    R = np.eye(m, dtype=complex)
    R[pivots] -= W
    forms = pair_coords(k.table, R, R)[points, points]
    diagnostics["probe_min"] = min(probe_min, probe(forms, R, "residual coefficient form"))

    gram = Kernel(k.space, k.table[np.ix_(pivots, pivots)])
    return KolmogorovDecomposition(gram, pivots, V, residual, diagnostics)


def linearised_kernel(dec: KolmogorovDecomposition) -> Kernel:
    """The kernel ``(x, y) -> [V(x), V(y)]`` that a decomposition determines."""
    return Kernel(dec.gram.space, pair_coords(dec.gram.table, dec.V.T, dec.V.T))


def verify_linearisation(dec: KolmogorovDecomposition, k: Kernel) -> float:
    """Worst entrywise gap between ``[V(x), V(y)]`` and ``k(x, y)``."""
    if dec.m != k.m:
        raise SchemaError("decomposition and kernel have different point counts")
    return float(np.max(np.abs(linearised_kernel(dec).table - k.table))) if k.m else 0.0


def _representation_defects(dec: KolmogorovDecomposition, act_table, S: StarSemigroup):
    """The push-forward matrices ``pi(s)[:, i] = V(s.p_i)`` and their law defects.

    ``star`` and ``inter`` are exact.  ``mult`` is the bound that
    ``StarRepresentation`` states, found without a product: by construction,
    column ``i`` of ``pi(ab) - pi(a) pi(b)`` is
    ``V(ab.p_i) - V(a.(b.p_i)) - inter_a[:, b.p_i]``, and those columns of
    ``inter_a = pi(a) V^T - V[a.]^T`` repeat a point at most ``mu`` times.
    """
    coords, images = dec.V, act_table[:, list(dec.pivots)]  # images[s, i] = s.p_i
    mats = np.ascontiguousarray(coords[images].transpose(0, 2, 1))
    g, n = images.shape
    if n == 0:
        return mats, 0.0, 0.0, 0.0
    m, d = coords.shape[0], dec.gram.d
    mu = int(np.bincount((np.arange(g)[:, None] * m + images).ravel()).max())
    rows = dec.gram.table.reshape(n, n * d * d)  # [a, (j, c, e)]
    cols = dec.gram.table.transpose(0, 2, 3, 1).reshape(n * d * d, n)  # [(i, c, e), b]
    mult = star = inter = 0.0
    for a in range(g):
        lhs = (np.conj(mats[a]).T @ rows).reshape(n, n, d, d)
        rhs = (cols @ mats[S.inv[a]]).reshape(n, d, d, n).transpose(0, 3, 1, 2)
        star = max(star, float(np.max(np.abs(lhs - rhs))))
        inter_a = mats[a] @ coords.T - coords[act_table[a]].T
        inter = max(inter, float(np.max(np.abs(inter_a))))
        direct, composed = images[S.mult[a]], act_table[a][images]  # [b, i] = ab.p_i, a.(b.p_i)
        broken = np.flatnonzero(np.any(direct != composed, axis=1))
        law = np.linalg.norm(coords[direct[broken]] - coords[composed[broken]], axis=(1, 2)).max(initial=0.0)
        mult = max(mult, np.sqrt(mu) * float(np.linalg.norm(inter_a, 2)) + float(law))
    return mats, mult, star, inter


def build_representation(
    dec: KolmogorovDecomposition,
    k: Kernel,
    S: StarSemigroup,
    A: Action,
    tols: Tolerances = Tolerances(),
    violations: list | None = None,
) -> StarRepresentation:
    """Representation of the *-semigroup on the decomposition space.

    Each element's matrix is fixed by pushing the basis columns along the
    action: basis vector ``i`` (the column of pivot ``p_i``) is sent to the
    coordinates of the column at ``s . p_i``.  ``violations`` is the result
    of ``is_invariant(k, S, A, tols)`` when the caller has it.  The law
    defects cover the whole semigroup; a coefficient push-forward
    cross-check, held to ``tols.rank`` times the entry scale, guards against
    an ill-defined action on representatives.
    """
    if violations is None:
        violations = is_invariant(k, S, A, tols)
    if violations:
        raise NotInvariantError(
            f"kernel is not invariant; first violation (s, x, y, defect) = {violations[0]}",
            violations,
        )
    mats, mult, star, inter = _representation_defects(dec, A.table, S)

    # Push-forward cross-check, all elements at once: a coefficient vector
    # pushed along the action, less the pivot coefficients that the matrix
    # gives its coordinates, must realise the zero function.
    rng = np.random.default_rng(7)
    coeff = rng.standard_normal(k.m) + 1j * rng.standard_normal(k.m)
    moved = np.zeros((S.size, k.m), dtype=complex)
    np.add.at(moved, (np.arange(S.size)[:, None], A.table), coeff)
    moved[:, list(dec.pivots)] -= mats @ (dec.V.T @ coeff)
    push = float(np.max(np.abs(moved @ k.table.reshape(k.m, k.m, k.d**2)), initial=0.0))
    if push > max(tols.rank * k.entry_scale * (1.0 + np.linalg.norm(coeff)), 10 * dec.residual * (1.0 + np.linalg.norm(coeff, 1))):
        raise IllDefinedError(
            f"coefficient push-forward disagrees with the matrix action by {push:.3e}"
        )
    return StarRepresentation(mats, mult, star, inter, {"pushforward_defect": push})


def _restricted_pencil_max(num: np.ndarray, den: np.ndarray, rel_tol: float, den_eig=None):
    """Largest generalized eigenvalue of ``(num, den)`` on the range of ``den``.

    ``den`` must be (numerically) PSD; directions with eigenvalue at or
    below ``rel_tol`` times the largest are treated as null and skipped.
    ``den_eig`` is the ``eigh`` of the Hermitian part of ``den`` when the
    caller already has it.  Returns ``(value, vector)`` or ``None`` when the
    range is trivial.
    """
    num = hermitian_part(num)
    w, U = np.linalg.eigh(hermitian_part(den)) if den_eig is None else den_eig
    lam_max = float(w.max()) if w.size else 0.0
    if lam_max <= 0.0:
        return None
    keep = w > rel_tol * lam_max
    if not np.any(keep):
        return None
    Ur = U[:, keep]
    inv_sqrt = 1.0 / np.sqrt(w[keep])
    Cmat = (Ur * inv_sqrt).conj().T @ num @ (Ur * inv_sqrt)
    ew, ev = np.linalg.eigh(hermitian_part(Cmat))
    vec = (Ur * inv_sqrt) @ ev[:, -1]
    return float(ew[-1]), vec


def bound_constant(
    k: Kernel,
    S: StarSemigroup,
    A: Action,
    alpha: int,
    restarts: int = 16,
    max_iters: int = 100,
    seed: int = 0,
    tols: Tolerances = Tolerances(),
) -> BoundEstimate:
    """Bracket ``[lower, upper]`` for the domination constant of ``alpha``.

    The constant ``c`` dominates the pushed kernel:
    ``sum conj(t_k) t_j k(a.x_k, a.x_j) <= c^2 sum conj(t_k) t_j k(x_k, x_j)``
    in the cone order.  ``lower`` maximises the Rayleigh ratio
    ``<h, M_a(t) h> / <h, M(t) h>`` by alternating restricted-pencil steps in
    ``t`` and ``h`` from canonical and seeded random starts; denominators at
    the null level are skipped.  ``upper`` is the largest generalized
    eigenvalue of the block matrices' pencil on the range of the
    denominator, a valid domination constant whenever the kernel is
    invariant and weakly positive.  For scalar kernels the two coincide.

    The ``m`` canonical starts and ``restarts`` random ones are a budget,
    and each climb takes at most ``max_iters`` steps, which must be at least 1.
    The search stops early only when the bracket is provably closed: the
    denominator is PSD, the numerator vanishes on its null space (so no
    product-direction ratio exceeds ``upper**2``), and a re-verified witness
    reaches ``upper**2`` to within the restriction tolerance.
    ``diagnostics['climbs']`` counts the climbs run.  ``tols.structural``
    sets the pencils' null cut and the indefinite-denominator and null-leak
    tests (see ``Tolerances``).  Neither end of the bracket is ``-0.0``.
    """
    if not (0 <= alpha < S.size):
        raise SchemaError("element index out of range")
    if max_iters < 1:
        raise SchemaError(f"max_iters must be >= 1, got {max_iters}")
    act = A.table[alpha]
    k_a = Kernel(k.space, k.table[np.ix_(act, act)])
    tol, scale = tols.structural, k.entry_scale
    rel = max(tol, 1e-12)

    B = hermitian_part(block_matrix(k))
    B_a = hermitian_part(block_matrix(k_a))
    w_den, U_den = np.linalg.eigh(B)
    res = _restricted_pencil_max(B_a, B, rel, (w_den, U_den))
    if res is None:
        raise ZeroDenominatorError("all quadratic forms of the kernel vanish")
    upper_sq, _ = res

    U_null = U_den[:, w_den <= rel * float(w_den.max())]
    null_leak = float(np.linalg.norm(U_null.conj().T @ B_a @ U_null, 2))
    indefinite = float(w_den.min()) < -tol * scale

    m = k.m
    best_ratio = -np.inf
    best_pair = None

    def ratio_at(t, h) -> float:
        den = pair_value(k, t, h).real
        if den <= rel * scale:
            return -np.inf
        return pair_value(k_a, t, h).real / den

    def climb(t):
        nonlocal best_ratio, best_pair
        t = t / np.linalg.norm(t)
        h = None
        prev = -np.inf
        for _ in range(max_iters):
            step = _restricted_pencil_max(quad_form(k_a, t), quad_form(k, t), rel)
            if step is None:
                return
            _, h = step
            h = h / np.linalg.norm(h)
            step = _restricted_pencil_max(direction_form(k_a, h), direction_form(k, h), rel)
            if step is None:
                return
            val, t = step
            t = t / np.linalg.norm(t)
            if val - prev < 1e-13:
                break
            prev = val
        r = ratio_at(t, h)
        if r > best_ratio:
            best_ratio, best_pair = r, (t, h)

    def starts():
        yield from np.eye(m, dtype=complex)
        seeds = np.random.SeedSequence(seed)
        for _ in range(restarts):
            rng = np.random.default_rng(seeds.spawn(1)[0])
            yield rng.standard_normal(m) + 1j * rng.standard_normal(m)

    # With a PSD denominator whose null space the numerator does not see, no
    # product-direction ratio exceeds ``upper_sq``: once one reaches it, the
    # bracket is closed and no later climb can do better.
    closable = not indefinite and null_leak <= tol * scale
    climbs = 0
    for t in starts():
        climb(t)
        climbs += 1
        if closable and best_ratio >= upper_sq * (1.0 - rel):
            break

    if best_pair is None:
        raise ZeroDenominatorError("no quadratic form with nonvanishing denominator found")

    # 0.0 goes first: on a tie with -0.0, max returns its first argument.
    lower = float(np.sqrt(max(0.0, best_ratio)))
    upper = float(np.sqrt(max(0.0, upper_sq)))
    diagnostics = {"null_leak": null_leak, "denominator_indefinite": indefinite, "climbs": climbs}
    return BoundEstimate(int(alpha), lower, upper, best_pair[0], best_pair[1], diagnostics)


def unitary_equivalence(
    dec1: KolmogorovDecomposition,
    dec2: KolmogorovDecomposition,
    tols: Tolerances = Tolerances(),
):
    """Gram-preserving change of basis between two minimal decompositions.

    ``U`` is solved least-squares from the generator correspondence
    ``V1(x) -> V2(x)``; returns ``(U, isometry_defect, intertwine_defect)``
    and raises ``NoIsometryError`` when the defects exceed ``tols.rank``
    times the gram's entry scale, which happens exactly when the inputs do
    not decompose the same kernel.
    """
    if dec1.m != dec2.m:
        raise NoIsometryError("decompositions live over different point sets")
    if dec1.n != dec2.n:
        raise NoIsometryError(
            f"dimensions differ ({dec1.n} vs {dec2.n}); not minimal for the same kernel"
        )
    Ut, *_ = np.linalg.lstsq(dec1.V, dec2.V, rcond=None)
    U = Ut.T
    iso = float(np.max(np.abs(pair_coords(dec2.gram.table, U, U) - dec1.gram.table))) if dec1.n else 0.0
    inter = float(np.max(np.abs(dec1.V @ U.T - dec2.V))) if dec1.n else 0.0
    if max(iso, inter) > tols.rank * dec1.gram.entry_scale:
        raise NoIsometryError(
            f"no isometry: defects {iso:.3e}/{inter:.3e} exceed tolerance",
            isometry_defect=iso,
            intertwine_defect=inter,
        )
    return U, iso, inter


def linearity_preservation_check(
    rep: StarRepresentation,
    k: Kernel,
    S: StarSemigroup,
    A: Action,
    alpha: int,
    beta: int,
    gamma: int,
    tols: Tolerances = Tolerances(),
) -> bool:
    """Whether ``pi(alpha) + pi(beta) = pi(gamma)`` given the kernel identity.

    The hypothesis ``k(y, a.x) + k(y, b.x) = k(y, c.x)`` is verified
    entrywise first; if it fails the check refuses with the witness pair
    rather than returning a vacuous answer.  Both are held to
    ``tols.structural``, against the kernel and ``pi(gamma)`` respectively.
    """
    tol, scale = tols.structural, k.entry_scale
    lhs = k.table[:, A.table[alpha]] + k.table[:, A.table[beta]]
    rhs = k.table[:, A.table[gamma]]
    gap = np.abs(lhs - rhs)
    if k.m and float(gap.max()) > tol * scale:
        y, x = np.unravel_index(int(np.argmax(gap.max(axis=(2, 3)))), gap.shape[:2])
        raise HypothesisFailsError(
            f"kernel identity fails at (x, y) = ({x}, {y}) with gap {gap.max():.3e}",
            witness=(int(x), int(y)),
        )
    P = rep.matrices
    if P.shape[1] == 0:
        return True
    return bool(np.linalg.norm(P[alpha] + P[beta] - P[gamma], 2) <= tol * entry_scale(P[gamma]))
