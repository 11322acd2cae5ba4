"""Reproducing kernel spaces realised from a minimal decomposition.

The space consists of the functions ``x -> [V(x), h]`` for ``h`` in the
decomposition space; transporting the metric along ``h -> [V(.), h]`` makes
that correspondence a unitary, so coordinates carry over unchanged.  The
point evaluations ``k_x = k(., x)`` then have coordinates ``V[x]`` and
reproduce every function: ``f(x) = [k_x, f]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Action, StarSemigroup
from .dilation import (
    KolmogorovDecomposition,
    StarRepresentation,
    _representation_defects,
    build_representation,
    gram_pair_coords,
)
from .errors import IllDefinedError, InjectivityFailureError, NotInvariantError, SchemaError
from .kernels import Kernel, entry_scale, is_invariant
from .zspace import GramTensor, ZSpaceDescriptor


@dataclass(frozen=True)
class RKSpace:
    """Function space with reproducing point evaluations.

    ``functions[i]`` realises basis vector ``i`` as an ``(m, d, d)`` array;
    ``point_coords[x]`` are the coordinates of ``k_x`` in that basis; the
    metric is the one transported from the source decomposition, which is
    kept for conjugation checks.
    """

    functions: np.ndarray = field()  # (n, m, d, d)
    gram: GramTensor = field()
    point_coords: np.ndarray = field()  # (m, n)
    zspace: ZSpaceDescriptor = field(default_factory=ZSpaceDescriptor)
    source: KolmogorovDecomposition | None = None

    def __post_init__(self):
        f = np.asarray(self.functions, dtype=complex)
        f.flags.writeable = False
        object.__setattr__(self, "functions", f)
        c = np.asarray(self.point_coords, dtype=complex)
        c.flags.writeable = False
        object.__setattr__(self, "point_coords", c)

    @property
    def n(self) -> int:
        return self.functions.shape[0]

    @property
    def m(self) -> int:
        return self.functions.shape[1]


def _realise(coords: np.ndarray, G: GramTensor) -> np.ndarray:
    """Basis functions ``f_i(x) = [k_x, e_i]`` as an ``(n, m, d, d)`` array."""
    n, d = G.n, G.d
    paired = np.conj(coords) @ G.blocks.reshape(n, n * d * d)  # [x, (i, c, e)]
    return paired.reshape(coords.shape[0], n, d, d).transpose(1, 0, 2, 3)


def build_rk(dec: KolmogorovDecomposition) -> RKSpace:
    """Realise the reproducing kernel space of a minimal decomposition.

    Raises ``InjectivityFailureError`` when distinct basis vectors realise
    the same function at tolerance, which signals that the source was not
    minimal at its working tolerance.
    """
    n = dec.n
    functions = _realise(dec.V, dec.space.gram)
    if n:
        s = np.linalg.svd(functions.reshape(n, -1), compute_uv=False)
        if s[-1] <= 1e-10 * max(s[0], 1.0):
            raise InjectivityFailureError(
                "realised functions are linearly dependent; source decomposition not minimal"
            )
    return RKSpace(functions, dec.space.gram, dec.V, dec.zspace, dec)


def reconstruct_kernel(rk: RKSpace) -> Kernel:
    """The kernel determined by the space: ``k(x, y) = [k_x, k_y]``."""
    coords = rk.point_coords.T
    return Kernel(rk.zspace, gram_pair_coords(rk.gram, coords, coords))


def verify_reproducing(rk: RKSpace, k: Kernel) -> float:
    """Worst defect of the reproducing identities against a raw kernel table.

    Checks ``f(x) = [k_x, f]`` over the basis functions and
    ``k(x, y) = [k_x, k_y]`` over all point pairs; returns the larger gap.
    """
    if k.m != rk.m:
        raise SchemaError("kernel and space have different point counts")
    paired = _realise(rk.point_coords, rk.gram)
    d1 = float(np.max(np.abs(paired - rk.functions))) if rk.n else 0.0
    d2 = float(np.max(np.abs(reconstruct_kernel(rk).table - k.table))) if k.m else 0.0
    return max(d1, d2)


def rk_representation(
    rk: RKSpace,
    S: StarSemigroup,
    A: Action,
    tol: float = 1e-8,
) -> StarRepresentation:
    """Representation acting on point evaluations by ``k_x -> k_{s.x}``.

    Matrices are solved least-squares from all point evaluations (which span
    the space).  The result must agree with the decomposition representation
    transported through the realisation unitary; since coordinates carry
    over unchanged, that means equality of matrices, checked within ``tol``
    and reported as ``diagnostics['conjugation_defect']``.
    """
    k = reconstruct_kernel(rk)
    violations = is_invariant(k, S, A)
    if violations:
        raise NotInvariantError(
            f"kernel is not invariant; first violation (s, x, y, defect) = {violations[0]}",
            violations,
        )
    g = S.size
    n = rk.n
    coords = rk.point_coords
    mats = np.empty((g, n, n), dtype=complex)
    for s in range(g):
        sol, *_ = np.linalg.lstsq(coords, coords[A.table[s]], rcond=None)
        mats[s] = sol.T
    mult, star, inter = _representation_defects(mats, rk.gram, coords, A.table, S)

    diagnostics = {}
    if rk.source is not None:
        pi = build_representation(rk.source, k, S, A, tol)
        conj = float(np.max(np.abs(mats - pi.matrices))) if n else 0.0
        diagnostics["conjugation_defect"] = conj
        if conj > tol * (1.0 + entry_scale(k)):
            raise IllDefinedError(
                f"representation disagrees with the transported one by {conj:.3e}"
            )
    return StarRepresentation(mats, mult, star, inter, diagnostics)
