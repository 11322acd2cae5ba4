"""Reproducing kernel spaces realised from a minimal decomposition.

The space consists of the functions ``x -> [V(x), h]`` for ``h`` in the
decomposition space; transporting the metric along ``h -> [V(.), h]`` makes
that correspondence a unitary, so coordinates carry over unchanged: the
space reads its metric (``source.gram``) and the coordinates ``V[x]`` of
the point evaluations ``k_x = k(., x)`` from its source decomposition.  The
point evaluations reproduce every function: ``f(x) = [k_x, f]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import Action, StarSemigroup
from .dilation import (
    KolmogorovDecomposition,
    StarRepresentation,
    build_representation,
    linearised_kernel,
    verify_linearisation,
)
from .errors import IllDefinedError, InjectivityFailureError, SchemaError
from .kernels import Kernel
from .zspace import Tolerances


@dataclass(frozen=True)
class RKSpace:
    """Function space with reproducing point evaluations.

    ``functions[i]`` realises basis vector ``i`` as an ``(m, d, d)`` array.
    The metric and the point coordinates are those of ``source``, whose
    representation is carried across to the space.
    """

    functions: np.ndarray = field()  # (n, m, d, d)
    source: KolmogorovDecomposition = field()

    def __post_init__(self):
        f = np.asarray(self.functions, dtype=complex)
        f.flags.writeable = False
        object.__setattr__(self, "functions", f)

    @property
    def n(self) -> int:
        return self.functions.shape[0]

    @property
    def m(self) -> int:
        return self.functions.shape[1]


def _realise(dec: KolmogorovDecomposition) -> np.ndarray:
    """Basis functions ``f_i(x) = [k_x, e_i]`` as an ``(n, m, d, d)`` array."""
    n, d = dec.n, dec.gram.d
    paired = np.conj(dec.V) @ dec.gram.table.reshape(n, n * d * d)  # [x, (i, c, e)]
    return paired.reshape(dec.m, n, d, d).transpose(1, 0, 2, 3)


def build_rk(dec: KolmogorovDecomposition) -> RKSpace:
    """Realise the reproducing kernel space of a minimal decomposition.

    Raises ``InjectivityFailureError`` when distinct basis vectors realise
    the same function at tolerance, which signals that the source was not
    minimal at its working tolerance.
    """
    n = dec.n
    functions = _realise(dec)
    if n:
        s = np.linalg.svd(functions.reshape(n, -1), compute_uv=False)
        if s[-1] <= 1e-10 * max(s[0], 1.0):
            raise InjectivityFailureError(
                "realised functions are linearly dependent; source decomposition not minimal"
            )
    return RKSpace(functions, dec)


def reconstruct_kernel(rk: RKSpace) -> Kernel:
    """The kernel determined by the space: ``k(x, y) = [k_x, k_y]``."""
    return linearised_kernel(rk.source)


def verify_reproducing(rk: RKSpace, k: Kernel) -> float:
    """Worst defect of the reproducing identities against a raw kernel table.

    Checks ``f(x) = [k_x, f]`` over the basis functions and
    ``k(x, y) = [k_x, k_y]`` over all point pairs; returns the larger gap.
    """
    if k.m != rk.m:
        raise SchemaError("kernel and space have different point counts")
    d1 = float(np.max(np.abs(_realise(rk.source) - rk.functions))) if rk.n else 0.0
    return max(d1, verify_linearisation(rk.source, k))


def rk_representation(
    rk: RKSpace,
    S: StarSemigroup,
    A: Action,
    tols: Tolerances = Tolerances(),
) -> StarRepresentation:
    """Representation acting on point evaluations by ``k_x -> k_{s.x}``.

    It is the source decomposition's representation carried across by the
    realisation unitary; since coordinates carry over unchanged, its
    matrices and law defects are those of :func:`build_representation` on
    the kernel the space determines.  On the realised functions it must act
    by ``(rho(s) f)(x) = f(s*.x)``; the worst gap over basis functions and
    elements is checked within ``tols.rank`` times the entry scale of that
    kernel and reported as ``diagnostics['conjugation_defect']``.
    """
    k = reconstruct_kernel(rk)
    pi = build_representation(rk.source, k, S, A, tols)
    F = rk.functions
    flat = F.reshape(rk.n, rk.m * k.d**2)
    conj = 0.0
    for s in range(S.size):
        moved = (pi.matrices[s].T @ flat).reshape(F.shape)
        conj = max(conj, float(np.abs(moved - F[:, A.table[S.inv[s]]]).max(initial=0.0)))
    if conj > tols.rank * k.entry_scale:
        raise IllDefinedError(
            f"representation disagrees with the action on realised functions by {conj:.3e}"
        )
    return replace(pi, diagnostics={**pi.diagnostics, "conjugation_defect": conj})
