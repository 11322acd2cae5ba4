import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpsd import (
    Action,
    HypothesisFailsError,
    Kernel,
    NoIsometryError,
    NotHermitianError,
    NotInvariantError,
    StarSemigroup,
    WeakPositivityError,
    bound_constant,
    build_kolmogorov,
    build_representation,
    build_rk,
    cyclic_group,
    gram_semigroup_map,
    hermitian_space,
    idempotent_pair,
    left_regular_star_rep,
    left_translation_action,
    lift_semigroup_map,
    linearity_preservation_check,
    random_block_psd_kernel,
    rk_representation,
    scalar_space,
    unitary_equivalence,
    verify_linearisation,
)
from wpsd.cli import DEFAULT_TOLERANCES
from wpsd.dilation import KolmogorovDecomposition, _representation_defects
from wpsd.zspace import GramTensor

from test_kernels import circulant_kernel, scalar_kernel, swap_kernel


def matrix_semigroup_instance():
    """Points = vectors {0, e1, e2, e1+e2} in C^2, semigroup = {I, E11, E22, 0}
    acting by matrix application, kernel = the inner product Gram table.

    The two projections sum to the identity, so the induced representation
    satisfies pi(E11) + pi(E22) = pi(I) and the kernel identity behind it
    holds exactly.
    """
    mult = np.array([[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]])
    S = StarSemigroup(mult, np.arange(4), unit=0)
    A = Action(np.array([[0, 1, 2, 3], [0, 1, 0, 1], [0, 0, 2, 2], [0, 0, 0, 0]]))
    vecs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    k = scalar_kernel(vecs.conj() @ vecs.T)
    return S, A, k


# ------------------------------------------------------------ decomposition


def test_all_ones_kernel():
    k = scalar_kernel(np.ones((2, 2)))
    dec = build_kolmogorov(k)
    assert dec.n == 1
    np.testing.assert_allclose(dec.V[0], dec.V[1], atol=1e-12)
    np.testing.assert_allclose(dec.space.gram.blocks[0, 0], [[1.0]], atol=1e-12)
    assert verify_linearisation(dec, k) <= 1e-12


def test_identity_kernel():
    m = 4
    k = scalar_kernel(np.eye(m))
    dec = build_kolmogorov(k)
    assert dec.n == m
    np.testing.assert_allclose(
        dec.space.gram.blocks[:, :, 0, 0][np.ix_(np.argsort(dec.space.pivots), np.argsort(dec.space.pivots))],
        np.eye(m),
        atol=1e-12,
    )
    perm = np.zeros((m, m))
    perm[np.arange(m), dec.space.pivots] = 1.0
    np.testing.assert_allclose(dec.V @ perm, np.eye(m), atol=1e-12)


def test_swap_kernel_decomposition():
    k = swap_kernel()
    dec = build_kolmogorov(k)
    assert dec.n == 2
    assert dec.residual <= 1e-12
    for x in range(2):
        for y in range(2):
            expected = np.zeros((2, 2))
            expected[y, x] = 1.0
            i, j = dec.space.pivots.index(x), dec.space.pivots.index(y)
            np.testing.assert_allclose(dec.space.gram.blocks[i, j], expected, atol=1e-12)
    assert verify_linearisation(dec, k) <= 1e-12


def test_zero_kernel_empty_decomposition():
    k = scalar_kernel(np.zeros((3, 3)))
    dec = build_kolmogorov(k)
    assert dec.n == 0
    assert verify_linearisation(dec, k) == 0.0


def test_round_trip_random():
    for seed in range(25):
        m, d = 2 + seed % 4, 1 + seed % 3
        k = random_block_psd_kernel(m, d, rank=max(1, m - 1), seed=seed)
        dec = build_kolmogorov(k)
        assert verify_linearisation(dec, k) <= 1e-9


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitianError):
        build_kolmogorov(scalar_kernel([[1, 2], [3, 1]]))


def test_negative_diagonal_rejected():
    k = Kernel(hermitian_space(2), np.diag([1.0, -1.0]).reshape(1, 1, 2, 2) + 0j)
    with pytest.raises(WeakPositivityError):
        build_kolmogorov(k)


def test_verify_detects_corruption():
    k = random_block_psd_kernel(3, 1, 3, seed=2)
    dec = build_kolmogorov(k)
    bad = KolmogorovDecomposition(dec.space, 2.0 * dec.V, dec.residual, dec.zspace)
    defect = verify_linearisation(bad, k)
    assert defect >= 2.9 * np.abs(k.table).max() * 0.9  # [2V,2V] = 4k, so gap ~ 3|k|


def test_rank_instability_reported():
    k = random_block_psd_kernel(4, 1, 4, seed=7)
    dec = build_kolmogorov(k)
    assert dec.diagnostics["rank_unstable"] is False


# ------------------------------------------------------------ representation


def test_cyclic_shift_representation():
    S = cyclic_group(3)
    A = left_translation_action(S)
    k = scalar_kernel(np.eye(3))
    dec = build_kolmogorov(k)
    rep = build_representation(dec, k, S, A)
    P = rep.matrices[1]
    perm = np.zeros((3, 3))
    piv = list(dec.space.pivots)
    for i, p in enumerate(piv):
        perm[piv.index((p + 1) % 3), i] = 1.0
    np.testing.assert_allclose(P, perm, atol=1e-12)
    np.testing.assert_allclose(np.linalg.matrix_power(P, 3), np.eye(3), atol=1e-12)
    assert max(rep.mult_defect, rep.star_defect, rep.intertwine_defect) <= 1e-12


def test_trivial_semigroup_representation():
    S = cyclic_group(1)
    k = random_block_psd_kernel(3, 2, 3, seed=11)
    A = Action(np.arange(3).reshape(1, 3))
    dec = build_kolmogorov(k)
    rep = build_representation(dec, k, S, A)
    np.testing.assert_allclose(rep.matrices[0], np.eye(dec.n), atol=1e-12)


def test_non_invariant_rejected():
    S = cyclic_group(3)
    A = left_translation_action(S)
    k = random_block_psd_kernel(3, 1, 3, seed=4)
    with pytest.raises(NotInvariantError):
        build_representation(build_kolmogorov(k), k, S, A)


def test_representation_laws_idempotent():
    S = idempotent_pair()
    A = Action(np.array([[0, 1], [1, 1]]))
    k = scalar_kernel([[4, 2], [2, 2]])
    dec = build_kolmogorov(k)
    rep = build_representation(dec, k, S, A)
    assert max(rep.mult_defect, rep.star_defect, rep.intertwine_defect) <= 1e-9


# ------------------------------------------------------------------- bounds


def test_bound_unit_element():
    S = cyclic_group(4)
    A = left_translation_action(S)
    k = circulant_kernel(4, np.fft.ifft([1.0, 0.5, 0.2, 0.5]))
    b = bound_constant(k, S, A, 0)
    assert b.lower == pytest.approx(1.0, abs=1e-9)
    assert b.upper == pytest.approx(1.0, abs=1e-9)


def test_bound_translation_is_isometric():
    rng = np.random.default_rng(5)
    for n in (3, 5):
        S = cyclic_group(n)
        A = left_translation_action(S)
        k = circulant_kernel(n, np.fft.ifft(rng.uniform(0.1, 1.0, n)))
        for alpha in range(n):
            b = bound_constant(k, S, A, alpha)
            assert b.lower == pytest.approx(1.0, abs=1e-6)
            assert b.upper == pytest.approx(1.0, abs=1e-6)


def test_bound_idempotent_worked_instance():
    S = idempotent_pair()
    A = Action(np.array([[0, 1], [1, 1]]))
    k = scalar_kernel([[4, 2], [2, 2]])
    b = bound_constant(k, S, A, 1)
    assert b.lower == pytest.approx(1.0, abs=1e-6)
    assert b.upper == pytest.approx(1.0, abs=1e-6)
    # pencil oracle: generalized eigenvalues of (2*ones, k) are {0, 1}
    K = np.array([[4.0, 2.0], [2.0, 2.0]])
    gen = np.linalg.eigvals(np.linalg.solve(K, 2.0 * np.ones((2, 2))))
    np.testing.assert_allclose(np.sort(gen.real), [0.0, 1.0], atol=1e-12)


def test_bound_absorbing_null_point():
    S = idempotent_pair()
    A = Action(np.array([[0, 1], [0, 0]]))  # z sends everything to the null point
    k = scalar_kernel([[0, 0], [0, 1]])
    b = bound_constant(k, S, A, 1)
    assert b.lower == pytest.approx(0.0, abs=1e-9)
    assert b.upper == pytest.approx(0.0, abs=1e-9)


def test_bound_soundness_random_invariant():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        S = cyclic_group(n)
        A = left_translation_action(S)
        k = circulant_kernel(n, np.fft.ifft(rng.uniform(0.0, 1.0, n)))
        for alpha in range(n):
            b = bound_constant(k, S, A, alpha)
            assert b.lower <= b.upper + 1e-9


# -------------------------------------------------------------- equivalence


def test_unitary_equivalence_self():
    k = random_block_psd_kernel(3, 2, 2, seed=8)
    dec = build_kolmogorov(k)
    U, iso, inter = unitary_equivalence(dec, dec)
    np.testing.assert_allclose(U, np.eye(dec.n), atol=1e-10)
    assert iso <= 1e-10 and inter <= 1e-10


def test_unitary_equivalence_pivot_orders():
    for seed in range(10):
        k = random_block_psd_kernel(4, 1, 3, seed=seed)
        d1 = build_kolmogorov(k, pivot_order=range(4))
        d2 = build_kolmogorov(k, pivot_order=reversed(range(4)))
        U, iso, inter = unitary_equivalence(d1, d2)
        assert iso <= 1e-8 and inter <= 1e-8


def test_unitary_equivalence_rejects_different_kernels():
    d1 = build_kolmogorov(random_block_psd_kernel(3, 1, 3, seed=1))
    d2 = build_kolmogorov(random_block_psd_kernel(3, 1, 3, seed=2))
    with pytest.raises(NoIsometryError):
        unitary_equivalence(d1, d2)


# ---------------------------------------------------- linearity preservation


def test_linearity_hypothesis_fails_generic():
    S = cyclic_group(2)
    A = left_translation_action(S)
    k = circulant_kernel(2, np.fft.ifft([1.0, 0.3]))
    dec = build_kolmogorov(k)
    rep = build_representation(dec, k, S, A)
    with pytest.raises(HypothesisFailsError):
        linearity_preservation_check(rep, k, S, A, 0, 0, 0)


def test_linearity_matrix_semigroup_instance():
    S, A, k = matrix_semigroup_instance()
    from wpsd import validate_action, validate_semigroup

    assert validate_semigroup(S) == []
    assert validate_action(S, A, 4) == []
    dec = build_kolmogorov(k)
    assert dec.n == 2
    rep = build_representation(dec, k, S, A)
    assert linearity_preservation_check(rep, k, S, A, 1, 2, 0)
    np.testing.assert_allclose(
        rep.matrices[1] + rep.matrices[2], rep.matrices[0], atol=1e-10
    )


def test_linearity_vacuous_on_zero_kernel():
    S = cyclic_group(1)
    A = Action(np.arange(2).reshape(1, 2))
    k = scalar_kernel(np.zeros((2, 2)))
    dec = build_kolmogorov(k)
    rep = build_representation(dec, k, S, A)
    assert linearity_preservation_check(rep, k, S, A, 0, 0, 0)


# ----------------------------------------------------------- fourier oracle


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_dimension_matches_fourier_support(n):
    rng = np.random.default_rng(n)
    c = rng.uniform(0.5, 2.0, n)
    c[rng.permutation(n)[: n // 2]] = 0.0
    k = circulant_kernel(n, np.fft.ifft(c))
    S = cyclic_group(n)
    A = left_translation_action(S)
    dec = build_kolmogorov(k)
    support = np.nonzero(c > 1e-8)[0]
    assert dec.n == len(support)
    rep = build_representation(dec, k, S, A)
    eig = np.sort_complex(np.linalg.eigvals(rep.matrices[1]))
    expected = np.sort_complex(np.exp(2j * np.pi * support / n))
    np.testing.assert_allclose(eig, expected, atol=1e-9)


# ------------------------------------------------------------ law defects


def test_batched_mult_defect_equals_pair_loop():
    # A random family that is not a representation, so every gap is non-zero.
    rng = np.random.default_rng(11)
    g, n, m, d = 7, 5, 9, 2
    S = cyclic_group(g)
    mats = rng.standard_normal((g, n, n)) + 1j * rng.standard_normal((g, n, n))
    F = rng.standard_normal((n, 3, d)) + 1j * rng.standard_normal((n, 3, d))
    gram = GramTensor(np.einsum("ira,jrb->ijab", np.conj(F), F))
    coords = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    act = rng.integers(0, m, size=(g, m))

    mult, _, _ = _representation_defects(mats, gram, coords, act, S)
    loop = max(
        float(np.linalg.norm(mats[S.mult[a, b]] - mats[a] @ mats[b], 2))
        for a in range(g)
        for b in range(g)
    )
    assert mult > 1.0
    assert mult == loop


@settings(max_examples=30, deadline=None)
@given(
    g=st.integers(1, 9),
    q=st.integers(1, 3),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_representation_laws_on_random_invariant_kernels(g, q, d, seed):
    # gram_semigroup_map over the left regular representation lifts to an
    # invariant, Gram-built kernel; both representations must obey the laws.
    S = cyclic_group(g)
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((q, g, d)) + 1j * rng.standard_normal((q, g, d))
    lk = lift_semigroup_map(gram_semigroup_map(S, left_regular_star_rep(S), B), S)
    rank_tol, report_tol = DEFAULT_TOLERANCES["rank"], DEFAULT_TOLERANCES["report"]
    dec = build_kolmogorov(lk.kernel, rank_tol)
    pi = build_representation(dec, lk.kernel, S, lk.action, rank_tol)
    rho = rk_representation(build_rk(dec), S, lk.action, rank_tol)
    for rep in (pi, rho):
        assert max(rep.mult_defect, rep.star_defect, rep.intertwine_defect) <= report_tol
