import numpy as np
import pytest

from wpsd import (
    HermitianMismatchError,
    NotAdjointableError,
    NoUnitError,
    OperatorOnH,
    SchemaError,
    SemigroupMapT,
    adjoint_solve,
    build_kolmogorov,
    build_representation,
    cyclic_group,
    gns_instance,
    gram_semigroup_map,
    hilbert_module,
    idempotent_pair,
    is_hermitian,
    is_invariant,
    left_multiplication,
    left_regular_star_rep,
    lift_operator_kernel,
    lift_semigroup_map,
    matrix_module,
    recover_operator_dilation,
    right_multiplication,
    scalar_space,
    strong_positivity,
    verify_factorization,
    weak_positivity,
)
from wpsd.kernels import STATUS_NOT_POSITIVE, STATUS_POSITIVE
from wpsd.zspace import in_cone, involution


# ------------------------------------------------------------------ modules


def test_module_gramian_axioms():
    rng = np.random.default_rng(0)
    for H in (hilbert_module(3), matrix_module(2, 2), matrix_module(2, 1)):
        G = H.gram_tensor()
        dim = H.dim
        for _ in range(20):
            u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            puv = np.einsum("i,j,ijab->ab", u.conj(), v, G)
            pvu = np.einsum("i,j,ijab->ab", v.conj(), u, G)
            np.testing.assert_allclose(puv, involution(pvu), atol=1e-12)
            puu = np.einsum("i,j,ijab->ab", u.conj(), u, G)
            assert in_cone(puu, H.zspace)


def test_gram_tensor_equals_pairwise_reference_and_is_built_once():
    for H in (hilbert_module(1), hilbert_module(4), matrix_module(1, 3), matrix_module(3, 1), matrix_module(2, 3)):
        dim, dz = H.dim, H.zspace.dim
        basis = np.eye(dim, dtype=complex)
        if H.kind == "matrix_module":
            basis = basis.reshape(dim, H.d, H.kcols)  # the matrix units, row-major
        ref = np.zeros((dim, dim, dz, dz), dtype=complex)
        for i in range(dim):
            for j in range(dim):
                bi, bj = basis[i], basis[j]
                ref[i, j] = np.vdot(bi, bj) if H.kind == "hilbert" else bj @ bi.conj().T
        G = H.gram_tensor()
        assert np.array_equal(G, ref)
        assert G is H.gram_tensor() and not G.flags.writeable


def test_matrix_module_gram_against_direct_formula():
    H = matrix_module(2, 3)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    pair = np.einsum("i,j,ijab->ab", a.reshape(-1).conj(), b.reshape(-1), H.gram_tensor())
    np.testing.assert_allclose(pair, b @ a.conj().T, atol=1e-12)


# ----------------------------------------------------------------- adjoints


def test_adjoint_hilbert_is_conjugate_transpose():
    H = hilbert_module(3)
    rng = np.random.default_rng(2)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out = adjoint_solve(H, OperatorOnH(T))
    np.testing.assert_allclose(out.adjoint, T.conj().T, atol=1e-10)


def test_adjoint_right_multiplication():
    H = matrix_module(2, 2)
    M = np.array([[1.0, 2.0], [0.5j, 1.0]])
    out = adjoint_solve(H, OperatorOnH(right_multiplication(H, M)))
    np.testing.assert_allclose(out.adjoint, right_multiplication(H, M.conj().T), atol=1e-10)


def test_adjoint_left_multiplication_infeasible():
    H = matrix_module(2, 2)
    with pytest.raises(NotAdjointableError):
        adjoint_solve(H, OperatorOnH(left_multiplication(H, np.array([[0.0, 1.0], [0.0, 0.0]]))))


# -------------------------------------------------------------------- lifts


def test_lift_identity_operator():
    H = hilbert_module(2)
    l = np.zeros((1, 1, 2, 2), dtype=complex)
    l[0, 0] = np.eye(2)
    lk = lift_operator_kernel(H, l)
    np.testing.assert_allclose(lk.kernel.table[:, :, 0, 0], np.eye(2), atol=1e-12)
    assert lk.legend == ((0, 0), (0, 1))


def test_lift_scalar_collapse():
    """For plain Hilbert modules the lifted verdict is exactly block PSD."""
    rng = np.random.default_rng(3)
    for trial in range(50):
        m, r = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        l = rng.standard_normal((m, m, r, r)) + 1j * rng.standard_normal((m, m, r, r))
        l = 0.5 * (l + l.conj().transpose(1, 0, 3, 2))  # enforce l(x,y)* = l(y,x)
        lk = lift_operator_kernel(hilbert_module(r), l)
        verdict = weak_positivity(lk.kernel)
        assert verdict.method in ("scalar_exact",)
        block = l.transpose(0, 2, 1, 3).reshape(m * r, m * r)
        lam = np.linalg.eigvalsh(0.5 * (block + block.conj().T)).min()
        if lam >= -1e-9 * (1.0 + np.abs(block).max()):
            assert verdict.status == STATUS_POSITIVE
        else:
            assert verdict.status == STATUS_NOT_POSITIVE


def test_lift_hermitian_mismatch_rejected():
    H = hilbert_module(2)
    rng = np.random.default_rng(4)
    l = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
    with pytest.raises(HermitianMismatchError):
        lift_operator_kernel(H, l)


def hermitian_operator_table(m, r, seed):
    rng = np.random.default_rng(seed)
    l = rng.standard_normal((m, m, r, r)) + 1j * rng.standard_normal((m, m, r, r))
    return 0.5 * (l + l.conj().transpose(1, 0, 3, 2))


def test_lift_names_the_first_mismatched_pair_in_row_major_order():
    # Pairs are checked in the order (0, 0), (0, 1), (0, 2), (1, 1), ...: the
    # small defect at (0, 2) is reported, not the larger one at (1, 1).
    l = hermitian_operator_table(3, 2, seed=6)
    l[2, 0, 0, 1] += 1e-3
    l[1, 1, 1, 0] += 0.5
    with pytest.raises(HermitianMismatchError, match=r"l\(0,2\)\* differs from l\(2,0\)"):
        lift_operator_kernel(hilbert_module(2), l)


def test_lift_reports_the_first_failing_pair_whichever_check_fails():
    H = matrix_module(2, 2)
    nilpotent = left_multiplication(H, np.array([[0.0, 1.0], [0.0, 0.0]]))  # not adjointable
    l = np.array([[np.eye(4), np.eye(4)], [np.eye(4), np.eye(4)]], dtype=complex)
    l[1, 1] = nilpotent
    with pytest.raises(NotAdjointableError, match=r"l\(1,1\)"):
        lift_operator_kernel(H, l)
    l[1, 0] = 2 * np.eye(4)  # (0, 1) is adjointable and comes first
    with pytest.raises(HermitianMismatchError, match=r"l\(0,1\)"):
        lift_operator_kernel(H, l)
    l[0, 1] = nilpotent
    with pytest.raises(NotAdjointableError, match=r"l\(0,1\)"):
        lift_operator_kernel(H, l)


def test_one_stacked_solve_gives_each_operator_its_own_adjoint():
    H = matrix_module(2, 3)
    rng = np.random.default_rng(8)
    Ms = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    l = np.array([[right_multiplication(H, Ms[x].conj().T @ Ms[y]) for y in range(4)] for x in range(4)])
    lifted = lift_operator_kernel(H, l)
    for x, y in [(0, 0), (0, 3), (2, 1)]:
        np.testing.assert_allclose(adjoint_solve(H, OperatorOnH(l[x, y])).adjoint, l[y, x], atol=1e-12)
    assert is_hermitian(lifted.kernel)


def test_lift_matrix_module_right_multiplications():
    H = matrix_module(2, 1)
    M0, M1 = np.array([[2.0]]), np.array([[0.5]])
    l = np.zeros((2, 2, 2, 2), dtype=complex)
    for x, y, M in ((0, 0, M0 @ M0), (1, 1, M1 @ M1), (0, 1, M0 @ M1), (1, 0, M1 @ M0)):
        l[x, y] = right_multiplication(H, M)
    lk = lift_operator_kernel(H, l)
    assert lk.kernel.space.kind == "hermitian" and lk.kernel.d == 2
    assert is_hermitian(lk.kernel)


def test_recover_operator_dilation_identity():
    H = hilbert_module(2)
    l = np.zeros((1, 1, 2, 2), dtype=complex)
    l[0, 0] = np.eye(2)
    lk = lift_operator_kernel(H, l)
    dec = build_kolmogorov(lk.kernel)
    Vt, defect = recover_operator_dilation(dec, H, l)
    assert defect <= 1e-12
    iso = Vt[0].conj().T @ dec.gram.table[:, :, 0, 0] @ Vt[0]  # scalar case
    np.testing.assert_allclose(iso, np.eye(2), atol=1e-10)


def test_recover_operator_dilation_gram_instance():
    rng = np.random.default_rng(5)
    m, r, R = 3, 2, 4
    F = rng.standard_normal((m, R, r)) + 1j * rng.standard_normal((m, R, r))
    l = np.einsum("xca,ycb->xyab", F.conj(), F)  # l(x,y) = F(x)* F(y), PSD style
    lk = lift_operator_kernel(hilbert_module(r), l)
    dec = build_kolmogorov(lk.kernel)
    _, defect = recover_operator_dilation(dec, hilbert_module(r), l)
    assert defect <= 1e-9


def test_recover_detects_corruption():
    H = hilbert_module(2)
    rng = np.random.default_rng(6)
    F = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    l = np.einsum("xca,ycb->xyab", F.conj(), F)
    lk = lift_operator_kernel(H, l)
    dec = build_kolmogorov(lk.kernel)
    from wpsd.dilation import KolmogorovDecomposition

    bad = KolmogorovDecomposition(dec.gram, dec.pivots, 3.0 * dec.V, dec.residual)
    _, defect = recover_operator_dilation(bad, H, l)
    assert defect >= 1.0


# ------------------------------------------------------------ semigroup maps


def test_lift_semigroup_map_examples():
    S = cyclic_group(2)
    T1 = SemigroupMapT(scalar_space(), np.array([1.0, 1.0]).reshape(2, 1, 1, 1, 1))
    lk = lift_semigroup_map(T1, S)
    np.testing.assert_allclose(lk.kernel.table[:, :, 0, 0], np.ones((2, 2)), atol=1e-12)
    assert weak_positivity(lk.kernel).status == STATUS_POSITIVE

    T2 = SemigroupMapT(scalar_space(), np.array([1.0, -1.0]).reshape(2, 1, 1, 1, 1))
    lk2 = lift_semigroup_map(T2, S)
    np.testing.assert_allclose(lk2.kernel.table[:, :, 0, 0], [[1, -1], [-1, 1]], atol=1e-12)
    w = np.linalg.eigvalsh(lk2.kernel.table[:, :, 0, 0])
    np.testing.assert_allclose(w, [0.0, 2.0], atol=1e-12)
    assert weak_positivity(lk2.kernel).status == STATUS_POSITIVE

    T3 = SemigroupMapT(scalar_space(), np.array([1.0, 3.0]).reshape(2, 1, 1, 1, 1))
    assert weak_positivity(lift_semigroup_map(T3, S).kernel).status == STATUS_NOT_POSITIVE


def test_lifted_kernels_invariant_and_hermitian_identity():
    S = cyclic_group(4)
    R = left_regular_star_rep(S)
    rng = np.random.default_rng(7)
    B = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))
    T = gram_semigroup_map(S, R, B)
    lk = lift_semigroup_map(T, S)
    assert is_invariant(lk.kernel, S, lk.action) == []
    assert is_hermitian(lk.kernel)
    # tensor identity behind Hermiticity: T[s*t][i][j] = T[t*s][j][i]*
    for s in range(4):
        for t in range(4):
            a = T.tensors[S.mult[S.inv[s], t]]
            b = T.tensors[S.mult[S.inv[t], s]]
            np.testing.assert_allclose(
                a, involution(b).transpose(1, 0, 2, 3), atol=1e-9
            )


def test_factorization_z2_positive_function():
    S = cyclic_group(2)
    T = SemigroupMapT(scalar_space(), np.array([1.0, 1.0]).reshape(2, 1, 1, 1, 1))
    lk = lift_semigroup_map(T, S)
    dec = build_kolmogorov(lk.kernel)
    rep = build_representation(dec, lk.kernel, S, lk.action)
    assert dec.n == 1
    np.testing.assert_allclose(rep.matrices[1], [[1.0]], atol=1e-9)
    assert verify_factorization(T, S, dec, rep) <= 1e-12


def test_factorization_trivial_semigroup_hermitian_values():
    from wpsd import hermitian_space

    S = cyclic_group(1)
    T = SemigroupMapT(hermitian_space(2), np.eye(2, dtype=complex).reshape(1, 1, 1, 2, 2))
    lk = lift_semigroup_map(T, S)
    dec = build_kolmogorov(lk.kernel)
    rep = build_representation(dec, lk.kernel, S, lk.action)
    assert verify_factorization(T, S, dec, rep) <= 1e-12


def test_factorization_gram_generated():
    rng = np.random.default_rng(8)
    S = cyclic_group(4)
    R = left_regular_star_rep(S)
    B = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))
    T = gram_semigroup_map(S, R, B)
    lk = lift_semigroup_map(T, S)
    dec = build_kolmogorov(lk.kernel)
    rep = build_representation(dec, lk.kernel, S, lk.action)
    assert verify_factorization(T, S, dec, rep) <= 1e-8


def test_factorization_requires_unit():
    mult = np.array([[0]])  # single idempotent, no unit declared
    from wpsd import StarSemigroup

    S = StarSemigroup(mult, np.array([0]), unit=None)
    T = SemigroupMapT(scalar_space(), np.ones((1, 1, 1, 1, 1)))
    lk = lift_semigroup_map(T, S)
    dec = build_kolmogorov(lk.kernel)
    with pytest.raises(NoUnitError):
        verify_factorization(T, S, dec, None)


# --------------------------------------------------------------------- gns


def test_gns_delta_function():
    n = 4
    S = cyclic_group(n)
    inst = gns_instance(S, np.eye(n)[0])
    np.testing.assert_allclose(inst.kernel.table[:, :, 0, 0], np.eye(n), atol=1e-12)
    dec = build_kolmogorov(inst.kernel)
    rep = build_representation(dec, inst.kernel, S, inst.action)
    assert dec.n == n
    eig = np.linalg.eigvals(rep.matrices[1])
    np.testing.assert_allclose(np.sort(np.angle(eig)), np.sort(np.angle(np.exp(2j * np.pi * np.arange(n) / n))), atol=1e-9)


def test_gns_constant_function():
    S = cyclic_group(2)
    inst = gns_instance(S, [1.0, 1.0])
    dec = build_kolmogorov(inst.kernel)
    assert dec.n == 1


def test_gns_alternating_function():
    S = cyclic_group(2)
    inst = gns_instance(S, [1.0, -1.0])
    dec = build_kolmogorov(inst.kernel)
    rep = build_representation(dec, inst.kernel, S, inst.action)
    assert dec.n == 1
    np.testing.assert_allclose(rep.matrices[1], [[-1.0]], atol=1e-9)


def test_gns_requires_unit():
    from wpsd import StarSemigroup

    S = StarSemigroup(np.array([[0]]), np.array([0]), unit=None)
    with pytest.raises(NoUnitError):
        gns_instance(S, [1.0])


def test_gram_semigroup_map_validates_rep():
    S = cyclic_group(3)
    bad = np.stack([np.eye(3), np.eye(3), 2 * np.eye(3)])
    with pytest.raises(SchemaError):
        gram_semigroup_map(S, bad, np.ones((1, 3, 1)))


def test_left_regular_rep_needs_group_involution():
    with pytest.raises(SchemaError):
        left_regular_star_rep(idempotent_pair())
    S = cyclic_group(3, "identity")
    with pytest.raises(SchemaError):
        left_regular_star_rep(S)
