import numpy as np
import pytest

from wpsd import (
    Action,
    Kernel,
    adjoint_kernel,
    block_matrix,
    cyclic_group,
    hermitian_space,
    idempotent_pair,
    is_hermitian,
    is_invariant,
    left_translation_action,
    random_block_psd_kernel,
    scalar_space,
    strong_positivity,
    twopos_diagnostics,
    weak_positivity,
)
from wpsd.kernels import (
    STATUS_NOT_POSITIVE,
    STATUS_POSITIVE,
    STATUS_UNDETERMINED,
    pair_value,
    verify_witness,
)


def scalar_kernel(rows):
    a = np.asarray(rows, dtype=complex)
    return Kernel(scalar_space(), a.reshape(a.shape[0], a.shape[1], 1, 1))


def swap_kernel():
    """k(x, y) = E_{yx}; weakly positive but not block-PSD."""
    t = np.zeros((2, 2, 2, 2), dtype=complex)
    for x in range(2):
        for y in range(2):
            t[x, y, y, x] = 1.0
    return Kernel(hermitian_space(2), t)


def circulant_kernel(n, phi):
    phi = np.asarray(phi, dtype=complex)
    table = np.zeros((n, n, 1, 1), dtype=complex)
    for s in range(n):
        for t in range(n):
            table[s, t, 0, 0] = phi[(t - s) % n]
    return Kernel(scalar_space(), table)


def random_hermitian_scalar(m, rng):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return scalar_kernel((a + a.conj().T) / 2)


# ---------------------------------------------------------------- structure


def test_adjoint_examples():
    k = scalar_kernel([[1, 2], [2, 1]])
    np.testing.assert_allclose(adjoint_kernel(k).table, k.table)
    t = np.zeros((2, 2, 2, 2), dtype=complex)
    t[0, 1] = np.array([[0, 1], [0, 0]])
    k2 = Kernel(hermitian_space(2), t)
    np.testing.assert_allclose(adjoint_kernel(k2).table[1, 0], [[0, 0], [1, 0]])
    rng = np.random.default_rng(0)
    k3 = Kernel(
        hermitian_space(2), rng.standard_normal((3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 2, 2))
    )
    np.testing.assert_allclose(adjoint_kernel(adjoint_kernel(k3)).table, k3.table)


def test_is_hermitian_examples():
    assert is_hermitian(scalar_kernel([[1, 2], [2, 1]]))
    assert not is_hermitian(scalar_kernel([[1, 2], [3, 1]]))
    assert is_hermitian(swap_kernel())


def test_invariance_circulant():
    n = 5
    S = cyclic_group(n)
    A = left_translation_action(S)
    rng = np.random.default_rng(1)
    c = rng.uniform(0, 1, n)
    k = circulant_kernel(n, np.fft.ifft(c))
    assert is_invariant(k, S, A) == []


def test_invariance_idempotent_worked_example():
    S = idempotent_pair()
    A = Action(np.array([[0, 1], [1, 1]]))
    k = scalar_kernel([[4, 2], [2, 2]])
    assert is_invariant(k, S, A) == []


def test_invariance_generic_fails():
    S = cyclic_group(3)
    A = left_translation_action(S)
    k = random_block_psd_kernel(3, 1, 3, seed=9)
    assert is_invariant(k, S, A) != []


# --------------------------------------------------------------- positivity


def test_weak_positivity_scalar_witness():
    k = scalar_kernel([[1, 2], [2, 1]])  # eigenvalues {3, -1}
    v = weak_positivity(k)
    assert v.status == STATUS_NOT_POSITIVE and v.method == "scalar_exact"
    assert v.witness.value == pytest.approx(-1.0, abs=1e-12)
    # the raw quadratic sum at the unnormalised witness direction
    raw = pair_value(k, np.array([1.0, -1.0]), np.ones(1))
    assert raw.real == pytest.approx(-2.0)  # 1 - 2 - 2 + 1
    assert verify_witness(k, v.witness, 1e-9)


def test_weak_positivity_single_point_indefinite():
    k = Kernel(hermitian_space(2), np.diag([1.0, -1.0]).reshape(1, 1, 2, 2) + 0j)
    v = weak_positivity(k)
    assert v.status == STATUS_NOT_POSITIVE
    assert v.witness.value == pytest.approx(-1.0, abs=1e-9)
    np.testing.assert_allclose(np.abs(v.witness.t), [1.0], atol=1e-9)
    np.testing.assert_allclose(np.abs(v.witness.h), [0.0, 1.0], atol=1e-9)


def test_weak_positivity_swap_kernel():
    k = swap_kernel()
    v = weak_positivity(k, restarts=128, seed=3)
    assert v.status == STATUS_UNDETERMINED
    assert v.best_found >= -1e-9
    # analytic ground truth: M(t) = t t* is PSD; confirm on a brute grid
    grid = np.linspace(-1, 1, 5)
    for a in grid:
        for b in grid:
            for c in grid:
                for d in grid:
                    t = np.array([a + 1j * b, c + 1j * d])
                    if np.linalg.norm(t) < 1e-6:
                        continue
                    M = np.einsum("k,j,kjab->ab", t.conj(), t, k.table)
                    np.testing.assert_allclose(M, np.outer(t, t.conj()), atol=1e-12)
                    assert np.linalg.eigvalsh(M).min() >= -1e-12


def test_weak_positivity_gram_certificate():
    k = random_block_psd_kernel(4, 2, 3, seed=5)
    v = weak_positivity(k)
    assert v.status == STATUS_POSITIVE and v.method == "block_psd_sufficient"


def test_weak_positivity_nonhermitian_witness():
    rng = np.random.default_rng(17)
    for trial in range(100):
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        t = rng.standard_normal((m, m, d, d)) + 1j * rng.standard_normal((m, m, d, d))
        k = Kernel(scalar_space() if d == 1 else hermitian_space(d), t)
        if is_hermitian(k):
            continue
        v = weak_positivity(k)
        assert v.status == STATUS_NOT_POSITIVE
        assert v.witness is not None and v.witness.value < 0
        assert verify_witness(k, v.witness, 1e-9 * k.entry_scale / 2)


def test_witness_soundness_on_random_indefinite():
    rng = np.random.default_rng(23)
    found = 0
    for _ in range(50):
        k = random_hermitian_scalar(int(rng.integers(2, 6)), rng)
        v = weak_positivity(k)
        if v.status == STATUS_NOT_POSITIVE:
            found += 1
            assert verify_witness(k, v.witness, 1e-9 * k.entry_scale / 2)
    assert found > 0


def test_sufficiency_ordering():
    for seed in range(100):
        k = random_block_psd_kernel(3, 2, 2, seed=seed)
        _, psd = strong_positivity(k)
        assert psd
        assert weak_positivity(k, restarts=4).status != STATUS_NOT_POSITIVE


def test_scalar_exactness_sample():
    rng = np.random.default_rng(29)
    for _ in range(100):
        k = random_hermitian_scalar(int(rng.integers(1, 7)), rng)
        lam = np.linalg.eigvalsh(k.table[:, :, 0, 0]).min()
        v = weak_positivity(k)
        expected = STATUS_POSITIVE if lam >= -1e-9 * k.entry_scale else STATUS_NOT_POSITIVE
        assert v.status == expected


# ------------------------------------------------------------ strong / diag


def test_strong_positivity_examples():
    min_eig, psd = strong_positivity(swap_kernel())
    assert min_eig == pytest.approx(-1.0, abs=1e-12) and not psd
    k = scalar_kernel([[2, 1], [1, 2]])
    min_eig, psd = strong_positivity(k)
    assert psd and min_eig == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(31)
    B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    G = (B.conj().T @ B).reshape(3, 2, 3, 2).transpose(0, 2, 1, 3)
    _, psd = strong_positivity(Kernel(hermitian_space(2), G))
    assert psd


def test_block_matrix_layout():
    k = swap_kernel()
    B = block_matrix(k)
    w = np.sort(np.linalg.eigvalsh(B))
    np.testing.assert_allclose(w, [-1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_twopos_diagnostics():
    X0, X1, viol = twopos_diagnostics(scalar_kernel([[0, 0], [0, 1]]))
    assert X0 == [0] and X1 == [1] and viol == []
    _, _, viol = twopos_diagnostics(scalar_kernel([[0, 1], [1, 1]]))
    assert (0, 1) in viol
    # a kernel with such leakage cannot be weakly 2-positive
    v = weak_positivity(scalar_kernel([[0, 1], [1, 1]]))
    assert v.status == STATUS_NOT_POSITIVE
    X0, _, _ = twopos_diagnostics(scalar_kernel([[2, 0], [0, 3]]))
    assert X0 == []


def test_random_kernel_determinism():
    k1 = random_block_psd_kernel(3, 2, 4, seed=42)
    k2 = random_block_psd_kernel(3, 2, 4, seed=42)
    assert k1.table.tobytes() == k2.table.tobytes()
    assert is_hermitian(k1)
    _, psd = strong_positivity(k1)
    assert psd
