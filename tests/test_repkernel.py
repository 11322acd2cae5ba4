import numpy as np
import pytest

from wpsd import (
    Action,
    IllDefinedError,
    InjectivityFailureError,
    build_kolmogorov,
    build_representation,
    build_rk,
    cyclic_group,
    left_translation_action,
    random_block_psd_kernel,
    reconstruct_kernel,
    rk_representation,
    verify_reproducing,
)
from wpsd.dilation import KolmogorovDecomposition
from wpsd.kernels import Kernel
from wpsd.zspace import scalar_space
from wpsd.repkernel import RKSpace

from test_kernels import circulant_kernel, scalar_kernel, swap_kernel


def test_all_ones_kernel_space():
    k = scalar_kernel(np.ones((2, 2)))
    rk = build_rk(build_kolmogorov(k))
    assert rk.n == 1
    np.testing.assert_allclose(rk.functions[0, :, 0, 0], [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(rk.source.gram.table[0, 0], [[1.0]], atol=1e-12)


def test_swap_kernel_functions():
    k = swap_kernel()
    dec = build_kolmogorov(k)
    rk = build_rk(dec)
    # the function attached to pivot y sends x to the matrix unit E_{yx}
    for i, y in enumerate(dec.pivots):
        for x in range(2):
            expected = np.zeros((2, 2))
            expected[y, x] = 1.0
            np.testing.assert_allclose(rk.functions[i, x], expected, atol=1e-12)
    # pairings of point evaluations reproduce the kernel
    np.testing.assert_allclose(reconstruct_kernel(rk).table, k.table, atol=1e-12)


def test_identity_kernel_delta_functions():
    k = scalar_kernel(np.eye(3))
    rk = build_rk(build_kolmogorov(k))
    flat = rk.functions[:, :, 0, 0]
    np.testing.assert_allclose(np.sort(np.abs(flat), axis=None), np.sort(np.eye(3), axis=None), atol=1e-12)
    np.testing.assert_allclose(rk.source.gram.table[:, :, 0, 0], np.eye(3), atol=1e-12)


def test_reproducing_round_trip_random():
    for seed in range(20):
        k = random_block_psd_kernel(3 + seed % 3, 1 + seed % 3, 3, seed=seed)
        rk = build_rk(build_kolmogorov(k))
        assert verify_reproducing(rk, k) <= 1e-9
        np.testing.assert_allclose(reconstruct_kernel(rk).table, k.table, atol=1e-9)


def test_corrupted_function_detected():
    k = random_block_psd_kernel(3, 1, 3, seed=3)
    rk = build_rk(build_kolmogorov(k))
    bad_functions = np.array(rk.functions)
    bad_functions[0, 0] += 1.0
    bad = RKSpace(bad_functions, rk.source)
    assert verify_reproducing(bad, k) >= 0.5


def test_empty_space_on_zero_kernel():
    k = scalar_kernel(np.zeros((2, 2)))
    rk = build_rk(build_kolmogorov(k))
    assert rk.n == 0
    assert verify_reproducing(rk, k) == 0.0


def test_injectivity_failure_on_non_minimal_source():
    # rank-one gram with two basis slots realises two identical functions
    blocks = np.ones((2, 2, 1, 1), dtype=complex)
    dec = KolmogorovDecomposition(Kernel(scalar_space(), blocks), (0, 1), np.eye(2, dtype=complex), 0.0)
    with pytest.raises(InjectivityFailureError):
        build_rk(dec)


def test_rk_representation_translation():
    S = cyclic_group(3)
    A = left_translation_action(S)
    k = scalar_kernel(np.eye(3))
    dec = build_kolmogorov(k)
    rk = build_rk(dec)
    rho = rk_representation(rk, S, A)
    # rho(1) permutes the three point evaluations cyclically
    coords = rk.source.V
    np.testing.assert_allclose(rho.matrices[1] @ coords.T, coords[A.table[1]].T, atol=1e-10)
    assert max(rho.mult_defect, rho.star_defect, rho.intertwine_defect) <= 1e-10
    assert rho.diagnostics["conjugation_defect"] <= 1e-10


def test_rk_representation_trivial_action():
    S = cyclic_group(1)
    A = Action(np.arange(4).reshape(1, 4))
    k = random_block_psd_kernel(4, 1, 4, seed=6)
    rk = build_rk(build_kolmogorov(k))
    rho = rk_representation(rk, S, A)
    np.testing.assert_allclose(rho.matrices[0], np.eye(rk.n), atol=1e-10)


def test_rk_conjugation_identity_random_circulants():
    rng = np.random.default_rng(9)
    for n in (3, 4, 6):
        S = cyclic_group(n)
        A = left_translation_action(S)
        k = circulant_kernel(n, np.fft.ifft(rng.uniform(0.2, 1.0, n)))
        dec = build_kolmogorov(k)
        rk = build_rk(dec)
        rho = rk_representation(rk, S, A)
        pi = build_representation(dec, k, S, A)
        assert float(np.max(np.abs(rho.matrices - pi.matrices))) <= 1e-9


def test_rk_representation_rejects_corrupted_functions():
    S = cyclic_group(4)
    A = left_translation_action(S)
    k = circulant_kernel(4, np.fft.ifft([1.0, 0.6, 0.3, 0.8]))
    rk = build_rk(build_kolmogorov(k))
    assert rk_representation(rk, S, A).diagnostics["conjugation_defect"] <= 1e-10
    bad_functions = np.array(rk.functions)
    bad_functions[0, 1] += 0.5
    bad = RKSpace(bad_functions, rk.source)
    with pytest.raises(IllDefinedError):
        rk_representation(bad, S, A)
