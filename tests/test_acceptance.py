"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); the
assertions carry the same bounds, so a red test is a failed criterion.
"""

import time

import numpy as np
import pytest

from wpsd import (
    Action,
    Kernel,
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
    random_block_psd_kernel,
    reconstruct_kernel,
    rk_representation,
    schwarz_check,
    strong_positivity,
    unitary_equivalence,
    verify_factorization,
    verify_linearisation,
    weak_positivity,
)
from wpsd.kernels import STATUS_NOT_POSITIVE, STATUS_POSITIVE
from wpsd.zspace import Tolerances, gram_pair, seminorm

from test_kernels import circulant_kernel, scalar_kernel, swap_kernel


def _report(num, ok, detail):
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_01_linearisation_round_trip():
    started = time.perf_counter()
    worst = 0.0
    count = 0
    for seed in range(100):
        m = 2 + seed % 4
        d = 1 + seed % 3
        rank = 1 + seed % (m * d)
        k = random_block_psd_kernel(m, d, rank, seed=seed)
        dec = build_kolmogorov(k)
        worst = max(worst, verify_linearisation(dec, k))
        count += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0 and count == 100
    _report(1, ok, f"round-trip defect {worst:.3e} over {count} kernels in {elapsed:.2f}s")


def test_criterion_02_representation_laws():
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in range(2, 9):
        S = cyclic_group(n)
        A = left_translation_action(S)
        c = rng.uniform(0.2, 1.5, n)
        k = circulant_kernel(n, np.fft.ifft(c))
        rep = build_representation(build_kolmogorov(k), k, S, A)
        worst = max(worst, rep.mult_defect, rep.star_defect, rep.intertwine_defect)
    S = idempotent_pair()
    A = Action(np.array([[0, 1], [1, 1]]))
    k = scalar_kernel([[4, 2], [2, 2]])
    rep = build_representation(build_kolmogorov(k), k, S, A)
    worst = max(worst, rep.mult_defect, rep.star_defect, rep.intertwine_defect)
    _report(2, worst <= 1e-9, f"representation law defect {worst:.3e} (exhaustive)")


def test_criterion_03_schwarz_surrogate():
    rng = np.random.default_rng(3)
    violations = 0
    max_ratio = 0.0
    swap_gram = swap_kernel()
    for trial in range(10_000):
        if trial % 10 == 0:
            # a weakly-positive-only metric among the Gram-built ones
            G, n = swap_gram, 2
        else:
            n = int(rng.integers(2, 5))
            d = int(rng.integers(1, 3))
            F = rng.standard_normal((n, n + 1, d)) + 1j * rng.standard_normal((n, n + 1, d))
            G = Kernel(hermitian_space(d), np.einsum("xra,yrb->xyab", F.conj(), F))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs, rhs, holds = schwarz_check(G, u, v, tol=1e-12)
        if not holds:
            violations += 1
        if rhs > 1e-12:
            max_ratio = max(max_ratio, lhs / rhs * 4.0)
    ok = violations == 0
    _report(3, ok, f"{violations} violations in 10^4 triples; empirical max p([u,v])/sqrt(p[u,u]p[v,v]) = {max_ratio:.4f} (bound 4, not asserted at 2)")


def test_criterion_04_weak_strong_separation():
    k = swap_kernel()
    min_eig, is_psd = strong_positivity(k)
    verdict = weak_positivity(k, restarts=1000, seed=4)
    ok = (
        abs(min_eig + 1.0) <= 1e-9
        and not is_psd
        and verdict.status != STATUS_NOT_POSITIVE
        and verdict.best_found >= -1e-9
    )
    _report(4, ok, f"swap kernel: strong min_eig {min_eig:.12f}, weak best_found {verdict.best_found:.3e} over 1000 restarts")


def test_criterion_05_scalar_exactness():
    rng = np.random.default_rng(5)
    disagreements = 0
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        k = scalar_kernel((a + a.conj().T) / 2)
        lam = float(np.linalg.eigvalsh(k.table[:, :, 0, 0]).min())
        expected = STATUS_POSITIVE if lam >= -1e-9 * k.entry_scale else STATUS_NOT_POSITIVE
        if weak_positivity(k, tols=Tolerances(structural=1e-9)).status != expected:
            disagreements += 1
    _report(5, disagreements == 0, f"{disagreements} disagreements with direct eigendecomposition over 1000 scalar kernels")


def test_criterion_06_gns_fourier_oracle():
    rng = np.random.default_rng(6)
    ok = True
    detail = []
    for n in range(2, 9):
        c = rng.uniform(0.5, 2.0, n)
        zero_out = rng.permutation(n)[: n // 2]
        c[zero_out] = 0.0
        support = np.sort(np.nonzero(c > 0)[0])
        k = circulant_kernel(n, np.fft.ifft(c))
        S = cyclic_group(n)
        A = left_translation_action(S)
        dec = build_kolmogorov(k)
        rep = build_representation(dec, k, S, A)
        eig = np.linalg.eigvals(rep.matrices[1])
        expected = np.exp(2j * np.pi * support / n)
        matched = dec.n == len(support) and np.allclose(
            np.sort_complex(eig), np.sort_complex(expected), atol=1e-9
        )
        ok = ok and matched
        detail.append(f"n={n}:dim={dec.n}/{len(support)}")
    _report(6, ok, "dimension = Fourier support and shift eigenvalues are the matching roots of unity (" + ", ".join(detail) + ")")


def test_criterion_07_minimal_linearisation_uniqueness():
    worst = 0.0
    for seed in range(50):
        m = 3 + seed % 3
        d = 1 + seed % 2
        rank = 1 + seed % m
        k = random_block_psd_kernel(m, d, rank, seed=1000 + seed)
        d1 = build_kolmogorov(k, pivot_order=range(m))
        d2 = build_kolmogorov(k, pivot_order=reversed(range(m)))
        _, iso, inter = unitary_equivalence(d1, d2)
        worst = max(worst, iso, inter)
    _report(7, worst <= 1e-8, f"pivot-order change: worst isometry/intertwine defect {worst:.3e} over 50 instances")


def test_criterion_08_bound_constants():
    rng = np.random.default_rng(8)
    sound = True
    coincide = True
    # scalar translation instances
    for n in (2, 3, 4, 5):
        S = cyclic_group(n)
        A = left_translation_action(S)
        k = circulant_kernel(n, np.fft.ifft(rng.uniform(0.1, 1.0, n)))
        for alpha in range(n):
            b = bound_constant(k, S, A, alpha)
            sound = sound and b.lower <= b.upper + 1e-9
            coincide = coincide and abs(b.lower - b.upper) <= 1e-6
    # absorbing instance: the constant collapses to zero
    S = idempotent_pair()
    b0 = bound_constant(scalar_kernel([[0, 0], [0, 1]]), S, Action(np.array([[0, 1], [0, 0]])), 1)
    sound = sound and b0.lower <= b0.upper + 1e-9
    coincide = coincide and abs(b0.lower - b0.upper) <= 1e-6
    # the worked instance
    A = Action(np.array([[0, 1], [1, 1]]))
    k = scalar_kernel([[4, 2], [2, 2]])
    bz = bound_constant(k, S, A, 1)
    worked = abs(bz.lower - 1.0) <= 1e-6 and abs(bz.upper - 1.0) <= 1e-6
    ok = sound and coincide and worked
    _report(8, ok, f"lower<=upper everywhere, scalar brackets coincide, worked instance c(z) = {bz.lower:.6f}")


def test_criterion_09_factorization():
    rng = np.random.default_rng(9)
    worst = 0.0
    count = 0
    while count < 50:
        kind = count % 5
        if kind == 4:
            S = idempotent_pair()
            r = int(rng.integers(2, 4))
            P = np.diag((rng.random(r) < 0.7).astype(complex))
            R = np.stack([np.eye(r, dtype=complex), P])
        else:
            g = 2 + kind
            S = cyclic_group(g)
            R = left_regular_star_rep(S)
            r = g
        q = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        B = rng.standard_normal((q, r, d)) + 1j * rng.standard_normal((q, r, d))
        T = gram_semigroup_map(S, R, B)
        lk = lift_semigroup_map(T, S)
        dec = build_kolmogorov(lk.kernel)
        rep = build_representation(dec, lk.kernel, S, lk.action)
        worst = max(worst, verify_factorization(T, S, dec, rep))
        count += 1
    _report(9, worst <= 1e-8, f"factorisation residual {worst:.3e} over 50 positive semigroup maps")


def test_criterion_10_reproducing_property():
    rng = np.random.default_rng(10)
    rebuild_worst = 0.0
    conj_worst = 0.0
    for n in range(2, 9):
        S = cyclic_group(n)
        A = left_translation_action(S)
        k = circulant_kernel(n, np.fft.ifft(rng.uniform(0.3, 1.0, n)))
        dec = build_kolmogorov(k)
        rk = build_rk(dec)
        rebuild_worst = max(rebuild_worst, float(np.max(np.abs(reconstruct_kernel(rk).table - k.table))))
        rho = rk_representation(rk, S, A)
        conj_worst = max(conj_worst, rho.diagnostics["conjugation_defect"])
    for seed in range(10):
        k = random_block_psd_kernel(3 + seed % 3, 1 + seed % 3, 2 + seed % 2, seed=2000 + seed)
        rk = build_rk(build_kolmogorov(k))
        rebuild_worst = max(rebuild_worst, float(np.max(np.abs(reconstruct_kernel(rk).table - k.table))))
    S = idempotent_pair()
    A = Action(np.array([[0, 1], [1, 1]]))
    k = scalar_kernel([[4, 2], [2, 2]])
    rk = build_rk(build_kolmogorov(k))
    rebuild_worst = max(rebuild_worst, float(np.max(np.abs(reconstruct_kernel(rk).table - k.table))))
    rho = rk_representation(rk, S, A)
    conj_worst = max(conj_worst, rho.diagnostics["conjugation_defect"])
    ok = rebuild_worst <= 1e-9 and conj_worst <= 1e-9
    _report(10, ok, f"kernel rebuild defect {rebuild_worst:.3e}, conjugation defect {conj_worst:.3e}")
