import itertools
import warnings

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
    gns_instance,
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
from wpsd.dilation import (
    KolmogorovDecomposition,
    _representation_defects,
    _restricted_pencil_max,
)
from wpsd.kernels import block_matrix, direction_form, pair_value, quad_form
from wpsd.zspace import Tolerances, hermitian_part

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
    np.testing.assert_allclose(dec.gram.table[0, 0], [[1.0]], atol=1e-12)
    assert verify_linearisation(dec, k) <= 1e-12


def test_identity_kernel():
    m = 4
    k = scalar_kernel(np.eye(m))
    dec = build_kolmogorov(k)
    assert dec.n == m
    np.testing.assert_allclose(
        dec.gram.table[:, :, 0, 0][np.ix_(np.argsort(dec.pivots), np.argsort(dec.pivots))],
        np.eye(m),
        atol=1e-12,
    )
    perm = np.zeros((m, m))
    perm[np.arange(m), dec.pivots] = 1.0
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
            i, j = dec.pivots.index(x), dec.pivots.index(y)
            np.testing.assert_allclose(dec.gram.table[i, j], expected, atol=1e-12)
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
    bad = KolmogorovDecomposition(dec.gram, dec.pivots, 2.0 * dec.V, dec.residual)
    defect = verify_linearisation(bad, k)
    assert defect >= 2.9 * np.abs(k.table).max() * 0.9  # [2V,2V] = 4k, so gap ~ 3|k|


def test_rank_instability_reported():
    k = random_block_psd_kernel(4, 1, 4, seed=7)
    dec = build_kolmogorov(k)
    assert dec.diagnostics["rank_unstable"] is False


def _two_pass_rank_unstable(k, tol=Tolerances.rank):
    """The earlier rule: greedy pivot counts at ``rank_tol`` and ``10 * rank_tol`` differ.

    A copy of the two greedy modified Gram-Schmidt passes it ran, on the
    columns scaled by the power of two above the entry scale.
    """
    C = k.table.transpose(1, 0, 2, 3).reshape(k.m, -1).T
    unit = 2.0 ** -np.frexp(k.entry_scale)[1]
    rank_tol = tol * float(np.max(np.linalg.norm(C * unit, axis=0)))

    def count(threshold):
        R, n = unit * C, 0
        while True:
            norms = np.linalg.norm(R, axis=0)
            x = int(np.argmax(norms))
            if norms[x] <= threshold:
                return n
            q = R[:, x] / np.linalg.norm(R[:, x])
            R -= np.outer(q, q.conj() @ R)
            R[:, x] = 0.0
            n += 1

    return count(rank_tol) != count(10.0 * rank_tol)


def _wide_gaussian(m, width, seed):
    x = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, m))
    table = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * width**2))
    return scalar_kernel(table)


def _noisy_low_rank(m, d, eps, seed):
    """A rank-3 block-PSD kernel plus ``eps`` times a full-rank block-PSD one."""
    base = random_block_psd_kernel(m, d, 3, seed)
    noise = random_block_psd_kernel(m, d, m * d, seed + 100)
    return Kernel(base.space, base.table + eps * noise.table)


def test_one_pass_rank_unstable_matches_the_two_pass_rule(monkeypatch):
    import wpsd.dilation as dilation

    passes = []
    pivoted_basis = dilation._pivoted_basis

    def counted(*args):
        passes.append(args)
        return pivoted_basis(*args)

    monkeypatch.setattr(dilation, "_pivoted_basis", counted)
    kernels = [_wide_gaussian(m, w, seed) for m in (16, 24, 32) for w in (0.2, 0.4, 0.8) for seed in range(3)]
    kernels += [
        _noisy_low_rank(10, 1 + seed % 2, eps, seed) for eps in (1e-9, 1e-8, 1e-7, 1e-6) for seed in range(6)
    ]
    flags = []
    for k in kernels:
        passes.clear()
        flag = build_kolmogorov(k).diagnostics["rank_unstable"]
        assert len(passes) == 1
        assert flag is _two_pass_rank_unstable(k)
        flags.append(flag)
    assert 10 <= sum(flags) <= len(flags) - 10  # both outcomes are exercised


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    m=st.integers(2, 8),
    d=st.integers(1, 2),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pivot_order_changes_only_the_gauge(m, d, rank, seed, data):
    k = random_block_psd_kernel(m, d, rank, seed)
    order = data.draw(st.permutations(range(m)))
    greedy, ordered = build_kolmogorov(k), build_kolmogorov(k, pivot_order=order)
    assert greedy.n == ordered.n
    unitary_equivalence(greedy, ordered)  # raises NoIsometryError beyond tolerance
    for dec in (greedy, ordered):
        np.testing.assert_array_equal(dec.gram.table, k.table[np.ix_(dec.pivots, dec.pivots)])


def test_decomposition_of_entries_near_the_largest_float():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dec = build_kolmogorov(scalar_kernel([[1e308, 0.0], [0.0, 1e308]]))
    assert dec.n == 2 and dec.residual == 0.0
    np.testing.assert_array_equal(dec.V, np.eye(2))


def test_decomposition_of_subnormal_entries():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dec = build_kolmogorov(scalar_kernel([[5e-324, 0.0], [0.0, 5e-324]]))
    assert dec.n == 2 and dec.residual == 0.0
    np.testing.assert_array_equal(dec.V, np.eye(2))


def test_pivots_do_not_depend_on_a_power_of_two_scale():
    k = random_block_psd_kernel(12, 2, 5, seed=4)
    for exponent in (600, 1000, -600, -1000):
        big = Kernel(k.space, 2.0**exponent * k.table)
        for order in (None, list(reversed(range(12)))):
            assert build_kolmogorov(big, pivot_order=order).pivots == build_kolmogorov(k, pivot_order=order).pivots


# ------------------------------------------------------------ representation


def test_cyclic_shift_representation():
    S = cyclic_group(3)
    A = left_translation_action(S)
    k = scalar_kernel(np.eye(3))
    dec = build_kolmogorov(k)
    rep = build_representation(dec, k, S, A)
    P = rep.matrices[1]
    perm = np.zeros((3, 3))
    piv = list(dec.pivots)
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


def full_search_bound(k, S, A, alpha, restarts=16, max_iters=100, seed=0, tol=1e-9):
    """Reference: ``bound_constant``'s search with every climb run, as ``(lower, upper, t, h)``."""
    act = A.table[alpha]
    k_a = Kernel(k.space, k.table[np.ix_(act, act)])
    scale = k.entry_scale
    rel = max(tol, 1e-12)
    B = hermitian_part(block_matrix(k))
    B_a = hermitian_part(block_matrix(k_a))
    upper_sq, _ = _restricted_pencil_max(B_a, B, rel, np.linalg.eigh(B))
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

    for x in range(m):
        climb(np.eye(m, dtype=complex)[x])
    child = np.random.SeedSequence(seed).spawn(restarts)
    for ridx in range(restarts):
        rng = np.random.default_rng(child[ridx])
        climb(rng.standard_normal(m) + 1j * rng.standard_normal(m))
    lower = float(np.sqrt(max(best_ratio, 0.0)))
    upper = float(np.sqrt(max(upper_sq, 0.0)))
    return lower, upper, best_pair[0], best_pair[1]


def gns_phi(g, d, rng):
    """``phi(u) = sum_j exp(2 pi i j u / g) P_j`` with random PSD ``P_j``: a positive-type function on Z_g."""
    F = rng.standard_normal((g, d, d)) + 1j * rng.standard_normal((g, d, d))
    P = F @ np.conj(F.transpose(0, 2, 1))
    waves = np.exp(2j * np.pi * np.outer(np.arange(g), np.arange(g)) / g)
    return np.einsum("uj,jab->uab", waves, P)


def raw_witness_ratio(k, act, t, h):
    """``<h, M_a(t) h> / <h, M(t) h>`` summed directly from the raw table."""
    num = np.einsum("k,j,a,kjab,b->", np.conj(t), t, np.conj(h), k.table[np.ix_(act, act)], h)
    den = np.einsum("k,j,a,kjab,b->", np.conj(t), t, np.conj(h), k.table, h)
    return num.real / den.real


def test_bound_open_bracket_runs_every_climb_as_before():
    S = cyclic_group(6)
    A = left_translation_action(S)
    restarts = 6
    for seed in range(3):
        k = random_block_psd_kernel(6, 2, 12, seed=seed)  # full rank: B is positive definite
        for alpha in (1, 2):
            b = bound_constant(k, S, A, alpha, restarts=restarts, seed=seed)
            lower, upper, t, h = full_search_bound(k, S, A, alpha, restarts=restarts, seed=seed)
            assert b.upper > 1.5 * b.lower  # the bracket stays open
            assert b.diagnostics["climbs"] == k.m + restarts
            assert (b.lower, b.upper) == (lower, upper)
            assert np.array_equal(b.witness_t, t) and np.array_equal(b.witness_h, h)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["gns", "random"]),
    g=st.integers(2, 6),
    d=st.sampled_from([1, 2]),
    alpha=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
def test_bound_early_stop_keeps_the_full_search_answer(kind, g, d, alpha, seed):
    S = cyclic_group(g)
    A = left_translation_action(S)
    alpha %= g
    if kind == "gns":
        k = gns_instance(S, gns_phi(g, d, np.random.default_rng(seed))).kernel
    else:
        k = random_block_psd_kernel(g, 2, 2, seed=seed)
    restarts, tol = 4, 1e-9
    rel = max(tol, 1e-12)
    b = bound_constant(k, S, A, alpha, restarts=restarts, seed=seed, tols=Tolerances(structural=tol))
    lower, upper, t, h = full_search_bound(k, S, A, alpha, restarts=restarts, seed=seed, tol=tol)
    assert 1 <= b.diagnostics["climbs"] <= k.m + restarts
    assert b.upper == upper
    if b.diagnostics["climbs"] == k.m + restarts:
        assert b.lower == lower
        assert np.array_equal(b.witness_t, t) and np.array_equal(b.witness_h, h)
    else:
        assert b.lower <= lower and b.lower >= (1.0 - rel) * lower
        assert b.lower**2 >= (1.0 - rel) * b.upper**2
    ratio = raw_witness_ratio(k, A.table[alpha], b.witness_t, b.witness_h)
    assert np.sqrt(max(ratio, 0.0)) == pytest.approx(b.lower, rel=1e-10, abs=1e-12)


def test_bound_positive_scalar_kernel_stops_after_one_climb():
    S = cyclic_group(5)
    A = left_translation_action(S)
    k = circulant_kernel(5, np.fft.ifft([1.0, 0.6, 0.3, 0.3, 0.6]))
    for alpha in range(5):
        b = bound_constant(k, S, A, alpha)
        assert b.diagnostics["climbs"] == 1
        assert b.lower == pytest.approx(b.upper, rel=1e-9)


def test_bound_indefinite_denominator_runs_every_climb():
    # k = diag(1, -1, 0) with the element sending points 1 and 2 to the null
    # point 2: B_a = diag(1, 0, 0) vanishes on B's null and negative
    # directions, and every climb reaches upper = 1.  Yet t = (a, b, 0) gives
    # the ratio |a|^2 / (|a|^2 - |b|^2) > 1, so the bracket is not closed.
    S = idempotent_pair()
    A = Action(np.array([[0, 1, 2], [0, 2, 2]]))
    b = bound_constant(scalar_kernel(np.diag([1.0, -1.0, 0.0])), S, A, 1, restarts=4)
    assert b.diagnostics["denominator_indefinite"] is True and b.diagnostics["null_leak"] == 0.0
    assert b.lower == b.upper == 1.0
    assert b.diagnostics["climbs"] == 3 + 4


def brandt_semigroup(n):
    """``B_n`` with a unit (index 0) and a zero (index 1) adjoined; ``E_ij`` is at ``2 + n i + j``.

    ``E_ij E_kl = delta_jk E_il`` and ``E_ij* = E_ji``.  Returns the semigroup
    and its *-representation by matrix units, ``R(E_ij) = e_i e_j^T``.
    """
    g = n * n + 2
    mult = np.ones((g, g), dtype=int)
    mult[0], mult[:, 0] = np.arange(g), np.arange(g)
    mult[1], mult[:, 1] = 1, 1
    inv = np.arange(g)
    R = np.zeros((g, n, n), dtype=complex)
    R[0] = np.eye(n)
    for i, j in itertools.product(range(n), repeat=2):
        inv[2 + n * i + j] = 2 + n * j + i
        R[2 + n * i + j, i, j] = 1.0
        mult[2 + n * i + j, 2 + n * j : 2 + n * j + n] = 2 + n * i + np.arange(n)
    return StarSemigroup(mult, inv, unit=0), R


def test_bound_of_the_zero_element_is_plus_zero():
    # The zero element pushes every point to one whose forms all vanish, so
    # the bracket is [0, 0]; neither end may be written as -0.0.
    S, R = brandt_semigroup(3)
    rng = np.random.default_rng(1)
    B = rng.standard_normal((1, 3, 2)) + 1j * rng.standard_normal((1, 3, 2))
    lk = lift_semigroup_map(gram_semigroup_map(S, R, B), S)
    b = bound_constant(lk.kernel, S, lk.action, 1)
    assert b.lower == b.upper == 0.0
    assert not np.signbit(b.lower) and not np.signbit(b.upper)


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


def transformation_semigroup(generators):
    """The maps that ``generators`` generate under composition, with their action.

    ``mult[a, b]`` is ``a`` after ``b``, so the action law holds; maps that
    are not injective make the action non-injective.  When two generators
    give more than 40 maps, only the first is used.  The involution is the
    identity, which the multiplication defect never reads.
    """
    gens = [tuple(int(x) for x in f) for f in generators]
    elements = list(dict.fromkeys(gens))
    for e in elements:  # the list grows while it is read: every word is reached
        for f in gens:
            h = tuple(e[x] for x in f)
            if h not in elements:
                elements.append(h)
        if len(elements) > 40:
            return transformation_semigroup(generators[:1])
    index = {e: i for i, e in enumerate(elements)}
    mult = [[index[tuple(a[x] for x in b)] for b in elements] for a in elements]
    return StarSemigroup(np.array(mult), np.arange(len(elements))), np.array(elements)


def exact_mult_defect(mats, S):
    return max(
        float(np.linalg.norm(mats[S.mult[a, b]] - mats[a] @ mats[b], 2))
        for a in range(S.size)
        for b in range(S.size)
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["group", "semigroup", "broken"]),
    m=st.integers(1, 7),
    d=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_mult_defect_bounds_the_pair_loop(kind, m, d, seed):
    # Random coordinates are no linearisation, so the gaps are of order one.
    rng = np.random.default_rng(seed)
    if kind == "group":  # translations of a cyclic group on itself
        S = cyclic_group(m)
        act = np.array(S.mult)
    elif kind == "semigroup":  # lawful, and mostly not injective
        S, act = transformation_semigroup(rng.integers(0, m, size=(int(rng.integers(1, 3)), m)))
    else:  # random tables: the action law mostly fails
        S = cyclic_group(int(rng.integers(1, 6)))
        act = rng.integers(0, m, size=(S.size, m))
    n = int(rng.integers(1, m + 1))
    pivots = rng.permutation(m)[:n]
    V = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    F = rng.standard_normal((n, 2, d)) + 1j * rng.standard_normal((n, 2, d))
    gram = Kernel(hermitian_space(d), np.einsum("ira,jrb->ijab", np.conj(F), F))

    mats, mult, _, _ = _representation_defects(KolmogorovDecomposition(gram, pivots, V), act, S)
    assert np.array_equal(mats, V[act[:, pivots]].transpose(0, 2, 1))
    assert mult >= exact_mult_defect(mats, S) * (1 - 1e-12)


def lifted_cyclic_instance():
    S = cyclic_group(5)
    B = np.random.default_rng(3).standard_normal((2, 5, 2)) + 0j
    lk = lift_semigroup_map(gram_semigroup_map(S, left_regular_star_rep(S), B), S)
    return S, lk.action, lk.kernel


@pytest.mark.parametrize("instance", [lifted_cyclic_instance, matrix_semigroup_instance])
def test_pushforward_defect_matches_the_per_element_loop(instance):
    # Perturbed coordinates make the push-forward gap of order one; the large
    # stated residual keeps it under the IllDefinedError threshold.  The
    # reference is the per-element loop, one scatter and one product each.
    S, A, k = instance()
    dec = build_kolmogorov(k)
    V = dec.V + np.random.default_rng(5).standard_normal(dec.V.shape)
    rep = build_representation(KolmogorovDecomposition(dec.gram, dec.pivots, V, 1e3), k, S, A)
    m = k.m
    rng = np.random.default_rng(7)
    coeff = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    cols = k.table.transpose(1, 0, 2, 3).reshape(m, -1).T
    ref = 0.0
    for s in range(S.size):
        pushed = np.zeros(m, dtype=complex)
        np.add.at(pushed, A.table[s], coeff)
        via_matrix = cols[:, list(dec.pivots)] @ (rep.matrices[s] @ (V.T @ coeff))
        ref = max(ref, float(np.max(np.abs(cols @ pushed - via_matrix))))
    assert ref > 1e-2
    assert rep.diagnostics["pushforward_defect"] == pytest.approx(ref, rel=1e-12)


def test_mult_defect_needs_the_multiplicity_factor():
    # The one element sends both pivots to point 0, and the action law holds
    # there.  So pi(0) - pi(0)^2 is minus column 0 of the intertwining gap,
    # twice: its norm is sqrt(2) times that column's, while the whole gap
    # has norm 2.  Without sqrt(mu) = sqrt(2) the bound would read 2.
    S = cyclic_group(1)
    act = np.array([[0, 0]])
    V = np.array([[2.0, 0.0], [1.0, 0.0]], dtype=complex)
    gram = Kernel(scalar_space(), np.eye(2).reshape(2, 2, 1, 1))
    mats, mult, _, _ = _representation_defects(KolmogorovDecomposition(gram, (0, 1), V), act, S)
    inter = mats[0] @ V.T - V[act[0]].T
    exact = exact_mult_defect(mats, S)
    assert np.linalg.norm(inter, 2) == pytest.approx(2.0)
    assert exact == pytest.approx(2.0 * np.sqrt(2.0))
    assert mult >= exact * (1 - 1e-12)


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
    tols = Tolerances()
    dec = build_kolmogorov(lk.kernel, tols)
    pi = build_representation(dec, lk.kernel, S, lk.action, tols)
    rho = rk_representation(build_rk(dec), S, lk.action, tols)
    for rep in (pi, rho):
        assert max(rep.mult_defect, rep.star_defect, rep.intertwine_defect) <= tols.report
