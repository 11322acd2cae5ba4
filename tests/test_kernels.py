import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpsd import (
    Action,
    Kernel,
    SchemaError,
    Tolerances,
    adjoint_kernel,
    block_matrix,
    bound_constant,
    cyclic_group,
    gns_instance,
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
import wpsd.kernels as kernels_module
from wpsd.kernels import (
    DESCENT_CHUNK,
    STATUS_NOT_POSITIVE,
    STATUS_POSITIVE,
    STATUS_UNDETERMINED,
    _column_basis,
    direction_form,
    pair_value,
    quad_form,
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


def planted_violation_kernel(m, d, rank, seed, margin):
    """A block-PSD kernel minus ``c t t* (x) h h*``, so that ``<h, M(t) h> = -margin``."""
    rng = np.random.default_rng(seed)
    table = np.array(random_block_psd_kernel(m, d, rank, seed).table)
    t = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    t, h = t / np.linalg.norm(t), h / np.linalg.norm(h)
    c = np.einsum("a,k,j,kjab,b->", h.conj(), t.conj(), t, table, h).real + margin
    table -= c * np.einsum("k,j,a,b->kjab", t, t.conj(), h, h.conj())
    return Kernel(hermitian_space(d), table), t, h


def choi_map_kernel():
    """``k(x, y) = Phi(E_xy)`` for Choi's map ``Phi(X) = diag(2x11 + x33, 2x22 + x11, 2x33 + x22) - X``.

    Weakly positive (Choi's map is positive) but not decomposable, so
    neither the block matrix nor its partial transpose is PSD.
    """
    table = np.zeros((3, 3, 3, 3), dtype=complex)
    for x in range(3):
        for y in range(3):
            X = np.zeros((3, 3))
            X[x, y] = 1.0
            a, b, c = np.diag(X)
            table[x, y] = np.diag([2 * a + c, 2 * b + a, 2 * c + b]) - X
    return Kernel(hermitian_space(3), table)


def test_choi_map_kernel_stays_undetermined():
    k = choi_map_kernel()
    assert strong_positivity(k)[0] == pytest.approx(-1.0)
    v = weak_positivity(k)
    assert v.status == STATUS_UNDETERMINED
    assert v.best_found >= -1e-9 * k.entry_scale
    assert v.diagnostics["restarts"] == 64


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 6),
    d=st.integers(2, 3),
    rank=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
    margin=st.floats(1e-3, 1.0),
)
def test_planted_violation_is_never_certified_positive(m, d, rank, seed, margin):
    k, t, h = planted_violation_kernel(m, d, rank, seed, margin)
    assert pair_value(k, t, h).real == pytest.approx(-margin)
    v = weak_positivity(k, restarts=4, seed=seed)
    assert v.status != STATUS_POSITIVE
    if v.witness is not None:
        assert verify_witness(k, v.witness, 1e-9 * k.entry_scale / 2)


def test_planted_violation_stops_at_the_first_witness():
    k, _, _ = planted_violation_kernel(16, 2, 4, seed=11, margin=0.5)
    v = weak_positivity(k, restarts=64, seed=1)
    assert v.status == STATUS_NOT_POSITIVE
    assert v.diagnostics["restarts"] < 64
    assert verify_witness(k, v.witness, 1e-9 * k.entry_scale / 2)


def test_weak_positivity_spawns_restart_seeds_lazily():
    # The canonical start finds the witness, so no restart seed is ever needed.
    k = Kernel(hermitian_space(2), np.diag([1.0, -1.0]).reshape(1, 1, 2, 2) + 0j)
    v = weak_positivity(k, restarts=10**12)
    assert v.status == STATUS_NOT_POSITIVE
    assert v.diagnostics["restarts"] == 0


def full_space_search(k, restarts=64, seed=0, max_iters=200):
    """The descent run over all of ``C^m``, with an ``m x m`` t-step, one start at a time.

    Returns ``(status, restarts, non_converged, best)``.  A copy of the search
    that ``weak_positivity`` ran before it moved to the span of the kernel's
    columns and to lockstep chunks; callers pass kernels that are not block-PSD.
    """
    thresh = 1e-9 * k.entry_scale
    m = k.m

    def least(M):
        w, v = np.linalg.eigh(0.5 * (M + M.conj().T))
        return float(w[0]), v[:, 0]

    def random_starts():
        seeds = np.random.SeedSequence(seed)
        for _ in range(restarts):
            rng = np.random.default_rng(seeds.spawn(1)[0])
            yield rng.standard_normal(m) + 1j * rng.standard_normal(m)

    best, runs, non_converged = np.inf, 0, 0
    for i, t0 in enumerate(itertools.chain(np.eye(m, dtype=complex), random_starts())):
        t, prev, converged = t0 / np.linalg.norm(t0), np.inf, False
        for _ in range(max_iters):
            val, h = least(quad_form(k, t))
            if prev - val < 1e-12:
                converged = True
                break
            prev, t = least(direction_form(k, h))
        best = min(best, pair_value(k, t, h).real)
        runs += i >= m
        non_converged += i >= m and not converged
        if best < -thresh:
            return STATUS_NOT_POSITIVE, runs, non_converged, best
    return STATUS_UNDETERMINED, runs, non_converged, best


def transposed_gram_kernel(m, d, rank, seed):
    """``k(x, y) = (F(x)* F(y))^T``: weakly positive, and of column rank at most ``rank * d``."""
    k = random_block_psd_kernel(m, d, rank, seed)
    return Kernel(k.space, k.table.transpose(0, 1, 3, 2))


def swap_plus_half():
    """The swap kernel plus ``I/2`` on the diagonal: ``M(t) = t t* + |t|^2 I/2``, not block-PSD."""
    return Kernel(hermitian_space(2), swap_kernel().table + 0.5 * np.eye(2)[:, :, None, None] * np.eye(2))


def assert_same_search(k, restarts, seed, max_iters=200):
    v = weak_positivity(k, restarts=restarts, seed=seed, max_iters=max_iters)
    status, runs, non_converged, best = full_space_search(k, restarts, seed, max_iters)
    assert v.method != "block_psd_sufficient"
    assert (v.status, v.diagnostics["restarts"], v.diagnostics["non_converged"]) == (status, runs, non_converged)
    assert v.best_found == pytest.approx(best, abs=1e-9 * k.entry_scale)
    return v


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    planted=st.booleans(),
    m=st.integers(4, 16),
    d=st.integers(2, 3),
    rank=st.integers(1, 2),
    seed=st.integers(0, 2**31 - 1),
    margin=st.floats(1e-3, 1.0),
    max_iters=st.sampled_from([1, 200]),
)
def test_column_space_search_matches_the_full_space_search(planted, m, d, rank, seed, margin, max_iters):
    if planted:
        k = planted_violation_kernel(m, d, rank, seed, margin)[0]
    else:
        k = transposed_gram_kernel(m, d, rank, seed)
    if strong_positivity(k)[1]:
        return  # certified before any search
    # One iteration ends every descent on a t-step, unconverged.
    assert_same_search(k, restarts=6, seed=seed, max_iters=max_iters)


def test_full_rank_indefinite_kernel_searches_all_of_c_m():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    k = Kernel(hermitian_space(2), (a + a.conj().T).reshape(6, 2, 6, 2).transpose(0, 2, 1, 3))
    assert _column_basis(k).shape == (6, 6)
    assert assert_same_search(k, restarts=8, seed=2).status == STATUS_NOT_POSITIVE
    # Points scaled down to 1e-10 are far above rounding: all are kept.
    w = 10.0 ** -np.linspace(0, 10, 6)
    graded = Kernel(k.space, k.table * np.multiply.outer(w, w)[:, :, None, None])
    assert _column_basis(graded).shape == (6, 6) == (6, np.linalg.matrix_rank(graded.table.reshape(6, -1)))
    assert_same_search(graded, restarts=8, seed=2)
    # Every form of swap + I/2 is at least I/2 on unit vectors, and no direction lies outside the span.
    v = assert_same_search(swap_plus_half(), restarts=8, seed=2)
    assert v.status == STATUS_UNDETERMINED and v.best_found == pytest.approx(0.5)


def test_a_point_with_zero_row_and_column_starts_outside_the_column_span():
    k, _, _ = planted_violation_kernel(6, 2, 2, seed=4, margin=0.5)
    table = np.zeros((7, 7, 2, 2), dtype=complex)
    table[1:, 1:] = k.table
    k = Kernel(k.space, table)
    Q = _column_basis(k)
    assert Q.shape[1] < 7 and np.abs(Q[0]).max() <= 1e-15  # e_0 projects to u0 = 0
    assert_same_search(k, restarts=8, seed=1)
    # Every form of swap + I/2 is positive definite on the span, so only the
    # zero point's direction reaches the least value, 0.
    t = np.zeros((3, 3, 2, 2), dtype=complex)
    t[1:, 1:] = swap_plus_half().table
    v = assert_same_search(Kernel(hermitian_space(2), t), restarts=8, seed=1)
    assert v.status == STATUS_UNDETERMINED and v.best_found == 0.0


@pytest.mark.parametrize("m", [5, DESCENT_CHUNK])
@pytest.mark.parametrize(
    "restarts", [0, 1, DESCENT_CHUNK - 1, DESCENT_CHUNK, DESCENT_CHUNK + 1, 2 * DESCENT_CHUNK + 1]
)
def test_lockstep_chunks_run_every_start_at_each_chunk_boundary(m, restarts):
    # Undetermined kernels run the whole budget; at m = DESCENT_CHUNK the
    # canonical starts fill one chunk and the random ones start the next.
    k = transposed_gram_kernel(m, 2, 2, seed=m)
    v = assert_same_search(k, restarts=restarts, seed=3)
    assert v.status == STATUS_UNDETERMINED and v.diagnostics["restarts"] == restarts


def hidden_violation_kernel(m, spread, seed):
    """``k(x, y) = a(x, y) E_11 + b(x, y) E_22``, with ``a`` diagonal in ``[0.1, 0.2]`` and ``b`` indefinite.

    ``b`` has unit diagonal, so every canonical start settles on ``E_11``
    with a positive value; only a random ``t`` with ``<t, b t> < <t, a t>``
    turns to ``E_22`` and finds the negative eigenvector of ``b``.
    """
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    table = np.zeros((m, m, 2, 2), dtype=complex)
    table[:, :, 0, 0] = np.diag(np.linspace(0.1, 0.2, m))
    table[:, :, 1, 1] = np.eye(m) + spread * (r + r.conj().T - 2 * np.diag(r.diagonal().real))
    return Kernel(hermitian_space(2), table)


def test_a_witness_from_a_random_start_mid_chunk_ends_the_search_there():
    k = hidden_violation_kernel(6, 0.3, seed=2)
    v = assert_same_search(k, restarts=64, seed=2)
    # Start 6 + 36 - 1 = 41 is the tenth of the third chunk of 16.
    assert v.status == STATUS_NOT_POSITIVE and v.diagnostics["restarts"] == 36
    assert (k.m + 36 - 1) % DESCENT_CHUNK == 9
    assert verify_witness(k, v.witness, 1e-9 * k.entry_scale / 2)


def same_verdict(v, w):
    assert (v.status, v.method, v.diagnostics) == (w.status, w.method, w.diagnostics)
    assert v.best_found == pytest.approx(w.best_found, abs=1e-12)
    if v.witness is not None:
        assert v.witness.value == pytest.approx(w.witness.value, abs=1e-12)


@pytest.mark.parametrize("chunk", [1, 3])
def test_the_verdict_does_not_depend_on_the_chunk(monkeypatch, chunk):
    kernels = [
        hidden_violation_kernel(6, 0.3, seed=2),
        planted_violation_kernel(12, 2, 2, seed=5, margin=0.1)[0],
        transposed_gram_kernel(7, 3, 1, seed=4),
    ]
    verdicts = [weak_positivity(k, restarts=40, seed=2) for k in kernels]
    monkeypatch.setattr(kernels_module, "DESCENT_CHUNK", chunk)
    for k, v in zip(kernels, verdicts):
        same_verdict(weak_positivity(k, restarts=40, seed=2), v)


@pytest.mark.parametrize("max_iters", [0, -1])
@pytest.mark.parametrize("search", ["weak_positivity", "bound_constant"])
def test_a_search_without_iterations_is_a_schema_error(search, max_iters):
    with pytest.raises(SchemaError, match="max_iters"):
        if search == "weak_positivity":
            weak_positivity(swap_kernel(), max_iters=max_iters)
        else:
            inst = gns_instance(cyclic_group(3), [1.0, 0.5, 0.5])
            bound_constant(inst.kernel, cyclic_group(3), inst.action, 1, max_iters=max_iters)


def test_planted_witness_is_a_unit_vector_valued_on_the_raw_table():
    k, _, _ = planted_violation_kernel(24, 2, 3, seed=7, margin=0.5)
    assert _column_basis(k).shape[1] < 24
    v = weak_positivity(k, restarts=8, seed=3)
    w = v.witness
    assert v.status == STATUS_NOT_POSITIVE and w.t.shape == (24,)
    assert np.linalg.norm(w.t) == pytest.approx(1.0, abs=1e-12)
    assert w.value == v.best_found == pair_value(k, w.t, w.h).real


@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2**600", "2**-600"])
def test_column_space_search_is_scale_free(scale):
    # pyproject.toml turns every RuntimeWarning (overflow, invalid value) into an error.
    # The entry scale is 1 + the largest entry norm, so the tolerance goes down
    # with 2**-600 tables; at the default they would pass the block-PSD test.
    tols = Tolerances(structural=1e-9 * min(scale, 1.0))
    for k in (planted_violation_kernel(10, 2, 2, seed=8, margin=0.5)[0], transposed_gram_kernel(10, 2, 2, seed=8)):
        v = weak_positivity(k, restarts=6, seed=1)
        scaled = Kernel(k.space, k.table * scale)
        w = weak_positivity(scaled, restarts=6, seed=1, tols=tols)
        assert (w.status, w.diagnostics["restarts"]) == (v.status, v.diagnostics["restarts"])
        if w.witness is not None:
            assert w.witness.value == pair_value(scaled, w.witness.t, w.witness.h).real < 0


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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600], ids=["1", "2**600", "2**-600"])
def test_entry_scale_equals_the_full_svd(d, scale):
    rng = np.random.default_rng(d)
    tables = [rng.standard_normal((5, 5, d, d)) + 1j * rng.standard_normal((5, 5, d, d))]
    # The identity has the largest Frobenius norm but not the largest operator norm.
    t = np.zeros((2, 2, d, d), dtype=complex)
    t[0, 0] = np.eye(d)
    t[1, 1, 0, 0] = 1.01
    tables.append(t)
    # Near 2**512 the squares of the identity's entries sum past the largest float.
    t = np.zeros((2, 2, d, d), dtype=complex)
    t[0, 0] = 0.75 * np.eye(d)
    t[1, 1, 0, 0] = 0.9
    kernels = [Kernel(hermitian_space(d), t * scale) for t in tables]
    kernels.append(Kernel(hermitian_space(d), t * 2.0**512))
    for k in kernels:
        assert k.entry_scale == 1.0 + float(np.linalg.svd(k.table, compute_uv=False).max())
    assert Kernel(hermitian_space(d), np.zeros((0, 0, d, d))).entry_scale == 1.0


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
