import ast
import pathlib

import numpy as np
import pytest

import wpsd
from wpsd import (
    Kernel,
    SchemaError,
    gram_pair,
    hermitian_space,
    in_cone,
    involution,
    leq,
    polarisation_check,
    scalar_space,
    schwarz_check,
    seminorm,
    ve_seminorm,
)
from wpsd.kernels import random_block_psd_kernel
from wpsd.zspace import Tolerances, entry_scale, pair_coords, validate_gram

HERM2 = hermitian_space(2)


def random_gram(n, d, rank, seed):
    """Gram-built metric, hence a weakly positive one."""
    return random_block_psd_kernel(n, d, rank, seed)


def test_involution_examples():
    np.testing.assert_allclose(involution(np.array([[0, 1], [0, 0]])), [[0, 0], [1, 0]])
    np.testing.assert_allclose(involution(np.array([[2 - 3j]])), [[2 + 3j]])
    h = np.array([[1.0, 2 + 1j], [2 - 1j, 5.0]])
    np.testing.assert_allclose(involution(h), h)
    z = np.array([[1j, 2.0], [0.5, -1j]])
    np.testing.assert_allclose(involution(involution(z)), z)


def test_in_cone_examples():
    assert in_cone(np.eye(2), HERM2)
    assert not in_cone(np.diag([1.0, -1.0]), HERM2)
    assert not in_cone(np.array([[0, 1], [0, 0]]), HERM2)
    assert in_cone([[0.5]], scalar_space())
    assert not in_cone([[-0.5]], scalar_space())


def test_leq_examples():
    assert leq(np.zeros((2, 2)), np.eye(2), HERM2)
    assert not leq(np.eye(2), np.zeros((2, 2)), HERM2)
    z = np.array([[1.0, 0.3], [0.3, 2.0]])
    assert leq(z, z, HERM2)


def test_seminorm_examples():
    z = np.diag([3.0, -1.0])
    assert seminorm(z, "operator") == pytest.approx(3.0)
    assert seminorm(z, "trace") == pytest.approx(4.0)
    assert seminorm(np.zeros((2, 2))) == 0.0
    with pytest.raises(SchemaError):
        seminorm(z, "nuclear")


def test_seminorms_are_increasing():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d = rng.integers(1, 4)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = a @ a.conj().T
        y = x + b @ b.conj().T  # 0 <= x <= y
        for tag in ("operator", "trace"):
            assert seminorm(x, tag) <= seminorm(y, tag) + 1e-12


def test_cone_strictness():
    z = 1e-12 * np.eye(2)
    assert in_cone(z, HERM2) and in_cone(-z, HERM2)
    assert seminorm(z) <= 2.0 * Tolerances().structural * (1.0 + seminorm(z))
    # a clearly nonzero element cannot sit in both cones
    w = np.eye(2)
    assert not (in_cone(w, HERM2) and in_cone(-w, HERM2))


def test_gram_pair_identity_and_zero():
    G = Kernel(HERM2, np.eye(2)[None, None] * np.eye(3)[:, :, None, None])
    e1 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(gram_pair(G, e1, e1), np.eye(2))
    np.testing.assert_allclose(gram_pair(G, np.zeros(3), e1), np.zeros((2, 2)))


def test_gram_pair_symmetry_and_linearity():
    rng = np.random.default_rng(1)
    for seed in range(20):
        G = random_gram(3, 2, 4, seed)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a, b = rng.standard_normal(2)
        np.testing.assert_allclose(
            gram_pair(G, u, v), involution(gram_pair(G, v, u)), atol=1e-12
        )
        np.testing.assert_allclose(
            gram_pair(G, u, a * v + b * w),
            a * gram_pair(G, u, v) + b * gram_pair(G, u, w),
            atol=1e-12,
        )


def test_gram_pair_dimension_mismatch():
    G = random_gram(3, 1, 3, 0)
    with pytest.raises(SchemaError):
        gram_pair(G, np.ones(2), np.ones(3))


def test_polarisation_trivial_cases():
    G = random_gram(3, 2, 4, 7)
    u = np.array([1.0, 2.0, -1.0])
    assert polarisation_check(G, u, u) < 1e-12
    # orthogonal pair on an identity-block metric
    G2 = Kernel(HERM2, np.eye(2)[None, None] * np.eye(2)[:, :, None, None])
    assert polarisation_check(G2, [1.0, 0.0], [0.0, 1.0]) < 1e-14


def test_polarisation_random():
    rng = np.random.default_rng(2)
    for seed in range(50):
        n, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        G = random_gram(n, d, n + 1, seed)
        u = rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n)
        v = rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n)
        assert polarisation_check(G, u, v) <= 1e-10


def test_schwarz_trivial_cases():
    G = random_gram(3, 2, 4, 3)
    u = np.array([1.0, -2.0, 0.5])
    lhs, rhs, holds = schwarz_check(G, u, u)
    assert holds and lhs <= rhs + 1e-12
    lhs, rhs, holds = schwarz_check(G, u, np.zeros(3))
    assert holds and lhs == 0.0 and rhs == 0.0


def test_schwarz_random_pairs():
    rng = np.random.default_rng(4)
    worst = 0.0
    for seed in range(200):
        G = random_gram(3, 2, 4, seed)
        for _ in range(5):
            u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lhs, rhs, holds = schwarz_check(G, u, v)
            assert holds
            if rhs > 1e-9:
                worst = max(worst, lhs / rhs)
    assert worst <= 1.0  # Gram-built metrics are far from the generic constant


def test_null_direction_forces_small_pairings():
    # a metric with an exact null direction: the pairing against anything
    # stays at the level the Schwarz bound predicts
    F = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # rows: factors per index
    G = Kernel(scalar_space(), (F.conj() @ F.T).reshape(3, 3, 1, 1))
    u = np.array([1.0, -1.0, 0.0])  # null: factors cancel
    assert ve_seminorm(G, u) ** 2 <= 1e-12
    rng = np.random.default_rng(5)
    for _ in range(25):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert seminorm(gram_pair(G, u, v)) <= 1e-6


def test_ve_seminorm():
    G = Kernel(HERM2, np.eye(2)[None, None] * np.eye(2)[:, :, None, None])
    assert ve_seminorm(G, [0.0, 0.0]) == 0.0
    assert ve_seminorm(G, [1.0, 0.0]) == pytest.approx(1.0)
    u = np.array([0.3 - 1j, 2.0])
    lam = -2.7 + 0.4j
    assert ve_seminorm(G, lam * u) == pytest.approx(abs(lam) * ve_seminorm(G, u))


def test_validate_gram():
    G = random_gram(3, 2, 4, 11)
    assert validate_gram(G) == []
    bad = np.array(G.table)
    bad[0, 0] = -np.eye(2)
    msgs = validate_gram(Kernel(HERM2, bad))
    assert any("diagonal" in v for v in msgs)
    bad2 = np.array(G.table)
    bad2[0, 1] += 1.0
    assert any("symmetry" in v for v in validate_gram(Kernel(HERM2, bad2)))


def test_cone_checks_follow_the_structural_tolerance():
    # -5e-9 I is outside the cone at the default structural 1e-9 (entry scale
    # 1 + 5e-9) and inside it at 1e-8; the space itself holds no tolerance.
    z, loose = -5e-9 * np.eye(2), Tolerances(structural=1e-8)
    assert not in_cone(z, HERM2) and in_cone(z, HERM2, loose)
    assert not leq(np.zeros((2, 2)), z, HERM2) and leq(np.zeros((2, 2)), z, HERM2, loose)
    G = Kernel(HERM2, np.array([[np.eye(2), 5e-9 * np.eye(2)], [np.zeros((2, 2)), z]]))
    assert len(validate_gram(G)) == 2 and validate_gram(G, loose) == []
    assert not hasattr(HERM2, "tolerance")


@pytest.mark.parametrize("n, d, p, q", [(4, 2, 3, 5), (5, 1, 1, 1), (3, 3, 0, 2), (0, 2, 3, 1), (0, 1, 0, 0)])
def test_pair_coords_matches_einsum(n, d, p, q):
    rng = np.random.default_rng(n + 10 * d + 100 * p + 1000 * q)
    blocks = rng.standard_normal((n, n, d, d)) + 1j * rng.standard_normal((n, n, d, d))
    U = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    W = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
    got = pair_coords(blocks, U, W)
    assert got.shape == (p, q, d, d)
    np.testing.assert_allclose(got, np.einsum("ai,bj,abce->ijce", U.conj(), W, blocks), atol=1e-12)


def test_no_parameter_default_in_the_package_holds_a_float_literal():
    # Tolerance defaults read Tolerances, so a library call and a run agree on
    # them; a float literal in a default would be a second place to set one.
    found = []
    for path in sorted(pathlib.Path(wpsd.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for default in filter(None, [*fn.args.defaults, *fn.args.kw_defaults]):
                    if any(isinstance(n, ast.Constant) and isinstance(n.value, float) for n in ast.walk(default)):
                        found.append(f"{path.name}:{default.lineno}")
    assert found == []


def test_tolerances_validate_each_field():
    assert Tolerances() == Tolerances(structural=1e-9, rank=1e-8, report=1e-8)
    for bad in (0.0, -1e-9, float("inf"), float("nan"), 10**400, True, "1e-8"):
        with pytest.raises(SchemaError):
            Tolerances(rank=bad)


def test_an_entry_scale_that_overflows_is_refused():
    # The operator norm of this entry exceeds the largest float: every
    # tolerance relative to it would be infinite, so every check would pass.
    entry = np.array([[1.7e308, 1e308], [0.0, 1.7e308]])
    with pytest.raises(SchemaError, match="overflows"):
        entry_scale(entry)
    with pytest.raises(SchemaError, match="overflows"):
        Kernel(HERM2, entry.reshape(1, 1, 2, 2)).entry_scale
    assert entry_scale(np.diag([1e308, 1e308])) == 1.0 + 1e308
