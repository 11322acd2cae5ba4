"""Seeded problem files for the `wpsd all` benchmark.

    python3 perfbench/fixtures.py --workload decompose --seed 1 --out DIR

writes one problem file per entry of the workload's cycle list into DIR,
plus ``manifest.json``: for every file its family, construction
parameters and expected exit code, and for every family the construction
and the reason it belongs to its workload.  The same seed gives the same
bytes.  The program under test only ever sees the problem files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from wpsd import (  # noqa: E402
    cyclic_group,
    gns_instance,
    gram_semigroup_map,
    left_regular_star_rep,
    matrix_module,
    random_block_psd_kernel,
    right_multiplication,
)

FAMILIES = {
    "block_psd": {
        "workload": "kernel",
        "construction": "random_block_psd_kernel(m, d, rank, seed): k(x, y) = F(x)* F(y)",
        "tasks": ["validate", "check-positivity", "decompose"],
        "expected_exit": 0,
        "why": "large kernel JSON in, large decomposition out; positivity takes the block-PSD certificate",
    },
    "gaussian": {
        "workload": "kernel",
        "construction": "exp(-|x - y|^2 / 2 w^2) P on a jittered grid of m points in [0, 1], w about 1/m, |P| = 1",
        "tasks": ["validate", "check-positivity", "decompose"],
        "expected_exit": 0,
        "why": "smooth full-rank kernel: the decomposition keeps every point, the most verify_linearisation work",
    },
    "gns": {
        "workload": "semigroup",
        "construction": "gns_instance(cyclic_group(g), phi), phi(u) = sum_j exp(2 pi i j u / g) P_j, P_j >= 0",
        "tasks": ["validate", "represent"],
        "expected_exit": 0,
        "why": "small input, output heavy on matrices; loads build_representation and repkernel",
    },
    "semigroup_map": {
        "workload": "semigroup",
        "construction": "gram_semigroup_map(cyclic_group(g), left_regular_star_rep, B), B seeded (q, g, d)",
        "tasks": ["lift", "represent", "factorize"],
        "expected_exit": 0,
        "why": "the CLI lifts, decomposes and represents this once per task, so duplicate work shows",
    },
    "transposed_gram": {
        "workload": "kernel",
        "construction": "entrywise transpose of random_block_psd_kernel: block-positive, not block-PSD",
        "tasks": ["validate", "check-positivity"],
        "expected_exit": 2,
        "why": "the falsifier search runs all restarts and ends undetermined",
    },
    "operator_right_mult": {
        "workload": "kernel",
        "construction": "operator kernel on matrix_module(d, kcols): right multiplication by G(y)* G(x)",
        "tasks": ["lift", "check-positivity"],
        "expected_exit": 2,
        "why": "the lift runs adjoint_solve for every point pair; the lifted kernel is undetermined",
    },
    "planted_violation": {
        "workload": "kernel",
        "construction": "block-PSD kernel minus c t t* (x) h h*, so that <h, M(t) h> < 0",
        "tasks": ["validate", "check-positivity"],
        "expected_exit": 1,
        "why": "the falsifier must find a product-direction witness, exit 1",
    },
    "every_task": {
        "workload": "both",
        "construction": "gram_semigroup_map(cyclic_group(4), left_regular_star_rep, B), q = 1, d = 1",
        "tasks": ["validate", "lift", "check-positivity", "decompose", "represent", "factorize", "bounds"],
        "expected_exit": 0,
        "why": "one small report per cycle runs every task, so no layer's self time reads 0.0 on every run; "
        "its kernel is positive, so the falsifier never restarts on it",
    },
    "gns_bounds": {
        "workload": "semigroup",
        "construction": "gns_instance(cyclic_group(g), phi) with bounds over a few options.elements, default restarts",
        "tasks": ["bounds"],
        "expected_exit": 0,
        "why": "runs the bound_constant pencil search without any decomposition",
    },
}

# Cycle lists: (family, parameters, copies).  The seed draws the entries;
# every size that sets the cost (m, d, g, q, rank, elements, hence n) is
# fixed here, so that two seeds give the same mix.  Each cycle is sorted by
# report time into a fast group, a band around the median, a band around
# the 90th percentile and, on `kernel`, the three slowest reports.  Each
# band spreads its sizes evenly over about a factor of two in report time,
# with no size in the majority.  On a shared host one report takes either
# its usual time or about 1.5 times that, depending on the host's load;
# if the median band were one size, the median would jump between the two
# as that load moved from run to run.  Report times in the comments are
# from a 2-vCPU x86_64 host.
CYCLES = {
    "full": {
        # 60 reports, about 10 s: median at report 30-31, 90th percentile at 54.
        "kernel": [
            # fast, reports 1-20: 0.01-0.07 s
            ("every_task", {"g": 4, "q": 1, "d": 1}, 1),
            ("block_psd", {"m": 16, "d": 1, "rank": 8}, 2),
            ("block_psd", {"m": 16, "d": 2, "rank": 4}, 2),
            ("gaussian", {"m": 16, "d": 1}, 2),
            ("gaussian", {"m": 16, "d": 2}, 2),
            ("transposed_gram", {"m": 16, "d": 2, "rank": 4}, 2),
            ("transposed_gram", {"m": 16, "d": 4, "rank": 2}, 2),
            ("operator_right_mult", {"m": 4, "d": 2, "kcols": 2}, 2),
            ("gaussian", {"m": 32, "d": 1}, 2),
            ("block_psd", {"m": 32, "d": 2, "rank": 8}, 2),
            ("block_psd", {"m": 64, "d": 1, "rank": 16}, 1),
            # median band, reports 21-40: 0.08-0.16 s
            ("transposed_gram", {"m": 32, "d": 2, "rank": 8}, 2),
            ("operator_right_mult", {"m": 6, "d": 2, "kcols": 2}, 2),
            ("operator_right_mult", {"m": 7, "d": 2, "kcols": 2}, 2),
            ("transposed_gram", {"m": 32, "d": 4, "rank": 8}, 2),
            ("gaussian", {"m": 32, "d": 2}, 4),
            ("block_psd", {"m": 32, "d": 2, "rank": 16}, 2),
            ("operator_right_mult", {"m": 8, "d": 2, "kcols": 2}, 2),
            ("block_psd", {"m": 32, "d": 4, "rank": 4}, 2),
            ("transposed_gram", {"m": 32, "d": 4, "rank": 4}, 2),
            # 90th-percentile band, reports 41-57: 0.2-0.45 s
            ("operator_right_mult", {"m": 10, "d": 2, "kcols": 2}, 3),
            ("block_psd", {"m": 64, "d": 2, "rank": 16}, 3),
            ("gaussian", {"m": 64, "d": 1}, 4),
            ("transposed_gram", {"m": 64, "d": 2, "rank": 16}, 4),
            ("gaussian", {"m": 32, "d": 4}, 3),
            # slowest, reports 58-60: 0.6-0.9 s
            ("planted_violation", {"m": 32, "d": 2, "rank": 8}, 1),
            ("transposed_gram", {"m": 64, "d": 4, "rank": 8}, 1),
            ("block_psd", {"m": 64, "d": 4, "rank": 8}, 1),
        ],
        # 50 reports, about 9 s: median at report 25-26, 90th percentile at 45.
        "semigroup": [
            # fast, reports 1-16: 0.01-0.09 s
            ("every_task", {"g": 4, "q": 1, "d": 1}, 1),
            ("gns", {"g": 8, "d": 1}, 2),
            ("gns", {"g": 8, "d": 2}, 2),
            ("semigroup_map", {"g": 8, "q": 1, "d": 1}, 2),
            ("gns", {"g": 16, "d": 1}, 2),
            ("gns", {"g": 16, "d": 2}, 2),
            ("gns_bounds", {"g": 8, "d": 1, "elements": 2}, 1),
            ("gns_bounds", {"g": 16, "d": 1, "elements": 2}, 2),
            ("gns_bounds", {"g": 32, "d": 1, "elements": 1}, 1),
            ("gns_bounds", {"g": 32, "d": 2, "elements": 1}, 1),
            # median band, reports 17-34: 0.1-0.2 s
            ("semigroup_map", {"g": 8, "q": 2, "d": 2}, 2),
            ("semigroup_map", {"g": 16, "q": 1, "d": 1}, 2),
            ("semigroup_map", {"g": 16, "q": 2, "d": 1}, 2),
            ("gns", {"g": 32, "d": 1}, 2),
            ("gns_bounds", {"g": 32, "d": 1, "elements": 2}, 2),
            ("gns_bounds", {"g": 32, "d": 2, "elements": 2}, 2),
            ("semigroup_map", {"g": 16, "q": 1, "d": 2}, 2),
            ("gns_bounds", {"g": 32, "d": 1, "elements": 3}, 2),
            ("gns", {"g": 32, "d": 2}, 2),
            # 90th-percentile band, reports 35-50: 0.2-0.5 s
            ("gns", {"g": 32, "d": 2}, 4),
            ("semigroup_map", {"g": 20, "q": 1, "d": 1}, 3),
            ("semigroup_map", {"g": 16, "q": 1, "d": 3}, 3),
            ("gns_bounds", {"g": 32, "d": 2, "elements": 3}, 3),
            ("semigroup_map", {"g": 12, "q": 2, "d": 2}, 3),
        ],
    },
    "tiny": {
        "kernel": [
            ("every_task", {"g": 2, "q": 1, "d": 1}, 1),
            ("block_psd", {"m": 4, "d": 2, "rank": 1}, 1),
            ("gaussian", {"m": 4, "d": 1}, 1),
            ("transposed_gram", {"m": 4, "d": 2, "rank": 2}, 1),
            ("operator_right_mult", {"m": 2, "d": 2, "kcols": 1}, 1),
            ("planted_violation", {"m": 4, "d": 2, "rank": 2}, 1),
        ],
        "semigroup": [
            ("gns", {"g": 4, "d": 1}, 1),
            ("semigroup_map", {"g": 2, "q": 1, "d": 1}, 1),
            ("gns_bounds", {"g": 4, "d": 1, "elements": 2}, 1),
        ],
    },
}

WORKLOADS = tuple(CYCLES["full"])


def wire(a) -> list:
    """Complex array to the CLI's wire format: ``[re, im]`` pairs, row-major."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def _space(d: int) -> dict:
    return {"kind": "scalar", "dim": 1} if d == 1 else {"kind": "hermitian", "dim": d}


def _kernel_problem(table: np.ndarray, tasks) -> dict:
    d = table.shape[2]
    return {
        "space": _space(d),
        "kernel": {"m": table.shape[0], "table": wire(table)},
        "tasks": list(tasks),
    }


def _psd(rng, d: int, rank: int) -> np.ndarray:
    Q = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return Q @ Q.conj().T / rank


def _gns_phi(rng, g: int, d: int) -> np.ndarray:
    """Positive-type phi on Z_g with weights of eigenvalues at least 1/2 on half the characters.

    The weights' spectra are kept away from 0 so that the numerical rank is
    never near the cut, as with the Gaussian kernels.
    """
    u = np.arange(g)
    phi = np.zeros((g, d, d), dtype=complex)
    for j in rng.choice(g, size=max(1, g // 2), replace=False):
        weight = 0.5 * (np.eye(d) + _psd(rng, d, d) / d)
        phi += np.exp(2j * np.pi * j * u / g)[:, None, None] * weight
    return phi


def build(family: str, params: dict, rng) -> dict:
    """One problem object for ``family`` at ``params``, drawn from ``rng``."""
    tasks = FAMILIES[family]["tasks"]
    if family in ("block_psd", "transposed_gram", "planted_violation"):
        m, d = params["m"], params["d"]
        seed = int(rng.integers(2**31))
        table = np.array(random_block_psd_kernel(m, d, params["rank"], seed).table)
        if family == "transposed_gram":
            table = table.transpose(0, 1, 3, 2)
        if family == "planted_violation":
            t = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            t /= np.linalg.norm(t)
            h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            h /= np.linalg.norm(h)
            value = np.real(np.einsum("a,k,j,kjab,b->", h.conj(), t.conj(), t, table, h, optimize=True))
            c = value + 0.5 + 0.5 * rng.random()
            table = table - c * np.einsum("k,j,a,b->kjab", t, t.conj(), h, h.conj())
        return _kernel_problem(table, tasks)
    if family == "gaussian":
        m, d = params["m"], params["d"]
        # Full numerical rank at the CLI's rank tolerance; README.md says why
        # wider kernels, which are cut, are not in this workload.
        x = (np.arange(m) + 0.5 + 0.5 * (rng.random(m) - 0.5)) / m
        width = (1.0 + 0.3 * rng.random()) / m
        g = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2 * width**2))
        P = _psd(rng, d, d)
        P /= np.linalg.norm(P, 2)
        return _kernel_problem(g[:, :, None, None] * P, tasks)
    if family in ("gns", "gns_bounds"):
        g, d = params["g"], params["d"]
        S = cyclic_group(g)
        inst = gns_instance(S, _gns_phi(rng, g, d))
        prob = _kernel_problem(np.array(inst.kernel.table), tasks)
        prob["semigroup"] = {"size": g, "mult": S.mult.tolist(), "inv": S.inv.tolist(), "unit": 0}
        prob["action"] = {"table": inst.action.table.tolist(), "unital": True}
        if family == "gns_bounds":
            elements = rng.choice(np.arange(1, g), size=params["elements"], replace=False)
            prob["options"] = {"elements": sorted(int(a) for a in elements)}
        return prob
    if family in ("semigroup_map", "every_task"):
        g, q, d = params["g"], params["q"], params["d"]
        S = cyclic_group(g)
        B = rng.standard_normal((q, g, d)) + 1j * rng.standard_normal((q, g, d))
        T = gram_semigroup_map(S, left_regular_star_rep(S), B)
        prob = {
            "space": _space(d),
            "semigroup": {"size": g, "mult": S.mult.tolist(), "inv": S.inv.tolist(), "unit": 0},
            "semigroup_map": {"q": q, "space": _space(d), "tensors": wire(T.tensors)},
            "tasks": list(tasks),
        }
        if family == "every_task":
            prob["options"] = {"elements": [1]}
        return prob
    if family == "operator_right_mult":
        m, d, kcols = params["m"], params["d"], params["kcols"]
        H = matrix_module(d, kcols)
        G = rng.standard_normal((m, 2, kcols)) + 1j * rng.standard_normal((m, 2, kcols))
        ops = np.array(
            [[right_multiplication(H, G[y].conj().T @ G[x]) for y in range(m)] for x in range(m)]
        )
        return {
            "space": _space(d),
            "operator_kernel": {
                "module": {"kind": "matrix_module", "d": d, "kcols": kcols},
                "table": wire(ops),
            },
            "tasks": list(tasks),
        }
    raise ValueError(f"unknown family {family!r}")


def generate(workload: str, seed: int, out_dir: str, size: str = "full") -> list[dict]:
    """Write the workload's cycle list into ``out_dir``; return the manifest entries."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for family, params, copies in CYCLES[size][workload]:
        for _ in range(copies):
            path = os.path.join(out_dir, f"p{len(entries):03d}_{family}.json")
            with open(path, "w") as fh:
                json.dump(build(family, params, rng), fh)
            entries.append(
                {"file": os.path.basename(path), "family": family, "params": params,
                 "expected_exit": FAMILIES[family]["expected_exit"]}
            )
    # Interleave size classes so that no stretch of the loop is all large.
    order = np.random.default_rng([seed, 99]).permutation(len(entries))
    entries = [entries[i] for i in order]
    manifest = {"workload": workload, "seed": seed, "size": size, "problems": entries,
                "families": {f: v for f, v in FAMILIES.items() if v["workload"] in (workload, "both")}}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return entries


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--size", choices=tuple(CYCLES), default="full")
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
