"""Outside re-verification of one `wpsd all` report against its raw problem file.

Nothing here calls into ``wpsd``: the raw table (and the lift of an operator
kernel or semigroup map) is rebuilt from the problem file with this file's
own numpy code, and every certificate in the report is checked against it.
Each check yields a defect and the tolerance it is held to; a report's
accuracy is ``min -log10(max(defect, eps * scale) / tolerance)`` over its
checks, ``scale`` being 1 plus the largest operator norm among the raw
table's entries.
"""

from __future__ import annotations

import json
import math

import numpy as np

REPORT_TOL = 1e-8  # the CLI's default report tolerance; fixtures do not override it
STRUCTURAL_TOL = 1e-9  # the CLI's default structural tolerance, relative to scale
EPS = float(np.finfo(float).eps)
STATUS_BY_EXIT = {0: "pass", 1: "violation", 2: "undetermined"}
VERDICT_BY_EXIT = {0: "certified_positive", 1: "certified_not_positive", 2: "undetermined"}


class VerificationError(Exception):
    """The report disagrees with the raw problem."""


def cplx(wire) -> np.ndarray:
    """Wire format (``[re, im]`` pairs as innermost lists) to a complex array."""
    a = np.asarray(wire, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _require(cond: bool, what: str):
    if not cond:
        raise VerificationError(what)


class RawProblem:
    """The raw problem file, lifted to a kernel table by independent code."""

    def __init__(self, path: str):
        with open(path) as fh:
            obj = json.load(fh)
        self.tasks = obj["tasks"]
        self.options = obj.get("options", {})
        self.mult = self.inv = self.unit = self.action = self.tensors = None
        if "semigroup" in obj:
            self.mult = np.asarray(obj["semigroup"]["mult"])
            self.inv = np.asarray(obj["semigroup"]["inv"])
            self.unit = obj["semigroup"].get("unit")
        if "kernel" in obj:
            self.table = cplx(obj["kernel"]["table"])
            if "action" in obj:
                self.action = np.asarray(obj["action"]["table"])
        elif "semigroup_map" in obj:
            self.tensors = cplx(obj["semigroup_map"]["tensors"])  # (g, q, q, d, d)
            g, q, _, d, _ = self.tensors.shape
            star_prod = self.mult[self.inv]  # star_prod[s, t] = s* t
            lifted = self.tensors[star_prod].transpose(0, 2, 1, 3, 4, 5)
            self.table = lifted.reshape(g * q, g * q, d, d)
            self.action = (self.mult[:, :, None] * q + np.arange(q)).reshape(g, g * q)
        else:
            self.table = _lift_matrix_module(obj["operator_kernel"])
        self.m, self.d = self.table.shape[0], self.table.shape[2]
        norms = np.linalg.svd(self.table, compute_uv=False) if self.m else np.zeros(1)
        self.scale = 1.0 + float(norms.max())
        self.block = self.table.transpose(0, 2, 1, 3).reshape(self.m * self.d, -1)


def _lift_matrix_module(obj) -> np.ndarray:
    """Lift of right-acting operators on ``d x kcols`` matrices with ``[A, B] = B A*``.

    Entry ``((x, i), (y, j))`` is ``[l(y, x) b_i, b_j] = b_j (l(y, x) b_i)*``
    with ``b_i`` the matrix units in row-major order.
    """
    module = obj["module"]
    _require(module["kind"] == "matrix_module", "only matrix_module fixtures are generated")
    d, kcols = module["d"], module["kcols"]
    ops = cplx(obj["table"])  # (m, m, dim, dim), coefficient matrices
    m, dim = ops.shape[0], d * kcols
    images = ops.transpose(1, 0, 3, 2).reshape(m, m, dim, d, kcols)  # [x, y, i] = l(y, x) b_i
    units = np.eye(dim).reshape(dim, d, kcols)
    table = np.einsum("jck,xyiek->xiyjce", units, images.conj(), optimize=True)
    return table.reshape(m * dim, m * dim, d, d)


def _pair(G, U, W) -> np.ndarray:
    """Gram pairings ``[U[:, i], W[:, j]]`` as an ``(i, j, d, d)`` array."""
    return np.einsum("ai,bj,abcd->ijcd", U.conj(), W, G, optimize=True)


def _form(table, t, h) -> complex:
    """``<h, M(t) h>`` with ``M(t) = sum conj(t_k) t_j table[k, j]``."""
    return complex(np.einsum("a,k,j,kjab,b->", h.conj(), t.conj(), t, table, h, optimize=True))


class Checks:
    """Collects ``(defect, tolerance)`` pairs and fails on the first breach."""

    def __init__(self, scale: float):
        self.floor = EPS * scale
        self.digits = math.inf

    def add(self, what: str, defect: float, tol: float = REPORT_TOL):
        _require(defect <= tol, f"{what}: defect {defect:.3e} above {tol:.1e}")
        self.digits = min(self.digits, -math.log10(max(defect, self.floor) / tol))


def _check_decomposition(raw: RawProblem, dec: dict, checks: Checks):
    V = cplx(dec["V"]).reshape(raw.m, -1)
    n = V.shape[1]
    _require(dec["n"] == n == len(dec["pivots"]), "decomposition dimension mismatch")
    if n == 0:
        checks.add("linearisation", float(np.abs(raw.table).max()))
        return V, np.zeros((0, 0, raw.d, raw.d))
    G = cplx(dec["gram"])
    p = np.asarray(dec["pivots"])
    checks.add("gram vs raw table at pivots", float(np.abs(G - raw.table[np.ix_(p, p)]).max()))
    rebuilt = _pair(G, V.T, V.T)
    checks.add("linearisation", float(np.abs(rebuilt - raw.table).max()))
    return V, G


def _check_representation(raw: RawProblem, rep: dict, V, G, checks: Checks):
    P = cplx(rep["matrices"]).reshape(raw.mult.shape[0], V.shape[1], V.shape[1])
    if V.shape[1] == 0:
        return P
    mult = max(float(np.abs(P[raw.mult[a]] - P[a] @ P).max()) for a in range(len(P)))
    checks.add("multiplication law", mult)
    eye = np.eye(V.shape[1])
    star = max(
        float(np.abs(_pair(G, P[a], eye) - _pair(G, eye, P[raw.inv[a]])).max())
        for a in range(len(P))
    )
    checks.add("star law", star)
    inter = float(np.abs(P @ V.T - V[raw.action].transpose(0, 2, 1)).max())
    checks.add("intertwining", inter)
    return P


def _check_positivity(raw: RawProblem, out: dict, code: int, checks: Checks):
    thresh = STRUCTURAL_TOL * raw.scale
    weak = out["weak"]
    _require(weak["status"] == VERDICT_BY_EXIT[code], f"weak verdict {weak['status']}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (raw.block + raw.block.conj().T)).min())
    checks.add("strong min eigenvalue", abs(out["strong"]["min_eig"] - min_eig))
    if code == 0:
        _require(min_eig >= -thresh, "certified positive but the block matrix is not PSD")
    elif code == 2:
        _require(weak["witness"] is None, "undetermined verdict carries a witness")
        _require(min_eig < -thresh, "undetermined although the block matrix is PSD")
    else:
        w = weak["witness"]
        _require(w is not None and w["kind"] == "negative", "violation without a negative witness")
        value = _form(raw.table, cplx(w["t"]), cplx(w["h"]))
        _require(value.real < -thresh / 2, f"witness form {value.real:.3e} is not negative")
        checks.add("witness value", abs(value.real - w["value"]))


def _check_bounds(raw: RawProblem, out: dict, checks: Checks):
    # Fixtures are invariant kernels of groups acting by translation, so
    # every domination constant is exactly 1.
    elements = raw.options.get("elements", list(range(raw.mult.shape[0])))
    _require([b["element"] for b in out["bounds"]] == elements, "bounds for the wrong elements")
    for b in out["bounds"]:
        act = raw.action[b["element"]]
        t, h = cplx(b["witness"]["t"]), cplx(b["witness"]["h"])
        ratio = _form(raw.table[np.ix_(act, act)], t, h).real / _form(raw.table, t, h).real
        checks.add("witness ratio", abs(math.sqrt(max(ratio, 0.0)) - b["lower"]))
        checks.add("upper bound", abs(b["upper"] - 1.0))
        checks.add("lower bound", abs(b["lower"] - 1.0))


def verify_report(raw: RawProblem, report_path: str, code: int, expected: int) -> float:
    """Check one report; return its accuracy in decades or raise VerificationError."""
    _require(code == expected, f"exit {code}, expected {expected}")
    with open(report_path) as fh:
        report = json.load(fh)
    _require(report["status"] == STATUS_BY_EXIT[code], f"status {report['status']!r}")
    _require(sorted(report["tasks"]) == sorted(raw.tasks), "report tasks differ from the problem's")
    checks = Checks(raw.scale)
    for name, out in report["tasks"].items():
        task_code = out["exit"]
        _require(task_code == (code if name == "check-positivity" else 0), f"{name} exit {task_code}")
        if name == "validate":
            _require(out["violations"] == [], f"validate violations {out['violations']}")
            _require(out.get("invariance_violations", []) == [], "kernel reported not invariant")
            herm = float(np.abs(raw.table - raw.table.conj().transpose(1, 0, 3, 2)).max())
            checks.add("hermitian defect", abs(out["hermitian_defect"] - herm))
        elif name == "check-positivity":
            _check_positivity(raw, out, task_code, checks)
        elif name == "decompose":
            _check_decomposition(raw, out["decomposition"], checks)
        elif name == "represent":
            V, G = _check_decomposition(raw, out["decomposition"], checks)
            _check_representation(raw, out["representation"], V, G, checks)
        elif name == "factorize":
            V, G = _check_decomposition(raw, out["decomposition"], checks)
            P = _check_representation(raw, out["representation"], V, G, checks)
            q = raw.tensors.shape[1]
            A = V[raw.unit * q : (raw.unit + 1) * q].T
            lhs = np.einsum("aj,tbi,abcd->tjicd", A.conj(), P @ A, G, optimize=True)
            checks.add("factorization", float(np.abs(lhs - raw.tensors).max()))
        elif name == "lift":
            _require(out["invariance_violations"] == [], "lifted kernel reported not invariant")
            checks.add("lifted table", float(np.abs(cplx(out["lifted"]["table"]) - raw.table).max()))
        elif name == "bounds":
            _check_bounds(raw, out, checks)
        else:
            raise VerificationError(f"unexpected task {name!r}")
    return checks.digits
