"""JSON wire formats: complex numbers as [re, im] pairs, matrices row-major."""

from __future__ import annotations

import numpy as np

from .algebra import Action, StarSemigroup
from .errors import SchemaError
from .kernels import Kernel, PositivityVerdict, Witness
from .lifts import LiftedKernel, SemigroupMapT, VEModuleH, hilbert_module, matrix_module
from .zspace import ZSpaceDescriptor


def carray_to_json(a) -> list:
    """Nested lists of the array's shape with ``[re, im]`` pairs as leaves."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def int_from_json(v, name: str) -> int:
    """A JSON integer; floats, strings and booleans are rejected."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{name} must be an integer, got {v!r}")
    return v


def index_table_from_json(v, ndim: int, name: str) -> np.ndarray:
    """A rectangular ``ndim``-d table of integers."""
    try:
        t = np.asarray(v)
    except ValueError as exc:
        raise SchemaError(f"{name} is not a rectangular table") from exc
    if t.ndim != ndim or (t.size and not np.issubdtype(t.dtype, np.integer)):
        raise SchemaError(f"{name} must be a {ndim}-d table of integers")
    return t.astype(np.int64)


def check_indices(t: np.ndarray, bound: int, name: str):
    """Raise ``SchemaError`` unless every entry of ``t`` lies in ``0..bound-1``."""
    if t.size and (t.min() < 0 or t.max() >= bound):
        raise SchemaError(f"{name} entries out of range 0..{bound - 1}")


def _rows(v, name: str) -> list:
    if not isinstance(v, list) or not all(isinstance(r, list) for r in v):
        raise SchemaError(f"{name} must be a list of rows")
    return v


def complex_from_json(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise SchemaError(f"complex number must be a [re, im] pair, got {v!r}")
    return complex(float(v[0]), float(v[1]))


def cmatrix_to_json(a: np.ndarray) -> list:
    return carray_to_json(np.atleast_2d(a))


def cmatrix_from_json(rows, shape=None) -> np.ndarray:
    try:
        a = np.array([[complex_from_json(x) for x in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed complex matrix: {exc}") from exc
    if a.ndim != 2:
        raise SchemaError("matrix must be a list of rows")
    if shape is not None and a.shape != shape:
        raise SchemaError(f"matrix shape {a.shape} != expected {shape}")
    return a


def cvector_to_json(v: np.ndarray) -> list:
    return carray_to_json(np.ravel(v))


def space_to_json(space: ZSpaceDescriptor) -> dict:
    return {"kind": space.kind, "dim": space.dim, "tolerance": space.tolerance}


def space_from_json(obj) -> ZSpaceDescriptor:
    if not isinstance(obj, dict):
        raise SchemaError("space must be an object")
    tol = obj.get("tolerance", 1e-9)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not np.isfinite(tol):
        raise SchemaError(f"space tolerance must be a finite number, got {tol!r}")
    return ZSpaceDescriptor(
        obj.get("kind", "scalar"), int_from_json(obj.get("dim", 1), "space dim"), float(tol)
    )


def kernel_to_json(k: Kernel) -> dict:
    return {
        "space": space_to_json(k.space),
        "m": k.m,
        "table": carray_to_json(k.table),
    }


def kernel_from_json(obj, space: ZSpaceDescriptor | None = None) -> Kernel:
    if not isinstance(obj, dict) or "table" not in obj:
        raise SchemaError("kernel must be an object with a 'table' field")
    if space is None:
        space = space_from_json(obj.get("space", {}))
    rows = _rows(obj["table"], "kernel table")
    m = len(rows)
    if obj.get("m", m) != m or any(len(r) != m for r in rows):
        raise SchemaError("kernel table is not m x m")
    d = space.dim
    table = np.zeros((m, m, d, d), dtype=complex)
    for x in range(m):
        for y in range(m):
            table[x, y] = cmatrix_from_json(rows[x][y], (d, d))
    return Kernel(space, table)


def semigroup_to_json(S: StarSemigroup) -> dict:
    return {
        "size": S.size,
        "mult": S.mult.tolist(),
        "inv": S.inv.tolist(),
        "unit": None if S.unit is None else int(S.unit),
    }


def semigroup_from_json(obj) -> StarSemigroup:
    if not isinstance(obj, dict) or "mult" not in obj or "inv" not in obj:
        raise SchemaError("semigroup must be an object with 'mult' and 'inv'")
    mult = index_table_from_json(obj["mult"], 2, "semigroup mult")
    inv = index_table_from_json(obj["inv"], 1, "semigroup inv")
    g = mult.shape[0]
    check_indices(mult, g, "semigroup mult")
    check_indices(inv, g, "semigroup inv")
    unit = obj.get("unit")
    return StarSemigroup(mult, inv, None if unit is None else int_from_json(unit, "unit"))


def action_to_json(A: Action) -> dict:
    return {"table": A.table.tolist(), "unital": bool(A.unital)}


def action_from_json(obj) -> Action:
    if not isinstance(obj, dict) or "table" not in obj:
        raise SchemaError("action must be an object with a 'table'")
    table = index_table_from_json(obj["table"], 2, "action table")
    return Action(table, bool(obj.get("unital", True)))


def witness_to_json(w: Witness | None):
    if w is None:
        return None
    return {
        "t": cvector_to_json(w.t),
        "h": cvector_to_json(w.h),
        "value": float(w.value),
        "kind": w.kind,
    }


def verdict_to_json(v: PositivityVerdict) -> dict:
    return {
        "status": v.status,
        "method": v.method,
        "witness": witness_to_json(v.witness),
        "best_found": float(v.best_found),
        "diagnostics": {k: _plain(x) for k, x in v.diagnostics.items()},
    }


def decomposition_to_json(dec) -> dict:
    G = dec.space.gram
    return {
        "n": dec.n,
        "pivots": list(dec.space.pivots),
        "gram": carray_to_json(G.blocks),
        "V": cmatrix_to_json(dec.V),
        "residual": float(dec.residual),
        "diagnostics": {k: _plain(x) for k, x in dec.diagnostics.items()},
    }


def representation_to_json(rep) -> dict:
    return {
        "matrices": carray_to_json(rep.matrices),
        "mult_defect": float(rep.mult_defect),
        "star_defect": float(rep.star_defect),
        "intertwine_defect": float(rep.intertwine_defect),
        "diagnostics": {k: _plain(x) for k, x in rep.diagnostics.items()},
    }


def bound_to_json(b) -> dict:
    return {
        "element": b.element,
        "lower": float(b.lower),
        "upper": float(b.upper),
        "seminorms": {"p": b.p, "q": b.q},
        "witness": None
        if b.witness_t is None
        else {"t": cvector_to_json(b.witness_t), "h": cvector_to_json(b.witness_h)},
        "diagnostics": {k: _plain(x) for k, x in b.diagnostics.items()},
    }


def module_to_json(H: VEModuleH) -> dict:
    if H.kind == "hilbert":
        return {"kind": "hilbert", "r": H.r}
    return {"kind": "matrix_module", "d": H.d, "kcols": H.kcols}


def module_from_json(obj) -> VEModuleH:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("module must be an object with a 'kind'")
    if obj["kind"] == "hilbert":
        return hilbert_module(int_from_json(obj.get("r"), "module r"))
    if obj["kind"] == "matrix_module":
        return matrix_module(
            int_from_json(obj.get("d"), "module d"), int_from_json(obj.get("kcols"), "module kcols")
        )
    raise SchemaError(f"unknown module kind {obj['kind']!r}")


def operator_kernel_from_json(obj):
    """Parse ``{"module": ..., "table": [[matrix]]}`` into ``(H, l)``."""
    if not isinstance(obj, dict) or "module" not in obj or "table" not in obj:
        raise SchemaError("operator kernel needs 'module' and 'table'")
    H = module_from_json(obj["module"])
    rows = _rows(obj["table"], "operator table")
    m = len(rows)
    l = np.zeros((m, m, H.dim, H.dim), dtype=complex)
    for x in range(m):
        if len(rows[x]) != m:
            raise SchemaError("operator table is not square")
        for y in range(m):
            l[x, y] = cmatrix_from_json(rows[x][y], (H.dim, H.dim))
    return H, l


def semigroup_map_to_json(T: SemigroupMapT) -> dict:
    return {
        "q": T.q,
        "space": space_to_json(T.space),
        "tensors": carray_to_json(T.tensors),
    }


def semigroup_map_from_json(obj) -> SemigroupMapT:
    if not isinstance(obj, dict) or "tensors" not in obj:
        raise SchemaError("semigroup map needs a 'tensors' field")
    space = space_from_json(obj.get("space", {}))
    raw = obj["tensors"]
    if not isinstance(raw, list):
        raise SchemaError("tensors must be a list with one q x q table per element")
    g = len(raw)
    per_element = [_rows(r, "tensors of one element") for r in raw]
    q = int_from_json(obj.get("q", 0), "q") or (len(per_element[0]) if g else 0)
    d = space.dim
    tensors = np.zeros((g, q, q, d, d), dtype=complex)
    for s in range(g):
        if len(per_element[s]) != q or any(len(r) != q for r in per_element[s]):
            raise SchemaError("tensors are not q x q per element")
        for i in range(q):
            for j in range(q):
                tensors[s, i, j] = cmatrix_from_json(raw[s][i][j], (d, d))
    return SemigroupMapT(space, tensors)


def lifted_to_json(lk: LiftedKernel) -> dict:
    out = kernel_to_json(lk.kernel)
    out["legend"] = [list(pair) for pair in lk.legend]
    if lk.action is not None:
        out["action"] = action_to_json(lk.action)
    return out


def _plain(x):
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    return x
