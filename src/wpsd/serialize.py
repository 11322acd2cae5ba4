"""JSON wire formats: complex numbers as [re, im] pairs, matrices row-major."""

from __future__ import annotations

import json

import numpy as np

from .algebra import Action, StarSemigroup
from .errors import SchemaError
from .kernels import Kernel, PositivityVerdict, Witness
from .lifts import LiftedKernel, SemigroupMapT, VEModuleH, hilbert_module, matrix_module
from .zspace import ZSpaceDescriptor


def _pairs(a) -> np.ndarray:
    """Float array of the complex array's shape with an ``[re, im]`` axis last."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1)


def carray_to_json(a) -> list:
    """Nested lists of the array's shape with ``[re, im]`` pairs as leaves."""
    return _pairs(a).tolist()


def carray_from_json(v, shape: tuple, name: str) -> np.ndarray:
    """Inverse of :func:`carray_to_json`: a finite complex array of ``shape``.

    An empty list stands for any array with no entries.  Leaves must be
    JSON numbers: a string, a ``null`` or a table of booleans is refused.
    A boolean among numbers is still read as 0 or 1, as numpy reads it,
    unless the table also holds an integer beyond int64, which is read as
    a float.
    """
    try:
        a = np.asarray(v)
    except ValueError as exc:
        raise SchemaError(f"{name} is not a rectangular table of [re, im] pairs") from exc
    # Big integers, nulls and mixed leaves make an object array.
    leaves = a.flat if a.dtype == object else ()
    if a.dtype.kind in "USb" or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in leaves):
        raise SchemaError(f"{name} is not a table of numbers")
    try:
        a = a.astype(float, copy=False)
    except OverflowError as exc:
        raise SchemaError(f"{name} has entries beyond the largest float") from exc
    if a.size == 0 and 0 in shape:
        try:
            return np.zeros(shape, dtype=complex)
        except ValueError as exc:  # the other axes alone overflow numpy's size count
            raise SchemaError(f"{name}: an empty table of shape {shape} is too large") from exc
    if a.shape != (*shape, 2):
        raise SchemaError(f"{name} must have shape {shape} of [re, im] pairs, got {a.shape[:-1]}")
    if not np.all(np.isfinite(a)):
        raise SchemaError(f"{name} has non-finite entries")
    return a.view(complex)[..., 0]


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


def _table_size(v, name: str) -> int:
    """Length of the leading axis of a JSON table."""
    if not isinstance(v, list):
        raise SchemaError(f"{name} must be a list")
    return len(v)


def space_to_json(space: ZSpaceDescriptor) -> dict:
    return {"kind": space.kind, "dim": space.dim}


def space_from_json(obj) -> ZSpaceDescriptor:
    if not isinstance(obj, dict):
        raise SchemaError("space must be an object")
    if "tolerance" in obj:
        raise SchemaError("space.tolerance is not read; set options.tolerances.structural instead")
    return ZSpaceDescriptor(obj.get("kind", "scalar"), int_from_json(obj.get("dim", 1), "space dim"))


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
    m = _table_size(obj["table"], "kernel table")
    if obj.get("m", m) != m:
        raise SchemaError("kernel table is not m x m")
    d = space.dim
    return Kernel(space, carray_from_json(obj["table"], (m, m, d, d), "kernel table"))


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
        "t": _pairs(np.ravel(w.t)),
        "h": _pairs(np.ravel(w.h)),
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
    return {
        "n": dec.n,
        "pivots": np.array(dec.pivots, dtype=np.int64),
        "gram": _pairs(dec.gram.table),
        "V": _pairs(np.atleast_2d(dec.V)),
        "residual": float(dec.residual),
        "diagnostics": {k: _plain(x) for k, x in dec.diagnostics.items()},
    }


def representation_to_json(rep) -> dict:
    return {
        "matrices": _pairs(rep.matrices),
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
        "witness": None
        if b.witness_t is None
        else {"t": _pairs(np.ravel(b.witness_t)), "h": _pairs(np.ravel(b.witness_h))},
        "diagnostics": {k: _plain(x) for k, x in b.diagnostics.items()},
    }


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
    m = _table_size(obj["table"], "operator table")
    # An empty table is kept without the module's axes: for a large module no
    # empty array of shape (0, 0, dim, dim) fits numpy's size count.
    shape = (m, m, H.dim, H.dim) if m else (0, 0, 0, 0)
    return H, carray_from_json(obj["table"], shape, "operator table")


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
    g = _table_size(raw, "tensors")
    q = int_from_json(obj.get("q", 0), "q")
    if q < 0:
        raise SchemaError(f"q must be >= 0, got {q}")
    if q == 0 and g:
        q = _table_size(raw[0], "tensors of one element")
    d = space.dim
    return SemigroupMapT(space, carray_from_json(raw, (g, q, q, d, d), "tensors"))


def lifted_to_json(lk: LiftedKernel) -> dict:
    k = lk.kernel
    out = {
        "space": space_to_json(k.space),
        "m": k.m,
        "table": _pairs(k.table),
        "legend": np.array(lk.legend, dtype=np.int64).reshape(-1, 2),
    }
    if lk.action is not None:
        out["action"] = {"table": lk.action.table, "unital": bool(lk.action.unital)}
    return out


def _plain(x):
    """The Python scalar of a numpy scalar; anything else as it is."""
    return x.item() if isinstance(x, np.generic) else x


_compact = json.JSONEncoder(sort_keys=True, separators=(",", ": ")).encode


def _leaf_texts(arrays) -> dict:
    """The text of every leaf of each array, by the array's ``id``, in ``reshape(-1)`` order.

    The arrays are grouped by dtype, and one ``np.unique`` per group finds
    its distinct values, so each is formatted once with the C encoder.
    Values are told apart by their bits and their dtype, so ``-0.0`` and
    ``0.0`` stay apart, NaN needs no comparison, and an integer never takes
    the text of a float with the same bits.
    """
    groups: dict = {}
    for a in {id(a): a for a in arrays if a.size}.values():
        groups.setdefault(a.dtype, []).append(a)
    out = {}
    for dtype, group in groups.items():
        flat = np.concatenate([a.reshape(-1) for a in group])
        bits, inverse = np.unique(flat.view(f"u{dtype.itemsize}"), return_inverse=True)
        values = np.array(_compact(bits.view(dtype).tolist())[1:-1].split(","), dtype=object)
        texts = values[inverse]
        for a, stop in zip(group, np.cumsum([a.size for a in group])):
            out[id(a)] = texts[stop - a.size : stop]
    return out


def _array_text(a: np.ndarray, level: int, texts) -> str:
    """``a.tolist()`` as ``json.dumps(..., indent=2)`` writes it at nesting ``level``.

    ``texts`` holds the text of each leaf, in ``reshape(-1)`` order.  After
    a leaf that closes ``k`` axes comes the separator
    ``"]" * k + "," + "[" * k`` in its indented form.
    """
    if a.size == 0:
        return json.dumps(a.tolist(), indent=2).replace("\n", "\n" + "  " * level)
    pads = ["\n" + "  " * (level + j) for j in range(a.ndim + 1)]
    opens = [pads[j] + "[" for j in range(1, a.ndim)]
    shuts = [pads[j] + "]" for j in range(a.ndim - 1, -1, -1)]
    seps = ["".join([*shuts[:k], ",", *opens[a.ndim - 1 - k :], pads[-1]]) for k in range(a.ndim)]
    closed = np.zeros(a.size, dtype=np.intp)  # axes closed after each leaf, the last one aside
    for block in np.cumprod(a.shape[:0:-1]):  # leaves in one row, one matrix, ...
        closed[block - 1 :: block] += 1
    parts = np.empty(2 * a.size + 1, dtype=object)
    parts[0] = "".join(["[", *opens, pads[-1]])
    parts[1::2] = texts
    parts[2::2] = np.array(seps, dtype=object)[closed]
    parts[-1] = "".join(shuts)
    return "".join(parts.tolist())


def report_text(report) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)``, byte for byte, with arrays as lists.

    Every numeric table of a report is an ``np.ndarray`` of floats (``[re,
    im]`` pairs on the last axis) or of integers; :func:`_array_text` writes
    it as its ``tolist()``, and :func:`_leaf_texts` formats each distinct
    value once per report with the C encoder, so every number has the same
    text as ``json.dumps`` gives it.  Report arrays repeat their values:
    each representation matrix holds entries of ``V``, and an invariant
    kernel has one value per element.  Dicts and lists are walked, scalars
    written by the C encoder; an array is written once the walk has met
    every array.  A container met twice at one depth, such as a payload
    shared by two tasks, is written once.  Dict keys must be strings.
    """
    chunks: list = []  # texts, and (array, level) for each array to write
    written: dict = {}  # (id(container), level) -> its slice of chunks

    def write(o, level: int):
        if not isinstance(o, (dict, list, tuple, np.ndarray)):
            chunks.append(_compact(o))
            return
        key = (id(o), level)
        if key in written:
            chunks.extend(chunks[written[key]])
            return
        start = len(chunks)
        if isinstance(o, np.ndarray):
            chunks.append((o, level))
        elif not o:
            chunks.append("{}" if isinstance(o, dict) else "[]")
        elif isinstance(o, dict):
            key_text = json.encoder.encode_basestring_ascii
            walk("{", ((key_text(k) + ": ", v) for k, v in sorted(o.items())), "}", level)
        else:
            walk("[", (("", v) for v in o), "]", level)
        written[key] = slice(start, len(chunks))

    def walk(opening: str, items, closing: str, level: int):
        pad = "\n" + "  " * (level + 1)
        sep = opening + pad
        for prefix, v in items:
            chunks.append(sep + prefix)
            write(v, level + 1)
            sep = "," + pad
        chunks.append("\n" + "  " * level + closing)

    write(report, 0)
    texts = _leaf_texts([c[0] for c in chunks if isinstance(c, tuple)])
    arrays: dict = {}  # (id(array), level) -> its text
    for i, c in enumerate(chunks):
        if isinstance(c, tuple):
            a, level = c
            key = (id(a), level)
            if key not in arrays:
                arrays[key] = _array_text(a, level, texts.get(id(a)))
            chunks[i] = arrays[key]
    return "".join(chunks)
