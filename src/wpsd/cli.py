"""Command-line entry point: problem files in, exit-coded report files out.

Exit codes: 0 all checks pass, 1 a property is violated, 2 the verdict is
undetermined, 3 malformed input or a module-level error.  No report is
written on exit 3.

With ``--no-timestamp`` identical inputs give identical report bytes at a
fixed BLAS thread count; between thread counts the low-order digits of
some values can differ (at about 1e-16), though no exit code does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

from . import serialize as sz
from .algebra import validate_action, validate_semigroup
from .dilation import (
    bound_constant,
    build_kolmogorov,
    build_representation,
    verify_linearisation,
)
from .errors import SchemaError, WpsdError
from .kernels import (
    METHOD_BLOCK_PSD,
    STATUS_NOT_POSITIVE,
    STATUS_POSITIVE,
    hermitian_defect_kernel,
    is_hermitian,
    is_invariant,
    strong_positivity,
    weak_positivity,
)
from .lifts import lift_operator_kernel, lift_semigroup_map, verify_factorization
from .repkernel import build_rk, verify_reproducing  # noqa: F401  perfbench/tracer.py wraps it by name
from .zspace import Tolerances

COMMANDS = (
    "validate",
    "check-positivity",
    "decompose",
    "represent",
    "bounds",
    "lift",
    "factorize",
    "all",
)


@dataclass
class Problem:
    space: object
    kernel: object = None
    semigroup: object = None
    action: object = None
    operator_module: object = None
    operator_table: object = None
    semigroup_map: object = None
    tasks: list = field(default_factory=list)
    options: dict = field(default_factory=dict)


def parse_problem(obj) -> Problem:
    if not isinstance(obj, dict):
        raise SchemaError("problem file must be a JSON object")
    space = sz.space_from_json(obj.get("space", {}))
    present = [key for key in ("kernel", "operator_kernel", "semigroup_map") if key in obj]
    if len(present) != 1:
        raise SchemaError(
            f"exactly one of kernel/operator_kernel/semigroup_map required, got {present}"
        )
    p = Problem(space=space)
    if "kernel" in obj:
        p.kernel = sz.kernel_from_json(obj["kernel"], space)
    if "operator_kernel" in obj:
        p.operator_module, p.operator_table = sz.operator_kernel_from_json(obj["operator_kernel"])
    if "semigroup_map" in obj:
        p.semigroup_map = sz.semigroup_map_from_json(obj["semigroup_map"])
    if "semigroup" in obj:
        p.semigroup = sz.semigroup_from_json(obj["semigroup"])
    if "action" in obj:
        p.action = sz.action_from_json(obj["action"])
    tasks = obj.get("tasks", [])
    if not isinstance(tasks, list):
        raise SchemaError("tasks must be a list")
    for t in tasks:
        if t not in COMMANDS or t == "all":
            raise SchemaError(f"unknown task {t!r}")
    p.tasks = tasks
    opts = obj.get("options", {})
    if not isinstance(opts, dict):
        raise SchemaError("options must be an object")
    p.options = opts
    if p.action is not None and p.semigroup_map is None:
        # The action indexes the points of the kernel or operator table it acts on.
        m = p.kernel.m if p.kernel is not None else p.operator_table.shape[0]
        g = p.semigroup.size if p.semigroup is not None else p.action.table.shape[0]
        if p.action.table.shape != (g, m):
            raise SchemaError(f"action table must have shape ({g}, {m}), got {p.action.table.shape}")
        sz.check_indices(p.action.table, m, "action table")
    return p


def _nonnegative_int(v, name: str) -> int:
    v = sz.int_from_json(v, name)
    if v < 0:
        raise SchemaError(f"{name} must be >= 0, got {v}")
    return v


def run_options(p: Problem, seed=None, restarts=None, report_tol=None) -> dict:
    """Seed, restarts and tolerances of a run; arguments given here override the file's."""
    o = p.options
    given = o.get("tolerances", {})
    names = sorted(f.name for f in fields(Tolerances))
    if not isinstance(given, dict) or not set(given) <= set(names):
        raise SchemaError(f"options.tolerances must be an object with keys among {names}")
    tols = Tolerances(**given)
    if report_tol is not None:
        tols = replace(tols, report=report_tol)
    elements = o.get("elements")
    if elements is not None:
        if not isinstance(elements, list):
            raise SchemaError("options.elements must be a list of element indices")
        elements = [sz.int_from_json(a, "options.elements entry") for a in elements]
        if p.semigroup is not None and any(not 0 <= a < p.semigroup.size for a in elements):
            raise SchemaError(f"options.elements out of range 0..{p.semigroup.size - 1}")
    return {
        "seed": _nonnegative_int(o.get("seed", 0) if seed is None else seed, "seed"),
        "restarts": _nonnegative_int(o.get("restarts", 64) if restarts is None else restarts, "restarts"),
        "tolerances": tols,
        "elements": elements,
    }


class Artifacts:
    """The lift, invariance check, decomposition and representation of one problem, each made once.

    Tasks of one run share them, and share the report payloads of the
    decomposition and the representation, so that the report encoder writes
    each payload once.  They are dropped with the object when the run ends.
    """

    def __init__(self, p: Problem, tols: Tolerances):
        self.p = p
        self.tols = tols

    @cached_property
    def lifted(self):
        """``(kernel, action, LiftedKernel or None)``: the kernel every task operates on."""
        p = self.p
        if p.kernel is not None:
            return p.kernel, p.action, None
        if p.semigroup_map is not None:
            if p.semigroup is None:
                raise SchemaError("semigroup_map problems need a 'semigroup' section")
            lk = lift_semigroup_map(p.semigroup_map, p.semigroup)
        else:
            lk = lift_operator_kernel(p.operator_module, p.operator_table, p.action, tols=self.tols)
        return lk.kernel, lk.action, lk

    @cached_property
    def invariance_violations(self) -> list:
        """``is_invariant`` of the lifted kernel under its action."""
        kernel, action, _ = self.lifted
        return is_invariant(kernel, self.p.semigroup, action, tols=self.tols)

    @cached_property
    def decomposition(self):
        return build_kolmogorov(self.lifted[0], tols=self.tols)

    @cached_property
    def representation(self):
        kernel, action, _ = self.lifted
        return build_representation(
            self.decomposition, kernel, self.p.semigroup, action, tols=self.tols,
            violations=self.invariance_violations,
        )

    @cached_property
    def linearisation_defect(self) -> float:
        """``verify_linearisation`` of the decomposition against the lifted kernel."""
        return verify_linearisation(self.decomposition, self.lifted[0])

    @cached_property
    def decomposition_json(self) -> dict:
        return sz.decomposition_to_json(self.decomposition)

    @cached_property
    def representation_json(self) -> dict:
        return sz.representation_to_json(self.representation)


def task_validate(p: Problem, opts, art: Artifacts) -> tuple[dict, int]:
    out: dict = {"violations": []}
    if p.semigroup is not None:
        out["violations"] += validate_semigroup(p.semigroup)
    kernel, action, _ = art.lifted
    if p.semigroup is not None and action is not None:
        out["violations"] += validate_action(p.semigroup, action, kernel.m)
    defect = hermitian_defect_kernel(kernel)
    out["hermitian_defect"] = defect
    if not is_hermitian(kernel, tols=opts["tolerances"]):
        out["violations"].append(f"kernel not Hermitian: defect {defect:.3e}")
    if p.semigroup is not None and action is not None and not out["violations"]:
        inv = art.invariance_violations
        out["invariance_violations"] = [list(v) for v in inv[:16]]
        if inv:
            out["violations"].append(f"kernel not invariant ({len(inv)} triples)")
    return out, (0 if not out["violations"] else 1)


def task_check_positivity(p: Problem, opts, art: Artifacts) -> tuple[dict, int]:
    kernel, _, _ = art.lifted
    verdict = weak_positivity(kernel, restarts=opts["restarts"], seed=opts["seed"], tols=opts["tolerances"])
    # The weak verdict has already formed the block matrix unless it was
    # decided before that (non-Hermitian, empty or scalar kernels); it is
    # block-PSD exactly when that certified it.
    min_eig = verdict.diagnostics.get("block_min_eig")
    if min_eig is None:
        min_eig, psd = strong_positivity(kernel, tols=opts["tolerances"])
    else:
        psd = verdict.method == METHOD_BLOCK_PSD
    out = {"weak": sz.verdict_to_json(verdict), "strong": {"min_eig": min_eig, "is_psd": psd}}
    if verdict.status == STATUS_POSITIVE:
        return out, 0
    if verdict.status == STATUS_NOT_POSITIVE:
        return out, 1
    return out, 2


def task_decompose(p: Problem, opts, art: Artifacts) -> tuple[dict, int]:
    defect = art.linearisation_defect
    out = {"decomposition": art.decomposition_json, "linearisation_defect": defect}
    return out, (0 if defect <= opts["tolerances"].report else 1)


def task_represent(p: Problem, opts, art: Artifacts) -> tuple[dict, int]:
    if p.semigroup is None:
        raise SchemaError("represent needs a 'semigroup' section")
    _, action, _ = art.lifted
    if action is None:
        raise SchemaError("represent needs an 'action' section")
    rep = art.representation
    # The space's functions are realised from the decomposition itself, so
    # ``verify_reproducing``'s realisation term is exactly 0 here and only
    # the linearisation term is left; ``build_rk`` still checks injectivity.
    build_rk(art.decomposition)
    out = {
        "decomposition": art.decomposition_json,
        "representation": art.representation_json,
        "reproducing_defect": art.linearisation_defect,
    }
    worst = max(rep.mult_defect, rep.star_defect, rep.intertwine_defect, out["reproducing_defect"])
    return out, (0 if worst <= opts["tolerances"].report else 1)


def task_bounds(p: Problem, opts, art: Artifacts) -> tuple[dict, int]:
    if p.semigroup is None:
        raise SchemaError("bounds needs a 'semigroup' section")
    kernel, action, _ = art.lifted
    if action is None:
        raise SchemaError("bounds needs an 'action' section")
    elements = opts["elements"]
    out = {"bounds": []}
    ok = True
    for a in range(p.semigroup.size) if elements is None else elements:
        b = bound_constant(
            kernel, p.semigroup, action, a, restarts=opts["restarts"], seed=opts["seed"],
            tols=opts["tolerances"],
        )
        out["bounds"].append(sz.bound_to_json(b))
        ok = ok and b.lower <= b.upper + opts["tolerances"].report
    return out, (0 if ok else 1)


def task_lift(p: Problem, opts, art: Artifacts) -> tuple[dict, int]:
    if p.kernel is not None:
        raise SchemaError("lift needs an operator_kernel or semigroup_map section")
    _, _, lk = art.lifted
    inv = art.invariance_violations if p.semigroup is not None and lk.action is not None else []
    out = {"lifted": sz.lifted_to_json(lk), "invariance_violations": [list(v) for v in inv[:16]]}
    return out, (0 if not inv else 1)


def task_factorize(p: Problem, opts, art: Artifacts) -> tuple[dict, int]:
    if p.semigroup_map is None:
        raise SchemaError("factorize needs a 'semigroup_map' section")
    if p.semigroup is None:
        raise SchemaError("factorize needs a 'semigroup' section")
    dec, rep = art.decomposition, art.representation
    residual = verify_factorization(p.semigroup_map, p.semigroup, dec, rep)
    out = {
        "dimension": dec.n,
        "residual": residual,
        "decomposition": art.decomposition_json,
        "representation": art.representation_json,
    }
    return out, (0 if residual <= opts["tolerances"].report else 1)


TASK_RUNNERS = {
    "validate": task_validate,
    "check-positivity": task_check_positivity,
    "decompose": task_decompose,
    "represent": task_represent,
    "bounds": task_bounds,
    "lift": task_lift,
    "factorize": task_factorize,
}

_STATUS_BY_CODE = {0: "pass", 1: "violation", 2: "undetermined"}
_SEVERITY = {0: 0, 2: 1, 1: 2}


def run_tasks(p: Problem, tasks, opts, with_timings: bool) -> tuple[dict, int]:
    report: dict = {"tasks": {}}
    worst = 0
    art = Artifacts(p, opts["tolerances"])
    for name in tasks:
        started = time.perf_counter()
        payload, code = TASK_RUNNERS[name](p, opts, art)
        if with_timings:
            payload["elapsed_s"] = time.perf_counter() - started
        payload["exit"] = code
        report["tasks"][name] = payload
        if _SEVERITY[code] > _SEVERITY[worst]:
            worst = code
    report["status"] = _STATUS_BY_CODE[worst]
    return report, worst


def _atomic_write(path: str, text: str):
    """Write ``text`` to ``path`` through a temporary file in its directory.

    The file gets the mode ``open(path, "w")`` would give it, ``0o666`` less
    the umask; ``mkstemp`` alone creates it ``0o600``.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wpsd",
        description="Verify and decompose weakly positive semidefinite kernels.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("problem", help="path to a problem JSON file")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--restarts", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None, help="report pass/fail tolerance")
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamp and timings so identical inputs give identical bytes "
        "(at a fixed BLAS thread count)",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.problem) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"wpsd: cannot read problem file: {exc}", file=sys.stderr)
        return 3

    from numpy.linalg import LinAlgError

    try:
        problem = parse_problem(raw)
        del raw  # the nested lists of a large table outweigh its arrays; free them before the tasks
        opts = run_options(problem, args.seed, args.restarts, args.tol)
        tasks = [args.command] if args.command != "all" else (problem.tasks or ["validate"])
        report, code = run_tasks(problem, tasks, opts, with_timings=not args.no_timestamp)
    except (WpsdError, LinAlgError) as exc:
        print(f"wpsd: {exc}", file=sys.stderr)
        return 3

    if not args.no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    text = sz.report_text(report) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
