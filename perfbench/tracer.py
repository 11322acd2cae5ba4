"""Per-layer spans around the public functions the CLI calls.

The CLI imports its stage functions by name, so they are rebound in
``wpsd.cli``'s namespace; it reaches the wire formats through ``sz.``, so
those are rebound as attributes of ``wpsd.serialize``.  Calls a module makes
into another from the inside are not rebound and count as the caller's self
time.  Layers are named after the modules.  ``zspace`` is only called from
inside other modules and ``rk_representation`` is not reachable from the CLI,
so neither has a layer.

Only a traced run imports this file.
"""

from __future__ import annotations

import time

from wpsd import cli
from wpsd import serialize as sz

# layer -> (module whose namespace is rebound, function names)
LAYERS = {
    "serialize.parse": (sz, ("space_from_json", "kernel_from_json", "operator_kernel_from_json",
                             "semigroup_map_from_json", "semigroup_from_json", "action_from_json")),
    "serialize.emit": (sz, ("verdict_to_json", "decomposition_to_json", "representation_to_json",
                            "bound_to_json", "lifted_to_json")),
    "algebra.validate": (cli, ("validate_semigroup", "validate_action")),
    "kernels.structure": (cli, ("hermitian_defect_kernel", "is_hermitian", "is_invariant")),
    "kernels.strong_positivity": (cli, ("strong_positivity",)),
    "kernels.weak_positivity": (cli, ("weak_positivity",)),
    "lifts.lift": (cli, ("lift_operator_kernel", "lift_semigroup_map")),
    "lifts.verify_factorization": (cli, ("verify_factorization",)),
    "dilation.build_kolmogorov": (cli, ("build_kolmogorov",)),
    "dilation.verify_linearisation": (cli, ("verify_linearisation",)),
    "dilation.build_representation": (cli, ("build_representation",)),
    "dilation.bound_constant": (cli, ("bound_constant",)),
    "repkernel.build_rk": (cli, ("build_rk",)),
    "repkernel.verify_reproducing": (cli, ("verify_reproducing",)),
}
ROOT_LAYER = "cli.main"
CALL_COUNTED = ("lifts.lift", "dilation.build_kolmogorov", "dilation.build_representation",
                "dilation.bound_constant")


class Tracer:
    """Spans ``(name, start, end, parent, report)`` kept in memory, plus counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.report_id = -1

    def _count(self, key: str, value: float = 1.0):
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _on_result(self, layer: str, result):
        if layer == "dilation.build_kolmogorov":
            self._count("rank.sum", result.n)
            self._count("rank_unstable", bool(result.diagnostics.get("rank_unstable", False)))
        elif layer == "kernels.weak_positivity":
            self._count("restarts", result.diagnostics["restarts"])
            self._count("non_converged", result.diagnostics["non_converged"])
            self._count("undetermined", result.status == "undetermined")

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([layer, time.perf_counter(), None, parent, self.report_id])
            idx = len(self.spans) - 1
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            self._count(layer + ".calls")
            self._on_result(layer, result)
            return result

        return traced

    def install(self):
        for layer, (module, names) in LAYERS.items():
            for name in names:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(layer, fn))

    def uninstall(self):
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def run_report(self, report_id: int, argv) -> int:
        """``cli.main(argv)`` inside the root span of report ``report_id``."""
        self.report_id = report_id
        return self._wrap(ROOT_LAYER, cli.main)(argv)

    def self_times(self) -> dict[str, float]:
        """Total self time per layer: duration minus what direct children cover.

        Children of one span run one after another on one thread, so the
        part of the parent they cover is the sum of their durations.
        """
        totals = {layer: 0.0 for layer in (ROOT_LAYER, *LAYERS)}
        for name, start, end, parent, _ in self.spans:
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return totals

    def root_time(self) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name == ROOT_LAYER)

    def per_layer(self, reports: int) -> dict[str, float]:
        """Per-report averages of self times and counts, named as in BENCHMARK.json."""
        out = {f"{layer}.self_s": total / reports for layer, total in self.self_times().items()}
        c = self.counts
        for layer in CALL_COUNTED:
            out[f"{layer}.calls"] = c.get(layer + ".calls", 0.0) / reports
        builds = c.get("dilation.build_kolmogorov.calls", 0.0)
        out["dilation.rank"] = c.get("rank.sum", 0.0) / builds if builds else 0.0
        out["dilation.rank_unstable_frac"] = c.get("rank_unstable", 0.0) / builds if builds else 0.0
        restarts = c.get("restarts", 0.0)
        verdicts = c.get("kernels.weak_positivity.calls", 0.0)
        out["kernels.weak_positivity.restarts"] = restarts / reports
        out["kernels.weak_positivity.non_converged_frac"] = (
            c.get("non_converged", 0.0) / restarts if restarts else 0.0
        )
        out["kernels.weak_positivity.undetermined_frac"] = (
            c.get("undetermined", 0.0) / verdicts if verdicts else 0.0
        )
        return out
