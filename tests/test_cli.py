import ast
import copy
import inspect
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpsd import (
    Action,
    Kernel,
    SemigroupMapT,
    StarSemigroup,
    cyclic_group,
    gns_instance,
    gram_semigroup_map,
    hermitian_space,
    left_multiplication,
    left_regular_star_rep,
    matrix_module,
    random_block_psd_kernel,
    right_multiplication,
    scalar_space,
    strong_positivity,
)
from wpsd import cli
from wpsd import serialize as sz
from wpsd.cli import COMMANDS, main, parse_problem
from wpsd.zspace import entry_scale

from test_kernels import circulant_kernel, scalar_kernel, swap_kernel


def write_problem(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def circulant_problem(tasks=("validate",), phi=(1.0, 0.0, 0.0)):
    n = len(phi)
    S = cyclic_group(n)
    inst = gns_instance(S, list(phi))
    return {
        "space": {"kind": "scalar", "dim": 1},
        "kernel": sz.kernel_to_json(inst.kernel),
        "semigroup": sz.semigroup_to_json(S),
        "action": sz.action_to_json(inst.action),
        "tasks": list(tasks),
        "options": {"seed": 1, "restarts": 8},
    }


def test_validate_ok(tmp_path, capsys):
    path = write_problem(tmp_path, "p.json", circulant_problem())
    assert main(["validate", path, "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["tasks"]["validate"]["violations"] == []


def test_validate_broken_involution(tmp_path):
    prob = circulant_problem()
    prob["semigroup"]["inv"] = [0, 1, 1]
    path = write_problem(tmp_path, "p.json", prob)
    assert main(["validate", path, "--no-timestamp"]) == 1


def test_schema_error_missing_kernel(tmp_path, capsys):
    prob = circulant_problem()
    del prob["kernel"]
    path = write_problem(tmp_path, "p.json", prob)
    out = str(tmp_path / "report.json")
    assert main(["validate", path, "--out", out]) == 3
    assert not (tmp_path / "report.json").exists()  # no partial output on exit 3


def test_unparseable_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 3


def test_check_positivity_exit_codes(tmp_path, capsys):
    psd = {
        "space": {"kind": "scalar", "dim": 1},
        "kernel": sz.kernel_to_json(scalar_kernel([[2, 1], [1, 2]])),
        "tasks": ["check-positivity"],
    }
    assert main(["check-positivity", write_problem(tmp_path, "a.json", psd), "--no-timestamp"]) == 0
    capsys.readouterr()

    bad = dict(psd)
    bad["kernel"] = sz.kernel_to_json(scalar_kernel([[1, 2], [2, 1]]))
    assert main(["check-positivity", write_problem(tmp_path, "b.json", bad), "--no-timestamp"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"]["check-positivity"]["weak"]["witness"] is not None

    und = {
        "space": {"kind": "hermitian", "dim": 2},
        "kernel": sz.kernel_to_json(swap_kernel()),
        "tasks": ["check-positivity"],
    }
    assert main(["check-positivity", write_problem(tmp_path, "c.json", und), "--no-timestamp"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"]["check-positivity"]["strong"]["min_eig"] == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize(
    "kernel",
    [
        scalar_kernel([[2, 1], [1, 2]]),
        scalar_kernel([[1, 2], [2, 1]]),
        swap_kernel(),
        random_block_psd_kernel(4, 2, 3, seed=5),
        Kernel(hermitian_space(2), np.diag([1.0, -1.0]).reshape(1, 1, 2, 2) + 0j),
        Kernel(hermitian_space(2), np.arange(16.0).reshape(2, 2, 2, 2) + 0j),  # not Hermitian
    ],
    ids=["scalar-psd", "scalar-indefinite", "swap", "block-psd", "one-point-indefinite", "non-hermitian"],
)
def test_check_positivity_reports_the_strong_verdict(tmp_path, capsys, kernel):
    # The weak verdict's block eigenvalue, when it has one, is the strong one.
    prob = {"space": sz.space_to_json(kernel.space), "kernel": sz.kernel_to_json(kernel)}
    main(["check-positivity", write_problem(tmp_path, "p.json", prob), "--no-timestamp"])
    strong = json.loads(capsys.readouterr().out)["tasks"]["check-positivity"]["strong"]
    min_eig, psd = strong_positivity(kernel)
    assert strong == {"min_eig": min_eig, "is_psd": psd}


def test_decompose_holds_cone_probes_to_the_structural_tolerance(tmp_path, capsys):
    # The diagonal value -5e-9 is below the structural tolerance and above the
    # rank tolerance: decompose must refuse the kernel that check-positivity
    # refutes.
    prob = {
        "space": {"kind": "scalar", "dim": 1},
        "kernel": sz.kernel_to_json(scalar_kernel([[1.0, 0.0], [0.0, -5e-9]])),
    }
    path = write_problem(tmp_path, "p.json", prob)
    assert main(["check-positivity", path, "--no-timestamp"]) == 1
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert main(["decompose", path, "--out", str(out)]) == 3
    assert "diagonal value" in capsys.readouterr().err and not out.exists()


def test_decompose_and_represent(tmp_path, capsys):
    path = write_problem(tmp_path, "p.json", circulant_problem(["decompose", "represent"]))
    assert main(["all", path, "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"]["decompose"]["decomposition"]["n"] == 3
    assert report["tasks"]["represent"]["representation"]["mult_defect"] <= 1e-9


def test_bounds_task(tmp_path, capsys):
    path = write_problem(tmp_path, "p.json", circulant_problem(["bounds"], phi=(1.0, 0.4, 0.4)))
    assert main(["bounds", path, "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    for b in report["tasks"]["bounds"]["bounds"]:
        assert b["lower"] <= b["upper"] + 1e-9


def test_lift_and_factorize_semigroup_map(tmp_path, capsys):
    S = cyclic_group(2)
    R = left_regular_star_rep(S)
    B = np.ones((1, 2, 1))
    T = gram_semigroup_map(S, R, B)
    prob = {
        "space": {"kind": "scalar", "dim": 1},
        "semigroup": sz.semigroup_to_json(S),
        "semigroup_map": sz.semigroup_map_to_json(T),
        "tasks": ["lift", "factorize"],
    }
    path = write_problem(tmp_path, "p.json", prob)
    assert main(["all", path, "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"]["factorize"]["residual"] <= 1e-8
    assert "legend" in report["tasks"]["lift"]["lifted"]


def test_lift_operator_kernel_problem(tmp_path, capsys):
    l = np.zeros((1, 1, 2, 2), dtype=complex)
    l[0, 0] = np.eye(2)
    prob = {
        "space": {"kind": "scalar", "dim": 1},
        "operator_kernel": {
            "module": {"kind": "hilbert", "r": 2},
            "table": sz.carray_to_json(l),
        },
        "tasks": ["lift", "check-positivity", "decompose"],
    }
    path = write_problem(tmp_path, "p.json", prob)
    assert main(["all", path, "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"]["decompose"]["decomposition"]["n"] == 2


def test_report_determinism(tmp_path):
    path = write_problem(
        tmp_path, "p.json", circulant_problem(["validate", "check-positivity", "decompose"])
    )
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["all", path, "--no-timestamp", "--out", out1, "--seed", "7"]) == 0
    assert main(["all", path, "--no-timestamp", "--out", out2, "--seed", "7"]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_timestamp_present_by_default(tmp_path, capsys):
    path = write_problem(tmp_path, "p.json", circulant_problem())
    assert main(["validate", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "timestamp" in report
    assert "elapsed_s" in report["tasks"]["validate"]


def test_mutually_exclusive_inputs(tmp_path):
    prob = circulant_problem()
    prob["semigroup_map"] = {"q": 1, "space": {"kind": "scalar", "dim": 1}, "tensors": []}
    path = write_problem(tmp_path, "p.json", prob)
    assert main(["validate", path]) == 3


def _set(path, value):
    """Mutation of a problem dict: set the entry at ``path`` to ``value``."""

    def mutate(prob):
        *head, last = path
        target = prob
        for key in head:
            target = target[key]
        target[last] = value

    return mutate


@pytest.mark.parametrize(
    "tasks, mutate",
    [
        (["represent"], _set(("semigroup", "mult", 1, 2), 7)),
        (["bounds"], _set(("action", "table", 1, 0), 5)),
        (["validate"], _set(("semigroup", "mult", 1), [0, 1])),
        (["validate"], _set(("kernel", "table"), 5)),
        (["check-positivity"], _set(("options", "seed"), "abc")),
        (["validate"], _set(("semigroup", "inv", 0), -1)),
        (["validate"], _set(("action", "table", 0, 2), 3)),
        (["check-positivity"], _set(("options", "seed"), -1)),
        (["check-positivity"], _set(("options", "restarts"), -1)),
        (["check-positivity"], _set(("options", "restarts"), 2.5)),
        (["decompose"], _set(("options", "tolerances"), {"rank": 0.0})),
        (["decompose"], _set(("options", "tolerances"), {"report": float("nan")})),
        (["decompose"], _set(("options", "tolerances"), {"rank": "1e-8"})),
        (["decompose"], _set(("options", "tolerances"), {"ranks": 1e-8})),
        (["decompose"], _set(("options", "tolerances"), {"structural": 10**400})),
        (["bounds"], _set(("options", "elements"), [3])),
        (["bounds"], _set(("options", "elements"), ["1"])),
    ],
    ids=[
        "mult-out-of-range-represent",
        "action-out-of-range-bounds",
        "ragged-mult",
        "kernel-table-not-a-list",
        "seed-not-an-integer",
        "inv-out-of-range-validate",
        "action-out-of-range-validate",
        "seed-negative",
        "restarts-negative",
        "restarts-not-an-integer",
        "tolerance-zero",
        "tolerance-nan",
        "tolerance-not-a-number",
        "tolerance-unknown",
        "tolerance-beyond-the-largest-float",
        "element-out-of-range",
        "element-not-an-integer",
    ],
)
def test_malformed_input_exits_3_without_report(tmp_path, tasks, mutate):
    prob = circulant_problem(tasks)
    mutate(prob)
    path = write_problem(tmp_path, "p.json", prob)
    out = tmp_path / "report.json"
    assert main(["all", path, "--out", str(out)]) == 3
    assert not out.exists()


def test_a_space_tolerance_is_refused_in_favour_of_the_run_options(tmp_path, capsys):
    prob = circulant_problem(["validate"])
    prob["space"]["tolerance"] = 1e-6
    out = tmp_path / "report.json"
    assert main(["all", write_problem(tmp_path, "p.json", prob), "--out", str(out)]) == 3
    assert "options.tolerances.structural" in capsys.readouterr().err and not out.exists()


def test_a_non_adjointable_operator_exits_3_without_report(tmp_path, capsys):
    H = matrix_module(2, 2)
    l = np.array([[np.eye(4), np.eye(4)], [np.eye(4), np.eye(4)]], dtype=complex)
    l[0, 1] = left_multiplication(H, np.array([[0.0, 1.0], [0.0, 0.0]]))
    prob = {
        "space": {"kind": "hermitian", "dim": 2},
        "operator_kernel": {"module": {"kind": "matrix_module", "d": 2, "kcols": 2}, "table": sz.carray_to_json(l)},
        "tasks": ["lift", "check-positivity"],
    }
    out = tmp_path / "report.json"
    assert main(["all", write_problem(tmp_path, "p.json", prob), "--out", str(out)]) == 3
    assert "l(0,1) inconsistent" in capsys.readouterr().err and not out.exists()


def test_all_builds_each_artifact_once(tmp_path, monkeypatch):
    import wpsd.cli as cli

    calls = {}

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("lift_semigroup_map", "is_invariant", "build_kolmogorov", "build_representation"):
        counted(name)
    S = cyclic_group(3)
    T = gram_semigroup_map(S, left_regular_star_rep(S), np.ones((2, 3, 1)))
    prob = {
        "space": {"kind": "scalar", "dim": 1},
        "semigroup": sz.semigroup_to_json(S),
        "semigroup_map": sz.semigroup_map_to_json(T),
        "tasks": ["validate", "lift", "represent", "factorize"],
    }
    path = write_problem(tmp_path, "p.json", prob)
    assert main(["all", path, "--no-timestamp", "--out", str(tmp_path / "r.json")]) == 0
    assert calls == {"lift_semigroup_map": 1, "is_invariant": 1, "build_kolmogorov": 1, "build_representation": 1}


def test_all_reads_each_kernel_defect_once(tmp_path, monkeypatch):
    # Validate, check-positivity and decompose all hold the Hermitian defect,
    # and decompose and represent both report the linearisation defect.
    from functools import cached_property

    passes, calls = [], {}
    compute = Kernel.__dict__["hermitian_defect"].func

    def one_pass(k):
        passes.append(id(k))
        return compute(k)

    counted = cached_property(one_pass)
    counted.__set_name__(Kernel, "hermitian_defect")
    monkeypatch.setattr(Kernel, "hermitian_defect", counted)
    for name in ("verify_linearisation", "verify_reproducing"):

        def call(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(cli, name, call)
    S = cyclic_group(3)
    B = np.random.default_rng(2).standard_normal((2, 3, 2)) + 0j
    prob = {
        "space": {"kind": "hermitian", "dim": 2},
        "semigroup": sz.semigroup_to_json(S),
        "semigroup_map": sz.semigroup_map_to_json(gram_semigroup_map(S, left_regular_star_rep(S), B)),
        "tasks": ["validate", "lift", "check-positivity", "decompose", "represent", "factorize"],
    }
    out = tmp_path / "r.json"
    assert main(["all", write_problem(tmp_path, "p.json", prob), "--no-timestamp", "--out", str(out)]) == 0
    assert len(passes) == len(set(passes)) == 1
    assert calls == {"verify_linearisation": 1}
    tasks = json.loads(out.read_text())["tasks"]
    assert tasks["represent"]["reproducing_defect"] == tasks["decompose"]["linearisation_defect"]


def test_report_is_indented_json_and_payloads_are_built_once(tmp_path, monkeypatch):
    calls = {}
    for name in ("decomposition_to_json", "representation_to_json"):
        fn = getattr(sz, name)

        def counted(*args, _name=name, _fn=fn):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(sz, name, counted)
    S = cyclic_group(3)
    T = gram_semigroup_map(S, left_regular_star_rep(S), np.ones((2, 3, 1)))
    prob = {
        "space": {"kind": "scalar", "dim": 1},
        "semigroup": sz.semigroup_to_json(S),
        "semigroup_map": sz.semigroup_map_to_json(T),
        "tasks": ["decompose", "represent", "factorize"],
    }
    out = tmp_path / "r.json"
    assert main(["all", write_problem(tmp_path, "p.json", prob), "--no-timestamp", "--out", str(out)]) == 0
    text = out.read_text()
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    represent, factorize = report["tasks"]["represent"], report["tasks"]["factorize"]
    assert represent["decomposition"] == factorize["decomposition"] == report["tasks"]["decompose"]["decomposition"]
    assert represent["representation"] == factorize["representation"]
    assert calls == {"decomposition_to_json": 1, "representation_to_json": 1}


def test_gns_report_with_repeated_values_is_indented_json(tmp_path):
    S = cyclic_group(8)
    rng = np.random.default_rng(3)
    B = rng.standard_normal((1, 8, 2)) + 1j * rng.standard_normal((1, 8, 2))
    T = gram_semigroup_map(S, left_regular_star_rep(S), B)
    prob = {
        "space": {"kind": "hermitian", "dim": 2},
        "semigroup": sz.semigroup_to_json(S),
        "semigroup_map": sz.semigroup_map_to_json(T),
        "tasks": ["decompose", "represent", "factorize"],
    }
    out = tmp_path / "r.json"
    assert main(["all", write_problem(tmp_path, "p.json", prob), "--no-timestamp", "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    report = json.loads(text)["tasks"]["factorize"]
    # Every matrix entry is an entry of V, pushed along the action.
    V = {tuple(pair) for row in report["decomposition"]["V"] for pair in row}
    matrices = np.array(report["representation"]["matrices"])
    assert matrices.shape[0] == 8 and {tuple(pair) for pair in matrices.reshape(-1, 2)} <= V


def test_out_report_gets_the_umask_mode(tmp_path):
    good = write_problem(tmp_path, "p.json", circulant_problem())
    bad = circulant_problem()
    del bad["kernel"]
    bad = write_problem(tmp_path, "bad.json", bad)
    saved = os.umask(0o022)
    try:
        for umask in (0o022, 0o077, 0o002):
            os.umask(umask)
            out = tmp_path / f"r{umask:o}.json"
            assert main(["validate", good, "--out", str(out)]) == 0
            assert os.stat(out).st_mode & 0o777 == 0o666 & ~umask
            assert main(["validate", bad, "--out", str(tmp_path / "none.json")]) == 3
    finally:
        os.umask(saved)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "p.json", "r2.json", "r22.json", "r77.json"]


def test_boolean_diagnostics_are_json_booleans(tmp_path, capsys):
    path = write_problem(tmp_path, "p.json", circulant_problem(["decompose", "bounds"], phi=(1.0, 0.4, 0.4)))
    assert main(["all", path, "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"]["decompose"]["decomposition"]["diagnostics"]["rank_unstable"] is False
    for b in report["tasks"]["bounds"]["bounds"]:
        assert isinstance(b["diagnostics"]["denominator_indefinite"], bool)


def test_entries_near_the_largest_float_give_no_nan(tmp_path):
    prob = {
        "space": {"kind": "scalar", "dim": 1},
        "kernel": sz.kernel_to_json(scalar_kernel([[1e308, 0.0], [0.0, 1e308]])),
        "tasks": ["check-positivity", "decompose"],
    }
    out = tmp_path / "r.json"
    assert main(["all", write_problem(tmp_path, "p.json", prob), "--no-timestamp", "--out", str(out)]) == 0
    text = out.read_text()
    assert "NaN" not in text
    assert json.loads(text)["tasks"]["decompose"]["decomposition"]["n"] == 2
    positivity = json.loads(text)["tasks"]["check-positivity"]
    assert positivity["exit"] == 0
    assert positivity["weak"]["status"] == "certified_positive"
    assert positivity["strong"] == {"min_eig": 1e308, "is_psd": True}


def test_empty_operator_table_of_a_large_module_lifts_to_nothing(tmp_path, capsys):
    prob = {
        "operator_kernel": {"module": {"kind": "hilbert", "r": 10**9}, "table": []},
        "tasks": ["validate", "lift", "check-positivity", "decompose"],
    }
    assert main(["all", write_problem(tmp_path, "p.json", prob), "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"]["lift"]["lifted"]["table"] == []
    assert report["tasks"]["lift"]["lifted"]["legend"] == []
    assert report["tasks"]["decompose"]["decomposition"]["n"] == 0


def test_empty_kernel_table_over_a_huge_space_exits_3(tmp_path):
    prob = {"space": {"kind": "hermitian", "dim": 10**9}, "kernel": {"table": []}, "tasks": ["validate"]}
    out = tmp_path / "r.json"
    assert main(["all", write_problem(tmp_path, "p.json", prob), "--out", str(out)]) == 3
    assert not out.exists()


def test_empty_semigroup_map_tensors_over_a_huge_space_exit_3(tmp_path):
    prob = {
        "semigroup": sz.semigroup_to_json(cyclic_group(3)),
        "semigroup_map": {"space": {"kind": "hermitian", "dim": 10**9}, "tensors": []},
        "tasks": ["lift"],
    }
    out = tmp_path / "r.json"
    assert main(["all", write_problem(tmp_path, "p.json", prob), "--out", str(out)]) == 3
    assert not out.exists()


def _scaled_gns_problem(source, perturb):
    """A GNS kernel on cyclic_group(4) times 1e8 whose entry pair (0, 1), (1, 0) moves by ``perturb`` relative."""
    S = cyclic_group(4)
    inst = gns_instance(S, np.fft.ifft([1.0, 0.6, 0.3, 0.8]))
    table = 1e8 * np.array(inst.kernel.table)
    table[0, 1] *= 1.0 + perturb
    table[1, 0] = np.conj(table[0, 1])
    prob = {
        "space": {"kind": "scalar", "dim": 1},
        "semigroup": sz.semigroup_to_json(S),
        "action": sz.action_to_json(inst.action),
        "tasks": ["validate", "check-positivity"],
        "options": {"seed": 1, "restarts": 2},
    }
    if source == "kernel":
        prob["kernel"] = {"table": sz.carray_to_json(table)}
    else:
        prob["operator_kernel"] = {"module": {"kind": "hilbert", "r": 1}, "table": sz.carray_to_json(table)}
        prob["tasks"].append("lift")
    return prob


@pytest.mark.parametrize("source", ["kernel", "operator_kernel"])
def test_invariance_tolerance_is_relative_to_the_entry_scale(tmp_path, capsys, source):
    # A rounding-level change of one entry pair of a kernel of size 1e8 is
    # within the structural tolerance, as check-positivity already holds it.
    path = write_problem(tmp_path, "p.json", _scaled_gns_problem(source, 1e-15))
    assert main(["all", path, "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"]["validate"]["violations"] == []
    assert report["tasks"]["validate"]["invariance_violations"] == []
    if source == "operator_kernel":
        assert report["tasks"]["lift"]["invariance_violations"] == []
    # A change far above rounding is still caught.
    path = write_problem(tmp_path, "q.json", _scaled_gns_problem(source, 1e-6))
    assert main(["validate", path, "--no-timestamp"]) == 1
    assert "kernel not invariant" in json.loads(capsys.readouterr().out)["tasks"]["validate"]["violations"][0]


def test_hermitian_check_follows_the_structural_tolerance(tmp_path, capsys):
    prob = {
        "space": {"kind": "scalar", "dim": 1},
        "kernel": sz.kernel_to_json(scalar_kernel([[2.0, 1.0 + 1e-6], [1.0, 2.0]])),
        "tasks": ["validate"],
    }
    assert main(["validate", write_problem(tmp_path, "p.json", prob), "--no-timestamp"]) == 1
    assert "not Hermitian" in json.loads(capsys.readouterr().out)["tasks"]["validate"]["violations"][0]
    prob["options"] = {"tolerances": {"structural": 1e-5}}
    assert main(["validate", write_problem(tmp_path, "q.json", prob), "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)["tasks"]["validate"]
    assert report["violations"] == [] and report["hermitian_defect"] == pytest.approx(1e-6)


def test_decompose_holds_the_hermitian_defect_to_the_structural_tolerance(tmp_path, capsys):
    # The defect 1.5e-8 is above the structural tolerance and below the rank
    # tolerance: decompose must refuse the kernel, as validate does.
    prob = {
        "space": {"kind": "scalar", "dim": 1},
        "kernel": sz.kernel_to_json(scalar_kernel([[2.0, 1.0 + 1.5e-8], [1.0, 2.0]])),
        "tasks": ["validate"],
    }
    path = write_problem(tmp_path, "p.json", prob)
    assert main(["validate", path, "--no-timestamp"]) == 1
    out = tmp_path / "report.json"
    assert main(["decompose", path, "--out", str(out)]) == 3
    assert "Hermitian" in capsys.readouterr().err and not out.exists()
    prob["options"] = {"tolerances": {"structural": 1e-5}}
    assert main(["decompose", write_problem(tmp_path, "q.json", prob), "--no-timestamp"]) == 0


def test_represent_holds_invariance_to_the_structural_tolerance(tmp_path, capsys):
    # Entries (0, 1) and (1, 0) move by 1e-7: within a structural tolerance of
    # 1e-5, so validate passes and represent builds the representation; the
    # star law then shows the move against the report tolerance.
    S = cyclic_group(4)
    inst = gns_instance(S, np.fft.ifft([1.0, 0.6, 0.3, 0.8]))
    table = np.array(inst.kernel.table)
    table[0, 1] += 1e-7
    table[1, 0] = np.conj(table[0, 1])
    prob = {
        "space": {"kind": "scalar", "dim": 1},
        "kernel": {"table": sz.carray_to_json(table)},
        "semigroup": sz.semigroup_to_json(S),
        "action": sz.action_to_json(inst.action),
        "tasks": ["validate", "represent"],
        "options": {"tolerances": {"structural": 1e-5}},
    }
    assert main(["all", write_problem(tmp_path, "p.json", prob), "--no-timestamp"]) == 1
    tasks = json.loads(capsys.readouterr().out)["tasks"]
    assert tasks["validate"]["exit"] == 0 and tasks["represent"]["exit"] == 1
    assert tasks["represent"]["representation"]["star_defect"] == pytest.approx(1e-7, rel=1e-3)


def _operator_kernel_problem(m, seed, delta):
    """Right multiplication by ``M(x, y) = G(y)* G(x)`` on ``matrix_module(2, 2)``.

    ``M(0, 1)`` moves by ``delta`` times the operator table's entry scale, so
    that ``l(0, 1)* = l(1, 0)`` fails by that much.
    """
    H = matrix_module(2, 2)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, 2, 2)) + 1j * rng.standard_normal((m, 2, 2))
    M = np.einsum("yba,xbc->xyac", G.conj(), G)
    scale = entry_scale(np.array([[right_multiplication(H, M[x, y]) for y in range(m)] for x in range(m)]))
    M[0, 1, 0, 1] += delta * scale
    l = np.array([[right_multiplication(H, M[x, y]) for y in range(m)] for x in range(m)])
    return {
        "space": {"kind": "hermitian", "dim": 2},
        "operator_kernel": {"module": {"kind": "matrix_module", "d": 2, "kcols": 2}, "table": sz.carray_to_json(l)},
        "tasks": ["lift", "validate", "check-positivity"],
        "options": {"seed": 1, "restarts": 4},
    }


def _gns_problem(g, seed, delta):
    """A GNS kernel on ``cyclic_group(g)`` with ``k(0, 1)`` and ``k(1, 0)`` moved by ``delta`` times its entry scale."""
    S = cyclic_group(g)
    inst = gns_instance(S, np.fft.ifft(np.random.default_rng(seed).uniform(1.0, 2.0, g)))
    table = np.array(inst.kernel.table)
    table[0, 1] += delta * inst.kernel.entry_scale
    table[1, 0] = np.conj(table[0, 1])
    return {
        "space": {"kind": "scalar", "dim": 1},
        "kernel": {"table": sz.carray_to_json(table)},
        "semigroup": sz.semigroup_to_json(S),
        "action": sz.action_to_json(inst.action),
        "tasks": ["validate", "represent", "bounds"],
        "options": {"seed": 1, "restarts": 4},
    }


def _task_exits(prob, tolerances) -> dict:
    """Exit code of each task of ``prob``, each run as its own command under ``tolerances``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w") as fh:
            json.dump({**prob, "options": {**prob["options"], "tolerances": tolerances}}, fh)
        out = os.path.join(tmp, "r.json")
        return {task: main([task, path, "--no-timestamp", "--out", out]) for task in prob["tasks"]}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    make=st.sampled_from([(_operator_kernel_problem, "lift", 3), (_gns_problem, "validate", 1)]),
    size=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    log_delta=st.floats(math.log10(2e-9), -6.0),
)
def test_a_defect_between_two_structural_tolerances_follows_the_run_options(make, size, seed, log_delta):
    # A relative defect between the default structural tolerance and 1e-5 is
    # accepted by every task under 1e-5 and refused under the default.  The
    # range keeps away from both ends: the move shifts the entry scale it is
    # held against, the lifted table's entry scale can be half the operator
    # table's, and the report tolerance, absolute, meets the move times the
    # kernel's entry scale (about 2.5 here) in the star law.
    build, refusing_task, refusal = make
    loose = {"structural": 1e-5, "report": 1e-5}
    planted = build(size + 1, seed, 10.0**log_delta)
    assert _task_exits(planted, loose) == _task_exits(build(size + 1, seed, 0.0), loose)
    assert _task_exits(planted, {})[refusing_task] == refusal


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def complex_array(draw, shape):
    """A complex array of ``shape`` with arbitrary finite parts, -0.0 and subnormals included."""
    parts = draw(st.lists(FINITE, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape)))
    return np.array(parts, dtype=float).view(complex).reshape(shape)


def index_table(draw, shape, bound):
    entries = draw(st.lists(st.integers(0, bound - 1), min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(entries, dtype=np.int64).reshape(shape)


@st.composite
def whole_problems(draw):
    """``(json object, expected parts)`` for one problem of each input kind."""
    kind = draw(st.sampled_from(["kernel", "operator_kernel", "semigroup_map"]))
    d = draw(st.integers(1, 2))
    space = scalar_space() if d == 1 else hermitian_space(d)
    g, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    obj = {"space": sz.space_to_json(space), "tasks": draw(st.lists(st.sampled_from(COMMANDS[:-1]), max_size=3))}
    want = {"space": space, "tasks": obj["tasks"], "options": {}}
    if kind == "kernel":
        k = Kernel(space, complex_array(draw, (m, m, d, d)))
        obj["kernel"], want["kernel"] = sz.kernel_to_json(k), k.table
    elif kind == "operator_kernel":
        module = draw(st.sampled_from([{"kind": "hilbert", "r": 1}, {"kind": "hilbert", "r": 2},
                                       {"kind": "matrix_module", "d": 1, "kcols": 2}]))
        dim = module.get("r", module.get("d", 0) * module.get("kcols", 0))
        table = complex_array(draw, (m, m, dim, dim))
        obj["operator_kernel"], want["operator_table"] = {"module": module, "table": sz.carray_to_json(table)}, table
    else:
        T = SemigroupMapT(space, complex_array(draw, (g, *(2 * [draw(st.integers(1, 2))]), d, d)))
        obj["semigroup_map"], want["tensors"] = sz.semigroup_map_to_json(T), T.tensors
        m = g
    if draw(st.booleans()):
        unit = draw(st.one_of(st.none(), st.integers(0, g - 1)))
        S = StarSemigroup(index_table(draw, (g, g), g), index_table(draw, (g,), g), unit)
        obj["semigroup"], want["semigroup"] = sz.semigroup_to_json(S), S
    if draw(st.booleans()):
        A = Action(index_table(draw, (g, m), m), draw(st.booleans()))
        obj["action"], want["action"] = sz.action_to_json(A), A
    if draw(st.booleans()):
        want["options"] = obj["options"] = {
            "seed": draw(st.integers(0, 2**40)),
            "restarts": draw(st.integers(0, 100)),
            "tolerances": {"structural": draw(st.floats(1e-300, 1.0)), "report": draw(st.floats(1e-300, 1.0))},
            "elements": draw(st.lists(st.integers(0, g - 1), max_size=3)),
        }
    return obj, want


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=whole_problems())
def test_whole_problems_survive_the_json_round_trip(case):
    obj, want = case
    p = parse_problem(json.loads(json.dumps(obj)))
    assert p.space == want["space"] and p.tasks == want["tasks"] and p.options == want["options"]
    if "kernel" in want:
        assert same_bits(p.kernel.table, want["kernel"])
    if "operator_table" in want:
        assert same_bits(p.operator_table, want["operator_table"])
    if "tensors" in want:
        assert same_bits(p.semigroup_map.tensors, want["tensors"])
    if "semigroup" in want:
        S = want["semigroup"]
        assert np.array_equal(p.semigroup.mult, S.mult) and np.array_equal(p.semigroup.inv, S.inv)
        assert p.semigroup.unit == S.unit
    else:
        assert p.semigroup is None
    if "action" in want:
        assert np.array_equal(p.action.table, want["action"].table) and p.action.unital == want["action"].unital
    else:
        assert p.action is None


def _fuzz_bases() -> list:
    """One small valid problem per input kind, each listing every task the kind supports.

    Each kind also comes with an empty table, so that one edit of a size
    (such as the space dimension) reaches the empty-table paths.
    """
    S = cyclic_group(3)
    rng = np.random.default_rng(11)
    F = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    T = gram_semigroup_map(S, left_regular_star_rep(S), np.ones((2, 3, 1)))
    every = ["validate", "check-positivity", "decompose", "represent", "bounds"]
    return [
        circulant_problem(every, phi=(1.0, 0.4, 0.4)),
        {
            "operator_kernel": {
                "module": {"kind": "hilbert", "r": 2},
                "table": sz.carray_to_json(np.einsum("xca,ycb->xyab", F.conj(), F)),
            },
            "tasks": ["validate", "lift", "check-positivity", "decompose"],
        },
        {
            "semigroup": sz.semigroup_to_json(S),
            "semigroup_map": sz.semigroup_map_to_json(T),
            "tasks": ["lift", "factorize", *every],
        },
        {"space": {"kind": "hermitian", "dim": 2}, "kernel": {"table": []}, "tasks": every[:3]},
        {"operator_kernel": {"module": {"kind": "hilbert", "r": 2}, "table": []}, "tasks": ["lift", *every[:3]]},
        {
            "semigroup": sz.semigroup_to_json(S),
            "semigroup_map": {"q": 1, "space": {"kind": "hermitian", "dim": 2}, "tensors": []},
            "tasks": ["lift", "factorize", *every],
        },
    ]


FUZZ_BASES = _fuzz_bases()
NUMBERS = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([10**9, -(10**9)]),
    st.sampled_from([0.5, -0.0, -1.0, 3.0, 1e-300, 1e308, -1e308, float("inf"), float("nan")]),
)
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    NUMBERS,
    st.sampled_from(["", "x", "validate"]),
    st.sampled_from([[], {}, [[]], [0.0, 0.0]]),
)


@st.composite
def mutated_problems(draw):
    """A base problem with one to three edits at random places in its JSON tree.

    An edit replaces an entry with a small JSON value, deletes it, repeats a
    list item (making tables ragged), or changes a number to another number
    (keeping tables well formed).
    """
    prob = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        node = prob
        while True:
            keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.integers(0, 7)) > 0:
                node = child
                continue
            edit = draw(st.sampled_from(["replace", "delete", "repeat", "number"]))
            if edit == "delete":
                del node[key]
            elif edit == "repeat" and isinstance(node, list):
                node.insert(key, copy.deepcopy(child))
            elif edit == "number" and isinstance(child, (int, float)) and not isinstance(child, bool):
                node[key] = draw(NUMBERS)
            else:
                node[key] = copy.deepcopy(draw(JSON_VALUES))
            break
    return prob


@settings(max_examples=200, deadline=None, derandomize=True)
@given(prob=mutated_problems())
@example(prob={"kernel": {"table": []}, "tasks": ["validate", "check-positivity", "decompose"]})
@example(prob={"operator_kernel": {"module": {"kind": "hilbert", "r": 2}, "table": []}, "tasks": ["decompose"]})
@example(
    prob={
        "semigroup": sz.semigroup_to_json(cyclic_group(3)),
        "semigroup_map": {"q": 2, "tensors": sz.carray_to_json(np.zeros((3, 2, 2, 1, 1)))},
        "tasks": ["factorize"],
    }
)
@example(
    prob={
        "space": {"kind": "hermitian", "dim": 2},
        "kernel": {"table": sz.carray_to_json(1e308 * np.tile(np.eye(2), (2, 2, 1, 1)))},
        "tasks": ["check-positivity"],
    }
)
@example(prob={"semigroup": sz.semigroup_to_json(cyclic_group(3)), "semigroup_map": {"q": -1, "tensors": []}, "tasks": ["lift"]})
def test_mutated_problem_files_never_crash(prob):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "p.json"), os.path.join(tmp, "r.json")
        with open(path, "w") as fh:
            json.dump(prob, fh)
        with np.errstate(all="ignore"):
            code = main(["all", path, "--out", out, "--restarts", "2", "--no-timestamp"])
        assert code in (0, 1, 2, 3)
        assert os.path.exists(out) == (code != 3)


def test_the_cli_passes_its_tolerances_to_every_call_that_takes_them():
    # A call that leaves ``tols`` out would hold its check to the default
    # tolerances whatever the run asks for.
    tree = ast.parse(inspect.getsource(cli))
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            fn = getattr(cli, call.func.id, None)
            if inspect.isfunction(fn) and "tols" in inspect.signature(fn).parameters:
                assert "tols" in [kw.arg for kw in call.keywords], f"{call.func.id} at line {call.lineno}"
