import copy
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpsd import cyclic_group, gns_instance, left_regular_star_rep, gram_semigroup_map
from wpsd import serialize as sz
from wpsd.cli import main

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
            "table": [[sz.cmatrix_to_json(l[0, 0])]],
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


def test_all_builds_each_artifact_once(tmp_path, monkeypatch):
    import wpsd.cli as cli

    calls = {}

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("lift_semigroup_map", "build_kolmogorov", "build_representation"):
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
    assert calls == {"lift_semigroup_map": 1, "build_kolmogorov": 1, "build_representation": 1}


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
