import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from klbp.cli import main, stable_dumps
from klbp.errors import worst_error


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    def save(name, obj):
        path = root / name
        path.write_text(json.dumps(obj))
        return str(path)

    circ = save(
        "e1.json",
        {
            "schema": "v1",
            "nodes": [
                {"id": "lx0", "kind": "leaf", "var": "X", "state": 0},
                {"id": "lx1", "kind": "leaf", "var": "X", "state": 1},
                {"id": "ly0", "kind": "leaf", "var": "Y", "state": 0},
                {"id": "ly1", "kind": "leaf", "var": "Y", "state": 1},
                {
                    "id": "P1",
                    "kind": "product",
                    "children": [{"id": "lx0"}, {"id": "ly0"}],
                },
                {
                    "id": "P2",
                    "kind": "product",
                    "children": [{"id": "lx1"}, {"id": "ly1"}],
                },
                {
                    "id": "r",
                    "kind": "sum",
                    "children": [
                        {"id": "P1", "weight": 0.6},
                        {"id": "P2", "weight": 0.4},
                    ],
                },
            ],
            "root": "r",
        },
    )
    lam = save(
        "e1_lambda.json",
        {"schema": "v1", "lambda": {"X": [1.0, 0.5], "Y": [1.0, 0.8]}},
    )
    bad = save(
        "bad.json",
        {
            "schema": "v1",
            "nodes": [
                {"id": "a", "kind": "leaf", "var": "X", "state": 0},
                {"id": "b", "kind": "leaf", "var": "X", "state": 1},
                {"id": "p", "kind": "product", "children": [{"id": "a"}, {"id": "b"}]},
            ],
            "root": "p",
        },
    )
    logistic = save(
        "logistic.json",
        {
            "schema": "v1",
            "nodes": [
                {"id": "w", "op": "input", "inputs": []},
                {"id": "x", "op": "input", "inputs": []},
                {"id": "m", "op": "mul", "inputs": ["w", "x"]},
                {"id": "y", "op": "sigmoid", "inputs": ["m"]},
            ],
            "output": "y",
        },
    )
    exp = save(
        "exp.json",
        {
            "schema": "v1",
            "nodes": [
                {"id": "x", "op": "input", "inputs": []},
                {"id": "y", "op": "exp", "inputs": ["x"]},
            ],
            "output": "y",
        },
    )
    div = save(
        "div.json",
        {
            "schema": "v1",
            "nodes": [
                {"id": "a", "op": "input", "inputs": []},
                {"id": "b", "op": "input", "inputs": []},
                {"id": "y", "op": "div", "inputs": ["a", "b"]},
            ],
            "output": "y",
        },
    )
    pow0 = save(
        "pow0.json",
        {
            "schema": "v1",
            "nodes": [
                {"id": "x", "op": "input", "inputs": []},
                {"id": "y", "op": "pow", "inputs": ["x"], "value": 0.0},
            ],
            "output": "y",
        },
    )
    joint = save(
        "joint.json",
        {
            "schema": "v1",
            "probs": [0.30, 0.10, 0.15, 0.45],
            "outcomes": [[0, 0], [0, 1], [1, 0], [1, 1]],
        },
    )
    copies = save(
        "copies.json",
        {
            "dists": [
                {"schema": "v1", "probs": [0.2, 0.8], "outcomes": [0, 1]},
                {"schema": "v1", "probs": [0.5, 0.5], "outcomes": [0, 1]},
            ]
        },
    )
    coin_graph = {
        "schema": "v1",
        "nodes": [
            {"id": "x", "op": "input", "inputs": []},
            {"id": "a", "op": "input", "inputs": []},
            {"id": "z", "op": "mul", "inputs": ["x", "a"]},
        ],
        "output": "z",
    }
    coin = save(
        "coin.json",
        {
            "schema": "v1",
            "variables": [{"name": "x1", "grid": [0.0, 1.0], "prior": [0.5, 0.5]}],
            "theta": ["a"],
            "graphs": {"x1": coin_graph},
            "likelihood": {"kind": "exp_scale", "alpha": 1.0},
        },
    )
    return {
        "root": root,
        "circuit": circ,
        "lambda": lam,
        "bad": bad,
        "logistic": logistic,
        "exp": exp,
        "div": div,
        "pow0": pow0,
        "joint": joint,
        "copies": copies,
        "coin": coin,
    }


class TestStableJson:
    def test_seventeen_significant_digits(self):
        assert stable_dumps(1.0 / 3.0) == "0.33333333333333331"
        assert stable_dumps(0.76) == "0.76000000000000001"

    def test_keys_sorted_and_types_normalized(self):
        out = stable_dumps({"b": np.float64(1.5), "a": np.int64(2), "c": [True, None]})
        assert out == '{"a":2,"b":1.5,"c":[true,null]}'

    def test_non_finite_floats_are_strings(self):
        assert stable_dumps([np.inf, -np.inf, np.nan, 2.5]) == '["inf","-inf","nan",2.5]'

    def test_ndarray_becomes_list(self):
        assert stable_dumps(np.array([0.5, 0.25])) == "[0.5,0.25]"

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            stable_dumps(object())


class TestSpnCommands:
    def test_marginals_example(self, capsys, files):
        code, rep = run_cli(
            capsys, "spn", "marginals",
            "--circuit", files["circuit"], "--evidence", files["lambda"],
        )
        assert code == 0 and rep["pass"]
        assert rep["outputs"]["marginals"]["X"][0] == pytest.approx(
            0.6 / 0.76, abs=1e-12
        )
        assert rep["checks"]["oracle_marginals"]["max_abs_error"] <= 1e-10
        assert rep["outputs"]["value"] == pytest.approx(0.76, abs=1e-15)

    def test_validate_good(self, capsys, files):
        code, rep = run_cli(capsys, "spn", "validate", "--circuit", files["circuit"])
        assert code == 0
        assert rep["outputs"]["valid"] is True

    def test_validate_bad_exits_3_with_violations(self, capsys, files):
        code, rep = run_cli(capsys, "spn", "validate", "--circuit", files["bad"])
        assert code == 3
        assert rep["outputs"]["decomposability"] == [["p", "a", "b", "X"]]
        assert not rep["pass"]

    def test_missing_file_exits_1(self, capsys, files):
        code, rep = run_cli(
            capsys, "spn", "validate", "--circuit", str(files["root"] / "nope.json")
        )
        assert code == 1 and rep is None

    def test_garbage_json_exits_2(self, capsys, files):
        path = files["root"] / "garbage.json"
        path.write_text("{not json")
        code, rep = run_cli(capsys, "spn", "validate", "--circuit", str(path))
        assert code == 2 and rep is None

    def test_schema_violation_exits_2(self, capsys, files):
        path = files["root"] / "schema.json"
        path.write_text(json.dumps({"schema": "v1", "nodes": "oops"}))
        code, _ = run_cli(capsys, "spn", "validate", "--circuit", str(path))
        assert code == 2

    def test_eval_reports_both_domains(self, capsys, files):
        code, rep = run_cli(
            capsys, "spn", "eval",
            "--circuit", files["circuit"], "--evidence", files["lambda"],
        )
        assert code == 0
        assert rep["outputs"]["value"] == pytest.approx(0.76)
        assert rep["outputs"]["log_value"] == pytest.approx(np.log(0.76))
        assert rep["checks"]["log_linear_agreement"]["pass"]

    def test_gates_and_kkt(self, capsys, files):
        code, rep = run_cli(
            capsys, "spn", "gates",
            "--circuit", files["circuit"], "--evidence", files["lambda"],
        )
        assert code == 0
        gate = rep["outputs"]["gates"]["r"]
        assert gate["pi"] == pytest.approx(1.0)
        assert gate["b"] == pytest.approx([0.6 / 0.76, 0.16 / 0.76])
        code, rep = run_cli(
            capsys, "spn", "kkt",
            "--circuit", files["circuit"], "--evidence", files["lambda"],
        )
        assert code == 0
        assert rep["outputs"]["pi"]["r"] == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gates_report_no_local_gate_at_a_zero_valued_sum(self, capsys, tmp_path):
        def leaf(nid, var, state):
            return {"id": nid, "kind": "leaf", "var": var, "state": state}

        def node(nid, kind, *children):
            kids = [dict(zip(("id", "weight"), c)) for c in children]
            return {"id": nid, "kind": kind, "children": kids}

        circuit = tmp_path / "c.json"
        circuit.write_text(json.dumps({"root": "r", "nodes": [
            node("r", "sum", ("p1", 0.4), ("p2", 0.6)),
            node("p1", "product", ("s1",), ("s3",)),
            node("p2", "product", ("s2",), ("s3",)),
            node("s1", "sum", ("a0", 1.0)),
            node("s2", "sum", ("a1", 1.0)),
            node("s3", "sum", ("b0", 0.3), ("b1", 0.7)),
            leaf("a0", "X0", 0), leaf("a1", "X0", 1), leaf("b0", "X1", 0), leaf("b1", "X1", 1),
        ]}))
        evidence = tmp_path / "e.json"
        evidence.write_text(json.dumps({"lambda": {"X0": [1, 0], "X1": [0.5, 0.5]}}))
        code, rep = run_cli(
            capsys, "spn", "gates", "--circuit", str(circuit), "--evidence", str(evidence)
        )
        assert code == 0 and rep["pass"]
        gates = rep["outputs"]["gates"]
        assert gates["s2"] == {"b": None, "children": ["a1"], "global": [0.0], "pi": 0.0}
        assert gates["s3"]["b"] == pytest.approx([0.3, 0.7], abs=1e-15)
        checks = rep["checks"]
        assert checks["local_normalization"]["max_abs_error"] <= 1e-12
        assert checks["global_factorization"]["max_abs_error"] <= 1e-12

    def test_region_matches_engine(self, capsys, files):
        code, rep = run_cli(
            capsys, "spn", "region",
            "--circuit", files["circuit"], "--evidence", files["lambda"],
        )
        assert code == 0 and rep["checks"]["beliefs_agree"]["pass"]
        assert rep["outputs"]["regions"]["X,Y"]["members"] == ["P1", "P2", "r"]

    def test_lipschitz_probe(self, capsys, files):
        code, rep = run_cli(
            capsys, "spn", "lipschitz",
            "--circuit", files["circuit"], "--samples", "40",
        )
        assert code == 0
        assert rep["outputs"]["all_pairs_ok"] is True
        assert rep["outputs"]["n_pairs"] == 40 * 39 // 2

    def test_lipschitz_rejects_a_negative_sample_count(self, capsys, files):
        assert main(["spn", "lipschitz", "--circuit", files["circuit"], "--samples", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: validation failed: sample count")

    def test_lipschitz_rejects_fewer_than_two_samples(self, capsys, files):
        # with one sample or none there is no pair, so the bound would pass unchecked
        for samples in ("0", "1"):
            assert main(["spn", "lipschitz", "--circuit", files["circuit"], "--samples", samples]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: validation failed: sample count must be at least 2, got {samples}\n"
            )

    def test_non_numeric_circuit_weight_or_state_exits_2(self, capsys, files):
        circuit = json.loads(Path(files["circuit"]).read_text())
        for node, field, value in (("r", "weight", "0.6x"), ("lx0", "state", "first")):
            bad = json.loads(json.dumps(circuit))
            entry = next(n for n in bad["nodes"] if n["id"] == node)
            if field == "weight":
                entry["children"][0]["weight"] = value
            else:
                entry["state"] = value
            path = files["root"] / f"nonnumeric_{field}.json"
            path.write_text(json.dumps(bad))
            assert main(["spn", "validate", "--circuit", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: bad input: bad circuit node")

    def test_leaf_state_that_is_not_a_whole_number_exits_2(self, capsys, files):
        circuit = json.loads(Path(files["circuit"]).read_text())
        path = files["root"] / "state.json"
        for state in (1.5, True, "1"):
            bad = json.loads(json.dumps(circuit))
            next(n for n in bad["nodes"] if n["id"] == "lx1")["state"] = state
            path.write_text(json.dumps(bad))
            assert main(["spn", "marginals", "--circuit", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: bad input: bad circuit node")
            assert f"leaf 'lx1': state {state!r} is not a whole number" in captured.err
        next(n for n in circuit["nodes"] if n["id"] == "lx1")["state"] = 1.0
        path.write_text(json.dumps(circuit))
        code, rep = run_cli(capsys, "spn", "marginals", "--circuit", str(path))
        code_int, rep_int = run_cli(capsys, "spn", "marginals", "--circuit", files["circuit"])
        assert code == code_int == 0
        assert rep["outputs"] == rep_int["outputs"]

    def test_non_numeric_evidence_exits_2(self, capsys, files):
        path = files["root"] / "nonnumeric_lambda.json"
        # a negative entry is a semantic error, which also exits 2 for evidence
        for x, problem in (
            (["one", 0.5], "is not numeric"),
            (["a", 1], "is not numeric"),
            ([{"a": 1}, 0.5], "is not numeric"),
            ([-1.0, 0.5], "must be finite and nonnegative"),
        ):
            path.write_text(json.dumps({"schema": "v1", "lambda": {"Y": [1.0, 0.8], "X": x}}))
            argv = ["spn", "marginals", "--circuit", files["circuit"], "--evidence", str(path)]
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: bad input: evidence for 'X' {problem}")


class TestFgCommands:
    def test_bp_tree_oracle(self, capsys, files):
        from klbp import factorgraph, generators

        path = files["root"] / "tree.json"
        path.write_text(json.dumps(factorgraph.fg_to_json(generators.gen_fg(3))))
        code, rep = run_cli(capsys, "fg", "bp", "--graph", str(path))
        assert code == 0
        assert rep["outputs"]["schedule"] == "two-pass"
        assert rep["checks"]["oracle_marginals"]["pass"]

    def test_bp_cycle_converges(self, capsys, files):
        from klbp import factorgraph, generators

        path = files["root"] / "cycle.json"
        path.write_text(
            json.dumps(factorgraph.fg_to_json(generators.gen_fg(5, kind="cycle")))
        )
        code, rep = run_cli(capsys, "fg", "bp", "--graph", str(path))
        assert code == 0
        assert rep["outputs"]["schedule"] == "damped-sync"
        assert rep["checks"]["converged"]["pass"]

    def test_bp_rejects_bad_sweep_caps_and_tolerances(self, capsys, files):
        from klbp import factorgraph, generators

        path = files["root"] / "cycle0.json"
        path.write_text(
            json.dumps(factorgraph.fg_to_json(generators.gen_fg(5, kind="cycle")))
        )
        for flag, value, name in (
            ("--max-sweeps", "0", "max_sweeps"),
            ("--max-sweeps", "-3", "max_sweeps"),
            ("--tol", "nan", "tol"),
            ("--tol", "inf", "tol"),
            ("--tol=-1e-9", None, "tol"),
        ):
            argv = ["fg", "bp", "--graph", str(path), flag] + ([value] if value else [])
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: validation failed: {name}")
        code, rep = run_cli(
            capsys, "fg", "bp", "--graph", str(path), "--max-sweeps", "1", "--tol", "0"
        )
        assert code == 3  # one sweep does not converge, so the check fails
        assert rep["outputs"]["sweeps"] == 1
        assert not rep["checks"]["converged"]["pass"]

    def test_bp_checks_its_options_before_picking_a_schedule(self, capsys, files):
        from klbp import factorgraph, generators

        errors = {}
        for kind in ("tree", "cycle"):
            path = files["root"] / f"options_{kind}.json"
            path.write_text(json.dumps(factorgraph.fg_to_json(generators.gen_fg(1, kind=kind))))
            for flag, value, name in (
                ("--damping", "nan", "damping"),
                ("--damping", "1.5", "damping"),
                ("--tol", "nan", "tol"),
                ("--tol=-1", None, "tol"),
                ("--max-sweeps", "0", "max_sweeps"),
            ):
                argv = ["fg", "bp", "--graph", str(path), flag] + ([value] if value else [])
                assert main(argv) == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith(f"error: validation failed: {name}")
                errors.setdefault((flag, value), set()).add(captured.err)
        assert all(len(messages) == 1 for messages in errors.values())

    def test_bp_rejects_a_cardinality_that_is_not_a_whole_number(self, capsys, files):
        path = files["root"] / "fractional.json"
        for card in (3.5, True, "2"):
            path.write_text(json.dumps({
                "variables": [{"id": "a", "cardinality": 2}, {"id": "b", "cardinality": card}],
                "factors": [{"id": "h", "vars": ["a"], "table": [1.0, 2.0]}],
            }))
            assert main(["fg", "bp", "--graph", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: bad input: bad variable entry {'id': 'b'")
            assert f"cardinality {card!r} is not a whole number" in captured.err

    def test_bp_reports_a_vanished_message(self, capsys, files):
        path = files["root"] / "clash.json"
        path.write_text(json.dumps({
            "variables": [{"id": "a", "cardinality": 2}, {"id": "b", "cardinality": 3}],
            "factors": [
                {"id": "g", "vars": ["a"], "table": [1.0, 0.0]},
                {"id": "k", "vars": ["a"], "table": [0.0, 1.0]},
                {"id": "h", "vars": ["a", "b"], "table": [1.0] * 6},
            ],
        }))
        assert main(["fg", "bp", "--graph", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "message a->h vanished (contradictory constraints)" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bp_reports_an_overflowed_message(self, capsys, files):
        path = files["root"] / "overflow.json"
        path.write_text(json.dumps({
            "variables": [{"id": v, "cardinality": 2} for v in "abc"],
            "factors": [
                {"id": "u", "vars": ["a"], "table": [1e308, 1e308]},
                {"id": "h", "vars": ["a", "b"], "table": [1.0, 2.0, 3.0, 4.0]},
                {"id": "k", "vars": ["b", "c"], "table": [1.0] * 4},
            ],
        }))
        assert main(["fg", "bp", "--graph", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: validation failed: message u->a overflowed\n"

    def test_bp_rejects_a_graph_with_no_variables(self, capsys, files):
        path = files["root"] / "empty_fg.json"
        path.write_text(json.dumps({"schema": "v1", "variables": [], "factors": []}))
        assert main(["fg", "bp", "--graph", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: validation failed: cannot run BP on a factor graph with no variables\n"
        )

    def test_wr_rejects_a_lift_past_52_axes(self, capsys, files):
        # 27 pairwise factors along a chain of one-state variables: 54 axes
        path = files["root"] / "wide_lift.json"
        path.write_text(json.dumps({
            "variables": [{"id": f"v{i}", "cardinality": 1} for i in range(28)],
            "factors": [
                {"id": f"e{i}", "vars": [f"v{i}", f"v{i + 1}"], "table": [1.0]}
                for i in range(27)
            ],
        }))
        assert main(["fg", "wr", "--graph", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: validation failed: replica lift has 54 axes; the lift's "
            "projections number at most 52 einsum axes\n"
        )

    def test_wr_tree_matches_oracle(self, capsys, files):
        from klbp import factorgraph, generators

        path = files["root"] / "tree2.json"
        path.write_text(json.dumps(factorgraph.fg_to_json(generators.gen_fg(7))))
        code, rep = run_cli(capsys, "fg", "wr", "--graph", str(path))
        assert code == 0
        assert rep["checks"]["oracle_marginals"]["pass"]
        assert rep["checks"]["converged"]["pass"]

    def test_project_diagonal(self, capsys, files):
        code, rep = run_cli(
            capsys, "fg", "project",
            "--input", files["joint"], "--family", "diagonal", "--shape", "2,2",
        )
        assert code == 0
        assert rep["outputs"]["projection"] == pytest.approx([0.4, 0.6])

    def test_project_product_and_copies(self, capsys, files):
        code, rep = run_cli(
            capsys, "fg", "project",
            "--input", files["joint"], "--family", "product", "--shape", "2,2",
        )
        assert code == 0 and rep["pass"]
        code, rep = run_cli(
            capsys, "fg", "project", "--input", files["copies"], "--family", "copies"
        )
        assert code == 0
        geo = np.sqrt(np.array([0.2, 0.8]) * np.array([0.5, 0.5]))
        assert rep["outputs"]["projection"] == pytest.approx(geo / geo.sum())

    def test_wr_rejects_bad_iteration_caps_and_tolerances(self, capsys, files):
        from klbp import factorgraph, generators

        path = files["root"] / "wr_caps.json"
        path.write_text(json.dumps(factorgraph.fg_to_json(generators.gen_fg(5, kind="cycle"))))
        for flag, value, name in (
            ("--max-iters", "0", "max_iters"),
            ("--max-iters", "-2", "max_iters"),
            ("--tol", "nan", "tol"),
            ("--tol", "inf", "tol"),
            ("--tol=-1e-9", None, "tol"),
        ):
            argv = ["fg", "wr", "--graph", str(path), flag] + ([value] if value else [])
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: validation failed: {name}")

    def test_non_numeric_distribution_exits_2(self, capsys, files):
        path = files["root"] / "nonnumeric_probs.json"
        for probs, code in ((["a", 0.6, 0.2, 0.1], 2), ([-0.1, 0.6, 0.4, 0.1], 3)):
            path.write_text(json.dumps({"probs": probs}))
            argv = ["fg", "project", "--input", str(path), "--family", "diagonal", "--shape", "2,2"]
            assert main(argv) == code
            assert capsys.readouterr().out == ""

    def test_project_shape_must_be_whole_numbers(self, capsys, files):
        argv = ["fg", "project", "--input", files["joint"], "--family", "diagonal", "--shape"]
        assert main([*argv, "2.5,2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad input: bad whole number 2.5")
        code, rep = run_cli(capsys, *argv, "2.0,2")
        assert code == 0
        assert rep["outputs"]["projection"] == pytest.approx([0.4, 0.6])

    def test_project_needs_a_shape_for_diagonal_and_product(self, capsys, files):
        for family in ("diagonal", "product"):
            assert main(["fg", "project", "--input", files["joint"], "--family", family]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: bad input: --shape is required for the {family} family\n"

    @pytest.mark.parametrize(
        "obj, family, message",
        [
            ({"dists": 3}, "copies", "consensus input needs a 'dists' list"),
            ([0.5, 0.5], "copies", "consensus input needs a 'dists' list"),
            ({"dists": [{"probs": [0.5, 0.5], "outcomes": 5}]}, "copies", "'outcomes' must be a list"),
            ({"probs": [0.1, 0.2, 0.3, 0.4], "outcomes": 5}, "product", "'outcomes' must be a list"),
            ({"probs": [0.2, 0.3, 0.5], "outcomes": "xyz"}, "product", "'outcomes' must be a list"),
        ],
    )
    def test_project_malformed_json_exits_2(self, capsys, files, obj, family, message):
        path = files["root"] / "malformed_project.json"
        path.write_text(json.dumps(obj))
        size = len(obj.get("probs", [])) if isinstance(obj, dict) else 0
        shape = ["--shape", str(size)] if family == "product" else []
        assert main(["fg", "project", "--input", str(path), "--family", family, *shape]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad input: ") and message in captured.err
        assert "Traceback" not in captured.err


class TestDagCommands:
    def test_adjoints_logistic_point(self, capsys, files):
        code, rep = run_cli(
            capsys, "dag", "adjoints",
            "--graph", files["logistic"], "--factor", "exp:2", "--at", "w=0,x=1",
        )
        assert code == 0
        assert rep["outputs"]["adjoints"]["w"] == pytest.approx(0.5, abs=1e-12)
        assert rep["outputs"]["adjoints"]["x"] == pytest.approx(0.0, abs=1e-12)
        assert rep["checks"]["independent_accumulator"]["pass"]
        assert rep["checks"]["finite_differences"]["pass"]

    def test_eval(self, capsys, files):
        code, rep = run_cli(
            capsys, "dag", "eval", "--graph", files["logistic"], "--at", "w=0,x=1"
        )
        assert code == 0
        assert rep["outputs"]["output"] == pytest.approx(0.5)
        code, rep = run_cli(
            capsys, "dag", "eval", "--graph", files["exp"], "--at=x=1000"
        )
        assert code == 3 and rep is None
        # a/b is finite, but its adjoint with respect to b overflows
        code, rep = run_cli(
            capsys, "dag", "eval", "--graph", files["div"], "--at=a=1,b=1e-200"
        )
        assert code == 0
        code, rep = run_cli(
            capsys, "dag", "adjoints", "--graph", files["div"],
            "--factor", "exp:1", "--at=a=1,b=1e-200",
        )
        assert code == 3 and rep is None
        # d(x**0)/dx is 0, also at x = 0
        code, rep = run_cli(
            capsys, "dag", "adjoints", "--graph", files["pow0"],
            "--factor", "exp:1", "--at=x=0",
        )
        assert code == 0
        assert rep["outputs"]["adjoints"]["x"] == 0.0

    def test_gauge_slope_invariant(self, capsys, files):
        code, rep = run_cli(
            capsys, "dag", "gauge",
            "--graph", files["logistic"], "--factor", "logistic:1:2",
            "--at", "w=0.3,x=1.2", "--var", "m",
        )
        assert code == 0
        assert rep["checks"]["gauge_invariance"]["max_abs_error"] <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gauge_fails_closed_on_a_nan_slope(self, capsys, tmp_path):
        # at x0 = 1e300 the belief grid collapses to one float: a 0/0 slope
        prefix = tmp_path / "d"
        assert main(["gen", "dag", "--seed", "1", "--out", str(prefix)]) == 0
        capsys.readouterr()
        code = main([
            "dag", "gauge", "--graph", f"{prefix}.dag.json", "--factor", "exp:1",
            "--at", "x0=1e300,x1=1", "--var", "x0",
        ])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: validation failed: slope grid points coincide at 1e+300\n"

    def test_bad_factor_spec_exits_2(self, capsys, files):
        code, _ = run_cli(
            capsys, "dag", "adjoints",
            "--graph", files["logistic"], "--factor", "banana:1", "--at", "w=0,x=1",
        )
        assert code == 2

    def test_repeated_input_name_exits_2(self, capsys, files):
        code = main(["dag", "eval", "--graph", files["logistic"], "--at", "w=1,w=0.7,x=1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: bad input: input 'w' is given more than once\n"

    def test_unknown_input_name_exits_2(self, capsys, files):
        code = main(["dag", "eval", "--graph", files["logistic"], "--at", "w=0,x=1,zz=3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: bad input: 'zz' is not an input of the graph\n"

    def test_gauge_rejects_a_trial_count_below_one(self, capsys, files):
        argv = [
            "dag", "gauge", "--graph", files["logistic"], "--factor", "logistic:1:2",
            "--at", "w=0.3,x=1.2", "--var", "m", "--trials",
        ]
        for trials in ("0", "-2"):
            assert main([*argv, trials]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: validation failed: trial count")


class TestPosteriorCommands:
    def test_grad_coin_closed_form(self, capsys, files):
        code, rep = run_cli(
            capsys, "posterior", "grad",
            "--model", files["coin"], "--theta", str(np.log(2.0)),
        )
        assert code == 0
        assert rep["outputs"]["marginal_likelihood"] == pytest.approx(1.5, abs=1e-12)
        assert rep["outputs"]["gradient"] == pytest.approx([2.0 / 3.0], abs=1e-12)
        assert rep["checks"]["marginal_route"]["pass"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grad_sharp_squared_error(self, capsys, files):
        # the posterior sits on x = 1, where s(z) = -(1 - 3)/1e-3; the
        # evidence underflows to 0.0 but its log stays exact
        model = json.loads(Path(files["coin"]).read_text())
        model["variables"][0].update(grid=np.linspace(-1.0, 1.0, 5).tolist(), prior=[0.2] * 5)
        model["likelihood"] = {
            "kind": "neg_loss", "loss": "squared_error", "param": 3.0, "temperature": 1e-3,
        }
        path = files["root"] / "sharp.json"
        path.write_text(json.dumps(model))
        code, rep = run_cli(capsys, "posterior", "grad", "--model", str(path), "--theta", "1")
        assert code == 0 and rep["pass"]
        assert rep["checks"]["finite_differences"]["pass"]
        assert rep["outputs"]["gradient"] == pytest.approx([2000.0], rel=1e-12)
        assert rep["outputs"]["marginal_likelihood"] == 0.0

    def test_dirac(self, capsys, files):
        code, rep = run_cli(
            capsys, "posterior", "dirac",
            "--model", files["coin"], "--theta", "0.7", "--at", "1",
        )
        assert code == 0
        assert rep["outputs"]["point_gradient"] == pytest.approx([1.0], abs=1e-12)
        assert rep["checks"]["dirac_limit"]["pass"]

    def test_dirac_point_must_be_whole_numbers(self, capsys, files):
        argv = ["posterior", "dirac", "--model", files["coin"], "--theta", "0.7", "--at"]
        assert main([*argv, "0.7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad input: bad whole number 0.7")
        code, rep = run_cli(capsys, *argv, "1.0")
        assert code == 0
        assert rep["outputs"]["point_gradient"] == pytest.approx([1.0], abs=1e-12)

    def test_non_numeric_grid_or_prior_exits_2(self, capsys, files):
        model = json.loads(Path(files["coin"]).read_text())
        # a negative prior is a semantic error, which also exits 2 for models
        for field, value in (("grid", [0.0, "one"]), ("prior", ["half", 0.5]), ("prior", [-0.5, 1.5])):
            bad = json.loads(json.dumps(model))
            bad["variables"][0][field] = value
            path = files["root"] / f"nonnumeric_{field}.json"
            path.write_text(json.dumps(bad))
            assert main(["posterior", "grad", "--model", str(path), "--theta", "0.5"]) == 2
            assert capsys.readouterr().err.startswith("error: bad input:")


class TestOracleCompare:
    def test_each_kind_small(self, capsys):
        for kind in ("spn", "fg", "dag"):
            code, rep = run_cli(
                capsys, "oracle", "compare", "--kind", kind, "--count", "3"
            )
            assert code == 0, kind
            assert rep["pass"], kind

    def test_posterior_kind(self, capsys):
        code, rep = run_cli(
            capsys, "oracle", "compare", "--kind", "posterior", "--count", "2"
        )
        assert code == 0 and rep["pass"]

    def test_count_below_one_exits_3(self, capsys):
        for count in ("0", "-3"):
            assert main(["oracle", "compare", "--count", count]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: validation failed: instance count")


SEEDED = {
    "spn lipschitz": ["spn", "lipschitz", "--circuit", "{circuit}"],
    "fg project": ["fg", "project", "--input", "{joint}", "--family", "diagonal", "--shape", "2,2"],
    "dag gauge": [
        "dag", "gauge", "--graph", "{logistic}", "--factor", "logistic:1:2",
        "--at", "w=0.3,x=1.2", "--var", "m",
    ],
    "oracle compare": ["oracle", "compare", "--count", "1"],
    "gen": ["gen", "fg", "--out", "{root}/never"],
}


@pytest.mark.parametrize("command", sorted(SEEDED))
def test_negative_seed_exits_2(capsys, files, command):
    argv = [arg.format(**files) for arg in SEEDED[command]]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: expected a non-negative integer, got '-1'" in captured.err


@pytest.mark.parametrize("kind,seed", [("spn", 3), ("fg", 4), ("dag", 5), ("dag", 6), ("posterior", 7)])
def test_compare_reports_the_subcommand_error(capsys, tmp_path, kind, seed):
    """``oracle compare`` and the subcommands share their checks, so on the
    instance ``gen`` writes for a seed both report the same error."""
    prefix = str(tmp_path / kind)
    assert main(["gen", kind, "--seed", str(seed), "--out", prefix]) == 0
    capsys.readouterr()
    code, rep = run_cli(
        capsys, "oracle", "compare", "--kind", kind, "--count", "1", "--seed", str(seed)
    )
    assert code == 0
    compared = rep["outputs"][kind]["max_error"]

    def load(suffix):
        return json.loads(Path(f"{prefix}.{suffix}.json").read_text())

    if kind == "spn":
        files = ["--circuit", f"{prefix}.circuit.json", "--evidence", f"{prefix}.evidence.json"]
        runs = {"marginals": (["spn", "marginals", *files], "oracle_marginals")}
    elif kind == "fg":
        runs = {"marginals": (["fg", "bp", "--graph", f"{prefix}.fg.json"], "oracle_marginals")}
    elif kind == "dag":
        point = ",".join(f"{k}={float(v)!r}" for k, v in sorted(load("at")["inputs"].items()))
        factor = "exp:2" if seed % 2 else "sqerr:0.25:1.5"
        argv = ["dag", "adjoints", "--graph", f"{prefix}.dag.json", f"--at={point}", "--factor", factor]
        runs = {"adjoints": (argv, "independent_accumulator")}
    else:
        theta = ",".join(repr(float(t)) for t in load("theta")["theta"])
        model = ["--model", f"{prefix}.model.json", f"--theta={theta}"]
        origin = ",".join("0" * len(load("model")["variables"]))
        runs = {
            "finite_differences": (["posterior", "grad", *model], "finite_differences"),
            "dirac": (["posterior", "dirac", *model, f"--at={origin}"], "dirac_limit"),
        }
    for name, (argv, check) in runs.items():
        code, rep = run_cli(capsys, *argv)
        assert code == 0, name
        assert rep["checks"][check]["max_abs_error"] == compared[name], name


class TestGen:
    def test_spn_gen_deterministic_and_valid(self, capsys, files, monkeypatch):
        monkeypatch.chdir(files["root"])
        code, _ = run_cli(
            capsys, "gen", "spn", "--vars", "3", "--states", "2",
            "--seed", "1", "--out", "g1",
        )
        assert code == 0
        first = (files["root"] / "g1.circuit.json").read_bytes()
        code, _ = run_cli(
            capsys, "gen", "spn", "--vars", "3", "--states", "2",
            "--seed", "1", "--out", "g1",
        )
        assert code == 0
        assert (files["root"] / "g1.circuit.json").read_bytes() == first
        code, rep = run_cli(capsys, "spn", "validate", "--circuit", "g1.circuit.json")
        assert code == 0 and rep["outputs"]["valid"]

    def test_infeasible_size_exits_3(self, capsys, files, monkeypatch):
        monkeypatch.chdir(files["root"])
        code, _ = run_cli(
            capsys, "gen", "spn", "--vars", "9", "--states", "5",
            "--seed", "1", "--out", "big",
        )
        assert code == 3

    def test_other_kinds(self, capsys, files, monkeypatch):
        monkeypatch.chdir(files["root"])
        for kind in ("fg", "dag", "posterior"):
            code, _ = run_cli(capsys, "gen", kind, "--seed", "4", "--out", f"g_{kind}")
            assert code == 0, kind
        code, rep = run_cli(capsys, "fg", "bp", "--graph", "g_fg.fg.json")
        assert code == 0


def test_worst_error_keeps_a_nan_wherever_it_comes():
    assert math.isnan(worst_error([0.5, float("nan"), 2.0]))
    assert math.isnan(worst_error(iter([1.0, 3.0, np.float64("nan")])))
    assert max(0.5, float("nan"), 2.0) == 2.0  # the builtin drops it
    assert worst_error([0.5, 2.0, 1.0]) == 2.0
    assert worst_error([]) == 0.0


def test_worst_error_reduces_an_ndarray_as_it_reads_a_list():
    assert math.isnan(worst_error(np.array([0.5, 2.0, np.nan, 1.0])))
    assert worst_error(np.array([0.5, 2.0, 1.0])) == 2.0
    for zeros in (np.array([-0.0]), np.array([-0.0, -1.0]), np.array([])):
        worst = worst_error(zeros)
        assert worst == 0.0 and math.copysign(1.0, worst) == 1.0
        assert type(worst) is float
    # numpy's own reduction gives -0.0, which a JSON report prints as "-0.0"
    assert math.copysign(1.0, np.max(np.array([-0.0]), initial=0.0)) == -1.0


class TestReportPlumbing:
    @pytest.mark.parametrize("command", ["marginals", "gates", "kkt"])
    def test_byte_stable_reports(self, files, command):
        cmd = [
            sys.executable, "-m", "klbp.cli", "spn", command,
            "--circuit", files["circuit"], "--evidence", files["lambda"],
        ]
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert a == b
        assert b"wall_time" not in a  # timing stays on stderr

    def test_closed_stdout_keeps_the_report_exit_code(self, files):
        cmd = [
            sys.executable, "-m", "klbp.cli", "dag", "eval",
            "--graph", files["logistic"], "--at", "w=0,x=1",
        ]
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        child.stdout.close()  # the child is still importing numpy here
        _, err = child.communicate(timeout=60)
        assert child.returncode == 0
        assert b"Traceback" not in err and b"BrokenPipeError" not in err
        assert err.startswith(b"wall_time_s=")

    def test_out_redirects_report(self, capsys, files):
        dest = files["root"] / "report.json"
        code, rep = run_cli(
            capsys, "spn", "eval", "--circuit", files["circuit"], "--out", str(dest)
        )
        assert code == 0 and rep is None
        saved = json.loads(dest.read_text())
        assert saved["outputs"]["value"] == pytest.approx(1.0)  # all-ones evidence

    def test_input_digests_are_sha256(self, capsys, files):
        import hashlib

        code, rep = run_cli(capsys, "spn", "validate", "--circuit", files["circuit"])
        want = hashlib.sha256(open(files["circuit"], "rb").read()).hexdigest()
        assert rep["inputs"][files["circuit"]] == want


def _seed3_graph(scale: dict, entry=None) -> dict:
    """The ``gen fg --seed 3`` graph with the named factor tables scaled, and
    optionally one table entry replaced."""
    from klbp import factorgraph, generators

    graph = factorgraph.fg_to_json(generators.gen_fg(3))
    for fac in graph["factors"]:
        fac["table"] = [v * scale.get(fac["id"], 1.0) for v in fac["table"]]
        if entry and fac["id"] == entry[0]:
            fac["table"][entry[1]] = entry[2]
    return graph


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "scale,entry",
    [({"root": 1e-200, "e1": 1e-200}, None), ({}, ("e1", 0, 1e308))],
    ids=["tables-scaled-by-1e-200", "entry-1e308"],
)
def test_fg_bp_oracle_survives_extreme_tables(capsys, tmp_path, scale, entry):
    """The enumeration oracle works in logs, so tables whose product under- or
    overflows still check tree BP."""
    from klbp import factorgraph

    graph = _seed3_graph(scale, entry)
    path = tmp_path / "fg.json"
    path.write_text(json.dumps(graph))
    code = main(["fg", "bp", "--graph", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.startswith("wall_time_s=") and captured.err.count("\n") == 1
    rep = json.loads(captured.out)
    assert rep["checks"]["oracle_marginals"]["pass"]
    assert rep["checks"]["oracle_marginals"]["max_abs_error"] <= 1e-10
    # scaling a table is a gauge: the beliefs are those of the unscaled graph
    fg = factorgraph.fg_from_json(_seed3_graph({}, entry))
    tree = factorgraph.bp_beliefs(fg, factorgraph.bp_run_tree(fg))
    for name, belief in rep["outputs"]["beliefs"].items():
        np.testing.assert_allclose(belief, tree[name], rtol=0, atol=1e-10)


@pytest.mark.parametrize("bad", [1.5, float("nan")])
def test_kkt_checks_report_the_worst_violation(capsys, files, monkeypatch, bad):
    from klbp import spn

    real = spn.kkt_multipliers

    def spoiled(*args):
        kkt = real(*args)
        kkt["pi"]["r"] = bad  # the views write through to the arrays the checks read
        kkt["mu"][next(iter(kkt["mu"]))] = -bad
        return kkt

    monkeypatch.setattr(spn, "kkt_multipliers", spoiled)
    code, rep = run_cli(
        capsys, "spn", "kkt", "--circuit", files["circuit"], "--evidence", files["lambda"]
    )
    assert code == 3
    pi, mu = rep["checks"]["pi_in_unit_interval"], rep["checks"]["mu_positive"]
    assert not pi["pass"] and not mu["pass"] and pi["tol"] == mu["tol"] == 0
    if math.isnan(bad):
        assert pi["max_abs_error"] == mu["max_abs_error"] == "nan"
    else:
        assert pi["max_abs_error"] == pytest.approx(0.5 - 1e-12, abs=1e-15)
        assert mu["max_abs_error"] == 1.5


def test_huge_leaf_state_gives_a_short_message(capsys, tmp_path):
    from klbp import generators, spn

    circuit, _ = generators.gen_spn(3)
    doc = spn.circuit_to_json(circuit)
    leaf = next(n for n in doc["nodes"] if n["kind"] == "leaf")
    leaf["state"] = 1e308
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code = main(["spn", "validate", "--circuit", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert f"variable {leaf['var']!r} of leaf {leaf['id']!r} needs 1.000e+308 entries" in err
    assert len(err) < 200
