import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from klbp import oracle

from klbp.errors import BudgetError, SchemaError, ValidationError
from klbp.generators import gen_spn
from klbp.oracle import enumerate_spn_marginals, finite_diff_grad
from klbp.spn import (
    AdjointMap,
    _evidence_column,
    Evidence,
    SpnCircuit,
    SpnNode,
    all_ones_evidence,
    circuit_from_json,
    circuit_to_json,
    downward_pass,
    euler_residuals,
    evidence_from_json,
    evidence_to_json,
    gate_report,
    kkt_multipliers,
    marginal_arrays,
    marginal_batch,
    upward_pass,
    upward_pass_log,
    validate_spn,
    variable_marginals,
)


def two_component_circuit():
    # r = 0.6 * (X=0)(Y=0) + 0.4 * (X=1)(Y=1)
    nodes = [
        SpnNode("lx0", "leaf", var="X", state=0),
        SpnNode("lx1", "leaf", var="X", state=1),
        SpnNode("ly0", "leaf", var="Y", state=0),
        SpnNode("ly1", "leaf", var="Y", state=1),
        SpnNode("P1", "product", ("lx0", "ly0")),
        SpnNode("P2", "product", ("lx1", "ly1")),
        SpnNode("r", "sum", ("P1", "P2"), (0.6, 0.4)),
    ]
    return SpnCircuit(nodes, "r")


def soft_evidence():
    return Evidence({"X": [1.0, 0.5], "Y": [1.0, 0.8]})


def run_passes(circuit, e):
    S = upward_pass(circuit, e)
    D = downward_pass(circuit, S)
    return S, D


class TestStructure:
    def test_duplicate_id(self):
        with pytest.raises(ValidationError, match="duplicate"):
            SpnCircuit(
                [
                    SpnNode("a", "leaf", var="X", state=0),
                    SpnNode("a", "leaf", var="X", state=1),
                ],
                "a",
            )

    def test_unknown_child(self):
        with pytest.raises(ValidationError, match="unknown"):
            SpnCircuit([SpnNode("p", "product", ("ghost",))], "p")

    def test_missing_root(self):
        with pytest.raises(ValidationError, match="root"):
            SpnCircuit([SpnNode("a", "leaf", var="X", state=0)], "b")

    def test_cycle_rejected(self):
        nodes = [
            SpnNode("a", "product", ("b",)),
            SpnNode("b", "product", ("a",)),
        ]
        with pytest.raises(ValidationError, match="cycle"):
            SpnCircuit(nodes, "a")

    def test_leaf_needs_var_and_state(self):
        with pytest.raises(ValidationError):
            SpnNode("l", "leaf", var="X")
        with pytest.raises(ValidationError):
            SpnNode("l", "leaf", state=0)

    def test_leaf_state_must_be_a_whole_number(self):
        for state in (1.5, True, "1", float("nan")):
            message = re.escape(f"leaf 'l': state {state!r} is not a whole number")
            with pytest.raises(ValidationError, match=message):
                SpnNode("l", "leaf", var="X", state=state)
        leaf = SpnNode("l", "leaf", var="X", state=1.0)
        assert leaf.state == 1 and type(leaf.state) is int

    def test_weight_count_mismatch(self):
        with pytest.raises(ValidationError):
            SpnNode("s", "sum", ("a", "b"), (1.0,))

    def test_scopes_and_order(self):
        c = two_component_circuit()
        assert c.scope("r") == frozenset({"X", "Y"})
        assert c.scope("P1") == frozenset({"X", "Y"})
        assert c.scope("lx0") == frozenset({"X"})
        assert c.variable_order() == ["X", "Y"]
        assert c.cardinality("X") == 2


class TestValidationReport:
    def test_valid_circuit(self):
        report = validate_spn(two_component_circuit())
        assert report["valid"]
        assert report["scopes"]["r"] == ("X", "Y")

    def test_completeness_violation(self):
        nodes = [
            SpnNode("lx", "leaf", var="X", state=0),
            SpnNode("ly", "leaf", var="Y", state=0),
            SpnNode("s", "sum", ("lx", "ly"), (0.5, 0.5)),
        ]
        report = validate_spn(SpnCircuit(nodes, "s"))
        assert not report["valid"]
        assert ("s", "lx") in report["completeness"]
        assert ("s", "ly") in report["completeness"]

    def test_decomposability_violation(self):
        nodes = [
            SpnNode("a", "leaf", var="X", state=0),
            SpnNode("b", "leaf", var="X", state=1),
            SpnNode("p", "product", ("a", "b")),
        ]
        report = validate_spn(SpnCircuit(nodes, "p"))
        assert not report["valid"]
        assert report["decomposability"] == [("p", "a", "b", "X")]

    def test_weight_positivity_reported(self):
        nodes = [
            SpnNode("a", "leaf", var="X", state=0),
            SpnNode("b", "leaf", var="X", state=1),
            SpnNode("s", "sum", ("a", "b"), (0.5, -0.5)),
        ]
        report = validate_spn(SpnCircuit(nodes, "s"))
        assert report["positivity"] == [("s", 1)]

    def test_unreachable_node(self):
        nodes = [
            SpnNode("a", "leaf", var="X", state=0),
            SpnNode("dangling", "leaf", var="X", state=1),
        ]
        report = validate_spn(SpnCircuit(nodes, "a"))
        assert report["unreachable"] == ["dangling"]
        assert not report["valid"]

    def test_mutating_a_report_does_not_change_the_next_one(self):
        nodes = [
            SpnNode("a", "leaf", var="X", state=0),
            SpnNode("b", "leaf", var="X", state=1),
            SpnNode("s", "sum", ("a", "b"), (0.5, -0.5)),
            SpnNode("p", "product", ("a", "b")),
        ]
        c = SpnCircuit(nodes, "s")
        first = validate_spn(c)
        expected = json.dumps(first, sort_keys=True)
        for key in ("completeness", "decomposability", "positivity", "unreachable"):
            first[key].append(("junk",))
        first["scopes"]["a"] = ("junk",)
        first["valid"] = True
        assert json.dumps(validate_spn(c), sort_keys=True) == expected
        with pytest.raises(ValidationError, match="positivity"):
            upward_pass(c, Evidence({"X": [1.0, 1.0]}))

    @pytest.mark.parametrize("seed", range(40))
    def test_decomposability_matches_the_pairwise_rule(self, seed):
        c = _overlapping_products(seed)
        expected = []
        for n in c.nodes:
            if n.kind != "product":
                continue
            for i, j in itertools.combinations(range(len(n.children)), 2):
                shared = c.scope(n.children[i]) & c.scope(n.children[j])
                if shared:
                    expected.append((n.id, n.children[i], n.children[j], sorted(shared)[0]))
        got = validate_spn(c)["decomposability"]
        assert got == expected
        assert got  # every seed draws at least one overlapping product

    def test_invalid_circuit_blocks_passes(self):
        nodes = [
            SpnNode("a", "leaf", var="X", state=0),
            SpnNode("b", "leaf", var="X", state=1),
            SpnNode("p", "product", ("a", "b")),
        ]
        with pytest.raises(ValidationError, match="decomposability"):
            upward_pass(SpnCircuit(nodes, "p"), Evidence({"X": [1.0, 1.0]}))


class TestEvidence:
    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            Evidence({"X": [0.5, -0.1]})

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError, match="empty support"):
            Evidence({"X": [0.0, 0.0]})

    @pytest.mark.parametrize(
        "lam, message",
        [
            ({"A": [1.0], "B": [[1.0]], "C": [-1.0]}, "'B' must be a 1-d vector"),
            ({"A": [1.0], "B": [], "C": [-1.0]}, "'B' must be a 1-d vector"),
            ({"A": [0.0, 0.0], "B": 1.0}, "'A' has empty support"),
            ({"A": [1.0], "B": [-1.0, 0.0], "C": [0.0]}, "'B' must be finite and nonnegative"),
            ({"A": [1.0], "B": [np.nan, 1.0]}, "'B' must be finite and nonnegative"),
            ({"A": [1.0], "B": [0.0], "C": [np.inf]}, "'B' has empty support"),
        ],
    )
    def test_first_failing_variable_and_check_are_named(self, lam, message):
        with pytest.raises(ValidationError, match=message):
            Evidence(lam)

    def test_caller_arrays_are_copied_not_frozen(self):
        base = np.array([0.2, 0.8, 0.5, 0.5])
        e = Evidence({"X": base[:2], "Y": base[2:]})
        base[:] = 0.0
        np.testing.assert_array_equal(e.lam["X"], [0.2, 0.8])
        np.testing.assert_array_equal(e.lam["Y"], [0.5, 0.5])
        assert base.flags.writeable
        with pytest.raises(ValueError):
            e.lam["X"][0] = 1.0
        assert Evidence({}).lam == {}

    def test_soft_flag(self):
        assert Evidence({"X": [0.2, 0.3]}).is_soft()
        assert not Evidence({"X": [1.0, 0.0]}).is_soft()

    def test_wrong_length(self):
        c = two_component_circuit()
        with pytest.raises(ValidationError, match="states"):
            upward_pass(c, Evidence({"X": [1.0, 1.0, 1.0], "Y": [1.0, 1.0]}))

    def test_missing_variable(self):
        c = two_component_circuit()
        with pytest.raises(ValidationError, match="missing"):
            upward_pass(c, Evidence({"X": [1.0, 1.0]}))

    @pytest.mark.parametrize("run", [upward_pass, upward_pass_log])
    def test_missing_variable_without_checks(self, run):
        c = two_component_circuit()
        with pytest.raises(ValidationError, match="evidence missing variable 'Y'"):
            run(c, Evidence({"X": [1.0, 1.0]}), check=False)

    @pytest.mark.parametrize(
        "lam, message",
        [
            ({"X": [1.0, 1.0]}, "evidence missing variable 'Y'"),
            ({"Y": [1.0, 1.0], "X": [1.0, 1.0, 1.0]}, "evidence for 'X' has 3 states, circuit uses 2"),
        ],
    )
    def test_mismatched_evidence_is_named_on_every_path(self, lam, message):
        c = two_component_circuit()
        e = Evidence(lam)
        S, D = run_passes(c, soft_evidence())
        for run in (
            lambda: upward_pass(c, e, check=False),
            lambda: upward_pass_log(c, e, check=False),
            lambda: marginal_arrays(c, e, S, D),
            lambda: euler_residuals(c, e, S, D),
        ):
            with pytest.raises(ValidationError, match=message):
                run()

    def test_lam_is_a_read_only_mapping_of_read_only_views(self):
        e = Evidence({"Y": [1.0, 0.8], "X": [1.0, 0.5]})
        assert e.names == ("Y", "X") and list(e.lam) == ["Y", "X"] and "X" in e.lam
        with pytest.raises(TypeError):
            e.lam["X"] = np.ones(2)
        assert not any(view.flags.writeable for view in e.lam.values())
        assert all(np.shares_memory(view, e._flat) for view in e.lam.values())
        copied = dict(e.lam)
        assert list(copied) == ["Y", "X"]
        assert all(copied[v] is view for v, view in e.lam.items())
        again = Evidence(e.lam)
        assert again.names == e.names
        assert again._flat.tobytes() == e._flat.tobytes()

    def test_matching_layout_is_read_in_place(self):
        c = two_component_circuit()
        e = soft_evidence()  # variables in the circuit's variable_order
        S, D = run_passes(c, e)
        marginal_arrays(c, e, S, D)
        upward_pass_log(c, e)
        assert "lam" not in vars(e)  # no pass built the per-variable views
        assert np.shares_memory(_evidence_column(c, e), e._flat)
        turned = Evidence({"Y": [1.0, 0.8], "X": [1.0, 0.5]})
        column = _evidence_column(c, turned)
        assert not np.shares_memory(column, turned._flat)
        assert column.tobytes() == _evidence_column(c, e).tobytes()

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("seed", range(0, 300, 25))
    def test_passes_are_bitwise_equal_in_any_variable_order(self, seed, shared):
        c, e = gen_spn(seed, shared=shared)
        variants = [
            Evidence({v: e.lam[v] for v in reversed(e.names)}),
            Evidence({"extra": [2.0, 0.5], **e.lam}),
            Evidence({**e.lam, "extra": [1.0]}),
        ]
        S, D = run_passes(c, e)
        want = [S.S, D.D, D.E, upward_pass_log(c, e)._A, *marginal_arrays(c, e, S, D).values()]
        for other in variants:
            S2, D2 = run_passes(c, other)
            got = [S2.S, D2.D, D2.E, upward_pass_log(c, other)._A]
            got += marginal_arrays(c, other, S2, D2).values()
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestPasses:
    def test_upward_values(self):
        S, _ = run_passes(two_component_circuit(), soft_evidence())
        assert S.values["P1"] == 1.0
        assert S.values["P2"] == pytest.approx(0.4, abs=1e-15)
        assert S.values["r"] == pytest.approx(0.76, abs=1e-15)
        with pytest.raises(TypeError):
            S.values["r"] = 1.0
        with pytest.raises(ValueError):
            S.S[0] = 1.0

    def test_downward_values(self):
        _, D = run_passes(two_component_circuit(), soft_evidence())
        assert D.values["P1"] == pytest.approx(0.6, abs=1e-15)
        assert D.values["P2"] == pytest.approx(0.4, abs=1e-15)
        assert D.values["ly1"] == pytest.approx(0.2, abs=1e-15)
        assert D.values["r"] == 1.0
        with pytest.raises(TypeError):
            D.values["r"] = 0.0
        with pytest.raises(TypeError):
            D.edges["r", 0] = 0.0

    def test_all_ones_evidence_gives_partition(self):
        c = two_component_circuit()
        S = upward_pass(c, all_ones_evidence(c))
        assert S.root_value(c) == pytest.approx(1.0, abs=1e-15)

    def test_empty_support_root_raises(self):
        c = two_component_circuit()
        e = Evidence({"X": [0.0, 1.0], "Y": [1.0, 0.0]})
        with pytest.raises(ValidationError, match="empty support"):
            upward_pass(c, e)

    def test_log_linear_agreement_example(self):
        c = two_component_circuit()
        e = soft_evidence()
        S = upward_pass(c, e)
        logs = upward_pass_log(c, e)
        for nid in c.topo():
            assert np.exp(logs[nid]) == pytest.approx(S.values[nid], rel=1e-12)

    def test_log_handles_hard_zero(self):
        c = two_component_circuit()
        e = Evidence({"X": [1.0, 0.0], "Y": [1.0, 1.0]})
        logs = upward_pass_log(c, e)
        assert logs["P2"] == -np.inf
        with pytest.raises(TypeError):
            logs["P2"] = 0.0
        assert np.exp(logs["r"]) == pytest.approx(0.6, rel=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_log_linear_agreement_random(self, seed):
        c, e = gen_spn(seed)
        S = upward_pass(c, e)
        logs = upward_pass_log(c, e)
        assert np.exp(logs[c.root]) == pytest.approx(S.root_value(c), rel=1e-9)

    def test_deep_chain_log_agreement(self):
        # alternating unary sums/products, depth 12
        nodes = [SpnNode("leaf", "leaf", var="X", state=0)]
        prev = "leaf"
        for d in range(12):
            nid = f"n{d}"
            if d % 2 == 0:
                nodes.append(SpnNode(nid, "sum", (prev,), (0.7,)))
            else:
                nodes.append(SpnNode(nid, "product", (prev,)))
            prev = nid
        c = SpnCircuit(nodes, prev)
        e = Evidence({"X": [0.9]})
        S = upward_pass(c, e)
        logs = upward_pass_log(c, e)
        assert np.exp(logs[c.root]) == pytest.approx(S.root_value(c), rel=1e-9)


class TestMarginals:
    def test_example_marginal(self):
        c = two_component_circuit()
        S, D = run_passes(c, soft_evidence())
        arrays = marginal_arrays(c, soft_evidence(), S, D)
        np.testing.assert_allclose(
            arrays["X"], [0.6 / 0.76, 0.16 / 0.76], rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            arrays["Y"], [0.6 / 0.76, 0.16 / 0.76], rtol=0, atol=1e-15
        )

    def test_marginals_are_distributions(self):
        c = two_component_circuit()
        e = soft_evidence()
        S, D = run_passes(c, e)
        beliefs = variable_marginals(c, e, S, D)
        assert beliefs["X"].outcomes == (0, 1)
        np.testing.assert_allclose(beliefs["X"].probs.sum(), 1.0, atol=1e-12)

    def test_matches_enumeration_example(self):
        c = two_component_circuit()
        e = soft_evidence()
        S, D = run_passes(c, e)
        arrays = marginal_arrays(c, e, S, D)
        oracle = enumerate_spn_marginals(c, e)
        for var in c.variable_order():
            np.testing.assert_allclose(arrays[var], oracle[var], atol=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_enumeration_random(self, seed):
        c, e = gen_spn(seed)
        S, D = run_passes(c, e)
        arrays = marginal_arrays(c, e, S, D)
        oracle = enumerate_spn_marginals(c, e)
        for var in c.variable_order():
            np.testing.assert_allclose(arrays[var], oracle[var], atol=1e-11)

    def test_hard_evidence_restricts_support(self):
        c = two_component_circuit()
        e = Evidence({"X": [1.0, 0.0], "Y": [1.0, 1.0]})
        S, D = run_passes(c, e)
        assert S.root_value(c) == pytest.approx(0.6, abs=1e-15)
        beliefs = variable_marginals(c, e, S, D)
        assert beliefs["X"].outcomes == (0,)
        assert beliefs["Y"].outcomes == (0,)
        arrays = marginal_arrays(c, e, S, D)
        np.testing.assert_allclose(arrays["X"], [1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_hard_evidence_matches_enumeration(self, seed):
        c, e = gen_spn(seed)
        var = c.variable_order()[0]
        lam = {v: np.array(arr) for v, arr in e.lam.items()}
        lam[var] = lam[var].copy()
        lam[var][0] = 0.0
        hard = Evidence(lam)
        S, D = run_passes(c, hard)
        arrays = marginal_arrays(c, hard, S, D)
        oracle = enumerate_spn_marginals(c, hard)
        for v in c.variable_order():
            np.testing.assert_allclose(arrays[v], oracle[v], atol=1e-11)
        assert arrays[var][0] == 0.0

    def test_derivative_is_marginal(self):
        # d log S / d log lambda at soft evidence equals the marginal
        c = two_component_circuit()
        e = soft_evidence()
        S, D = run_passes(c, e)
        arrays = marginal_arrays(c, e, S, D)
        order = [(v, t) for v in c.variable_order() for t in range(c.cardinality(v))]

        def log_root(u):
            lam = {v: np.array(e.lam[v], dtype=float) for v in e.lam}
            for (v, t), val in zip(order, u):
                lam[v][t] = np.exp(val)
            return np.log(upward_pass(c, Evidence(lam), check=False).root_value(c))

        point = np.array([np.log(e.lam[v][t]) for v, t in order])
        grad = finite_diff_grad(log_root, point)
        flat = np.concatenate([arrays[v] for v in c.variable_order()])
        np.testing.assert_allclose(grad, flat, atol=1e-7)

    def test_euler_identity(self):
        c = two_component_circuit()
        e = soft_evidence()
        S, D = run_passes(c, e)
        res = euler_residuals(c, e, S, D)
        assert all(v <= 1e-12 for v in res.values())

    @pytest.mark.parametrize("seed", range(10))
    def test_euler_identity_random(self, seed):
        c, e = gen_spn(seed)
        S, D = run_passes(c, e)
        res = euler_residuals(c, e, S, D)
        assert all(v <= 1e-12 for v in res.values())

class TestGatesAndMultipliers:
    def test_gate_report_example(self):
        c = two_component_circuit()
        S, D = run_passes(c, soft_evidence())
        report = gate_report(c, S, D)
        gate = report["r"]
        np.testing.assert_allclose(gate["b"], [0.6 / 0.76, 0.16 / 0.76], atol=1e-15)
        assert gate["pi"] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(gate["global"], gate["b"], atol=1e-15)

    def test_gate_rows_normalize_with_pi(self):
        # global gate mass should sum to pi for every sum node
        for seed in range(8):
            c, e = gen_spn(seed)
            S, D = run_passes(c, e)
            report = gate_report(c, S, D)
            for nid, gate in report.items():
                np.testing.assert_allclose(gate["b"].sum(), 1.0, atol=1e-12)
                np.testing.assert_allclose(
                    gate["global"].sum(), gate["pi"], atol=1e-12
                )
                assert 0.0 < gate["pi"] <= 1.0 + 1e-12

    def test_kkt_example(self):
        c = two_component_circuit()
        S, D = run_passes(c, soft_evidence())
        kkt = kkt_multipliers(c, S, D)
        assert kkt["pi"]["r"] == pytest.approx(1.0, abs=1e-15)
        assert kkt["mu"][("P1", 0)] == pytest.approx(0.6 / 0.76, abs=1e-15)
        assert kkt["mu"][("P2", 1)] == pytest.approx(0.4 * 0.5 / 0.76, abs=1e-15)

    def test_kkt_identities_random(self):
        for seed in range(8):
            c, e = gen_spn(seed)
            S, D = run_passes(c, e)
            kkt = kkt_multipliers(c, S, D)  # raises if identities fail
            assert all(0.0 < v <= 1.0 + 1e-12 for v in kkt["pi"].values())

    def test_identity_check_catches_corruption(self):
        c = two_component_circuit()
        S, D = run_passes(c, soft_evidence())
        bad_edges = D.E.copy()
        bad_edges[D.sched.edge_rows["P1", 0]] *= 2.0
        with pytest.raises(ValidationError, match="edge-multiplier"):
            kkt_multipliers(c, S, AdjointMap(D.sched, D.D, bad_edges))


class TestJson:
    def test_circuit_roundtrip(self):
        c = two_component_circuit()
        blob = json.dumps(circuit_to_json(c))
        c2 = circuit_from_json(json.loads(blob))
        assert [n.id for n in c2.nodes] == [n.id for n in c.nodes]
        e = soft_evidence()
        S1, D1 = run_passes(c, e)
        S2, D2 = run_passes(c2, e)
        assert S1.root_value(c) == S2.root_value(c2)
        # same node ids, another circuit: its pass results are refused
        other = "pass result was computed on another circuit"
        with pytest.raises(ValidationError, match=other):
            downward_pass(c2, S1)
        for S, D in ((S1, D2), (S2, D1)):
            for readout in (marginal_arrays, euler_residuals, variable_marginals):
                with pytest.raises(ValidationError, match=other):
                    readout(c2, e, S, D)
            for readout in (gate_report, kkt_multipliers):
                with pytest.raises(ValidationError, match=other):
                    readout(c2, S, D)

    def test_evidence_roundtrip(self):
        e = soft_evidence()
        e2 = evidence_from_json(json.loads(json.dumps(evidence_to_json(e))))
        for var in e.lam:
            np.testing.assert_allclose(e2.lam[var], e.lam[var])

    def test_bad_circuit_schema(self):
        with pytest.raises(SchemaError):
            circuit_from_json({"nodes": [{"id": "a", "kind": "leaf"}], "root": "a"})
        with pytest.raises(SchemaError):
            circuit_from_json({"root": "a"})
        with pytest.raises(SchemaError):
            circuit_from_json(
                {"nodes": [{"id": "a", "kind": "sum", "children": [{"id": "b"}]}],
                 "root": "a"}
            )

    def test_bad_evidence_schema(self):
        with pytest.raises(SchemaError):
            evidence_from_json({"nope": {}})
        with pytest.raises(SchemaError):
            evidence_from_json({"lambda": {"X": [0.0, 0.0]}})


# ----------------------------------------------------- compiled passes


def _overlapping_products(seed):
    """Random circuit whose products draw children (repeats allowed) from a
    pool of leaves, sums and earlier products, so their scopes often meet."""
    rng = np.random.default_rng(seed)
    nodes = [SpnNode(f"l{v}{t}", "leaf", var=f"V{v}", state=t) for v in range(5) for t in range(2)]
    pool = [n.id for n in nodes]
    for i in range(4):
        kids = tuple(pool[k] for k in rng.integers(len(pool), size=int(rng.integers(1, 4))))
        nodes.append(SpnNode(f"s{i}", "sum", kids, tuple(rng.uniform(0.1, 1.0, len(kids)))))
        pool.append(f"s{i}")
    for i in range(8):
        kids = tuple(pool[k] for k in rng.integers(len(pool), size=int(rng.integers(2, 6))))
        nodes.append(SpnNode(f"p{i}", "product", kids))
        pool.append(f"p{i}")
    nodes.append(SpnNode("top", "product", ("p6", "p7", "l00")))
    return SpnCircuit(nodes, "top")


def _rat_spn_case():
    from perfbench import builders

    nodes, root = builders.rat_spn(3, n_vars=16, states=3, depth=2)
    c = SpnCircuit(nodes, root)
    lam = builders.soft_evidence(np.random.default_rng(3), 16, 3)
    lam["X00"] = np.array([0.0, 0.5, 0.0])  # hard evidence too
    return c, Evidence(lam)


def _compiled_cases():
    for seed in range(200):
        for shared in (False, True):
            yield gen_spn(seed, shared=shared)
    yield _rat_spn_case()
    c = two_component_circuit()
    yield c, Evidence({"X": [1.0, 0.0], "Y": [0.0, 1.0]})  # root value exactly 0


def _assert_rel(got, ref, tol, what):
    assert got.keys() == ref.keys(), what
    for key, r in ref.items():
        g = got[key]
        if r in (0.0, -np.inf):
            assert g == r, (what, key, g, r)
        else:
            assert abs(g - r) <= tol * abs(r), (what, key, g, r)


class TestCompiledPasses:
    def test_matches_the_reference_walk(self):
        for c, e in _compiled_cases():
            S = upward_pass(c, e, allow_zero_root=True)
            D = downward_pass(c, S)
            ref_S = oracle._reference_upward(c, e.lam)
            ref_D, ref_edges = oracle._reference_downward(c, ref_S)
            _assert_rel(S.values, ref_S, 1e-13, "S")
            _assert_rel(D.values, ref_D, 1e-13, "D")
            assert list(S.values) == list(D.values) == c.topo()
            _assert_rel(D.edges, ref_edges, 1e-13, "edges")
            root = ref_S[c.root]
            if root == 0.0:
                continue
            logs = upward_pass_log(c, e)
            _assert_rel(logs, oracle._reference_upward_log(c, e.lam), 1e-13, "log S")
            arrays = marginal_arrays(c, e, S, D)
            for v in c.variable_order():
                ref = [
                    e.lam[v][t]
                    * sum(ref_D[n.id] for n in c.nodes if (n.var, n.state) == (v, t))
                    / root
                    for t in range(c.cardinality(v))
                ]
                _assert_rel(dict(enumerate(arrays[v])), dict(enumerate(ref)), 1e-13, v)

    def test_zero_root_allowed_on_request(self):
        c = two_component_circuit()
        e = Evidence({"X": [1.0, 0.0], "Y": [0.0, 1.0]})
        with pytest.raises(ValidationError, match="empty support"):
            upward_pass(c, e)
        assert upward_pass(c, e, allow_zero_root=True).root_value(c) == 0.0
        with pytest.raises(ValidationError, match="empty support"):
            upward_pass_log(c, e)

    def test_batch_columns_equal_single_queries(self):
        cases = [gen_spn(seed, shared=seed % 2 == 1) for seed in range(12)]
        cases.append(_rat_spn_case())
        rng = np.random.default_rng(5)
        for c, e in cases:
            sched = c._schedule
            node_rows = list(sched.node_rows.values())
            edge_rows = list(sched.edge_rows.values())
            queries = [e] + [
                Evidence({v: rng.uniform(0.0, 1.0, c.cardinality(v)) for v in c.variable_order()})
                for _ in range(4)
            ]
            X = np.column_stack(
                [np.concatenate([q.lam[v] for v in c.variable_order()]) for q in queries]
            )
            S_all = sched.up(X)
            D_all, E_all = sched.down(S_all)
            M_all = marginal_batch(c, X)
            for col, q in enumerate(queries):
                S = upward_pass(c, q)
                D = downward_pass(c, S)
                single = np.concatenate(list(marginal_arrays(c, q, S, D).values()))
                np.testing.assert_allclose(M_all[:, col], single, rtol=1e-14, atol=0)
                np.testing.assert_allclose(
                    S_all[node_rows, col], list(S.values.values()), rtol=1e-14, atol=0
                )
                np.testing.assert_allclose(
                    D_all[node_rows, col], list(D.values.values()), rtol=1e-14, atol=0
                )
                np.testing.assert_allclose(
                    E_all[edge_rows, col], list(D.edges.values()), rtol=1e-14, atol=0
                )

    def test_batch_rejects_bad_columns(self):
        c = two_component_circuit()
        with pytest.raises(ValidationError, match="4 rows"):
            marginal_batch(c, np.ones((3, 2)))
        with pytest.raises(ValidationError, match="nonnegative"):
            marginal_batch(c, -np.ones((4, 2)))
        with pytest.raises(ValidationError, match="empty support"):
            marginal_batch(c, np.array([[1.0], [0.0], [0.0], [1.0]]))

    def test_batch_rejects_an_invalid_circuit_as_the_upward_pass_does(self):
        # a product over X=0 and X=1 is not decomposable; the batch once
        # returned "marginals" summing to 2 for it
        c = SpnCircuit(
            [
                SpnNode("a", "leaf", var="X", state=0),
                SpnNode("b", "leaf", var="X", state=1),
                SpnNode("p", "product", ("a", "b")),
            ],
            "p",
        )
        with pytest.raises(ValidationError) as upward:
            upward_pass(c, all_ones_evidence(c))
        assert str(upward.value) == "invalid circuit -- decomposability: [('p', 'a', 'b', 'X')]"
        with pytest.raises(ValidationError) as batch:
            marginal_batch(c, [[0.5], [0.7]])
        assert str(batch.value) == str(upward.value)


def test_leaf_state_is_capped_when_the_circuit_is_built():
    # every pass keeps one slot per (variable, state); the cap stops a huge
    # state here, before any pass allocates for it
    leaves = [SpnNode("a0", "leaf", var="A", state=0), SpnNode("big", "leaf", var="A", state=10**9)]
    root = SpnNode("s", "sum", children=("a0", "big"), weights=(0.5, 0.5))
    with pytest.raises(BudgetError, match=r"variable 'A' of leaf 'big' needs 1000000001 entries"):
        SpnCircuit([*leaves, root], "s")


@pytest.mark.parametrize("seed", range(20))
def test_enumeration_is_gauge_free_under_tiny_weights(seed):
    # every term of a generated circuit passes the same number of sums, so
    # scaling each sum weight by 1e-200 scales every c(x) alike and leaves
    # the marginals as they were; in logs no coefficient underflows to zero
    c, e = gen_spn(seed)
    scaled = SpnCircuit(
        [dataclasses.replace(n, weights=tuple(w * 1e-200 for w in n.weights)) for n in c.nodes],
        c.root,
    )
    want = enumerate_spn_marginals(c, e)
    got = enumerate_spn_marginals(scaled, e)
    for var in c.variable_order():
        np.testing.assert_allclose(got[var], want[var], rtol=0, atol=1e-12)
