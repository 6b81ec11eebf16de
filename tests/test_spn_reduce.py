import gc

import numpy as np
import pytest

from klbp.budgets import BudgetError
from klbp.errors import ValidationError
from klbp.factorgraph import bp_beliefs, bp_run_tree, validate_fg
from klbp.generators import gen_spn
from klbp.oracle import enumerate_fg_marginals
from klbp.spn import (
    Evidence,
    SpnCircuit,
    SpnNode,
    downward_pass,
    gate_report,
    marginal_arrays,
    marginal_batch,
    upward_pass,
)
from klbp.spn_reduce import (
    PARSE_VAR,
    enumerate_parses,
    lipschitz_probe,
    region_two_step,
    scope_tables,
    spn_to_factor_graph,
)

from test_simplex import old_literal_consensus
from test_spn import soft_evidence, two_component_circuit


def spn_marginals(circuit, e):
    S = upward_pass(circuit, e)
    D = downward_pass(circuit, S)
    return marginal_arrays(circuit, e, S, D), S, D


class TestParses:
    def test_example_parses(self):
        parses = enumerate_parses(two_component_circuit())
        assert len(parses) == 2
        weights = sorted(w for w, _, _ in parses)
        assert weights == [0.4, 0.6]
        by_choice = {choices["r"]: asg for _, asg, choices in parses}
        assert by_choice[0] == {"X": 0, "Y": 0}
        assert by_choice[1] == {"X": 1, "Y": 1}

    def test_weights_sum_to_partition(self):
        # with all-ones evidence the parse weights sum to S(1)
        for seed in range(6):
            c, _ = gen_spn(seed)
            parses = enumerate_parses(c)
            total = sum(w for w, _, _ in parses)
            ones = Evidence(
                {v: np.ones(c.cardinality(v)) for v in c.variable_order()}
            )
            got = upward_pass(c, ones).root_value(c)
            # every parse hits each variable once, so lambda factors are 1
            assert total == pytest.approx(got, rel=1e-12)

    def test_a_call_leaves_no_cyclic_garbage(self):
        c, _ = gen_spn(2)
        gc.collect()
        gc.disable()
        try:
            parses = enumerate_parses(c)
            del parses
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_shared_circuit_rejected(self):
        c, _ = gen_spn(1, shared=True)
        with pytest.raises(ValidationError, match="needs a tree circuit; this one shares nodes"):
            enumerate_parses(c)

    def test_parse_cap(self):
        nodes = [SpnNode("base", "leaf", var="X", state=0)]
        prev = "base"
        for d in range(15):
            nid = f"s{d}"
            nodes.append(SpnNode(nid, "sum", (prev,), (1.0,)))
            prev = nid
        c = SpnCircuit(nodes, prev)
        # single chain: one parse, no blowup
        assert len(enumerate_parses(c)) == 1


class TestFactorGraphBridge:
    def test_example_marginals(self):
        c = two_component_circuit()
        fg = spn_to_factor_graph(c, soft_evidence())
        belief = bp_beliefs(fg, bp_run_tree(fg))["X"]
        np.testing.assert_allclose(
            belief, [0.7894736842105263, 0.21052631578947367], atol=1e-10
        )

    def test_example_matches_enumeration(self):
        c = two_component_circuit()
        fg = spn_to_factor_graph(c, soft_evidence())
        enum = enumerate_fg_marginals(fg)
        bp = bp_beliefs(fg, bp_run_tree(fg))
        for v in ("X", "Y", "Y::r", PARSE_VAR):
            np.testing.assert_allclose(bp[v], enum[v], atol=1e-12)

    def test_root_gate_belief(self):
        c = two_component_circuit()
        e = soft_evidence()
        fg = spn_to_factor_graph(c, e)
        bp = bp_beliefs(fg, bp_run_tree(fg))
        _, S, D = spn_marginals(c, e)
        gates = gate_report(c, S, D)
        np.testing.assert_allclose(bp["Y::r"], gates["r"]["b"], atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_circuits_match(self, seed):
        c, e = gen_spn(seed)
        fg = spn_to_factor_graph(c, e)
        bp = bp_beliefs(fg, bp_run_tree(fg))
        arrays, S, D = spn_marginals(c, e)
        for v in c.variable_order():
            np.testing.assert_allclose(bp[v], arrays[v], atol=1e-10)
        # root gate: global equals local at the root of a tree
        if c.node(c.root).kind == "sum":
            gates = gate_report(c, S, D)
            np.testing.assert_allclose(
                bp[f"Y::{c.root}"], gates[c.root]["b"], atol=1e-10
            )

    def test_structural_zeros_reported_but_graph_works(self):
        c = two_component_circuit()
        fg = spn_to_factor_graph(c, soft_evidence())
        report = validate_fg(fg)
        assert report["valid"]
        assert not report["positive"]  # selection tables are 0/1

    def test_single_leaf_circuit(self):
        c = SpnCircuit([SpnNode("l", "leaf", var="X", state=1)], "l")
        fg = spn_to_factor_graph(c)
        assert [v.id for v in fg.variables] == ["X"]
        assert len(fg.factors) == 1
        bp = bp_beliefs(fg, bp_run_tree(fg))
        np.testing.assert_allclose(bp["X"], [0.0, 1.0], atol=1e-15)

    def test_product_tree_no_gates(self):
        nodes = [
            SpnNode("lx", "leaf", var="X", state=0),
            SpnNode("ly", "leaf", var="Y", state=1),
            SpnNode("p", "product", ("lx", "ly")),
        ]
        c = SpnCircuit(nodes, "p")
        fg = spn_to_factor_graph(c, Evidence({"X": [0.5], "Y": [1.0, 0.25]}))
        assert sorted(v.id for v in fg.variables) == ["X", "Y"]
        bp = bp_beliefs(fg, bp_run_tree(fg))
        np.testing.assert_allclose(bp["X"], [1.0], atol=1e-15)
        np.testing.assert_allclose(bp["Y"], [0.0, 1.0], atol=1e-15)

    def test_shared_rejected(self):
        c, e = gen_spn(2, shared=True)
        with pytest.raises(ValidationError, match="needs a tree circuit; this one shares nodes"):
            spn_to_factor_graph(c, e)

    def test_default_evidence_is_ones(self):
        c = two_component_circuit()
        fg = spn_to_factor_graph(c)
        bp = bp_beliefs(fg, bp_run_tree(fg))
        np.testing.assert_allclose(bp["X"], [0.6, 0.4], atol=1e-12)


class TestScopeTables:
    def test_root_table_is_joint(self):
        c = two_component_circuit()
        tables = scope_tables(c, soft_evidence())
        want = np.zeros((2, 2))
        want[0, 0] = 0.6 * 1.0 * 1.0
        want[1, 1] = 0.4 * 0.5 * 0.8
        np.testing.assert_allclose(tables["r"], want, atol=1e-15)

    def test_region_size_cap(self):
        nodes = []
        kids = []
        for i in range(7):
            for t in range(4):
                nodes.append(SpnNode(f"l{i}_{t}", "leaf", var=f"X{i}", state=t))
            nodes.append(
                SpnNode(
                    f"t{i}",
                    "sum",
                    tuple(f"l{i}_{t}" for t in range(4)),
                    (0.25,) * 4,
                )
            )
            kids.append(f"t{i}")
        nodes.append(SpnNode("p", "product", tuple(kids)))
        c = SpnCircuit(nodes, "p")
        e = Evidence({f"X{i}": np.ones(4) for i in range(7)})
        with pytest.raises(BudgetError, match="cap"):
            scope_tables(c, e)


class TestRegionTwoStep:
    def test_example_var_marginals(self):
        c = two_component_circuit()
        fam = region_two_step(c, soft_evidence())
        arrays, _, _ = spn_marginals(c, soft_evidence())
        for v in c.variable_order():
            np.testing.assert_allclose(fam.var_marginals[v], arrays[v], atol=1e-10)

    def test_equal_scope_groups(self):
        c = two_component_circuit()
        fam = region_two_step(c, soft_evidence())
        assert fam.groups[("X", "Y")] == ["P1", "P2", "r"]
        assert fam.groups[("X",)] == ["lx0", "lx1"]

    def test_disjoint_support_flagged(self):
        c = two_component_circuit()
        fam = region_two_step(c, soft_evidence())
        # the two point-mass product copies share no outcome with each other
        assert fam.diagnostics[("X", "Y")]["degenerate"] is True
        assert fam.diagnostics[("X",)]["degenerate"] is True

    def test_product_regions_factorize(self):
        for seed in range(6):
            c, e = gen_spn(seed)
            fam = region_two_step(c, e)
            for n in c.nodes:
                if n.kind != "product":
                    continue
                scope = tuple(sorted(c.scope(n.id)))
                table = fam.tables[scope]
                # after the second step the table is an outer product of
                # child-scope tables: check rank-one structure pairwise
                flat = table.reshape(table.shape[0], -1)
                if flat.shape[0] > 1 and flat.shape[1] > 1:
                    u, s, vt = np.linalg.svd(flat)
                    assert s[1] <= 1e-12 * max(1.0, s[0])

    def test_single_member_group_matches_literal_consensus(self):
        # product root is the only node with the full scope: its literal
        # geometric-mean consensus is itself and agrees with the joint
        nodes = [
            SpnNode("lx0", "leaf", var="X", state=0),
            SpnNode("lx1", "leaf", var="X", state=1),
            SpnNode("sx", "sum", ("lx0", "lx1"), (0.3, 0.7)),
            SpnNode("ly0", "leaf", var="Y", state=0),
            SpnNode("ly1", "leaf", var="Y", state=1),
            SpnNode("sy", "sum", ("ly0", "ly1"), (0.5, 0.5)),
            SpnNode("p", "product", ("sx", "sy")),
        ]
        c = SpnCircuit(nodes, "p")
        fam = region_two_step(c, Evidence({"X": [1.0, 1.0], "Y": [1.0, 1.0]}))
        diag = fam.diagnostics[("X", "Y")]
        assert fam.groups[("X", "Y")] == ["p"]
        assert diag["degenerate"] is False
        assert diag["literal_gap"] <= 1e-12
        np.testing.assert_allclose(fam.var_marginals["X"], [0.3, 0.7], atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuits_match_beliefs(self, seed):
        c, e = gen_spn(seed)
        fam = region_two_step(c, e)
        arrays, _, _ = spn_marginals(c, e)
        for v in c.variable_order():
            np.testing.assert_allclose(fam.var_marginals[v], arrays[v], atol=1e-10)

    def test_literal_gaps_match_the_old_log_loop(self):
        literal = 0
        for seed in range(20):
            c, e = gen_spn(seed)
            fam = region_two_step(c, e)
            joint = scope_tables(c, e)[c.root]
            joint = joint / joint.sum()
            root_vars = tuple(sorted(c.scope(c.root)))
            for scope, ids in fam.groups.items():
                exact = joint.sum(axis=tuple(i for i, v in enumerate(root_vars) if v not in scope))
                lit = old_literal_consensus([fam.init_tables[nid] for nid in ids])
                diag = fam.diagnostics[scope]
                assert diag["degenerate"] is (lit is None)
                if lit is not None:
                    literal += 1
                    assert abs(diag["literal_gap"] - float(np.abs(lit - exact).max())) <= 1e-15
        assert literal >= 20

    def test_init_tables_normalized(self):
        c, e = gen_spn(3)
        fam = region_two_step(c, e)
        for nid, table in fam.init_tables.items():
            np.testing.assert_allclose(table.sum(), 1.0, atol=1e-12)

    def test_shared_rejected(self):
        c, e = gen_spn(1, shared=True)
        with pytest.raises(ValidationError, match="needs a tree circuit; this one shares nodes"):
            region_two_step(c, e)

    def test_hard_evidence_empty_support(self):
        c = two_component_circuit()
        e = Evidence({"X": [1.0, 0.0], "Y": [0.0, 1.0]})
        with pytest.raises(ValidationError, match="empty support"):
            region_two_step(c, e)


def _per_point_probe(circuit, box, n_samples, seed):
    """The probe one evidence point at a time: same points, h and rule."""
    order = [(v, t) for v in circuit.variable_order() for t in range(circuit.cardinality(v))]
    dim = len(order)

    def marginals_at(u):
        lam = {}
        for (v, t), val in zip(order, u):
            lam.setdefault(v, np.zeros(circuit.cardinality(v)))[t] = np.exp(val)
        arrays, _, _ = spn_marginals(circuit, Evidence(lam))
        return np.concatenate([arrays[v] for v in circuit.variable_order()])

    rng = np.random.default_rng(seed)
    lo, hi = box
    points = lo + rng.random((n_samples, dim)) * (hi - lo)
    values = np.array([marginals_at(u) for u in points])
    h = 1e-5
    L_hat = 0.0
    for u in points:
        cols = []
        for i in range(dim):
            up, dn = u.copy(), u.copy()
            up[i] += h
            dn[i] -= h
            cols.append((marginals_at(up) - marginals_at(dn)) / (2 * h))
        L_hat = max(L_hat, float(np.linalg.norm(np.column_stack(cols), 2)))
    ok = True
    for i in range(n_samples):
        ndu = np.linalg.norm(points[i + 1 :] - points[i], axis=1)
        ndp = np.linalg.norm(values[i + 1 :] - values[i], axis=1)
        ok = ok and not (ndp > 1.05 * L_hat * ndu).any()
    return L_hat, ok


class TestLipschitzProbe:
    def test_example_box(self):
        c = two_component_circuit()
        report = lipschitz_probe(c, (np.log(0.5), np.log(1.0)), 200, 7)
        assert report["all_pairs_ok"]
        assert report["n_pairs"] == 200 * 199 // 2
        assert report["L_hat"] > 0
        assert report["worst_pair_ratio"] <= 1.05

    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuits(self, seed):
        c, _ = gen_spn(seed)
        report = lipschitz_probe(c, (np.log(0.5), np.log(1.0)), 40, seed)
        assert report["all_pairs_ok"]

    @pytest.mark.parametrize("seed", range(6))
    def test_batched_probe_matches_a_per_point_loop(self, seed):
        c = two_component_circuit() if seed == 0 else gen_spn(seed, shared=seed % 2 == 0)[0]
        box = (np.log(0.5), 0.0)
        report = lipschitz_probe(c, box, 40, seed)
        ref_L, ref_ok = _per_point_probe(c, box, 40, seed)
        assert report["L_hat"] == pytest.approx(ref_L, rel=1e-9)
        assert report["all_pairs_ok"] == ref_ok

    def test_probe_sends_each_point_and_its_clamped_columns_in_one_batch(self, monkeypatch):
        import klbp.spn_reduce as spn_reduce

        widths = []

        def recording(circuit, lam):
            widths.append(np.shape(lam)[1])
            return marginal_batch(circuit, lam)

        monkeypatch.setattr(spn_reduce, "marginal_batch", recording)
        c = two_component_circuit()
        dim = sum(c.cardinality(v) for v in c.variable_order())
        lipschitz_probe(c, (np.log(0.5), 0.0), 7, 0)
        assert widths == [7 * (dim + 1)]

    def test_probe_batches_stay_under_the_chunk_bound_and_change_nothing(self, monkeypatch):
        import klbp.spn_reduce as spn_reduce

        widths = []

        def recording(circuit, lam):
            widths.append(np.shape(lam)[1])
            return marginal_batch(circuit, lam)

        monkeypatch.setattr(spn_reduce, "marginal_batch", recording)
        c = two_component_circuit()
        box = (np.log(0.5), 0.0)
        chunked = lipschitz_probe(c, box, 1500, 2)
        assert len(widths) > 1
        assert max(widths) <= spn_reduce._PROBE_COLUMNS
        monkeypatch.setattr(spn_reduce, "_PROBE_COLUMNS", 10**9)
        assert lipschitz_probe(c, box, 1500, 2) == chunked  # bit for bit
        assert widths[-1] == 1500 * 5

    def test_a_state_no_leaf_reads_stays_unclamped(self):
        # X has leaves for states 0 and 2 only; clamping X to 1 would leave
        # the root with no support
        nodes = [
            SpnNode("x0", "leaf", var="X", state=0),
            SpnNode("x2", "leaf", var="X", state=2),
            SpnNode("y0", "leaf", var="Y", state=0),
            SpnNode("y1", "leaf", var="Y", state=1),
            SpnNode("a", "product", ("x0", "y0")),
            SpnNode("b", "product", ("x2", "y1")),
            SpnNode("s", "sum", ("a", "b"), (0.3, 0.7)),
        ]
        c = SpnCircuit(nodes, "s")
        assert c.cardinality("X") == 3
        box = (np.log(0.5), 0.0)
        report = lipschitz_probe(c, box, 30, 3)
        ref_L, ref_ok = _per_point_probe(c, box, 30, 3)
        assert report["all_pairs_ok"] and ref_ok
        assert report["L_hat"] > 0
        assert report["L_hat"] == pytest.approx(ref_L, rel=1e-9)

    def test_negative_sample_count_rejected(self):
        c = two_component_circuit()
        with pytest.raises(ValidationError, match="sample count"):
            lipschitz_probe(c, (np.log(0.5), 0.0), -1, 0)

    def test_singleton_alphabet_contributes_zero(self):
        nodes = [
            SpnNode("lz", "leaf", var="Z", state=0),
            SpnNode("lx0", "leaf", var="X", state=0),
            SpnNode("lx1", "leaf", var="X", state=1),
            SpnNode("s", "sum", ("lx0", "lx1"), (0.5, 0.5)),
            SpnNode("p", "product", ("lz", "s")),
        ]
        c = SpnCircuit(nodes, "p")
        report = lipschitz_probe(c, (np.log(0.5), np.log(1.0)), 30, 0)
        assert report["all_pairs_ok"]
        # compare against a circuit without the singleton variable
        trimmed = SpnCircuit(
            [
                SpnNode("lx0", "leaf", var="X", state=0),
                SpnNode("lx1", "leaf", var="X", state=1),
                SpnNode("s", "sum", ("lx0", "lx1"), (0.5, 0.5)),
            ],
            "s",
        )
        trimmed_report = lipschitz_probe(trimmed, (np.log(0.5), np.log(1.0)), 30, 0)
        assert report["L_hat"] == pytest.approx(trimmed_report["L_hat"], rel=1e-3)

    def test_identical_points_pass(self):
        c = two_component_circuit()
        report = lipschitz_probe(c, (0.0, 0.0), 5, 1)
        assert report["all_pairs_ok"]
        assert report["worst_pair_ratio"] == 0.0

    def test_infinite_box_rejected(self):
        c = two_component_circuit()
        with pytest.raises(ValidationError, match="boundary"):
            lipschitz_probe(c, (-np.inf, 0.0), 10, 0)

    def test_empty_box_rejected(self):
        c = two_component_circuit()
        with pytest.raises(ValidationError, match="empty box"):
            lipschitz_probe(c, (1.0, 0.0), 10, 0)
