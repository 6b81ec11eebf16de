import math

import numpy as np
import pytest

from klbp.compgraph import (
    PRIMITIVES,
    CompGraph,
    CompNode,
    ExpScale,
    NegLossTemp,
    backward_adjoints,
    centered_grid,
    downward_log_belief,
    forward_eval,
    graph_from_json,
    graph_to_json,
    phi_log,
    seed_score,
    slope_from_grid,
)
from klbp.errors import SchemaError, ValidationError
from klbp.generators import gen_dag
from klbp.oracle import finite_diff_grad, reference_gradient
from klbp.toposort import topo_sort


def sigmoid_product_graph():
    # z = sigmoid(w * x)
    return CompGraph(
        [
            CompNode("w", "input"),
            CompNode("x", "input"),
            CompNode("u", "mul", ("w", "x")),
            CompNode("z", "sigmoid", ("u",)),
        ],
        "z",
    )


# ------------------------------------------------------------ validation


def test_validate_identity_graph():
    g = CompGraph([CompNode("x", "input")], "x")
    assert forward_eval(g, {"x": 0.5}).values == {"x": 0.5}


def test_validate_cycle():
    g = CompGraph(
        [CompNode("a", "sigmoid", ("b",)), CompNode("b", "sigmoid", ("a",))], "a"
    )
    with pytest.raises(ValidationError, match="cycle"):
        g.topo_order()
    with pytest.raises(ValidationError, match="^graph contains a cycle$"):
        forward_eval(g, {})


def test_validate_rejects_non_smooth_op():
    g = CompGraph([CompNode("x", "input"), CompNode("r", "relu", ("x",))], "r")
    for _ in range(2):  # the issues are found once per graph and raised every time
        with pytest.raises(ValidationError) as info:
            forward_eval(g, {"x": 1.0})
        assert str(info.value) == "node 'r': op 'relu' is not in the C1 primitive set"


def test_validate_arity_and_missing_value():
    g = CompGraph([CompNode("x", "input"), CompNode("s", "add", ("x",))], "s")
    with pytest.raises(ValidationError, match="^node 's': op 'add' takes 2 inputs, got 1$"):
        forward_eval(g, {"x": 1.0})
    g2 = CompGraph([CompNode("x", "input"), CompNode("p", "pow", ("x",))], "p")
    with pytest.raises(ValidationError, match="^node 'p': op 'pow' needs a value$"):
        forward_eval(g2, {"x": 1.0})


def test_construction_rejects_dangling_reference():
    with pytest.raises(ValidationError):
        CompGraph([CompNode("a", "sigmoid", ("ghost",))], "a")


# --------------------------------------------------------------- forward


def test_forward_product():
    g = CompGraph(
        [CompNode("w", "input"), CompNode("x", "input"), CompNode("u", "mul", ("w", "x"))],
        "u",
    )
    trace = forward_eval(g, {"w": 3.0, "x": 2.0})
    assert trace.values["u"] == 6.0


def test_forward_sigmoid_at_zero():
    g = CompGraph([CompNode("u", "input"), CompNode("z", "sigmoid", ("u",))], "z")
    assert forward_eval(g, {"u": 0.0}).values["z"] == 0.5


def test_forward_composed_example():
    trace = forward_eval(sigmoid_product_graph(), {"w": 0.0, "x": 1.0})
    assert trace.values["u"] == 0.0
    assert trace.values["z"] == 0.5


def test_forward_domain_errors():
    g = CompGraph([CompNode("x", "input"), CompNode("l", "log", ("x",))], "l")
    with pytest.raises(ValidationError):
        forward_eval(g, {"x": -1.0})
    g2 = CompGraph(
        [CompNode("a", "input"), CompNode("b", "input"), CompNode("d", "div", ("a", "b"))],
        "d",
    )
    with pytest.raises(ValidationError):
        forward_eval(g2, {"a": 1.0, "b": 0.0})
    with pytest.raises(ValidationError):
        forward_eval(g, {})


# ---------------------------------------------------------- output factor


def test_seed_score_exponential():
    assert seed_score(ExpScale(2.0), 17.3) == 2.0


def test_seed_score_squared_error():
    factor = NegLossTemp("squared_error", 1.0, 2.0)
    assert seed_score(factor, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert seed_score(NegLossTemp("squared_error", 0.7, 1.0), 0.7) == 0.0


def test_seed_score_logistic():
    assert seed_score(NegLossTemp("logistic", 1.0, 1.0), 0.0) == pytest.approx(
        0.5, abs=1e-15
    )
    assert seed_score(NegLossTemp("logistic", 0.0, 1.0), 0.0) == pytest.approx(
        -0.5, abs=1e-15
    )


def test_output_factor_validation():
    with pytest.raises(ValidationError):
        NegLossTemp("hinge", 1.0, 1.0)
    with pytest.raises(ValidationError):
        NegLossTemp("squared_error", 1.0, 0.0)
    with pytest.raises(ValidationError):
        NegLossTemp("logistic", 0.5, 1.0)


# -------------------------------------------------------------- backward


def test_adjoints_sigmoid_product():
    g = sigmoid_product_graph()
    trace = forward_eval(g, {"w": 0.0, "x": 1.0})
    adj = backward_adjoints(g, trace, ExpScale(2.0))
    assert adj["w"] == 0.5
    assert adj["x"] == 0.0
    assert adj["z"] == 2.0


def test_adjoint_identity_graph():
    g = CompGraph([CompNode("x", "input")], "x")
    trace = forward_eval(g, {"x": 4.2})
    assert backward_adjoints(g, trace, ExpScale(1.0))["x"] == 1.0


def test_zero_seed_zeroes_everything():
    for seed in range(5):
        graph, inputs = gen_dag(seed)
        trace = forward_eval(graph, inputs)
        adj = backward_adjoints(graph, trace, ExpScale(0.0))
        assert all(v == 0.0 for v in adj.values())


def test_seed_linearity():
    for seed in range(8):
        graph, inputs = gen_dag(seed)
        trace = forward_eval(graph, inputs)
        one = backward_adjoints(graph, trace, ExpScale(1.0))
        three = backward_adjoints(graph, trace, ExpScale(3.0))
        for nid in one:
            assert three[nid] == pytest.approx(3.0 * one[nid], rel=1e-12, abs=1e-12)


def test_adjoints_match_independent_accumulator():
    # the extra seeds first draw a graph whose exp or pow overflows
    for seed in [*range(30), 3514, 8042, 8941, 13149, 15871, 20526, 28159, 28267]:
        graph, inputs = gen_dag(seed)
        trace = forward_eval(graph, inputs)
        alpha = 1.7
        adj = backward_adjoints(graph, trace, ExpScale(alpha))
        ref = reference_gradient(graph, inputs, alpha)
        for nid in adj:
            assert adj[nid] == pytest.approx(ref[nid], rel=1e-12, abs=1e-12)


def test_adjoints_match_finite_differences():
    for seed in range(15):
        graph, inputs = gen_dag(seed)
        trace = forward_eval(graph, inputs)
        alpha = 2.0
        adj = backward_adjoints(graph, trace, ExpScale(alpha))
        names = sorted(inputs)

        def f(vec):
            point = dict(zip(names, vec))
            return alpha * forward_eval(graph, point).values[graph.output]

        fd = finite_diff_grad(f, np.array([inputs[n] for n in names]))
        for name, g in zip(names, fd):
            assert adj[name] == pytest.approx(g, rel=1e-6, abs=1e-6)


def test_loss_factor_adjoints_scale_the_gradient():
    for seed in range(6):
        graph, inputs = gen_dag(seed)
        trace = forward_eval(graph, inputs)
        z_star = trace.values[graph.output]
        factor = NegLossTemp("squared_error", z_star + 0.8, 2.5)
        adj = backward_adjoints(graph, trace, factor)
        plain = backward_adjoints(graph, trace, ExpScale(1.0))
        s = seed_score(factor, z_star)
        assert s == pytest.approx(0.8 / 2.5, rel=1e-12)
        for nid in adj:
            assert adj[nid] == pytest.approx(s * plain[nid], rel=1e-12, abs=1e-12)


# ------------------------------------------------------- primitive table


def test_every_primitive_partial_matches_central_difference():
    rng = np.random.default_rng(77)
    for op, prim in PRIMITIVES.items():
        if prim.arity == 0:
            continue
        for _ in range(20):
            vals = [float(x) for x in rng.uniform(0.2, 2.0, prim.arity)]
            c = float(rng.choice([2.0, 3.0, 0.5, -1.5])) if prim.needs_value else None
            partials = prim.d(vals, prim.f(vals, c), c)
            assert len(partials) == prim.arity, op
            for i, partial in enumerate(partials):
                h = 1e-5 * max(1.0, abs(vals[i]))
                hi, lo = list(vals), list(vals)
                hi[i] += h
                lo[i] -= h
                fd = (prim.f(hi, c) - prim.f(lo, c)) / (2.0 * h)
                assert partial == pytest.approx(fd, rel=1e-6, abs=1e-6), (op, i)
    # b*b underflows to zero while a/b and both partials stay finite
    partials = PRIMITIVES["div"].d([1e-200, 1e-200], 1.0, None)
    assert partials == pytest.approx((1e200, -1e200), rel=1e-15)
    # the partial with respect to b overflows; the reverse sweep names the node
    g = CompGraph(
        [CompNode("a", "input"), CompNode("b", "input"), CompNode("y", "div", ("a", "b"))],
        "y",
    )
    trace = forward_eval(g, {"a": 1.0, "b": 1e-200})
    with pytest.raises(ValidationError, match="node 'b': adjoint overflowed"):
        backward_adjoints(g, trace, ExpScale(1.0))
    # x**0 is constant, so its partial is 0 even at x = 0
    g = CompGraph([CompNode("x", "input"), CompNode("y", "pow", ("x",), 0.0)], "y")
    trace = forward_eval(g, {"x": 0.0})
    assert backward_adjoints(g, trace, ExpScale(1.0))["x"] == 0.0
    assert reference_gradient(g, {"x": 0.0}, 1.0)["x"] == 0.0
    # a partial that overflows is reported with the node that raised it
    g = CompGraph([CompNode("x", "input"), CompNode("y", "pow", ("x",), -1.5)], "y")
    trace = forward_eval(g, {"x": 1e-200})
    with pytest.raises(ValidationError, match="node 'y': pow partial failed"):
        backward_adjoints(g, trace, ExpScale(1.0))


def test_topological_order_takes_smallest_ready_id_first():
    # FIFO would give x, y, b, c, a; plain id order would start with a
    g = CompGraph(
        [
            CompNode("a", "add", ("b", "c")),
            CompNode("y", "input"),
            CompNode("c", "exp", ("y",)),
            CompNode("b", "exp", ("x",)),
            CompNode("x", "input"),
        ],
        "a",
    )
    assert g.topo_order() == ["x", "b", "y", "c", "a"]
    assert topo_sort({"a": ("b", "c"), "y": (), "c": ("y",), "b": ("x",), "x": ()}) == [
        "x", "b", "y", "c", "a"
    ]
    assert topo_sort({"a": ("b",), "b": ("a",)}) is None


def test_downward_slope_equals_adjoint():
    for seed in range(10):
        graph, inputs = gen_dag(seed)
        trace = forward_eval(graph, inputs)
        factor = ExpScale(1.3)
        adj = backward_adjoints(graph, trace, factor)
        for var in list(trace.values)[:4]:
            center = trace.values[var]
            grid = centered_grid(center, 1e-5 * max(1.0, abs(center)))
            try:
                logs = downward_log_belief(graph, trace, factor, var, grid)
            except ValidationError:
                continue  # perturbation left an op's domain; skip this node
            slope = slope_from_grid(grid, logs)
            assert slope == pytest.approx(adj[var], rel=1e-5, abs=1e-5)


def test_downward_belief_of_detached_node_is_flat():
    g = CompGraph(
        [
            CompNode("x", "input"),
            CompNode("orphan", "tanh", ("x",)),
            CompNode("z", "sigmoid", ("x",)),
        ],
        "z",
    )
    trace = forward_eval(g, {"x": 0.3})
    grid = centered_grid(trace.values["orphan"], 0.5)
    logs = downward_log_belief(g, trace, ExpScale(1.0), "orphan", grid)
    assert float(np.ptp(logs)) == 0.0
    assert slope_from_grid(grid, logs) == 0.0


def test_gauge_scaling_shifts_but_never_tilts():
    graph, inputs = gen_dag(3)
    trace = forward_eval(graph, inputs)
    factor = ExpScale(0.9)
    var = graph.input_ids()[0]
    grid = centered_grid(trace.values[var], 0.2)
    plain = downward_log_belief(graph, trace, factor, var, grid)
    scaled = downward_log_belief(
        graph, trace, factor, var, grid, edge_scales={"e1": 7.0, "e2": 0.2}
    )
    shift = math.log(7.0) + math.log(0.2)
    np.testing.assert_allclose(scaled - plain, shift, atol=1e-12)
    assert slope_from_grid(grid, scaled) == pytest.approx(
        slope_from_grid(grid, plain), abs=1e-12
    )


def test_edge_scales_must_be_positive():
    graph, inputs = gen_dag(4)
    trace = forward_eval(graph, inputs)
    grid = centered_grid(trace.values[graph.output], 0.1)
    with pytest.raises(ValidationError):
        downward_log_belief(
            graph, trace, ExpScale(1.0), graph.output, grid, edge_scales={"e": 0.0}
        )


def test_phi_log_matches_seed_score_slope():
    rng = np.random.default_rng(91)
    for factor in (
        ExpScale(1.7),
        NegLossTemp("squared_error", 0.3, 1.5),
        NegLossTemp("logistic", 1.0, 0.7),
    ):
        for _ in range(5):
            z = float(rng.uniform(-1.0, 1.0))
            h = 1e-6
            fd = (phi_log(factor, z + h) - phi_log(factor, z - h)) / (2 * h)
            assert fd == pytest.approx(seed_score(factor, z), rel=1e-6, abs=1e-8)


# ----------------------------------------------------------------- JSON


def test_json_roundtrip():
    graph, inputs = gen_dag(11)
    back = graph_from_json(graph_to_json(graph))
    assert back.output == graph.output
    t_old = forward_eval(graph, inputs)
    t_new = forward_eval(back, inputs)
    for nid in t_old.values:
        assert t_new.values[nid] == t_old.values[nid]


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        graph_from_json({"nodes": []})
    with pytest.raises(SchemaError):
        graph_from_json({"nodes": [{"op": "input"}], "output": "x"})
    with pytest.raises(SchemaError):
        graph_from_json({"nodes": [{"id": "x", "op": "input"}], "output": "ghost"})
