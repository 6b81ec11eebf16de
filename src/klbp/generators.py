"""Seeded random instances for sweep tests and the command line.

Every generator is a pure function of its seed (numpy default_rng), so
sweeps are reproducible across runs and machines.  Structures that can hit
domain hazards (division, log, powers) are built by rejection: propose,
evaluate, and keep only instances whose forward values sit well inside the
admissible region, so finite-difference probing stays safe.
"""

from __future__ import annotations

import numpy as np

from .compgraph import PRIMITIVES, CompGraph, CompNode, forward_eval
from .errors import ValidationError
from .factorgraph import Factor, FactorGraph, Variable

_DAG_OPS = (
    "add", "sub", "mul", "div", "exp", "log", "sigmoid", "tanh", "softplus", "pow",
)
_DAG_WEIGHTS = (0.16, 0.10, 0.16, 0.08, 0.04, 0.08, 0.11, 0.11, 0.11, 0.05)

_VALUE_CAP = 20.0
_DOMAIN_MARGIN = 0.1

# size bounds of the drawn instances
_MAX_DAG_NODES = 30
_MAX_FG_VARS = 6
_MAX_CARD = 3  # states per factor-graph or circuit variable
_MAX_POSTERIOR_VARS = 4


def _dag_margins_ok(graph: CompGraph, values: dict) -> bool:
    for node in graph.nodes:
        v = values[node.id]
        if abs(v) > _VALUE_CAP:
            return False
        if node.op == "div" and abs(values[node.inputs[1]]) < _DOMAIN_MARGIN:
            return False
        if node.op == "log" and values[node.inputs[0]] < _DOMAIN_MARGIN:
            return False
        if node.op == "pow" and values[node.inputs[0]] < _DOMAIN_MARGIN:
            return False
    return True


def gen_dag(seed: int) -> tuple[CompGraph, dict]:
    """Random C1 computation DAG plus a safe input point.

    Rejection-samples until every forward value is bounded and every
    hazardous op ends up with a comfortable domain margin, so central
    differences with h = 1e-5 stay admissible.
    """
    rng = np.random.default_rng(seed)
    for _ in range(500):
        n_inputs = int(rng.integers(1, 5))
        nodes = [CompNode(f"x{i}", "input") for i in range(n_inputs)]
        if rng.random() < 0.5:
            nodes.append(
                CompNode("c0", "constant", value=float(rng.uniform(0.5, 2.0)))
            )
        pool = [n.id for n in nodes]
        n_interior = int(rng.integers(3, max(4, _MAX_DAG_NODES - len(nodes))))
        for j in range(n_interior):
            op = str(rng.choice(_DAG_OPS, p=_DAG_WEIGHTS))
            refs = tuple(str(rng.choice(pool)) for _ in range(PRIMITIVES[op].arity))
            value = None
            if op == "pow":
                value = float(rng.choice([2.0, 3.0, 0.5]))
            nid = f"n{j}"
            nodes.append(CompNode(nid, op, refs, value))
            pool.append(nid)
        graph = CompGraph(nodes, pool[-1])
        inputs = {f"x{i}": float(rng.uniform(0.5, 1.5)) for i in range(n_inputs)}
        try:
            trace = forward_eval(graph, inputs)
        except ValidationError:
            continue
        if _dag_margins_ok(graph, trace.values):
            return graph, inputs
    raise ValidationError(f"no admissible computation DAG found for seed {seed}")


def gen_fg(seed: int, *, kind: str = "tree") -> FactorGraph:
    """Random strictly positive factor graph.

    kind "tree": random spanning-tree shape with pairwise factors and one
    unary at the root.  kind "cycle": a 3-cycle of pairwise factors (the
    smallest loopy graph).
    """
    rng = np.random.default_rng(seed)
    if kind == "cycle":
        card = int(rng.integers(2, _MAX_CARD + 1))
        variables = [Variable(f"c{i}", card) for i in range(3)]
        factors = [
            Factor(
                f"e{i}",
                (f"c{i}", f"c{(i + 1) % 3}"),
                rng.uniform(0.5, 1.5, size=(card, card)),
            )
            for i in range(3)
        ]
        return FactorGraph(variables, factors)
    if kind != "tree":
        raise ValidationError(f"unknown factor-graph kind {kind!r}")
    n_vars = int(rng.integers(2, _MAX_FG_VARS + 1))
    cards = [int(rng.integers(2, _MAX_CARD + 1)) for _ in range(n_vars)]
    variables = [Variable(f"v{i}", cards[i]) for i in range(n_vars)]
    factors = [Factor("root", ("v0",), rng.uniform(0.3, 1.0, size=cards[0]))]
    for i in range(1, n_vars):
        parent = int(rng.integers(0, i))
        factors.append(
            Factor(
                f"e{i}",
                (f"v{parent}", f"v{i}"),
                rng.uniform(0.3, 1.0, size=(cards[parent], cards[i])),
            )
        )
    return FactorGraph(variables, factors)


def gen_spn(
    seed: int,
    *,
    shared: bool = False,
    n_vars: int | None = None,
    states: int | None = None,
):
    """Random complete, decomposable circuit plus soft evidence.

    The shape is a mixture (or single component) of flat products over
    per-variable sum terms, where each term sums over all states of one
    variable.  With ``shared=True`` some terms are reused across mixture
    components, so the circuit is a DAG rather than a tree.  Node counts
    stay at desk scale (<= 25); explicit ``n_vars``/``states`` that cannot
    fit the budget are rejected.
    """
    from .spn import Evidence, SpnCircuit, SpnNode

    rng = np.random.default_rng(seed)
    drawn_vars = int(rng.integers(2, 4))
    drawn_cards = [int(rng.integers(2, _MAX_CARD + 1)) for _ in range(4)]
    if n_vars is None:
        n_vars = drawn_vars
        cards = drawn_cards[:n_vars]
        if not shared and n_vars == 3:
            cards = [2] * 3  # keep the unshared tree within the node budget
    else:
        n_vars = int(n_vars)
        if n_vars < 1:
            raise ValidationError("need at least one variable")
        cards = (
            [int(states)] * n_vars
            if states is not None
            else [int(rng.integers(2, _MAX_CARD + 1)) for _ in range(n_vars)]
        )
        if any(c < 1 for c in cards):
            raise ValidationError("states must be positive")
        worst = 1 + 2 * (1 + sum(1 + c for c in cards))
        if worst > 25:
            raise ValidationError(
                f"infeasible size parameters: about {worst} nodes > 25"
            )
    names = [f"X{i}" for i in range(n_vars)]

    nodes: list[SpnNode] = []
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def leaf(var: str, state: int) -> str:
        lid = fresh("l")
        nodes.append(SpnNode(lid, "leaf", var=var, state=state))
        return lid

    def term(var: str, card: int) -> str:
        tid = fresh("t")
        kids = tuple(leaf(var, t) for t in range(card))
        weights = tuple(rng.uniform(0.3, 1.0, card))
        nodes.append(SpnNode(tid, "sum", kids, weights))
        return tid

    shared_terms = {}
    if shared:
        shared_terms = {names[i]: term(names[i], cards[i]) for i in range(n_vars)}

    n_comps = 2 if (shared or rng.random() < 0.8) else 1
    comp_ids = []
    for comp in range(n_comps):
        # first shared component reuses every term, so none go unreachable
        refresh = int(rng.integers(0, n_vars)) if (shared and comp > 0) else None
        kids = []
        for i, var in enumerate(names):
            if shared and i != refresh:
                kids.append(shared_terms[var])
            else:
                kids.append(term(var, cards[i]))
        pid = fresh("p")
        nodes.append(SpnNode(pid, "product", tuple(kids)))
        comp_ids.append(pid)
    if n_comps == 1:
        root = comp_ids[0]
    else:
        root = fresh("r")
        nodes.append(
            SpnNode(root, "sum", tuple(comp_ids), tuple(rng.uniform(0.4, 1.0, n_comps)))
        )
    circuit = SpnCircuit(nodes, root)
    evidence = Evidence(
        {names[i]: rng.uniform(0.3, 1.0, cards[i]) for i in range(n_vars)}
    )
    return circuit, evidence


def gen_posterior(seed: int, *, force_exp: bool = False):
    """Random factored discrete model plus a parameter point.

    Grids live in [-1, 1]; score graphs mix each grid value with shared
    parameters through bounded primitives only (no division, logs, or
    powers), so every configuration is safely evaluable.  Returns
    ``(model, theta)``.
    """
    from .compgraph import ExpScale, NegLossTemp
    from .posterior import DiscretePriorModel
    from .simplex import DistVec

    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, _MAX_POSTERIOR_VARS + 1))
    n_theta = int(rng.integers(1, 4))
    theta_names = ("a", "b", "c")[:n_theta]

    names = tuple(f"x{i}" for i in range(m))
    grids = []
    priors = []
    graphs = []
    for i in range(m):
        size = int(rng.integers(2, 6))
        grids.append(np.sort(rng.uniform(-1.0, 1.0, size)))
        mass = rng.uniform(0.2, 1.0, size)
        priors.append(DistVec(mass / mass.sum()))
        graphs.append(_gen_score_graph(rng, theta_names))

    if force_exp or rng.random() < 0.5:
        alpha = float(rng.uniform(0.3, 1.2) * rng.choice((-1.0, 1.0)))
        likelihood = ExpScale(alpha)
    elif rng.random() < 0.5:
        likelihood = NegLossTemp(
            "squared_error", float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
        )
    else:
        likelihood = NegLossTemp(
            "logistic", float(rng.integers(0, 2)), float(rng.uniform(0.5, 2.0))
        )
    model = DiscretePriorModel(
        names, tuple(grids), tuple(priors), tuple(graphs), theta_names, likelihood
    )
    theta = rng.uniform(-1.2, 1.2, n_theta)
    return model, theta


def _gen_score_graph(rng, theta_names):
    """Small bounded-score graph reading 'x' and a random parameter subset."""
    from .compgraph import CompGraph, CompNode

    used = sorted(
        rng.choice(len(theta_names), size=int(rng.integers(1, len(theta_names) + 1)),
                   replace=False)
    )
    nodes = [CompNode("x", "input")]
    for k in used:
        nodes.append(CompNode(theta_names[k], "input"))
    pool = ["x"] + [theta_names[k] for k in used]

    counter = [0]

    def fresh():
        counter[0] += 1
        return f"n{counter[0]}"

    last = None
    depth = int(rng.integers(2, 5))
    for _ in range(depth):
        op = rng.choice(("add", "sub", "mul", "tanh", "sigmoid", "softplus"))
        if op in ("add", "sub", "mul"):
            a = last if last is not None else str(rng.choice(pool))
            b = str(rng.choice(pool))
            nid = fresh()
            nodes.append(CompNode(nid, str(op), (a, b)))
        else:
            a = last if last is not None else str(rng.choice(pool))
            nid = fresh()
            nodes.append(CompNode(nid, str(op), (a,)))
        last = nid
        pool.append(nid)
    return CompGraph(nodes, last)
