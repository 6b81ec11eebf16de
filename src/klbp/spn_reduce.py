"""Circuit-to-graph reductions and projection-style readings of the passes.

Three bridges out of the circuit world:

* ``spn_to_factor_graph`` rewrites a tree circuit as a discrete factor
  graph whose BP beliefs reproduce the circuit marginals.  Sums become
  gate variables; the joint choice structure is carried by a single
  selection variable ranging over complete parses, which keeps the graph
  a star (hence a tree, hence BP-exact) at any nesting depth.
* ``region_two_step`` re-derives the marginals as the fixed point of a
  consensus-then-factorize projection over scope regions, reporting where
  the literal geometric-mean consensus is degenerate (disjoint supports)
  and substituting the exact conditional tables there.
* ``lipschitz_probe`` stress-tests smoothness of the evidence-to-marginals
  map over a log-box by comparing sampled pairs against a Lipschitz
  estimate from the exact Jacobian, read off clamped-evidence marginals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .budgets import BudgetError
from .errors import ValidationError, worst_error
from .factorgraph import Factor, FactorGraph, Variable
from .spn import (
    Evidence,
    SpnCircuit,
    all_ones_evidence,
    check_evidence,
    marginal_batch,
    require_valid,
)

PARSE_CAP = 10_000
REGION_ENTRY_CAP = 4096

PARSE_VAR = "P::parse"

# Evidence columns per ``marginal_batch`` call of the smoothness probe, so
# its memory does not grow with the sample count; a point travels with its
# dim clamped copies, so a chunk holds at least one point.
_PROBE_COLUMNS = 1 << 12


def _require_tree(circuit: SpnCircuit, what: str) -> None:
    if not circuit.is_tree():
        raise ValidationError(f"{what} needs a tree circuit; this one shares nodes")


# ---------------------------------------------------------------- parses


def enumerate_parses(circuit: SpnCircuit):
    """All complete parses of a tree circuit.

    A parse picks one child at every visited sum and keeps every child of
    a visited product; by completeness/decomposability it selects exactly
    one state per variable.  Returns (weight, var->state, sum->position)
    triples in deterministic order; more than ``PARSE_CAP`` parses raise.
    """
    _require_tree(circuit, "parse enumeration")

    def walk(nid):
        n = circuit.node(nid)
        if n.kind == "leaf":
            return [(1.0, {n.var: n.state}, {})]
        if n.kind == "sum":
            out = []
            for pos, (c, w) in enumerate(zip(n.children, n.weights)):
                for cw, asg, choice in walk(c):
                    merged = dict(choice)
                    merged[nid] = pos
                    out.append((w * cw, asg, merged))
                if len(out) > PARSE_CAP:
                    raise BudgetError(f"more than {PARSE_CAP} parses")
            return out
        out = [(1.0, {}, {})]
        for c in n.children:
            child = walk(c)
            if len(out) * len(child) > PARSE_CAP:
                raise BudgetError(f"more than {PARSE_CAP} parses")
            nxt = []
            for (w1, a1, c1), (w2, a2, c2) in itertools.product(out, child):
                nxt.append((w1 * w2, {**a1, **a2}, {**c1, **c2}))
            out = nxt
        return out

    return walk(circuit.root)


def spn_to_factor_graph(
    circuit: SpnCircuit, e: Evidence | None = None
) -> FactorGraph:
    """Rewrite a tree circuit as a factor graph with per-sum gate variables.

    Variables: one per circuit variable, one gate Y_s per sum (alphabet =
    its children), and -- when the circuit has sums -- one selection
    variable over complete parses.  Factors: parse-weight unary, evidence
    unaries, 0/1 selection tables tying the parse to leaf indicators, and
    gate tables forcing Y_s to the parse's choice wherever the parse
    visits s (uniform where it does not).  The graph is a star around the
    selection variable, so it is always a tree and BP is exact on it.

    Zeros inside the selection tables are structural; validation reports
    them but BP runs on the support.
    """
    require_valid(circuit)
    if e is None:
        e = all_ones_evidence(circuit)
    check_evidence(circuit, e)
    variables = [
        Variable(v, circuit.cardinality(v)) for v in circuit.variable_order()
    ]
    sums = sorted(n.id for n in circuit.nodes if n.kind == "sum")

    if not sums:
        # pure product tree: exactly one leaf per variable
        parses = enumerate_parses(circuit)
        _, assignment, _ = parses[0]
        factors = []
        for v in circuit.variable_order():
            table = np.zeros(circuit.cardinality(v))
            table[assignment[v]] = max(e.lam[v][assignment[v]], 0.0)
            if table.sum() <= 0.0:
                raise ValidationError(f"empty support for variable {v!r}")
            factors.append(Factor(f"sel::{v}", (v,), table))
        return FactorGraph(variables, factors)

    parses = enumerate_parses(circuit)
    n_parses = len(parses)
    variables.append(Variable(PARSE_VAR, n_parses))
    for s in sums:
        variables.append(Variable(f"Y::{s}", len(circuit.node(s).children)))

    factors = [
        Factor("w::parse", (PARSE_VAR,), np.array([w for w, _, _ in parses]))
    ]
    for v in circuit.variable_order():
        factors.append(Factor(f"lam::{v}", (v,), np.asarray(e.lam[v], dtype=float)))
        sel = np.zeros((n_parses, circuit.cardinality(v)))
        for p, (_, assignment, _) in enumerate(parses):
            sel[p, assignment[v]] = 1.0
        factors.append(Factor(f"sel::{v}", (PARSE_VAR, v), sel))
    for s in sums:
        arity = len(circuit.node(s).children)
        gate = np.zeros((n_parses, arity))
        for p, (_, _, choices) in enumerate(parses):
            if s in choices:
                gate[p, choices[s]] = 1.0
            else:
                gate[p, :] = 1.0 / arity
        factors.append(Factor(f"gate::{s}", (PARSE_VAR, f"Y::{s}"), gate))
    return FactorGraph(variables, factors)


# ---------------------------------------------------------------- regions


def _scope_vars(circuit: SpnCircuit, nid: str) -> tuple:
    return tuple(sorted(circuit.scope(nid)))


def scope_tables(circuit: SpnCircuit, e: Evidence) -> dict:
    """Unnormalized per-node tables over sorted scope outcomes.

    Bottom-up: a leaf (i,t) keeps lambda mass only at state t; products
    take outer products across disjoint child scopes; sums take weighted
    elementwise sums of same-scope children.  The root table is then the
    unnormalized evidence-conditional joint.
    """
    tables: dict[str, np.ndarray] = {}
    for nid in circuit.topo():
        n = circuit.node(nid)
        vars_ = _scope_vars(circuit, nid)
        size = math.prod(circuit.cardinality(v) for v in vars_)
        if size > REGION_ENTRY_CAP:
            raise BudgetError(
                f"region for {nid!r} has {size} entries (cap {REGION_ENTRY_CAP})"
            )
        if n.kind == "leaf":
            t = np.zeros(circuit.cardinality(n.var))
            t[n.state] = e.lam[n.var][n.state]
            tables[nid] = t
        elif n.kind == "product":
            axis = {v: i for i, v in enumerate(vars_)}
            operands = []
            for c in n.children:
                operands += (tables[c], [axis[v] for v in _scope_vars(circuit, c)])
            tables[nid] = np.einsum(*operands, list(range(len(vars_))))
        else:
            acc = np.zeros([circuit.cardinality(v) for v in vars_])
            for c, w in zip(n.children, n.weights):
                acc += w * tables[c]
            tables[nid] = acc
    return tables


def _marginalize(table: np.ndarray, from_vars: tuple, to_vars: tuple) -> np.ndarray:
    # both scopes are sorted, so summing out the complement preserves order
    drop = tuple(i for i, v in enumerate(from_vars) if v not in to_vars)
    return table.sum(axis=drop) if drop else table


@dataclass(frozen=True, eq=False)
class RegionFamily:
    scopes: tuple
    groups: dict  # scope -> sorted node ids
    init_tables: dict  # node id -> normalized table
    tables: dict  # scope -> table after both projection steps
    diagnostics: dict  # scope -> consensus diagnostics
    var_marginals: dict  # var -> marginal vector


def region_two_step(circuit: SpnCircuit, e: Evidence) -> RegionFamily:
    """Consensus-then-factorize projection over the circuit's scope regions.

    Starts from per-node normalized sub-network distributions, merges
    equal-scope copies into one table per region (geometric-mean consensus
    where the copies share support; where supports are disjoint the literal
    mean is degenerate and the exact conditional table takes its place,
    flagged in the diagnostics), then rewrites every product-node region as
    the outer product of its child-region marginals.  Singleton-scope
    tables are reported as per-variable marginals.
    """
    _require_tree(circuit, "region projection")
    require_valid(circuit)
    check_evidence(circuit, e)
    raw = scope_tables(circuit, e)
    root_vars = _scope_vars(circuit, circuit.root)
    joint = raw[circuit.root]
    total = joint.sum()
    if total <= 0.0:
        raise ValidationError("empty support: evidence kills every outcome")
    joint = joint / total

    init_tables = {}
    groups: dict[tuple, list] = {}
    for nid in circuit.topo():
        mass = raw[nid].sum()
        if mass <= 0.0:
            raise ValidationError(f"empty support in the region at {nid!r}")
        init_tables[nid] = raw[nid] / mass
        groups.setdefault(_scope_vars(circuit, nid), []).append(nid)
    groups = {scope: sorted(ids) for scope, ids in groups.items()}

    tables = {}
    diagnostics = {}
    for scope, ids in sorted(groups.items()):
        exact = _marginalize(joint, root_vars, scope)
        members = [init_tables[nid] for nid in ids]
        common = np.ones_like(members[0], dtype=bool)
        for m in members:
            common &= m > 0.0
        if common.any():
            # literal geometric-mean consensus on the common support
            logs = np.zeros_like(members[0])
            for m in members:
                logs = logs + np.where(common, np.log(np.where(common, m, 1.0)), 0.0)
            lit = np.where(common, np.exp(logs / len(members)), 0.0)
            lit = lit / lit.sum()
            diagnostics[scope] = {
                "degenerate": False,
                "literal_gap": float(np.abs(lit - exact).max()),
                "n_members": len(ids),
            }
        else:
            diagnostics[scope] = {
                "degenerate": True,
                "literal_gap": None,
                "n_members": len(ids),
            }
        tables[scope] = exact

    # second step: factorize product-node regions across child scopes
    for nid in sorted(n.id for n in circuit.nodes if n.kind == "product"):
        n = circuit.node(nid)
        scope = _scope_vars(circuit, nid)
        axis = {v: i for i, v in enumerate(scope)}
        operands = []
        for c in n.children:
            cvars = _scope_vars(circuit, c)
            operands += (tables[cvars], [axis[v] for v in cvars])
        tables[scope] = np.einsum(*operands, list(range(len(scope))))

    var_marginals = {}
    for v in circuit.variable_order():
        scope = (v,)
        if scope in tables:
            var_marginals[v] = tables[scope]
        else:
            var_marginals[v] = _marginalize(joint, root_vars, scope)

    return RegionFamily(
        scopes=tuple(sorted(groups)),
        groups=groups,
        init_tables=init_tables,
        tables=tables,
        diagnostics=diagnostics,
        var_marginals=var_marginals,
    )


# -------------------------------------------------------------- lipschitz


def _box_per_coordinate(circuit: SpnCircuit, box) -> list:
    if isinstance(box, dict):
        per_var = {v: box[v] for v in circuit.variable_order()}
    else:
        per_var = {v: box for v in circuit.variable_order()}
    out = []
    for v in circuit.variable_order():
        lo, hi = per_var[v]
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("log-bounds must be finite (box touches boundary)")
        if lo > hi:
            raise ValidationError(f"empty box for {v!r}: {lo} > {hi}")
        out.extend((lo, hi) for _ in range(circuit.cardinality(v)))
    return out


def lipschitz_probe(
    circuit: SpnCircuit, box, n_samples: int, seed: int
) -> dict:
    """Mean-value smoothness check of log-evidence -> marginals.

    Samples points u in the log-box and takes L_hat as the largest exact
    Jacobian operator norm over those points, then checks every sampled
    pair against ||p(u)-p(u')|| <= 1.05 L_hat ||u-u'||.  Reports the
    estimate and the worst pair ratio.

    The network polynomial is multilinear, so column t of the Jacobian is
    p_t (p(.|X=t) - p), where p(.|X=t) are the marginals with slot t's
    variable clamped to its state t (Darwiche, JACM 2003).
    """
    require_valid(circuit)
    if n_samples < 0:
        raise ValidationError(f"sample count must be nonnegative, got {n_samples}")
    bounds = _box_per_coordinate(circuit, box)
    dim = len(bounds)
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    points = lo + rng.random((n_samples, dim)) * (hi - lo)

    # keep[t, s]: slot s survives clamping slot t, i.e. it belongs to another
    # variable or is t itself; a slot no leaf reads has marginal 0 and a zero
    # column, and clamping it would empty the root, so it stays unclamped
    slots = [(v, t) for v in circuit.variable_order() for t in range(circuit.cardinality(v))]
    read = {(n.var, n.state) for n in circuit.nodes if n.kind == "leaf"}
    owner = np.array([v for v, _ in slots])
    keep = (owner[:, None] != owner) | np.eye(dim, dtype=bool)
    keep[[slot not in read for slot in slots]] = True
    lam = np.exp(points)
    values = np.empty_like(points)
    L_hat = 0.0
    step = max(1, _PROBE_COLUMNS // (dim + 1))
    for start in range(0, n_samples, step):
        chunk = lam[start : start + step]
        n = len(chunk)
        clamped = (chunk[:, None, :] * keep).reshape(-1, dim)
        cols = marginal_batch(circuit, np.concatenate([chunk, clamped]).T).T
        p, given = cols[:n], cols[n:].reshape(n, dim, dim)
        values[start : start + n] = p
        # row t of each block is column t of J; the 2-norm ignores the transpose
        Jt = p[:, :, None] * (given - p[:, None, :])
        L_hat = worst_error([L_hat, np.linalg.norm(Jt, 2, axis=(1, 2)).max()])

    worst = 0.0
    ok = True
    for i in range(n_samples):
        bound = L_hat * np.linalg.norm(points[i + 1 :] - points[i], axis=1)
        ndp = np.linalg.norm(values[i + 1 :] - values[i], axis=1)
        ok = ok and bool((ndp <= 1.05 * bound).all())  # a NaN fails
        live = bound > 0
        worst = worst_error([worst, (ndp[live] / bound[live]).max(initial=0.0)])
    return {
        "L_hat": L_hat,
        "worst_pair_ratio": worst,
        "all_pairs_ok": ok,
        "n_samples": int(n_samples),
        "n_pairs": math.comb(n_samples, 2),
    }
