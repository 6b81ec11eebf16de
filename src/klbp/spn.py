"""Sum-product circuits: validation, value passes, marginals, gates.

A circuit is a rooted DAG of sum, product, and indicator-leaf nodes.  The
upward pass evaluates the network polynomial at an evidence vector; one
reverse sweep then yields, at every node, the partial derivative of the
root value -- and because complete, decomposable circuits have multilinear
network polynomials, those derivatives are exactly (unnormalized)
marginals, gate posteriors, and KKT multipliers.  Both linear- and
log-domain evaluation paths are provided and must agree.

Hard (zero) evidence is legal: zeros simply propagate through the linear
pass, and per-variable beliefs are built on the restricted support so they
stay interior where the theory expects interior points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import BudgetError
from .errors import SchemaError, ValidationError
from .toposort import topo_sort

Array = np.ndarray

_KINDS = ("sum", "product", "leaf")

UNROLL_NODE_CAP = 10_000


@dataclass(frozen=True, eq=False)
class SpnNode:
    id: str
    kind: str
    children: tuple[str, ...] = ()
    weights: tuple[float, ...] = ()
    var: str | None = None
    state: int | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"node id must be a nonempty string, got {self.id!r}")
        if self.kind not in _KINDS:
            raise ValidationError(f"node {self.id!r}: unknown kind {self.kind!r}")
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.kind == "leaf":
            if self.children or self.weights:
                raise ValidationError(f"leaf {self.id!r} cannot have children")
            if not isinstance(self.var, str) or not self.var:
                raise ValidationError(f"leaf {self.id!r} needs a variable name")
            if self.state is None or int(self.state) < 0:
                raise ValidationError(f"leaf {self.id!r} needs a state index >= 0")
            object.__setattr__(self, "state", int(self.state))
        else:
            if not self.children:
                raise ValidationError(f"{self.kind} node {self.id!r} has no children")
            if self.kind == "sum":
                if len(self.weights) != len(self.children):
                    raise ValidationError(
                        f"sum {self.id!r}: {len(self.weights)} weights for "
                        f"{len(self.children)} children"
                    )
                if not all(math.isfinite(w) for w in self.weights):
                    raise ValidationError(f"sum {self.id!r}: non-finite weight")
            elif self.weights:
                raise ValidationError(f"product {self.id!r} cannot carry weights")


class SpnCircuit:
    """Immutable circuit; topological order and scopes fixed at build time."""

    def __init__(self, nodes, root: str):
        self.nodes = tuple(nodes)
        self.root = root
        self._by_id: dict[str, SpnNode] = {}
        for n in self.nodes:
            if n.id in self._by_id:
                raise ValidationError(f"duplicate node id {n.id!r}")
            self._by_id[n.id] = n
        for n in self.nodes:
            for c in n.children:
                if c not in self._by_id:
                    raise ValidationError(f"node {n.id!r} references unknown {c!r}")
        if root not in self._by_id:
            raise ValidationError(f"root {root!r} does not exist")
        self._topo = topo_sort({n.id: n.children for n in self.nodes})
        if self._topo is None:
            raise ValidationError("circuit contains a cycle")
        self._scopes = self._compute_scopes()
        self._leaf_groups: dict[tuple[str, int], list[str]] = {}
        for n in self.nodes:
            if n.kind == "leaf":
                self._leaf_groups.setdefault((n.var, n.state), []).append(n.id)
        self._cards: dict[str, int] = {}
        for n in self.nodes:
            if n.kind == "leaf":
                cur = self._cards.get(n.var, 0)
                self._cards[n.var] = max(cur, n.state + 1)

    def _compute_scopes(self) -> dict[str, frozenset]:
        scopes: dict[str, frozenset] = {}
        for nid in self._topo:
            n = self._by_id[nid]
            if n.kind == "leaf":
                scopes[nid] = frozenset((n.var,))
            else:
                merged: set = set()
                for c in n.children:
                    merged |= scopes[c]
                scopes[nid] = frozenset(merged)
        return scopes

    def node(self, nid: str) -> SpnNode:
        return self._by_id[nid]

    def topo(self) -> list[str]:
        return list(self._topo)

    def scope(self, nid: str) -> frozenset:
        return self._scopes[nid]

    def variable_order(self) -> list[str]:
        return sorted(self._cards)

    def cardinality(self, var: str) -> int:
        if var not in self._cards:
            raise ValidationError(f"unknown variable {var!r}")
        return self._cards[var]

    def leaves_for(self, var: str, state: int) -> list[str]:
        return list(self._leaf_groups.get((var, state), ()))

    def parent_count(self) -> dict[str, int]:
        count = {n.id: 0 for n in self.nodes}
        for n in self.nodes:
            for c in n.children:
                count[c] += 1
        return count

    def is_tree(self) -> bool:
        count = self.parent_count()
        reached = reachable_from_root(self)
        return all(count[nid] <= 1 for nid in reached) and len(reached) == len(
            self.nodes
        )


def reachable_from_root(circuit: SpnCircuit) -> set[str]:
    seen = {circuit.root}
    stack = [circuit.root]
    while stack:
        nid = stack.pop()
        for c in circuit.node(nid).children:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def validate_spn(circuit: SpnCircuit) -> dict:
    """Report completeness, decomposability, weight positivity, and reach.

    Scope sets are computed bottom-up and returned (sorted) for inspection;
    each violation is located by node id.
    """
    completeness = []
    decomposability = []
    positivity = []
    for n in circuit.nodes:
        if n.kind == "sum":
            for pos, (c, w) in enumerate(zip(n.children, n.weights)):
                if circuit.scope(c) != circuit.scope(n.id):
                    completeness.append((n.id, c))
                if w <= 0.0:
                    positivity.append((n.id, pos))
        elif n.kind == "product":
            for i in range(len(n.children)):
                for j in range(i + 1, len(n.children)):
                    shared = circuit.scope(n.children[i]) & circuit.scope(
                        n.children[j]
                    )
                    if shared:
                        decomposability.append(
                            (n.id, n.children[i], n.children[j], sorted(shared)[0])
                        )
    unreachable = sorted(set(n.id for n in circuit.nodes) - reachable_from_root(circuit))
    valid = not (completeness or decomposability or positivity or unreachable)
    return {
        "valid": valid,
        "completeness": completeness,
        "decomposability": decomposability,
        "positivity": positivity,
        "unreachable": unreachable,
        "scopes": {n.id: tuple(sorted(circuit.scope(n.id))) for n in circuit.nodes},
    }


def require_valid(circuit: SpnCircuit) -> None:
    report = validate_spn(circuit)
    if not report["valid"]:
        parts = []
        for key in ("completeness", "decomposability", "positivity", "unreachable"):
            if report[key]:
                parts.append(f"{key}: {report[key]}")
        raise ValidationError("invalid circuit -- " + "; ".join(parts))


# -------------------------------------------------------------- evidence


@dataclass(frozen=True, eq=False)
class Evidence:
    """Per-variable indicator values lambda, nonnegative with nonempty support."""

    lam: dict

    def __post_init__(self):
        fixed = {}
        for var, values in self.lam.items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ValidationError(f"evidence for {var!r} must be a 1-d vector")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
                raise ValidationError(
                    f"evidence for {var!r} must be finite and nonnegative"
                )
            if arr.sum() <= 0.0:
                raise ValidationError(f"evidence for {var!r} has empty support")
            arr.flags.writeable = False
            fixed[var] = arr
        object.__setattr__(self, "lam", fixed)

    def is_soft(self) -> bool:
        return all(np.all(arr > 0.0) for arr in self.lam.values())


def all_ones_evidence(circuit: SpnCircuit) -> Evidence:
    return Evidence(
        {v: np.ones(circuit.cardinality(v)) for v in circuit.variable_order()}
    )


def check_evidence(circuit: SpnCircuit, e: Evidence) -> None:
    for var in circuit.variable_order():
        if var not in e.lam:
            raise ValidationError(f"evidence missing variable {var!r}")
        if e.lam[var].size != circuit.cardinality(var):
            raise ValidationError(
                f"evidence for {var!r} has {e.lam[var].size} states, "
                f"circuit uses {circuit.cardinality(var)}"
            )


# ---------------------------------------------------------------- passes


@dataclass(frozen=True, eq=False)
class ValueMap:
    values: dict

    def root_value(self, circuit: SpnCircuit) -> float:
        return self.values[circuit.root]


@dataclass(frozen=True, eq=False)
class AdjointMap:
    values: dict
    edges: dict  # (parent id, child position) -> edge adjoint


def upward_pass(
    circuit: SpnCircuit,
    e: Evidence,
    *,
    check: bool = True,
    allow_zero_root: bool = False,
) -> ValueMap:
    """Bottom-up evaluation of the network polynomial at the evidence.

    A zero root value means the evidence has empty support under the
    circuit and is rejected unless ``allow_zero_root`` is set (coefficient
    extraction legitimately probes unsupported assignments).
    """
    if check:
        require_valid(circuit)
        check_evidence(circuit, e)
    values: dict[str, float] = {}
    for nid in circuit.topo():
        n = circuit.node(nid)
        if n.kind == "leaf":
            values[nid] = float(e.lam[n.var][n.state])
        elif n.kind == "product":
            out = 1.0
            for c in n.children:
                out *= values[c]
            values[nid] = out
        else:
            values[nid] = float(
                sum(w * values[c] for c, w in zip(n.children, n.weights))
            )
    if values[circuit.root] <= 0.0 and not allow_zero_root:
        raise ValidationError("evidence has empty support: root value is zero")
    return ValueMap(values)


def upward_pass_log(circuit: SpnCircuit, e: Evidence, *, check: bool = True) -> dict:
    """Log-domain twin of the upward pass (-inf encodes exact zeros)."""
    if check:
        require_valid(circuit)
        check_evidence(circuit, e)
    logs: dict[str, float] = {}
    with np.errstate(divide="ignore"):
        for nid in circuit.topo():
            n = circuit.node(nid)
            if n.kind == "leaf":
                logs[nid] = float(np.log(e.lam[n.var][n.state]))
            elif n.kind == "product":
                logs[nid] = float(sum(logs[c] for c in n.children))
            else:
                terms = np.array(
                    [math.log(w) + logs[c] for c, w in zip(n.children, n.weights)]
                )
                logs[nid] = float(np.logaddexp.reduce(terms))
    if logs[circuit.root] == -math.inf:
        raise ValidationError("evidence has empty support: root value is zero")
    return logs


def downward_pass(circuit: SpnCircuit, S: ValueMap) -> AdjointMap:
    """Reverse sweep: D(root)=1, sums push D*w, products push D times the
    product of the sibling values; per-edge contributions are retained."""
    D = {nid: 0.0 for nid in circuit.topo()}
    D[circuit.root] = 1.0
    edges: dict[tuple[str, int], float] = {}
    for nid in reversed(circuit.topo()):
        n = circuit.node(nid)
        if n.kind == "sum":
            for pos, (c, w) in enumerate(zip(n.children, n.weights)):
                contrib = D[nid] * w
                edges[(nid, pos)] = contrib
                D[c] += contrib
        elif n.kind == "product":
            vals = [S.values[c] for c in n.children]
            for pos, c in enumerate(n.children):
                others = 1.0
                for j, v in enumerate(vals):
                    if j != pos:
                        others *= v
                contrib = D[nid] * others
                edges[(nid, pos)] = contrib
                D[c] += contrib
    return AdjointMap(D, edges)


# -------------------------------------------------------------- readouts


def marginal_arrays(circuit: SpnCircuit, e: Evidence, S: ValueMap, D: AdjointMap) -> dict:
    """Full-alphabet per-variable marginal vectors (zeros kept in place)."""
    root = S.values[circuit.root]
    out = {}
    for var in circuit.variable_order():
        card = circuit.cardinality(var)
        vec = np.zeros(card)
        for t in range(card):
            acc = sum(D.values[leaf] for leaf in circuit.leaves_for(var, t))
            vec[t] = e.lam[var][t] * acc / root
        out[var] = vec
    return out


def variable_marginals(circuit: SpnCircuit, e: Evidence, S: ValueMap, D: AdjointMap) -> dict:
    """Per-variable beliefs as interior vectors on the evidence support.

    Each belief is indexed by the surviving state labels, so hard evidence
    yields a smaller outcome set rather than zeros inside the vector.
    """
    from .simplex import DistVec

    arrays = marginal_arrays(circuit, e, S, D)
    out = {}
    for var, vec in arrays.items():
        support = tuple(int(t) for t in np.nonzero(vec > 0.0)[0])
        if not support:
            raise ValidationError(f"variable {var!r} has no supported state")
        out[var] = DistVec(vec[list(support)], support)
    return out


def euler_residuals(circuit: SpnCircuit, e: Evidence, S: ValueMap, D: AdjointMap) -> dict:
    """Relative residual of sum_t lambda_{i,t} dS/dlambda_{i,t} = S(e)."""
    root = S.values[circuit.root]
    out = {}
    for var in circuit.variable_order():
        total = 0.0
        for t in range(circuit.cardinality(var)):
            acc = sum(D.values[leaf] for leaf in circuit.leaves_for(var, t))
            total += e.lam[var][t] * acc
        out[var] = abs(total - root) / abs(root)
    return out


def gate_report(circuit: SpnCircuit, S: ValueMap, D: AdjointMap) -> dict:
    """Per-sum gate posteriors: local b_s, visit probability pi, global gate."""
    root = S.values[circuit.root]
    out = {}
    for nid in sorted(n.id for n in circuit.nodes if n.kind == "sum"):
        n = circuit.node(nid)
        child_vals = np.array([S.values[c] for c in n.children])
        weights = np.array(n.weights)
        local = weights * child_vals / S.values[nid]
        pi = D.values[nid] * S.values[nid] / root
        out[nid] = {
            "children": tuple(n.children),
            "b": local,
            "pi": pi,
            "global": D.values[nid] * weights * child_vals / root,
        }
    return out


def kkt_multipliers(circuit: SpnCircuit, S: ValueMap, D: AdjointMap) -> dict:
    """Visit probabilities at sums and per-product-edge multipliers.

    Verifies the defining identities through two floating routes before
    returning: pi(s) must equal D(s) S(s)/S(e) recomputed directly, and
    each product-edge multiplier must equal its retained edge adjoint over
    S(e).
    """
    root = S.values[circuit.root]
    pis = {}
    for nid in sorted(n.id for n in circuit.nodes if n.kind == "sum"):
        pi = D.values[nid] * S.values[nid] / root
        alt = (D.values[nid] / root) * S.values[nid]
        if abs(pi - alt) > 1e-12 * max(1.0, abs(pi)):
            raise ValidationError(f"visit-probability identity failed at {nid!r}")
        pis[nid] = pi
    mus = {}
    for nid in sorted(n.id for n in circuit.nodes if n.kind == "product"):
        n = circuit.node(nid)
        for pos, c in enumerate(n.children):
            direct = D.edges[(nid, pos)] / root
            vals = [S.values[cc] for j, cc in enumerate(n.children) if j != pos]
            alt = D.values[nid] * math.prod(vals) / root
            if abs(direct - alt) > 1e-12 * max(1.0, abs(direct)):
                raise ValidationError(
                    f"edge-multiplier identity failed at {nid!r} child {c!r}"
                )
            mus[(nid, pos)] = direct
    return {"pi": pis, "mu": mus}


# ---------------------------------------------------------------- unroll


def unroll_circuit(circuit: SpnCircuit, *, cap: int = UNROLL_NODE_CAP) -> SpnCircuit:
    """Duplicate shared subcircuits so every node has one parent.

    Returns the circuit unchanged when it is already a tree.  The unrolled
    copy uses fresh deterministic ids; exceeding ``cap`` nodes raises.
    """
    if circuit.is_tree():
        return circuit
    counter = [0]
    nodes: list[SpnNode] = []

    def clone(nid: str) -> str:
        if counter[0] >= cap:
            raise BudgetError(f"unrolling exceeds {cap} nodes")
        fresh = f"u{counter[0]}"
        counter[0] += 1
        n = circuit.node(nid)
        kids = tuple(clone(c) for c in n.children)
        nodes.append(
            SpnNode(fresh, n.kind, kids, n.weights, n.var, n.state)
        )
        return fresh

    root = clone(circuit.root)
    return SpnCircuit(nodes, root)


# ----------------------------------------------------------------- JSON


def circuit_to_json(circuit: SpnCircuit) -> dict:
    nodes = []
    for n in circuit.nodes:
        entry: dict = {"id": n.id, "kind": n.kind}
        if n.kind == "sum":
            entry["children"] = [
                {"id": c, "weight": w} for c, w in zip(n.children, n.weights)
            ]
        elif n.kind == "product":
            entry["children"] = [{"id": c} for c in n.children]
        else:
            entry["var"] = n.var
            entry["state"] = n.state
        nodes.append(entry)
    return {"schema": "v1", "nodes": nodes, "root": circuit.root}


def circuit_from_json(obj) -> SpnCircuit:
    if not isinstance(obj, dict) or "nodes" not in obj or "root" not in obj:
        raise SchemaError("circuit JSON must be an object with 'nodes' and 'root'")
    nodes = []
    for entry in obj["nodes"]:
        try:
            kind = entry["kind"]
            if kind == "leaf":
                nodes.append(
                    SpnNode(entry["id"], "leaf", var=entry["var"], state=entry["state"])
                )
            else:
                kids = entry.get("children", [])
                ids = tuple(c["id"] for c in kids)
                if kind == "sum":
                    weights = tuple(c["weight"] for c in kids)
                    nodes.append(SpnNode(entry["id"], "sum", ids, weights))
                else:
                    nodes.append(SpnNode(entry["id"], kind, ids))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad circuit node {entry!r}: {exc}") from exc
        except ValidationError as exc:
            raise SchemaError(f"bad circuit node {entry!r}: {exc}") from exc
    try:
        return SpnCircuit(nodes, obj["root"])
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc


def evidence_to_json(e: Evidence) -> dict:
    return {
        "schema": "v1",
        "lambda": {var: [float(x) for x in arr] for var, arr in sorted(e.lam.items())},
    }


def evidence_from_json(obj) -> Evidence:
    if not isinstance(obj, dict) or "lambda" not in obj:
        raise SchemaError("evidence JSON must be an object with 'lambda'")
    if not isinstance(obj["lambda"], dict):
        raise SchemaError("'lambda' must map variables to vectors")
    try:
        return Evidence({var: values for var, values in obj["lambda"].items()})
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc
