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

A circuit is immutable, so its validation report and its compiled form are
built once, on first use, and shared by every pass.  The compiled form is a
level schedule: nodes grouped by (level, kind), where a node's level is the
longest path from it down to a leaf, so every child of a group sits in an
earlier group.  Each group is stored position-major, as in layerized
circuit engines: its child indexes are a (fan-in k, nodes m) matrix padded
with a unit row, with linear and log weights of the same shape, and its
edge adjoints are one (k, m) block, so every reduction over the children
is k - 1 whole-row operations in child order.  The leaves hold a gather
from (variable, state) to an evidence slot.  The upward passes run one
gather and one reduce per group, bottom-up; the downward pass runs
top-down, gathering each node's adjoint from the edge adjoints that end at
it and writing its own edge adjoints (sums: D times the weight; products: D
times the product of the siblings, from prefix and suffix products).  Node
and edge arrays are (rows, batch): a single query is a batch of one, and
``marginal_batch`` runs many evidence columns through the same two passes
with the same arithmetic, so each column equals its single query bitwise.
The linear passes fail closed when the root value overflows or underflows,
and name the log root.
``Evidence`` keeps one flat vector.
When its layout (variable names and sizes, in order) is the schedule's own,
as with variables in ``variable_order``, that vector is the evidence column
the passes read, with no copy and no per-variable check; evidence in any
other layout is checked and gathered into schedule order.  ``ValueMap`` and
``AdjointMap`` hold only a pass's arrays, read through read-only mappings
keyed by node id or by (parent id, child position); readouts refuse a map
from another circuit.  The gate and multiplier readouts are mappings over
their arrays too, keyed through indexes the schedule compiles once: a gate
dict is built on first access, and the multiplier views write through.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import budgets
from .errors import SchemaError, ValidationError, whole_number
from .toposort import topo_sort

Array = np.ndarray

_KINDS = ("sum", "product", "leaf")


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
            if self.state is None or whole_number(self.state, f"leaf {self.id!r}: state") < 0:
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
        self._cards: dict[str, int] = {}
        for n in self.nodes:
            if n.kind == "leaf" and n.state >= self._cards.get(n.var, 0):
                # every pass keeps one slot per (variable, state)
                budgets.check_joint_entries(n.state + 1, what=f"variable {n.var!r} of leaf {n.id!r}")
                self._cards[n.var] = n.state + 1

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

    @cached_property
    def _validation(self) -> dict:
        return _validation_report(self)

    @cached_property
    def _schedule(self) -> "_Schedule":
        return _Schedule(self)

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


def _shared_scope_pairs(circuit: SpnCircuit, n: SpnNode) -> list:
    """Child pairs of product ``n`` whose scopes meet, each with its smallest
    shared variable, ordered by child positions.

    One pass maps every variable to the child positions that hold it; only a
    variable held twice makes pairs, so a decomposable product costs the
    total size of its child scopes, not a comparison per child pair.
    """
    holders: dict[str, list[int]] = {}
    for pos, c in enumerate(n.children):
        for var in circuit.scope(c):
            holders.setdefault(var, []).append(pos)
    smallest: dict[tuple[int, int], str] = {}
    for var, positions in holders.items():
        for pair in itertools.combinations(positions, 2):
            if pair not in smallest or var < smallest[pair]:
                smallest[pair] = var
    return [
        (n.id, n.children[i], n.children[j], var)
        for (i, j), var in sorted(smallest.items())
    ]


def _validation_report(circuit: SpnCircuit) -> dict:
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
            decomposability.extend(_shared_scope_pairs(circuit, n))
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


def validate_spn(circuit: SpnCircuit) -> dict:
    """Report completeness, decomposability, weight positivity, and reach.

    Scope sets are computed bottom-up and returned (sorted) for inspection;
    each violation is located by node id.  A circuit is immutable, so the
    report is computed once per circuit; every call returns its own copy.
    """
    report = circuit._validation
    return {
        **report,
        "completeness": list(report["completeness"]),
        "decomposability": list(report["decomposability"]),
        "positivity": list(report["positivity"]),
        "unreachable": list(report["unreachable"]),
        "scopes": dict(report["scopes"]),
    }


def require_valid(circuit: SpnCircuit) -> None:
    report = circuit._validation
    if not report["valid"]:
        parts = []
        for key in ("completeness", "decomposability", "positivity", "unreachable"):
            if report[key]:
                parts.append(f"{key}: {report[key]}")
        raise ValidationError("invalid circuit -- " + "; ".join(parts))


# -------------------------------------------------------------- evidence


class Evidence:
    """Per-variable indicator values lambda, nonnegative with nonempty support.

    The values are copied once into one read-only flat vector: variables in
    the order given (``names``), each variable's states in order, so the
    caller's arrays stay untouched.  The usual input, 1-d values none of
    them empty, is laid out by one concatenate and checked as a whole
    vector; the per-variable route only converts odd input (0-d, 2-d or
    empty values, strings, complex) and names the first fault.  ``lam`` is
    a read-only mapping from each variable to its slice of that vector,
    built on first access.  When the evidence's layout (names and sizes) is
    a schedule's own, the flat vector itself is the evidence column the
    passes read, with no copy.
    """

    def __init__(self, lam: Mapping):
        names = tuple(lam)
        values = list(lam.values())
        try:
            flat = np.concatenate(values, dtype=float)
            sizes = tuple(map(len, values))
            n = len(values) if flat.ndim == 1 and 0 not in sizes and sum(sizes) == flat.size else -1
        except (TypeError, ValueError, OverflowError):  # the per-variable route names the fault
            n = -1
        if n < 0:
            arrays = [np.asarray(v, dtype=float) for v in values]
            # the variables before the first malformed one are checked together;
            # an error names the first failing variable and its first failing check
            n = next((i for i, a in enumerate(arrays) if a.ndim != 1 or a.size == 0), len(arrays))
            sizes = tuple(a.size for a in arrays[:n])
            flat = np.concatenate(arrays[:n]) if n else np.empty(0)
        # every entry positive and finite passes every check; NaN fails min() > 0
        soft = bool(flat.min(initial=np.inf) > 0.0)
        if not (soft and flat.max(initial=0.0) < np.inf):
            cuts = [0, *itertools.accumulate(sizes)]
            bad = ~np.logical_and.reduceat(np.isfinite(flat) & (flat >= 0.0), cuts[:-1])
            empty = ~np.logical_or.reduceat(flat > 0.0, cuts[:-1])
            failed = np.flatnonzero(bad | empty)
            if failed.size:
                i = failed[0]
                problem = "must be finite and nonnegative" if bad[i] else "has empty support"
                raise ValidationError(f"evidence for {names[i]!r} {problem}")
        if n < len(names):
            raise ValidationError(f"evidence for {names[n]!r} must be a 1-d vector")
        flat.flags.writeable = False
        self.names = names
        self._flat = flat
        self._soft = soft
        self._layout = (names, sizes)

    @cached_property
    def lam(self) -> Mapping:
        cuts = [0, *itertools.accumulate(self._layout[1])]
        return MappingProxyType(
            {v: self._flat[a:b] for v, a, b in zip(self.names, cuts, cuts[1:])}
        )

    def is_soft(self) -> bool:
        return self._soft


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


# -------------------------------------------------------------- schedule


@dataclass(eq=False)
class _Group:
    """Nodes of one (level, kind): rows ``a:b`` of the node arrays.

    Position-major: axis 0 is the child position and axis 1 the node, so a
    reduction over the fan-in is k - 1 whole-row operations.  Positions
    past a node's fan-in hold the unit row (weight 0).  The edge of node
    ``i`` at position ``pos`` is edge row ``edges + pos * m + i``, so the
    group's edge block is ``E[edges : edges + k * m]`` shaped (k, m, batch).
    """

    kind: str
    a: int
    b: int
    slots: Array | None = None  # leaves: the evidence slot of each leaf
    children: Array | None = None  # (k, m) child rows, padded with the unit row
    weights: Array | None = None  # sums: (k, m, 1) weights, padded with 0
    log_weights: Array | None = None
    edges: int = 0  # first of the group's k * m edge rows
    incoming: Array | None = None  # (parents, m) edge rows ending at each node, padded: zero row


def _sibling_products(V: Array, out: Array) -> Array:
    """Product of the other entries along axis 0, from prefix and suffix
    products, written to ``out``: O(k) per node and no division, so exact
    zeros are fine."""
    out[0] = 1.0
    np.multiply.accumulate(V[:-1], axis=0, out=out[1:])
    out[:-1] *= np.multiply.accumulate(V[:0:-1], axis=0)[::-1]
    return out


def _columns(keys: Array, values: Array, n: int, pad) -> tuple[Array, Array]:
    """Column j lists, in order, the ``values`` whose key is j, filled out
    to the longest column with ``pad``: shape (longest, n).  Also returns
    each value's flat index in that matrix."""
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=n)
    rank = np.empty_like(order)
    rank[order] = np.arange(keys.size) - (np.cumsum(counts) - counts)[keys[order]]
    where = rank * n + keys
    out = np.full((counts.max(initial=0), n), pad, dtype=values.dtype)
    out.reshape(-1)[where] = values
    return out, where


class _Schedule:
    """The compiled form of one circuit, shared by every pass and readout.

    Node arrays have one row per node -- leaves first, then one contiguous
    block per (level, kind), level being the longest path down to a leaf --
    plus a unit row (value 1, log 0, adjoint 0) that pads child matrices.
    Edge arrays have one row per padded (child position, node) of each
    group, position-major, plus a zero row.  Every gather is laid out
    position-major too (``_Group``), so each pass reduces over axis 0.
    Evidence is a column of ``n_slots`` entries, one per (variable, state)
    in ``variable_order``; ``layout`` is that order with each variable's
    cardinality, compared with an evidence's own.  Pass arrays are (rows,
    batch) and a group's gathers (k, m, batch); a single query is a batch
    of one.  ``slot_leaves`` is (leaves per slot, n_slots), padded with the
    unit row.
    """

    def __init__(self, circuit: SpnCircuit):
        topo = circuit.topo()
        by_id = circuit._by_id
        key: dict[str, tuple] = {}  # (level, kind, topological rank)
        for i, nid in enumerate(topo):
            n = by_id[nid]
            level = 1 + max(key[c][0] for c in n.children) if n.children else 0
            key[nid] = (level, _KINDS.index(n.kind), i)
        ids = sorted(topo, key=key.__getitem__)
        row = {nid: r for r, nid in enumerate(ids)}
        self.node_rows = {nid: row[nid] for nid in topo}  # keys in topological order
        self.unit = len(ids)
        self.root = row[circuit.root]

        self.variables = circuit.variable_order()
        self.cards = [circuit.cardinality(v) for v in self.variables]
        self.offsets = [0, *itertools.accumulate(self.cards)]
        self.n_slots = self.offsets[-1]
        self.layout = (tuple(self.variables), tuple(self.cards))
        first_slot = dict(zip(self.variables, self.offsets))

        self.groups: list[_Group] = []
        self.edge_rows: dict[tuple[str, int], int] = {}  # (parent id, child position)
        # every edge as (child row, edge row), by parent row then position
        edge_children, edge_ids = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        width = 0
        for _, members in itertools.groupby(ids, key=lambda nid: key[nid][:2]):
            nodes = [by_id[nid] for nid in members]
            kind = nodes[0].kind
            a = row[nodes[0].id]
            g = _Group(kind, a, a + len(nodes))
            if kind == "leaf":
                g.slots = np.array([first_slot[n.var] + n.state for n in nodes])
            else:
                m = len(nodes)
                owner = np.repeat(np.arange(m), [len(n.children) for n in nodes])
                child_rows = np.array([row[c] for n in nodes for c in n.children])
                g.children, where = _columns(owner, child_rows, m, self.unit)
                if kind == "sum":
                    weights = np.array([w for n in nodes for w in n.weights])
                    g.weights = _columns(owner, weights, m, 0.0)[0][:, :, None]
                    with np.errstate(divide="ignore", invalid="ignore"):
                        g.log_weights = np.log(g.weights)
                g.edges = width
                edge_children.append(child_rows)
                edge_ids.append(width + where)
                keys = [(n.id, pos) for n in nodes for pos in range(len(n.children))]
                self.edge_rows.update(zip(keys, edge_ids[-1].tolist()))
                width += g.children.size
            self.groups.append(g)
        self.width = width  # also the zero edge row
        incoming, _ = _columns(
            np.concatenate(edge_children), np.concatenate(edge_ids), self.unit, width
        )
        parents = np.count_nonzero(incoming != width, axis=0)
        for g in self.groups:
            g.incoming = incoming[: parents[g.a : g.b].max(initial=0), g.a : g.b].copy()
            if g.a <= self.root < g.b:
                self.root_group = g

        leaves = self.groups[0]
        self.slot_leaves, _ = _columns(leaves.slots, np.arange(leaves.b), self.n_slots, self.unit)

        # readout orders: sums by id, then their edges, product edges by (id, position)
        self.sum_ids = sorted(n.id for n in circuit.nodes if n.kind == "sum")
        self.sum_rows = np.array([row[nid] for nid in self.sum_ids], dtype=np.intp)
        self.sum_children = [by_id[nid].children for nid in self.sum_ids]
        self.sum_cuts = [0, *itertools.accumulate(map(len, self.sum_children))]
        self.sum_edge_parents = np.repeat(self.sum_rows, np.diff(self.sum_cuts))
        self.sum_edge_children = np.array(
            [row[c] for children in self.sum_children for c in children], dtype=np.intp
        )
        self.sum_edge_weights = np.array([w for nid in self.sum_ids for w in by_id[nid].weights])
        self.sum_index = {nid: i for i, nid in enumerate(self.sum_ids)}
        product_ids = sorted(n.id for n in circuit.nodes if n.kind == "product")
        fanins = [len(by_id[nid].children) for nid in product_ids]
        self.product_edge_keys = [
            (nid, pos) for nid, k in zip(product_ids, fanins) for pos in range(k)
        ]
        self.product_edge_index = {edge: i for i, edge in enumerate(self.product_edge_keys)}
        self.product_edge_rows = np.array(
            [self.edge_rows[edge] for edge in self.product_edge_keys], dtype=np.intp
        )
        self.product_edge_parents = np.repeat(
            np.array([row[nid] for nid in product_ids], dtype=np.intp), fanins
        )

    # ------------------------------------------------------------ passes

    def up(self, X: Array) -> Array:
        """Node values for evidence columns ``X`` (slots x batch).  Overflow
        is left to the caller, which checks the root."""
        S = np.empty((self.unit + 1, X.shape[1]))
        S[self.unit] = 1.0
        leaves = self.groups[0]
        # the compiled indexes are in range; "clip" spares the buffered copy
        # that the default mode makes for ``out``
        X.take(leaves.slots, axis=0, out=S[: leaves.b], mode="clip")
        with np.errstate(over="ignore", invalid="ignore"):
            for g in self.groups[1:]:
                V = S.take(g.children, axis=0)
                if g.kind == "product":
                    np.multiply.reduce(V, axis=0, out=S[g.a : g.b])
                else:
                    V *= g.weights
                    np.add.reduce(V, axis=0, out=S[g.a : g.b])
        return S

    def up_log(self, X: Array) -> Array:
        """Log node values; -inf encodes exact zeros."""
        L = np.empty((self.unit + 1, X.shape[1]))
        L[self.unit] = 0.0
        leaves = self.groups[0]
        with np.errstate(divide="ignore"):
            np.log(X.take(leaves.slots, axis=0), out=L[: leaves.b])
            for g in self.groups[1:]:
                T = L.take(g.children, axis=0)
                if g.kind == "product":
                    np.add.reduce(T, axis=0, out=L[g.a : g.b])
                    continue
                T += g.log_weights
                top = T.max(axis=0)
                top[top == -np.inf] = 0.0  # every term zero: the sum stays -inf
                T -= top
                np.exp(T, out=T)
                total = T.sum(axis=0)
                np.log(total, out=total)
                np.add(total, top, out=L[g.a : g.b])
        return L

    def down(self, S: Array) -> tuple[Array, Array]:
        """Node adjoints D and edge adjoints E, top level first.

        A node's adjoint is the sum of the edge adjoints that end at it,
        gathered once every parent (all on higher levels) has written them.
        """
        batch = S.shape[1]
        D = np.empty_like(S)
        D[self.unit] = 0.0
        E = np.empty((self.width + 1, batch))
        E[self.width] = 0.0
        for g in reversed(self.groups):
            Dg = D[g.a : g.b]
            np.add.reduce(E.take(g.incoming, axis=0), axis=0, out=Dg)
            if g is self.root_group:
                D[self.root] += 1.0
            if g.kind == "leaf":
                continue
            k, m = g.children.shape
            block = E[g.edges : g.edges + k * m].reshape(k, m, batch)
            if g.kind == "sum":
                np.multiply(g.weights, Dg, out=block)
            else:
                V = S.take(g.children, axis=0)
                np.multiply(_sibling_products(V, block), Dg, out=block)
        return D, E

    def lam_adjoints(self, D: Array) -> Array:
        """dS/dlambda per evidence slot: the adjoints of its leaves, summed."""
        return D.take(self.slot_leaves, axis=0).sum(axis=0)


def _evidence_column(circuit: SpnCircuit, e: Evidence) -> Array:
    """The evidence as one column of schedule slots: the evidence's own flat
    vector when its layout is the schedule's (which satisfies
    ``check_evidence`` by construction), else checked and gathered."""
    sched = circuit._schedule
    if e._layout == sched.layout:
        return e._flat[:, None]
    check_evidence(circuit, e)
    return np.concatenate([e.lam[v] for v in sched.variables])[:, None]


# ---------------------------------------------------------------- passes


class _Column(Mapping):
    """Keyed view of a 1-D array: ``index`` maps each key to its entry and
    iterates in key order.  Reads return floats.  A write goes through to
    the array, so the view of a pass result, whose arrays are not
    writeable, refuses it."""

    def __init__(self, index: dict, array: Array):
        self._index = index
        self.array = array

    def __getitem__(self, key) -> float:
        return float(self.array[self._index[key]])

    def __setitem__(self, key, value) -> None:
        if not self.array.flags.writeable:
            raise TypeError("pass results are read-only")
        self.array[self._index[key]] = value

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


@dataclass(frozen=True, eq=False)
class ValueMap:
    """Node values ``S`` of an upward pass, rows as in ``sched``."""

    sched: _Schedule
    S: Array

    @property
    def values(self) -> Mapping:
        return _Column(self.sched.node_rows, self.S[:, 0])

    def root_value(self, circuit: SpnCircuit) -> float:
        return self.values[circuit.root]


@dataclass(frozen=True, eq=False)
class AdjointMap:
    """Node adjoints ``D`` and edge adjoints ``E`` of a downward pass."""

    sched: _Schedule
    D: Array
    E: Array

    @property
    def values(self) -> Mapping:
        return _Column(self.sched.node_rows, self.D[:, 0])

    @property
    def edges(self) -> Mapping:
        return _Column(self.sched.edge_rows, self.E[:, 0])


def _schedule_for(circuit: SpnCircuit, *maps) -> _Schedule:
    """The circuit's schedule, once every pass result is known to use it."""
    sched = circuit._schedule
    if any(m.sched is not sched for m in maps):
        raise ValidationError("pass result was computed on another circuit")
    return sched


def _root_error(sched: _Schedule, x: Array, fate: str, where: str = "") -> ValidationError:
    """The error for a linear pass whose root value ``fate`` ("overflows" or
    "underflows") at evidence column ``x``.  It gives the log root, which the
    log pass still has; a zero root whose log root is -inf is empty support."""
    log_root = float(sched.up_log(x)[sched.root, 0])
    if log_root == -math.inf and fate == "underflows":
        return ValidationError("evidence has empty support: root value is zero")
    return ValidationError(
        f"{where}root value {fate} the linear pass (log root value {log_root!r})"
    )


def upward_pass(
    circuit: SpnCircuit,
    e: Evidence,
    *,
    check: bool = True,
    allow_zero_root: bool = False,
) -> ValueMap:
    """Bottom-up evaluation of the network polynomial at the evidence.

    A zero root value means the evidence has empty support under the
    circuit, or that the linear pass underflowed if the log root is finite;
    either is rejected unless ``allow_zero_root`` is set (coefficient
    extraction legitimately probes unsupported assignments).
    """
    if check:
        require_valid(circuit)
    sched = circuit._schedule
    X = _evidence_column(circuit, e)
    S = sched.up(X)
    if not math.isfinite(S[sched.root, 0]):
        raise _root_error(sched, X, "overflows")
    if S[sched.root, 0] <= 0.0 and not allow_zero_root:
        raise _root_error(sched, X, "underflows")
    S.flags.writeable = False
    return ValueMap(sched, S)


def upward_pass_log(circuit: SpnCircuit, e: Evidence, *, check: bool = True) -> Mapping:
    """Log-domain twin of the upward pass (-inf encodes exact zeros)."""
    if check:
        require_valid(circuit)
    sched = circuit._schedule
    L = sched.up_log(_evidence_column(circuit, e))
    if L[sched.root, 0] == -math.inf:
        raise ValidationError("evidence has empty support: root value is zero")
    L.flags.writeable = False
    return _Column(sched.node_rows, L[:, 0])


def downward_pass(circuit: SpnCircuit, S: ValueMap) -> AdjointMap:
    """Reverse sweep: D(root)=1, sums push D*w, products push D times the
    product of the sibling values; per-edge contributions are retained."""
    sched = _schedule_for(circuit, S)
    D, E = sched.down(S.S)
    D.flags.writeable = E.flags.writeable = False
    return AdjointMap(sched, D, E)


# Cells (nodes x columns) per batched pass; bounds the memory of one chunk.
_BATCH_CELLS = 1 << 20


def marginal_batch(circuit: SpnCircuit, lam) -> Array:
    """Full-alphabet marginals for a batch of evidence columns.

    ``lam`` is (slots, batch): one column per query, one row per (variable,
    state) in ``variable_order`` with states in order.  Returns the
    marginals in the same layout.  Every column runs through one upward and
    one downward pass (in chunks of columns when the batch is large).
    """
    require_valid(circuit)
    sched = circuit._schedule
    X = np.asarray(lam, dtype=float)
    if X.ndim != 2 or X.shape[0] != sched.n_slots:
        raise ValidationError(f"evidence batch must have {sched.n_slots} rows")
    if not np.all(np.isfinite(X)) or np.any(X < 0.0):
        raise ValidationError("evidence batch must be finite and nonnegative")
    out = np.empty_like(X)
    step = max(1, _BATCH_CELLS // (sched.unit + sched.width + 2))
    for lo in range(0, X.shape[1], step):
        Xc = X[:, lo : lo + step]
        S = sched.up(Xc)
        root = S[sched.root]
        for fate, bad in (("overflows", ~np.isfinite(root)), ("underflows", root <= 0.0)):
            if bad.any():
                col = int(np.argmax(bad))
                where = f"evidence column {lo + col}: "
                raise _root_error(sched, Xc[:, col : col + 1], fate, where)
        D, _ = sched.down(S)
        out[:, lo : lo + step] = Xc * sched.lam_adjoints(D) / S[sched.root]
    return out


# -------------------------------------------------------------- readouts


def _split(sched: _Schedule, column: Array) -> list:
    return [column[a:b] for a, b in zip(sched.offsets, sched.offsets[1:])]


def marginal_arrays(circuit: SpnCircuit, e: Evidence, S: ValueMap, D: AdjointMap) -> dict:
    """Full-alphabet per-variable marginal vectors (zeros kept in place)."""
    sched = _schedule_for(circuit, S, D)
    X = _evidence_column(circuit, e)
    M = (X * sched.lam_adjoints(D.D) / S.S[sched.root])[:, 0]
    return dict(zip(sched.variables, _split(sched, M)))


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
    sched = _schedule_for(circuit, S, D)
    X = _evidence_column(circuit, e)
    root = S.S[sched.root, 0]
    totals = np.add.reduceat((X * sched.lam_adjoints(D.D))[:, 0], sched.offsets[:-1])
    return dict(zip(sched.variables, (np.abs(totals - root) / abs(root)).tolist()))


class _Gates(Mapping):
    """Per-sum gates over the readout arrays, keyed by sum id.  A sum's dict
    is built from its slices on first access and kept, so later reads return
    the same object."""

    def __init__(self, sched: _Schedule, local: Array, glob: Array, pi: Array, live: Array):
        self._sched = sched
        self._local, self._glob, self._pi, self._live = local, glob, pi, live
        self._built: dict = {}

    def __getitem__(self, nid) -> dict:
        gate = self._built.get(nid)
        if gate is None:
            sched = self._sched
            i = sched.sum_index[nid]
            a, b = sched.sum_cuts[i], sched.sum_cuts[i + 1]
            gate = self._built[nid] = {
                "children": sched.sum_children[i],
                "b": self._local[a:b] if self._live[i] else None,
                "pi": float(self._pi[i]),
                "global": self._glob[a:b],
            }
        return gate

    def __iter__(self):
        return iter(self._sched.sum_ids)

    def __len__(self) -> int:
        return len(self._sched.sum_ids)


def gate_report(circuit: SpnCircuit, S: ValueMap, D: AdjointMap) -> Mapping:
    """Per-sum gate posteriors: local b_s, visit probability pi, global gate.

    A sum with value zero has no local gate: its ``b`` is None, and its pi
    and global gate are 0.
    """
    sched = _schedule_for(circuit, S, D)
    Sa, Da = S.S[:, 0], D.D[:, 0]
    root = Sa[sched.root]
    parents, w = sched.sum_edge_parents, sched.sum_edge_weights
    child_values = Sa[sched.sum_edge_children]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only at the zero sums
        local = w * child_values / Sa[parents]
    glob = Da[parents] * w * child_values / root
    Ss = Sa[sched.sum_rows]
    pi = Da[sched.sum_rows] * Ss / root
    return _Gates(sched, local, glob, pi, Ss > 0.0)


def kkt_multipliers(circuit: SpnCircuit, S: ValueMap, D: AdjointMap) -> dict:
    """Visit probabilities at sums and per-product-edge multipliers.

    Verifies the defining identities through two floating routes before
    returning: pi(s) must equal D(s) S(s)/S(e) recomputed directly, and
    each product-edge multiplier must equal its retained edge adjoint over
    S(e).  ``pi`` is keyed by sum id and ``mu`` by (product id, child
    position), both views over the arrays.
    """
    sched = _schedule_for(circuit, S, D)
    Sa, Da = S.S[:, 0], D.D[:, 0]
    root = Sa[sched.root]
    Ds, Ss = Da[sched.sum_rows], Sa[sched.sum_rows]
    pi = Ds * Ss / root
    alt = (Ds / root) * Ss
    bad = np.abs(pi - alt) > 1e-12 * np.maximum(1.0, np.abs(pi))
    if bad.any():
        nid = sched.sum_ids[int(np.argmax(bad))]
        raise ValidationError(f"visit-probability identity failed at {nid!r}")

    siblings = np.empty(sched.width)
    for g in sched.groups:
        if g.kind == "product":
            block = siblings[g.edges : g.edges + g.children.size].reshape(g.children.shape)
            _sibling_products(Sa.take(g.children), block)
    siblings = siblings[sched.product_edge_rows]
    direct = D.E[sched.product_edge_rows, 0] / root
    alt = Da[sched.product_edge_parents] * siblings / root
    bad = np.abs(direct - alt) > 1e-12 * np.maximum(1.0, np.abs(direct))
    if bad.any():
        nid, pos = sched.product_edge_keys[int(np.argmax(bad))]
        c = circuit.node(nid).children[pos]
        raise ValidationError(f"edge-multiplier identity failed at {nid!r} child {c!r}")
    return {
        "pi": _Column(sched.sum_index, pi),
        "mu": _Column(sched.product_edge_index, direct),
    }


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
        except (KeyError, TypeError, ValueError) as exc:
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
    lam = {}
    for var, values in obj["lambda"].items():
        try:
            lam[var] = np.asarray(values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"evidence for {var!r} is not numeric: {exc}") from exc
    try:
        return Evidence(lam)
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc
