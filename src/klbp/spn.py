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
earlier group.  Each group holds a padded child-index matrix with its
linear and log weights; the leaves hold a gather from (variable, state) to
an evidence slot.  The upward passes run one gather and one reduce per
group, bottom-up; the downward pass runs top-down, gathering each node's
adjoint from the edge adjoints that end at it and writing its own edge
adjoints (sums: D times the weight; products: D times the product of the
siblings, from prefix and suffix products).  All arrays are (rows, batch):
a single query is a batch of one, and ``marginal_batch`` runs many evidence
columns through the same two passes.  ``Evidence`` keeps one flat vector.
When its layout (variable names and sizes, in order) is the schedule's own,
as with variables in ``variable_order``, that vector is the evidence column
the passes read, with no copy and no per-variable check; evidence in any
other layout is checked and gathered into schedule order.  ``ValueMap`` and
``AdjointMap`` hold only a pass's arrays, read through read-only mappings
keyed by node id or by (parent id, child position); readouts refuse a map
from another circuit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

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
    caller's arrays stay untouched.  ``lam`` is a read-only mapping from each
    variable to its slice of that vector, built on first access.  When the
    evidence's layout (names and sizes) is a schedule's own, the flat vector
    itself is the evidence column the passes read, with no copy.
    """

    def __init__(self, lam: Mapping):
        names = tuple(lam)
        arrays = [np.asarray(values, dtype=float) for values in lam.values()]
        # the variables before the first malformed one are checked together;
        # an error names the first failing variable and its first failing check
        n = next((i for i, a in enumerate(arrays) if a.ndim != 1 or a.size == 0), len(arrays))
        sizes = tuple(a.size for a in arrays[:n])
        cuts = [0, *itertools.accumulate(sizes)]
        flat = np.concatenate(arrays[:n]) if n else np.empty(0)
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
        self._cuts = cuts
        self._layout = (names, sizes)

    @cached_property
    def lam(self) -> Mapping:
        cuts = self._cuts
        return MappingProxyType(
            {v: self._flat[a:b] for v, a, b in zip(self.names, cuts, cuts[1:])}
        )

    def is_soft(self) -> bool:
        return bool(np.all(self._flat > 0.0))


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
    """Nodes of one (level, kind): rows ``a:b`` of the node arrays."""

    kind: str
    a: int
    b: int
    slots: Array | None = None  # leaves: the evidence slot of each leaf
    children: Array | None = None  # (m, k) child rows, padded with the unit row
    weights: Array | None = None  # (m, k, 1) sum weights, padded with 0
    log_weights: Array | None = None
    edges: int = 0  # first row of the group's m * k edge rows
    incoming: Array | None = None  # edge rows ending at each node, padded: zero row


def _sibling_products(V: Array) -> Array:
    """Product of the other entries along axis 1, from prefix and suffix
    products: O(k) per node and no division, so exact zeros are fine."""
    out = np.ones_like(V)
    np.multiply.accumulate(V[:, :-1], axis=1, out=out[:, 1:])
    out[:, :-1] *= np.multiply.accumulate(V[:, :0:-1], axis=1)[:, ::-1]
    return out


class _Schedule:
    """The compiled form of one circuit, shared by every pass and readout.

    Node arrays have one row per node -- leaves first, then one contiguous
    block per (level, kind), level being the longest path down to a leaf --
    plus a unit row (value 1, log 0, adjoint 0) that pads child matrices.
    Edge arrays have one row per padded (node, child position) plus a zero
    row.  Evidence is a column of ``n_slots`` entries, one per (variable,
    state) in ``variable_order``; ``layout`` is that order with each
    variable's cardinality, compared with an evidence's own.  The second
    axis of every array is the batch axis; a single query is a batch of one.
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
        incoming: list[list[int]] = [[] for _ in ids]
        width = 0
        for _, members in itertools.groupby(ids, key=lambda nid: key[nid][:2]):
            nodes = [by_id[nid] for nid in members]
            kind = nodes[0].kind
            a = row[nodes[0].id]
            g = _Group(kind, a, a + len(nodes))
            if kind == "leaf":
                g.slots = np.array([first_slot[n.var] + n.state for n in nodes])
            else:
                g.children = _padded([[row[c] for c in n.children] for n in nodes], self.unit)
                k = g.children.shape[1]
                g.weights = _padded([n.weights for n in nodes], 0.0, k)[:, :, None]
                g.edges = width
                for i, n in enumerate(nodes):
                    for pos, c in enumerate(n.children):
                        incoming[row[c]].append(width + i * k + pos)
                        self.edge_rows[n.id, pos] = width + i * k + pos
                with np.errstate(divide="ignore", invalid="ignore"):
                    g.log_weights = np.log(g.weights)
                width += len(nodes) * k
            self.groups.append(g)
        self.width = width  # also the zero edge row
        for g in self.groups:
            g.incoming = _padded(incoming[g.a : g.b], width)
            if g.a <= self.root < g.b:
                self.root_group = g

        leaves_at = [[] for _ in range(self.n_slots)]
        for r, s in enumerate(self.groups[0].slots):
            leaves_at[s].append(r)
        self.slot_leaves = _padded(leaves_at, self.unit)

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
        self.product_edge_keys = sorted(
            edge for edge in self.edge_rows if by_id[edge[0]].kind == "product"
        )
        self.product_edge_rows = np.array(
            [self.edge_rows[edge] for edge in self.product_edge_keys], dtype=np.intp
        )
        self.product_edge_parents = np.array(
            [row[nid] for nid, _ in self.product_edge_keys], dtype=np.intp
        )

    # ------------------------------------------------------------ passes

    def up(self, X: Array) -> Array:
        """Node values for evidence columns ``X`` (slots x batch)."""
        S = np.empty((self.unit + 1, X.shape[1]))
        S[self.unit] = 1.0
        leaves = self.groups[0]
        np.take(X, leaves.slots, axis=0, out=S[: leaves.b])
        for g in self.groups[1:]:
            V = S[g.children]
            if g.kind == "product":
                np.multiply.reduce(V, axis=1, out=S[g.a : g.b])
            else:
                V *= g.weights
                np.add.reduce(V, axis=1, out=S[g.a : g.b])
        return S

    def up_log(self, X: Array) -> Array:
        """Log node values; -inf encodes exact zeros."""
        L = np.empty((self.unit + 1, X.shape[1]))
        L[self.unit] = 0.0
        leaves = self.groups[0]
        with np.errstate(divide="ignore"):
            np.log(X[leaves.slots], out=L[: leaves.b])
            for g in self.groups[1:]:
                T = L[g.children]
                if g.kind == "product":
                    np.add.reduce(T, axis=1, out=L[g.a : g.b])
                    continue
                T += g.log_weights
                top = T.max(axis=1)
                top[top == -np.inf] = 0.0  # every term zero: the sum stays -inf
                T -= top[:, None, :]
                np.exp(T, out=T)
                total = T.sum(axis=1)
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
            np.add.reduce(E[g.incoming], axis=1, out=Dg)
            if g is self.root_group:
                D[self.root] += 1.0
            if g.kind == "leaf":
                continue
            m, k = g.children.shape
            block = E[g.edges : g.edges + m * k].reshape(m, k, batch)
            if g.kind == "sum":
                np.multiply(g.weights, Dg[:, None, :], out=block)
            else:
                np.multiply(_sibling_products(S[g.children]), Dg[:, None, :], out=block)
        return D, E

    def lam_adjoints(self, D: Array) -> Array:
        """dS/dlambda per evidence slot: the adjoints of its leaves, summed."""
        return D[self.slot_leaves].sum(axis=1)


def _padded(lists: list, pad, width: int | None = None) -> Array:
    """Rows of unequal length as one matrix, filled out with ``pad`` (whose
    type sets the dtype)."""
    if width is None:
        width = max(map(len, lists), default=0)
    rows = [[*items, *[pad] * (width - len(items))] for items in lists]
    return np.array(rows, dtype=type(pad)).reshape(len(lists), width)


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
    """Read-only view of a pass array's first column, keyed like ``rows``."""

    def __init__(self, rows: dict, A: Array):
        self._rows = rows
        self._A = A

    def __getitem__(self, key) -> float:
        return float(self._A[self._rows[key], 0])

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


@dataclass(frozen=True, eq=False)
class ValueMap:
    """Node values ``S`` of an upward pass, rows as in ``sched``."""

    sched: _Schedule
    S: Array

    @property
    def values(self) -> Mapping:
        return _Column(self.sched.node_rows, self.S)

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
        return _Column(self.sched.node_rows, self.D)

    @property
    def edges(self) -> Mapping:
        return _Column(self.sched.edge_rows, self.E)


def _schedule_for(circuit: SpnCircuit, *maps) -> _Schedule:
    """The circuit's schedule, once every pass result is known to use it."""
    sched = circuit._schedule
    if any(m.sched is not sched for m in maps):
        raise ValidationError("pass result was computed on another circuit")
    return sched


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
    sched = circuit._schedule
    S = sched.up(_evidence_column(circuit, e))
    if S[sched.root, 0] <= 0.0 and not allow_zero_root:
        raise ValidationError("evidence has empty support: root value is zero")
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
    return _Column(sched.node_rows, L)


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
        if np.any(S[sched.root] <= 0.0):
            raise ValidationError("evidence has empty support: root value is zero")
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


def gate_report(circuit: SpnCircuit, S: ValueMap, D: AdjointMap) -> dict:
    """Per-sum gate posteriors: local b_s, visit probability pi, global gate."""
    sched = _schedule_for(circuit, S, D)
    Sa, Da = S.S[:, 0], D.D[:, 0]
    root = Sa[sched.root]
    parents, w = sched.sum_edge_parents, sched.sum_edge_weights
    child_values = Sa[sched.sum_edge_children]
    local = w * child_values / Sa[parents]
    glob = Da[parents] * w * child_values / root
    pi = (Da[sched.sum_rows] * Sa[sched.sum_rows] / root).tolist()
    cuts = sched.sum_cuts
    return {
        nid: {"children": children, "b": local[a:b], "pi": p, "global": glob[a:b]}
        for nid, children, p, a, b in zip(
            sched.sum_ids, sched.sum_children, pi, cuts, cuts[1:]
        )
    }


def kkt_multipliers(circuit: SpnCircuit, S: ValueMap, D: AdjointMap) -> dict:
    """Visit probabilities at sums and per-product-edge multipliers.

    Verifies the defining identities through two floating routes before
    returning: pi(s) must equal D(s) S(s)/S(e) recomputed directly, and
    each product-edge multiplier must equal its retained edge adjoint over
    S(e).
    """
    sched = _schedule_for(circuit, S, D)
    Sa, Da, Ea = S.S, D.D, D.E
    root = Sa[sched.root, 0]
    Ds, Ss = Da[sched.sum_rows, 0], Sa[sched.sum_rows, 0]
    pi = Ds * Ss / root
    alt = (Ds / root) * Ss
    bad = np.abs(pi - alt) > 1e-12 * np.maximum(1.0, np.abs(pi))
    if bad.any():
        nid = sched.sum_ids[int(np.argmax(bad))]
        raise ValidationError(f"visit-probability identity failed at {nid!r}")

    siblings = np.zeros(sched.width + 1)
    for g in sched.groups[1:]:
        if g.kind == "product":
            m, k = g.children.shape
            siblings[g.edges : g.edges + m * k] = _sibling_products(
                Sa[g.children]
            ).ravel()
    rows = sched.product_edge_rows
    direct = Ea[rows, 0] / root
    alt = Da[sched.product_edge_parents, 0] * siblings[rows] / root
    bad = np.abs(direct - alt) > 1e-12 * np.maximum(1.0, np.abs(direct))
    if bad.any():
        nid, pos = sched.product_edge_keys[int(np.argmax(bad))]
        c = circuit.node(nid).children[pos]
        raise ValidationError(f"edge-multiplier identity failed at {nid!r} child {c!r}")
    return {
        "pi": dict(zip(sched.sum_ids, pi.tolist())),
        "mu": dict(zip(sched.product_edge_keys, direct.tolist())),
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
