"""Discrete factor graphs and sum-product message passing.

Tables are ordinary numpy arrays indexed in each factor's own variable
order; zeros are allowed (hard constraints), but a factor may not mention
the same variable twice.  Messages are kept normalized to unit sum.  Two
drivers are provided: a synchronous flooding sweep with optional geometric
damping for graphs with cycles, and an exact two-pass schedule for forests.

A graph is compiled once, on first use, into an edge layout shared by every
pass and by the replica lift (``klbp.lift``).  Edge e is the e-th pair of
``edges()``, so each factor owns a contiguous block of edges, and a message
state is two flat arrays (one per direction) in which edge e owns one slot
per state of its variable.  A factor-to-variable message is one einsum in
numpy's sublist form (numbered axes, no letters).  Variables are grouped by
(degree, cardinality) into index matrices of their incoming slots; a
group's outgoing messages are one prefix and one suffix sum of
log-messages, O(degree) per variable, exact on hard zeros and free of
underflow.  One depth-first walk gives the component count, the forest test
and the two-pass order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SchemaError, ValidationError

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class Variable:
    id: str
    cardinality: int

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"variable id must be a nonempty string, got {self.id!r}")
        if int(self.cardinality) < 1:
            raise ValidationError(
                f"variable {self.id!r} has cardinality {self.cardinality}"
            )
        object.__setattr__(self, "cardinality", int(self.cardinality))


@dataclass(frozen=True, eq=False)
class Factor:
    """Nonnegative table over an ordered tuple of distinct variables."""

    id: str
    vars: tuple[str, ...]
    table: Array

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"factor id must be a nonempty string, got {self.id!r}")
        vs = tuple(self.vars)
        if not vs:
            raise ValidationError(f"factor {self.id!r} touches no variables")
        if len(set(vs)) != len(vs):
            raise ValidationError(f"factor {self.id!r} repeats a variable")
        object.__setattr__(self, "vars", vs)
        table = np.array(self.table, dtype=float)
        if table.ndim != len(vs):
            raise ValidationError(
                f"factor {self.id!r}: table rank {table.ndim} for {len(vs)} variables"
            )
        if not np.all(np.isfinite(table)) or np.any(table < 0.0):
            raise ValidationError(
                f"factor {self.id!r}: table entries must be finite and nonnegative"
            )
        if table.sum() <= 0.0:
            raise ValidationError(f"factor {self.id!r}: table is identically zero")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)


class FactorGraph:
    def __init__(self, variables, factors):
        self.variables = tuple(variables)
        self.factors = tuple(factors)
        self._card = {}
        for v in self.variables:
            if v.id in self._card:
                raise ValidationError(f"duplicate variable id {v.id!r}")
            self._card[v.id] = v.cardinality
        factor_ids = set()
        for f in self.factors:
            if f.id in factor_ids:
                raise ValidationError(f"duplicate factor id {f.id!r}")
            factor_ids.add(f.id)
            for pos, v in enumerate(f.vars):
                if v not in self._card:
                    raise ValidationError(
                        f"factor {f.id!r} mentions unknown variable {v!r}"
                    )
                if f.table.shape[pos] != self._card[v]:
                    raise ValidationError(
                        f"factor {f.id!r}: axis {pos} has size {f.table.shape[pos]} "
                        f"but variable {v!r} has cardinality {self._card[v]}"
                    )

    @cached_property
    def _layout(self) -> "_Layout":
        return _Layout(self)

    def cardinality(self, var_id: str) -> int:
        return self._card[var_id]

    def neighbors(self, var_id: str) -> list[str]:
        lay = self._layout
        return [lay.edges[e][0] for e in lay.around[lay.index[var_id]]]

    def edges(self) -> list[tuple[str, str]]:
        """(factor id, variable id) pairs in deterministic order."""
        return [(f.id, v) for f in self.factors for v in f.vars]

    def is_forest(self) -> bool:
        return self._layout.forest


class _Layout:
    """The compiled edge layout of one factor graph (see the module docstring).

    Edge e owns slots ``off[e]:off[e + 1]`` of a message array, variable i
    slots ``var_off[i]:var_off[i + 1]`` of a belief array.  Nodes are
    variables, then factors; ``around[n]`` lists node n's edges in order.  A
    group is the message slots of its variables' edges (n, degree, card) and
    their belief slots (n, card).  ``order`` is the depth-first preorder of
    each component from its smallest variable id, as (node, parent edge or
    -1) pairs.
    """

    def __init__(self, fg: FactorGraph):
        self.index = {v.id: i for i, v in enumerate(fg.variables)}
        cards = [v.cardinality for v in fg.variables]
        self.n_vars = len(cards)
        self.edges = fg.edges()
        self.edge_var = [self.index[vid] for _, vid in self.edges]
        self.factor_node = [self.n_vars + j for j, f in enumerate(fg.factors) for _ in f.vars]
        self.edge_cards = [cards[i] for i in self.edge_var]
        off = [0, *itertools.accumulate(self.edge_cards)]
        var_off = [0, *itertools.accumulate(cards)]
        self.off, self.var_off = np.array(off), np.array(var_off)
        self.slices = [slice(a, b) for a, b in zip(off, off[1:])]
        self.var_slices = [slice(a, b) for a, b in zip(var_off, var_off[1:])]
        # each factor's table and axis numbers, as einsum operands
        self.tables = [(f.table, list(range(len(f.vars)))) for f in fg.factors]
        self.around: list = [[] for _ in cards]
        for e, i in enumerate(self.edge_var):
            self.around[i].append(e)
        blocks = [0, *itertools.accumulate(len(f.vars) for f in fg.factors)]
        self.around += map(range, blocks, blocks[1:])

        members: dict[tuple[int, int], list[int]] = {}
        for i in range(self.n_vars):
            members.setdefault((len(self.around[i]), cards[i]), []).append(i)
        self.groups: list[tuple[Array, Array]] = []
        self.slots: list = [None] * self.n_vars  # each variable's row of its group's slots
        for (_, card), vs in members.items():
            states = np.arange(card)
            edges = np.array([self.around[i] for i in vs], dtype=np.intp)
            slots = self.off[edges][..., None] + states
            self.groups.append((slots, self.var_off[vs][:, None] + states))
            for row, i in enumerate(vs):
                self.slots[i] = slots[row : row + 1]

        seen = [False] * len(self.around)
        self.order: list[tuple[int, int]] = []
        self.n_components = 0
        for root in sorted(range(self.n_vars), key=lambda i: fg.variables[i].id):
            if seen[root]:
                continue
            self.n_components += 1
            seen[root] = True
            stack = [(root, -1)]
            while stack:
                node, up = stack.pop()
                self.order.append((node, up))
                for e in self.around[node]:
                    nxt = self.factor_node[e] if node < self.n_vars else self.edge_var[e]
                    if not seen[nxt]:
                        seen[nxt] = True
                        stack.append((nxt, e))
        self.forest = len(self.edges) == len(seen) - self.n_components


def validate_fg(fg: FactorGraph) -> dict:
    """Report-style semantic checks beyond construction.

    Shape and arity problems cannot be represented at all (construction
    rejects them), so the report covers the remaining conditions: strict
    table positivity, with violating entries located by flat index, and
    connectedness.
    """
    zero_entries = [(f.id, int(i)) for f in fg.factors for i in np.flatnonzero(f.table <= 0.0)]
    n_components = fg._layout.n_components
    return {
        "valid": True,
        "positive": not zero_entries,
        "zero_entries": zero_entries,
        "n_components": n_components,
        "connected": n_components <= 1,
        "n_variables": len(fg.variables),
        "n_factors": len(fg.factors),
    }


def require_positive_tables(fg: FactorGraph) -> None:
    """Raise unless every factor table entry is strictly positive."""
    report = validate_fg(fg)
    if not report["positive"]:
        fid, idx = report["zero_entries"][0]
        raise ValidationError(
            f"factor {fid!r} has a zero entry at flat index {idx}; "
            f"interior-point projections need strictly positive tables"
        )


# -------------------------------------------------------------- messages


@dataclass(frozen=True, eq=False)
class MessageState:
    """Normalized messages in the graph's edge slots, one flat array per direction."""

    to_var: Array
    to_factor: Array


# how a vanished message is named, from its edge (factor id, variable id)
_TO_VAR = "{0[0]}->{0[1]}"
_TO_FACTOR = "{0[1]}->{0[0]}"


def _normalize(arr: Array, starts: Array, name: str, items) -> Array:
    """Scale each segment ``arr[starts[k]:starts[k + 1]]`` to unit sum, in place.

    A segment whose sum is zero or not finite is a message that vanished;
    the error names the first one, k, as ``name.format(items[k])``.
    """
    totals = np.add.reduceat(arr, starts[:-1])
    ok = np.isfinite(totals) & (totals > 0.0)
    if not ok.all():
        what = name.format(items[int(np.argmin(ok))])
        raise ValidationError(f"message {what} vanished (contradictory constraints)")
    arr /= np.repeat(totals, starts[1:] - starts[:-1])
    return arr


def uniform_messages(fg: FactorGraph) -> MessageState:
    cards = fg._layout.edge_cards
    flat = 1.0 / np.repeat(cards, cards)
    return MessageState(flat, flat.copy())


def _factor_messages(lay: _Layout, node: int, edges, to_factor: Array, to_var: Array) -> None:
    """Unnormalized messages from a factor node along some of its own edges."""
    table, axes = lay.tables[node - lay.n_vars]
    block = lay.around[node]
    incoming = [to_factor[lay.slices[e]] for e in block]
    for e in edges:
        p = e - block.start
        operands = [table, axes]
        for q, m in enumerate(incoming):
            if q != p:
                operands += (m, [q])
        to_var[lay.slices[e]] = np.einsum(*operands, [p])


def _var_messages(to_var: Array, slots: Array) -> Array:
    """Messages from a group of variables to their factors, with largest entry 1.

    Each is the product of the variable's other incoming messages: a prefix
    plus a suffix sum of log-messages, so exact zeros stay exact and a
    high-degree product cannot underflow.
    """
    logs = np.log(to_var[slots])
    others = np.zeros(logs.shape)
    logs[:, :-1].cumsum(axis=1, out=others[:, 1:])
    others[:, :-1] += logs[:, :0:-1].cumsum(axis=1)[:, ::-1]
    others -= others.max(axis=2, keepdims=True)
    return np.exp(others, out=others)


def _damp(lay: _Layout, old: Array, fresh: Array, damping: float) -> Array:
    # geometric interpolation; a zero on either side stays zero
    mixed = damping * np.log(old) + (1.0 - damping) * np.log(fresh)
    top = np.repeat(np.maximum.reduceat(mixed, lay.off[:-1]), lay.edge_cards)
    return _normalize(np.exp(mixed - top), lay.off, "damped message", lay.edges)


def bp_sweep(fg: FactorGraph, state: MessageState, *, damping: float = 0.0) -> MessageState:
    """One synchronous flooding update of every message.

    Both directions are recomputed from the incoming state; ``damping`` in
    [0, 1) is the geometric weight kept on the old message.
    """
    if not 0.0 <= damping < 1.0:
        raise ValidationError(f"damping must lie in [0, 1), got {damping}")
    lay = fg._layout
    to_var = np.empty_like(state.to_var)
    to_factor = np.empty_like(state.to_factor)
    with np.errstate(divide="ignore", invalid="ignore"):
        for node in range(lay.n_vars, len(lay.around)):
            _factor_messages(lay, node, lay.around[node], state.to_factor, to_var)
        for slots, _ in lay.groups:
            to_factor[slots] = _var_messages(state.to_var, slots)
        _normalize(to_var, lay.off, _TO_VAR, lay.edges)
        _normalize(to_factor, lay.off, _TO_FACTOR, lay.edges)
        if damping:
            to_var = _damp(lay, state.to_var, to_var, damping)
            to_factor = _damp(lay, state.to_factor, to_factor, damping)
    return MessageState(to_var, to_factor)


def message_delta(a: MessageState, b: MessageState) -> float:
    gaps = np.concatenate([a.to_var - b.to_var, a.to_factor - b.to_factor])
    return float(np.max(np.abs(gaps), initial=0.0))


def bp_beliefs(fg: FactorGraph, state: MessageState) -> dict:
    """Normalized per-variable beliefs (products of incoming messages)."""
    lay = fg._layout
    out = np.empty(lay.var_off[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for slots, beliefs in lay.groups:
            total = np.log(state.to_var[slots]).sum(axis=1)
            out[beliefs] = np.exp(total - total.max(axis=1, keepdims=True))
        _normalize(out, lay.var_off, "belief of {0.id}", fg.variables)
    return {v.id: out[s] for v, s in zip(fg.variables, lay.var_slices)}


@dataclass(frozen=True, eq=False)
class BPResult:
    state: MessageState
    sweeps: int
    delta: float
    converged: bool


def bp_run(
    fg: FactorGraph,
    *,
    damping: float = 0.0,
    tol: float = 1e-10,
    max_sweeps: int = 10_000,
) -> BPResult:
    """Iterate synchronous sweeps until the sup-norm message change <= tol."""
    state = uniform_messages(fg)
    delta = math.inf
    for sweep in range(1, max_sweeps + 1):
        new = bp_sweep(fg, state, damping=damping)
        delta = message_delta(new, state)
        state = new
        if delta <= tol:
            return BPResult(state, sweep, delta, True)
    return BPResult(state, max_sweeps, delta, False)


# --------------------------------------------------------- tree schedule


def bp_run_tree(fg: FactorGraph) -> MessageState:
    """Exact two-pass schedule for forests (leaves-to-root, then back).

    Roots each component at its smallest variable id so the schedule is
    deterministic.  Raises if the graph has a cycle.  A sending variable
    recomputes all its outgoing messages (any not yet final are redone on the
    way back).  Variable messages leave the log domain with largest entry 1,
    so messages are normalized only once, at the end.
    """
    lay = fg._layout
    if not lay.forest:
        raise ValidationError("two-pass schedule requires an acyclic factor graph")
    state = uniform_messages(fg)

    def send(node: int, edges) -> None:
        if node >= lay.n_vars:
            _factor_messages(lay, node, edges, state.to_factor, state.to_var)
        elif edges and len(lay.around[node]) > 1:  # else the message is uniform already
            slots = lay.slots[node]
            state.to_factor[slots] = _var_messages(state.to_var, slots)

    with np.errstate(divide="ignore", invalid="ignore"):
        for node, up in reversed(lay.order):
            if up >= 0:
                send(node, (up,))
        for node, up in lay.order:
            send(node, [e for e in lay.around[node] if e != up])
        # contradicting factors meet at a variable, so its messages are checked first
        _normalize(state.to_factor, lay.off, _TO_FACTOR, lay.edges)
        _normalize(state.to_var, lay.off, _TO_VAR, lay.edges)
    return state


# ----------------------------------------------------------------- JSON


def fg_to_json(fg: FactorGraph) -> dict:
    return {
        "schema": "v1",
        "variables": [
            {"id": v.id, "cardinality": v.cardinality} for v in fg.variables
        ],
        "factors": [
            {
                "id": f.id,
                "vars": list(f.vars),
                "table": [float(x) for x in f.table.reshape(-1)],
            }
            for f in fg.factors
        ],
    }


def fg_from_json(obj) -> FactorGraph:
    if not isinstance(obj, dict):
        raise SchemaError("factor graph JSON must be an object")
    for key in ("variables", "factors"):
        if key not in obj or not isinstance(obj[key], list):
            raise SchemaError(f"factor graph JSON needs a {key!r} list")
    variables = []
    for entry in obj["variables"]:
        try:
            variables.append(Variable(entry["id"], int(entry["cardinality"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad variable entry {entry!r}: {exc}") from exc
    card = {v.id: v.cardinality for v in variables}
    factors = []
    for entry in obj["factors"]:
        try:
            vs = tuple(entry["vars"])
            shape = tuple(card[v] for v in vs)
            table = np.asarray(entry["table"], dtype=float).reshape(shape)
            factors.append(Factor(entry["id"], vs, table))
        except KeyError as exc:
            raise SchemaError(f"bad factor entry {entry!r}: missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad factor entry {entry!r}: {exc}") from exc
    return FactorGraph(variables, factors)
