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
per state of its variable.  The parts only belief propagation reads are
compiled on its first call, so the lift never builds them:

- factor groups: the factors of one table shape, their tables stacked on a
  batch axis and, per position, a matrix of their message slots.  One
  kernel sends a group's messages: per position, one einsum in numpy's
  sublist form (numbered axes, no letters) over the stacked tables and the
  gathered incoming messages.  The batch shares its axis number with the
  first cardinality-1 axis when there is one, so a factor may use all 52
  axis numbers numpy allows; a wider factor is a ValidationError.
- variable groups: the variables of one (degree, cardinality), as index
  matrices of their incoming slots; a group's outgoing messages are one
  prefix and one suffix sum of log-messages, O(degree) per variable, exact
  on hard zeros and free of underflow.
- levels: the two-pass schedule for forests.  The senders of one depth and
  one group key form a group of their own, so the upward pass is one step
  per level, deepest first, and the downward pass the same steps,
  shallowest first.  One depth-first walk gives the depths, the component
  count and the forest test.

The flooding sweep and the two-pass schedule run the same two kernels,
one per group kind.
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


# numpy numbers the axes of a sublist einsum 0..51
_EINSUM_AXES = 52


class _Layout:
    """The compiled edge layout of one factor graph (see the module docstring).

    Edge e owns slots ``off[e]:off[e + 1]`` of a message array, variable i
    slots ``var_off[i]:var_off[i + 1]`` of a belief array.  Nodes are
    variables, then factors; ``around[n]`` lists node n's edges in order.
    ``order`` is the depth-first preorder of each component from its
    smallest variable id, as (node, parent edge or -1) pairs.
    """

    def __init__(self, fg: FactorGraph):
        self.factors = fg.factors
        self.index = {v.id: i for i, v in enumerate(fg.variables)}
        self.cards = [v.cardinality for v in fg.variables]
        self.n_vars = len(self.cards)
        self.edges = fg.edges()
        self.edge_var = [self.index[vid] for _, vid in self.edges]
        self.factor_node = [self.n_vars + j for j, f in enumerate(fg.factors) for _ in f.vars]
        self.edge_cards = [self.cards[i] for i in self.edge_var]
        off = [0, *itertools.accumulate(self.edge_cards)]
        var_off = [0, *itertools.accumulate(self.cards)]
        self.off, self.var_off = np.array(off), np.array(var_off)
        self.var_slices = [slice(a, b) for a, b in zip(var_off, var_off[1:])]
        self.around: list = [[] for _ in self.cards]
        for e, i in enumerate(self.edge_var):
            self.around[i].append(e)
        blocks = [0, *itertools.accumulate(len(f.vars) for f in fg.factors)]
        self.around += map(range, blocks, blocks[1:])

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

    @cached_property
    def var_groups(self) -> list["_VarGroup"]:
        """The variables grouped by (degree, cardinality)."""
        members: dict[tuple[int, int], list[int]] = {}
        for i in range(self.n_vars):
            members.setdefault(self._var_key(i), []).append(i)
        return [self._var_group(vs) for vs in members.values()]

    @cached_property
    def factor_groups(self) -> list["_FactorGroup"]:
        """The factors grouped by table shape."""
        members: dict[tuple[int, ...], list[int]] = {}
        for j, f in enumerate(self.factors):
            members.setdefault(f.table.shape, []).append(j)
        return [self._factor_group(js) for js in members.values()]

    @cached_property
    def tree_steps(self) -> list["_VarGroup | _FactorGroup"]:
        """The two-pass schedule for forests, one group per (depth, group key).

        Variables sit at even depths and factors at odd ones; nodes of one
        depth never share an edge, so each group is one step.
        The upward pass runs the depths deepest first, the downward pass
        shallowest first from depth 1: the roots' messages are final at the
        turn.  Variables of degree 0 or 1 send nothing, as their messages
        are uniform already.
        """
        depth = [0] * len(self.around)
        levels: dict[tuple, list[int]] = {}
        for node, up in self.order:
            if node < self.n_vars:
                if up >= 0:
                    depth[node] = depth[self.factor_node[up]] + 1
                if len(self.around[node]) > 1:
                    levels.setdefault((depth[node], self._var_key(node)), []).append(node)
            else:
                depth[node] = depth[self.edge_var[up]] + 1
                j = node - self.n_vars
                levels.setdefault((depth[node], self.factors[j].table.shape), []).append(j)
        steps = [
            (d, self._factor_group(members) if d % 2 else self._var_group(members))
            for (d, _), members in sorted(levels.items(), key=lambda item: item[0][0])
        ]
        return [group for _, group in reversed(steps)] + [group for d, group in steps if d]

    def _var_key(self, i: int) -> tuple[int, int]:
        return len(self.around[i]), self.cards[i]

    def _var_group(self, vs: list[int]) -> "_VarGroup":
        states = np.arange(self.cards[vs[0]])
        edges = np.array([self.around[i] for i in vs], dtype=np.intp)
        return _VarGroup(self.off[edges][..., None] + states, self.var_off[vs][:, None] + states)

    def _factor_group(self, js: list[int]) -> "_FactorGroup":
        shape = self.factors[js[0]].table.shape
        k = len(shape)
        batch = shape.index(1) if 1 in shape else k
        if k + (batch == k) > _EINSUM_AXES:
            raise ValidationError(
                f"factor {self.factors[js[0]].id!r} has {k} variables; belief "
                f"propagation numbers at most {_EINSUM_AXES} einsum axes"
            )
        tables = np.array([self.factors[j].table for j in js])
        first = [self.around[self.n_vars + j].start for j in js]
        starts = self.off[np.add.outer(first, range(k))]
        return _FactorGroup(
            tables.reshape(len(js), *shape[:batch], *shape[batch + 1 :]),
            [batch, *(q for q in range(k) if q != batch)],
            [
                starts[:, p] if p == batch else starts[:, p, None] + np.arange(shape[p])
                for p in range(k)
            ],
            [[batch] if q == batch else [batch, q] for q in range(k)],
        )


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


@dataclass(frozen=True, eq=False)
class _FactorGroup:
    """Factors of one table shape: stacked tables, per-position message slots.

    The batch axis of ``tables`` and of every slot matrix shares its einsum
    axis number with the first cardinality-1 position, if any; that
    position's slots are then a vector.  ``table_axes`` and ``axes[p]`` are
    the einsum axis numbers of the tables and of position p's messages.
    """

    tables: Array
    table_axes: list
    slots: list
    axes: list

    def propagate(self, src: MessageState, dst: MessageState) -> None:
        """Unnormalized messages from the group's factors along all their edges."""
        incoming = [src.to_factor[s] for s in self.slots]
        for p, out in enumerate(self.slots):
            operands = [self.tables, self.table_axes]
            for q, m in enumerate(incoming):
                if q != p:
                    operands += (m, self.axes[q])
            dst.to_var[out] = np.einsum(*operands, self.axes[p])


@dataclass(frozen=True, eq=False)
class _VarGroup:
    """Variables of one (degree, cardinality): incoming and belief slots."""

    slots: Array
    beliefs: Array

    def propagate(self, src: MessageState, dst: MessageState) -> None:
        """Messages from the group's variables to all their factors, with largest entry 1.

        Each is the product of the variable's other incoming messages: a
        prefix plus a suffix sum of log-messages, so exact zeros stay exact
        and a high-degree product cannot underflow.
        """
        logs = np.log(src.to_var[self.slots])
        others = np.zeros(logs.shape)
        logs[:, :-1].cumsum(axis=1, out=others[:, 1:])
        others[:, :-1] += logs[:, :0:-1].cumsum(axis=1)[:, ::-1]
        others -= others.max(axis=2, keepdims=True)
        dst.to_factor[self.slots] = np.exp(others, out=others)


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
    new = MessageState(np.empty_like(state.to_var), np.empty_like(state.to_factor))
    with np.errstate(divide="ignore", invalid="ignore"):
        for group in (*lay.factor_groups, *lay.var_groups):
            group.propagate(state, new)
        _normalize(new.to_var, lay.off, _TO_VAR, lay.edges)
        _normalize(new.to_factor, lay.off, _TO_FACTOR, lay.edges)
        if damping:
            new = MessageState(
                _damp(lay, state.to_var, new.to_var, damping),
                _damp(lay, state.to_factor, new.to_factor, damping),
            )
    return new


def message_delta(a: MessageState, b: MessageState) -> float:
    gaps = np.concatenate([a.to_var - b.to_var, a.to_factor - b.to_factor])
    return float(np.max(np.abs(gaps), initial=0.0))


def bp_beliefs(fg: FactorGraph, state: MessageState) -> dict:
    """Normalized per-variable beliefs (products of incoming messages)."""
    lay = fg._layout
    out = np.empty(lay.var_off[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for group in lay.var_groups:
            total = np.log(state.to_var[group.slots]).sum(axis=1)
            out[group.beliefs] = np.exp(total - total.max(axis=1, keepdims=True))
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
    """Iterate synchronous sweeps until the sup-norm message change <= tol.

    ``max_sweeps`` must be at least 1 and ``tol`` finite and nonnegative.
    """
    if max_sweeps < 1:
        raise ValidationError(f"max_sweeps must be at least 1, got {max_sweeps}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"tol must be finite and nonnegative, got {tol}")
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
    deterministic.  Raises if the graph has a cycle.  The levels run deepest
    first, then shallowest first; at each level every sender recomputes all
    its outgoing messages, and those already final get the same inputs again.
    Variable messages leave the log domain with largest entry 1, so messages
    are normalized only once, at the end.
    """
    lay = fg._layout
    if not lay.forest:
        raise ValidationError("two-pass schedule requires an acyclic factor graph")
    state = uniform_messages(fg)
    with np.errstate(divide="ignore", invalid="ignore"):
        for group in lay.tree_steps:
            group.propagate(state, state)
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
