"""Discrete factor graphs and sum-product message passing.

Tables are ordinary numpy arrays indexed in each factor's own variable
order; zeros are allowed (hard constraints), but a factor may not mention
the same variable twice.  Messages are kept normalized to unit sum.  Two
drivers are provided: a synchronous flooding sweep with optional geometric
damping for graphs with cycles, and an exact two-pass schedule for forests.

Construction lowers a graph, in one pass over its factors, to integer
arrays (per edge its variable and table axis size, per factor its arity)
and checks them with whole-array tests; the ordered per-factor checks run
only to name the first fault.  The edge layout that every pass and the
replica lift (``klbp.lift``) share derives from these arrays.  Edge e is
the e-th pair of ``edges()``, so each factor owns a contiguous block of
edges, and a message state is one flat buffer with two halves, to-variable
messages first and to-factor messages second, in each of which edge e owns
one slot per state of its variable.  Message k of a buffer is edge k's
to-variable message, or for k >= E (the edge count) edge k - E's to-factor
one.  The per-edge Python lists are built on first use, for the lift, the
forest schedule and error messages; loopy BP builds none.  The parts only
belief propagation reads are compiled on its first call, so the lift never
builds them:

- one normalization kernel: per slot of a buffer, its message, and per
  belief row, its variable.  Each message (or belief) total is one
  bincount over that index, one min and one max test that all are finite
  and positive (an ordered search then names the first that is not), and
  one gather of the totals divides.  A sweep normalizes both halves in one
  call, and so does the damping step.
- factor groups: the factors of one table shape, their tables stacked on a
  batch axis by one concatenate and, per position, a matrix of their
  message slots.  One kernel sends a group's messages: per position, one
  einsum in numpy's sublist form (numbered axes, no letters) over the
  stacked tables and the gathered incoming messages.  The batch shares its
  axis number with the first cardinality-1 axis when there is one, so a
  factor may use all 52 axis numbers numpy allows; a wider factor is a
  ValidationError.
- variable groups: flat index arrays of incoming slots, each slot tagged
  with its (variable, state) row and its outgoing message.  One kernel
  sends a group's messages: one log of the slots, one bincount per row of
  the logs, and each message is exp(row total - own log), O(degree) per
  variable.  Only when some slot is 0 is its log set to 0 and are the
  zeros counted per row (one bincount of their rows); the counts decide
  which states are exactly 0, so hard zeros stay exact.  Each message's
  maximum (one maximum.reduceat over the message cuts, gathered back
  through the slots' message index) is subtracted before the exp, so
  nothing underflows.  The index arrays come from one stable argsort of
  the edges by variable.  The flooding sweep runs one group that holds
  every variable, and the beliefs read its row totals.
- levels: the two-pass schedule for forests.  The variables of one depth
  form one group, and the factors of one depth and table shape another, so
  the upward pass is one step per level, deepest first, and the downward
  pass the same steps, shallowest first.  A depth-first walk gives the
  depths, the component count and the forest test; it runs on first use,
  so loopy BP never walks the graph.

The flooding sweep and the two-pass schedule run the same two message
kernels, one per group kind, and the same normalization kernel.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SchemaError, ValidationError, whole_number

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class Variable:
    id: str
    cardinality: int

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"variable id must be a nonempty string, got {self.id!r}")
        card = whole_number(self.cardinality, f"variable {self.id!r}: cardinality")
        if card < 1:
            raise ValidationError(f"variable {self.id!r} has cardinality {self.cardinality}")
        object.__setattr__(self, "cardinality", card)


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
        # a NaN, a negative entry or -inf fails lo >= 0; +inf fails hi < inf
        lo, hi = table.min(initial=math.inf), table.max(initial=-math.inf)
        if not (lo >= 0.0 and hi < math.inf):
            raise ValidationError(
                f"factor {self.id!r}: table entries must be finite and nonnegative"
            )
        if not hi > 0.0:
            raise ValidationError(f"factor {self.id!r}: table is identically zero")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)


class FactorGraph:
    def __init__(self, variables, factors):
        self.variables = tuple(variables)
        self.factors = tuple(factors)
        ids = [v.id for v in self.variables]
        cards = [v.cardinality for v in self.variables]
        index = dict(zip(ids, range(len(ids))))
        # per edge its variable (-1 if unknown) and axis size, per factor its
        # arity; the ordered checks run only to name the first fault
        rows = [(f.id, f.vars, f.table.shape) for f in self.factors]
        fids, fvars, shapes = zip(*rows) if rows else ((), (), ())
        arity = np.fromiter(map(len, fvars), np.intp, len(fvars))
        n_edges = int(arity.sum())
        names = itertools.chain.from_iterable(fvars)
        edge_var = np.fromiter(map(index.get, names, itertools.repeat(-1)), np.intp, n_edges)
        sizes = np.fromiter(itertools.chain.from_iterable(shapes), np.intp, n_edges)
        faults = len(index) < len(ids) or len(set(fids)) < len(fids) or edge_var.min(initial=0) < 0
        if faults or (np.array(cards, np.intp)[edge_var] != sizes).any():
            self._first_fault()
        self._layout = _Layout(self.factors, ids, index, cards, edge_var, arity, sizes)

    def _first_fault(self) -> None:
        """Raise for the first fault, in variable, then factor, then edge order."""
        card = {}
        for v in self.variables:
            if v.id in card:
                raise ValidationError(f"duplicate variable id {v.id!r}")
            card[v.id] = v.cardinality
        factor_ids = set()
        for f in self.factors:
            if f.id in factor_ids:
                raise ValidationError(f"duplicate factor id {f.id!r}")
            factor_ids.add(f.id)
            for pos, v in enumerate(f.vars):
                if v not in card:
                    raise ValidationError(f"factor {f.id!r} mentions unknown variable {v!r}")
                if f.table.shape[pos] != card[v]:
                    raise ValidationError(
                        f"factor {f.id!r}: axis {pos} has size {f.table.shape[pos]} "
                        f"but variable {v!r} has cardinality {card[v]}"
                    )

    def cardinality(self, var_id: str) -> int:
        lay = self._layout
        return lay.cards[lay.index[var_id]]

    def neighbors(self, var_id: str) -> list[str]:
        lay = self._layout
        return [lay.edges[e][0] for e in lay.around[lay.index[var_id]]]

    def edges(self) -> list[tuple[str, str]]:
        """(factor id, variable id) pairs in deterministic order."""
        return list(self._layout.edges)

    def is_forest(self) -> bool:
        return self._layout.forest


def _cuts(counts: Array) -> Array:
    """0 and the running totals of ``counts``."""
    cuts = np.zeros(len(counts) + 1, np.intp)
    np.add.accumulate(counts, out=cuts[1:])
    return cuts


# numpy numbers the axes of a sublist einsum 0..51
_EINSUM_AXES = 52


class _Layout:
    """The compiled edge layout of one factor graph (see the module docstring).

    Edge e joins variable ``edge_var[e]`` of cardinality ``edge_cards[e]``;
    factor j owns the ``arity[j]`` edges ``blocks[j]:blocks[j + 1]``.  Edge
    e owns slots ``off[e]:off[e + 1]`` of each half of a message buffer,
    variable i rows ``var_off[i]:var_off[i + 1]`` of a belief array.  Nodes
    are variables, then factors; ``around[n]`` lists node n's edges in
    order.  The layout holds no reference to its graph, so a graph is freed
    without the cyclic collector.
    """

    def __init__(self, factors, ids, index, cards, edge_var: Array, arity: Array, edge_cards):
        self.factors, self.ids, self.index, self.cards = factors, ids, index, cards
        self.n_vars = len(cards)
        self.edge_var, self.edge_cards, self.arity = edge_var, edge_cards, arity
        self.off, self.var_off, self.blocks = _cuts(edge_cards), _cuts(cards), _cuts(arity)

    @cached_property
    def edges(self) -> list[tuple[str, str]]:
        return [(f.id, v) for f in self.factors for v in f.vars]

    @cached_property
    def factor_node(self) -> list[int]:
        """Per edge, its factor's node."""
        return np.arange(self.n_vars, self.n_vars + len(self.arity)).repeat(self.arity).tolist()

    @cached_property
    def var_slices(self) -> list[slice]:
        return list(map(slice, self.var_off[:-1].tolist(), self.var_off[1:].tolist()))

    @cached_property
    def around(self) -> list:
        around: list = [[] for _ in self.cards]
        for e, i in enumerate(self.edge_var.tolist()):
            around[i].append(e)
        blocks = self.blocks.tolist()
        return around + list(map(range, blocks, blocks[1:]))

    @cached_property
    def message_of_slot(self) -> Array:
        """Per slot of a message buffer, its message (see the module docstring)."""
        lens = self.edge_cards
        return np.arange(2 * len(lens)).repeat(np.concatenate((lens, lens)))

    @cached_property
    def message_cuts(self) -> Array:
        """The first slot of each message of a buffer."""
        return np.concatenate((self.off[:-1], self.off[:-1] + self.off[-1]))

    @cached_property
    def var_of_row(self) -> Array:
        """Per row of a belief array, its variable."""
        return np.repeat(np.arange(self.n_vars), self.cards)

    def message_name(self, k: int) -> str:
        n = len(self.edges)
        return (_TO_FACTOR if k >= n else _TO_VAR).format(self.edges[k % n])

    @cached_property
    def order(self) -> list[tuple[int, int]]:
        """Depth-first preorder of each component from its smallest variable id,
        as (node, parent edge or -1) pairs."""
        seen = [False] * len(self.around)
        edge_var, order = self.edge_var.tolist(), []
        for root in sorted(range(self.n_vars), key=self.ids.__getitem__):
            if seen[root]:
                continue
            seen[root] = True
            stack = [(root, -1)]
            while stack:
                node, up = stack.pop()
                order.append((node, up))
                for e in self.around[node]:
                    nxt = self.factor_node[e] if node < self.n_vars else edge_var[e]
                    if not seen[nxt]:
                        seen[nxt] = True
                        stack.append((nxt, e))
        return order

    @cached_property
    def n_components(self) -> int:
        return sum(up < 0 for _, up in self.order)

    @cached_property
    def forest(self) -> bool:
        return len(self.edges) == len(self.around) - self.n_components

    @cached_property
    def factor_groups(self) -> list["_FactorGroup"]:
        """The factors grouped by table shape."""
        members: dict[tuple[int, ...], list[int]] = {}
        for j, f in enumerate(self.factors):
            members.setdefault(f.table.shape, []).append(j)
        return [self._factor_group(js) for js in members.values()]

    @cached_property
    def flood(self) -> "_VarGroup":
        """Every variable as one group, its rows in belief order."""
        return self._var_groups([range(self.n_vars)])[0]

    @cached_property
    def tree_steps(self) -> list["_VarGroup | _FactorGroup"]:
        """The two-pass schedule for forests: per depth, one variable group and
        one factor group per table shape.

        Variables sit at even depths and factors at odd ones; nodes of one
        depth never share an edge, so each group is one step.
        The upward pass runs the depths deepest first, the downward pass
        shallowest first from depth 1: the roots' messages are final at the
        turn.  Variables of degree 0 or 1 send nothing, as their messages
        are uniform already.
        """
        depth, edge_var = [0] * len(self.around), self.edge_var.tolist()
        senders: dict[int, list[int]] = {}
        levels: dict[tuple, list[int]] = {}
        for node, up in self.order:
            if node < self.n_vars:
                if up >= 0:
                    depth[node] = depth[self.factor_node[up]] + 1
                if len(self.around[node]) > 1:
                    senders.setdefault(depth[node], []).append(node)
            else:
                depth[node] = depth[edge_var[up]] + 1
                j = node - self.n_vars
                levels.setdefault((depth[node], self.factors[j].table.shape), []).append(j)
        steps = [(d, self._factor_group(js)) for (d, _), js in levels.items()]
        steps += zip(senders, self._var_groups(list(senders.values())))
        steps.sort(key=lambda step: step[0])
        return [group for _, group in reversed(steps)] + [group for d, group in steps if d]

    @cached_property
    def by_var(self) -> tuple[Array, Array]:
        """The edges sorted stably by variable, so each variable's edges form
        one run in order, and where each variable's run starts."""
        degree = np.bincount(self.edge_var, minlength=self.n_vars)
        return np.argsort(self.edge_var, kind="stable"), _cuts(degree)

    def _var_groups(self, members: list[list[int]]) -> list["_VarGroup"]:
        """One group per list of variables, each variable's edges in one run.

        Cumulative sums of the degrees and cardinalities place each edge's
        run in ``by_var``, its first slot in the groups' concatenation and
        its variable's first row in its group, and every slot and row index
        then comes from one repeat.
        """
        by_var, first = self.by_var
        sizes = [len(vs) for vs in members]
        var = np.fromiter(itertools.chain.from_iterable(members), np.intp, sum(sizes))
        # var[m]'s edges are the deg[m] edges from first[var[m]] on in by_var
        head, nxt = first[var], var + 1
        deg, card = first[nxt] - head, self.var_off[nxt] - self.var_off[var]
        var_cut, edge_cut, row_cut = _cuts(sizes), _cuts(deg), _cuts(card)
        edge = by_var[np.arange(edge_cut[-1]) + (head - edge_cut[:-1]).repeat(deg)]
        lens = card.repeat(deg)
        slot_cut = _cuts(lens)
        start = slot_cut[:-1]
        row = (row_cut[:-1] - row_cut[var_cut[:-1]].repeat(sizes)).repeat(deg)
        state = np.arange(slot_cut[-1]) - start.repeat(lens)
        slots, rows = self.off[edge].repeat(lens) + state, row.repeat(lens) + state
        message = np.arange(len(edge)).repeat(lens)
        group_edge = edge_cut[var_cut]
        bounds = zip(group_edge.tolist(), slot_cut[group_edge].tolist(), row_cut[var_cut].tolist())
        return [
            _VarGroup(slots[s0:s1], rows[s0:s1], r1 - r0, start[e0:e1] - s0, message[s0:s1] - e0)
            for (e0, s0, r0), (e1, s1, r1) in itertools.pairwise(bounds)
        ]

    def _factor_group(self, js: list[int]) -> "_FactorGroup":
        shape = self.factors[js[0]].table.shape
        k = len(shape)
        batch = shape.index(1) if 1 in shape else k
        if k + (batch == k) > _EINSUM_AXES:
            raise ValidationError(
                f"factor {self.factors[js[0]].id!r} has {k} variables; belief "
                f"propagation numbers at most {_EINSUM_AXES} einsum axes"
            )
        tables = np.concatenate([self.factors[j].table for j in js])
        starts = self.off[np.add.outer(self.blocks[js], range(k))]
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


class MessageState:
    """Normalized messages in the graph's edge slots: one flat buffer whose
    first half ``to_var`` and second half ``to_factor`` are views.

    ``MessageState(to_var, to_factor)`` copies the two arrays into a new
    buffer; the passes wrap a buffer they made with ``_of``.
    """

    __slots__ = ("buffer", "to_var", "to_factor")

    def __init__(self, to_var: Array, to_factor: Array):
        self._bind(np.concatenate((to_var, to_factor)))

    @classmethod
    def _of(cls, buffer: Array) -> "MessageState":
        state = cls.__new__(cls)
        state._bind(buffer)
        return state

    def _bind(self, buffer: Array) -> None:
        half = len(buffer) // 2
        self.buffer, self.to_var, self.to_factor = buffer, buffer[:half], buffer[half:]


# how a failed message is named, from its edge (factor id, variable id)
_TO_VAR = "message {0[0]}->{0[1]}"
_TO_FACTOR = "message {0[1]}->{0[0]}"


def _normalize(arr: Array, segment: Array, name: Callable[[int], str], first: int = 0) -> Array:
    """Scale each segment of ``arr`` to unit sum, in place: slot i is in
    segment ``segment[i]``, and every segment has a slot.

    A segment whose sum is +inf is a message that overflowed; one whose sum
    is zero, or NaN (log-domain products of disjoint supports), vanished.
    The error names the first failed segment k from segment ``first`` on,
    wrapping round, as ``name(k)``.
    """
    totals = np.bincount(segment, arr)
    # a NaN fails both tests, and an empty arr passes (its bincount is of
    # integers); the ordered search below names the first failure
    if not (totals.min(initial=1.0) > 0.0 and totals.max(initial=0.0) < math.inf):
        ok = np.isfinite(totals) & (totals > 0.0)
        k = (first + int(np.argmin(np.roll(ok, -first)))) % len(ok)
        fate = "overflowed" if totals[k] == np.inf else "vanished (contradictory constraints)"
        raise ValidationError(f"{name(k)} {fate}")
    arr /= totals[segment]
    return arr


def uniform_messages(fg: FactorGraph) -> MessageState:
    cards = fg._layout.edge_cards
    flat = 1.0 / np.repeat(cards, cards)
    return MessageState(flat, flat)


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
    """Variables sending along all their edges, as flat index arrays.

    The group reads message slots ``slots``; slot k is in row ``rows[k]`` of
    the group's ``n_rows`` (variable, state) rows and of the group's message
    ``message[k]``; message m is the run of slots from ``cuts[m]``.
    """

    slots: Array
    rows: Array
    n_rows: int
    cuts: Array
    message: Array

    def totals(self, to_var: Array) -> tuple[Array, Array, Array, Array | None]:
        """Per slot, the finite log-message (0 at a zero) and whether it is 0;
        per row, their sums.  The zero counts are None when no slot is 0."""
        msgs = to_var[self.slots]
        zero = msgs == 0.0
        logs = np.log(msgs, out=msgs)
        zeros, hit = None, self.rows[zero]
        if len(hit):
            logs[zero] = 0.0
            zeros = np.bincount(hit, minlength=self.n_rows)
        return logs, zero, np.bincount(self.rows, logs, self.n_rows), zeros

    def propagate(self, src: MessageState, dst: MessageState) -> None:
        """Messages from the group's variables to all their factors, with largest entry 1.

        Each is the product of the variable's other incoming messages: its
        row's total log-message less its own.  A state is exactly 0 when
        another incoming message is 0 there, which the zero counts decide,
        and the logs cannot underflow.
        """
        logs, zero, total, zeros = self.totals(src.to_var)
        others = total[self.rows] - logs
        if zeros is not None:
            others[zeros[self.rows] > zero] = -np.inf
        others -= np.maximum.reduceat(others, self.cuts)[self.message]
        dst.to_factor[self.slots] = np.exp(others, out=others)


def _damp(lay: _Layout, old: Array, fresh: Array, damping: float) -> Array:
    # geometric interpolation; a zero on either side stays zero
    mixed = damping * np.log(old) + (1.0 - damping) * np.log(fresh)
    mixed -= np.maximum.reduceat(mixed, lay.message_cuts)[lay.message_of_slot]
    return _normalize(
        np.exp(mixed, out=mixed), lay.message_of_slot, lambda k: f"damped {lay.message_name(k)}"
    )


def _check_damping(damping: float) -> None:
    if not 0.0 <= damping < 1.0:
        raise ValidationError(f"damping must lie in [0, 1), got {damping}")


def check_bp_options(*, damping: float, tol: float, max_sweeps: int) -> None:
    """Raise unless ``bp_run`` accepts these options, in the order it checks them."""
    if max_sweeps < 1:
        raise ValidationError(f"max_sweeps must be at least 1, got {max_sweeps}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"tol must be finite and nonnegative, got {tol}")
    _check_damping(damping)


def bp_sweep(fg: FactorGraph, state: MessageState, *, damping: float = 0.0) -> MessageState:
    """One synchronous flooding update of every message.

    Both directions are recomputed from the incoming state; ``damping`` in
    [0, 1) is the geometric weight kept on the old message.
    """
    _check_damping(damping)
    lay = fg._layout
    new = MessageState._of(np.empty_like(state.buffer))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for group in (*lay.factor_groups, lay.flood):
            group.propagate(state, new)
        _normalize(new.buffer, lay.message_of_slot, lay.message_name)
        if damping:
            new = MessageState._of(_damp(lay, state.buffer, new.buffer, damping))
    return new


def message_delta(a: MessageState, b: MessageState) -> float:
    gaps = a.buffer - b.buffer
    return float(np.abs(gaps, out=gaps).max(initial=0.0))


def bp_beliefs(fg: FactorGraph, state: MessageState) -> dict:
    """Normalized per-variable beliefs (products of incoming messages)."""
    lay = fg._layout
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, _, total, zeros = lay.flood.totals(state.to_var)
        if zeros is not None:
            total[zeros > 0] = -np.inf
        total -= np.maximum.reduceat(total, lay.var_off[:-1])[lay.var_of_row]
        # not in place: with no edges the bincounts are of integers
        out = _normalize(np.exp(total), lay.var_of_row, lambda i: f"belief of {lay.ids[i]}")
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

    ``max_sweeps`` must be at least 1, ``tol`` finite and nonnegative and
    ``damping`` in [0, 1).
    """
    check_bp_options(damping=damping, tol=tol, max_sweeps=max_sweeps)
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for group in lay.tree_steps:
            group.propagate(state, state)
        # contradicting factors meet at a variable, so its messages are checked first
        _normalize(state.buffer, lay.message_of_slot, lay.message_name, first=len(lay.edges))
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
            variables.append(Variable(entry["id"], entry["cardinality"]))
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
