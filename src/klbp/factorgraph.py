"""Discrete factor graphs and sum-product message passing.

Tables are ordinary numpy arrays indexed in each factor's own variable
order; zeros are allowed (hard constraints), but a factor may not mention
the same variable twice.  Messages are kept normalized to unit sum.  Two
drivers are provided: a synchronous flooding sweep with optional geometric
damping for graphs with cycles, and an exact two-pass schedule for forests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, ValidationError

Array = np.ndarray

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


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
        self._factor_by_id = {}
        self._var_neighbors: dict[str, list[str]] = {v.id: [] for v in self.variables}
        for f in self.factors:
            if f.id in self._factor_by_id:
                raise ValidationError(f"duplicate factor id {f.id!r}")
            self._factor_by_id[f.id] = f
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
                self._var_neighbors[v].append(f.id)

    def cardinality(self, var_id: str) -> int:
        return self._card[var_id]

    def factor(self, factor_id: str) -> Factor:
        return self._factor_by_id[factor_id]

    def neighbors(self, var_id: str) -> list[str]:
        return self._var_neighbors[var_id]

    def edges(self) -> list[tuple[str, str]]:
        """(factor id, variable id) pairs in deterministic order."""
        return [(f.id, v) for f in self.factors for v in f.vars]

    def is_forest(self) -> bool:
        n_nodes = len(self.variables) + len(self.factors)
        n_edges = len(self.edges())
        return n_edges == n_nodes - self._n_components()

    def _n_components(self) -> int:
        parent: dict[tuple[str, str], tuple[str, str]] = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for v in self.variables:
            parent[("v", v.id)] = ("v", v.id)
        for f in self.factors:
            parent[("f", f.id)] = ("f", f.id)
            for v in f.vars:
                a, b = find(("f", f.id)), find(("v", v))
                if a != b:
                    parent[a] = b
        return len({find(x) for x in parent})


def validate_fg(fg: FactorGraph) -> dict:
    """Report-style semantic checks beyond construction.

    Shape and arity problems cannot be represented at all (construction
    rejects them), so the report covers the remaining conditions: strict
    table positivity, with violating entries located by flat index, and
    connectedness.
    """
    zero_entries = []
    for f in fg.factors:
        flat = f.table.reshape(-1)
        for idx in np.nonzero(flat <= 0.0)[0]:
            zero_entries.append((f.id, int(idx)))
    n_components = fg._n_components()
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
    """Normalized messages keyed by (factor id, variable id), both ways."""

    to_var: dict
    to_factor: dict


def _norm_msg(arr: Array, what: str) -> Array:
    total = arr.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise ValidationError(f"message {what} vanished (contradictory constraints)")
    return arr / total


def uniform_messages(fg: FactorGraph) -> MessageState:
    to_var = {}
    to_factor = {}
    for fid, vid in fg.edges():
        card = fg.cardinality(vid)
        to_var[(fid, vid)] = np.full(card, 1.0 / card)
        to_factor[(fid, vid)] = np.full(card, 1.0 / card)
    return MessageState(to_var, to_factor)


def _factor_to_var(fg: FactorGraph, fac: Factor, target: str, to_factor) -> Array:
    operands = [fac.table]
    subs = [_LETTERS[: len(fac.vars)]]
    out = ""
    for pos, v in enumerate(fac.vars):
        if v == target:
            out = _LETTERS[pos]
        else:
            operands.append(to_factor[(fac.id, v)])
            subs.append(_LETTERS[pos])
    fresh = np.einsum(",".join(subs) + "->" + out, *operands)
    return _norm_msg(fresh, f"{fac.id}->{target}")


def _var_to_factor(fg: FactorGraph, vid: str, target_fid: str, to_var) -> Array:
    prod = np.ones(fg.cardinality(vid))
    for fid in fg.neighbors(vid):
        if fid != target_fid:
            prod = prod * to_var[(fid, vid)]
    return _norm_msg(prod, f"{vid}->{target_fid}")


def _damp(old: Array, fresh: Array, damping: float) -> Array:
    if damping == 0.0:
        return fresh
    # geometric interpolation; a zero on either side stays zero
    with np.errstate(divide="ignore"):
        mixed = damping * np.log(old) + (1.0 - damping) * np.log(fresh)
    out = np.exp(mixed - np.max(mixed))
    return _norm_msg(out, "damped message")


def bp_sweep(fg: FactorGraph, state: MessageState, *, damping: float = 0.0) -> MessageState:
    """One synchronous flooding update of every message.

    Both directions are recomputed from the incoming state; ``damping`` in
    [0, 1) is the geometric weight kept on the old message.
    """
    if not 0.0 <= damping < 1.0:
        raise ValidationError(f"damping must lie in [0, 1), got {damping}")
    to_var = {}
    to_factor = {}
    for fac in fg.factors:
        for v in fac.vars:
            fresh = _factor_to_var(fg, fac, v, state.to_factor)
            to_var[(fac.id, v)] = _damp(state.to_var[(fac.id, v)], fresh, damping)
    for fid, vid in fg.edges():
        fresh = _var_to_factor(fg, vid, fid, state.to_var)
        to_factor[(fid, vid)] = _damp(state.to_factor[(fid, vid)], fresh, damping)
    return MessageState(to_var, to_factor)


def message_delta(a: MessageState, b: MessageState) -> float:
    worst = 0.0
    for key in a.to_var:
        worst = max(worst, float(np.max(np.abs(a.to_var[key] - b.to_var[key]))))
    for key in a.to_factor:
        worst = max(worst, float(np.max(np.abs(a.to_factor[key] - b.to_factor[key]))))
    return worst


def bp_beliefs(fg: FactorGraph, state: MessageState) -> dict:
    """Normalized per-variable beliefs (products of incoming messages)."""
    out = {}
    for v in fg.variables:
        prod = np.ones(v.cardinality)
        for fid in fg.neighbors(v.id):
            prod = prod * state.to_var[(fid, v.id)]
        out[v.id] = _norm_msg(prod, f"belief of {v.id}")
    return out


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
    deterministic.  Raises if the graph has a cycle.
    """
    if not fg.is_forest():
        raise ValidationError("two-pass schedule requires an acyclic factor graph")
    state = uniform_messages(fg)

    adjacency: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for v in fg.variables:
        adjacency[("v", v.id)] = []
    for f in fg.factors:
        adjacency[("f", f.id)] = []
        for v in f.vars:
            adjacency[("f", f.id)].append(("v", v))
            adjacency[("v", v)].append(("f", f.id))

    seen: set[tuple[str, str]] = set()
    order: list[tuple[tuple[str, str], tuple[str, str] | None]] = []
    roots = [("v", v.id) for v in sorted(fg.variables, key=lambda v: v.id)]
    roots += [("f", f.id) for f in sorted(fg.factors, key=lambda f: f.id)]
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, None)]
        while stack:
            node, parent = stack.pop()
            order.append((node, parent))
            for nxt in adjacency[node]:
                if nxt != parent and nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, node))

    def send(src: tuple[str, str], dst: tuple[str, str]) -> None:
        if src[0] == "f":
            fac = fg.factor(src[1])
            state.to_var[(fac.id, dst[1])] = _factor_to_var(
                fg, fac, dst[1], state.to_factor
            )
        else:
            state.to_factor[(dst[1], src[1])] = _var_to_factor(
                fg, src[1], dst[1], state.to_var
            )

    for node, parent in reversed(order):
        if parent is not None:
            send(node, parent)
    for node, parent in order:
        if parent is not None:
            send(parent, node)
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
