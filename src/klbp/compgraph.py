"""Scalar computation DAGs and their adjoints as log-belief slopes.

A graph is a set of scalar nodes wired by C1 primitives with one designated
scalar output.  Each deterministic assignment can be read as a point-mass
factor; running the output factor phi backwards then makes the adjoint of a
node exactly the slope of its downward log-belief at the forward point.
The API exposes both readings: ``backward_adjoints`` is the reverse sweep,
``downward_log_belief`` evaluates the belief itself on a grid so the slope
(and its invariance to per-edge message rescaling) can be checked
numerically.

Every primitive is one entry of the ``PRIMITIVES`` table: its arity, whether
it carries a constant, its forward map and its partials.  Validation,
forward evaluation, the reverse sweep and the random-DAG generator all read
that table.  The set is fixed to C1 ops; relu/abs are rejected on purpose
-- approximate with softplus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import SchemaError, ValidationError
from .toposort import topo_sort

def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _softplus(x: float) -> float:
    if x > 30.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _div(v, c):
    if v[1] == 0.0:
        raise ValueError("division by zero")
    return v[0] / v[1]


def _log(v, c):
    if v[0] <= 0.0:
        raise ValueError(f"log of nonpositive value {v[0]!r}")
    return math.log(v[0])


def _pow(v, c):
    base = v[0]
    if c != int(c) and base <= 0.0:
        raise ValueError(f"non-integer power of nonpositive base {base!r}")
    if c < 0.0 and base == 0.0:
        raise ValueError("negative power of zero")
    return base**c


@dataclass(frozen=True)
class Primitive:
    """One C1 operation: ``f(vals, c)`` and its partials ``d(vals, out, c)``.

    ``vals`` are the input values, ``out`` the forward value and ``c`` the
    node's constant (the value of "constant", the exponent of "pow"); ``d``
    returns one partial per input.
    """

    arity: int
    f: Callable | None = None
    d: Callable | None = None
    needs_value: bool = False


PRIMITIVES = {
    "input": Primitive(0),
    "constant": Primitive(0, lambda v, c: c, needs_value=True),
    "add": Primitive(2, lambda v, c: v[0] + v[1], lambda v, out, c: (1.0, 1.0)),
    "sub": Primitive(2, lambda v, c: v[0] - v[1], lambda v, out, c: (1.0, -1.0)),
    "mul": Primitive(2, lambda v, c: v[0] * v[1], lambda v, out, c: (v[1], v[0])),
    "div": Primitive(2, _div, lambda v, out, c: (1.0 / v[1], -(v[0] / v[1]) / v[1])),
    "exp": Primitive(1, lambda v, c: math.exp(v[0]), lambda v, out, c: (out,)),
    "log": Primitive(1, _log, lambda v, out, c: (1.0 / v[0],)),
    "sigmoid": Primitive(
        1, lambda v, c: _sigmoid(v[0]), lambda v, out, c: (out * (1.0 - out),)
    ),
    "tanh": Primitive(
        1, lambda v, c: math.tanh(v[0]), lambda v, out, c: (1.0 - out * out,)
    ),
    "softplus": Primitive(
        1, lambda v, c: _softplus(v[0]), lambda v, out, c: (_sigmoid(v[0]),)
    ),
    "pow": Primitive(
        1, _pow, lambda v, out, c: (0.0 if c == 0.0 else c * v[0] ** (c - 1.0),),
        needs_value=True,
    ),
}


@dataclass(frozen=True, eq=False)
class CompNode:
    id: str
    op: str
    inputs: tuple[str, ...] = ()
    value: float | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"node id must be a nonempty string, got {self.id!r}")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.value is not None:
            object.__setattr__(self, "value", float(self.value))


class CompGraph:
    """Nodes plus one output id.  Construction only rejects graphs that
    cannot be inspected at all (duplicate ids, dangling references, missing
    output); the deep checks (cycles, op set, arity, missing values) run once
    per graph, and ``forward_eval`` raises every issue they find.  The
    topological order is fixed at construction; a cycle leaves it unset.
    """

    def __init__(self, nodes, output: str):
        self.nodes = tuple(nodes)
        self.output = output
        self._by_id = {}
        for n in self.nodes:
            if n.id in self._by_id:
                raise ValidationError(f"duplicate node id {n.id!r}")
            self._by_id[n.id] = n
        for n in self.nodes:
            for ref in n.inputs:
                if ref not in self._by_id:
                    raise ValidationError(
                        f"node {n.id!r} references unknown node {ref!r}"
                    )
        if output not in self._by_id:
            raise ValidationError(f"output node {output!r} does not exist")
        self._topo = topo_sort({n.id: n.inputs for n in self.nodes})

    @cached_property
    def _issues(self) -> list[str]:
        issues = [] if self._topo is not None else ["graph contains a cycle"]
        for n in self.nodes:
            prim = PRIMITIVES.get(n.op)
            if prim is None:
                issues.append(f"node {n.id!r}: op {n.op!r} is not in the C1 primitive set")
                continue
            if len(n.inputs) != prim.arity:
                issues.append(
                    f"node {n.id!r}: op {n.op!r} takes {prim.arity} inputs, "
                    f"got {len(n.inputs)}"
                )
            if prim.needs_value and n.value is None:
                issues.append(f"node {n.id!r}: op {n.op!r} needs a value")
        return issues

    def node(self, node_id: str) -> CompNode:
        return self._by_id[node_id]

    def input_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.op == "input")

    def topo_order(self) -> list[str]:
        if self._topo is None:
            raise ValidationError("computation graph contains a cycle")
        return list(self._topo)


# --------------------------------------------------------------- forward


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    values: dict
    inputs: dict


def forward_eval(
    graph: CompGraph, inputs: dict, *, override: tuple[str, float] | None = None
) -> ForwardTrace:
    """Evaluate every node at the given input point, in topological order.

    ``override`` pins one node to a value and is what 'clamp the rest,
    perturb one variable' means operationally: downstream nodes see the
    pinned value, everything else keeps its defining equation.
    """
    if graph._issues:
        raise ValidationError("; ".join(graph._issues))
    values: dict[str, float] = {}
    for nid in graph.topo_order():
        node = graph.node(nid)
        if override is not None and nid == override[0]:
            values[nid] = float(override[1])
            continue
        if node.op == "input":
            if nid not in inputs:
                raise ValidationError(f"no value supplied for input {nid!r}")
            values[nid] = float(inputs[nid])
        else:
            vals = [values[ref] for ref in node.inputs]
            try:
                values[nid] = PRIMITIVES[node.op].f(vals, node.value)
            except ValueError as exc:
                raise ValidationError(f"node {nid!r}: {exc}") from None
            except OverflowError:
                raise ValidationError(f"node {nid!r}: {node.op} overflowed") from None
        if not math.isfinite(values[nid]):
            raise ValidationError(f"node {nid!r} evaluated to {values[nid]!r}")
    return ForwardTrace(values, dict(inputs))


# --------------------------------------------------------- output factors


@dataclass(frozen=True, eq=False)
class ExpScale:
    """phi(z) = exp(alpha z)."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not math.isfinite(self.alpha):
            raise ValidationError("exponential-factor scale must be finite")


@dataclass(frozen=True, eq=False)
class NegLossTemp:
    """phi(z) = exp(-L(z)/T) for a C1 loss and temperature T > 0.

    kind "squared_error": L(z) = (z - param)^2 / 2 with target param.
    kind "logistic": L(z) = softplus(z) - param * z with label param in {0,1}.
    """

    kind: str
    param: float
    temperature: float

    def __post_init__(self):
        if self.kind not in ("squared_error", "logistic"):
            raise ValidationError(f"unknown loss kind {self.kind!r}")
        object.__setattr__(self, "param", float(self.param))
        object.__setattr__(self, "temperature", float(self.temperature))
        if not self.temperature > 0.0:
            raise ValidationError(
                f"temperature must be positive, got {self.temperature!r}"
            )
        if self.kind == "logistic" and self.param not in (0.0, 1.0):
            raise ValidationError(
                f"logistic label must be 0 or 1, got {self.param!r}"
            )


OutputFactor = ExpScale | NegLossTemp


def seed_score(factor: OutputFactor, z_star: float) -> float:
    """phi'(z*)/phi(z*), the log-derivative of the output factor."""
    if isinstance(factor, ExpScale):
        return factor.alpha
    if isinstance(factor, NegLossTemp):
        if factor.kind == "squared_error":
            lprime = z_star - factor.param
        else:
            lprime = _sigmoid(z_star) - factor.param
        return -lprime / factor.temperature
    raise ValidationError(f"unknown output factor {factor!r}")


def phi_log(factor: OutputFactor, z: float) -> float:
    """log phi(z)."""
    if isinstance(factor, ExpScale):
        return factor.alpha * z
    if isinstance(factor, NegLossTemp):
        if factor.kind == "squared_error":
            loss = 0.5 * (z - factor.param) ** 2
        else:
            loss = _softplus(z) - factor.param * z
        return -loss / factor.temperature
    raise ValidationError(f"unknown output factor {factor!r}")


# -------------------------------------------------------------- backward


def backward_adjoints(
    graph: CompGraph, trace: ForwardTrace, factor: OutputFactor
) -> dict:
    """Adjoints s(v) for every node, by one reverse topological sweep.

    The output is seeded with the log-derivative of phi at z*; each node
    then accumulates s(child) times the child's partial with respect to it.
    An adjoint that overflows (or a partial that cannot be evaluated) raises
    a ValidationError naming the node.
    """
    order = graph.topo_order()
    for nid in order:
        if nid not in trace.values:
            raise ValidationError(f"trace has no value for node {nid!r}")
    adjoint = {nid: 0.0 for nid in order}
    adjoint[graph.output] = seed_score(factor, trace.values[graph.output])
    for nid in reversed(order):
        if not math.isfinite(adjoint[nid]):
            raise ValidationError(f"node {nid!r}: adjoint overflowed to {adjoint[nid]!r}")
        node = graph.node(nid)
        if not node.inputs:
            continue
        vals = [trace.values[ref] for ref in node.inputs]
        try:
            partials = PRIMITIVES[node.op].d(vals, trace.values[nid], node.value)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValidationError(f"node {nid!r}: {node.op} partial failed: {exc}") from None
        for ref, partial in zip(node.inputs, partials):
            adjoint[ref] += adjoint[nid] * partial
    return adjoint


# -------------------------------------------- message-level examinations


def downward_log_belief(
    graph: CompGraph,
    trace: ForwardTrace,
    factor: OutputFactor,
    var: str,
    grid,
    edge_scales: dict | None = None,
) -> np.ndarray:
    """log of the downward belief of ``var`` on a grid of values.

    Messages compose along the collapsed point-mass factors, so the belief
    at value v is phi evaluated at the output of the graph re-run with
    ``var`` pinned to v and all inputs clamped to their trace values.  Each
    entry of ``edge_scales`` multiplies one downstream message by a
    positive constant, i.e. adds a constant to the log-belief; slopes are
    untouched, which is the gauge-invariance statement in checkable form.
    """
    if var not in trace.values:
        raise ValidationError(f"unknown node {var!r}")
    offset = 0.0
    if edge_scales:
        for edge, scale in edge_scales.items():
            if not (math.isfinite(scale) and scale > 0.0):
                raise ValidationError(
                    f"edge scale for {edge!r} must be a positive real, got {scale!r}"
                )
            offset += math.log(scale)
    out = np.empty(len(grid))
    for i, v in enumerate(grid):
        sub = forward_eval(graph, trace.inputs, override=(var, float(v)))
        out[i] = phi_log(factor, sub.values[graph.output]) + offset
    return out


_GRID_POINTS = 5


def slope_from_grid(grid, values) -> float:
    """Central-difference slope at the middle point of an odd uniform grid."""
    g = np.asarray(grid, dtype=float)
    vals = np.asarray(values, dtype=float)
    if g.size != vals.size or g.size < 3 or g.size % 2 == 0:
        raise ValidationError("slope needs an odd grid of at least 3 points")
    mid = g.size // 2
    return float((vals[mid + 1] - vals[mid - 1]) / (g[mid + 1] - g[mid - 1]))


def centered_grid(center: float, half_width: float) -> np.ndarray:
    """Five evenly spaced points across [center - half_width, center + half_width]."""
    return center + np.linspace(-half_width, half_width, _GRID_POINTS)


# ----------------------------------------------------------------- JSON


def graph_to_json(graph: CompGraph) -> dict:
    nodes = []
    for n in graph.nodes:
        entry = {"id": n.id, "op": n.op, "inputs": list(n.inputs)}
        if n.value is not None:
            entry["value"] = float(n.value)
        nodes.append(entry)
    return {"schema": "v1", "nodes": nodes, "output": graph.output}


def graph_from_json(obj) -> CompGraph:
    if not isinstance(obj, dict) or "nodes" not in obj or "output" not in obj:
        raise SchemaError("graph JSON must be an object with 'nodes' and 'output'")
    if not isinstance(obj["nodes"], list):
        raise SchemaError("'nodes' must be a list")
    nodes = []
    for entry in obj["nodes"]:
        try:
            nodes.append(
                CompNode(
                    entry["id"],
                    entry["op"],
                    tuple(entry.get("inputs", ())),
                    entry.get("value"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad node entry {entry!r}: {exc}") from exc
        except ValidationError as exc:
            raise SchemaError(f"bad node entry {entry!r}: {exc}") from exc
    try:
        return CompGraph(nodes, obj["output"])
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc
