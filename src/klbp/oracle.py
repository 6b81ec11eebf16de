"""Brute-force reference computations.

Everything here is deliberately independent of the closed forms it is used
to check: projections are found by seeded multi-start gradient descent in an
interior parametrization (the starts run together as one ``(starts, dim)``
array, then finite-difference Newton steps polish each), marginals by
exhaustive enumeration, gradients by central finite differences and by a
plain tape-based reverse sweep.  These run at desk scale only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import budgets
from .errors import ValidationError
from .simplex import DistVec, Generator, JointShape, NegativeEntropy

Array = np.ndarray

N_STARTS = 8
# a descent stops after five steps that each move the objective by at most
# DESCENT_TOL (relative), and fails after MAX_DESCENT_STEPS
DESCENT_TOL = 1e-10
MAX_DESCENT_STEPS = 100_000
FD_REL_STEP = 1e-5


# ------------------------------------------------------- constraint specs


@dataclass(frozen=True, eq=False)
class DiagonalFace:
    """Distributions on a replica grid supported where all replicas agree."""

    shape: JointShape


@dataclass(frozen=True, eq=False)
class ProductFamily:
    """Fully factorized distributions over the axes of a joint grid."""

    shape: JointShape


@dataclass(frozen=True, eq=False)
class EqualCopies:
    """A single distribution matched against ``count`` given tables."""

    count: int


ConstraintSpec = DiagonalFace | ProductFamily | EqualCopies


# --------------------------------------------------- numeric projection


def _diag_indices(shape: JointShape) -> Array:
    k = len(shape.sizes)
    d = shape.sizes[0]
    strides = [math.prod(shape.sizes[i + 1:]) for i in range(k)]
    return np.arange(d) * int(sum(strides))


def _softmax_rows(u: Array) -> Array:
    e = np.exp(u - u.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _rowdot(a: Array, b: Array) -> Array:
    return np.einsum("...i,...i->...", a, b)


class _Problem:
    """Objective/gradient in an interior softmax parametrization.

    The constraint kind and the generator are resolved once here; every
    evaluation then takes a ``(rows, dim)`` stack of parameter vectors, one
    row per start (or finite-difference bump), and returns ``(rows,)``
    objective values and ``(rows, dim)`` gradients.
    """

    def __init__(self, gen: Generator, spec: ConstraintSpec, q, side: str):
        if side not in ("left", "right"):
            raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
        self.side = side
        self.mat = None if isinstance(gen, NegativeEntropy) else gen.matrix
        if isinstance(spec, EqualCopies):
            if not isinstance(q, (list, tuple)) or len(q) != spec.count:
                raise ValidationError(
                    f"EqualCopies({spec.count}) needs a list of {spec.count} tables"
                )
            if not q:
                raise ValidationError("EqualCopies needs at least one table; the table list is empty")
            rows = [np.asarray(t.probs, dtype=float) for t in q]
            lengths = [row.size for row in rows]
            if len(set(lengths)) > 1:
                raise ValidationError(f"EqualCopies tables differ in length: {lengths}")
            self.kind = "copies"
            self.targets = np.array(rows)
            self.dim = self.targets.shape[1]
            self.outcomes = q[0].outcomes
        elif isinstance(spec, DiagonalFace):
            spec.shape.check_length(q, what="numeric_projection")
            if self.mat is None and side == "right":
                raise ValidationError(
                    "right KL projection onto a face of an interior point diverges"
                )
            self.kind = "diagonal"
            self.q_full = np.asarray(q.probs, dtype=float)
            self.diag_idx = _diag_indices(spec.shape)
            self.dim = spec.shape.sizes[0]
            k = len(spec.shape.sizes)
            self.outcomes = tuple((t,) * k for t in range(self.dim))
        elif isinstance(spec, ProductFamily):
            spec.shape.check_length(q, what="numeric_projection")
            self.kind = "product"
            self.q_full = np.asarray(q.probs, dtype=float)
            self.sizes = spec.shape.sizes
            self.cuts = np.cumsum(self.sizes)[:-1]
            self.dim = sum(self.sizes)
            self.outcomes = q.outcomes
        else:
            raise ValidationError(f"unknown constraint spec {spec!r}")

    # -- parameter stack u -> candidate points and objective gradients

    def split(self, u: Array) -> list[Array]:
        if self.kind != "product":
            return [_softmax_rows(u)]
        return [_softmax_rows(b) for b in np.split(u, self.cuts, axis=-1)]

    def _joint(self, parts: list[Array]) -> Array:
        """Outer product of per-axis factors, batch axis first (label 0)."""
        operands = []
        for axis, p in enumerate(parts):
            operands += (p, [0, axis + 1])
        return np.einsum(*operands, list(range(len(parts) + 1)))

    def value_grad(self, u: Array) -> tuple[Array, Array]:
        if self.kind == "product":
            return self._value_grad_product(u)
        p = _softmax_rows(u)
        if self.kind == "copies":
            t = self.targets[None]
            pp = p[:, None]
            if self.mat is None and self.side == "left":
                val = np.sum(pp * (np.log(pp) - np.log(t)), axis=(1, 2))
                gamma = np.sum(np.log(pp) - np.log(t) + 1.0, axis=1)
            elif self.mat is None:
                val = np.sum(t * (np.log(t) - np.log(pp)), axis=(1, 2))
                gamma = np.sum(-t / pp, axis=1)
            else:
                diff = pp - t
                adiff = diff @ self.mat.T
                val = 0.5 * np.sum(diff * adiff, axis=(1, 2))
                gamma = np.sum(adiff, axis=1)
        elif self.mat is None:  # diagonal face, left KL
            qd = self.q_full[self.diag_idx]
            val = np.sum(p * (np.log(p) - np.log(qd)), axis=1)
            gamma = np.log(p) - np.log(qd) + 1.0
        else:
            diff = np.zeros((u.shape[0], self.q_full.size))
            diff[:, self.diag_idx] = p
            diff -= self.q_full
            adiff = diff @ self.mat.T
            val = 0.5 * _rowdot(diff, adiff)
            gamma = adiff[:, self.diag_idx]
        return val, p * (gamma - _rowdot(p, gamma)[:, None])

    def _value_grad_product(self, u: Array) -> tuple[Array, Array]:
        parts = self.split(u)
        rows = u.shape[0]
        r = self._joint(parts).reshape(rows, -1)
        q = self.q_full
        if self.mat is None:
            if self.side == "left":
                val = np.sum(r * (np.log(r) - np.log(q)), axis=1)
                djdr = np.log(r) - np.log(q) + 1.0
            else:
                val = np.sum(q * (np.log(q) - np.log(r)), axis=1)
                djdr = -q / r
        else:
            diff = r - q
            djdr = diff @ self.mat.T
            val = 0.5 * _rowdot(diff, djdr)
        n_axes = len(parts)
        grid = (djdr.reshape(rows, *self.sizes), list(range(n_axes + 1)))
        pieces = []
        for axis, p in enumerate(parts):
            operands = list(grid)
            for b in range(n_axes):
                if b != axis:
                    operands += (parts[b], [0, b + 1])
            h = np.einsum(*operands, [0, axis + 1])
            pieces.append(p * (h - _rowdot(p, h)[:, None]))
        return val, np.concatenate(pieces, axis=1)

    def finish(self, u: Array) -> DistVec:
        parts = self.split(u[None])
        if self.kind != "product":
            return DistVec.from_weights(parts[0][0], self.outcomes)
        return DistVec.from_weights(self._joint(parts).reshape(-1), self.outcomes)


def _descend(problem: _Problem, u0: Array) -> Array:
    """Armijo gradient descent, one row per start, all starts in lockstep.

    Each row keeps its own step, flat-step count and stop flag and follows
    the single-start rules exactly; within a backtracking search only the
    rows still searching are evaluated again.
    """
    u = u0.copy()
    val, grad = problem.value_grad(u)
    rows = u.shape[0]
    step = np.ones(rows)
    flat_count = np.zeros(rows, dtype=int)
    live = np.ones(rows, dtype=bool)
    for _ in range(MAX_DESCENT_STEPS):
        live &= np.max(np.abs(grad), axis=1) > 1e-12
        idx = np.flatnonzero(live)
        if idx.size == 0:
            return u
        slope = 1e-4 * _rowdot(grad[idx], grad[idx])
        searching = np.arange(idx.size)
        new_val = np.empty(idx.size)
        new_u = np.empty((idx.size, u.shape[1]))
        new_grad = np.empty_like(new_u)
        moved = np.zeros(idx.size, dtype=bool)
        while searching.size:
            rows_s = idx[searching]
            trial = u[rows_s] - step[rows_s, None] * grad[rows_s]
            tval, tgrad = problem.value_grad(trial)
            ok = tval <= val[rows_s] - step[rows_s] * slope[searching]
            hit = searching[ok]
            new_u[hit], new_val[hit], new_grad[hit] = trial[ok], tval[ok], tgrad[ok]
            moved[hit] = True
            searching = searching[~ok]
            step[idx[searching]] *= 0.5
            # no descent direction left at float precision: the row stops
            stalled = step[idx[searching]] < 1e-18
            live[idx[searching[stalled]]] = False
            searching = searching[~stalled]
        at = idx[moved]
        tval = new_val[moved]
        flat = np.abs(val[at] - tval) <= DESCENT_TOL * np.maximum(1.0, np.abs(val[at]))
        flat_count[at] = np.where(flat, flat_count[at] + 1, 0)
        u[at], val[at], grad[at] = new_u[moved], tval, new_grad[moved]
        step[at] = np.minimum(step[at] * 1.3, 1e3)
        live[at[flat_count[at] >= 5]] = False
    if live.any():
        raise ValidationError(
            f"numeric projection did not converge within {MAX_DESCENT_STEPS} steps"
        )
    return u


def _polish(problem: _Problem, u: Array, rounds: int = 8) -> Array:
    """Finite-difference Newton steps to squeeze out first-order stall.

    Gradient descent plateaus once objective changes hit float granularity,
    leaving parameter errors around sqrt(eps); a few damped Newton steps
    (Hessian by central differences of the analytic gradient, pseudo-inverse
    to absorb the softmax gauge direction) push each start to machine-level
    stationarity.  All live starts share one evaluation of their stacked
    +-h bumps per round, and one batched backtracking search.  A start keeps
    its incoming point, and stops, whenever its step fails to improve the
    objective.
    """
    u = u.copy()
    val, grad = problem.value_grad(u)
    n = u.shape[1]
    h = 1e-6
    bumps = np.concatenate([h * np.eye(n), -h * np.eye(n)])
    live = np.ones(u.shape[0], dtype=bool)
    for _ in range(rounds):
        live &= np.max(np.abs(grad), axis=1) > 1e-13
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        _, g = problem.value_grad((u[idx, None, :] + bumps).reshape(-1, n))
        g = g.reshape(idx.size, 2, n, n)
        hess = np.swapaxes(g[:, 0] - g[:, 1], 1, 2) / (2.0 * h)
        hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))
        direction = np.array(
            [np.linalg.lstsq(hm, grad[i], rcond=1e-10)[0] for hm, i in zip(hess, idx)]
        )
        finite = np.all(np.isfinite(direction), axis=1)
        live[idx[~finite]] = False
        searching, direction = idx[finite], direction[finite]
        alpha = np.ones(searching.size)
        while searching.size:
            trial = u[searching] - alpha[:, None] * direction
            tval, tgrad = problem.value_grad(trial)
            ok = np.isfinite(tval) & (
                tval <= val[searching] + 1e-14 * np.maximum(1.0, np.abs(val[searching]))
            )
            hit = searching[ok]
            u[hit], val[hit], grad[hit] = trial[ok], tval[ok], tgrad[ok]
            alpha = alpha[~ok] * 0.5
            searching, direction = searching[~ok], direction[~ok]
            failed = alpha < 1e-4
            live[searching[failed]] = False
            searching, direction, alpha = searching[~failed], direction[~failed], alpha[~failed]
    return u


def numeric_projection(
    gen: Generator,
    spec: ConstraintSpec,
    q,
    side: str = "left",
    *,
    seed: int = 0,
    return_all: bool = False,
):
    """Minimize the Bregman objective over the constraint set numerically.

    ``side='left'`` minimizes D(r, q) over r in the set, ``side='right'``
    minimizes D(q, r).  Runs ``N_STARTS`` seeded starts (the first from the
    uniform point) as one batched descent and returns the best solution as a
    DistVec -- or, with ``return_all``, the pair (best, per-start list) for
    uniqueness checks.
    """
    problem = _Problem(gen, spec, q, side)
    if problem.dim > 64:
        raise ValidationError(
            f"numeric projection limited to 64 parameters, got {problem.dim}"
        )
    if problem.kind == "product" and len(problem.sizes) > 51:
        # einsum has 52 axis labels, and the batch of starts takes one
        raise ValidationError(
            f"numeric projection limited to 51 product axes, got {len(problem.sizes)}"
        )
    rng = np.random.default_rng(seed)
    u0 = np.zeros((N_STARTS, problem.dim))
    for start in range(1, N_STARTS):
        u0[start] = rng.standard_normal(problem.dim)
    u = _polish(problem, _descend(problem, u0))
    values, _ = problem.value_grad(u)
    solutions = [problem.finish(row) for row in u]
    best = solutions[int(np.argmin(values))]
    if return_all:
        return best, solutions
    return best


# ---------------------------------------------------------- enumeration


def enumerate_fg_marginals(fg) -> dict:
    """Exact per-variable marginals of a factor graph by direct contraction."""
    sizes = tuple(v.cardinality for v in fg.variables)
    n = math.prod(sizes)
    budgets.check_assignments(n, what="factor-graph enumeration")
    var_pos = {v.id: i for i, v in enumerate(fg.variables)}
    joint = np.ones(sizes)
    for fac in fg.factors:
        axes = tuple(var_pos[v] for v in fac.vars)
        expand = [1] * len(sizes)
        for a, v in zip(axes, fac.vars):
            expand[a] = fg.cardinality(v)
        perm_shape = fac.table
        # move factor axes into joint axis order before broadcasting
        order = np.argsort(axes)
        arranged = np.transpose(perm_shape, order)
        joint = joint * arranged.reshape(expand)
    total = joint.sum()
    if total <= 0.0:
        raise ValidationError("factor product has zero total mass")
    return _axis_marginals(joint, [v.id for v in fg.variables])


def _axis_marginals(joint: Array, names) -> dict:
    """Normalized marginal of each axis of ``joint``, keyed by its name."""
    out = {}
    for i, name in enumerate(names):
        marg = joint.sum(axis=tuple(j for j in range(joint.ndim) if j != i))
        out[name] = marg / marg.sum()
    return out


def _reference_upward(circuit, lam: dict) -> dict:
    """Circuit node values by a plain node-by-node walk in topological order.

    The engine's compiled passes are checked against this walk, so it shares
    none of their code: no schedule, no arrays, one node at a time.
    """
    values: dict[str, float] = {}
    for nid in circuit.topo():
        n = circuit.node(nid)
        if n.kind == "leaf":
            values[nid] = float(lam[n.var][n.state])
        elif n.kind == "product":
            out = 1.0
            for c in n.children:
                out *= values[c]
            values[nid] = out
        else:
            values[nid] = float(sum(w * values[c] for c, w in zip(n.children, n.weights)))
    return values


def _reference_upward_log(circuit, lam: dict) -> dict:
    """Log-domain twin of ``_reference_upward`` (-inf encodes exact zeros)."""
    logs: dict[str, float] = {}
    for nid in circuit.topo():
        n = circuit.node(nid)
        if n.kind == "leaf":
            v = float(lam[n.var][n.state])
            logs[nid] = math.log(v) if v > 0.0 else -math.inf
        elif n.kind == "product":
            logs[nid] = float(sum(logs[c] for c in n.children))
        else:
            terms = [math.log(w) + logs[c] for c, w in zip(n.children, n.weights)]
            top = max(terms)
            if top == -math.inf:
                logs[nid] = -math.inf
            else:
                logs[nid] = top + math.log(sum(math.exp(t - top) for t in terms))
    return logs


def _reference_downward(circuit, values: dict) -> tuple[dict, dict]:
    """Node and edge adjoints by a reverse walk; a product edge multiplies
    the sibling values one by one."""
    D = {nid: 0.0 for nid in circuit.topo()}
    D[circuit.root] = 1.0
    edges: dict[tuple[str, int], float] = {}
    for nid in reversed(circuit.topo()):
        n = circuit.node(nid)
        for pos, c in enumerate(n.children):
            if n.kind == "sum":
                contrib = D[nid] * n.weights[pos]
            else:
                others = 1.0
                for j, sib in enumerate(n.children):
                    if j != pos:
                        others *= values[sib]
                contrib = D[nid] * others
            edges[(nid, pos)] = contrib
            D[c] += contrib
    return D, edges


def enumerate_spn_marginals(circuit, evidence) -> dict:
    """Exact circuit marginals by network-polynomial coefficient extraction.

    For each complete assignment x the coefficient c(x) is the circuit value
    under one-hot indicators at x; the weighted sums c(x) * prod_i
    lambda_i(x_i) then give the unnormalized joint, from which marginals
    follow by direct summation.
    """
    from .spn import require_valid

    require_valid(circuit)
    variables = circuit.variable_order()
    sizes = [circuit.cardinality(v) for v in variables]
    n = math.prod(sizes) if sizes else 1
    budgets.check_assignments(n, what="circuit enumeration")
    joint = np.zeros(sizes) if sizes else np.zeros(())
    for flat in range(n):
        assign = np.unravel_index(flat, sizes) if sizes else ()
        onehot = {}
        for v, t in zip(variables, assign):
            lam = np.zeros(circuit.cardinality(v))
            lam[t] = 1.0
            onehot[v] = lam
        weight = _reference_upward(circuit, onehot)[circuit.root]
        for v, t in zip(variables, assign):
            weight *= evidence.lam[v][t]
        joint[assign] = weight
    total = joint.sum()
    if total <= 0.0:
        raise ValidationError("evidence has zero probability under the circuit")
    return _axis_marginals(joint, variables)


# ----------------------------------------------------- finite differences


def finite_diff_grad(f, point: Array) -> Array:
    """Central finite-difference gradient with per-coordinate steps.

    Coordinate i uses step h_i = FD_REL_STEP * max(1, |x_i|).
    """
    x = np.asarray(point, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        h = FD_REL_STEP * max(1.0, abs(x[i]))
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (f(hi) - f(lo)) / (2.0 * h)
    return grad


# ------------------------------------------- reference reverse-mode sweep


def _ref_partial(op: str, vals: list[float], out: float, which: int, extra) -> float:
    # Independent derivative table; intentionally duplicates the engine's
    # formulas so that the two sides cannot share a bug through reuse.
    if op == "add":
        return 1.0
    if op == "sub":
        return 1.0 if which == 0 else -1.0
    if op == "mul":
        return vals[1 - which]
    if op == "div":
        if which == 0:
            return 1.0 / vals[1]
        return -out / vals[1]
    if op == "exp":
        return out
    if op == "log":
        return 1.0 / vals[0]
    if op == "sigmoid":
        return out * (1.0 - out)
    if op == "tanh":
        return 1.0 - out * out
    if op == "softplus":
        return 1.0 / (1.0 + math.exp(-vals[0]))
    if op == "pow":  # x**0 is constant; x**-1 would fail at x = 0
        return 0.0 if extra == 0.0 else extra * vals[0] ** (extra - 1.0)
    raise ValidationError(f"reference sweep: unsupported op {op!r}")


def reference_gradient(graph, inputs: dict, seed_value: float) -> dict:
    """Tape-based reverse sweep over a computation graph.

    Seeds the output node with ``seed_value`` and pushes sensitivities
    backwards along every edge in reverse topological order.  Kept separate
    from the engine's accumulation so it can serve as its check.
    """
    from .compgraph import forward_eval

    trace = forward_eval(graph, inputs)
    order = graph.topo_order()
    adj = {nid: 0.0 for nid in order}
    adj[graph.output] = seed_value
    for nid in reversed(order):
        node = graph.node(nid)
        if node.op in ("input", "constant"):
            continue
        vals = [trace.values[i] for i in node.inputs]
        for which, src in enumerate(node.inputs):
            adj[src] += adj[nid] * _ref_partial(
                node.op, vals, trace.values[nid], which, node.value
            )
    return adj
