"""Brute-force reference computations.

Everything here is deliberately independent of the closed forms it is used
to check: projections are found by seeded multi-start gradient descent in an
interior parametrization, marginals by exhaustive enumeration, gradients by
central finite differences and by a plain tape-based reverse sweep.  Slow is
fine; these run at desk scale only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import budgets
from .errors import ValidationError
from .simplex import (
    DistVec,
    Generator,
    JointShape,
    NegativeEntropy,
    softmax,
)

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


def _dJ_dr_entropy(r: Array, q: Array, side: str) -> Array:
    if side == "left":
        return np.log(r) - np.log(q) + 1.0
    return -q / r


def _dJ_dr_quad(mat: Array, r: Array, q: Array) -> Array:
    return mat @ (r - q)


class _Problem:
    """Objective/gradient in an interior softmax parametrization."""

    def __init__(self, gen: Generator, spec: ConstraintSpec, q, side: str):
        if side not in ("left", "right"):
            raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
        self.gen = gen
        self.spec = spec
        self.side = side
        if isinstance(spec, EqualCopies):
            if not isinstance(q, (list, tuple)) or len(q) != spec.count:
                raise ValidationError(
                    f"EqualCopies({spec.count}) needs a list of {spec.count} tables"
                )
            self.targets = [np.asarray(t.probs, dtype=float) for t in q]
            self.dim = self.targets[0].size
            self.blocks = [np.arange(self.dim)]
            self.outcomes = q[0].outcomes
        elif isinstance(spec, DiagonalFace):
            spec.shape.check_length(q, what="numeric_projection")
            if isinstance(gen, NegativeEntropy) and side == "right":
                raise ValidationError(
                    "right KL projection onto a face of an interior point diverges"
                )
            self.q_full = np.asarray(q.probs, dtype=float)
            self.diag_idx = _diag_indices(spec.shape)
            self.dim = spec.shape.sizes[0]
            k = len(spec.shape.sizes)
            self.outcomes = tuple((t,) * k for t in range(self.dim))
        elif isinstance(spec, ProductFamily):
            spec.shape.check_length(q, what="numeric_projection")
            self.q_full = np.asarray(q.probs, dtype=float)
            self.sizes = spec.shape.sizes
            self.dim = sum(self.sizes)
            self.outcomes = q.outcomes
        else:
            raise ValidationError(f"unknown constraint spec {spec!r}")

    # -- parameter vector u -> candidate point and objective gradient

    def split(self, u: Array) -> list[Array]:
        if isinstance(self.spec, ProductFamily):
            parts = []
            at = 0
            for s in self.sizes:
                parts.append(softmax(u[at: at + s]))
                at += s
            return parts
        return [softmax(u)]

    def value_grad(self, u: Array) -> tuple[float, Array]:
        gen, side = self.gen, self.side
        if isinstance(self.spec, EqualCopies):
            p = softmax(u)
            if isinstance(gen, NegativeEntropy):
                if side == "left":
                    val = sum(
                        float(np.sum(p * (np.log(p) - np.log(t))))
                        for t in self.targets
                    )
                    gamma = sum(
                        _dJ_dr_entropy(p, t, "left") for t in self.targets
                    )
                else:
                    val = sum(
                        float(np.sum(t * (np.log(t) - np.log(p))))
                        for t in self.targets
                    )
                    gamma = sum(
                        _dJ_dr_entropy(p, t, "right") for t in self.targets
                    )
            else:
                mat = gen.matrix
                val = sum(
                    float(0.5 * (p - t) @ mat @ (p - t)) for t in self.targets
                )
                gamma = sum(_dJ_dr_quad(mat, p, t) for t in self.targets)
            gu = p * (gamma - float(p @ gamma))
            return val, gu

        if isinstance(self.spec, DiagonalFace):
            p = softmax(u)
            full = np.zeros_like(self.q_full)
            full[self.diag_idx] = p
            if isinstance(gen, NegativeEntropy):
                qd = self.q_full[self.diag_idx]
                val = float(np.sum(p * (np.log(p) - np.log(qd))))
                gamma = _dJ_dr_entropy(p, qd, "left")
            else:
                mat = gen.matrix
                val = float(0.5 * (full - self.q_full) @ mat @ (full - self.q_full))
                gamma = (mat @ (full - self.q_full))[self.diag_idx]
            gu = p * (gamma - float(p @ gamma))
            return val, gu

        # product family
        parts = self.split(u)
        full = parts[0]
        for p in parts[1:]:
            full = np.multiply.outer(full, p)
        r = full.reshape(-1)
        if isinstance(gen, NegativeEntropy):
            if side == "left":
                val = float(np.sum(r * (np.log(r) - np.log(self.q_full))))
            else:
                val = float(
                    np.sum(self.q_full * (np.log(self.q_full) - np.log(r)))
                )
            djdr = _dJ_dr_entropy(r, self.q_full, side)
        else:
            mat = gen.matrix
            val = float(0.5 * (r - self.q_full) @ mat @ (r - self.q_full))
            djdr = _dJ_dr_quad(mat, r, self.q_full)
        grid = djdr.reshape(self.sizes)
        n_axes = len(self.sizes)
        letters = [chr(ord("a") + i) for i in range(n_axes)]
        gu = np.empty(self.dim)
        at = 0
        for axis in range(n_axes):
            operands = [grid]
            subs = ["".join(letters)]
            for b in range(n_axes):
                if b != axis:
                    operands.append(parts[b])
                    subs.append(letters[b])
            h = np.einsum(",".join(subs) + "->" + letters[axis], *operands)
            p = parts[axis]
            gu[at: at + self.sizes[axis]] = p * (h - float(p @ h))
            at += self.sizes[axis]
        return val, gu

    def finish(self, u: Array) -> DistVec:
        parts = self.split(u)
        if isinstance(self.spec, ProductFamily):
            full = parts[0]
            for p in parts[1:]:
                full = np.multiply.outer(full, p)
            return DistVec.from_weights(full.reshape(-1), self.outcomes)
        return DistVec.from_weights(parts[0], self.outcomes)


def _descend(problem: _Problem, u0: Array) -> Array:
    u = u0.copy()
    val, grad = problem.value_grad(u)
    step = 1.0
    flat_count = 0
    for _ in range(MAX_DESCENT_STEPS):
        if float(np.max(np.abs(grad))) <= 1e-12:
            return u
        while True:
            trial = u - step * grad
            tval, tgrad = problem.value_grad(trial)
            if tval <= val - 1e-4 * step * float(grad @ grad):
                break
            step *= 0.5
            if step < 1e-18:
                return u  # no descent direction left at float precision
        if abs(val - tval) <= DESCENT_TOL * max(1.0, abs(val)):
            flat_count += 1
        else:
            flat_count = 0
        u, val, grad = trial, tval, tgrad
        step = min(step * 1.3, 1e3)
        if flat_count >= 5:
            return u
    raise ValidationError(
        f"numeric projection did not converge within {MAX_DESCENT_STEPS} steps"
    )


def _polish(problem: _Problem, u: Array, rounds: int = 8) -> Array:
    """Finite-difference Newton steps to squeeze out first-order stall.

    Gradient descent plateaus once objective changes hit float granularity,
    leaving parameter errors around sqrt(eps); a few damped Newton steps
    (Hessian by central differences of the analytic gradient, pseudo-inverse
    to absorb the softmax gauge direction) push the iterate to machine-level
    stationarity.  Falls back to the incoming point whenever a step fails
    to improve the objective.
    """
    val, grad = problem.value_grad(u)
    n = u.size
    h = 1e-6
    for _ in range(rounds):
        if float(np.max(np.abs(grad))) <= 1e-13:
            break
        hess = np.empty((n, n))
        for j in range(n):
            bump = np.zeros(n)
            bump[j] = h
            _, gp = problem.value_grad(u + bump)
            _, gm = problem.value_grad(u - bump)
            hess[:, j] = (gp - gm) / (2.0 * h)
        hess = 0.5 * (hess + hess.T)
        direction, *_ = np.linalg.lstsq(hess, grad, rcond=1e-10)
        if not np.all(np.isfinite(direction)):
            break
        alpha = 1.0
        improved = False
        while alpha >= 1e-4:
            tval, tgrad = problem.value_grad(u - alpha * direction)
            if np.isfinite(tval) and tval <= val + 1e-14 * max(1.0, abs(val)):
                u, val, grad = u - alpha * direction, tval, tgrad
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
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
    uniform point) and returns the best solution as a DistVec -- or, with
    ``return_all``, the pair (best, per-start list) for uniqueness checks.
    """
    problem = _Problem(gen, spec, q, side)
    if problem.dim > 64:
        raise ValidationError(
            f"numeric projection limited to 64 parameters, got {problem.dim}"
        )
    rng = np.random.default_rng(seed)
    solutions = []
    values = []
    for start in range(N_STARTS):
        u0 = np.zeros(problem.dim) if start == 0 else rng.standard_normal(problem.dim)
        u = _polish(problem, _descend(problem, u0))
        val, _ = problem.value_grad(u)
        solutions.append(problem.finish(u))
        values.append(val)
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
    out = {}
    for v in fg.variables:
        axis_set = tuple(i for i in range(len(sizes)) if i != var_pos[v.id])
        marg = joint.sum(axis=axis_set) if axis_set else joint
        out[v.id] = marg / marg.sum()
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
    out = {}
    for i, v in enumerate(variables):
        axis_set = tuple(j for j in range(len(sizes)) if j != i)
        marg = joint.sum(axis=axis_set) if axis_set else joint
        out[v] = marg / marg.sum()
    return out


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
