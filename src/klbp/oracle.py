"""Brute-force reference computations.

Everything here is deliberately independent of the closed forms it is used
to check: projections are found by seeded multi-start gradient descent in an
interior parametrization, where every constraint set is a product of
softmaxes with one gradient formula (the starts run in lockstep as one
``(starts, dim)`` array, one trial step per live row per round, then
finite-difference Newton steps polish them all with one batched solve);
marginals by exhaustive enumeration that adds log weights and normalizes
about the largest, so no product under- or overflows; gradients by central
finite differences and by a plain tape-based reverse sweep.  These run at
desk scale only.
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
    """Flat indices of the cells where every replica agrees.  As for the
    closed form ``simplex.i_project_diagonal``, the face needs one replica
    group over every axis, and at least two axes."""
    k = len(shape.sizes)
    if len(shape.groups) != 1 or set(shape.groups[0]) != set(range(k)):
        raise ValidationError("DiagonalFace expects every axis in one replica group")
    if k < 2:
        raise ValidationError("DiagonalFace needs at least two replicas")
    strides = [math.prod(shape.sizes[i + 1:]) for i in range(k)]
    return np.arange(shape.sizes[0]) * int(sum(strides))


def _rowdot(a: Array, b: Array) -> Array:
    return np.einsum("...i,...i->...", a, b)


class _Problem:
    """Objective/gradient in an interior softmax parametrization.

    Every constraint set is a product r = p_1 x ... x p_K of factors
    p_a = softmax(u_a): one per axis for ``ProductFamily``, and a single one
    over the d cells for ``DiagonalFace`` and ``EqualCopies``.  The
    divergence compares r with each row of a ``(T, N)`` target stack, T
    tables for copies and one otherwise.  KL is separable, so a face's
    targets are cut to its diagonal cells once; only a Mahalanobis metric
    scatters r onto those cells of the full grid.

    The problem is compiled once into a 0/1 matrix M (cells x factor
    states), so log r = log p @ M^T, and with w = (dJ/dr) * r the gradient
    is w @ M - p * sum(w).  Every evaluation takes a ``(rows, dim)`` stack
    of parameter vectors, one row per start (or finite-difference bump),
    and returns ``(rows,)`` objective values and ``(rows, dim)`` gradients.
    """

    def __init__(self, gen: Generator, spec: ConstraintSpec, q, side: str):
        if side not in ("left", "right"):
            raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
        self.side = side
        self.mat = None if isinstance(gen, NegativeEntropy) else gen.matrix
        self.cells = slice(None)  # the cells of the target grid that r covers
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
            self.targets = np.array(rows)
            self.sizes = (lengths[0],)
            self.outcomes = q[0].outcomes
        elif isinstance(spec, ProductFamily):
            spec.shape.check_length(q, what="numeric_projection")
            self.targets = np.asarray(q.probs, dtype=float)[None]
            self.sizes = spec.shape.sizes
            self.outcomes = q.outcomes
        elif isinstance(spec, DiagonalFace):
            spec.shape.check_length(q, what="numeric_projection")
            if self.mat is None and side == "right":
                raise ValidationError(
                    "right KL projection onto a face of an interior point diverges"
                )
            self.cells = _diag_indices(spec.shape)
            self.targets = np.asarray(q.probs, dtype=float)[None]
            if self.mat is None:  # KL is separable: only the face's cells count
                self.targets = self.targets[:, self.cells]
            self.sizes = (self.cells.size,)
            self.outcomes = tuple((t,) * len(spec.shape.sizes) for t in range(self.cells.size))
        else:
            raise ValidationError(f"unknown constraint spec {spec!r}")
        self.dim = sum(self.sizes)
        self.starts = np.cumsum((0, *self.sizes[:-1]))  # each factor's first parameter
        self.block_of = np.repeat(np.arange(len(self.sizes)), self.sizes)
        states = np.indices(self.sizes).reshape(len(self.sizes), -1).T
        self.onehot = np.zeros((len(states), self.dim))
        self.onehot[np.arange(len(states))[:, None], self.starts + states] = 1.0
        if self.mat is None:
            t = self.targets
            self.count = float(len(t))
            self.sum_log = np.log(t).sum(axis=0)
            self.sum_t = t.sum(axis=0)
            self.neg_entropy = float(np.sum(t * np.log(t)))
            self.pull = self.sum_t @ self.onehot  # right KL's constant -w @ M

    def log_joint(self, u: Array) -> tuple[Array, Array]:
        """The factors p (every block's softmax) and log r, one row per row
        of ``u``; one max and one sum pass cover all blocks."""
        shifted = u - np.maximum.reduceat(u, self.starts, axis=1)[:, self.block_of]
        e = np.exp(shifted)
        total = np.add.reduceat(e, self.starts, axis=1)[:, self.block_of]
        return e / total, (shifted - np.log(total)) @ self.onehot.T

    def value_grad(self, u: Array) -> tuple[Array, Array]:
        p, log_r = self.log_joint(u)
        if self.mat is not None:
            r = np.exp(log_r)
            t = self.targets
            full = np.zeros((len(r), t.shape[1]))
            full[:, self.cells] = r
            diff = full[:, None] - t
            adiff = diff @ self.mat.T
            val = 0.5 * np.sum(diff * adiff, axis=(1, 2))
            w = adiff.sum(axis=1)[:, self.cells] * r
        elif self.side == "left":
            r = np.exp(log_r)
            a = self.count * log_r - self.sum_log
            val = _rowdot(r, a)
            w = (a + self.count) * r
        else:  # w = -sum_t t is constant
            val = self.neg_entropy - log_r @ self.sum_t
            return val, self.sum_t.sum() * p - self.pull
        return val, w @ self.onehot - p * w.sum(axis=1, keepdims=True)


def _descend(problem: _Problem, u0: Array) -> tuple[Array, Array, Array]:
    """Armijo gradient descent, one row per start, all starts in lockstep.

    Every round evaluates one trial step for every row, with no inner
    backtracking loop; only live rows act on it.  A live row that passes the
    Armijo test moves and lengthens its step, and one that fails halves its
    step and tries again next round, so each row's trials are exactly those
    it would make alone.  A row stops after five flat accepted steps, at a
    vanishing gradient, or when its step underflows; returns the points,
    values and gradients.
    """
    u = u0.copy()
    val, grad = problem.value_grad(u)
    step = np.ones(len(u))
    flat = np.zeros(len(u), dtype=int)
    accepted = np.zeros(len(u), dtype=int)
    live = np.ones(len(u), dtype=bool)
    while True:
        live &= np.abs(grad).max(axis=1) > 1e-12
        if not live.any():
            return u, val, grad
        trial = u - step[:, None] * grad
        tval, tgrad = problem.value_grad(trial)
        ok = live & (tval <= val - step * (1e-4 * _rowdot(grad, grad)))
        small = np.abs(val - tval) <= DESCENT_TOL * np.maximum(1.0, np.abs(val))
        flat = np.where(ok, (flat + 1) * small, flat)
        accepted += ok
        u = np.where(ok[:, None], trial, u)
        val = np.where(ok, tval, val)
        grad = np.where(ok[:, None], tgrad, grad)
        step = np.where(ok, np.minimum(step * 1.3, 1e3), step * 0.5)
        # a row stops after five flat steps, or with no descent direction
        # left at float precision
        live &= (step >= 1e-18) & (flat < 5)
        if (live & (accepted >= MAX_DESCENT_STEPS)).any():
            raise ValidationError(
                f"numeric projection did not converge within {MAX_DESCENT_STEPS} steps"
            )


def _polish(
    problem: _Problem, u: Array, val: Array, grad: Array, rounds: int = 8
) -> tuple[Array, Array]:
    """Finite-difference Newton steps to squeeze out first-order stall.

    Gradient descent plateaus once objective changes hit float granularity,
    leaving parameter errors around sqrt(eps); a few damped Newton steps
    (Hessian by central differences of the analytic gradient, pseudo-inverse
    to absorb the softmax gauge direction) push each start to machine-level
    stationarity.  All live starts share one evaluation of their stacked
    +-h bumps and one batched pseudo-inverse per round, and one halving
    search.  A start keeps its incoming point, and stops, whenever its step
    fails to improve the objective.  Returns the points and their values.
    """
    u, val, grad = u.copy(), val.copy(), grad.copy()
    n = u.shape[1]
    h = 1e-6
    bumps = np.concatenate([h * np.eye(n), -h * np.eye(n)])
    live = np.ones(len(u), dtype=bool)
    for _ in range(rounds):
        live &= np.abs(grad).max(axis=1) > 1e-13
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        _, g = problem.value_grad((u[idx, None, :] + bumps).reshape(-1, n))
        g = g.reshape(idx.size, 2, n, n)
        hess = np.swapaxes(g[:, 0] - g[:, 1], 1, 2) / (2.0 * h)
        hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))
        direction = (np.linalg.pinv(hess, rcond=1e-10) @ grad[idx, :, None])[..., 0]
        finite = np.isfinite(direction).all(axis=1)
        live[idx[~finite]] = False
        rows, direction = idx[finite], direction[finite]
        alpha = 1.0
        while rows.size and alpha >= 1e-4:
            trial = u[rows] - alpha * direction
            tval, tgrad = problem.value_grad(trial)
            ok = np.isfinite(tval) & (
                tval <= val[rows] + 1e-14 * np.maximum(1.0, np.abs(val[rows]))
            )
            hit = rows[ok]
            u[hit], val[hit], grad[hit] = trial[ok], tval[ok], tgrad[ok]
            rows, direction = rows[~ok], direction[~ok]
            alpha *= 0.5
        live[rows] = False
    return u, val


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
    if len(problem.sizes) > 51:
        # the engine's einsum axis budget (52 labels) less one batch axis:
        # no product is checked that a batched pass could not hold
        raise ValidationError(
            f"numeric projection limited to 51 product axes, got {len(problem.sizes)}"
        )
    rng = np.random.default_rng(seed)
    u0 = np.zeros((N_STARTS, problem.dim))
    u0[1:] = rng.standard_normal((N_STARTS - 1, problem.dim))
    u, values = _polish(problem, *_descend(problem, u0))
    weights = np.exp(problem.log_joint(u)[1])
    solutions = [DistVec.from_weights(row, problem.outcomes) for row in weights]
    best = solutions[int(np.argmin(values))]
    if return_all:
        return best, solutions
    return best


# ---------------------------------------------------------- enumeration


def enumerate_fg_marginals(fg) -> dict:
    """Exact per-variable marginals of a factor graph by direct contraction,
    adding the factors' log tables."""
    sizes = tuple(v.cardinality for v in fg.variables)
    n = math.prod(sizes)
    budgets.check_assignments(n, what="factor-graph enumeration")
    var_pos = {v.id: i for i, v in enumerate(fg.variables)}
    log_joint = np.zeros(sizes)
    for fac in fg.factors:
        axes = tuple(var_pos[v] for v in fac.vars)
        expand = [1] * len(sizes)
        for a, v in zip(axes, fac.vars):
            expand[a] = fg.cardinality(v)
        # move factor axes into joint axis order before broadcasting
        arranged = np.transpose(fac.table, np.argsort(axes))
        with np.errstate(divide="ignore"):
            log_joint = log_joint + np.log(arranged).reshape(expand)
    return _axis_marginals(
        log_joint, [v.id for v in fg.variables], "factor product has zero total mass"
    )


def _axis_marginals(log_joint: Array, names, empty: str) -> dict:
    """Normalized marginal of each axis of the joint exp(``log_joint``),
    keyed by its name.  The joint is scaled about its largest entry, so no
    weight under- or overflows; an all-zero joint raises ``empty``."""
    top = log_joint.max()
    if top == -math.inf:
        raise ValidationError(empty)
    joint = np.exp(log_joint - top)
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
    """Log-domain twin of ``_reference_upward`` (-inf encodes exact zeros).

    Each indicator ``lam[v][s]`` may be a number or an array, so one walk
    covers many indicator settings at once.  A sum takes a log-sum-exp about
    its largest weighted child, and an all -inf sum stays -inf.
    """
    logs: dict = {}
    with np.errstate(divide="ignore"):
        for nid in circuit.topo():
            n = circuit.node(nid)
            if n.kind == "leaf":
                logs[nid] = np.log(lam[n.var][n.state])
            elif n.kind == "product":
                logs[nid] = sum(logs[c] for c in n.children)
            else:
                terms = (np.array([logs[c] for c in n.children]).T + np.log(n.weights)).T
                top = terms.max(axis=0)
                top = np.where(top == -math.inf, 0.0, top)
                logs[nid] = top + np.log(np.exp(terms - top).sum(axis=0))
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
    under one-hot indicators at x, taken in logs so that no weight product
    underflows; the log weights log c(x) + sum_i log lambda_i(x_i) then give
    the unnormalized log joint, from which marginals follow by direct
    summation.
    """
    from .spn import require_valid

    require_valid(circuit)
    variables = circuit.variable_order()
    sizes = [circuit.cardinality(v) for v in variables]
    n = math.prod(sizes)
    budgets.check_assignments(n, what="circuit enumeration")
    # one log walk per chunk of assignments, about 2**20 node values live
    chunk = max(1, 2**20 // len(circuit.topo()))
    log_coef = np.empty(n)
    for lo in range(0, n, chunk):
        flat = np.arange(lo, min(n, lo + chunk))
        states = np.unravel_index(flat, sizes)
        onehot = {
            v: np.equal.outer(np.arange(size), x) * 1.0
            for v, size, x in zip(variables, sizes, states)
        }
        log_coef[flat] = _reference_upward_log(circuit, onehot)[circuit.root]
    log_joint = log_coef.reshape(sizes)
    with np.errstate(divide="ignore"):
        for axis, v in enumerate(variables):
            expand = [1] * len(sizes)
            expand[axis] = sizes[axis]
            log_joint = log_joint + np.log(evidence.lam[v]).reshape(expand)
    return _axis_marginals(log_joint, variables, "evidence has zero probability under the circuit")


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
