"""Brute-force reference computations.

Everything here is deliberately independent of the closed forms it is used
to check: projections are found by seeded multi-start gradient descent in an
interior parametrization, where every constraint set is a product of
softmaxes with one gradient formula (the starts run together as one
``(starts, dim)`` array, then finite-difference Newton steps polish each);
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


def _softmax_rows(u: Array) -> Array:
    e = np.exp(u - u.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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

    With w = (dJ/dr) * r, the gradient on factor a is the axis-a marginal of
    w minus p_a * sum(w).  Every evaluation takes a ``(rows, dim)`` stack of
    parameter vectors, one row per start (or finite-difference bump), and
    returns ``(rows,)`` objective values and ``(rows, dim)`` gradients.
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
        n = math.prod(self.sizes)
        self.dim = sum(self.sizes)
        stops = np.cumsum(self.sizes)
        self.blocks = [slice(stop - s, stop) for s, stop in zip(self.sizes, stops)]
        # axis a of the joint grid, viewed as (cells before, size, cells after)
        before = np.cumprod((1, *self.sizes[:-1]))
        self.frames = [(b, s, n // (b * s)) for b, s in zip(before, self.sizes)]

    def split(self, u: Array) -> list[Array]:
        return [_softmax_rows(u[:, block]) for block in self.blocks]

    @staticmethod
    def _joint(parts: list[Array]) -> Array:
        """Row-major outer product of the factors, one row per start."""
        r = parts[0]
        for p in parts[1:]:
            r = (r[:, :, None] * p[:, None, :]).reshape(len(r), -1)
        return r

    def value_grad(self, u: Array) -> tuple[Array, Array]:
        parts = self.split(u)
        r = self._joint(parts)
        t = self.targets
        if self.mat is not None:
            full = np.zeros((len(r), t.shape[1]))
            full[:, self.cells] = r
            diff = full[:, None] - t
            adiff = diff @ self.mat.T
            val = 0.5 * np.sum(diff * adiff, axis=(1, 2))
            djdr = adiff.sum(axis=1)[:, self.cells]
        elif self.side == "left":
            log_ratio = np.log(r)[:, None] - np.log(t)
            val = np.sum(r[:, None] * log_ratio, axis=(1, 2))
            djdr = np.sum(log_ratio + 1.0, axis=1)
        else:
            val = np.sum(t * (np.log(t) - np.log(r)[:, None]), axis=(1, 2))
            djdr = -np.sum(t / r[:, None], axis=1)
        w = djdr * r
        total = w.sum(axis=1, keepdims=True)
        grads = [
            w.reshape(-1, *frame).sum(axis=(1, 3)) - p * total
            for frame, p in zip(self.frames, parts)
        ]
        return val, np.concatenate(grads, axis=1)

    def finish(self, u: Array) -> DistVec:
        return DistVec.from_weights(self._joint(self.split(u[None]))[0], self.outcomes)


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
    if len(problem.sizes) > 51:
        # the engine's einsum axis budget (52 labels) less the batch of
        # starts: no product is checked that the closed forms could not build
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
    under one-hot indicators at x; the log weights log c(x) + sum_i
    log lambda_i(x_i) then give the unnormalized log joint, from which
    marginals follow by direct summation.
    """
    from .spn import require_valid

    require_valid(circuit)
    variables = circuit.variable_order()
    sizes = [circuit.cardinality(v) for v in variables]
    n = math.prod(sizes) if sizes else 1
    budgets.check_assignments(n, what="circuit enumeration")
    coef = np.zeros(sizes) if sizes else np.zeros(())
    for flat in range(n):
        assign = np.unravel_index(flat, sizes) if sizes else ()
        onehot = {}
        for v, t in zip(variables, assign):
            lam = np.zeros(circuit.cardinality(v))
            lam[t] = 1.0
            onehot[v] = lam
        coef[assign] = _reference_upward(circuit, onehot)[circuit.root]
    with np.errstate(divide="ignore"):
        log_joint = np.log(coef)
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
