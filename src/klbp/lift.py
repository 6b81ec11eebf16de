"""Replica lifts of factor graphs and alternating divergence projections.

A lift creates one replica of each variable per adjacent factor, so the
reference table -- the normalized product of the factor tables, each placed
on its own replica axes -- factorizes across factors by construction.  Two
constraint sets live on the lifted simplex: the consensus face (all
replicas of a variable agree), and the family of product distributions.

The two-step operator projects onto consensus (left/I-projection, which
zeroes off-diagonal mass) and then onto products (right/M-projection, the
product of marginals).  After the consensus step every iterate is supported
on the diagonal, which we identify with the much smaller per-variable joint
grid; dual vectors migrate to the identified grid by diagonal restriction,
matching the relative-gradient convention for faces.  The first entropy
step forms only its right projection k on the lifted grid: diagonal
restriction commutes with the elementwise updates, so log q, the duals and
k are restricted at once and everything after k runs on the identified
grid.  Both grids are plain arrays inside the loop: the steps call the
``simplex`` kernels (``m_project_blocks``, ``block_marginals`` and, through
``diagonal_restrict``, ``replica_diagonal``) directly, and ``DistVec``
checks only the lift's public inputs and outputs.

The alternating scheme with dual corrections (a Dykstra-style hybrid of a
right projection and a left projection, with correction vectors sigma and
tau in log coordinates) is parametrized by the Bregman generator: under
negative entropy the updates are closed-form softmax/marginal operations;
under a Mahalanobis metric the right projection onto products has no closed
form and is solved by warm-started exact Newton steps in per-axis logits,
which raise rather than return a fit that misses its gradient test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import budgets
from .errors import ValidationError
from .factorgraph import _EINSUM_AXES, FactorGraph, require_positive_tables
from .simplex import (
    DistVec,
    Generator,
    Mahalanobis,
    NegativeEntropy,
    block_marginals,
    m_project_blocks,
    replica_diagonal,
    softmax,
)

Array = np.ndarray

# the quadratic scheme's product fit stops at max|grad| <= FIT_GRAD_TOL and
# raises after FIT_MAX_STEPS Newton steps, accepted or rejected
FIT_GRAD_TOL = 1e-14
FIT_MAX_STEPS = 100


@dataclass(frozen=True, eq=False)
class ReplicatedSpace:
    """Geometry of a lifted factor graph.

    ``axes`` lists the replica axes as (factor id, variable id) pairs in
    factor order; ``factor_blocks`` partitions them by factor;
    ``var_groups`` ties together all replicas of one variable.  These are
    the graph's compiled edge layout: axis e is edge e of ``fg.edges()``.
    The identified grid has one axis per variable that some factor
    touches, ordered as ``ident_vars``.
    """

    fg: FactorGraph
    axes: tuple[tuple[str, str], ...]
    sizes: tuple[int, ...]
    factor_blocks: tuple[tuple[int, ...], ...]
    var_groups: tuple[tuple[int, ...], ...]
    ident_vars: tuple[str, ...]
    ident_sizes: tuple[int, ...]
    q_init: DistVec

    @property
    def ident_size(self) -> int:
        return math.prod(self.ident_sizes)

    @property
    def ident_axes(self) -> tuple[tuple[int, ...], ...]:
        """The identified grid's axes as singleton blocks."""
        return tuple((a,) for a in range(len(self.ident_sizes)))


def replicate_lift(fg: FactorGraph) -> ReplicatedSpace:
    """Build the replica lift and its reference table.

    Requires strictly positive factors (interior reference point) and a
    lifted joint within the desk-scale entry budget.
    """
    require_positive_tables(fg)
    lay = fg._layout
    if not lay.edges:
        raise ValidationError("cannot lift a factor graph with no factors")
    sizes = tuple(lay.edge_cards.tolist())
    if len(sizes) > _EINSUM_AXES:
        raise ValidationError(
            f"replica lift has {len(sizes)} axes; the lift's projections "
            f"number at most {_EINSUM_AXES} einsum axes"
        )
    n_entries = math.prod(sizes)
    budgets.check_joint_entries(n_entries, what="replica lift")
    ident = [i for i, v in enumerate(fg.variables) if fg.neighbors(v.id)]
    ident_vars = tuple(fg.variables[i].id for i in ident)
    ident_sizes = tuple(fg.variables[i].cardinality for i in ident)

    table = functools.reduce(
        np.multiply.outer, (fac.table / fac.table.sum() for fac in fg.factors)
    )
    return ReplicatedSpace(
        fg,
        tuple(lay.edges),
        sizes,
        tuple(map(tuple, lay.around[lay.n_vars :])),
        tuple(tuple(lay.around[i]) for i in ident),
        ident_vars,
        ident_sizes,
        DistVec(table.reshape(-1)),
    )


# ------------------------------------------------------------ restriction


def diagonal_restrict(space: ReplicatedSpace, values: Array) -> Array:
    """Gather a lifted array at the consensus diagonal (any values, raw)."""
    arr = np.asarray(values, dtype=float).reshape(space.sizes)
    return replica_diagonal(arr, space.var_groups).reshape(-1)


def consensus_project(space: ReplicatedSpace, q: DistVec) -> DistVec:
    """Left KL projection onto the consensus face, on the identified grid.

    Keeps the diagonal entries (all replicas of each variable equal) and
    renormalizes; the result is indexed by the per-variable joint grid.
    """
    if len(q) != math.prod(space.sizes):
        raise ValidationError(
            f"consensus_project: table length {len(q)} does not match lift"
        )
    diag = diagonal_restrict(space, q.probs)
    if diag.sum() <= 0.0:
        raise ValidationError("consensus diagonal carries zero mass")
    return DistVec(diag / diag.sum())


def t_proj(space: ReplicatedSpace, q: DistVec) -> DistVec:
    """Two-step operator: consensus first, then product of marginals.

    Accepts either a lifted table (full consensus restriction applies) or a
    table already on the identified grid (consensus is then the identity).
    """
    if len(q) == math.prod(space.sizes):
        q = consensus_project(space, q)
    elif len(q) != space.ident_size:
        raise ValidationError(
            f"t_proj: table length {len(q)} matches neither the lift nor "
            f"the identified grid"
        )
    return DistVec(m_project_blocks(q.probs, space.ident_sizes, space.ident_axes), q.outcomes)


def extract_joint(space: ReplicatedSpace, beliefs: dict) -> DistVec:
    """Product-form joint on the identified grid from per-variable beliefs."""
    parts = (np.asarray(beliefs[vid], dtype=float) for vid in space.ident_vars)
    full = functools.reduce(np.multiply.outer, (b / b.sum() for b in parts))
    return DistVec(full.reshape(-1))


# -------------------------------------------------------- hybrid scheme


@dataclass(frozen=True, eq=False)
class WrState:
    """One outer iterate of the alternating scheme.

    ``phase`` is "replicated" before the first consensus step and
    "identified" afterwards; q/sigma/tau live on the matching grid.  k and
    r are the intermediate right/left projections of the last step; warm
    caches logits for the Mahalanobis inner solver.  An identified q must
    be strictly positive: the scheme's iterates never leave the interior.
    """

    phase: str
    n: int
    q: Array
    sigma: Array
    tau: Array
    k: Array | None = None
    r: Array | None = None
    warm: tuple[Array, Array] | None = None

    def __post_init__(self):
        for name in ("q", "sigma", "tau"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite entries in iterate field {name}")
        if self.phase == "identified" and not np.all(self.q > 0.0):
            raise ValidationError("identified iterate q has an entry <= 0")


def wr_init(space: ReplicatedSpace, gen: Generator) -> WrState:
    """Fresh state with zero dual corrections.

    The entropy scheme starts on the lifted grid; the symmetric quadratic
    variant starts from the consensus restriction of the reference table,
    since its metric is defined on the identified grid.
    """
    if isinstance(gen, NegativeEntropy):
        q = space.q_init.probs.copy()
        zeros = np.zeros(q.size)
        return WrState("replicated", 0, q, zeros, zeros.copy())
    if isinstance(gen, Mahalanobis):
        if gen.matrix.shape[0] != space.ident_size:
            raise ValidationError(
                f"metric is {gen.matrix.shape[0]}-dimensional but the "
                f"identified grid has {space.ident_size} cells"
            )
        q = consensus_project(space, space.q_init).probs.copy()
        zeros = np.zeros(q.size)
        return WrState("identified", 0, q, zeros, zeros.copy())
    raise ValidationError(f"unknown generator {gen!r}")


def _fit_product(
    mat: Array, target: Array, sizes: tuple[int, ...], warm: Array | None
) -> tuple[Array, Array, float]:
    """Best product-form table under the quadratic metric, by Newton steps.

    Minimizes f(u) = 1/2 (r(u) - v)^T A (r(u) - v) over per-axis logits u
    with r(u) the outer product of softmaxes p_a = softmax(u_a).  With
    w = A (r - v) and E[x, (a, j)] = 1[x_a = j] - p_a[j], the gradient is
    J^T w for J = r * E (rows scaled by r), and the exact Hessian is

        J^T A J + E^T diag(w * r) E - (w . r) blockdiag_a(diag p_a - p_a p_a^T).

    The residual r - v does not vanish at the optimum, so the second-order
    terms are kept (Gauss-Newton alone converges only linearly).  Each step
    solves (H + lam I) d = grad by least squares, which absorbs the
    per-axis all-ones gauge direction; lam starts at 0 (a pure Newton step)
    and grows tenfold while steps fail to lower f (Marquardt damping).  At
    float granularity, where f no longer moves, a step counts as lowering f
    if it shrinks the gradient.  Stops at max|grad| <= FIT_GRAD_TOL and
    raises ValidationError after FIT_MAX_STEPS steps.  Returns (solution,
    logits, final max|grad|).
    """
    n_axes = len(sizes)
    if warm is not None:
        u = warm.copy()
    else:
        clipped = np.maximum(target, 1e-12).reshape(sizes)
        singletons = [(a,) for a in range(n_axes)]
        u = np.concatenate([np.log(m / m.sum()) for m in block_marginals(clipped, singletons)])
    # ind[x, (a, j)] = 1[x_a = j], with cells x in row-major order
    cells = np.indices(sizes).reshape(n_axes, -1)
    ind = np.hstack([np.eye(s)[c] for s, c in zip(sizes, cells)])
    cuts = np.cumsum(sizes)[:-1]

    def evaluate(u_vec: Array):
        parts = [softmax(b) for b in np.split(u_vec, cuts)]
        r = functools.reduce(np.multiply.outer, parts).reshape(-1)
        diff = r - target
        w = mat @ diff
        e = ind - np.concatenate(parts)
        jac = r[:, None] * e
        return float(0.5 * diff @ w), jac.T @ w, (r, parts, w, e, jac)

    def hessian(r: Array, parts: list[Array], w: Array, e: Array, jac: Array) -> Array:
        hess = jac.T @ mat @ jac + (e * (w * r)[:, None]).T @ e
        wr, at = float(w @ r), 0
        for p in parts:
            block = slice(at, at + p.size)
            hess[block, block] -= wr * (np.diag(p) - np.outer(p, p))
            at += p.size
        return hess

    val, grad, point = evaluate(u)
    gnorm = float(np.max(np.abs(grad)))
    hess = hessian(*point)
    lam = 0.0
    for _ in range(FIT_MAX_STEPS):
        if gnorm <= FIT_GRAD_TOL:
            return point[0], u, gnorm
        system = hess + lam * np.eye(u.size)
        trial = u - np.linalg.lstsq(system, grad, rcond=None)[0]
        tval, tgrad, tpoint = evaluate(trial)
        tnorm = float(np.max(np.abs(tgrad)))
        if tval < val or (tval <= val + 1e-15 * abs(val) and tnorm < gnorm):
            u, val, grad, point, gnorm = trial, tval, tgrad, tpoint, tnorm
            hess = hessian(*point)
            lam *= 0.1
        else:
            lam = max(10.0 * lam, 1e-6 * float(np.max(np.abs(np.diag(hess)))))
    if gnorm <= FIT_GRAD_TOL:
        return point[0], u, gnorm
    raise ValidationError(
        f"quadratic product fit reached its cap of {FIT_MAX_STEPS} Newton steps "
        f"at max|grad| = {gnorm:.3e}, above {FIT_GRAD_TOL:g}"
    )


def wr_step(space: ReplicatedSpace, gen: Generator, state: WrState) -> WrState:
    """One outer iteration: right projection, consensus, right projection,
    with both dual corrections updated.

    Order follows the printed scheme: the corrected point is right-projected
    onto products (k), sigma absorbs the discrepancy, the tau-corrected k is
    left-projected onto consensus (r), r is right-projected onto products
    (the new q), and tau absorbs the remaining discrepancy.  The first
    entropy step flips the state onto the identified grid; dual vectors
    follow by diagonal restriction.
    """
    if isinstance(gen, NegativeEntropy):
        return _wr_step_entropy(space, state)
    if isinstance(gen, Mahalanobis):
        return _wr_step_quadratic(space, gen, state)
    raise ValidationError(f"unknown generator {gen!r}")


def _wr_step_entropy(space: ReplicatedSpace, state: WrState) -> WrState:
    """Only k lives on the lifted grid; the tail after it runs on the
    diagonal, where the consensus softmax normalizes about its own maximum
    (a lifted-grid normalization would cancel in r = diag / sum(diag))."""
    corrected = softmax(np.log(state.q) + state.sigma)
    if state.phase == "replicated":
        k = m_project_blocks(corrected, space.sizes, space.factor_blocks)
        q, sigma, tau, k_diag = (
            diagonal_restrict(space, a) for a in (state.q, state.sigma, state.tau, k)
        )
    else:
        k = k_diag = m_project_blocks(corrected, space.ident_sizes, space.ident_axes)
        q, sigma, tau = state.q, state.sigma, state.tau
    log_k = np.log(k_diag)
    pre_consensus = log_k + tau
    # the diagonal total about a finite maximum is at least 1
    if not np.isfinite(pre_consensus.max()):
        raise ValidationError("consensus diagonal carries zero mass")
    sigma_new = np.log(q) + sigma - log_k
    r = softmax(pre_consensus)
    q_new = m_project_blocks(r, space.ident_sizes, space.ident_axes)
    tau_new = log_k + tau - np.log(q_new)
    return WrState("identified", state.n + 1, q_new, sigma_new, tau_new, k, r)


def _wr_step_quadratic(
    space: ReplicatedSpace, gen: Mahalanobis, state: WrState
) -> WrState:
    mat = gen.matrix
    warm_k = state.warm[0] if state.warm is not None else None
    warm_q = state.warm[1] if state.warm is not None else None

    theta_q = mat @ state.q
    v = np.linalg.solve(mat, theta_q + state.sigma)
    k, logits_k, _ = _fit_product(mat, v, space.ident_sizes, warm_k)
    sigma_new = theta_q + state.sigma - mat @ k

    w = np.linalg.solve(mat, mat @ k + state.tau)
    # consensus on the identified grid is the simplex itself; the metric
    # projection onto its affine hull is a rank-one correction
    inv_one = np.linalg.solve(mat, np.ones_like(w))
    r = w + inv_one * (1.0 - w.sum()) / float(inv_one.sum())
    if np.any(r <= 0.0):
        raise ValidationError(
            "quadratic-scheme iterate left the interior; the symmetric "
            "variant assumes iterates stay strictly positive"
        )
    q_new, logits_q, _ = _fit_product(mat, r, space.ident_sizes, warm_q)
    tau_new = mat @ k + state.tau - mat @ q_new
    return WrState(
        "identified",
        state.n + 1,
        q_new,
        sigma_new,
        tau_new,
        k,
        r,
        (logits_k, logits_q),
    )


def wr_beliefs(space: ReplicatedSpace, state: WrState) -> dict:
    """Per-variable marginals of the current product iterate."""
    if state.phase != "identified":
        raise ValidationError("beliefs are defined after the first outer iteration")
    margs = block_marginals(state.q.reshape(space.ident_sizes), space.ident_axes)
    return {vid: m / m.sum() for vid, m in zip(space.ident_vars, margs)}


@dataclass(frozen=True, eq=False)
class WrRun:
    state: WrState
    steps: tuple[float, ...]  # log-coordinate step norms between iterates
    converged: bool


def wr_run(
    space: ReplicatedSpace,
    gen: Generator,
    *,
    tol: float = 1e-8,
    max_iters: int = 5000,
) -> WrRun:
    """Iterate the scheme until the log-coordinate step norm falls below tol.

    The step norm compares successive q iterates in log coordinates (the
    natural coordinates for both generators' convergence statements).  The
    first step is excluded from the criterion when it changes grids.
    ``max_iters`` must be at least 1 and ``tol`` finite and nonnegative.
    """
    if max_iters < 1:
        raise ValidationError(f"max_iters must be at least 1, got {max_iters}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"tol must be finite and nonnegative, got {tol}")
    state = wr_init(space, gen)
    steps: list[float] = []
    prev_log: Array | None = (
        None if state.phase == "replicated" else np.log(state.q)
    )
    for _ in range(max_iters):
        state = wr_step(space, gen, state)
        cur_log = np.log(state.q)
        if prev_log is not None and prev_log.size == cur_log.size:
            delta = float(np.linalg.norm(cur_log - prev_log))
            steps.append(delta)
            if delta <= tol:
                return WrRun(state, tuple(steps), True)
        prev_log = cur_log
    return WrRun(state, tuple(steps), False)
