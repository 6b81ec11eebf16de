"""Posterior-expected parameter sensitivities for factored discrete models.

A model has independent discrete inputs x_1..x_m on real-valued grids, a
factored prior, an additive score z(x, theta) = sum_i z_i(x_i, theta) with
each z_i given as a small computation graph, and a positive likelihood
l(z).  The gradient of the log marginal likelihood in theta equals the
posterior expectation of s(z) d_theta z, where s = (log l)'.

Two routes compute that gradient: full enumeration over the grid product
(the general path, budget-checked), and -- when the likelihood is
exponential-in-z, so the posterior factorizes -- a per-variable pass that
only touches marginal posteriors.  A Dirac-prior check collapses the
expectation to a single point and compares against the reverse-sweep
adjoint composition.

One log-space enumeration (log prior + log phi(z) over the full grid)
serves the log marginal likelihood, the gradient and the Dirac check.  It
and the per-variable route normalize by a log-sum-exp about the largest
entry, so a sharp likelihood neither underflows nor overflows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .budgets import check_assignments
from .compgraph import (
    CompGraph,
    ExpScale,
    NegLossTemp,
    OutputFactor,
    backward_adjoints,
    forward_eval,
    graph_from_json,
    graph_to_json,
    phi_log,
    seed_score,
)
from .errors import SchemaError, ValidationError
from .simplex import DistVec

Array = np.ndarray

_VAR_INPUT = "x"


@dataclass(frozen=True, eq=False)
class DiscretePriorModel:
    """Factored prior over finite real grids plus per-variable score graphs.

    Each score graph takes the grid value through input ``"x"`` and may
    read any subset of the shared parameter inputs named in ``theta``.
    """

    names: tuple
    grids: tuple
    priors: tuple
    graphs: tuple
    theta: tuple
    likelihood: OutputFactor

    def __post_init__(self):
        names = tuple(self.names)
        if len(names) != len(set(names)) or not names:
            raise ValidationError("variable names must be nonempty and distinct")
        grids = tuple(np.asarray(g, dtype=float) for g in self.grids)
        for name, g in zip(names, grids):
            if g.ndim != 1 or g.size == 0 or not np.all(np.isfinite(g)):
                raise ValidationError(f"grid for {name!r} must be finite and 1-d")
        priors = tuple(self.priors)
        if not (len(grids) == len(priors) == len(self.graphs) == len(names)):
            raise ValidationError("names, grids, priors, graphs must align")
        for name, g, p in zip(names, grids, priors):
            if not isinstance(p, DistVec):
                raise ValidationError(f"prior for {name!r} must be a DistVec")
            if len(p.probs) != g.size:
                raise ValidationError(f"prior for {name!r} does not match its grid")
        theta = tuple(self.theta)
        if len(theta) != len(set(theta)):
            raise ValidationError("parameter names must be distinct")
        if _VAR_INPUT in theta:
            raise ValidationError(f"parameter cannot be named {_VAR_INPUT!r}")
        allowed = set(theta) | {_VAR_INPUT}
        for name, graph in zip(names, self.graphs):
            if not isinstance(graph, CompGraph):
                raise ValidationError(f"score for {name!r} must be a graph")
            unknown = set(graph.input_ids()) - allowed
            if unknown:
                raise ValidationError(
                    f"score graph for {name!r} reads undeclared inputs {sorted(unknown)}"
                )
        if not isinstance(self.likelihood, (ExpScale, NegLossTemp)):
            raise ValidationError(f"unknown likelihood {self.likelihood!r}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "graphs", tuple(self.graphs))
        object.__setattr__(self, "theta", theta)

    @property
    def m(self) -> int:
        return len(self.names)

    def grid_size(self) -> int:
        return math.prod(g.size for g in self.grids)


def _theta_dict(model: DiscretePriorModel, theta: Array) -> dict:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(model.theta),):
        raise ValidationError(
            f"theta must have length {len(model.theta)}, got shape {theta.shape}"
        )
    if not np.all(np.isfinite(theta)):
        raise ValidationError("theta must be finite")
    return dict(zip(model.theta, theta))


def score_tables(model: DiscretePriorModel, theta: Array) -> list:
    """z_i(g, theta) for every grid point g, one array per variable."""
    return _score_sweep(model, theta, jacobians=False)[0]


def _score_sweep(model: DiscretePriorModel, theta: Array, jacobians: bool = True) -> tuple:
    """Score tables and their Jacobians d z_i / d theta (one (grid, n_theta)
    array per variable) from one forward sweep per grid point.

    The Jacobians come from the reverse sweep seeded with a unit
    log-derivative, so the adjoint at each parameter input is the raw
    partial; without ``jacobians`` they stay zero.
    """
    tdict = _theta_dict(model, theta)
    unit = ExpScale(1.0)
    z_tables, jacs = [], []
    for graph, grid in zip(model.graphs, model.grids):
        z = np.empty(grid.size)
        jac = np.zeros((grid.size, len(model.theta)))
        for j, g in enumerate(grid):
            trace = forward_eval(graph, {**tdict, _VAR_INPUT: g})
            z[j] = trace.values[graph.output]
            if jacobians:
                adj = backward_adjoints(graph, trace, unit)
                jac[j] = [adj.get(name, 0.0) for name in model.theta]
        z_tables.append(z)
        jacs.append(jac)
    return z_tables, jacs


def _log_joint(model: DiscretePriorModel, z_tables: list, prior_arrays) -> tuple:
    """log prior + log phi(z) over the full grid (-inf off a point prior or
    where the likelihood overflows), and the total score z."""
    check_assignments(model.grid_size(), what="posterior enumeration")
    with np.errstate(divide="ignore", over="ignore"):
        z_tot = functools.reduce(np.add.outer, z_tables)
        log_prior = functools.reduce(np.add.outer, map(np.log, prior_arrays))
        return log_prior + phi_log(model.likelihood, z_tot), z_tot


def _log_normalize(log_w: Array) -> tuple:
    """log sum exp(log_w), taken about the largest entry, and the weights
    exp(log_w) scaled to unit sum."""
    top = log_w.max()
    if not np.isfinite(top):
        raise ValidationError("posterior has no mass")
    w = np.exp(log_w - top)
    total = w.sum()
    return float(top + np.log(total)), w / total


def log_marginal_likelihood(
    model: DiscretePriorModel, theta: Array, *, method: str = "auto"
) -> float:
    """log of the sum of prior times likelihood over the whole grid.

    ``method``: "enum" forces enumeration; "auto" sums the per-variable
    log-sum-exps when the likelihood is exponential and enumerates otherwise.
    """
    if method not in ("auto", "enum"):
        raise ValidationError(f"unknown method {method!r}")
    z_tables = score_tables(model, theta)
    if method == "auto" and isinstance(model.likelihood, ExpScale):
        alpha = model.likelihood.alpha
        return sum(
            _log_normalize(np.log(p.probs) + alpha * z)[0]
            for p, z in zip(model.priors, z_tables)
        )
    log_w, _ = _log_joint(model, z_tables, [p.probs for p in model.priors])
    return _log_normalize(log_w)[0]


def marginal_likelihood(
    model: DiscretePriorModel, theta: Array, *, method: str = "auto"
) -> float:
    """exp of ``log_marginal_likelihood``: inf past the float range, 0.0 below it."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_marginal_likelihood(model, theta, method=method)))


def posterior_grad_enum(model: DiscretePriorModel, theta: Array) -> Array:
    """E[s(z) d_theta z | observation] by explicit posterior enumeration."""
    return _grad_enum(model, theta, [p.probs for p in model.priors])


def _grad_enum(model: DiscretePriorModel, theta: Array, prior_arrays) -> Array:
    z_tables, jacs = _score_sweep(model, theta)
    log_w, z_tot = _log_joint(model, z_tables, prior_arrays)
    tilted = _log_normalize(log_w)[1] * seed_score(model.likelihood, z_tot)
    axes = tuple(range(model.m))
    grad = np.zeros(len(model.theta))
    for i, jac in enumerate(jacs):
        # d_theta z = sum_i jac_i[x_i], so each term needs only x_i's marginal
        grad += jac.T @ tilted.sum(axis=axes[:i] + axes[i + 1 :])
    return grad


def posterior_grad_bp(model: DiscretePriorModel, theta: Array) -> Array:
    """alpha sum_i E_{q_i}[d_theta z_i]: the marginal-only gradient route.

    Valid exactly when the likelihood is exponential in the additive score,
    so the posterior factorizes and per-variable marginals suffice.
    """
    if not isinstance(model.likelihood, ExpScale):
        raise ValidationError(
            "marginal-route gradient needs an exponential likelihood"
        )
    alpha = model.likelihood.alpha
    z_tables, jacs = _score_sweep(model, theta)
    grad = np.zeros(len(model.theta))
    for p, z, jac in zip(model.priors, z_tables, jacs):
        q = _log_normalize(np.log(p.probs) + alpha * z)[1]  # q_i ~ p_i exp(alpha z_i)
        grad += alpha * (q @ jac)
    return grad


def dirac_limit_check(
    model: DiscretePriorModel, theta: Array, x_star: tuple
) -> tuple:
    """Point-prior gradient two ways: enumeration vs adjoint composition.

    ``x_star`` gives one grid index per variable.  The left value runs the
    enumeration path with the prior collapsed onto that point; the right
    value seeds each score graph's reverse sweep with the exponential
    factor whose log-derivative equals s(z(x*)) and sums the parameter
    adjoints.
    """
    x_star = tuple(int(i) for i in x_star)
    if len(x_star) != model.m:
        raise ValidationError(f"x_star must index all {model.m} variables")
    for i, (idx, grid) in enumerate(zip(x_star, model.grids)):
        if not 0 <= idx < grid.size:
            raise ValidationError(
                f"x_star[{i}] = {idx} outside grid of size {grid.size}"
            )
    point_priors = [np.eye(grid.size)[idx] for idx, grid in zip(x_star, model.grids)]
    left = _grad_enum(model, theta, point_priors)

    tdict = _theta_dict(model, theta)
    traces = []
    z_total = 0.0
    for graph, grid, idx in zip(model.graphs, model.grids, x_star):
        trace = forward_eval(graph, {**tdict, _VAR_INPUT: grid[idx]})
        traces.append(trace)
        z_total += trace.values[graph.output]
    witness = ExpScale(seed_score(model.likelihood, z_total))
    right = np.zeros(len(model.theta))
    for graph, trace in zip(model.graphs, traces):
        adj = backward_adjoints(graph, trace, witness)
        for k, name in enumerate(model.theta):
            right[k] += adj.get(name, 0.0)
    return left, right


# ----------------------------------------------------------------- JSON


def model_to_json(model: DiscretePriorModel) -> dict:
    if isinstance(model.likelihood, ExpScale):
        lik = {"kind": "exp_scale", "alpha": model.likelihood.alpha}
    else:
        lik = {
            "kind": "neg_loss",
            "loss": model.likelihood.kind,
            "param": model.likelihood.param,
            "temperature": model.likelihood.temperature,
        }
    return {
        "schema": "v1",
        "variables": [
            {
                "name": name,
                "grid": [float(g) for g in grid],
                "prior": [float(p) for p in prior.probs],
            }
            for name, grid, prior in zip(model.names, model.grids, model.priors)
        ],
        "theta": list(model.theta),
        "graphs": {
            name: graph_to_json(graph)
            for name, graph in zip(model.names, model.graphs)
        },
        "likelihood": lik,
    }


def model_from_json(obj) -> DiscretePriorModel:
    if not isinstance(obj, dict):
        raise SchemaError("model JSON must be an object")
    try:
        variables = obj["variables"]
        names = tuple(v["name"] for v in variables)
        grids = tuple(np.asarray(v["grid"], dtype=float) for v in variables)
        priors = tuple(DistVec(np.asarray(v["prior"], dtype=float)) for v in variables)
        graphs = tuple(graph_from_json(obj["graphs"][name]) for name in names)
        theta = tuple(obj["theta"])
        lik = obj["likelihood"]
        if lik["kind"] == "exp_scale":
            likelihood: OutputFactor = ExpScale(lik["alpha"])
        elif lik["kind"] == "neg_loss":
            likelihood = NegLossTemp(lik["loss"], lik["param"], lik["temperature"])
        else:
            raise SchemaError(f"unknown likelihood kind {lik['kind']!r}")
    except SchemaError:
        raise
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad model JSON: {exc}") from exc
    try:
        return DiscretePriorModel(names, grids, priors, graphs, theta, likelihood)
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc
