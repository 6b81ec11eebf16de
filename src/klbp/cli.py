"""Command-line front end: validate, run, cross-check, and generate.

Every subcommand loads JSON inputs, runs the matching library operation,
runs the independent oracle comparison where one exists, and prints a
deterministic JSON report (floats at 17 significant digits, keys sorted)
so identical inputs always produce identical bytes.  Non-finite floats are
written as the strings "inf", "-inf" and "nan", so every report is strict
JSON.  Wall time goes to stderr, keeping the report byte-stable.

Each engine-vs-oracle comparison is computed by one function, which both
its subcommand and ``oracle compare`` call, so the two report the same
error for the same instance.  The parser is one table of commands.  Each
subcommand imports only the engine modules it runs, so a call pays start-up
for those alone.

Exit codes: 0 all checks pass; 1 missing file; 2 malformed input (schema)
or command line, including a negative ``--seed`` and ``fg project`` without
``--shape`` for the diagonal and product families; 3 structural validation
failure or failed check, including a count too small for its check
(``--count`` and ``--trials`` below 1, ``--samples`` below 2).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from collections.abc import Mapping

import numpy as np

from .errors import BudgetError, SchemaError, ValidationError, worst_error

EXIT_OK = 0
EXIT_NO_FILE = 1
EXIT_SCHEMA = 2
EXIT_INVALID = 3


# -------------------------------------------------------- report plumbing


def stable_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits,
    non-finite floats as the strings "inf", "-inf" and "nan"."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        parts.append(format(x, ".17g") if math.isfinite(x) else f'"{x}"')
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, Mapping):
        parts.append("{")
        for i, key in enumerate(sorted(obj, key=str)):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        parts.append("[")
        for i, item in enumerate(list(obj)):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _load(args, path: str, parse=lambda obj: obj):
    """The JSON file at ``path`` through ``parse``; its sha256 goes to the
    report's inputs."""
    with open(path, "rb") as fh:
        raw = fh.read()
    args._inputs[path] = hashlib.sha256(raw).hexdigest()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    return parse(obj)


def _check(error: float, tol: float, ok: bool | None = None) -> dict:
    """A report check of ``error`` against ``tol``; ``ok``, when given, is the
    verdict in place of ``error <= tol``."""
    error = float(error)
    return {"max_abs_error": error, "tol": tol, "pass": bool(error <= tol if ok is None else ok)}


def _max_gap(got: dict, want: dict) -> float:
    """Largest absolute entry gap between matching arrays, over ``got``'s keys."""
    return worst_error(np.abs(got[k] - want[k]).max() for k in got)


def _parse_at(text: str, graph) -> dict:
    """Input point from ``name=value,...``; each name an input of ``graph``,
    given at most once."""
    inputs = set(graph.input_ids())
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise SchemaError(f"bad assignment {part!r}; expected name=value")
        name, value = part.split("=", 1)
        name = name.strip()
        if name not in inputs:
            raise SchemaError(f"{name!r} is not an input of the graph")
        if name in out:
            raise SchemaError(f"input {name!r} is given more than once")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise SchemaError(f"bad value in {part!r}") from exc
    return out


def _parse_factor(text: str):
    from . import compgraph

    fields = text.split(":")
    try:
        if fields[0] == "exp" and len(fields) == 2:
            return compgraph.ExpScale(float(fields[1]))
        if fields[0] == "sqerr" and len(fields) == 3:
            return compgraph.NegLossTemp(
                "squared_error", float(fields[1]), float(fields[2])
            )
        if fields[0] == "logistic" and len(fields) == 3:
            return compgraph.NegLossTemp("logistic", float(fields[1]), float(fields[2]))
    except (ValueError, ValidationError) as exc:
        raise SchemaError(f"bad factor spec {text!r}: {exc}") from exc
    raise SchemaError(
        f"bad factor spec {text!r}; expected exp:A, sqerr:T:TEMP, or logistic:Y:TEMP"
    )


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",") if x.strip() != ""])
    except ValueError as exc:
        raise SchemaError(f"bad number list {text!r}") from exc


def _parse_ints(text: str) -> list[int]:
    values = [float(x) for x in _parse_floats(text)]
    bad = [x for x in values if not x.is_integer()]
    if bad:
        raise SchemaError(f"bad whole number {bad[0]!r} in {text!r}")
    return [int(x) for x in values]


def _require_count(count: int, least: int, what: str) -> None:
    if count < least:
        raise ValidationError(f"{what} must be at least {least}, got {count}")


def _load_circuit_evidence(args) -> tuple:
    from . import spn

    circuit = _load(args, args.circuit, spn.circuit_from_json)
    if args.evidence:
        evidence = _load(args, args.evidence, spn.evidence_from_json)
    else:
        evidence = spn.all_ones_evidence(circuit)
    return circuit, evidence


# ---------------------------------------------- engine-vs-oracle comparisons


def _spn_marginals(circuit, evidence) -> tuple:
    """Both passes, the marginals, and their largest gap to enumeration."""
    from . import oracle, spn

    S = spn.upward_pass(circuit, evidence)
    D = spn.downward_pass(circuit, S)
    arrays = spn.marginal_arrays(circuit, evidence, S, D)
    return S, D, arrays, _max_gap(arrays, oracle.enumerate_spn_marginals(circuit, evidence))


def _two_pass_beliefs(fg) -> tuple[dict, float]:
    """Two-pass BP beliefs on a forest and their largest gap to enumeration."""
    from . import factorgraph, oracle

    beliefs = factorgraph.bp_beliefs(fg, factorgraph.bp_run_tree(fg))
    return beliefs, _max_gap(beliefs, oracle.enumerate_fg_marginals(fg))


def _adjoints(graph, at: dict, factor) -> tuple[dict, float]:
    """Output, seed and adjoints at ``at``, and the adjoints' largest gap to
    the oracle's independent accumulator."""
    from . import compgraph, oracle

    trace = compgraph.forward_eval(graph, at)
    adj = compgraph.backward_adjoints(graph, trace, factor)
    seed = compgraph.seed_score(factor, trace.values[graph.output])
    ref = oracle.reference_gradient(graph, at, seed)
    outputs = {"output": trace.values[graph.output], "seed": seed, "adjoints": adj}
    return outputs, worst_error(abs(adj[nid] - ref[nid]) for nid in ref)


def _enum_gradient(model, theta) -> tuple:
    """The enumerated log-evidence gradient and its largest relative gap to
    finite differences."""
    from . import oracle, posterior

    grad = posterior.posterior_grad_enum(model, theta)

    def log_ml(t):
        return posterior.log_marginal_likelihood(model, t, method="enum")

    fd = oracle.finite_diff_grad(log_ml, theta)
    return grad, worst_error(abs(g - f) / max(1.0, abs(f)) for g, f in zip(grad, fd))


def _dirac_limit(model, theta, x_star: tuple) -> tuple[dict, float]:
    """Both sides of the Dirac-limit identity at ``x_star`` and their largest gap."""
    from . import posterior

    left, right = posterior.dirac_limit_check(model, theta, x_star)
    gap = float(np.abs(left - right).max()) if len(left) else 0.0
    return {"point_gradient": left, "adjoint_composition": right}, gap


# ------------------------------------------------------------ spn commands


def cmd_spn_validate(args):
    from . import spn

    report = spn.validate_spn(_load(args, args.circuit, spn.circuit_from_json))
    return report, {"structure": _check(0.0, 0.0, report["valid"])}


def cmd_spn_eval(args):
    from . import spn

    circuit, evidence = _load_circuit_evidence(args)
    S = spn.upward_pass(circuit, evidence)
    logs = spn.upward_pass_log(circuit, evidence, check=False)
    root = S.root_value(circuit)
    rel = abs(np.exp(logs[circuit.root]) - root) / max(1.0, abs(root))
    outputs = {"value": root, "log_value": logs[circuit.root], "node_values": S.values}
    return outputs, {"log_linear_agreement": _check(rel, 1e-9)}


def cmd_spn_marginals(args):
    circuit, evidence = _load_circuit_evidence(args)
    S, _, arrays, gap = _spn_marginals(circuit, evidence)
    outputs = {"value": S.root_value(circuit), "marginals": arrays}
    return outputs, {"oracle_marginals": _check(gap, 1e-10)}


def cmd_spn_gates(args):
    from . import spn

    circuit, evidence = _load_circuit_evidence(args)
    S = spn.upward_pass(circuit, evidence)
    D = spn.downward_pass(circuit, S)
    gates = spn.gate_report(circuit, S, D)
    local = [g for g in gates.values() if g["b"] is not None]  # sums with S(s) > 0
    norm_gap = worst_error(abs(float(g["b"].sum()) - 1.0) for g in local)
    glob_gap = worst_error(np.abs(g["global"] - g["pi"] * g["b"]).max() for g in local)
    checks = {
        "local_normalization": _check(norm_gap, 1e-12),
        "global_factorization": _check(glob_gap, 1e-12),
    }
    return {"gates": gates}, checks


def cmd_spn_kkt(args):
    from . import spn

    circuit, evidence = _load_circuit_evidence(args)
    if not evidence.is_soft():
        raise ValidationError("multiplier extraction needs soft (positive) evidence")
    S = spn.upward_pass(circuit, evidence)
    D = spn.downward_pass(circuit, S)
    kkt = spn.kkt_multipliers(circuit, S, D)  # verifies its identities
    pi, mu = kkt["pi"].array, kkt["mu"].array
    pi_ok = bool(np.all((0.0 < pi) & (pi <= 1.0 + 1e-12)))
    mu_ok = bool(np.all(mu > 0.0))
    # the worst distance outside (0, 1 + 1e-12] and (0, inf); NaN stays NaN
    pi_out = worst_error(np.maximum(0.0, np.maximum(-pi, pi - (1.0 + 1e-12))))
    mu_out = worst_error(np.maximum(0.0, -mu))
    outputs = {
        "pi": kkt["pi"],
        "mu": {f"{pid}[{pos}]": val for (pid, pos), val in kkt["mu"].items()},
    }
    checks = {
        "pi_in_unit_interval": _check(pi_out, 0.0, pi_ok),
        "mu_positive": _check(mu_out, 0.0, mu_ok),
    }
    return outputs, checks


def cmd_spn_region(args):
    from . import spn, spn_reduce

    circuit, evidence = _load_circuit_evidence(args)
    fam = spn_reduce.region_two_step(circuit, evidence)
    S = spn.upward_pass(circuit, evidence)
    D = spn.downward_pass(circuit, S)
    gap = _max_gap(fam.var_marginals, spn.marginal_arrays(circuit, evidence, S, D))
    outputs = {
        "marginals": fam.var_marginals,
        "regions": {
            ",".join(scope): {
                "members": fam.groups[scope],
                "degenerate": fam.diagnostics[scope]["degenerate"],
                "literal_gap": fam.diagnostics[scope]["literal_gap"],
            }
            for scope in fam.scopes
        },
    }
    return outputs, {"beliefs_agree": _check(gap, 1e-10)}


def cmd_spn_lipschitz(args):
    from . import spn_reduce

    # fewer than two samples make no pair, so the bound would pass unchecked
    _require_count(args.samples, 2, "sample count")
    circuit, evidence = _load_circuit_evidence(args)
    report = spn_reduce.lipschitz_probe(
        circuit, (args.lo, args.hi), args.samples, args.seed
    )
    checks = {
        "pair_bound": _check(report["worst_pair_ratio"], 1.05, report["all_pairs_ok"])
    }
    return report, checks


# ------------------------------------------------------------- fg commands


def cmd_fg_bp(args):
    from . import factorgraph

    fg = _load(args, args.graph, factorgraph.fg_from_json)
    if not fg.variables:
        raise ValidationError("cannot run BP on a factor graph with no variables")
    factorgraph.check_bp_options(damping=args.damping, tol=args.tol, max_sweeps=args.max_sweeps)
    if fg.is_forest():
        beliefs, gap = _two_pass_beliefs(fg)
        outputs = {"beliefs": beliefs, "schedule": "two-pass"}
        return outputs, {"oracle_marginals": _check(gap, 1e-10)}
    result = factorgraph.bp_run(
        fg, damping=args.damping, tol=args.tol, max_sweeps=args.max_sweeps
    )
    resweep = factorgraph.bp_sweep(fg, result.state, damping=0.0)
    residual = factorgraph.message_delta(result.state, resweep)
    outputs = {
        "beliefs": factorgraph.bp_beliefs(fg, result.state),
        "schedule": "damped-sync",
        "sweeps": result.sweeps,
        "delta": result.delta,
    }
    checks = {
        "converged": _check(result.delta, args.tol, result.converged),
        "fixed_point": _check(residual, max(10 * args.tol, 1e-9)),
    }
    return outputs, checks


def cmd_fg_project(args):
    from . import oracle, simplex

    if args.family != "copies" and not args.shape:
        raise SchemaError(f"--shape is required for the {args.family} family")
    obj = _load(args, args.input)
    if args.family == "copies":
        if not isinstance(obj, dict) or not isinstance(obj.get("dists"), list):
            raise SchemaError("consensus input needs a 'dists' list")
        q = [simplex.DistVec.from_json(d) for d in obj["dists"]]
        closed = simplex.consensus_geomean(q)
        spec, side = oracle.EqualCopies(len(q)), "left"
    else:
        q = simplex.DistVec.from_json(obj)
        sizes = tuple(_parse_ints(args.shape))
        if args.family == "diagonal":
            shape = simplex.JointShape(sizes, (tuple(range(len(sizes))),))
            closed = simplex.i_project_diagonal(q, shape)
            spec, side = oracle.DiagonalFace(shape), "left"
        else:
            shape = simplex.JointShape(sizes)
            closed = simplex.m_project_product(q, shape)
            spec, side = oracle.ProductFamily(shape), "right"
    numeric = oracle.numeric_projection(
        simplex.NegativeEntropy(), spec, q, side, seed=args.seed
    )
    gap = float(np.abs(closed.probs - numeric.probs).max())
    outputs = {"projection": closed.probs}
    return outputs, {"oracle_projection": _check(gap, 1e-6)}


def cmd_fg_wr(args):
    from . import factorgraph, lift, simplex

    fg = _load(args, args.graph, factorgraph.fg_from_json)
    space = lift.replicate_lift(fg)
    if args.generator == "entropy":
        gen = simplex.NegativeEntropy()
    else:
        gen = simplex.Mahalanobis(np.eye(space.ident_size))
    run = lift.wr_run(space, gen, tol=args.tol, max_iters=args.max_iters)
    beliefs = lift.wr_beliefs(space, run.state)
    last_step = run.steps[-1] if run.steps else 0.0
    outputs = {
        "beliefs": beliefs,
        "iterations": run.state.n,
        "converged": run.converged,
        "last_step": last_step,
    }
    checks = {}
    if fg.is_forest() and args.generator == "entropy":
        # tree-exactness after one outer iteration holds for the entropy
        # generator; the quadratic one only promises a Cauchy iterate
        from . import oracle

        gap = _max_gap(beliefs, oracle.enumerate_fg_marginals(fg))
        checks["oracle_marginals"] = _check(gap, 1e-10)
    checks["converged"] = _check(last_step, args.tol, run.converged)
    return outputs, checks


# ------------------------------------------------------------ dag commands


def cmd_dag_eval(args):
    from . import compgraph

    graph = _load(args, args.graph, compgraph.graph_from_json)
    trace = compgraph.forward_eval(graph, _parse_at(args.at, graph))
    outputs = {"output": trace.values[graph.output], "values": trace.values}
    return outputs, {"finite": _check(0.0, 0.0, True)}


def cmd_dag_adjoints(args):
    from . import compgraph, oracle

    graph = _load(args, args.graph, compgraph.graph_from_json)
    at = _parse_at(args.at, graph)
    factor = _parse_factor(args.factor)
    outputs, ref_gap = _adjoints(graph, at, factor)
    adj = outputs["adjoints"]
    names = sorted(graph.input_ids())

    def log_phi(vec):
        point = dict(zip(names, vec))
        sub = compgraph.forward_eval(graph, point)
        return compgraph.phi_log(factor, sub.values[graph.output])

    fd = oracle.finite_diff_grad(log_phi, np.array([at[n] for n in names]))
    fd_gap = worst_error(abs(adj[n] - g) / max(1.0, abs(g)) for n, g in zip(names, fd))
    checks = {
        "independent_accumulator": _check(ref_gap, 1e-12),
        "finite_differences": _check(fd_gap, 1e-6),
    }
    return outputs, checks


def cmd_dag_gauge(args):
    from . import compgraph

    _require_count(args.trials, 1, "trial count")
    graph = _load(args, args.graph, compgraph.graph_from_json)
    at = _parse_at(args.at, graph)
    factor = _parse_factor(args.factor)
    trace = compgraph.forward_eval(graph, at)
    var = args.var
    if var not in trace.values:
        raise ValidationError(f"unknown node {var!r}")
    grid = compgraph.centered_grid(trace.values[var], 0.1)

    def slope(scales=None) -> float:
        belief = compgraph.downward_log_belief(graph, trace, factor, var, grid, scales)
        return compgraph.slope_from_grid(grid, belief)

    base = slope()
    rng = np.random.default_rng(args.seed)

    def scales() -> dict:
        return {f"edge{j}": float(np.exp(rng.uniform(-2.0, 2.0))) for j in range(4)}

    worst = worst_error(abs(slope(scales()) - base) for _ in range(args.trials))
    outputs = {"slope": base, "trials": args.trials}
    return outputs, {"gauge_invariance": _check(worst, 1e-12)}


# ------------------------------------------------------- posterior commands


def cmd_posterior_grad(args):
    from . import compgraph, posterior

    model = _load(args, args.model, posterior.model_from_json)
    theta = _parse_floats(args.theta)
    grad, fd_gap = _enum_gradient(model, theta)
    outputs = {"gradient": grad, "marginal_likelihood": posterior.marginal_likelihood(model, theta)}
    checks = {"finite_differences": _check(fd_gap, 1e-6)}
    if isinstance(model.likelihood, compgraph.ExpScale):
        bp = posterior.posterior_grad_bp(model, theta)
        checks["marginal_route"] = _check(float(np.abs(bp - grad).max()), 1e-10)
        outputs["gradient_marginal_route"] = bp
    return outputs, checks


def cmd_posterior_dirac(args):
    from . import posterior

    model = _load(args, args.model, posterior.model_from_json)
    theta = _parse_floats(args.theta)
    outputs, gap = _dirac_limit(model, theta, tuple(_parse_ints(args.at)))
    return outputs, {"dirac_limit": _check(gap, 1e-10)}


# ------------------------------------------------------------- oracle sweep


def _compare_spn(seed: int) -> dict:
    from . import generators, spn

    circuit, evidence = generators.gen_spn(seed)
    S, D, _, gap = _spn_marginals(circuit, evidence)
    euler = max(spn.euler_residuals(circuit, evidence, S, D).values())
    return {"marginals": gap, "euler": euler}


def _compare_fg(seed: int) -> dict:
    from . import generators

    return {"marginals": _two_pass_beliefs(generators.gen_fg(seed))[1]}


def _compare_dag(seed: int) -> dict:
    from . import compgraph, generators

    graph, at = generators.gen_dag(seed)
    factor = compgraph.ExpScale(2.0) if seed % 2 else compgraph.NegLossTemp(
        "squared_error", 0.25, 1.5
    )
    return {"adjoints": _adjoints(graph, at, factor)[1]}


def _compare_posterior(seed: int) -> dict:
    from . import generators

    model, theta = generators.gen_posterior(seed)
    return {
        "finite_differences": _enum_gradient(model, theta)[1],
        "dirac": _dirac_limit(model, theta, (0,) * model.m)[1],
    }


_COMPARERS = {
    "spn": (_compare_spn, {"marginals": 1e-10, "euler": 1e-10}),
    "fg": (_compare_fg, {"marginals": 1e-10}),
    "dag": (_compare_dag, {"adjoints": 1e-12}),
    "posterior": (_compare_posterior, {"finite_differences": 1e-6, "dirac": 1e-10}),
}


def cmd_oracle_compare(args):
    _require_count(args.count, 1, "instance count")
    kinds = list(_COMPARERS) if args.kind == "all" else [args.kind]
    outputs = {}
    checks = {}
    for kind in kinds:
        fn, tols = _COMPARERS[kind]
        errors = [fn(args.seed + i) for i in range(args.count)]
        worst = {name: worst_error(err[name] for err in errors) for name in tols}
        outputs[kind] = {"instances": args.count, "max_error": worst}
        for name, tol in tols.items():
            checks[f"{kind}.{name}"] = _check(worst[name], tol)
    return outputs, checks


# --------------------------------------------------------------- generate


def cmd_gen(args):
    from . import compgraph, factorgraph, generators

    written = {}

    def save(path: str, obj) -> None:
        text = stable_dumps(obj)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        written[path] = hashlib.sha256((text + "\n").encode()).hexdigest()

    prefix = args.out
    if args.kind == "spn":
        from . import spn

        circuit, evidence = generators.gen_spn(
            args.seed,
            shared=args.shared,
            n_vars=args.vars,
            states=args.states,
        )
        save(f"{prefix}.circuit.json", spn.circuit_to_json(circuit))
        save(f"{prefix}.evidence.json", spn.evidence_to_json(evidence))
    elif args.kind == "fg":
        fg = generators.gen_fg(args.seed, kind=args.fg_kind)
        save(f"{prefix}.fg.json", factorgraph.fg_to_json(fg))
    elif args.kind == "dag":
        graph, at = generators.gen_dag(args.seed)
        save(f"{prefix}.dag.json", compgraph.graph_to_json(graph))
        save(f"{prefix}.at.json", {"schema": "v1", "inputs": at})
    else:
        from . import posterior

        model, theta = generators.gen_posterior(args.seed)
        save(f"{prefix}.model.json", posterior.model_to_json(model))
        save(f"{prefix}.theta.json", {"schema": "v1", "theta": list(theta)})
    return {"written": written}, {"generated": _check(0.0, 0.0, True)}


# ------------------------------------------------------------------ main


def _seed(text: str) -> int:
    """A ``--seed`` value; numpy's generators take only non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klbp",
        description="Exact divergence-projection checks for circuits and graphs",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    helps = {
        "spn": "circuit passes and reductions",
        "fg": "factor-graph propagation and projections",
        "dag": "computation-graph evaluation and adjoints",
        "posterior": "posterior sensitivities",
        "oracle": "brute-force cross-checks",
        "gen": "write random instances",
    }
    groups: dict = {}

    def leaf(path: str, fn, *required, **options):
        """Add the command ``path`` ("group command", or a group alone) that
        runs ``fn``.  A required flag is a name or a (name, choices) pair; an
        option maps to its default, to a (default, choices) pair, to ``int``
        for a whole number with no default, or to False for a switch.  A
        number's type parses its flag, and every seed is a non-negative
        integer."""
        group, _, name = path.partition(" ")
        if not name:
            p = sub.add_parser(group, help=helps[group])
        else:
            if group not in groups:
                groups[group] = sub.add_parser(group, help=helps[group]).add_subparsers(
                    dest="cmd", required=True
                )
            p = groups[group].add_parser(name)
            p.add_argument("--out", help="write the report here instead of stdout")
        p.set_defaults(_fn=fn)
        flags = [(dest, None, True) for dest in required]
        for dest, default, req in flags + [(d, v, False) for d, v in options.items()]:
            kw = {"required": True} if req else {"default": default}
            if isinstance(dest, tuple):
                dest, kw["choices"] = dest
            if isinstance(default, tuple):
                kw["default"], kw["choices"] = default
            elif default is False:
                kw["action"] = "store_true"
            elif default is int:
                kw.update(type=int, default=None)
            elif isinstance(default, (int, float)):
                kw["type"] = type(default)
            if dest == "seed":
                kw["type"] = _seed
            p.add_argument("--" + dest.replace("_", "-"), **kw)
        return p

    leaf("spn validate", cmd_spn_validate, "circuit")
    leaf("spn eval", cmd_spn_eval, "circuit", evidence=None)
    leaf("spn marginals", cmd_spn_marginals, "circuit", evidence=None)
    leaf("spn gates", cmd_spn_gates, "circuit", evidence=None)
    leaf("spn kkt", cmd_spn_kkt, "circuit", evidence=None)
    leaf("spn region", cmd_spn_region, "circuit", evidence=None)
    leaf("spn lipschitz", cmd_spn_lipschitz, "circuit", evidence=None,
         lo=float(np.log(0.5)), hi=0.0, samples=200, seed=7)
    leaf("fg bp", cmd_fg_bp, "graph", damping=0.0, tol=1e-10, max_sweeps=10_000)
    leaf("fg project", cmd_fg_project, "input", ("family", ("diagonal", "product", "copies")),
         shape="", seed=0)
    leaf("fg wr", cmd_fg_wr, "graph", generator=("entropy", ("entropy", "quadratic")),
         tol=1e-8, max_iters=5000)
    leaf("dag eval", cmd_dag_eval, "graph", "at")
    leaf("dag adjoints", cmd_dag_adjoints, "graph", "at", "factor")
    leaf("dag gauge", cmd_dag_gauge, "graph", "at", "factor", "var", seed=0, trials=5)
    leaf("posterior grad", cmd_posterior_grad, "model", "theta")
    leaf("posterior dirac", cmd_posterior_dirac, "model", "theta", "at")
    leaf("oracle compare", cmd_oracle_compare, kind=("all", (*_COMPARERS, "all")),
         count=20, seed=0)
    p = leaf("gen", cmd_gen, "seed", vars=int, states=int, shared=False,
             fg_kind=("tree", ("tree", "cycle")))
    p.add_argument("kind", choices=("spn", "fg", "dag", "posterior"))
    p.add_argument("--out", default="instance", help="output path prefix")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    args._inputs = {}
    start = time.perf_counter()
    try:
        outputs, checks = args._fn(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_NO_FILE
    except SchemaError as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ValidationError, BudgetError) as exc:
        print(f"error: validation failed: {exc}", file=sys.stderr)
        return EXIT_INVALID
    elapsed = time.perf_counter() - start
    ok = all(entry["pass"] for entry in checks.values())
    report = {
        "schema": "v1",
        "command": argv,
        "inputs": args._inputs,
        "outputs": outputs,
        "checks": checks,
        "pass": ok,
    }
    text = stable_dumps(report)
    if args._fn is not cmd_gen and args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout early; point it at devnull so that the
            # flush at interpreter exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(f"wall_time_s={elapsed:.3f}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
