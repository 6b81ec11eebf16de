"""Command-line front end: validate, run, cross-check, and generate.

Every subcommand loads JSON inputs, runs the matching library operation,
runs the independent oracle comparison where one exists, and prints a
deterministic JSON report (floats at 17 significant digits, keys sorted)
so identical inputs always produce identical bytes.  Non-finite floats are
written as the strings "inf", "-inf" and "nan", so every report is strict
JSON.  Wall time goes to stderr, keeping the report byte-stable.

Exit codes: 0 all checks pass; 1 missing file; 2 malformed input (schema);
3 structural validation failure or failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import compgraph, factorgraph, generators, lift, oracle, posterior
from . import simplex, spn, spn_reduce
from .budgets import BudgetError
from .errors import SchemaError, ValidationError

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
    elif isinstance(obj, dict):
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


def _load_json(path: str) -> tuple[dict, str]:
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw.decode("utf-8")), digest
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def _check(value: float, tol: float) -> dict:
    value = float(value)
    return {"max_abs_error": value, "tol": tol, "pass": bool(value <= tol)}


def _passed(checks: dict) -> bool:
    return all(entry["pass"] for entry in checks.values())


def _report(args, inputs: dict, outputs: dict, checks: dict) -> tuple[dict, bool]:
    ok = _passed(checks)
    return (
        {
            "schema": "v1",
            "command": args._echo,
            "inputs": inputs,
            "outputs": outputs,
            "checks": checks,
            "pass": ok,
        },
        ok,
    )


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


def _require_positive(count: int, what: str) -> None:
    if count < 1:
        raise ValidationError(f"{what} must be at least 1, got {count}")


def _load_circuit_evidence(args) -> tuple:
    cobj, cdig = _load_json(args.circuit)
    circuit = spn.circuit_from_json(cobj)
    inputs = {args.circuit: cdig}
    if getattr(args, "evidence", None):
        eobj, edig = _load_json(args.evidence)
        evidence = spn.evidence_from_json(eobj)
        inputs[args.evidence] = edig
    else:
        evidence = spn.all_ones_evidence(circuit)
    return circuit, evidence, inputs


# ------------------------------------------------------------ spn commands


def cmd_spn_validate(args):
    obj, digest = _load_json(args.circuit)
    circuit = spn.circuit_from_json(obj)
    report = spn.validate_spn(circuit)
    checks = {"structure": {"max_abs_error": 0.0, "tol": 0.0, "pass": report["valid"]}}
    outputs = {k: v for k, v in report.items() if k != "scopes"}
    outputs["scopes"] = {nid: list(sc) for nid, sc in report["scopes"].items()}
    outputs["completeness"] = [list(v) for v in outputs["completeness"]]
    outputs["decomposability"] = [list(v) for v in outputs["decomposability"]]
    outputs["positivity"] = [list(v) for v in outputs["positivity"]]
    return _report(args, {args.circuit: digest}, outputs, checks)


def cmd_spn_eval(args):
    circuit, evidence, inputs = _load_circuit_evidence(args)
    S = spn.upward_pass(circuit, evidence)
    logs = spn.upward_pass_log(circuit, evidence, check=False)
    root = S.root_value(circuit)
    rel = abs(np.exp(logs[circuit.root]) - root) / max(1.0, abs(root))
    outputs = {
        "value": root,
        "log_value": logs[circuit.root],
        "node_values": {nid: S.values[nid] for nid in circuit.topo()},
    }
    return _report(args, inputs, outputs, {"log_linear_agreement": _check(rel, 1e-9)})


def cmd_spn_marginals(args):
    circuit, evidence, inputs = _load_circuit_evidence(args)
    S = spn.upward_pass(circuit, evidence)
    D = spn.downward_pass(circuit, S)
    arrays = spn.marginal_arrays(circuit, evidence, S, D)
    enum = oracle.enumerate_spn_marginals(circuit, evidence)
    gap = max(
        float(np.abs(arrays[v] - enum[v]).max()) for v in circuit.variable_order()
    )
    outputs = {
        "value": S.root_value(circuit),
        "marginals": {v: arrays[v] for v in circuit.variable_order()},
    }
    return _report(args, inputs, outputs, {"oracle_marginals": _check(gap, 1e-10)})


def cmd_spn_gates(args):
    circuit, evidence, inputs = _load_circuit_evidence(args)
    S = spn.upward_pass(circuit, evidence)
    D = spn.downward_pass(circuit, S)
    gates = spn.gate_report(circuit, S, D)
    norm_gap = 0.0
    glob_gap = 0.0
    outputs = {}
    for nid, gate in gates.items():
        norm_gap = max(norm_gap, abs(float(gate["b"].sum()) - 1.0))
        glob_gap = max(
            glob_gap, float(np.abs(gate["global"] - gate["pi"] * gate["b"]).max())
        )
        outputs[nid] = {
            "children": list(gate["children"]),
            "b": gate["b"],
            "pi": gate["pi"],
            "global": gate["global"],
        }
    checks = {
        "local_normalization": _check(norm_gap, 1e-12),
        "global_factorization": _check(glob_gap, 1e-12),
    }
    return _report(args, inputs, {"gates": outputs}, checks)


def cmd_spn_kkt(args):
    circuit, evidence, inputs = _load_circuit_evidence(args)
    if not evidence.is_soft():
        raise ValidationError("multiplier extraction needs soft (positive) evidence")
    S = spn.upward_pass(circuit, evidence)
    D = spn.downward_pass(circuit, S)
    kkt = spn.kkt_multipliers(circuit, S, D)  # verifies its identities
    pi_ok = all(0.0 < v <= 1.0 + 1e-12 for v in kkt["pi"].values())
    mu_ok = all(v > 0.0 for v in kkt["mu"].values())
    outputs = {
        "pi": kkt["pi"],
        "mu": {f"{pid}[{pos}]": val for (pid, pos), val in kkt["mu"].items()},
    }
    checks = {
        "pi_in_unit_interval": {"max_abs_error": 0.0, "tol": 0.0, "pass": pi_ok},
        "mu_positive": {"max_abs_error": 0.0, "tol": 0.0, "pass": mu_ok},
    }
    return _report(args, inputs, outputs, checks)


def cmd_spn_region(args):
    circuit, evidence, inputs = _load_circuit_evidence(args)
    fam = spn_reduce.region_two_step(circuit, evidence)
    S = spn.upward_pass(circuit, evidence)
    D = spn.downward_pass(circuit, S)
    arrays = spn.marginal_arrays(circuit, evidence, S, D)
    gap = max(
        float(np.abs(fam.var_marginals[v] - arrays[v]).max())
        for v in circuit.variable_order()
    )
    outputs = {
        "marginals": {v: fam.var_marginals[v] for v in circuit.variable_order()},
        "regions": {
            ",".join(scope): {
                "members": fam.groups[scope],
                "degenerate": fam.diagnostics[scope]["degenerate"],
                "literal_gap": fam.diagnostics[scope]["literal_gap"],
            }
            for scope in fam.scopes
        },
    }
    return _report(args, inputs, outputs, {"beliefs_agree": _check(gap, 1e-10)})


def cmd_spn_lipschitz(args):
    circuit, evidence, inputs = _load_circuit_evidence(args)
    report = spn_reduce.lipschitz_probe(
        circuit, (args.lo, args.hi), args.samples, args.seed
    )
    checks = {
        "pair_bound": {
            "max_abs_error": report["worst_pair_ratio"],
            "tol": 1.05,
            "pass": report["all_pairs_ok"],
        }
    }
    return _report(args, inputs, report, checks)


# ------------------------------------------------------------- fg commands


def cmd_fg_bp(args):
    obj, digest = _load_json(args.graph)
    fg = factorgraph.fg_from_json(obj)
    inputs = {args.graph: digest}
    if fg.is_forest():
        state = factorgraph.bp_run_tree(fg)
        beliefs = factorgraph.bp_beliefs(fg, state)
        enum = oracle.enumerate_fg_marginals(fg)
        gap = max(
            float(np.abs(beliefs[v.id] - enum[v.id]).max()) for v in fg.variables
        )
        outputs = {"beliefs": {v.id: beliefs[v.id] for v in fg.variables},
                   "schedule": "two-pass"}
        return _report(args, inputs, outputs, {"oracle_marginals": _check(gap, 1e-10)})
    result = factorgraph.bp_run(
        fg, damping=args.damping, tol=args.tol, max_sweeps=args.max_sweeps
    )
    beliefs = factorgraph.bp_beliefs(fg, result.state)
    resweep = factorgraph.bp_sweep(fg, result.state, damping=0.0)
    residual = factorgraph.message_delta(result.state, resweep)
    outputs = {
        "beliefs": {v.id: beliefs[v.id] for v in fg.variables},
        "schedule": "damped-sync",
        "sweeps": result.sweeps,
        "delta": result.delta,
    }
    checks = {
        "converged": {
            "max_abs_error": result.delta,
            "tol": args.tol,
            "pass": result.converged,
        },
        "fixed_point": _check(residual, max(10 * args.tol, 1e-9)),
    }
    return _report(args, inputs, outputs, checks)


def cmd_fg_project(args):
    obj, digest = _load_json(args.input)
    inputs = {args.input: digest}
    if args.family == "copies":
        if "dists" not in obj:
            raise SchemaError("consensus input needs a 'dists' list")
        tables = [simplex.DistVec.from_json(d) for d in obj["dists"]]
        closed = simplex.consensus_geomean(tables)
        numeric = oracle.numeric_projection(
            simplex.NegativeEntropy(),
            oracle.EqualCopies(len(tables)),
            tables,
            "left",
            seed=args.seed,
        )
        gap = float(np.abs(closed.probs - numeric.probs).max())
        outputs = {"projection": closed.probs}
        return _report(args, inputs, outputs, {"oracle_projection": _check(gap, 1e-6)})
    dist = simplex.DistVec.from_json(obj)
    sizes = tuple(_parse_ints(args.shape))
    if args.family == "diagonal":
        shape = simplex.JointShape(sizes, (tuple(range(len(sizes))),))
        closed = simplex.i_project_diagonal(dist, shape)
        numeric = oracle.numeric_projection(
            simplex.NegativeEntropy(),
            oracle.DiagonalFace(shape),
            dist,
            "left",
            seed=args.seed,
        )
    elif args.family == "product":
        shape = simplex.JointShape(sizes)
        closed = simplex.m_project_product(dist, shape)
        numeric = oracle.numeric_projection(
            simplex.NegativeEntropy(),
            oracle.ProductFamily(shape),
            dist,
            "right",
            seed=args.seed,
        )
    else:
        raise SchemaError(f"unknown family {args.family!r}")
    gap = float(np.abs(closed.probs - numeric.probs).max())
    outputs = {"projection": closed.probs}
    return _report(args, inputs, outputs, {"oracle_projection": _check(gap, 1e-6)})


def cmd_fg_wr(args):
    obj, digest = _load_json(args.graph)
    fg = factorgraph.fg_from_json(obj)
    inputs = {args.graph: digest}
    space = lift.replicate_lift(fg)
    if args.generator == "entropy":
        gen = simplex.NegativeEntropy()
    else:
        gen = simplex.Mahalanobis(np.eye(space.ident_size))
    run = lift.wr_run(space, gen, tol=args.tol, max_iters=args.max_iters)
    beliefs = lift.wr_beliefs(space, run.state)
    outputs = {
        "beliefs": {v: beliefs[v] for v in sorted(beliefs)},
        "iterations": run.state.n,
        "converged": run.converged,
        "last_step": run.steps[-1] if run.steps else 0.0,
    }
    checks = {}
    if fg.is_forest() and args.generator == "entropy":
        # tree-exactness after one outer iteration holds for the entropy
        # generator; the quadratic one only promises a Cauchy iterate
        enum = oracle.enumerate_fg_marginals(fg)
        gap = max(float(np.abs(beliefs[v.id] - enum[v.id]).max()) for v in fg.variables)
        checks["oracle_marginals"] = _check(gap, 1e-10)
    checks["converged"] = {
        "max_abs_error": outputs["last_step"],
        "tol": args.tol,
        "pass": run.converged,
    }
    return _report(args, inputs, outputs, checks)


# ------------------------------------------------------------ dag commands


def cmd_dag_eval(args):
    obj, digest = _load_json(args.graph)
    graph = compgraph.graph_from_json(obj)
    trace = compgraph.forward_eval(graph, _parse_at(args.at, graph))
    outputs = {"output": trace.values[graph.output], "values": dict(trace.values)}
    checks = {"finite": {"max_abs_error": 0.0, "tol": 0.0, "pass": True}}
    return _report(args, {args.graph: digest}, outputs, checks)


def cmd_dag_adjoints(args):
    obj, digest = _load_json(args.graph)
    graph = compgraph.graph_from_json(obj)
    at = _parse_at(args.at, graph)
    factor = _parse_factor(args.factor)
    trace = compgraph.forward_eval(graph, at)
    adj = compgraph.backward_adjoints(graph, trace, factor)
    seed_value = compgraph.seed_score(factor, trace.values[graph.output])
    ref = oracle.reference_gradient(graph, at, seed_value)
    ref_gap = max(abs(adj[nid] - ref[nid]) for nid in ref)
    names = sorted(graph.input_ids())

    def log_phi(vec):
        point = dict(zip(names, vec))
        sub = compgraph.forward_eval(graph, point)
        return compgraph.phi_log(factor, sub.values[graph.output])

    fd = oracle.finite_diff_grad(log_phi, np.array([at[n] for n in names]))
    fd_gap = max(
        abs(adj[n] - g) / max(1.0, abs(g)) for n, g in zip(names, fd)
    )
    outputs = {
        "output": trace.values[graph.output],
        "seed": seed_value,
        "adjoints": {nid: adj[nid] for nid in sorted(adj)},
    }
    checks = {
        "independent_accumulator": _check(ref_gap, 1e-12),
        "finite_differences": _check(fd_gap, 1e-6),
    }
    return _report(args, {args.graph: digest}, outputs, checks)


def cmd_dag_gauge(args):
    _require_positive(args.trials, "trial count")
    obj, digest = _load_json(args.graph)
    graph = compgraph.graph_from_json(obj)
    at = _parse_at(args.at, graph)
    factor = _parse_factor(args.factor)
    trace = compgraph.forward_eval(graph, at)
    var = args.var
    if var not in trace.values:
        raise ValidationError(f"unknown node {var!r}")
    grid = compgraph.centered_grid(trace.values[var], 0.1)
    base = compgraph.slope_from_grid(
        grid, compgraph.downward_log_belief(graph, trace, factor, var, grid)
    )
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for trial in range(args.trials):
        scales = {
            f"edge{j}": float(np.exp(rng.uniform(-2.0, 2.0))) for j in range(4)
        }
        scaled = compgraph.slope_from_grid(
            grid,
            compgraph.downward_log_belief(
                graph, trace, factor, var, grid, edge_scales=scales
            ),
        )
        worst = max(worst, abs(scaled - base))
    outputs = {"slope": base, "trials": args.trials}
    return _report(
        args, {args.graph: digest}, outputs, {"gauge_invariance": _check(worst, 1e-12)}
    )


# ------------------------------------------------------- posterior commands


def cmd_posterior_grad(args):
    obj, digest = _load_json(args.model)
    model = posterior.model_from_json(obj)
    theta = _parse_floats(args.theta)
    grad = posterior.posterior_grad_enum(model, theta)

    def log_ml(t):
        return float(np.log(posterior.marginal_likelihood(model, t, method="enum")))

    fd = oracle.finite_diff_grad(log_ml, theta)
    fd_gap = max(
        (abs(g - f) / max(1.0, abs(f)) for g, f in zip(grad, fd)), default=0.0
    )
    outputs = {"gradient": grad, "marginal_likelihood": posterior.marginal_likelihood(model, theta)}
    checks = {"finite_differences": _check(fd_gap, 1e-6)}
    if isinstance(model.likelihood, compgraph.ExpScale):
        bp = posterior.posterior_grad_bp(model, theta)
        checks["marginal_route"] = _check(float(np.abs(bp - grad).max()), 1e-10)
        outputs["gradient_marginal_route"] = bp
    return _report(args, {args.model: digest}, outputs, checks)


def cmd_posterior_dirac(args):
    obj, digest = _load_json(args.model)
    model = posterior.model_from_json(obj)
    theta = _parse_floats(args.theta)
    x_star = tuple(_parse_ints(args.at))
    left, right = posterior.dirac_limit_check(model, theta, x_star)
    gap = float(np.abs(left - right).max()) if len(left) else 0.0
    outputs = {"point_gradient": left, "adjoint_composition": right}
    return _report(args, {args.model: digest}, outputs, {"dirac_limit": _check(gap, 1e-10)})


# ------------------------------------------------------------- oracle sweep


def _compare_spn(seed: int) -> dict:
    circuit, evidence = generators.gen_spn(seed)
    S = spn.upward_pass(circuit, evidence)
    D = spn.downward_pass(circuit, S)
    arrays = spn.marginal_arrays(circuit, evidence, S, D)
    enum = oracle.enumerate_spn_marginals(circuit, evidence)
    gap = max(
        float(np.abs(arrays[v] - enum[v]).max()) for v in circuit.variable_order()
    )
    euler = max(spn.euler_residuals(circuit, evidence, S, D).values())
    return {"marginals": gap, "euler": euler}


def _compare_fg(seed: int) -> dict:
    fg = generators.gen_fg(seed)
    beliefs = factorgraph.bp_beliefs(fg, factorgraph.bp_run_tree(fg))
    enum = oracle.enumerate_fg_marginals(fg)
    gap = max(float(np.abs(beliefs[v.id] - enum[v.id]).max()) for v in fg.variables)
    return {"marginals": gap}


def _compare_dag(seed: int) -> dict:
    graph, at = generators.gen_dag(seed)
    factor = compgraph.ExpScale(2.0) if seed % 2 else compgraph.NegLossTemp(
        "squared_error", 0.25, 1.5
    )
    trace = compgraph.forward_eval(graph, at)
    adj = compgraph.backward_adjoints(graph, trace, factor)
    ref = oracle.reference_gradient(
        graph, at, compgraph.seed_score(factor, trace.values[graph.output])
    )
    return {"adjoints": max(abs(adj[nid] - ref[nid]) for nid in ref)}


def _compare_posterior(seed: int) -> dict:
    model, theta = generators.gen_posterior(seed)
    grad = posterior.posterior_grad_enum(model, theta)

    def log_ml(t):
        return float(np.log(posterior.marginal_likelihood(model, t, method="enum")))

    fd = oracle.finite_diff_grad(log_ml, theta)
    fd_gap = max(
        (abs(g - f) / max(1.0, abs(f)) for g, f in zip(grad, fd)), default=0.0
    )
    left, right = posterior.dirac_limit_check(
        model, theta, tuple(0 for _ in range(model.m))
    )
    dirac = float(np.abs(left - right).max()) if len(left) else 0.0
    return {"finite_differences": fd_gap, "dirac": dirac}


_COMPARERS = {
    "spn": (_compare_spn, {"marginals": 1e-10, "euler": 1e-10}),
    "fg": (_compare_fg, {"marginals": 1e-10}),
    "dag": (_compare_dag, {"adjoints": 1e-12}),
    "posterior": (_compare_posterior, {"finite_differences": 1e-6, "dirac": 1e-10}),
}


def cmd_oracle_compare(args):
    _require_positive(args.count, "instance count")
    kinds = list(_COMPARERS) if args.kind == "all" else [args.kind]
    outputs = {}
    checks = {}
    for kind in kinds:
        fn, tols = _COMPARERS[kind]
        worst = {name: 0.0 for name in tols}
        for i in range(args.count):
            for name, err in fn(args.seed + i).items():
                worst[name] = max(worst[name], err)
        outputs[kind] = {"instances": args.count, "max_error": worst}
        for name, tol in tols.items():
            checks[f"{kind}.{name}"] = _check(worst[name], tol)
    return _report(args, {}, outputs, checks)


# --------------------------------------------------------------- generate


def cmd_gen(args):
    written = {}

    def save(path: str, obj) -> None:
        text = stable_dumps(obj)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        written[path] = hashlib.sha256((text + "\n").encode()).hexdigest()

    prefix = args.out
    if args.kind == "spn":
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
    elif args.kind == "posterior":
        model, theta = generators.gen_posterior(args.seed)
        save(f"{prefix}.model.json", posterior.model_to_json(model))
        save(f"{prefix}.theta.json", {"schema": "v1", "theta": list(theta)})
    else:
        raise SchemaError(f"unknown kind {args.kind!r}")
    outputs = {"written": written}
    checks = {"generated": {"max_abs_error": 0.0, "tol": 0.0, "pass": True}}
    return _report(args, {}, outputs, checks)


# ------------------------------------------------------------------ main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klbp",
        description="Exact divergence-projection checks for circuits and graphs",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    def leaf(group, name, fn, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.set_defaults(_fn=fn)
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    sp = sub.add_parser("spn", help="circuit passes and reductions")
    spsub = sp.add_subparsers(dest="cmd", required=True)
    p = leaf(spsub, "validate", cmd_spn_validate)
    p.add_argument("--circuit", required=True)
    for name, fn in (
        ("eval", cmd_spn_eval),
        ("marginals", cmd_spn_marginals),
        ("gates", cmd_spn_gates),
        ("kkt", cmd_spn_kkt),
        ("region", cmd_spn_region),
    ):
        p = leaf(spsub, name, fn)
        p.add_argument("--circuit", required=True)
        p.add_argument("--evidence")
    p = leaf(spsub, "lipschitz", cmd_spn_lipschitz)
    p.add_argument("--circuit", required=True)
    p.add_argument("--evidence")
    p.add_argument("--lo", type=float, default=float(np.log(0.5)))
    p.add_argument("--hi", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)

    fgp = sub.add_parser("fg", help="factor-graph propagation and projections")
    fgsub = fgp.add_subparsers(dest="cmd", required=True)
    p = leaf(fgsub, "bp", cmd_fg_bp)
    p.add_argument("--graph", required=True)
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-sweeps", type=int, default=10_000)
    p = leaf(fgsub, "project", cmd_fg_project)
    p.add_argument("--input", required=True)
    p.add_argument("--family", required=True, choices=("diagonal", "product", "copies"))
    p.add_argument("--shape", default="")
    p.add_argument("--seed", type=int, default=0)
    p = leaf(fgsub, "wr", cmd_fg_wr)
    p.add_argument("--graph", required=True)
    p.add_argument("--generator", choices=("entropy", "quadratic"), default="entropy")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=5000)

    dagp = sub.add_parser("dag", help="computation-graph evaluation and adjoints")
    dagsub = dagp.add_subparsers(dest="cmd", required=True)
    p = leaf(dagsub, "eval", cmd_dag_eval)
    p.add_argument("--graph", required=True)
    p.add_argument("--at", required=True)
    p = leaf(dagsub, "adjoints", cmd_dag_adjoints)
    p.add_argument("--graph", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--factor", required=True)
    p = leaf(dagsub, "gauge", cmd_dag_gauge)
    p.add_argument("--graph", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--factor", required=True)
    p.add_argument("--var", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)

    postp = sub.add_parser("posterior", help="posterior sensitivities")
    postsub = postp.add_subparsers(dest="cmd", required=True)
    p = leaf(postsub, "grad", cmd_posterior_grad)
    p.add_argument("--model", required=True)
    p.add_argument("--theta", required=True)
    p = leaf(postsub, "dirac", cmd_posterior_dirac)
    p.add_argument("--model", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--at", required=True)

    orp = sub.add_parser("oracle", help="brute-force cross-checks")
    orsub = orp.add_subparsers(dest="cmd", required=True)
    p = leaf(orsub, "compare", cmd_oracle_compare)
    p.add_argument("--kind", choices=("spn", "fg", "dag", "posterior", "all"),
                   default="all")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="write random instances")
    p.set_defaults(_fn=cmd_gen)
    p.add_argument("kind", choices=("spn", "fg", "dag", "posterior"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="instance", help="output path prefix")
    p.add_argument("--vars", type=int)
    p.add_argument("--states", type=int)
    p.add_argument("--shared", action="store_true")
    p.add_argument("--fg-kind", choices=("tree", "cycle"), default="tree")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    args._echo = argv
    start = time.perf_counter()
    try:
        report, ok = args._fn(args)
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
    text = stable_dumps(report)
    if args._fn is not cmd_gen and getattr(args, "out", None):
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
