"""desk-verify: the instance mix of the acceptance criteria 2-11.

This is the traffic the repository actually runs, and the only workload
that loads ``oracle``, ``compgraph``, ``posterior``, ``lift``, ``simplex``
and ``spn_reduce``.  Instances come from ``klbp.generators`` in set-up,
with generator seeds offset by the benchmark seed; one operation
verifies one instance through the same public calls, at the same
tolerances, as ``tests/test_acceptance.py``.  Two calls are added so that
every layer metric has a source: tree circuits also run
``region_two_step`` (checked as ``klbp spn region`` checks it) and tree
lifts also run ``wr_run`` with the entropy generator (checked as ``klbp fg
wr`` checks it).

It also uses ``spn`` and ``factorgraph`` on many tiny inputs, so a change
that adds per-instance overhead to those layers shows here.
"""

from __future__ import annotations

import math

import numpy as np

from klbp import compgraph, factorgraph, generators, lift, oracle, posterior, simplex, spn, spn_reduce
from klbp.simplex import DistVec, JointShape, Mahalanobis, NegativeEntropy

ENTROPY = NegativeEntropy()
FD_STEP = 1e-5
N_CIRCUITS, N_TREE_CHECKS, N_DAGS, N_GAUGE = 100, 50, 200, 20
N_LIFTS, N_POSTERIOR, N_PROJECTIONS, N_LIPSCHITZ = 50, 50, 50, 20
CYCLE_SEEDS, QUADRATIC_SEED = (70, 71, 72), 80
BOX = (math.log(0.5), 0.0)
DAG_FACTORS = (
    compgraph.ExpScale(2.0),
    compgraph.NegLossTemp("squared_error", 0.25, 1.5),
    compgraph.NegLossTemp("logistic", 1.0, 2.0),
)


def golden_circuit():
    """Two-component circuit of criterion 1, used by the smoothness probe."""
    leaves = [
        spn.SpnNode("lx0", "leaf", var="X", state=0),
        spn.SpnNode("lx1", "leaf", var="X", state=1),
        spn.SpnNode("ly0", "leaf", var="Y", state=0),
        spn.SpnNode("ly1", "leaf", var="Y", state=1),
    ]
    nodes = leaves + [
        spn.SpnNode("P1", "product", children=("lx0", "ly0")),
        spn.SpnNode("P2", "product", children=("lx1", "ly1")),
        spn.SpnNode("r", "sum", children=("P1", "P2"), weights=(0.6, 0.4)),
    ]
    return spn.SpnCircuit(tuple(nodes), "r")


def golden_dag():
    return compgraph.CompGraph(
        (
            compgraph.CompNode("w", "input"),
            compgraph.CompNode("x", "input"),
            compgraph.CompNode("m", "mul", ("w", "x")),
            compgraph.CompNode("y", "sigmoid", ("m",)),
        ),
        "y",
    )


def _gap(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def _spread(solutions) -> float:
    probs = [s.probs for s in solutions]
    return max(_gap(a, b) for a in probs for b in probs)


class DeskVerify:
    name = "desk-verify"
    min_rounds = 1

    def __init__(self, seed: int, rec, workdir=None):
        self.rec = rec
        self.static: dict = {}
        self.counters = {"wr_iterations": []}
        ops = self._instances(seed)
        order = np.random.default_rng([seed, 5]).permutation(len(ops))
        self.ops = [ops[i] for i in order]

    def warm_up(self) -> list:
        """One instance of each kind."""
        first = {}
        for kind, payload in self.ops:
            first.setdefault(kind, payload)
        return list(first.items())

    def close(self) -> None:
        pass

    def round(self, r: int) -> list:
        return self.ops

    # ---------------------------------------------------------- instances

    def _gen(self, fn, *args, **kwargs):
        return self.rec.call(f"generators.{fn.__name__}", fn, *args, **kwargs)

    @staticmethod
    def _add(ops: list, make) -> None:
        """Append ``make()``; an instance that cannot be generated becomes an
        operation that fails, so the defect is counted instead of hidden."""
        try:
            ops.append(make())
        except Exception as exc:  # any generator defect, reported per instance
            ops.append(("generate", f"{type(exc).__name__}: {exc}"))

    def _instances(self, seed: int) -> list:
        gen, add, ops = self._gen, self._add, []
        for i in range(N_CIRCUITS):
            add(ops, lambda i=i: ("circuit", (*gen(generators.gen_spn, seed + i), i < N_TREE_CHECKS)))
        ops.append(("dag-golden", golden_dag()))
        for i in range(N_DAGS):
            add(ops, lambda i=i: ("dag", (*gen(generators.gen_dag, seed + i), DAG_FACTORS[i % 3])))
        rng = np.random.default_rng([seed, 77])

        def gauge(i):
            g, at = gen(generators.gen_dag, seed + i)
            factor = compgraph.ExpScale(1.5) if i % 2 else compgraph.NegLossTemp("squared_error", 0.1, 2.0)
            var = sorted(g.input_ids())[int(rng.integers(len(g.input_ids())))]
            scales = {f"e{j}": float(np.exp(rng.uniform(-3, 3))) for j in range(6)}
            return "gauge", (g, at, factor, var, scales)

        for i in range(N_GAUGE):
            add(ops, lambda i=i: gauge(i))
        for i in range(N_LIFTS):
            add(ops, lambda i=i: ("lift-tree", gen(generators.gen_fg, seed + i)))
        for k in CYCLE_SEEDS:
            add(ops, lambda k=k: ("lift-cycle", gen(generators.gen_fg, seed + k, kind="cycle")))
        add(ops, lambda: ("lift-quadratic", gen(generators.gen_fg, seed + QUADRATIC_SEED, kind="cycle")))
        rng_post = np.random.default_rng([seed, 909])

        def post(i):
            model, theta = gen(generators.gen_posterior, seed + i)
            x_star = tuple(int(rng_post.integers(len(model.grids[j]))) for j in range(model.m))
            exp_model, exp_theta = gen(generators.gen_posterior, seed + i, force_exp=True)
            return "posterior", (model, theta, x_star, exp_model, exp_theta)

        for i in range(N_POSTERIOR):
            add(ops, lambda i=i: post(i))
        ops += self._projections(np.random.default_rng([seed, 1010]))
        ops.append(("lipschitz", (golden_circuit(), 120, 7)))
        for i in range(N_LIPSCHITZ):
            add(ops, lambda i=i: ("lipschitz", (gen(generators.gen_spn, seed + i)[0], 40, seed + i)))
        return ops

    @staticmethod
    def _projections(rng) -> list:
        ops = []
        for i in range(N_PROJECTIONS):
            k, d = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            shape = JointShape((d,) * k, (tuple(range(k)),))
            q = DistVec.from_weights(rng.uniform(0.1, 1.0, d**k), simplex.joint_outcomes((d,) * k))
            r = rng.uniform(0.1, 1.0, d)
            ops.append(("projection-diagonal", (i, shape, q, r / r.sum(), k, d)))
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4))))
            pq = DistVec.from_weights(
                rng.uniform(0.1, 1.0, int(np.prod(sizes))), simplex.joint_outcomes(sizes)
            )
            ops.append(("projection-product", (i, JointShape(sizes), pq)))
            n_tables, dim = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            tables = [
                DistVec.from_weights(rng.uniform(0.1, 1.0, dim), tuple(range(dim)))
                for _ in range(n_tables)
            ]
            ops.append(("projection-consensus", (i, tables)))
        return ops

    # --------------------------------------------------------- operations

    def run(self, kind: str, payload):
        return getattr(self, "_run_" + kind.replace("-", "_"))(payload)

    def check(self, kind: str, payload, out):
        """None when the output is right, else the reason it is not."""
        return getattr(self, "_check_" + kind.replace("-", "_"))(payload, out)

    def _run_generate(self, message):
        raise RuntimeError(f"instance generation failed: {message}")

    def _run_circuit(self, p):
        c, e, tree_checks = p
        call = self.rec.call
        S = call("spn.upward_pass", spn.upward_pass, c, e)
        D = call("spn.downward_pass", spn.downward_pass, c, S)
        out = {
            "S": S,
            "D": D,
            "arrays": call("spn.marginal_arrays", spn.marginal_arrays, c, e, S, D),
            "enum": call("oracle.enumerate_spn_marginals", oracle.enumerate_spn_marginals, c, e),
            "fd": {},
        }
        for v in c.variable_order():
            for t in range(len(e.lam[v])):
                if e.lam[v][t] <= 0.0:
                    continue
                hi = {k: a.copy() for k, a in e.lam.items()}
                lo = {k: a.copy() for k, a in e.lam.items()}
                hi[v][t] *= np.exp(FD_STEP)
                lo[v][t] *= np.exp(-FD_STEP)
                s_hi = call("spn.upward_pass", spn.upward_pass, c, call("spn.Evidence", spn.Evidence, hi), check=False)
                s_lo = call("spn.upward_pass", spn.upward_pass, c, call("spn.Evidence", spn.Evidence, lo), check=False)
                out["fd"][(v, t)] = (
                    np.log(s_hi.values[c.root]) - np.log(s_lo.values[c.root])
                ) / (2 * FD_STEP)
        out["euler"] = call("spn.euler_residuals", spn.euler_residuals, c, e, S, D)
        out["beliefs"] = call("spn.variable_marginals", spn.variable_marginals, c, e, S, D)
        out["kkt"] = call("spn.kkt_multipliers", spn.kkt_multipliers, c, S, D)
        if tree_checks:
            out["gates"] = call("spn.gate_report", spn.gate_report, c, S, D)
            fg = call("spn_reduce.spn_to_factor_graph", spn_reduce.spn_to_factor_graph, c, e)
            state = call("factorgraph.bp_run_tree", factorgraph.bp_run_tree, fg)
            out["bp"] = call("factorgraph.bp_beliefs", factorgraph.bp_beliefs, fg, state)
            out["region"] = call("spn_reduce.region_two_step", spn_reduce.region_two_step, c, e)
        return out

    def _check_circuit(self, p, out):
        c, e, tree_checks = p
        arrays, enum = out["arrays"], out["enum"]
        worst = max(_gap(arrays[v], enum[v]) for v in c.variable_order())
        if worst > 1e-10:
            return f"marginals vs enumeration {worst:.3e}"
        for (v, t), fd in out["fd"].items():
            rel = abs(fd - arrays[v][t]) / max(1.0, abs(arrays[v][t]))
            if rel > 1e-6:
                return f"finite differences {rel:.3e} at {v}={t}"
        if max(out["euler"].values()) > 1e-10:
            return f"euler residual {max(out['euler'].values()):.3e}"
        for b in out["beliefs"].values():
            if abs(float(b.probs.sum()) - 1.0) > 1e-12 or not np.all(b.probs > 0.0):
                return "belief not a positive normalized vector"
        if not all(v > 0.0 for v in out["S"].values.values()):
            return "upward value not positive"
        if not all(v > 0.0 for v in out["D"].values.values()):
            return "downward value not positive"
        kkt = out["kkt"]
        if not all(0.0 < v <= 1.0 + 1e-12 for v in kkt["pi"].values()):
            return "visit probability outside (0, 1]"
        if not all(v > 0.0 for v in kkt["mu"].values()):
            return "edge multiplier not positive"
        if not tree_checks:
            return None
        if not c.is_tree():
            return "tree-check circuit is not a tree"
        for nid, gate in out["gates"].items():
            if _gap(gate["global"], gate["pi"] * gate["b"]) > 1e-12:
                return f"global gate factorization at {nid}"
            if nid == c.root and abs(gate["pi"] - 1.0) > 1e-12:
                return "root visit probability is not 1"
        bp = max(_gap(arrays[v], out["bp"][v]) for v in c.variable_order())
        if bp > 1e-10:
            return f"marginals vs tree BP {bp:.3e}"
        region = max(_gap(out["region"].var_marginals[v], arrays[v]) for v in c.variable_order())
        if region > 1e-10:
            return f"region two-step beliefs differ by {region:.3e}"
        return None

    def _adjoint_route(self, g, at, factor):
        call = self.rec.call
        trace = call("compgraph.forward_eval", compgraph.forward_eval, g, at)
        adj = call("compgraph.backward_adjoints", compgraph.backward_adjoints, g, trace, factor)
        return trace, adj

    def _run_dag_golden(self, g):
        return self._adjoint_route(g, {"w": 0.0, "x": 1.0}, compgraph.ExpScale(2.0))[1]

    def _check_dag_golden(self, g, adj):
        golden = max(abs(adj["w"] - 0.5), abs(adj["x"] - 0.0))
        return None if golden == 0.0 else f"golden adjoints off by {golden:.3e}"

    def _run_dag(self, p):
        g, at, factor = p
        call = self.rec.call
        trace, adj = self._adjoint_route(g, at, factor)
        seed_value = call("compgraph.seed_score", compgraph.seed_score, factor, trace.values[g.output])
        ref = call("oracle.reference_gradient", oracle.reference_gradient, g, at, seed_value)
        names = sorted(g.input_ids())

        def log_phi(vec):
            sub = call("compgraph.forward_eval", compgraph.forward_eval, g, dict(zip(names, vec)))
            return call("compgraph.phi_log", compgraph.phi_log, factor, sub.values[g.output])

        point = np.array([at[n] for n in names])
        fd = call("oracle.finite_diff_grad", oracle.finite_diff_grad, log_phi, point)
        return {"adj": adj, "ref": ref, "fd": dict(zip(names, fd))}

    def _check_dag(self, p, out):
        adj = out["adj"]
        acc = max(abs(adj[nid] - out["ref"][nid]) for nid in out["ref"])
        if acc > 1e-12:
            return f"adjoints vs reference accumulator {acc:.3e}"
        fd = max(abs(adj[n] - f) / max(1.0, abs(f)) for n, f in out["fd"].items())
        return None if fd <= 1e-6 else f"adjoints vs finite differences {fd:.3e}"

    def _run_gauge(self, p):
        g, at, factor, var, scales = p
        call = self.rec.call
        trace = call("compgraph.forward_eval", compgraph.forward_eval, g, at)
        grid = call("compgraph.centered_grid", compgraph.centered_grid, trace.values[var], 0.05)
        slopes = []
        for edge_scales in (None, scales):
            logs = call(
                "compgraph.downward_log_belief",
                compgraph.downward_log_belief,
                g, trace, factor, var, grid, edge_scales=edge_scales,
            )
            slopes.append(call("compgraph.slope_from_grid", compgraph.slope_from_grid, grid, logs))
        return slopes

    def _check_gauge(self, p, slopes):
        shift = abs(slopes[1] - slopes[0])
        return None if shift <= 1e-12 else f"slope shift under edge rescaling {shift:.3e}"

    def _run_lift_tree(self, fg):
        call = self.rec.call
        space = call("lift.replicate_lift", lift.replicate_lift, fg)
        state = call("lift.wr_init", lift.wr_init, space, ENTROPY)
        state = call("lift.wr_step", lift.wr_step, space, ENTROPY, state)
        scheme = call("lift.wr_beliefs", lift.wr_beliefs, space, state)
        tree_state = call("factorgraph.bp_run_tree", factorgraph.bp_run_tree, fg)
        tree = call("factorgraph.bp_beliefs", factorgraph.bp_beliefs, fg, tree_state)
        exact = call("oracle.enumerate_fg_marginals", oracle.enumerate_fg_marginals, fg)
        for _ in range(2):
            state = call("lift.wr_step", lift.wr_step, space, ENTROPY, state)
        later = call("lift.wr_beliefs", lift.wr_beliefs, space, state)
        run = call("lift.wr_run/entropy", lift.wr_run, space, ENTROPY)
        run_beliefs = call("lift.wr_beliefs", lift.wr_beliefs, space, run.state)
        return {"scheme": scheme, "tree": tree, "exact": exact, "later": later, "run": run, "run_beliefs": run_beliefs}

    def _check_lift_tree(self, fg, out):
        ids = [v.id for v in fg.variables]
        scheme, exact = out["scheme"], out["exact"]
        tree = max(max(_gap(scheme[v], out["tree"][v]), _gap(scheme[v], exact[v])) for v in ids)
        if tree > 1e-10:
            return f"one outer iteration vs tree BP/enumeration {tree:.3e}"
        freeze = max(_gap(out["later"][v], scheme[v]) for v in ids)
        if freeze > 1e-12:
            return f"tree beliefs moved by {freeze:.3e} after more iterations"
        if not out["run"].converged:
            return "entropy wr_run did not converge"
        run = max(_gap(out["run_beliefs"][v], exact[v]) for v in ids)
        return None if run <= 1e-10 else f"entropy wr_run beliefs vs enumeration {run:.3e}"

    def _run_lift_cycle(self, fg):
        call = self.rec.call
        result = call("factorgraph.bp_run", factorgraph.bp_run, fg, tol=1e-12)
        space = call("lift.replicate_lift", lift.replicate_lift, fg)
        beliefs = call("factorgraph.bp_beliefs", factorgraph.bp_beliefs, fg, result.state)
        joint = call("lift.extract_joint", lift.extract_joint, space, beliefs)
        return result, joint, call("lift.t_proj", lift.t_proj, space, joint)

    def _check_lift_cycle(self, fg, out):
        result, joint, projected = out
        if not result.converged:
            return "loopy BP did not converge"
        resid = _gap(projected.probs, joint.probs)
        return None if resid <= 1e-8 else f"two-step fixed-point residual {resid:.3e}"

    def _run_lift_quadratic(self, fg):
        call = self.rec.call
        space = call("lift.replicate_lift", lift.replicate_lift, fg)
        gen = call("simplex.Mahalanobis", Mahalanobis, np.eye(space.ident_size))
        return call("lift.wr_run/quadratic", lift.wr_run, space, gen, tol=1e-8, max_iters=5000)

    def _check_lift_quadratic(self, fg, run):
        self.counters["wr_iterations"].append(run.state.n)
        if run.converged and run.steps[-1] < 1e-8:
            return None
        return "quadratic-generator iterates are not Cauchy within 5000 iterations"

    def _run_posterior(self, p):
        model, theta, x_star, exp_model, exp_theta = p
        call = self.rec.call
        grad = call("posterior.posterior_grad_enum", posterior.posterior_grad_enum, model, theta)

        def log_ml(t):
            ml = call("posterior.marginal_likelihood", posterior.marginal_likelihood, model, t, method="enum")
            return float(np.log(ml))

        fd = call("oracle.finite_diff_grad", oracle.finite_diff_grad, log_ml, theta)
        dirac = call("posterior.dirac_limit_check", posterior.dirac_limit_check, model, theta, x_star)
        enum = call("posterior.posterior_grad_enum", posterior.posterior_grad_enum, exp_model, exp_theta)
        bp = call("posterior.posterior_grad_bp", posterior.posterior_grad_bp, exp_model, exp_theta)
        return {"grad": grad, "fd": fd, "dirac": dirac, "enum": enum, "bp": bp}

    def _check_posterior(self, p, out):
        fd = max(
            (abs(g - f) / max(1.0, abs(f)) for g, f in zip(out["grad"], out["fd"])), default=0.0
        )
        if fd > 1e-6:
            return f"gradient vs finite differences {fd:.3e}"
        left, right = out["dirac"]
        if len(left) and _gap(left, right) > 1e-10:
            return f"point-mass limit {_gap(left, right):.3e}"
        if len(out["enum"]) and _gap(out["bp"], out["enum"]) > 1e-10:
            return f"marginal route {_gap(out['bp'], out['enum']):.3e}"
        return None

    def _numeric(self, spec, q, side, seed):
        return self.rec.call(
            "oracle.numeric_projection", oracle.numeric_projection,
            ENTROPY, spec, q, side, seed=seed, return_all=True,
        )

    def _run_projection_diagonal(self, p):
        i, shape, q, r, k, d = p
        closed = self.rec.call("simplex.i_project_diagonal", simplex.i_project_diagonal, q, shape)
        return closed, self._numeric(oracle.DiagonalFace(shape), q, "left", i)

    def _check_projection_diagonal(self, p, out):
        i, shape, q, r, k, d = p
        closed, _ = out
        q_diag = q.probs.reshape((d,) * k)[tuple(np.arange(d) for _ in range(k))]
        kl_r_q = float(np.sum(r * (np.log(r) - np.log(q_diag))))
        kl_r_p = float(np.sum(r * (np.log(r) - np.log(closed.probs))))
        kl_p_q = float(np.sum(closed.probs * (np.log(closed.probs) - np.log(q_diag))))
        pyth = abs(kl_r_q - kl_r_p - kl_p_q)
        if pyth > 1e-10:
            return f"pythagorean identity off by {pyth:.3e}"
        return self._check_projection(out)

    def _run_projection_product(self, p):
        i, shape, q = p
        closed = self.rec.call("simplex.m_project_product", simplex.m_project_product, q, shape)
        return closed, self._numeric(oracle.ProductFamily(shape), q, "right", i)

    def _check_projection_product(self, p, out):
        return self._check_projection(out)

    def _run_projection_consensus(self, p):
        i, tables = p
        closed = self.rec.call("simplex.consensus_geomean", simplex.consensus_geomean, tables)
        return closed, self._numeric(oracle.EqualCopies(len(tables)), tables, "left", i)

    def _check_projection_consensus(self, p, out):
        return self._check_projection(out)

    @staticmethod
    def _check_projection(out):
        closed, (best, starts) = out
        gap = _gap(closed.probs, best.probs)
        if gap > 1e-6:
            return f"closed form vs numeric projection {gap:.3e}"
        spread = _spread(starts)
        return None if spread <= 1e-8 else f"numeric starts spread {spread:.3e}"

    def _run_lipschitz(self, p):
        c, n_samples, seed = p
        return self.rec.call(
            "spn_reduce.lipschitz_probe", spn_reduce.lipschitz_probe, c, BOX, n_samples, seed
        )

    def _check_lipschitz(self, p, report):
        if report["all_pairs_ok"]:
            return None
        return f"sampled pair ratio {report['worst_pair_ratio']:.4f} beyond 1.05 L_hat"
