"""spn-stream: one RAT-SPN-style circuit, a stream of fresh soft evidence.

The "one model, many queries" use of ``klbp.spn`` at a scale where its
cost shows.  Each operation copies the body of one of ``klbp spn
marginals``, ``spn eval``, ``spn gates`` or ``spn kkt`` without the
enumeration oracle, calling the public functions with their defaults (so
``upward_pass`` re-validates the circuit on every call, as the CLI does).
"""

from __future__ import annotations

import math

import numpy as np

from klbp import spn

from . import builders

N_VARS = 128
STATES = 3
# A round is a seeded shuffle of this mix.  Marginal queries are half of
# it and cost between eval and gates/kkt, so the median latency falls
# inside one kind's cluster instead of on the edge between two.  The
# ratio is set for that steadiness; it is not taken from measured traffic.
MIX = {"marginals": 4, "eval": 2, "gates": 1, "kkt": 1}

EULER_TOL = 1e-10
LOG_LINEAR_TOL = 1e-9
GATE_TOL = 1e-12
CLAMP_TOL = 1e-10


class SpnStream:
    name = "spn-stream"
    min_rounds = 1

    def __init__(self, seed: int, rec, workdir=None):
        self.seed = seed
        self.rec = rec
        nodes, root = builders.rat_spn(seed, n_vars=N_VARS, states=STATES)
        self.circuit = rec.call("spn.SpnCircuit", spn.SpnCircuit, nodes, root)
        report = rec.call("spn.validate_spn", spn.validate_spn, self.circuit)
        if not report["valid"]:
            raise RuntimeError("benchmark circuit failed validate_spn")
        fanins = [len(n.children) for n in self.circuit.nodes]
        self.static = {"nodes": len(self.circuit.nodes), "edges": sum(fanins), "max_fanin": max(fanins)}
        self.counters: dict = {}

    def warm_up(self) -> list:
        rng = np.random.default_rng([self.seed, 2**31])
        return [(kind, self._payload(rng, False)) for kind in MIX]

    def close(self) -> None:
        pass

    def _payload(self, rng, clamp: bool):
        lam = builders.soft_evidence(rng, N_VARS, STATES)
        var = builders.var_names(N_VARS)[int(rng.integers(N_VARS))] if clamp else None
        return lam, var

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        kinds = [k for k, count in MIX.items() for _ in range(count)]
        ops = []
        clamped = False  # the first marginals op of a round also checks the clamped route
        for i in rng.permutation(len(kinds)):
            kind = kinds[i]
            clamp = kind == "marginals" and not clamped
            clamped = clamped or clamp
            ops.append((kind, self._payload(rng, clamp)))
        return ops

    def run(self, kind: str, payload):
        lam, _ = payload
        c, call = self.circuit, self.rec.call
        e = call("spn.Evidence", spn.Evidence, lam)
        if kind == "kkt" and not e.is_soft():
            raise ValueError("multiplier extraction needs soft (positive) evidence")
        S = call("spn.upward_pass", spn.upward_pass, c, e)
        if kind == "eval":
            logs = call("spn.upward_pass_log", spn.upward_pass_log, c, e, check=False)
            return {"e": e, "S": S, "log_root": logs[c.root]}
        D = call("spn.downward_pass", spn.downward_pass, c, S)
        out = {"e": e, "S": S, "D": D}
        if kind == "marginals":
            out["arrays"] = call("spn.marginal_arrays", spn.marginal_arrays, c, e, S, D)
        elif kind == "gates":
            out["gates"] = call("spn.gate_report", spn.gate_report, c, S, D)
        else:
            out["kkt"] = call("spn.kkt_multipliers", spn.kkt_multipliers, c, S, D)
        return out

    def check(self, kind: str, payload, out):
        """None when the output is right, else the reason it is not."""
        c = self.circuit
        root = out["S"].values[c.root]
        if not root > 0.0:
            return f"root value {root!r} is not positive"
        if kind == "eval":
            rel = abs(math.exp(out["log_root"]) - root) / root
            return None if rel <= LOG_LINEAR_TOL else f"log/linear root gap {rel:.3e}"
        if kind == "marginals":
            return self._check_marginals(payload, out)
        if kind == "gates":
            norm = glob = 0.0
            for gate in out["gates"].values():
                norm = max(norm, abs(float(gate["b"].sum()) - 1.0))
                glob = max(glob, float(np.abs(gate["global"] - gate["pi"] * gate["b"]).max()))
            if norm > GATE_TOL or glob > GATE_TOL:
                return f"gate normalization {norm:.3e}, global factorization {glob:.3e}"
            return None
        kkt = out["kkt"]
        if not all(0.0 < v <= 1.0 + 1e-12 for v in kkt["pi"].values()):
            return "visit probability outside (0, 1]"
        if not all(v > 0.0 for v in kkt["mu"].values()):
            return "edge multiplier not positive"
        return None

    def _check_marginals(self, payload, out):
        c, e, S, D, arrays = self.circuit, out["e"], out["S"], out["D"], out["arrays"]
        euler = max(spn.euler_residuals(c, e, S, D).values())
        if euler > EULER_TOL:
            return f"euler residual {euler:.3e}"
        norm = max(abs(float(a.sum()) - 1.0) for a in arrays.values())
        if norm > EULER_TOL:
            return f"marginals sum to 1 within {norm:.3e} only"
        _, var = payload
        if var is None:
            return None
        # P(X=t|e) = S(e with lambda_X clamped to t) / S(e)
        root = S.values[c.root]
        for t in range(c.cardinality(var)):
            lam = dict(e.lam)
            clamped = np.zeros_like(lam[var])
            clamped[t] = lam[var][t]
            lam[var] = clamped
            Sc = spn.upward_pass(c, spn.Evidence(lam), check=False, allow_zero_root=True)
            gap = abs(Sc.values[c.root] / root - arrays[var][t])
            if gap > CLAMP_TOL:
                return f"clamped-evidence route differs by {gap:.3e} at {var}={t}"
        return None
