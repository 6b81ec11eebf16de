"""fg-loopy: loopy BP on a ternary grid with one hub joined to every cell.

The iterative use of ``klbp.factorgraph``.  Pairwise tables are fixed in
set-up; each operation draws fresh unary tables, builds the graph and runs
what ``klbp fg bp`` runs on a loopy graph: ``bp_run`` with the CLI's
defaults, ``bp_beliefs``, and the one-sweep fixed-point residual.
Low-degree cells and one high-degree hub share every sweep.

The sweep count is set mostly by the pairwise tables and moves in steps
of two, so one draw per seed would split seeds into clusters ~8% apart.
Set-up therefore draws GRIDS tables for the same graph, and operations
cycle through them.
"""

from __future__ import annotations

import numpy as np

from klbp import factorgraph as fgm

from . import builders

SIDE = 8
GRIDS = 4
TOL = 1e-10  # bp_run's default, as in ``klbp fg bp``
FIXED_POINT_TOL = max(10 * TOL, 1e-9)
NORM_TOL = 1e-12


class FgLoopy:
    name = "fg-loopy"
    min_rounds = 1

    def __init__(self, seed: int, rec, workdir=None):
        self.seed = seed
        self.rec = rec
        grids = [builders.grid(GRIDS * seed + g, SIDE) for g in range(GRIDS)]
        self.variables = grids[0][0]
        self.pairwise = [factors for _, factors in grids]
        self.n_edges = sum(len(f.vars) for f in self.pairwise[0]) + len(self.variables)
        self.static: dict = {}
        self.counters = {"sweeps": [], "messages": []}

    def warm_up(self) -> list:
        return [("solve", (0, self._tables(np.random.default_rng([self.seed, 2**31]))))]

    def close(self) -> None:
        pass

    def _tables(self, rng):
        return builders.unary_tables(rng, self.variables)

    def round(self, r: int) -> list:
        return [("solve", (r % GRIDS, self._tables(np.random.default_rng([self.seed, r]))))]

    def run(self, kind: str, payload):
        grid, tables = payload
        call = self.rec.call
        unary = [
            call("factorgraph.Factor", fgm.Factor, f"u:{v.id}", (v.id,), t)
            for v, t in zip(self.variables, tables)
        ]
        fg = call("factorgraph.FactorGraph", fgm.FactorGraph, self.variables, self.pairwise[grid] + unary)
        result = call("factorgraph.bp_run", fgm.bp_run, fg)
        beliefs = call("factorgraph.bp_beliefs", fgm.bp_beliefs, fg, result.state)
        with self.rec.span("bench.fixed_point"):
            resweep = call("factorgraph.bp_sweep", fgm.bp_sweep, fg, result.state, damping=0.0)
            residual = call("factorgraph.message_delta", fgm.message_delta, result.state, resweep)
        return {"result": result, "beliefs": beliefs, "residual": residual}

    def check(self, kind: str, payload, out):
        result = out["result"]
        self.counters["sweeps"].append(result.sweeps)
        self.counters["messages"].append(2 * self.n_edges * result.sweeps)
        if not result.converged:
            return f"no convergence after {result.sweeps} sweeps (delta {result.delta:.3e})"
        if not out["residual"] <= FIXED_POINT_TOL:
            return f"fixed-point residual {out['residual']:.3e}"
        for vid, b in out["beliefs"].items():
            if not (np.all(b > 0.0) and abs(float(b.sum()) - 1.0) <= NORM_TOL):
                return f"belief of {vid} is not a positive normalized vector"
        return None
