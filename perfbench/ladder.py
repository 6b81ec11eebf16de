"""One-shot size ladder for the traced run.

Reproduces the baseline points of the roadmap: flat 2-component mixtures of
250-2000 binary variables (build, validate, upward and downward pass), one
BP sweep on 10x10 and 20x20 ternary grids, and two-pass BP on stars of
100-1600 leaves.  Each step is reported as a time or as the error it
raised; a step after a failed one is reported as skipped.  Known defects
(the linear-domain upward pass and the variable-to-factor product both
underflow at the larger sizes) show here as errors, and are kept.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

from klbp import factorgraph as fgm
from klbp import spn

from . import builders

MIXTURE_VARS = (250, 500, 1000, 2000)
GRID_SIDES = (10, 20)
STAR_LEAVES = (100, 400, 1600)


def _steps(rec, prefix: str, steps) -> list:
    """Run ``(name, fn)`` steps in order; each ``fn`` reads and fills one dict."""
    points = []
    ctx: dict = {}
    failed = False
    for name, fn in steps:
        point = {"point": f"{prefix}.{name}"}
        if failed:
            point["error"] = "skipped: an earlier step failed"
        else:
            start = perf_counter_ns()
            try:
                with rec.span(f"ladder.{prefix}.{name}"):
                    fn(ctx)
            except Exception as exc:  # a failing size is a result, not a crash
                point["error"] = f"{type(exc).__name__}: {exc}"
                failed = True
            point["ms"] = (perf_counter_ns() - start) / 1e6
        points.append(point)
    return points


def _require_valid(circuit) -> None:
    if not spn.validate_spn(circuit)["valid"]:
        raise ValueError("ladder circuit failed validate_spn")


def run(seed: int, rec) -> list:
    points = []
    for n in MIXTURE_VARS:
        nodes, root = builders.flat_mixture(seed, n)
        lam = builders.soft_evidence(np.random.default_rng([seed, n]), n, builders.MIXTURE_STATES)
        points += _steps(
            rec,
            f"mixture{n}",
            [
                ("build", lambda ctx, nodes=nodes, root=root: ctx.update(c=spn.SpnCircuit(nodes, root))),
                ("validate", lambda ctx: _require_valid(ctx["c"])),
                ("upward", lambda ctx, lam=lam: ctx.update(S=spn.upward_pass(ctx["c"], spn.Evidence(lam)))),
                ("downward", lambda ctx: spn.downward_pass(ctx["c"], ctx["S"])),
            ],
        )
    for side in GRID_SIDES:
        fg = fgm.FactorGraph(*builders.grid(seed, side, hub=False))
        messages = fgm.uniform_messages(fg)
        points += _steps(rec, f"grid{side}", [("sweep", lambda ctx, fg=fg, m=messages: fgm.bp_sweep(fg, m))])
    for leaves in STAR_LEAVES:
        fg = fgm.FactorGraph(*builders.star(seed, leaves))
        points += _steps(rec, f"star{leaves}", [("bp_run_tree", lambda ctx, fg=fg: fgm.bp_run_tree(fg))])
    return points
