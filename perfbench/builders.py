"""Seeded scale instances built from klbp's public constructors only.

``klbp.generators`` caps circuits at desk scale (25 nodes); these builders
make the larger shapes the benchmark needs without touching it.  Every
builder is a pure function of its arguments.  Circuit builders return
``(nodes, root)`` so callers can time the ``SpnCircuit`` constructor on
its own.
"""

from __future__ import annotations

import numpy as np

from klbp.factorgraph import Factor, Variable
from klbp.spn import SpnNode

EVIDENCE_RANGE = (0.3, 1.0)  # the soft-evidence range klbp.generators.gen_spn uses
PAIRWISE_RANGE = (0.8, 1.25)  # log-symmetric; the spread of sweeps across seeds stays small
UNARY_RANGE = (0.3, 1.0)
MIXTURE_STATES = 2  # flat mixtures are binary
MIXTURE_COMPONENTS = 2
FG_STATES = 3  # grids and stars are ternary


class _CircuitNodes:
    """Node list with fresh ids and seeded normalized sum weights."""

    def __init__(self, rng):
        self.rng = rng
        self.nodes: list[SpnNode] = []

    def _add(self, prefix: str, kind: str, **kw) -> str:
        nid = f"{prefix}{len(self.nodes)}"
        self.nodes.append(SpnNode(nid, kind, **kw))
        return nid

    def leaf(self, var: str, state: int) -> str:
        return self._add("l", "leaf", var=var, state=state)

    def product(self, children) -> str:
        return self._add("p", "product", children=tuple(children))

    def sum(self, children) -> str:
        w = self.rng.uniform(0.3, 1.0, len(children))
        return self._add("s", "sum", children=tuple(children), weights=tuple(w / w.sum()))

    def categorical(self, var: str, states: int) -> str:
        """Sum over fresh indicator leaves of every state of ``var``."""
        return self.sum([self.leaf(var, t) for t in range(states)])

    def factorized(self, variables, states: int) -> str:
        """Product of one categorical per variable."""
        kids = [self.categorical(v, states) for v in variables]
        return kids[0] if len(kids) == 1 else self.product(kids)


def var_names(n_vars: int) -> list[str]:
    width = len(str(max(n_vars - 1, 0)))
    return [f"X{i:0{width}d}" for i in range(n_vars)]


def rat_spn(
    seed: int,
    *,
    n_vars: int = 128,
    states: int = 3,
    reps: int = 2,
    depth: int = 3,
    sums: int = 4,
    inputs: int = 4,
) -> tuple[list, str]:
    """RAT-SPN-style shared circuit (Peharz et al., UAI 2019).

    The root mixes ``reps`` repetitions.  Each repetition splits the
    variables at random into two halves, recursively, ``depth`` times.  A
    leaf region holds ``inputs`` fully factorized distributions over its
    variables; every inner region crosses its two children's nodes with
    products and mixes those products with ``sums`` sums (one at the
    repetition's top).  Products of an inner region share their children,
    so the circuit is a DAG.
    """
    if n_vars < 2 ** depth:
        raise ValueError(f"{n_vars} variables cannot be split {depth} times")
    rng = np.random.default_rng(seed)
    b = _CircuitNodes(rng)

    def region(variables, level: int, n_out: int) -> list[str]:
        if level == depth:
            return [b.factorized(variables, states) for _ in range(inputs)]
        perm = [variables[i] for i in rng.permutation(len(variables))]
        half = len(perm) // 2
        left = region(sorted(perm[:half]), level + 1, sums)
        right = region(sorted(perm[half:]), level + 1, sums)
        prods = [b.product((a, c)) for a in left for c in right]
        return [b.sum(prods) for _ in range(n_out)]

    tops = [region(var_names(n_vars), 0, 1)[0] for _ in range(reps)]
    root = b.sum(tops) if len(tops) > 1 else tops[0]
    return b.nodes, root


def flat_mixture(seed: int, n_vars: int) -> tuple[list, str]:
    """Mixture of fully factorized binary components, each with its own leaves."""
    rng = np.random.default_rng(seed)
    b = _CircuitNodes(rng)
    names = var_names(n_vars)
    comps = [b.factorized(names, MIXTURE_STATES) for _ in range(MIXTURE_COMPONENTS)]
    return b.nodes, b.sum(comps)


def soft_evidence(rng, n_vars: int, states: int) -> dict:
    """Raw soft evidence for ``var_names(n_vars)``, drawn from EVIDENCE_RANGE."""
    lam = rng.uniform(*EVIDENCE_RANGE, size=(n_vars, states))
    return dict(zip(var_names(n_vars), lam))


def grid(seed: int, side: int, *, hub: bool = True):
    """Ternary ``side`` x ``side`` grid of pairwise factors.

    With ``hub`` one extra variable joins every cell through its own
    pairwise factor.  Returns ``(variables, pairwise factors)``; unary
    tables are drawn per query by ``unary_tables``.
    """
    rng = np.random.default_rng(seed)
    cell = [[f"g{r:02d}_{c:02d}" for c in range(side)] for r in range(side)]
    variables = [Variable(v, FG_STATES) for row in cell for v in row]
    pairs = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                pairs.append((cell[r][c], cell[r][c + 1]))
            if r + 1 < side:
                pairs.append((cell[r][c], cell[r + 1][c]))
    if hub:
        variables.append(Variable("hub", FG_STATES))
        pairs += [("hub", v) for row in cell for v in row]
    factors = [
        Factor(f"f:{a}:{c}", (a, c), rng.uniform(*PAIRWISE_RANGE, size=(FG_STATES, FG_STATES)))
        for a, c in pairs
    ]
    return variables, factors


def unary_tables(rng, variables) -> list:
    """One fresh raw unary table per variable, drawn from UNARY_RANGE."""
    return [rng.uniform(*UNARY_RANGE, size=v.cardinality) for v in variables]


def star(seed: int, leaves: int):
    """Centre variable ``c`` joined to ``leaves`` leaf variables by pairwise factors."""
    rng = np.random.default_rng(seed)
    variables = [Variable("c", FG_STATES)] + [Variable(f"x{i}", FG_STATES) for i in range(leaves)]
    factors = [
        Factor(f"e{i}", ("c", f"x{i}"), rng.uniform(*PAIRWISE_RANGE, size=(FG_STATES, FG_STATES)))
        for i in range(leaves)
    ]
    return variables, factors
