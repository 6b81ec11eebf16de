import itertools

import numpy as np
import pytest

from klbp.errors import SchemaError, ValidationError
from klbp.factorgraph import (
    MessageState,
    _Layout,
    Factor,
    FactorGraph,
    Variable,
    bp_beliefs,
    bp_run,
    bp_run_tree,
    bp_sweep,
    fg_from_json,
    fg_to_json,
    message_delta,
    require_positive_tables,
    uniform_messages,
    validate_fg,
)
from klbp.generators import gen_fg
from klbp.oracle import enumerate_fg_marginals
from perfbench import builders


def chain_graph(rng, n_vars=4, card=3):
    variables = [Variable(f"x{i}", card) for i in range(n_vars)]
    factors = [
        Factor("u0", ("x0",), rng.uniform(0.2, 1.0, size=card)),
    ]
    for i in range(n_vars - 1):
        factors.append(
            Factor(
                f"p{i}",
                (f"x{i}", f"x{i+1}"),
                rng.uniform(0.2, 1.0, size=(card, card)),
            )
        )
    return FactorGraph(variables, factors)


def star_graph(rng, n_leaves=4, card=2):
    variables = [Variable("hub", card)] + [
        Variable(f"leaf{i}", card) for i in range(n_leaves)
    ]
    factors = [
        Factor(f"e{i}", ("hub", f"leaf{i}"), rng.uniform(0.1, 1.0, size=(card, card)))
        for i in range(n_leaves)
    ]
    return FactorGraph(variables, factors)


def cycle_graph(rng, card=2):
    variables = [Variable(f"c{i}", card) for i in range(3)]
    factors = []
    for i in range(3):
        a, b = f"c{i}", f"c{(i + 1) % 3}"
        factors.append(Factor(f"e{i}", (a, b), rng.uniform(0.5, 1.5, size=(card, card))))
    return FactorGraph(variables, factors)


# ------------------------------------------------------------ validation


def test_factor_validation():
    with pytest.raises(ValidationError):
        Factor("f", ("a", "a"), np.ones((2, 2)))
    with pytest.raises(ValidationError):
        Factor("f", ("a",), np.array([1.0, -0.5]))
    with pytest.raises(ValidationError):
        Factor("f", ("a",), np.zeros(2))


def test_factor_table_faults_keep_their_messages():
    bad = r"^factor 'f': table entries must be finite and nonnegative$"
    for table in ([1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf], [-0.5, 2.0], [np.nan, -1.0]):
        with pytest.raises(ValidationError, match=bad):
            Factor("f", ("a",), table)
    for table in (np.zeros((2, 3)), np.zeros(0)):
        with pytest.raises(ValidationError, match=r"^factor 'f': table is identically zero$"):
            Factor("f", ("a", "b")[: table.ndim], table)
    assert Factor("f", ("a",), [-0.0, 1.0]).table.tolist() == [-0.0, 1.0]
    # finite entries whose sum overflows are accepted
    assert Factor("f", ("a",), [1e308, 1e308]).table.tolist() == [1e308, 1e308]


def test_graph_validation():
    v = [Variable("a", 2)]
    with pytest.raises(ValidationError):
        FactorGraph(v, [Factor("f", ("b",), np.ones(2))])
    with pytest.raises(ValidationError):
        FactorGraph(v, [Factor("f", ("a",), np.ones(3))])
    with pytest.raises(ValidationError):
        FactorGraph(v + [Variable("a", 2)], [])


def test_validation_report():
    fg = FactorGraph(
        [Variable("a", 2)], [Factor("f", ("a",), np.array([1.0, 0.0]))]
    )
    report = validate_fg(fg)
    assert not report["positive"]
    assert report["zero_entries"] == [("f", 1)]
    assert report["connected"]
    with pytest.raises(ValidationError):
        require_positive_tables(fg)
    clean = FactorGraph(
        [Variable("a", 2), Variable("b", 2)],
        [Factor("f", ("a",), np.array([1.0, 2.0]))],
    )
    clean_report = validate_fg(clean)
    assert clean_report["positive"]
    assert clean_report["n_components"] == 2
    assert not clean_report["connected"]


# -------------------------------------------------------------- tree BP


def test_tree_bp_exact_on_chains():
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        fg = chain_graph(rng)
        state = bp_run_tree(fg)
        beliefs = bp_beliefs(fg, state)
        exact = enumerate_fg_marginals(fg)
        for vid in exact:
            np.testing.assert_allclose(beliefs[vid], exact[vid], atol=1e-12)


def test_tree_bp_exact_on_stars():
    for seed in range(4):
        rng = np.random.default_rng(200 + seed)
        fg = star_graph(rng)
        beliefs = bp_beliefs(fg, bp_run_tree(fg))
        exact = enumerate_fg_marginals(fg)
        for vid in exact:
            np.testing.assert_allclose(beliefs[vid], exact[vid], atol=1e-12)


def test_tree_bp_with_hard_evidence():
    rng = np.random.default_rng(300)
    variables = [Variable("x", 2), Variable("y", 3)]
    factors = [
        Factor("joint", ("x", "y"), rng.uniform(0.1, 1.0, size=(2, 3))),
        Factor("clamp", ("y",), np.array([0.0, 1.0, 0.0])),
    ]
    fg = FactorGraph(variables, factors)
    beliefs = bp_beliefs(fg, bp_run_tree(fg))
    exact = enumerate_fg_marginals(fg)
    np.testing.assert_allclose(beliefs["x"], exact["x"], atol=1e-12)
    np.testing.assert_allclose(beliefs["y"], [0.0, 1.0, 0.0], atol=1e-15)


def test_tree_bp_rejects_cycles():
    fg = cycle_graph(np.random.default_rng(1))
    with pytest.raises(ValidationError):
        bp_run_tree(fg)


def test_isolated_variable_is_uniform():
    fg = FactorGraph(
        [Variable("a", 2), Variable("lonely", 4)],
        [Factor("f", ("a",), np.array([0.3, 0.7]))],
    )
    beliefs = bp_beliefs(fg, bp_run_tree(fg))
    np.testing.assert_allclose(beliefs["lonely"], np.full(4, 0.25), atol=1e-15)


def star_marginals_in_logs(fg):
    """Closed-form marginals of a star whose factors are (centre, leaf) tables."""
    tables = np.stack([f.table for f in fg.factors])  # (leaves, centre, leaf)
    to_centre = np.log(tables.sum(axis=2))
    total = to_centre.sum(axis=0)
    centre = np.exp(total - total.max())
    others = total - to_centre
    weights = np.exp(others - others.max(axis=1, keepdims=True))
    leaves = np.einsum("lc,lcx->lx", weights, tables)
    out = {fg.variables[0].id: centre / centre.sum()}
    for f, leaf in zip(fg.factors, leaves):
        out[f.vars[1]] = leaf / leaf.sum()
    return out


def test_bp_on_a_1600_leaf_star_does_not_underflow():
    fg = FactorGraph(*builders.star(0, 1600))
    exact = star_marginals_in_logs(fg)
    assert exact["c"].min() > 1e-3  # no state of the centre is negligible
    for state in (bp_run_tree(fg), bp_run(fg).state):
        beliefs = bp_beliefs(fg, state)
        assert beliefs.keys() == exact.keys()
        for vid in exact:
            np.testing.assert_allclose(beliefs[vid], exact[vid], atol=1e-12)


def wide_factor_graph(arity, seed=1000):
    """A factor over ``arity`` variables, all of cardinality 1 but the last two."""
    rng = np.random.default_rng(seed)
    cards = [1] * (arity - 2) + [2, 3]
    names = [f"w{i:02d}" for i in range(arity)]
    variables = [Variable(n, c) for n, c in zip(names, cards)] + [Variable("t", 2)]
    factors = [
        Factor("wide", tuple(names), rng.uniform(0.2, 1.0, size=cards)),
        Factor("u", (names[-2],), rng.uniform(0.2, 1.0, size=2)),
        Factor("pair", (names[-1], "t"), rng.uniform(0.2, 1.0, size=(3, 2))),
    ]
    return FactorGraph(variables, factors)


def test_tree_bp_through_a_30_ary_factor():
    fg = wide_factor_graph(30)
    beliefs = bp_beliefs(fg, bp_run_tree(fg))
    exact = enumerate_fg_marginals(fg)
    for vid in exact:
        np.testing.assert_allclose(beliefs[vid], exact[vid], atol=1e-12)


def test_bp_through_a_52_ary_factor():
    fg = wide_factor_graph(52)
    exact = enumerate_fg_marginals(fg)
    for state in (bp_run_tree(fg), bp_run(fg).state):
        beliefs = bp_beliefs(fg, state)
        for vid in exact:
            np.testing.assert_allclose(beliefs[vid], exact[vid], atol=1e-12)


def test_a_53_ary_factor_is_rejected_by_name():
    fg = wide_factor_graph(53)
    for run in (bp_run_tree, bp_run):
        with pytest.raises(ValidationError, match="factor 'wide'"):
            run(fg)


def test_tree_bp_names_the_vanished_message():
    # two unary factors on a allow no common state
    fg = FactorGraph(
        [Variable("a", 2), Variable("b", 3)],
        [
            Factor("g", ("a",), [1.0, 0.0]),
            Factor("k", ("a",), [0.0, 1.0]),
            Factor("h", ("a", "b"), np.ones((2, 3))),
        ],
    )
    vanished = r"^message a->h vanished \(contradictory constraints\)$"
    with pytest.raises(ValidationError, match=vanished):
        bp_run_tree(fg)


# ------------------------------------------------------------- loopy BP


def test_loopy_converges_to_fixed_point():
    rng = np.random.default_rng(500)
    fg = cycle_graph(rng)
    result = bp_run(fg, tol=1e-10)
    assert result.converged
    assert result.delta <= 1e-10
    again = bp_sweep(fg, result.state)
    assert message_delta(again, result.state) <= 1e-9


def test_loopy_damping_reaches_same_beliefs():
    rng = np.random.default_rng(600)
    fg = cycle_graph(rng)
    plain = bp_beliefs(fg, bp_run(fg).state)
    damped = bp_beliefs(fg, bp_run(fg, damping=0.4).state)
    for vid in plain:
        np.testing.assert_allclose(damped[vid], plain[vid], atol=1e-8)


def test_loopy_respects_sweep_cap():
    fg = cycle_graph(np.random.default_rng(700))
    result = bp_run(fg, tol=0.0, max_sweeps=7)
    assert result.sweeps == 7
    assert not result.converged


def test_bad_damping_rejected():
    fg = cycle_graph(np.random.default_rng(800))
    state = bp_run(fg, max_sweeps=1).state
    with pytest.raises(ValidationError):
        bp_sweep(fg, state, damping=1.0)


def test_bp_run_rejects_bad_sweep_caps_and_tolerances():
    fg = cycle_graph(np.random.default_rng(800))
    for cap in (0, -3):
        with pytest.raises(ValidationError, match="max_sweeps"):
            bp_run(fg, max_sweeps=cap)
    for tol in (-1e-12, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError, match="tol"):
            bp_run(fg, tol=tol)
    assert bp_run(fg, tol=0.0, max_sweeps=1).sweeps == 1


def test_loopy_bp_names_the_first_vanished_message_in_edge_order():
    # hard zeros in pairwise and unary factors force a = 1 and a = 0, and
    # c = 1 and c = 0; the messages a->ca and c->ca vanish in the same sweep
    fg = FactorGraph(
        [Variable("a", 2), Variable("b", 2), Variable("c", 2)],
        [
            Factor("ca", ("c", "a"), np.ones((2, 2))),
            Factor("ab", ("a", "b"), [[0.0, 0.0], [1.0, 1.0]]),
            Factor("bc", ("b", "c"), [[0.0, 1.0], [0.0, 1.0]]),
            Factor("ua", ("a",), [1.0, 0.0]),
            Factor("uc", ("c",), [1.0, 0.0]),
        ],
    )
    vanished = r"^message c->ca vanished \(contradictory constraints\)$"
    for damping in (0.0, 0.3):
        with pytest.raises(ValidationError, match=vanished):
            bp_run(fg, damping=damping)


def test_a_damped_message_failure_names_its_edge():
    fg = FactorGraph([Variable("a", 2)], [Factor("u", ("a",), [0.0, 1.0])])
    # the old message has no state in common with the fresh one
    state = MessageState(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    vanished = r"^damped message u->a vanished \(contradictory constraints\)$"
    with pytest.raises(ValidationError, match=vanished):
        bp_sweep(fg, state, damping=0.5)


def test_a_sweep_names_the_factor_message_and_the_tree_the_variable_message():
    # u and w on a allow no common state, and g's row a=0 is all zeros
    fg = FactorGraph(
        [Variable("a", 2), Variable("b", 2)],
        [
            Factor("u", ("a",), [1.0, 0.0]),
            Factor("w", ("a",), [0.0, 1.0]),
            Factor("g", ("a", "b"), [[0.0, 0.0], [1.0, 1.0]]),
        ],
    )
    assert fg.is_forest()
    # edges u-a, w-a, g-a, g-b; the sweep sends g->b = 0 from a->g = [1, 0]
    # and a->g = 0 from u->a = [1, 0] and w->a = [0, 1]
    to_var = np.array([1.0, 0.0, 0.0, 1.0, 0.5, 0.5, 0.5, 0.5])
    to_factor = np.array([0.5, 0.5, 0.5, 0.5, 1.0, 0.0, 0.5, 0.5])
    for damping in (0.0, 0.3):
        with pytest.raises(ValidationError, match=r"^message g->b vanished"):
            bp_sweep(fg, MessageState(to_var, to_factor), damping=damping)
    # the two-pass schedule sends a->w = u->a g->a = 0, a->g = 0 and g->b = 0
    with pytest.raises(ValidationError, match=r"^message a->w vanished"):
        bp_run_tree(fg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bp_names_an_overflowed_message():
    # u's message sums to 2e308: it overflowed, it did not vanish
    overflowing = Factor("u", ("a",), [1e308, 1e308])
    chain = [Factor("h", ("a", "b"), [[1.0, 2.0], [3.0, 4.0]]), Factor("k", ("b", "c"), np.ones((2, 2)))]
    cycle = [*chain, Factor("ca", ("c", "a"), np.ones((2, 2)))]
    variables = [Variable("a", 2), Variable("b", 2), Variable("c", 2)]
    tree = FactorGraph(variables, [overflowing, *chain])
    loopy = FactorGraph(variables, [overflowing, *cycle])
    for run, fg in ((bp_run_tree, tree), (bp_run, loopy)):
        with pytest.raises(ValidationError, match=r"^message u->a overflowed$"):
            run(fg)


def reference_sweep(fg, state, damping=0.0):
    """One flooding sweep edge by edge, with a plain einsum per factor message."""
    edges = fg.edges()
    off = np.cumsum([0] + [fg.cardinality(v) for _, v in edges])
    slot = {edge: slice(off[e], off[e + 1]) for e, edge in enumerate(edges)}
    factor_of = {f.id: f for f in fg.factors}
    to_var = np.empty_like(state.to_var)
    to_factor = np.empty_like(state.to_factor)
    with np.errstate(divide="ignore"):
        for fid, vid in edges:
            f = factor_of[fid]
            operands = [f.table, list(range(len(f.vars)))]
            for q, u in enumerate(f.vars):
                if u != vid:
                    operands += [state.to_factor[slot[fid, u]], [q]]
            msg = np.einsum(*operands, [f.vars.index(vid)])
            to_var[slot[fid, vid]] = msg / msg.sum()
            logs = np.zeros(fg.cardinality(vid))
            for gid, u in edges:
                if u == vid and gid != fid:
                    logs += np.log(state.to_var[slot[gid, u]])
            msg = np.exp(logs - logs.max())
            to_factor[slot[fid, vid]] = msg / msg.sum()
        if damping:
            for new, old in ((to_var, state.to_var), (to_factor, state.to_factor)):
                for s in slot.values():
                    mixed = damping * np.log(old[s]) + (1.0 - damping) * np.log(new[s])
                    msg = np.exp(mixed - mixed.max())
                    new[s] = msg / msg.sum()
    return MessageState(to_var, to_factor)


def mixed_graph(rng, forest=False, zeros=()):
    """Arity-3 factors, one (2, 2) shape over different variable orders, and
    cardinality-1 axes; ``forest`` drops the factors that close cycles, and
    each (factor id, index) of ``zeros`` sets those table entries to 0."""
    cards = {"a": 2, "b": 2, "c": 3, "d": 1, "e": 2, "s": 1}
    tables = [
        ("abc", ("a", "b", "c")),
        ("ba", ("b", "a")),
        ("ae", ("a", "e")),
        ("cde", ("c", "d", "e")),
        ("eb", ("e", "b")),
        ("sd", ("s", "d")),
        ("us", ("s",)),
        ("uc", ("c",)),
        ("ced", ("c", "e", "d")),
    ]
    if forest:
        tables = [t for t in tables if t[0] not in ("ba", "cde", "eb", "ced")]
    variables = [Variable(v, c) for v, c in cards.items()]
    factors = []
    for fid, vs in tables:
        table = rng.uniform(0.2, 1.0, size=[cards[v] for v in vs])
        for zfid, index in zeros:
            if zfid == fid:
                table[index] = 0.0
        factors.append(Factor(fid, vs, table))
    return FactorGraph(variables, factors)


# hard zeros at the ternary variable c: from uc alone, from uc and abc in
# different states, and from both in the same state
PLANTED_ZEROS = (
    [("uc", (0,))],
    [("uc", (0,)), ("abc", (..., 1))],
    [("uc", (0,)), ("abc", (..., 0))],
)


def _assert_sweep_matches_reference(fg, damping, atol=1e-15):
    state = uniform_messages(fg)
    for _ in range(4):
        fast = bp_sweep(fg, state, damping=damping)
        slow = reference_sweep(fg, state, damping)
        np.testing.assert_allclose(fast.to_var, slow.to_var, rtol=0, atol=atol)
        np.testing.assert_allclose(fast.to_factor, slow.to_factor, rtol=0, atol=atol)
        state = fast


def test_sweep_matches_a_per_edge_reference():
    for damping in (0.0, 0.3):
        for seed in range(50):
            for kind in ("tree", "cycle"):
                _assert_sweep_matches_reference(gen_fg(seed, kind=kind), damping)
        for seed in range(5):
            _assert_sweep_matches_reference(mixed_graph(np.random.default_rng(seed)), damping)


def test_sweep_matches_the_reference_with_hard_zeros():
    for damping in (0.0, 0.3):
        for zeros in PLANTED_ZEROS:
            for seed in range(3):
                fg = mixed_graph(np.random.default_rng(seed), zeros=zeros)
                _assert_sweep_matches_reference(fg, damping)


def test_sweep_matches_the_reference_on_a_grid_with_a_hub_and_hard_zeros():
    # 8x8 ternary grid, the hub joined to every cell: the hub has degree 65
    variables, pairwise = builders.grid(3, 8)
    tables = builders.unary_tables(np.random.default_rng(3), variables)
    for k in range(0, len(tables), 5):
        tables[k][k % 3] = 0.0
    tables[-1][1] = 0.0
    unary = [Factor(f"u:{v.id}", (v.id,), t) for v, t in zip(variables, tables)]
    fg = FactorGraph(variables, pairwise + unary)
    assert len(fg.neighbors("hub")) == 65
    for damping in (0.0, 0.3):
        _assert_sweep_matches_reference(fg, damping, atol=1e-13)


def reference_run(fg, tol=1e-10):
    """``bp_run`` with the per-edge reference sweep."""
    cards = [fg.cardinality(v) for _, v in fg.edges()]
    flat = 1.0 / np.repeat(cards, cards)
    state = MessageState(flat, flat)
    for sweep in itertools.count(1):
        new = reference_sweep(fg, state)
        gaps = [np.abs(new.to_var - state.to_var), np.abs(new.to_factor - state.to_factor)]
        state = new
        if max(gap.max() for gap in gaps) <= tol:
            return state, sweep


def reference_beliefs(fg, state):
    edges = fg.edges()
    off = np.cumsum([0] + [fg.cardinality(v) for _, v in edges])
    beliefs = {v.id: np.ones(v.cardinality) for v in fg.variables}
    for e, (_, vid) in enumerate(edges):
        beliefs[vid] = beliefs[vid] * state.to_var[off[e] : off[e + 1]]
    return {vid: b / b.sum() for vid, b in beliefs.items()}


def test_bp_run_matches_the_reference_run_on_generated_graphs():
    # the engine and the reference sum in different orders: the bound is
    # fixed in advance, a few units in the last place of a unit-sum vector
    atol = 1e-14
    for seed in range(200):
        for kind in ("tree", "cycle"):
            fg = gen_fg(seed, kind=kind)
            result = bp_run(fg)
            slow, sweeps = reference_run(fg)
            assert result.converged and result.sweeps == sweeps, (seed, kind)
            np.testing.assert_allclose(result.state.to_var, slow.to_var, rtol=0, atol=atol)
            np.testing.assert_allclose(result.state.to_factor, slow.to_factor, rtol=0, atol=atol)
            fast_b, slow_b = bp_beliefs(fg, result.state), reference_beliefs(fg, slow)
            for vid in slow_b:
                np.testing.assert_allclose(fast_b[vid], slow_b[vid], rtol=0, atol=atol)


def test_a_hand_built_state_acts_as_a_buffer_backed_one():
    fg = mixed_graph(np.random.default_rng(7), zeros=PLANTED_ZEROS[1])
    state = bp_sweep(fg, bp_sweep(fg, uniform_messages(fg)))
    hand = MessageState(state.to_var.copy(), state.to_factor.copy())
    assert message_delta(hand, state) == 0.0
    for damping in (0.0, 0.3):
        fast, slow = bp_sweep(fg, state, damping=damping), bp_sweep(fg, hand, damping=damping)
        np.testing.assert_array_equal(fast.to_var, slow.to_var)
        np.testing.assert_array_equal(fast.to_factor, slow.to_factor)
        assert message_delta(fast, state) == message_delta(slow, hand) > 0.0
    for got, want in zip(bp_beliefs(fg, hand).values(), bp_beliefs(fg, state).values()):
        np.testing.assert_array_equal(got, want)
    # a sweep's result is new memory; its two halves are views of it
    before = state.to_var.copy(), state.to_factor.copy()
    new = bp_sweep(fg, state)
    new.to_var[:] = 7.0
    new.to_factor[:] = 7.0
    np.testing.assert_array_equal(state.to_var, before[0])
    np.testing.assert_array_equal(state.to_factor, before[1])
    sevens = MessageState(np.full_like(new.to_var, 7.0), np.full_like(new.to_factor, 7.0))
    assert message_delta(new, sevens) == 0.0


def reference_var_groups(lay, members):
    """The variable groups' index arrays, built one variable at a time."""
    groups = []
    for vs in members:
        slots, rows, cuts, lens, n_rows = [], [], [], [], 0
        for i in vs:
            card = lay.cards[i]
            for e in lay.around[i]:
                cuts.append(len(slots))
                lens.append(card)
                slots += range(lay.off[e], lay.off[e] + card)
                rows += range(n_rows, n_rows + card)
            n_rows += card
        groups.append((slots, rows, n_rows, cuts, lens))
    return groups


def test_variable_groups_match_a_per_variable_build(monkeypatch):
    built = []  # (members, groups) of every build

    def build(lay, members):
        groups = compile_groups(lay, members)
        built.append((members, groups))
        return groups

    compile_groups = _Layout._var_groups
    monkeypatch.setattr(_Layout, "_var_groups", build)
    variables, pairwise = builders.grid(3, 8)
    graphs = [FactorGraph(variables, pairwise), mixed_graph(np.random.default_rng(0))]
    graphs += [gen_fg(seed, kind="tree") for seed in range(20)]
    graphs += [mixed_graph(np.random.default_rng(0), forest=True)]
    for fg in graphs:
        lay = fg._layout
        built.clear()
        assert lay.flood is built[0][1][0]
        if fg.is_forest():
            steps = {id(g) for g in lay.tree_steps}
            assert {id(g) for g in built[-1][1]} <= steps
        # members in any order, and a group of no variables
        build(lay, [list(range(lay.n_vars))[::-2], [], list(range(lay.n_vars))[-2::-2]])
        for members, groups in built:
            want = reference_var_groups(lay, members)
            assert len(groups) == len(want)
            for group, (slots, rows, n_rows, cuts, lens) in zip(groups, want):
                np.testing.assert_array_equal(group.slots, slots)
                np.testing.assert_array_equal(group.rows, rows)
                assert group.n_rows == n_rows
                np.testing.assert_array_equal(group.cuts, cuts)
                np.testing.assert_array_equal(group.message, np.repeat(np.arange(len(lens)), lens))


def test_tree_bp_on_the_mixed_forest_matches_the_oracle():
    for seed in range(5):
        for zeros in ((), *PLANTED_ZEROS):
            fg = mixed_graph(np.random.default_rng(seed), forest=True, zeros=zeros)
            assert fg.is_forest()
            beliefs = bp_beliefs(fg, bp_run_tree(fg))
            exact = enumerate_fg_marginals(fg)
            for vid in exact:
                np.testing.assert_allclose(beliefs[vid], exact[vid], atol=1e-12)


def test_loopy_bp_does_not_walk_the_graph():
    fg = cycle_graph(np.random.default_rng(500))
    bp_beliefs(fg, bp_run(fg).state)
    assert "order" not in vars(fg._layout)
    assert not fg.is_forest()
    assert validate_fg(fg)["n_components"] == 1


# ----------------------------------------------------------------- JSON


def test_json_roundtrip():
    rng = np.random.default_rng(900)
    fg = chain_graph(rng, n_vars=3)
    back = fg_from_json(fg_to_json(fg))
    assert [v.id for v in back.variables] == [v.id for v in fg.variables]
    for f_old, f_new in zip(fg.factors, back.factors):
        assert f_old.vars == f_new.vars
        np.testing.assert_allclose(f_new.table, f_old.table, atol=0)
    old_b = bp_beliefs(fg, bp_run_tree(fg))
    new_b = bp_beliefs(back, bp_run_tree(back))
    for vid in old_b:
        np.testing.assert_allclose(new_b[vid], old_b[vid], atol=1e-15)


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        fg_from_json([])
    with pytest.raises(SchemaError):
        fg_from_json({"variables": []})
    with pytest.raises(SchemaError):
        fg_from_json({"variables": [{"id": "a"}], "factors": []})
    with pytest.raises(SchemaError):
        fg_from_json(
            {
                "variables": [{"id": "a", "cardinality": 2}],
                "factors": [{"id": "f", "vars": ["a"], "table": [1.0, 2.0, 3.0]}],
            }
        )


def test_variable_cardinality_must_be_a_whole_number():
    for card in (3.5, True, "2"):
        with pytest.raises(ValidationError, match=f"variable 'x': cardinality {card!r} is not"):
            Variable("x", card)
    assert Variable("x", 3.0).cardinality == 3 and type(Variable("x", 3.0).cardinality) is int


def test_json_cardinality_must_be_a_whole_number():
    for card in (3.5, True, "2", None, float("nan")):
        obj = {"variables": [{"id": "a", "cardinality": 2}, {"id": "z", "cardinality": card}],
               "factors": []}
        with pytest.raises(SchemaError, match=r"'id': 'z'.*is not a whole number"):
            fg_from_json(obj)
    obj = {"variables": [{"id": "a", "cardinality": 3.0}], "factors": []}
    assert fg_from_json(obj).cardinality("a") == 3
