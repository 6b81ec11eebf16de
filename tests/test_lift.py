import itertools
import tracemalloc

import numpy as np
import pytest

from klbp import generators, lift
from klbp.errors import BudgetError, ValidationError
from klbp.factorgraph import Factor, FactorGraph, Variable, bp_beliefs, bp_run, bp_run_tree
from klbp.lift import (
    WrState,
    consensus_project,
    diagonal_restrict,
    extract_joint,
    replicate_lift,
    t_proj,
    wr_beliefs,
    wr_init,
    wr_run,
    wr_step,
)
from klbp.oracle import enumerate_fg_marginals
from klbp.simplex import (
    DistVec,
    JointShape,
    Mahalanobis,
    NegativeEntropy,
    m_project_blocks,
    m_project_product,
    softmax,
)

ENTROPY = NegativeEntropy()


def chain_graph(rng, n_vars=3, card=2):
    variables = [Variable(f"x{i}", card) for i in range(n_vars)]
    factors = [Factor("u0", ("x0",), rng.uniform(0.2, 1.0, size=card))]
    for i in range(n_vars - 1):
        factors.append(
            Factor(
                f"p{i}",
                (f"x{i}", f"x{i+1}"),
                rng.uniform(0.2, 1.0, size=(card, card)),
            )
        )
    return FactorGraph(variables, factors)


def random_tree(rng, n_vars):
    """Random tree via random parent links, pairwise factors, one unary."""
    cards = rng.integers(2, 4, size=n_vars)
    variables = [Variable(f"v{i}", int(cards[i])) for i in range(n_vars)]
    factors = [Factor("root", ("v0",), rng.uniform(0.3, 1.0, size=int(cards[0])))]
    for i in range(1, n_vars):
        parent = int(rng.integers(0, i))
        factors.append(
            Factor(
                f"e{i}",
                (f"v{parent}", f"v{i}"),
                rng.uniform(0.3, 1.0, size=(int(cards[parent]), int(cards[i]))),
            )
        )
    return FactorGraph(variables, factors)


def cycle_graph(rng, card=2):
    variables = [Variable(f"c{i}", card) for i in range(3)]
    factors = [
        Factor(
            f"e{i}",
            (f"c{i}", f"c{(i + 1) % 3}"),
            rng.uniform(0.5, 1.5, size=(card, card)),
        )
        for i in range(3)
    ]
    return FactorGraph(variables, factors)


def gibbs_joint(fg):
    sizes = tuple(v.cardinality for v in fg.variables)
    pos = {v.id: i for i, v in enumerate(fg.variables)}
    joint = np.ones(sizes)
    for fac in fg.factors:
        axes = tuple(pos[v] for v in fac.vars)
        order = np.argsort(axes)
        expand = [1] * len(sizes)
        for a in axes:
            expand[a] = sizes[a]
        joint = joint * np.transpose(fac.table, order).reshape(expand)
    return joint.reshape(-1) / joint.sum()


# ------------------------------------------------------------ lift shape


def test_lift_structure_chain():
    fg = chain_graph(np.random.default_rng(0))
    space = replicate_lift(fg)
    assert space.axes == (
        ("u0", "x0"),
        ("p0", "x0"),
        ("p0", "x1"),
        ("p1", "x1"),
        ("p1", "x2"),
    )
    assert space.factor_blocks == ((0,), (1, 2), (3, 4))
    assert space.var_groups == ((0, 1), (2, 3), (4,))
    assert space.ident_vars == ("x0", "x1", "x2")


def test_lift_reference_is_tensor_product():
    fg = chain_graph(np.random.default_rng(1))
    space = replicate_lift(fg)
    manual = np.ones(())
    for fac in fg.factors:
        manual = np.multiply.outer(manual, fac.table / fac.table.sum())
    np.testing.assert_allclose(space.q_init.probs, manual.reshape(-1), atol=1e-12)


def test_lift_rejects_zero_tables():
    fg = FactorGraph(
        [Variable("a", 2)], [Factor("f", ("a",), np.array([1.0, 0.0]))]
    )
    with pytest.raises(ValidationError):
        replicate_lift(fg)


def test_lift_budget():
    variables = [Variable(f"z{i}", 4) for i in range(13)]
    factors = [
        Factor(f"e{i}", (f"z{i}", f"z{i+1}"), np.full((4, 4), 0.5))
        for i in range(12)
    ]
    with pytest.raises(BudgetError):
        replicate_lift(FactorGraph(variables, factors))


def one_state_chain(n_factors):
    # n_factors pairwise factors along a chain of one-state variables:
    # 2 * n_factors replica axes, one lifted entry
    variables = [Variable(f"v{i}", 1) for i in range(n_factors + 1)]
    factors = [
        Factor(f"e{i}", (f"v{i}", f"v{i+1}"), np.ones((1, 1))) for i in range(n_factors)
    ]
    return FactorGraph(variables, factors)


def test_lift_names_its_axis_count_past_52_axes():
    for n_factors, axes in ((27, 54), (33, 66)):
        with pytest.raises(ValidationError, match=f"^replica lift has {axes} axes; "):
            replicate_lift(one_state_chain(n_factors))


def test_lift_with_52_axes_converges():
    space = replicate_lift(one_state_chain(26))
    assert len(space.sizes) == 52
    run = wr_run(space, ENTROPY)
    assert run.converged
    beliefs = wr_beliefs(space, run.state)
    assert sorted(beliefs) == sorted(f"v{i}" for i in range(27))
    assert all(b.tolist() == [1.0] for b in beliefs.values())


# ----------------------------------------------------- consensus + t_proj


def test_consensus_recovers_joint_distribution():
    for seed in range(4):
        fg = chain_graph(np.random.default_rng(10 + seed))
        space = replicate_lift(fg)
        ident = consensus_project(space, space.q_init)
        np.testing.assert_allclose(ident.probs, gibbs_joint(fg), atol=1e-12)


def test_t_proj_two_replica_example():
    fg = FactorGraph(
        [Variable("x", 2)],
        [
            Factor("f1", ("x",), np.array([0.5, 0.5])),
            Factor("f2", ("x",), np.array([0.5, 0.5])),
        ],
    )
    space = replicate_lift(fg)
    q = DistVec(np.array([0.1, 0.2, 0.3, 0.4]))
    out = t_proj(space, q)
    np.testing.assert_allclose(out.probs, [0.2, 0.8], atol=1e-15)


def test_t_proj_fixed_on_product_tables():
    rng = np.random.default_rng(21)
    fg = chain_graph(rng)
    space = replicate_lift(fg)
    a, b, c = rng.uniform(0.2, 1.0, 2), rng.uniform(0.2, 1.0, 2), rng.uniform(0.2, 1.0, 2)
    prod = np.multiply.outer(np.multiply.outer(a / a.sum(), b / b.sum()), c / c.sum())
    q = DistVec(prod.reshape(-1))
    out = t_proj(space, q)
    np.testing.assert_allclose(out.probs, q.probs, atol=1e-13)


def test_t_proj_uniform_is_uniform():
    fg = chain_graph(np.random.default_rng(22))
    space = replicate_lift(fg)
    q = DistVec(np.full(space.ident_size, 1.0 / space.ident_size))
    np.testing.assert_allclose(
        t_proj(space, q).probs, q.probs, atol=1e-15
    )


def test_t_proj_length_mismatch():
    fg = chain_graph(np.random.default_rng(23))
    space = replicate_lift(fg)
    with pytest.raises(ValidationError):
        t_proj(space, DistVec(np.full(3, 1.0 / 3.0)))


# -------------------------------------------------------- entropy scheme


def test_first_step_right_projection_is_reference():
    # with zero corrections the first right projection returns the
    # reference table itself, which already factorizes across blocks
    fg = chain_graph(np.random.default_rng(31))
    space = replicate_lift(fg)
    state = wr_step(space, ENTROPY, wr_init(space, ENTROPY))
    np.testing.assert_allclose(state.k, space.q_init.probs, atol=1e-13)
    np.testing.assert_allclose(state.sigma, 0.0, atol=1e-12)


def full_grid_replicated_step(space, state):
    """The replicated entropy step with every update on the lifted grid,
    restricted to the diagonal only at the end: (k, sigma, r, q, tau)."""
    log_q = np.log(state.q)
    k = m_project_blocks(softmax(log_q + state.sigma), space.sizes, space.factor_blocks)
    log_k = np.log(k)
    sigma_new = log_q + state.sigma - log_k
    diag = diagonal_restrict(space, softmax(log_k + state.tau))
    r = diag / diag.sum()
    q_new = m_project_product(DistVec(r), JointShape(space.ident_sizes)).probs
    tau_new = diagonal_restrict(space, log_k + state.tau) - np.log(q_new)
    return k, diagonal_restrict(space, sigma_new), r, q_new, tau_new


def replicated_states(space):
    yield wr_init(space, ENTROPY)
    rng = np.random.default_rng(len(space.sizes))
    n = space.q_init.probs.size
    sigma, tau = rng.normal(0.0, 0.3, n), rng.normal(0.0, 0.3, n)
    yield WrState("replicated", 0, space.q_init.probs, sigma, tau)


@pytest.mark.parametrize("kind", ["tree", "cycle"])
def test_replicated_step_matches_the_full_grid_step(kind):
    # k and sigma are the same floats; r, q and tau differ only by where
    # the consensus softmax takes its largest entry
    for seed in range(50):
        space = replicate_lift(generators.gen_fg(seed, kind=kind))
        for state in replicated_states(space):
            k, sigma, r, q, tau = full_grid_replicated_step(space, state)
            out = wr_step(space, ENTROPY, state)
            assert out.phase == "identified"
            assert np.array_equal(out.k, k) and np.array_equal(out.sigma, sigma)
            for got, want in ((out.r, r), (out.q, q), (out.tau, tau)):
                assert float(np.max(np.abs(got - want))) <= 1e-14


def test_replicated_step_rejects_an_empty_consensus_diagonal():
    # two unary factors on x: k = [1, 0] x [0, 1] puts no mass on x1 = x2
    fg = FactorGraph(
        [Variable("x", 2)],
        [Factor("f1", ("x",), np.ones(2)), Factor("f2", ("x",), np.ones(2))],
    )
    space = replicate_lift(fg)
    state = WrState("replicated", 0, np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(4), np.zeros(4))
    with np.errstate(divide="ignore"), pytest.raises(
        ValidationError, match="consensus diagonal carries zero mass"
    ):
        wr_step(space, ENTROPY, state)


def test_m_project_blocks_is_the_product_of_block_marginals():
    rng = np.random.default_rng(90)
    cases = [
        ((2, 3, 2, 2), ((2, 0), (3,), (1,))),
        ((2, 3, 2), ((0, 1), (2,))),
        ((3, 2, 2, 3), ((0,), (1, 2), (3,))),
        ((2, 3), ((0, 1),)),
    ]
    for sizes, blocks in cases:
        probs = rng.uniform(0.1, 1.0, int(np.prod(sizes)))
        probs /= probs.sum()
        before = probs.copy()
        arr = probs.reshape(sizes)
        margs = [arr.sum(axis=tuple(a for a in range(len(sizes)) if a not in b)) for b in blocks]
        want = np.empty(sizes)
        for x in itertools.product(*map(range, sizes)):
            want[x] = np.prod([m[tuple(x[a] for a in sorted(b))] for m, b in zip(margs, blocks)])
        got = m_project_blocks(probs, sizes, blocks)
        np.testing.assert_allclose(got, want.reshape(-1) / want.sum(), rtol=1e-14, atol=0.0)
        assert np.array_equal(probs, before)


def old_axis_sums(arr):
    """Per-axis marginals by ``ndarray.sum``, as the lift took them before it
    called ``block_marginals``."""
    return [arr.sum(axis=tuple(b for b in range(arr.ndim) if b != a)) for a in range(arr.ndim)]


def old_ident_product(probs, sizes):
    """The identified-grid product projection as the lift ran it before it
    called ``m_project_blocks``: through ``DistVec``, per-axis sums and a
    chain of outer products."""
    margs = old_axis_sums(DistVec(probs).probs.reshape(sizes))
    outer = margs[0]
    for m in margs[1:]:
        outer = np.multiply.outer(outer, m)
    return DistVec.from_weights(outer.reshape(-1)).probs


def run_on_the_old_paths(space, gen, monkeypatch):
    """wr_run with the identified-grid kernels swapped for the old code."""
    blocks, marginals = lift.m_project_blocks, lift.block_marginals

    def singletons(sizes, axes):
        return list(axes) == [(a,) for a in range(len(sizes))]

    with monkeypatch.context() as patch:
        patch.setattr(lift, "m_project_blocks", lambda probs, sizes, axes: (
            old_ident_product(probs, sizes) if singletons(sizes, axes)
            else blocks(probs, sizes, axes)
        ))
        patch.setattr(lift, "block_marginals", lambda arr, axes: (
            old_axis_sums(arr) if singletons(arr.shape, axes) else marginals(arr, axes)
        ))
        return wr_run(space, gen)


@pytest.mark.parametrize(
    "kind, generator, seeds",
    [
        ("tree", "entropy", range(50)),
        ("cycle", "entropy", range(50)),
        ("tree", "quadratic", range(20)),
        ("cycle", "quadratic", range(20)),
    ],
)
def test_scheme_matches_the_old_identified_grid_path(kind, generator, seeds, monkeypatch):
    for seed in seeds:
        space = replicate_lift(generators.gen_fg(seed, kind=kind))
        gen = ENTROPY if generator == "entropy" else Mahalanobis(np.eye(space.ident_size))
        new = wr_run(space, gen)
        old = run_on_the_old_paths(space, gen, monkeypatch)
        old_beliefs = dict(zip(space.ident_vars, (
            m / m.sum() for m in old_axis_sums(old.state.q.reshape(space.ident_sizes))
        )))
        assert (new.state.n, new.converged, len(new.steps)) == (
            old.state.n, old.converged, len(old.steps)
        )
        gaps = [abs(new.steps[-1] - old.steps[-1])] if new.steps else []
        for name in ("q", "k", "r", "sigma", "tau"):
            gaps.append(np.max(np.abs(getattr(new.state, name) - getattr(old.state, name))))
        new_beliefs = wr_beliefs(space, new.state)
        gaps += [np.max(np.abs(new_beliefs[v] - old_beliefs[v])) for v in space.ident_vars]
        assert max(gaps) <= 1e-14


def test_an_identified_step_builds_no_distvec(monkeypatch):
    built = []
    check = DistVec.__post_init__

    def counted(self):
        built.append(len(self.probs))
        check(self)

    space = replicate_lift(generators.gen_fg(7))
    state = wr_step(space, ENTROPY, wr_init(space, ENTROPY))
    monkeypatch.setattr(DistVec, "__post_init__", counted)
    out = wr_step(space, ENTROPY, state)
    assert out.phase == "identified" and out.n == 2
    assert built == []
    t_proj(space, DistVec(state.q))  # the counter sees the public boundary
    assert len(built) >= 2


def lifted_arrays_allocated(space, fn):
    """Peak traced allocation of fn() above its start, in lifted-size arrays."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / space.q_init.probs.nbytes


def test_replicated_step_and_run_allocation_budget():
    space = replicate_lift(generators.gen_fg(7))
    assert space.q_init.probs.size == 3**11
    state = wr_init(space, ENTROPY)
    assert lifted_arrays_allocated(space, lambda: wr_step(space, ENTROPY, state)) <= 5
    assert lifted_arrays_allocated(space, lambda: wr_run(space, ENTROPY)) <= 8


def test_one_iteration_matches_tree_bp_and_enumeration():
    for seed in range(12):
        rng = np.random.default_rng(40 + seed)
        fg = random_tree(rng, int(rng.integers(2, 7)))
        space = replicate_lift(fg)
        state = wr_step(space, ENTROPY, wr_init(space, ENTROPY))
        scheme = wr_beliefs(space, state)
        tree = bp_beliefs(fg, bp_run_tree(fg))
        exact = enumerate_fg_marginals(fg)
        for vid in exact:
            np.testing.assert_allclose(scheme[vid], tree[vid], atol=1e-10)
            np.testing.assert_allclose(scheme[vid], exact[vid], atol=1e-10)


def test_entropy_scheme_on_a_forest_of_30_variables():
    # binary chain v00-v04 with five one-state variables hung off it, and
    # twenty isolated one-state variables with their own unary factors
    rng = np.random.default_rng(77)
    variables = [Variable(f"v{i:02d}", 2 if i < 5 else 1) for i in range(30)]
    factors = [Factor("root", ("v00",), rng.uniform(0.3, 1.0, size=2))]
    for i in range(1, 10):
        other, shape = (i - 1, (2, 2)) if i < 5 else (i - 5, (2, 1))
        pair = (f"v{other:02d}", f"v{i:02d}")
        factors.append(Factor(f"p{i}", pair, rng.uniform(0.3, 1.0, size=shape)))
    for i in range(10, 30):
        factors.append(Factor(f"u{i}", (f"v{i:02d}",), rng.uniform(0.3, 1.0, size=1)))
    fg = FactorGraph(variables, factors)
    assert fg.is_forest()
    space = replicate_lift(fg)
    assert len(space.ident_vars) == 30
    run = wr_run(space, ENTROPY)
    assert run.converged
    beliefs = wr_beliefs(space, run.state)
    exact = enumerate_fg_marginals(fg)
    for vid in exact:
        np.testing.assert_allclose(beliefs[vid], exact[vid], atol=1e-10)


def test_extra_iterations_freeze_beliefs():
    rng = np.random.default_rng(60)
    fg = random_tree(rng, 5)
    space = replicate_lift(fg)
    state = wr_step(space, ENTROPY, wr_init(space, ENTROPY))
    first = wr_beliefs(space, state)
    for _ in range(3):
        state = wr_step(space, ENTROPY, state)
        later = wr_beliefs(space, state)
        for vid in first:
            np.testing.assert_allclose(later[vid], first[vid], atol=1e-12)


def test_identified_iterates_are_scheme_fixed_points():
    fg = chain_graph(np.random.default_rng(61))
    space = replicate_lift(fg)
    state = wr_step(space, ENTROPY, wr_init(space, ENTROPY))
    state = wr_step(space, ENTROPY, state)
    again = wr_step(space, ENTROPY, state)
    np.testing.assert_allclose(again.q, state.q, atol=1e-12)
    np.testing.assert_allclose(again.tau, state.tau, atol=1e-10)


def test_one_step_iterate_passes_two_step_residual():
    fg = random_tree(np.random.default_rng(62), 5)
    space = replicate_lift(fg)
    state = wr_step(space, ENTROPY, wr_init(space, ENTROPY))
    q = DistVec(state.q)
    residual = float(np.max(np.abs(t_proj(space, q).probs - q.probs)))
    assert residual <= 1e-10


def test_beliefs_need_an_iteration():
    fg = chain_graph(np.random.default_rng(63))
    space = replicate_lift(fg)
    with pytest.raises(ValidationError):
        wr_beliefs(space, wr_init(space, ENTROPY))


def test_nonfinite_state_rejected():
    with pytest.raises(ValidationError):
        WrState("identified", 0, np.array([0.5, 0.5]), np.array([np.nan, 0.0]), np.zeros(2))


def test_identified_state_rejects_a_q_entry_at_or_below_zero():
    for q in ([0.0, 1.0], [-0.25, 1.25]):
        with pytest.raises(ValidationError, match="identified iterate q has an entry <= 0"):
            WrState("identified", 1, np.array(q), np.zeros(2), np.zeros(2))


# ------------------------------------------------------- loopy diagnostics


def test_loopy_fixed_point_two_step_residual():
    rng = np.random.default_rng(70)
    fg = cycle_graph(rng)
    space = replicate_lift(fg)
    result = bp_run(fg, tol=1e-12)
    assert result.converged
    joint = extract_joint(space, bp_beliefs(fg, result.state))
    residual = float(np.max(np.abs(t_proj(space, joint).probs - joint.probs)))
    assert residual <= 1e-8


# ------------------------------------------------------ quadratic scheme


def test_quadratic_scheme_is_cauchy_on_cycle():
    rng = np.random.default_rng(80)
    fg = cycle_graph(rng)
    space = replicate_lift(fg)
    run = wr_run(space, Mahalanobis(np.eye(space.ident_size)), tol=1e-8, max_iters=5000)
    assert run.converged
    assert run.steps[-1] < 1e-8
    beliefs = wr_beliefs(space, run.state)
    for vid, b in beliefs.items():
        assert b.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(b > 0.0)


def test_quadratic_scheme_random_metric():
    rng = np.random.default_rng(81)
    fg = cycle_graph(rng)
    space = replicate_lift(fg)
    base = rng.standard_normal((space.ident_size, space.ident_size))
    metric = Mahalanobis(base @ base.T + space.ident_size * np.eye(space.ident_size))
    run = wr_run(space, metric, tol=1e-8, max_iters=5000)
    assert run.converged


@pytest.mark.parametrize("seed", range(6))
def test_every_product_fit_meets_its_gradient_test(seed, monkeypatch):
    fit, norms = lift._fit_product, []

    def recorded(*args):
        out = fit(*args)
        norms.append(out[2])
        return out

    monkeypatch.setattr(lift, "_fit_product", recorded)
    space = replicate_lift(generators.gen_fg(seed, kind="cycle"))
    n = space.ident_size
    base = np.random.default_rng(seed).standard_normal((n, n))
    for metric in (np.eye(n), base @ base.T + n * np.eye(n)):
        assert wr_run(space, Mahalanobis(metric), tol=1e-8, max_iters=5000).converged
    assert len(norms) >= 8
    assert lift.FIT_GRAD_TOL == 1e-14 and max(norms) <= 1e-14


def test_product_fit_raises_at_its_step_cap(monkeypatch):
    monkeypatch.setattr(lift, "FIT_MAX_STEPS", 1)
    space = replicate_lift(generators.gen_fg(1, kind="cycle"))
    with pytest.raises(ValidationError, match=r"cap of 1 Newton steps at max\|grad\| = "):
        wr_run(space, Mahalanobis(np.eye(space.ident_size)))


def test_quadratic_metric_dimension_checked():
    fg = cycle_graph(np.random.default_rng(82))
    space = replicate_lift(fg)
    with pytest.raises(ValidationError):
        wr_init(space, Mahalanobis(np.eye(3)))


def test_lift_tables_carry_no_outcome_labels():
    fg = chain_graph(np.random.default_rng(64))
    space = replicate_lift(fg)
    assert space.q_init.outcomes is None
    assert consensus_project(space, space.q_init).outcomes is None
    beliefs = {v.id: np.full(v.cardinality, 0.5) for v in fg.variables}
    assert extract_joint(space, beliefs).outcomes is None


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"max_iters": 0}, "max_iters"),
        ({"max_iters": -2}, "max_iters"),
        ({"tol": float("nan")}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"tol": -1e-9}, "tol"),
    ],
)
def test_wr_run_rejects_bad_iteration_caps_and_tolerances(kwargs, name):
    space = replicate_lift(chain_graph(np.random.default_rng(65)))
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        wr_run(space, ENTROPY, **kwargs)


def test_wr_run_takes_one_iteration_at_tolerance_zero():
    space = replicate_lift(chain_graph(np.random.default_rng(65)))
    run = wr_run(space, ENTROPY, tol=0.0, max_iters=1)
    assert run.state.n == 1 and not run.converged
