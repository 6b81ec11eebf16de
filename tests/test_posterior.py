import json
import math

import numpy as np
import pytest

from klbp.budgets import BudgetError
from klbp.compgraph import CompGraph, CompNode, ExpScale, NegLossTemp, forward_eval
from klbp.errors import SchemaError, ValidationError
from klbp.generators import gen_posterior
from klbp.oracle import finite_diff_grad, reference_gradient
from klbp.posterior import (
    DiscretePriorModel,
    dirac_limit_check,
    log_marginal_likelihood,
    marginal_likelihood,
    model_from_json,
    model_to_json,
    posterior_grad_bp,
    posterior_grad_enum,
    score_tables,
)
from klbp.simplex import DistVec


def linear_score_graph():
    # z(x, a) = a * x
    return CompGraph(
        [CompNode("x", "input"), CompNode("a", "input"), CompNode("z", "mul", ("x", "a"))],
        "z",
    )


def coin_model(alpha=1.0):
    return DiscretePriorModel(
        names=("x0",),
        grids=(np.array([0.0, 1.0]),),
        priors=(DistVec([0.5, 0.5]),),
        graphs=(linear_score_graph(),),
        theta=("a",),
        likelihood=ExpScale(alpha),
    )


class TestModelValidation:
    def test_misaligned_prior(self):
        with pytest.raises(ValidationError, match="match its grid"):
            DiscretePriorModel(
                ("x0",),
                (np.array([0.0, 1.0]),),
                (DistVec([0.2, 0.3, 0.5]),),
                (linear_score_graph(),),
                ("a",),
                ExpScale(1.0),
            )

    def test_undeclared_graph_input(self):
        with pytest.raises(ValidationError, match="undeclared"):
            DiscretePriorModel(
                ("x0",),
                (np.array([0.0, 1.0]),),
                (DistVec([0.5, 0.5]),),
                (linear_score_graph(),),
                ("b",),  # graph reads 'a'
                ExpScale(1.0),
            )

    def test_reserved_parameter_name(self):
        with pytest.raises(ValidationError, match="cannot be named"):
            DiscretePriorModel(
                ("x0",),
                (np.array([0.0, 1.0]),),
                (DistVec([0.5, 0.5]),),
                (linear_score_graph(),),
                ("x",),
                ExpScale(1.0),
            )

    def test_theta_shape_checked(self):
        with pytest.raises(ValidationError, match="length"):
            marginal_likelihood(coin_model(), np.array([1.0, 2.0]))


class TestMarginalLikelihood:
    def test_coin_value(self):
        # 0.5 (1 + e^a) at a = ln 2 -> 1.5
        value = marginal_likelihood(coin_model(), np.array([math.log(2.0)]))
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_factorized_equals_enum(self):
        # "auto" takes the per-variable product for an exponential likelihood
        for seed in range(10):
            model, theta = gen_posterior(seed, force_exp=True)
            fac = marginal_likelihood(model, theta)
            enum = marginal_likelihood(model, theta, method="enum")
            assert fac == pytest.approx(enum, rel=1e-12)

    def test_zero_scale_gives_one(self):
        value = marginal_likelihood(coin_model(alpha=0.0), np.array([0.7]))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_general_likelihood_uses_enum(self):
        model = DiscretePriorModel(
            ("x0",),
            (np.array([0.0, 1.0]),),
            (DistVec([0.5, 0.5]),),
            (linear_score_graph(),),
            ("a",),
            NegLossTemp("squared_error", 0.5, 1.0),
        )
        value = marginal_likelihood(model, np.array([1.0]))
        want = 0.5 * (math.exp(-0.125) + math.exp(-0.125))
        assert value == pytest.approx(want, rel=1e-12)

    def test_budget_guard(self):
        grid = np.linspace(-1.0, 1.0, 40)
        prior = DistVec(np.full(40, 1.0 / 40.0))
        model = DiscretePriorModel(
            tuple(f"x{i}" for i in range(4)),
            (grid,) * 4,
            (prior,) * 4,
            (linear_score_graph(),) * 4,
            ("a",),
            NegLossTemp("squared_error", 0.0, 1.0),
        )
        with pytest.raises(BudgetError):
            marginal_likelihood(model, np.array([0.5]))


class TestGradEnum:
    def test_coin_gradient(self):
        # d/da log(0.5 (1 + e^a)) = e^a / (1 + e^a) = 2/3 at a = ln 2
        grad = posterior_grad_enum(coin_model(), np.array([math.log(2.0)]))
        np.testing.assert_allclose(grad, [2.0 / 3.0], atol=1e-12)

    def test_zero_scale_zero_gradient(self):
        grad = posterior_grad_enum(coin_model(alpha=0.0), np.array([0.7]))
        np.testing.assert_allclose(grad, [0.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        model, theta = gen_posterior(seed)

        def log_ml(t):
            return math.log(marginal_likelihood(model, t, method="enum"))

        grad = posterior_grad_enum(model, theta)
        fd = finite_diff_grad(log_ml, theta)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)

    def test_posterior_mass_required(self):
        # z = -800 + a: exp(z) underflows at every grid point, but the
        # posterior is well defined (uniform) and d_a z = 1 everywhere
        graph = CompGraph(
            [
                CompNode("x", "input"),
                CompNode("a", "input"),
                CompNode("c", "constant", value=-800.0),
                CompNode("z", "add", ("c", "a")),
            ],
            "z",
        )

        def model(likelihood):
            return DiscretePriorModel(
                ("x0",),
                (np.array([0.0, 1.0]),),
                (DistVec([0.5, 0.5]),),
                (graph,),
                ("a",),
                likelihood,
            )

        assert posterior_grad_enum(model(ExpScale(1.0)), np.array([0.0])).tolist() == [1.0]
        # |z| >= 10 with temperature 1e-308: the loss overflows, so log phi
        # is -inf at every grid point and there is no mass
        with pytest.raises(ValidationError, match="no mass"):
            posterior_grad_enum(
                model(NegLossTemp("squared_error", 0.0, 1e-308)), np.array([0.0])
            )


def sharp_model(likelihood):
    # one variable on linspace(-1, 1, 5), uniform prior, z = x a
    return DiscretePriorModel(
        ("x0",),
        (np.linspace(-1.0, 1.0, 5),),
        (DistVec(np.full(5, 0.2)),),
        (linear_score_graph(),),
        ("a",),
        likelihood,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSharpLikelihood:
    """Weights that under- or overflow in linear space stay exact in logs."""

    def test_squared_error_gradient_is_the_closed_form(self):
        # the posterior sits on x = 1: s(1) d_a z = -(1 - 3)/1e-3 * 1
        model = sharp_model(NegLossTemp("squared_error", 3.0, 1e-3))
        theta = np.array([1.0])
        np.testing.assert_allclose(posterior_grad_enum(model, theta), [2000.0], rtol=1e-12)
        assert marginal_likelihood(model, theta, method="enum") == 0.0
        want = math.log(0.2) - 2.0 / 1e-3
        assert log_marginal_likelihood(model, theta) == pytest.approx(want, rel=1e-12)

    def test_exp_scale_gradient_on_both_routes(self):
        model = sharp_model(ExpScale(800.0))
        theta = np.array([1.0])
        np.testing.assert_allclose(posterior_grad_enum(model, theta), [800.0], rtol=1e-12)
        np.testing.assert_allclose(posterior_grad_bp(model, theta), [800.0], rtol=1e-12)
        for method in ("auto", "enum"):
            assert marginal_likelihood(model, theta, method=method) == math.inf
            assert log_marginal_likelihood(model, theta, method=method) == pytest.approx(
                800.0 + math.log(0.2 * (1.0 + math.exp(-400.0))), rel=1e-15
            )

    @staticmethod
    def scaled_model(grid, scale, likelihood):
        # z = scale * x * a, one variable with a uniform prior
        graph = CompGraph(
            [
                CompNode("x", "input"),
                CompNode("a", "input"),
                CompNode("c", "constant", value=scale),
                CompNode("cx", "mul", ("c", "x")),
                CompNode("z", "mul", ("cx", "a")),
            ],
            "z",
        )
        n = len(grid)
        return DiscretePriorModel(
            ("x0",), (np.array(grid),), (DistVec(np.full(n, 1.0 / n)),), (graph,), ("a",), likelihood
        )

    def test_zero_weight_point_with_overflowing_score_contributes_zero(self):
        # at x = 1 the loss and the score both overflow, so that point has
        # zero weight; all mass sits on x = 0, where the score is 0
        model = self.scaled_model([0.0, 1.0], 10.0, NegLossTemp("squared_error", 0.0, 1e-308))
        assert posterior_grad_enum(model, np.array([1.0])).tolist() == [0.0]

    def test_positive_weight_point_with_overflowing_score_fails_closed(self):
        # z = 1.85: the loss 1.71e308 / 1 is finite, the score -1.85e308 is not
        model = self.scaled_model([1.0], 1.85, NegLossTemp("squared_error", 0.0, 1e-308))
        grad = posterior_grad_enum(model, np.array([1.0]))
        assert not np.all(np.isfinite(grad))


class TestGradMarginalRoute:
    def test_single_variable_ratio(self):
        model = coin_model(alpha=0.8)
        theta = np.array([0.4])
        z = score_tables(model, theta)[0]
        jac = model.grids[0]  # z = a x, so dz/da = x
        p = model.priors[0].probs
        w = p * np.exp(0.8 * z)
        want = 0.8 * float((w / w.sum() * jac).sum())
        got = posterior_grad_bp(model, theta)
        np.testing.assert_allclose(got, [want], atol=1e-14)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_enum(self, seed):
        model, theta = gen_posterior(seed, force_exp=True)
        bp = posterior_grad_bp(model, theta)
        enum = posterior_grad_enum(model, theta)
        np.testing.assert_allclose(bp, enum, atol=1e-10)

    def test_theta_free_score_zero_gradient(self):
        graph = CompGraph(
            [CompNode("x", "input"), CompNode("z", "tanh", ("x",))], "z"
        )
        model = DiscretePriorModel(
            ("x0",),
            (np.array([-0.5, 0.5]),),
            (DistVec([0.4, 0.6]),),
            (graph,),
            ("a",),
            ExpScale(1.0),
        )
        np.testing.assert_allclose(
            posterior_grad_bp(model, np.array([0.3])), [0.0], atol=1e-15
        )

    def test_rejected_outside_regime(self):
        model = DiscretePriorModel(
            ("x0",),
            (np.array([0.0, 1.0]),),
            (DistVec([0.5, 0.5]),),
            (linear_score_graph(),),
            ("a",),
            NegLossTemp("squared_error", 0.0, 1.0),
        )
        with pytest.raises(ValidationError, match="exponential"):
            posterior_grad_bp(model, np.array([0.5]))


class TestOneForwardSweep:
    """Each route evaluates every score graph once per grid point."""

    @pytest.mark.parametrize("seed", range(3))
    def test_forward_evaluations_per_route(self, seed, monkeypatch):
        import klbp.posterior as posterior

        calls = []

        def counting(graph, inputs):
            calls.append(graph)
            return forward_eval(graph, inputs)

        monkeypatch.setattr(posterior, "forward_eval", counting)
        model, theta = gen_posterior(seed, force_exp=True)
        points = sum(g.size for g in model.grids)
        posterior_grad_enum(model, theta)
        assert len(calls) == points
        calls.clear()
        posterior_grad_bp(model, theta)
        assert len(calls) == points
        calls.clear()
        dirac_limit_check(model, theta, tuple(0 for _ in model.grids))
        assert len(calls) == points + model.m


class TestDiracLimit:
    def test_coin_point_prior(self):
        model = coin_model()
        theta = np.array([math.log(2.0)])
        left, right = dirac_limit_check(model, theta, (1,))
        # s = alpha = 1, dz/da at x=1 is 1
        np.testing.assert_allclose(left, [1.0], atol=1e-12)
        np.testing.assert_allclose(right, [1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_both_sides_agree(self, seed):
        model, theta = gen_posterior(seed)
        rng = np.random.default_rng(seed + 1000)
        x_star = tuple(int(rng.integers(0, g.size)) for g in model.grids)
        left, right = dirac_limit_check(model, theta, x_star)
        np.testing.assert_allclose(left, right, atol=1e-10)

    def test_loss_minimum_gives_zero(self):
        # z = a (constant in x); squared-error target equals z* -> s = 0
        graph = CompGraph([CompNode("x", "input"), CompNode("a", "input")], "a")
        model = DiscretePriorModel(
            ("x0",),
            (np.array([0.0, 1.0]),),
            (DistVec([0.5, 0.5]),),
            (graph,),
            ("a",),
            NegLossTemp("squared_error", 0.75, 1.0),
        )
        left, right = dirac_limit_check(model, np.array([0.75]), (0,))
        np.testing.assert_allclose(left, [0.0], atol=1e-14)
        np.testing.assert_allclose(right, [0.0], atol=1e-14)

    def test_exp_scale_right_side_is_scaled_jacobian(self):
        model, theta = gen_posterior(7, force_exp=True)
        x_star = tuple(0 for _ in range(model.m))
        _, right = dirac_limit_check(model, theta, x_star)
        # dz_i/dtheta at grid point 0 from the oracle's reverse sweep, seeded with 1
        at = dict(zip(model.theta, theta))
        direct = np.zeros(len(model.theta))
        for graph, grid in zip(model.graphs, model.grids):
            adj = reference_gradient(graph, {**at, "x": grid[0]}, 1.0)
            direct += [adj.get(name, 0.0) for name in model.theta]
        direct *= model.likelihood.alpha
        np.testing.assert_allclose(right, direct, atol=1e-12)

    def test_off_grid_rejected(self):
        with pytest.raises(ValidationError, match="outside grid"):
            dirac_limit_check(coin_model(), np.array([0.0]), (5,))
        with pytest.raises(ValidationError, match="index all"):
            dirac_limit_check(coin_model(), np.array([0.0]), (0, 1))


class TestJson:
    def test_roundtrip(self):
        model, theta = gen_posterior(2)
        blob = json.dumps(model_to_json(model))
        model2 = model_from_json(json.loads(blob))
        g1 = posterior_grad_enum(model, theta)
        g2 = posterior_grad_enum(model2, theta)
        np.testing.assert_allclose(g1, g2, atol=1e-14)

    def test_exp_scale_roundtrip(self):
        model, theta = gen_posterior(4, force_exp=True)
        model2 = model_from_json(model_to_json(model))
        assert isinstance(model2.likelihood, ExpScale)
        assert model2.likelihood.alpha == model.likelihood.alpha

    def test_bad_schema(self):
        with pytest.raises(SchemaError):
            model_from_json({"variables": []})
        with pytest.raises(SchemaError):
            model_from_json([1, 2, 3])
        good = model_to_json(coin_model())
        bad = json.loads(json.dumps(good))
        bad["likelihood"] = {"kind": "mystery"}
        with pytest.raises(SchemaError):
            model_from_json(bad)
