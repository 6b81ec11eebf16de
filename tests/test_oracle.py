import numpy as np
import pytest

from klbp.errors import ValidationError
from klbp.oracle import (
    DiagonalFace,
    EqualCopies,
    ProductFamily,
    _Problem,
    finite_diff_grad,
    numeric_projection,
)
from klbp.simplex import (
    DistVec,
    JointShape,
    Mahalanobis,
    NegativeEntropy,
    consensus_geomean,
    i_project_diagonal,
    joint_outcomes,
    m_project_product,
)

ENTROPY = NegativeEntropy()


def rand_joint(rng, sizes):
    n = int(np.prod(sizes))
    w = rng.uniform(0.1, 1.0, size=n)
    return DistVec(w / w.sum(), joint_outcomes(sizes))


def test_diagonal_left_matches_closed_form():
    rng = np.random.default_rng(41)
    shape = JointShape((2, 2), groups=((0, 1),))
    q = DistVec(np.array([0.3, 0.2, 0.35, 0.15]), joint_outcomes((2, 2)))
    cases = [q] + [rand_joint(rng, (2, 2)) for _ in range(3)]
    for case in cases:
        closed = i_project_diagonal(case, shape)
        numeric = numeric_projection(ENTROPY, DiagonalFace(shape), case, "left")
        np.testing.assert_allclose(numeric.probs, closed.probs, atol=1e-6)


def test_product_right_matches_closed_form():
    rng = np.random.default_rng(43)
    shape = JointShape((2, 2))
    q = DistVec(np.array([0.2, 0.1, 0.2, 0.5]), joint_outcomes((2, 2)))
    closed = m_project_product(q, shape)
    numeric = numeric_projection(ENTROPY, ProductFamily(shape), q, "right")
    np.testing.assert_allclose(numeric.probs, [0.12, 0.18, 0.28, 0.42], atol=1e-6)
    np.testing.assert_allclose(numeric.probs, closed.probs, atol=1e-6)
    for _ in range(2):
        case = rand_joint(rng, (2, 3))
        closed = m_project_product(case, JointShape((2, 3)))
        numeric = numeric_projection(
            ENTROPY, ProductFamily(JointShape((2, 3))), case, "right"
        )
        np.testing.assert_allclose(numeric.probs, closed.probs, atol=1e-6)


def test_equal_copies_left_is_geometric_mean():
    a = DistVec(np.array([0.9, 0.1]))
    b = DistVec(np.array([0.5, 0.5]))
    numeric = numeric_projection(ENTROPY, EqualCopies(2), [a, b], "left")
    np.testing.assert_allclose(numeric.probs, [0.75, 0.25], atol=1e-6)
    rng = np.random.default_rng(47)
    tables = [rand_joint(rng, (4,)) for _ in range(3)]
    closed = consensus_geomean(tables)
    numeric = numeric_projection(ENTROPY, EqualCopies(3), tables, "left")
    np.testing.assert_allclose(numeric.probs, closed.probs, atol=1e-6)


def test_equal_copies_tables_must_share_a_length():
    a = DistVec(np.array([0.9, 0.1]))
    b = DistVec(np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValidationError, match=r"EqualCopies tables differ in length: \[2, 3\]"):
        numeric_projection(ENTROPY, EqualCopies(2), [a, b], "left")


def test_equal_copies_needs_at_least_one_table():
    with pytest.raises(ValidationError, match="the table list is empty"):
        numeric_projection(ENTROPY, EqualCopies(0), [], "left")


def test_equal_copies_right_is_arithmetic_mean():
    rng = np.random.default_rng(53)
    tables = [rand_joint(rng, (3,)) for _ in range(4)]
    mean = np.mean([t.probs for t in tables], axis=0)
    numeric = numeric_projection(ENTROPY, EqualCopies(4), tables, "right")
    np.testing.assert_allclose(numeric.probs, mean, atol=1e-6)


def test_multi_start_agreement():
    rng = np.random.default_rng(59)
    q = rand_joint(rng, (2, 2))
    shape = JointShape((2, 2), groups=((0, 1),))
    best, all_solutions = numeric_projection(
        ENTROPY, DiagonalFace(shape), q, "left", return_all=True
    )
    assert len(all_solutions) == 8
    for sol in all_solutions:
        np.testing.assert_allclose(sol.probs, best.probs, atol=1e-8)


def test_right_entropy_onto_face_rejected():
    q = rand_joint(np.random.default_rng(61), (2, 2))
    shape = JointShape((2, 2), groups=((0, 1),))
    with pytest.raises(ValidationError):
        numeric_projection(ENTROPY, DiagonalFace(shape), q, "right")


def test_quadratic_diagonal_projection():
    # with identity metric the diagonal projection solves a Euclidean
    # least-squares over the face: p_t = q_tt + (1 - sum_t q_tt) / d
    gen = Mahalanobis(np.eye(4))
    q = DistVec(np.array([0.3, 0.2, 0.35, 0.15]), joint_outcomes((2, 2)))
    shape = JointShape((2, 2), groups=((0, 1),))
    numeric = numeric_projection(gen, DiagonalFace(shape), q, "left")
    np.testing.assert_allclose(numeric.probs, [0.575, 0.425], atol=1e-6)
    # symmetric divergence: both sides give the same minimizer
    other = numeric_projection(gen, DiagonalFace(shape), q, "right")
    np.testing.assert_allclose(other.probs, numeric.probs, atol=1e-6)


def test_quadratic_scaled_metric_same_minimizer():
    q = rand_joint(np.random.default_rng(67), (2, 2))
    shape = JointShape((2, 2), groups=((0, 1),))
    a = numeric_projection(Mahalanobis(np.eye(4)), DiagonalFace(shape), q, "left")
    b = numeric_projection(
        Mahalanobis(2.0 * np.eye(4)), DiagonalFace(shape), q, "left"
    )
    np.testing.assert_allclose(a.probs, b.probs, atol=1e-6)


def test_spec_validation():
    q = rand_joint(np.random.default_rng(71), (2, 2))
    with pytest.raises(ValidationError):
        numeric_projection(ENTROPY, EqualCopies(3), [q, q], "left")
    with pytest.raises(ValidationError):
        numeric_projection(ENTROPY, DiagonalFace(JointShape((2, 2))), q, "sideways")


def test_finite_diff_matches_analytic():
    def f(x):
        return float(x[0] ** 2 + np.exp(x[1]) + x[0] * x[2])

    x = np.array([1.5, -0.3, 2.0])
    grad = finite_diff_grad(f, x)
    expect = np.array([2 * 1.5 + 2.0, np.exp(-0.3), 1.5])
    np.testing.assert_allclose(grad, expect, rtol=1e-8)


def test_quadratic_equal_copies_left_is_arithmetic_mean():
    # sum_t 1/2 |p - t|^2 is least at the mean, which lies on the simplex
    rng = np.random.default_rng(73)
    for n_tables, d in ((2, 3), (3, 4), (4, 2)):
        tables = [rand_joint(rng, (d,)) for _ in range(n_tables)]
        mean = np.mean([t.probs for t in tables], axis=0)
        numeric = numeric_projection(
            Mahalanobis(np.eye(d)), EqualCopies(n_tables), tables, "left"
        )
        np.testing.assert_allclose(numeric.probs, mean, atol=1e-6)


def test_quadratic_product_family_keeps_a_product_target():
    rng = np.random.default_rng(79)
    for sizes in ((2, 2), (2, 3), (3, 2, 2)):
        factors = [rng.uniform(0.2, 1.0, s) for s in sizes]
        joint = factors[0] / factors[0].sum()
        for f in factors[1:]:
            joint = np.multiply.outer(joint, f / f.sum())
        q = DistVec(joint.reshape(-1), joint_outcomes(sizes))
        n = q.probs.size
        base = rng.standard_normal((n, n))
        for mat in (np.eye(n), base @ base.T + n * np.eye(n)):
            numeric = numeric_projection(
                Mahalanobis(mat), ProductFamily(JointShape(sizes)), q, "left"
            )
            np.testing.assert_allclose(numeric.probs, q.probs, atol=1e-6)


def test_mean_field_starts_are_stationary_and_agree():
    # left KL onto products: each start's factors must satisfy the
    # mean-field fixed point p_a(j) ~ exp(E[log q | x_a = j]) under the
    # other factors
    rng = np.random.default_rng(83)
    for sizes in ((2, 2), (2, 3), (3, 2, 2)):
        q = rand_joint(rng, sizes)
        log_q = np.log(q.probs).reshape(sizes)
        best, starts = numeric_projection(
            ENTROPY, ProductFamily(JointShape(sizes)), q, "left", return_all=True
        )
        assert len(starts) == 8
        for sol in starts:
            np.testing.assert_allclose(sol.probs, best.probs, atol=1e-8)
            grid = sol.probs.reshape(sizes)
            axes = range(len(sizes))
            parts = [grid.sum(axis=tuple(b for b in axes if b != a)) for a in axes]
            for a in axes:
                weight = np.ones(())
                for b in axes:
                    weight = np.multiply.outer(weight, np.ones(sizes[b]) if b == a else parts[b])
                expect = np.sum(weight * log_q, axis=tuple(b for b in axes if b != a))
                update = np.exp(expect - expect.max())
                np.testing.assert_allclose(parts[a], update / update.sum(), atol=1e-6)


def test_product_family_axis_limit():
    q = DistVec(np.array([1.0]), joint_outcomes((1,) * 52))
    with pytest.raises(ValidationError, match="limited to 51 product axes, got 52"):
        numeric_projection(ENTROPY, ProductFamily(JointShape((1,) * 52)), q, "left")
    q = DistVec(np.array([1.0]), joint_outcomes((1,) * 51))
    best = numeric_projection(ENTROPY, ProductFamily(JointShape((1,) * 51)), q, "left")
    np.testing.assert_allclose(best.probs, [1.0])


@pytest.mark.parametrize(
    "shape",
    [
        JointShape((2, 3)),  # no replica group
        JointShape((2, 2, 2), groups=((0, 1),)),  # axis 2 left free
        JointShape((2, 2), groups=((0,), (1,))),  # two groups
        JointShape((3,), groups=((0,),)),  # a single replica
    ],
)
def test_diagonal_face_takes_the_shapes_the_closed_form_takes(shape):
    q = rand_joint(np.random.default_rng(89), shape.sizes)
    with pytest.raises(ValidationError, match="i_project_diagonal"):
        i_project_diagonal(q, shape)
    with pytest.raises(ValidationError, match="DiagonalFace"):
        numeric_projection(ENTROPY, DiagonalFace(shape), q, "left")


def _spd(rng, n):
    base = rng.standard_normal((n, n))
    return Mahalanobis(base @ base.T + n * np.eye(n))


@pytest.mark.parametrize(
    "family,metric,side",
    [
        ("copies", "entropy", "left"),
        ("copies", "entropy", "right"),
        ("copies", "mahalanobis", "left"),
        ("diagonal", "entropy", "left"),
        ("diagonal", "mahalanobis", "left"),
        ("product", "entropy", "left"),
        ("product", "entropy", "right"),
        ("product", "mahalanobis", "left"),
    ],
)
def test_value_grad_matches_central_differences(family, metric, side):
    rng = np.random.default_rng(97)
    if family == "copies":
        spec, q, n = EqualCopies(3), [rand_joint(rng, (4,)) for _ in range(3)], 4
    elif family == "diagonal":
        spec, q, n = DiagonalFace(JointShape((3, 3), groups=((0, 1),))), rand_joint(rng, (3, 3)), 9
    else:
        spec, q, n = ProductFamily(JointShape((2, 3, 2))), rand_joint(rng, (2, 3, 2)), 12
    gen = ENTROPY if metric == "entropy" else _spd(rng, n)
    problem = _Problem(gen, spec, q, side)
    points = rng.standard_normal((3, problem.dim))
    _, grads = problem.value_grad(points)
    for point, grad in zip(points, grads):
        fd = finite_diff_grad(lambda u: float(problem.value_grad(u[None])[0][0]), point)
        assert np.abs(fd - grad).max() <= 1e-7 * max(1.0, np.abs(grad).max())
