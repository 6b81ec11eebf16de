import numpy as np
import pytest

from klbp.errors import SchemaError, ValidationError
from klbp.simplex import (
    DistVec,
    JointShape,
    Mahalanobis,
    NegativeEntropy,
    consensus_geomean,
    divergence,
    i_project_diagonal,
    joint_outcomes,
    m_project_blocks,
    m_project_product,
)


def rand_dist(rng, n):
    w = rng.uniform(0.1, 1.0, size=n)
    return DistVec(w / w.sum())


# ----------------------------------------------------------- construction


def test_distvec_rejects_nonpositive():
    with pytest.raises(ValidationError):
        DistVec(np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ValidationError):
        DistVec(np.array([1.5, -0.5]))


def test_distvec_renormalizes_small_drift():
    v = DistVec(np.array([0.5, 0.5 + 3e-10]))
    assert v.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_distvec_rejects_large_drift():
    with pytest.raises(ValidationError):
        DistVec(np.array([0.5, 0.6]))


def test_distvec_label_mismatch():
    with pytest.raises(ValidationError):
        DistVec(np.array([0.5, 0.5]), outcomes=("a",))


def test_distvec_is_immutable():
    v = DistVec(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        v.probs[0] = 0.5


def test_json_roundtrip():
    back = DistVec.from_json(
        {"schema": "v1", "probs": [0.2, 0.3, 0.5], "outcomes": ["x", "y", "z"]}
    )
    np.testing.assert_array_equal(back.probs, [0.2, 0.3, 0.5])
    assert back.outcomes == ("x", "y", "z")
    with pytest.raises(SchemaError):
        DistVec.from_json({"schema": "v1"})


# ------------------------------------------------------------- divergences


def test_divergence_entropy_matches_direct_sum():
    rng = np.random.default_rng(7)
    gen = NegativeEntropy()
    for _ in range(20):
        r, q = rand_dist(rng, 5), rand_dist(rng, 5)
        direct = float(np.sum(r.probs * np.log(r.probs / q.probs)))
        assert divergence(gen, r, q) == pytest.approx(direct, abs=1e-15)
        assert divergence(gen, r, r) == pytest.approx(0.0, abs=1e-15)


def test_divergence_quadratic_frozen():
    gen = Mahalanobis(np.eye(2))
    r = DistVec(np.array([0.75, 0.25]))
    q = DistVec(np.array([0.5, 0.5]))
    assert divergence(gen, r, q) == pytest.approx(0.0625, abs=1e-15)
    # quadratic divergence is symmetric in its arguments
    assert divergence(gen, q, r) == pytest.approx(0.0625, abs=1e-15)


def test_mahalanobis_validation():
    with pytest.raises(ValidationError):
        Mahalanobis(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        Mahalanobis(np.array([[1.0, 0.0], [0.0, -2.0]]))


# ------------------------------------------------------------ joint shapes


def test_joint_shape_validation():
    with pytest.raises(ValidationError):
        JointShape((2, 0))
    with pytest.raises(ValidationError):
        JointShape((2, 2), groups=((0, 0),))
    with pytest.raises(ValidationError):
        JointShape((2, 3), groups=((0, 1),))
    with pytest.raises(ValidationError):
        JointShape((2, 2), groups=((0, 5),))


def test_joint_outcomes_last_axis_fastest():
    assert joint_outcomes((2, 2)) == ((0, 0), (0, 1), (1, 0), (1, 1))


# ------------------------------------------------------------- projections


def test_diagonal_projection_frozen():
    # 2x2 grid (0.3, 0.2, 0.35, 0.15): diagonal mass 0.45 -> (2/3, 1/3)
    q = DistVec(np.array([0.3, 0.2, 0.35, 0.15]), joint_outcomes((2, 2)))
    shape = JointShape((2, 2), groups=((0, 1),))
    r = i_project_diagonal(q, shape)
    np.testing.assert_allclose(r.probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert r.outcomes == ((0, 0), (1, 1))


def test_diagonal_projection_three_replicas():
    rng = np.random.default_rng(3)
    w = rng.uniform(0.1, 1.0, size=8)
    q = DistVec(w / w.sum(), joint_outcomes((2, 2, 2)))
    r = i_project_diagonal(q, JointShape((2, 2, 2), groups=((0, 1, 2),)))
    expect = np.array([w[0], w[7]])
    np.testing.assert_allclose(r.probs, expect / expect.sum(), atol=1e-15)


def test_diagonal_projection_pythagorean_identity():
    # the agreement face is affine, so the three-point identity is exact:
    # KL(r, q) = KL(r, r*) + KL(r*, q) for any r on the face
    rng = np.random.default_rng(23)
    shape = JointShape((3, 3), groups=((0, 1),))
    for _ in range(20):
        q = DistVec(rng.dirichlet(np.full(9, 2.0)) * 0.999 + 0.001 / 9)
        rstar = i_project_diagonal(q, shape)
        r_small = rand_dist(rng, 3)
        diag_idx = np.array([0, 4, 8])
        lhs = float(
            np.sum(r_small.probs * (np.log(r_small.probs) - np.log(q.probs[diag_idx])))
        )
        mid = float(np.sum(r_small.probs * np.log(r_small.probs / rstar.probs)))
        tail = float(
            np.sum(rstar.probs * (np.log(rstar.probs) - np.log(q.probs[diag_idx])))
        )
        assert lhs == pytest.approx(mid + tail, abs=1e-12)


def test_product_projection_frozen():
    # joint with marginals (0.3, 0.7) and (0.4, 0.6)
    q = DistVec(np.array([0.2, 0.1, 0.2, 0.5]), joint_outcomes((2, 2)))
    r = m_project_product(q, JointShape((2, 2)))
    np.testing.assert_allclose(r.probs, [0.12, 0.18, 0.28, 0.42], atol=1e-15)


def test_product_projection_marginal_match():
    rng = np.random.default_rng(5)
    shape = JointShape((2, 3))
    for _ in range(10):
        q = DistVec(rng.dirichlet(np.full(6, 1.5)) * 0.999 + 0.001 / 6)
        r = m_project_product(q, shape)
        qa = q.probs.reshape(2, 3)
        ra = r.probs.reshape(2, 3)
        np.testing.assert_allclose(ra.sum(axis=1), qa.sum(axis=1), atol=1e-12)
        np.testing.assert_allclose(ra.sum(axis=0), qa.sum(axis=0), atol=1e-12)


def test_block_projection_single_block_is_identity():
    rng = np.random.default_rng(9)
    w = rng.uniform(0.1, 1.0, size=6)
    probs = w / w.sum()
    out = m_project_blocks(probs, (2, 3), ((0, 1),))
    np.testing.assert_allclose(out, probs, atol=1e-15)


def test_block_projection_singletons_match_product():
    rng = np.random.default_rng(17)
    w = rng.uniform(0.1, 1.0, size=12)
    probs = w / w.sum()
    out = m_project_blocks(probs, (2, 2, 3), ((0,), (1,), (2,)))
    full = m_project_product(DistVec(probs), JointShape((2, 2, 3)))
    np.testing.assert_allclose(out, full.probs, atol=1e-14)


def test_block_projection_partition_enforced():
    with pytest.raises(ValidationError):
        m_project_blocks(np.full(4, 0.25), (2, 2), ((0,),))


def test_consensus_geomean_frozen():
    a = DistVec(np.array([0.9, 0.1]))
    b = DistVec(np.array([0.5, 0.5]))
    r = consensus_geomean([a, b])
    np.testing.assert_allclose(r.probs, [0.75, 0.25], atol=1e-15)


def test_consensus_geomean_fixed_point():
    rng = np.random.default_rng(29)
    p = rand_dist(rng, 4)
    r = consensus_geomean([p, p, p])
    np.testing.assert_allclose(r.probs, p.probs, atol=1e-14)
