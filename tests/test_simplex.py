import math

import numpy as np
import pytest

from klbp.errors import SchemaError, ValidationError
from klbp.simplex import (
    DistVec,
    JointShape,
    Mahalanobis,
    NegativeEntropy,
    block_marginals,
    consensus_geomean,
    geometric_mean,
    i_project_diagonal,
    joint_outcomes,
    m_project_blocks,
    m_project_product,
    replica_diagonal,
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


# ------------------------------------------------------------- generators


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


def test_joint_shape_takes_whole_numbers_only():
    assert JointShape((2.0, 3), groups=((1.0,),)).sizes == (2, 3)
    for sizes, groups in (((2.5, 2), ()), ((True, 3), ()), ((2, 2), ((0, 1.7),))):
        with pytest.raises(ValidationError, match="is not a whole number"):
            JointShape(sizes, groups)


def test_json_outcomes_must_be_a_list():
    for outcomes in (5, "xyz", {"a": 1}):
        with pytest.raises(SchemaError, match="'outcomes' must be a list"):
            DistVec.from_json({"probs": [0.2, 0.3, 0.5], "outcomes": outcomes})


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


# ------------------------------------------- kernels against the old paths


def old_m_project_product(q, shape):
    """The product projection as a per-axis ``sum`` and a chain of outer
    products, before it called ``m_project_blocks``."""
    arr = q.probs.reshape(shape.sizes)
    marginals = []
    for axis in range(len(shape.sizes)):
        other = tuple(a for a in range(len(shape.sizes)) if a != axis)
        marginals.append(arr.sum(axis=other) if other else arr.copy())
    outer = marginals[0]
    for m in marginals[1:]:
        outer = np.multiply.outer(outer, m)
    return DistVec.from_weights(outer.reshape(-1), q.outcomes)


def old_i_project_diagonal(q, shape):
    """The diagonal projection by stride arithmetic, before it called
    ``replica_diagonal``."""
    k, d = len(shape.sizes), shape.sizes[0]
    strides = np.array([math.prod(shape.sizes[i + 1:]) for i in range(k)], dtype=int)
    diag = q.probs[np.arange(d) * int(strides.sum())]
    return DistVec.from_weights(diag, tuple((t,) * k for t in range(d)))


def old_literal_consensus(members):
    """The region projection's literal geometric mean by a log loop over the
    members, before it called ``geometric_mean``."""
    common = np.ones_like(members[0], dtype=bool)
    for m in members:
        common &= m > 0.0
    if not common.any():
        return None
    logs = np.zeros_like(members[0])
    for m in members:
        logs = logs + np.where(common, np.log(np.where(common, m, 1.0)), 0.0)
    lit = np.where(common, np.exp(logs / len(members)), 0.0)
    return lit / lit.sum()


def old_consensus_geomean(tables):
    logs = np.stack([np.log(t.probs) for t in tables])
    mean_log = logs.mean(axis=0)
    return DistVec.from_weights(np.exp(mean_log - mean_log.max()), tables[0].outcomes)


def random_sizes(rng):
    return tuple(int(s) for s in rng.integers(1, 5, size=int(rng.integers(1, 5))))


def test_product_projection_matches_the_per_axis_sum():
    rng = np.random.default_rng(101)
    for _ in range(100):
        sizes = random_sizes(rng)
        n = math.prod(sizes)
        q = DistVec(rng.dirichlet(np.full(n, 1.5)) * 0.999 + 0.001 / n, joint_outcomes(sizes))
        got, want = m_project_product(q, JointShape(sizes)), old_m_project_product(q, JointShape(sizes))
        assert got.outcomes == want.outcomes
        assert float(np.max(np.abs(got.probs - want.probs))) <= 1e-15


def test_diagonal_projection_matches_the_stride_gather():
    # the same entries are gathered, so the projection keeps its bits
    rng = np.random.default_rng(102)
    for _ in range(100):
        k, d = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        shape = JointShape((d,) * k, (tuple(range(k)),))
        q = DistVec(rng.dirichlet(np.full(d**k, 1.5)) * 0.999 + 0.001 / d**k)
        got, want = i_project_diagonal(q, shape), old_i_project_diagonal(q, shape)
        assert got.outcomes == want.outcomes
        assert float(np.max(np.abs(got.probs - want.probs))) <= 1e-15
        assert np.array_equal(got.probs, want.probs)


def test_geometric_mean_matches_the_log_loop():
    rng = np.random.default_rng(103)
    disjoint = 0
    for _ in range(200):
        sizes = random_sizes(rng)
        members = []
        for _ in range(int(rng.integers(1, 5))):
            m = rng.uniform(0.1, 1.0, sizes) * (rng.random(sizes) < 0.8)
            members.append(m / max(m.sum(), 1.0))
        got, want = geometric_mean(members), old_literal_consensus(members)
        if want is None:
            disjoint += 1
            assert got is None
            continue
        assert got.shape == want.shape
        assert float(np.max(np.abs(got - want))) <= 1e-15
    assert 0 < disjoint < 200


def test_consensus_geomean_keeps_its_bits():
    rng = np.random.default_rng(104)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        tables = [rand_dist(rng, n) for _ in range(int(rng.integers(1, 5)))]
        got, want = consensus_geomean(tables), old_consensus_geomean(tables)
        assert float(np.max(np.abs(got.probs - want.probs))) <= 1e-15
        assert np.array_equal(got.probs, want.probs)


def test_block_marginals_sum_out_the_other_axes():
    rng = np.random.default_rng(105)
    arr = rng.uniform(0.1, 1.0, (2, 3, 4))
    got = block_marginals(arr, ((2, 0), (1,)))
    np.testing.assert_allclose(got[0], arr.sum(axis=1), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(got[1], arr.sum(axis=(0, 2)), rtol=1e-14, atol=0.0)


def test_replica_diagonal_keeps_one_axis_per_group():
    arr = np.arange(2 * 3 * 2 * 3, dtype=float).reshape(2, 3, 2, 3)
    got = replica_diagonal(arr, ((0, 2), (1, 3)))
    want = np.array([[arr[a, b, a, b] for b in range(3)] for a in range(2)])
    assert np.array_equal(got, want)
