"""Simplex vectors and Bregman geometry on finite outcome sets.

Conventions
-----------
A distribution is a strictly positive vector summing to one over an ordered,
finite outcome set (the interior of the probability simplex).  Two Bregman
generators are supported:

* negative entropy  f(p) = sum_i p_i log p_i, whose divergence is the
  Kullback-Leibler divergence D_f(r, q) = sum_i r_i log(r_i / q_i);
* a Mahalanobis quadratic  g(p) = 1/2 p^T A p  with A symmetric positive
  definite, whose divergence is 1/2 (r - q)^T A (r - q).

Joint outcome sets are laid out row-major: with axes listed first to last,
the last axis varies fastest.  ``JointShape`` records the axis sizes together
with replica groups -- sets of axes that are copies of one underlying
variable.  Projections onto the consensus face (all replicas in each group
agree) return vectors indexed by the face's own, smaller outcome set.

Left (exclusive) projections minimize D(r, q) over r in the constraint set;
right (inclusive) projections minimize D(q, r).  Under negative entropy the
right projection onto a product family is the familiar product of marginals.

Each KL projection has one array-in, array-out kernel here; the public
functions that wrap a kernel add the ``DistVec`` and ``JointShape`` checks.

* ``block_marginals`` and ``m_project_blocks`` -- block marginals and their
  product (singleton blocks give the fully factorized family); used by
  ``m_project_product`` and by the lift's steps, ``t_proj``, ``wr_beliefs``
  and quadratic product fit;
* ``replica_diagonal`` -- the entries where each group's replicas agree;
  used by ``i_project_diagonal`` and ``lift.diagonal_restrict``;
* ``geometric_mean`` -- the normalized geometric mean on the common
  support; used by ``consensus_geomean`` and ``region_two_step``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, ValidationError, whole_number

Array = np.ndarray

MIN_PROB = 1e-300  # interior floor: entries at or below this are rejected
SUM_DRIFT_MAX = 1e-9  # silently renormalize up to this drift, error beyond


def _freeze(arr: Array) -> Array:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------- vectors


@dataclass(frozen=True, eq=False)
class DistVec:
    """Interior simplex vector with ordered outcome labels.

    ``outcomes`` may be ``None`` for large joints, meaning the implicit
    labels 0..n-1.  Construction validates positivity and renormalizes when
    the entry sum drifts from one by at most ``SUM_DRIFT_MAX``; larger drift
    is an error rather than a silent fix.
    """

    probs: Array
    outcomes: tuple | None = None

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("probability vector must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("probability vector has non-finite entries")
        if np.any(arr < MIN_PROB):
            i = int(np.argmin(arr))
            raise ValidationError(
                f"probability vector entry {i} = {arr[i]!r} is not strictly positive"
            )
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_DRIFT_MAX:
            raise ValidationError(
                f"probability vector sums to {total!r}; drift exceeds {SUM_DRIFT_MAX}"
            )
        object.__setattr__(self, "probs", _freeze(arr / total))
        if self.outcomes is not None:
            outs = tuple(self.outcomes)
            if len(outs) != arr.size:
                raise ValidationError(
                    f"{len(outs)} outcome labels for {arr.size} entries"
                )
            object.__setattr__(self, "outcomes", outs)

    def __len__(self) -> int:
        return self.probs.size

    @staticmethod
    def from_weights(weights, outcomes=None) -> "DistVec":
        """Normalize an arbitrary strictly positive weight vector."""
        arr = np.asarray(weights, dtype=float)
        if arr.size == 0 or not np.all(np.isfinite(arr)):
            raise ValidationError("weight vector must be finite and nonempty")
        total = float(arr.sum())
        if total <= MIN_PROB:
            raise ValidationError("weight vector has (near-)zero total mass")
        if np.any(arr <= 0.0):
            raise ValidationError("weight vector must be strictly positive")
        return DistVec(arr / total, outcomes)

    @staticmethod
    def from_json(obj) -> "DistVec":
        if not isinstance(obj, dict) or "probs" not in obj:
            raise SchemaError("distribution JSON must be an object with 'probs'")
        try:
            probs = np.asarray(obj["probs"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"distribution 'probs' must be numbers: {exc}") from exc
        outs = obj.get("outcomes")
        if outs is not None and not isinstance(outs, list):
            raise SchemaError("distribution 'outcomes' must be a list of labels")
        return DistVec(probs, None if outs is None else tuple(outs))


def _check_same_labels(a: DistVec, b: DistVec, *, what: str) -> None:
    if len(a) != len(b):
        raise ValidationError(f"{what}: length mismatch {len(a)} vs {len(b)}")
    if a.outcomes is not None and b.outcomes is not None and a.outcomes != b.outcomes:
        raise ValidationError(f"{what}: outcome labels disagree")


# ------------------------------------------------------------- generators


@dataclass(frozen=True, eq=False)
class NegativeEntropy:
    """f(p) = sum p_i log p_i; Bregman divergence = KL."""


@dataclass(frozen=True, eq=False)
class Mahalanobis:
    """g(p) = 1/2 p^T A p for a symmetric positive definite matrix A."""

    matrix: Array

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError("Mahalanobis matrix must be square")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("Mahalanobis matrix has non-finite entries")
        if not np.allclose(mat, mat.T, atol=1e-12):
            raise ValidationError("Mahalanobis matrix must be symmetric")
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] <= 0.0:
            raise ValidationError(
                f"Mahalanobis matrix must be positive definite (min eig {eigs[0]!r})"
            )
        object.__setattr__(self, "matrix", _freeze(mat))


Generator = NegativeEntropy | Mahalanobis


def softmax(values: Array) -> Array:
    v = np.asarray(values, dtype=float)
    e = np.exp(v - v.max())
    e /= e.sum()
    return e


# ------------------------------------------------------------ joint shapes


@dataclass(frozen=True, eq=False)
class JointShape:
    """Axis sizes of a joint outcome grid plus replica-group structure.

    ``groups`` lists disjoint tuples of axis indices; the axes within one
    group are replicas of a common underlying variable and must share a
    size.  Axes in no group are free.
    """

    sizes: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        sizes = tuple(whole_number(s, "axis size") for s in self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValidationError(f"axis sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)
        groups = tuple(tuple(whole_number(a, "replica group axis") for a in g) for g in self.groups)
        seen: set[int] = set()
        for g in groups:
            if not g:
                raise ValidationError("empty replica group")
            for axis in g:
                if axis < 0 or axis >= len(sizes):
                    raise ValidationError(f"replica group axis {axis} out of range")
                if axis in seen:
                    raise ValidationError(f"axis {axis} appears in two replica groups")
                seen.add(axis)
            if len({sizes[a] for a in g}) != 1:
                raise ValidationError(f"replica group {g} mixes axis sizes")
        object.__setattr__(self, "groups", groups)

    @property
    def joint_size(self) -> int:
        return math.prod(self.sizes)

    def check_length(self, q: DistVec, *, what: str) -> None:
        if len(q) != self.joint_size:
            raise ValidationError(
                f"{what}: vector length {len(q)} does not match joint size "
                f"{self.joint_size} for sizes {self.sizes}"
            )


def joint_outcomes(sizes: tuple[int, ...]) -> tuple:
    """Row-major outcome tuples for a small joint grid (last axis fastest)."""
    return tuple(itertools.product(*(range(s) for s in sizes)))


# ------------------------------------------------------------- kernels


def block_marginals(arr: Array, blocks) -> list[Array]:
    """The marginal of ``arr`` on each axis block, with each marginal's axes
    in ascending order."""
    labels = list(range(arr.ndim))
    return [np.einsum(arr, labels, sorted(b)) for b in blocks]


def m_project_blocks(
    probs: Array, sizes: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]
) -> Array:
    """Right KL projection onto products across disjoint axis blocks.

    Each block keeps its internal joint structure; distinct blocks become
    independent.  ``blocks`` must partition the axes.  The outer product of
    the block marginals, taken in block order, is transposed back (a view
    when the blocks are ascending and contiguous, as in the replica lift).
    Returns a flat array in the original axis order.
    """
    arr = np.asarray(probs, dtype=float).reshape(sizes)
    order = [a for b in blocks for a in sorted(b)]
    if sorted(order) != list(range(len(sizes))):
        raise ValidationError("blocks must partition the joint axes")
    out = functools.reduce(np.multiply.outer, block_marginals(arr, blocks))
    flat = out.transpose(np.argsort(order)).reshape(-1)
    return flat / flat.sum()


def replica_diagonal(arr: Array, groups) -> Array:
    """The entries of ``arr`` where each group's replicas agree, one axis per
    group in group order; ``groups`` must cover every axis."""
    label = {axis: g for g, group in enumerate(groups) for axis in group}
    return np.einsum(arr, [label[a] for a in range(arr.ndim)], list(range(len(groups))))


def geometric_mean(tables) -> Array | None:
    """Normalized elementwise geometric mean of same-shape tables on their
    common support (zero elsewhere), or None when they share no support."""
    stack = np.stack([np.asarray(t, dtype=float) for t in tables])
    common = np.all(stack > 0.0, axis=0)
    if not common.any():
        return None
    mean_log = np.log(np.where(common, stack, 1.0)).mean(axis=0)
    weights = np.where(common, np.exp(mean_log - mean_log[common].max()), 0.0)
    return weights / weights.sum()


# ------------------------------------------------------------- projections


def i_project_diagonal(q: DistVec, shape: JointShape) -> DistVec:
    """Left (exclusive) KL projection onto the diagonal face of a replica grid.

    All axes of ``shape`` must form a single replica group with K >= 2
    copies of one alphabet.  The minimizer of KL(r, q) over distributions
    supported where all replicas agree keeps the diagonal entries of q and
    renormalizes; the result is indexed by the diagonal outcomes
    (t, ..., t).
    """
    shape.check_length(q, what="i_project_diagonal")
    if len(shape.groups) != 1 or set(shape.groups[0]) != set(range(len(shape.sizes))):
        raise ValidationError(
            "i_project_diagonal expects every axis in one replica group"
        )
    k = len(shape.sizes)
    if k < 2:
        raise ValidationError("i_project_diagonal needs at least two replicas")
    diag = replica_diagonal(q.probs.reshape(shape.sizes), shape.groups)
    if float(diag.sum()) <= MIN_PROB:
        raise ValidationError("diagonal of the joint carries (near-)zero mass")
    labels = tuple((t,) * k for t in range(shape.sizes[0]))
    return DistVec.from_weights(diag, labels)


def m_project_product(q: DistVec, shape: JointShape) -> DistVec:
    """Right (inclusive) KL projection onto the fully factorized family.

    The minimizer of KL(q, r) over product distributions r = r_1 x ... x r_K
    is the outer product of the per-axis marginals of q; the result shares
    q's outcome set.
    """
    shape.check_length(q, what="m_project_product")
    singletons = tuple((a,) for a in range(len(shape.sizes)))
    return DistVec(m_project_blocks(q.probs, shape.sizes, singletons), q.outcomes)


def consensus_geomean(tables: list[DistVec] | tuple[DistVec, ...]) -> DistVec:
    """Joint left KL projection of several tables onto their agreement set.

    The minimizer of sum_k KL(r, q_k) over a single distribution r is the
    normalized elementwise geometric mean of the q_k.
    """
    if len(tables) < 1:
        raise ValidationError("consensus_geomean needs at least one table")
    first = tables[0]
    for other in tables[1:]:
        _check_same_labels(first, other, what="consensus_geomean")
    return DistVec(geometric_mean([t.probs for t in tables]), first.outcomes)
