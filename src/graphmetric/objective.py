"""Graph Laplacian regularizer objective and its analytic gradients.

The learning objective is Q(M) = sum over ordered sample pairs (i, j) of
exp(-(f_i - f_j)^T M (f_i - f_j)) * (z_i - z_j)^2: label disagreement
weighted by the metric-induced edge weight.  The double sum runs over
ordered pairs, so each unordered pair contributes twice; pairs with equal
labels contribute exactly zero and are skipped.

Q depends on M only through the per-pair distances delta_p = d_p^T M d_p,
and a Frank-Wolfe direction moves every delta_p linearly in the step size.
The value and gradients therefore accept either a matrix or its
:class:`PairDistances`, and a line-search trial costs O(P) once the
distances of the incumbent are known.

Any object that follows :class:`ConvexObjective` can drive the optimizer;
:class:`GLRObjective` is the one the experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Protocol

import numpy as np

from .core import DimensionMismatchError, SymmetricMatrix


class ConvexObjective(Protocol):
    """Differentiable convex objective over symmetric metric matrices.

    The optimizer works on the objective's own representation of an
    iterate (a *point*): ``at`` builds it from a matrix, and ``ray`` returns
    the map gamma -> point moved by gamma * direction, where ``direction``
    changes the diagonal (``col`` None) or column ``col``'s off-diagonal
    entries (rows 0..K-1 with ``col`` skipped, mirrored into the row).
    ``value`` and the gradients take such points.
    """

    def at(self, m: SymmetricMatrix) -> Any: ...

    def ray(self, point: Any, direction: np.ndarray,
            col: int | None = None) -> Callable[[float], Any]: ...

    def value(self, point: Any) -> float: ...

    def grad_diag(self, point: Any) -> np.ndarray: ...

    def grad_offdiag_col(self, point: Any, col: int) -> np.ndarray: ...


@dataclass(frozen=True)
class _PairCache:
    """Cross-label pair data: feature differences and pair weights.

    ``weights`` fold in the ordered-pair double count: each unordered pair
    carries 2 * (z_i - z_j)^2.
    """

    diffs: np.ndarray      # (P, K) f_i - f_j per cross pair
    sq_diffs: np.ndarray   # (P, K) elementwise squares of diffs
    weights: np.ndarray    # (P,)


@dataclass(frozen=True)
class ObjectiveContext:
    """Immutable sample data for the GLR objective.

    features: (N, K) row-per-sample matrix; labels: length-N reals
    (+1 / -1 for one-vs-all tasks, but any finite values are accepted).
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        z = np.asarray(self.labels, dtype=float)
        if f.ndim != 2:
            raise ValueError("features must be a 2-D (N, K) array")
        n = f.shape[0]
        if z.shape != (n,):
            raise ValueError(f"labels shape {z.shape} does not match N={n}")
        if n < 2:
            raise ValueError("need at least 2 samples")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(z))):
            raise ValueError("features and labels must be finite")
        f = f.copy()
        z = z.copy()
        f.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", z)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @cached_property
    def pair_cache(self) -> _PairCache:
        f, z = self.features, self.labels
        i, j = np.triu_indices(self.num_samples, k=1)
        dz2 = (z[i] - z[j]) ** 2
        keep = dz2 > 0.0
        diffs = f[i[keep]] - f[j[keep]]
        return _PairCache(diffs=diffs, sq_diffs=diffs ** 2,
                          weights=2.0 * dz2[keep])


@dataclass(frozen=True, eq=False)
class PairDistances:
    """delta_p = d_p^T M d_p for every cached cross pair of ``ctx``.

    Stands in for M wherever the objective only needs these distances.
    """

    ctx: ObjectiveContext
    delta: np.ndarray  # (P,)

    @property
    def dim(self) -> int:
        return self.ctx.num_features


MetricLike = SymmetricMatrix | PairDistances


def _check_dims(ctx: ObjectiveContext, m: MetricLike) -> None:
    if m.dim != ctx.num_features:
        raise DimensionMismatchError(
            f"metric dim {m.dim} != feature dim {ctx.num_features}")


def pair_distances(ctx: ObjectiveContext, m: SymmetricMatrix) -> PairDistances:
    """The per-pair distances of ``m`` over ``ctx``'s cross pairs."""
    _check_dims(ctx, m)
    d = ctx.pair_cache.diffs
    return PairDistances(ctx, np.sum((d @ m.entries) * d, axis=1))


def _pair_terms(ctx: ObjectiveContext, m: MetricLike) -> np.ndarray:
    """weights * exp(-delta) per cached cross pair."""
    if isinstance(m, PairDistances):
        if m.ctx is not ctx:
            raise ValueError("pair distances belong to another context")
        delta = m.delta
    else:
        delta = pair_distances(ctx, m).delta
    return ctx.pair_cache.weights * np.exp(
        -np.minimum(np.maximum(delta, -745.0), 745.0))


def glr_value(ctx: ObjectiveContext, m: MetricLike) -> float:
    """Q(M): non-negative, zero iff no pair of samples disagrees in label."""
    _check_dims(ctx, m)
    return float(np.sum(_pair_terms(ctx, m)))


def glr_grad_diag(ctx: ObjectiveContext, m: MetricLike) -> np.ndarray:
    """dQ/dm_kk = -sum over ordered pairs of (f_i^k - f_j^k)^2 e^{-delta} (z_i-z_j)^2."""
    _check_dims(ctx, m)
    return -(_pair_terms(ctx, m) @ ctx.pair_cache.sq_diffs)


def glr_grad_offdiag_col(ctx: ObjectiveContext, m: MetricLike,
                         col: int) -> np.ndarray:
    """Gradient with respect to column ``col``'s off-diagonal entries.

    Entries m[r, col] and m[col, r] are one tied variable, hence the factor
    2.  Returns length K-1, rows 0..K-1 with ``col`` skipped.
    """
    _check_dims(ctx, m)
    if not 0 <= col < m.dim:
        raise IndexError(f"column {col} out of range for dim {m.dim}")
    rows = [r for r in range(m.dim) if r != col]
    d = ctx.pair_cache.diffs
    return -2.0 * ((_pair_terms(ctx, m) * d[:, col]) @ d[:, rows])


@dataclass(frozen=True)
class GLRObjective:
    """The GLR objective bound to one sample context (ConvexObjective).

    Points are :class:`PairDistances`; moving one along a ray costs O(P).
    """

    ctx: ObjectiveContext

    def at(self, m: SymmetricMatrix) -> PairDistances:
        return pair_distances(self.ctx, m)

    def ray(self, point: PairDistances, direction: np.ndarray,
            col: int | None = None) -> Callable[[float], PairDistances]:
        """gamma -> delta + gamma * d(delta)/d(gamma), with the rate
        sum_k d_pk^2 dir_k for the diagonal and 2 d_pc sum_{r != c} d_pr
        dir_r for column c (the 2 counts the mirrored row entry)."""
        cache = self.ctx.pair_cache
        if col is None:
            rate = cache.sq_diffs @ direction
        else:
            d = cache.diffs
            rows = [r for r in range(self.ctx.num_features) if r != col]
            rate = 2.0 * d[:, col] * (d[:, rows] @ direction)
        return lambda gamma: PairDistances(self.ctx, point.delta + gamma * rate)

    def value(self, point: MetricLike) -> float:
        return glr_value(self.ctx, point)

    def grad_diag(self, point: MetricLike) -> np.ndarray:
        return glr_grad_diag(self.ctx, point)

    def grad_offdiag_col(self, point: MetricLike, col: int) -> np.ndarray:
        return glr_grad_offdiag_col(self.ctx, point, col)
