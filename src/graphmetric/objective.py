"""Graph Laplacian regularizer objective and its analytic gradients.

The learning objective is Q(M) = sum over ordered sample pairs (i, j) of
exp(-(f_i - f_j)^T M (f_i - f_j)) * (z_i - z_j)^2: label disagreement
weighted by the metric-induced edge weight.  The double sum runs over
ordered pairs, so each unordered pair contributes twice; pairs with equal
labels contribute exactly zero and are skipped.

Q depends on M only through the per-pair distances delta_p = d_p^T M d_p,
and a Frank-Wolfe direction moves every delta_p linearly in the step size.
The value and gradients therefore take only a :class:`PairDistances`
point, which ``pair_distances`` (or ``GLRObjective.at``) builds from a
matrix, and a line-search trial costs O(P) once the distances of the
incumbent are known; a learn builds them once, at M^0, and carries the
accepted line-search points on (``optimizer.OptimizerState.point``).  A
point keeps its pair terms w_p e^{-delta_p} once they are computed, so the
gradient at an accepted line-search trial reuses the exponentials of its
value, and so does the slope of the :class:`PairRay` there.  The pair
cache memoizes the
feature-difference columns of the last off-diagonal column asked for,
which every gradient and ray of one column step shares.

Any object that follows :class:`ConvexObjective` can drive the optimizer;
:class:`GLRObjective` is the one the experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Protocol

import numpy as np

from .core import DimensionMismatchError, SymmetricMatrix


class ConvexObjective(Protocol):
    """Differentiable convex objective over symmetric metric matrices.

    The optimizer works on the objective's own representation of an
    iterate (a *point*): ``at`` builds it from a matrix, and ``ray`` returns
    the ray through a point along ``direction``, which changes the diagonal
    (``col`` None) or column ``col``'s off-diagonal entries (rows 0..K-1
    with ``col`` skipped, mirrored into the row).  Called with gamma the
    ray gives the point moved by gamma * direction; with phi(gamma) the
    value there, its ``curvature`` is phi''(0) and ``slope(point)`` is
    phi'(gamma) at a point it gave.  ``value`` and the gradients take
    points.
    """

    def at(self, m: SymmetricMatrix) -> Any: ...

    def ray(self, point: Any, direction: np.ndarray,
            col: int | None = None) -> Any: ...

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
    # (col, diffs[:, col], diffs[:, rows]) of the last column asked for
    _block: list = field(default_factory=lambda: [None], init=False,
                         repr=False, compare=False)

    def column_block(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """``diffs[:, col]`` and ``diffs[:, rows]`` for rows 0..K-1 with
        ``col`` skipped, both read-only; memoized for the last column.

        The second array is the fancy-index copy itself (Fortran-ordered):
        its layout picks the BLAS kernel of the products taken with it, so
        a C-ordered copy would change their last bits.
        """
        block = self._block[0]
        if block is None or block[0] != col:
            d = self.diffs
            rows = [r for r in range(d.shape[1]) if r != col]
            column, others = d[:, col].copy(), d[:, rows]
            column.setflags(write=False)
            others.setflags(write=False)
            block = (col, column, others)
            self._block[0] = block
        return block[1], block[2]


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


# the clip of delta in exp(-delta); 0-d arrays spare a scalar conversion
_MIN_EXPONENT, _MAX_EXPONENT = np.array(-745.0), np.array(745.0)


@dataclass(eq=False, slots=True)
class PairDistances:
    """delta_p = d_p^T M d_p for every cached cross pair of ``ctx``.

    Stands in for M wherever the objective only needs these distances.
    Not frozen, which would slow the build a line search makes per trial.
    """

    ctx: ObjectiveContext
    delta: np.ndarray  # (P,)
    _terms: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def terms(self) -> np.ndarray:
        """weights * exp(-delta) per cross pair, computed once; read-only."""
        terms = self._terms
        if terms is None:
            terms = np.maximum(self.delta, _MIN_EXPONENT)
            np.minimum(terms, _MAX_EXPONENT, out=terms)
            np.negative(terms, out=terms)
            np.exp(terms, out=terms)
            np.multiply(self.ctx.pair_cache.weights, terms, out=terms)
            terms.setflags(write=False)
            self._terms = terms
        return terms


@dataclass(eq=False, slots=True)
class PairRay:
    """gamma -> delta + gamma * rate, the ray through ``start``: along it
    phi(gamma) = sum_p t_p e^{-gamma rate_p} with t_p the start's terms, so
    phi''(0) = sum_p t_p rate_p^2 and phi'(gamma) = -sum_p t_p(gamma)
    rate_p, read off the terms a trial computed anyway."""

    start: PairDistances
    rate: np.ndarray

    def __call__(self, gamma: float) -> PairDistances:
        return PairDistances(self.start.ctx,
                             self.start.delta + gamma * self.rate)

    @property
    def curvature(self) -> float:
        return float((self.start.terms * self.rate) @ self.rate)

    def slope(self, point: PairDistances) -> float:
        return -float(point.terms @ self.rate)


def pair_distances(ctx: ObjectiveContext, m: SymmetricMatrix) -> PairDistances:
    """The per-pair distances of ``m`` over ``ctx``'s cross pairs: the one
    way a matrix becomes a point of the objective."""
    if m.dim != ctx.num_features:
        raise DimensionMismatchError(
            f"metric dim {m.dim} != feature dim {ctx.num_features}")
    d = ctx.pair_cache.diffs
    return PairDistances(ctx, np.sum((d @ m.entries) * d, axis=1))


def _point(ctx: ObjectiveContext, point: PairDistances) -> PairDistances:
    """``point``, checked to be distances over ``ctx``'s cross pairs."""
    if not isinstance(point, PairDistances):
        raise TypeError(
            f"the objective takes PairDistances, not "
            f"{type(point).__name__}; build them with pair_distances(ctx, m)")
    if point.ctx is not ctx:
        raise ValueError("pair distances belong to another context")
    return point


def glr_value(ctx: ObjectiveContext, point: PairDistances) -> float:
    """Q(M): non-negative, zero iff no pair of samples disagrees in label."""
    return float(np.add.reduce(_point(ctx, point).terms))


def glr_grad_diag(ctx: ObjectiveContext, point: PairDistances) -> np.ndarray:
    """dQ/dm_kk = -sum over ordered pairs of (f_i^k - f_j^k)^2 e^{-delta} (z_i-z_j)^2."""
    return -(_point(ctx, point).terms @ ctx.pair_cache.sq_diffs)


def glr_grad_offdiag_col(ctx: ObjectiveContext, point: PairDistances,
                         col: int) -> np.ndarray:
    """Gradient with respect to column ``col``'s off-diagonal entries.

    Entries m[r, col] and m[col, r] are one tied variable, hence the factor
    2.  Returns length K-1, rows 0..K-1 with ``col`` skipped.
    """
    point = _point(ctx, point)
    dim = ctx.num_features
    if not 0 <= col < dim:
        raise IndexError(f"column {col} out of range for dim {dim}")
    column, others = ctx.pair_cache.column_block(col)
    return -2.0 * ((point.terms * column) @ others)


@dataclass(frozen=True)
class GLRObjective:
    """The GLR objective bound to one sample context (ConvexObjective).

    Points are :class:`PairDistances`; ``at`` builds one in O(P K^2), and
    moving one along a ray costs O(P).  It holds no state.
    """

    ctx: ObjectiveContext

    def at(self, m: SymmetricMatrix) -> PairDistances:
        return pair_distances(self.ctx, m)

    def ray(self, point: PairDistances, direction: np.ndarray,
            col: int | None = None) -> PairRay:
        """The ray's rate d(delta)/d(gamma) is sum_k d_pk^2 dir_k for the
        diagonal and 2 d_pc sum_{r != c} d_pr dir_r for column c (the 2
        counts the mirrored row entry)."""
        cache = self.ctx.pair_cache
        if col is None:
            rate = cache.sq_diffs @ direction
        else:
            column, others = cache.column_block(col)
            rate = 2.0 * column * (others @ direction)
        return PairRay(point, rate)

    def value(self, point: PairDistances) -> float:
        return glr_value(self.ctx, point)

    def grad_diag(self, point: PairDistances) -> np.ndarray:
        return glr_grad_diag(self.ctx, point)

    def grad_offdiag_col(self, point: PairDistances, col: int) -> np.ndarray:
        return glr_grad_offdiag_col(self.ctx, point, col)
