"""Core matrix types, graph-metric validation, and Gershgorin disc machinery.

A *graph metric matrix* is a positive definite generalized graph Laplacian:
strictly positive diagonal, non-positive off-diagonals, and a connected
off-diagonal sparsity graph.  The set of such matrices is the search space
of the metric learner; this module provides the matrix substrate, the
membership test, and the disc-alignment scalars that turn the PD cone
constraint into linear constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Off-diagonal entries with magnitude above this count as graph edges when
# testing connectivity.
CONNECTIVITY_EPS = 1e-12

# Relative floor for positive-definiteness certification: accept when
# lambda_min > PD_TOL * trace / K.  Scale-relative so small-norm but
# well-conditioned matrices are not rejected.
PD_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class GraphMetricRejection(ValueError):
    """A matrix failed graph-metric validation.

    Carries the full rejection report: one entry per violated condition.
    """

    def __init__(self, reasons: list[str]):
        self.reasons = list(reasons)
        super().__init__("not a graph metric: " + "; ".join(self.reasons))


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense K x K real symmetric matrix.

    Symmetry is exact by construction: the constructor mirrors the upper
    triangle onto the lower, so ``entries[i, j]`` and ``entries[j, i]`` are
    the same float.  The entry array is read-only.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
        if float(np.max(np.abs(a - a.T))) > 1e-9 * scale:
            raise ValueError("input matrix is not symmetric")
        upper = np.triu(a, 1)
        exact = np.diag(np.diag(a)) + upper + upper.T
        exact.setflags(write=False)
        object.__setattr__(self, "entries", exact)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        # exactly rounded, summation-order independent
        return math.fsum(np.diag(self.entries))

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries).copy()

    def with_diagonal(self, diag: np.ndarray) -> "SymmetricMatrix":
        """New matrix with the diagonal replaced, off-diagonals unchanged."""
        diag = np.asarray(diag, dtype=float)
        if diag.shape != (self.dim,):
            raise DimensionMismatchError(
                f"diagonal of length {diag.shape} for dim {self.dim}")
        a = self.entries.copy()
        np.fill_diagonal(a, diag)
        return SymmetricMatrix(a)

    def with_offdiag_column(self, col: int, values: np.ndarray) -> "SymmetricMatrix":
        """New matrix with column ``col``'s off-diagonal entries replaced.

        ``values`` has length K-1 and lists rows 0..K-1 skipping ``col``.
        The symmetric row entries are updated in lockstep.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (self.dim - 1,):
            raise DimensionMismatchError(
                f"expected {self.dim - 1} column values, got {values.shape}")
        rows = [r for r in range(self.dim) if r != col]
        a = self.entries.copy()
        a[rows, col] = values
        a[col, rows] = values
        return SymmetricMatrix(a)


@dataclass(frozen=True)
class Certificate:
    """Positive-definiteness witness: the smallest eigenpair."""

    lambda_min: float
    eigvec: np.ndarray  # unit norm, strictly positive entries

    def __post_init__(self):
        v = np.asarray(self.eigvec, dtype=float).copy()
        v.setflags(write=False)
        object.__setattr__(self, "eigvec", v)


@dataclass(frozen=True)
class GraphMetric:
    """A SymmetricMatrix certified to be a graph metric matrix.

    Construct via :func:`validate_graph_metric`; the certificate holds the
    smallest eigenpair at certification time.
    """

    matrix: SymmetricMatrix
    certificate: Certificate

    @property
    def dim(self) -> int:
        return self.matrix.dim


@dataclass(frozen=True)
class GershgorinScalars:
    """Strictly positive per-row scalars s defining S = diag(s).

    Only the ratios s_i / s_j matter: the similarity transform S M S^-1 is
    invariant under a common positive rescaling of s.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.ndim != 1:
            raise ValueError("scalars must be a 1-D vector")
        if not np.all(v > 0):
            raise ValueError("all Gershgorin scalars must be strictly positive")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def scaled_radii(m: SymmetricMatrix, s: GershgorinScalars) -> np.ndarray:
    """Disc radii of B = S M S^-1: entry i is s_i * sum_{j != i} |m_ij| / s_j."""
    if s.dim != m.dim:
        raise DimensionMismatchError(f"scalars dim {s.dim} != matrix dim {m.dim}")
    a = np.abs(m.entries).copy()
    np.fill_diagonal(a, 0.0)
    sv = s.values
    # ratio form s_i / s_j keeps the result invariant under common rescaling
    ratios = sv[:, None] / sv[None, :]
    return np.sum(a * ratios, axis=1)


def scaled_left_ends(m: SymmetricMatrix, s: GershgorinScalars) -> np.ndarray:
    """Disc left-ends of the similar-transformed matrix S M S^-1.

    Centers are unchanged by the transform; only radii rescale.
    """
    return np.diag(m.entries) - scaled_radii(m, s)


def connected_components(m: SymmetricMatrix, eps: float = CONNECTIVITY_EPS) -> int:
    """Number of connected components of the off-diagonal sparsity graph."""
    k = m.dim
    adj = np.abs(m.entries) > eps
    np.fill_diagonal(adj, False)
    seen = np.zeros(k, dtype=bool)
    components = 0
    for start in range(k):
        if seen[start]:
            continue
        components += 1
        stack = [start]
        seen[start] = True
        while stack:
            node = stack.pop()
            for nbr in np.nonzero(adj[node])[0]:
                if not seen[nbr]:
                    seen[nbr] = True
                    stack.append(int(nbr))
    return components


def is_connected(m: SymmetricMatrix, eps: float = CONNECTIVITY_EPS) -> bool:
    return connected_components(m, eps) == 1


def definition_violations(m: SymmetricMatrix, tol: float = PD_TOL) -> list[str]:
    """Check the four graph-metric conditions; return the violated ones.

    An empty list means the matrix is a graph metric.  The PD check solves
    densely at every K and accepts lambda_min > tol * trace / K
    (scale-relative floor).
    """
    return _audit(m, tol)[0]


def validate_graph_metric(m: SymmetricMatrix, tol: float = PD_TOL) -> GraphMetric:
    """Certify ``m`` as a graph metric or raise with the full rejection report.

    On success the returned certificate carries the smallest eigenpair,
    sign-normalized so all entries are positive (Perron-Frobenius guarantees
    a strictly positive first eigenvector for graph metrics).
    """
    reasons, lam, vec = _audit(m, tol)
    if reasons:
        raise GraphMetricRejection(reasons)
    if vec is None:
        # cannot happen for a true graph metric; indicates a broken solve
        raise GraphMetricRejection(
            ["first eigenvector has non-positive entries (certification failed)"])
    return GraphMetric(matrix=m, certificate=Certificate(lambda_min=lam, eigvec=vec))


def _audit(m: SymmetricMatrix, tol: float
           ) -> tuple[list[str], float, np.ndarray | None]:
    """Reasons, lambda_min and clamped eigenvector from one eigensolve."""
    from . import eigen  # local import: eigen depends on this module's types

    if tol <= 0:
        raise ValueError("tol must be positive")
    reasons = []
    a = m.entries
    diag = np.diag(a)
    if not np.all(diag > 0):
        bad = np.nonzero(diag <= 0)[0]
        reasons.append(f"non-positive diagonal (rows {bad.tolist()})")
    i, j = np.nonzero(np.triu(a, 1) > 0)
    if i.size:
        pairs = list(zip(i.tolist(), j.tolist()))
        reasons.append(f"positive off-diagonal (entries {pairs})")
    if not is_connected(m):
        reasons.append("disconnected graph")
    pair = eigen.smallest_eigenpair_dense(m)
    floor = tol * max(m.trace(), 0.0) / m.dim
    if not pair.value > floor:
        reasons.append(f"non-PD (lambda_min {pair.value:.6g} <= floor "
                       f"{floor:.6g})")
    return reasons, pair.value, eigen.clamp_positive(pair.vector)


def alignment_scalars(g: GraphMetric) -> GershgorinScalars:
    """Scalars s_k = 1 / v_k from the certified first eigenvector.

    Under these scalars all disc left-ends of S M S^-1 coincide at
    lambda_min, making the Gershgorin lower bound tight.
    """
    v = g.certificate.eigvec
    if np.any(v <= 0):
        raise ValueError(
            "certificate eigenvector has non-positive entries; invalid certificate")
    return GershgorinScalars(values=1.0 / v)


def pairwise_mahalanobis(features_a: np.ndarray, features_b: np.ndarray,
                         m: SymmetricMatrix) -> np.ndarray:
    """All-pairs quadratic-form distances between two sample sets.

    Returns an (len(a), len(b)) array.  Uses the bilinear expansion
    d^T M d = a^T M a - 2 a^T M b + b^T M b; tiny negative round-off is
    clamped to zero so downstream exp(-d) stays in (0, 1].
    """
    fa = np.atleast_2d(np.asarray(features_a, dtype=float))
    fb = np.atleast_2d(np.asarray(features_b, dtype=float))
    if fa.shape[1] != m.dim or fb.shape[1] != m.dim:
        raise DimensionMismatchError("feature dimension does not match metric")
    ma = fa @ m.entries
    qa = np.sum(ma * fa, axis=1)
    qb = np.sum((fb @ m.entries) * fb, axis=1)
    cross = ma @ fb.T
    d = qa[:, None] - 2.0 * cross + qb[None, :]
    return np.maximum(d, 0.0)
