"""Core matrix types, graph-metric validation, and Gershgorin disc machinery.

A *graph metric matrix* is a positive definite generalized graph Laplacian:
strictly positive diagonal, non-positive off-diagonals, and a connected
off-diagonal sparsity graph.  The set of such matrices is the search space
of the metric learner; this module provides the matrix substrate, the one
membership check (``validate_graph_metric``), and the Gershgorin disc
arithmetic under per-row scalars that turns the PD cone constraint into
linear constraints.

``SymmetricMatrix`` stores exactly symmetric entries.  The optimizer only
ever builds exactly symmetric inputs, which are copied as they are; the
upper-triangle mirror runs only for inputs that are symmetric to 1e-9.

Connectivity has one rule and one routine: the graph is connected when
Prim's maximum spanning tree (``max_spanning_tree``) exists over the edges
with |m_ij| > CONNECTIVITY_EPS.  Prim runs over the list of edges at or
above its floor, with a heap of the edges leaving the tree.  The optimizer
keeps its protected edges with the same routine over edges >= epsilon >
CONNECTIVITY_EPS, so any tree it finds also proves connectivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np

# Off-diagonal entries with magnitude above this count as graph edges when
# testing connectivity; the optimizer's epsilon must exceed it.
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

    Symmetry is exact by construction: ``entries[i, j]`` and
    ``entries[j, i]`` are the same float.  An input that is exactly
    symmetric is copied as ``a + 0.0``; any other input within 1e-9
    (relative) of symmetric has its upper triangle mirrored onto the lower.
    Both give the same bits, every zero as +0.0.  Entries must be finite.
    The entry array is read-only.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        if (a == a.T).all():
            # the same bits as the mirror below, at about a quarter of its cost
            exact = a + 0.0
        else:
            scale = max(1.0, float(np.max(np.abs(a))))
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
        The symmetric row entries are updated in lockstep.  Raises
        IndexError unless 0 <= col < K.
        """
        k = self.dim
        if not 0 <= col < k:
            raise IndexError(f"column {col} out of range for dim {k}")
        values = np.asarray(values, dtype=float)
        if values.shape != (k - 1,):
            raise DimensionMismatchError(
                f"expected {k - 1} column values, got {values.shape}")
        a = self.entries.copy()
        above, below = values[:col], values[col:]
        a[:col, col] = a[col, :col] = above
        a[col + 1:, col] = a[col, col + 1:] = below
        return SymmetricMatrix(a)


@dataclass(frozen=True)
class Certificate:
    """Positive-definiteness witness.

    With ``eigenpair`` (the default) it holds the smallest eigenpair.  A
    disc certificate (``eigenpair`` False) proves positive definiteness by
    Gershgorin's theorem on S M S^-1 instead: ``lambda_min`` is then the
    smallest scaled disc left-end, a lower bound on the true lambda_min,
    and ``eigvec`` the last computed eigenvector of an earlier matrix, kept
    only as a warm start for the next eigensolve.
    """

    lambda_min: float
    eigvec: np.ndarray  # unit norm, strictly positive entries
    eigenpair: bool = True

    def __post_init__(self):
        v = np.asarray(self.eigvec, dtype=float).copy()
        v.setflags(write=False)
        object.__setattr__(self, "eigvec", v)


@dataclass(frozen=True)
class GraphMetric:
    """A SymmetricMatrix certified to be a graph metric matrix.

    Construct via :func:`validate_graph_metric`; the certificate holds the
    smallest eigenpair at certification time, or a disc bound for the
    optimizer's intermediate iterates (see :class:`Certificate`).
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
        if not (v > 0).all():
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


# Every positive double is at or above this: a zero is never an edge.
_SMALLEST_POSITIVE = math.ulp(0.0)


def max_spanning_tree(m: SymmetricMatrix, floor: float
                      ) -> tuple[tuple[int, int], ...] | None:
    """Maximum-weight spanning tree over edges with |m_ij| >= floor (Prim).

    Lists only the edges at or above the floor (zeros are never edges) and
    keeps those leaving the tree in a heap ordered by (weight descending,
    tree node, new node): ties go to the lowest tree node, then the lowest
    new node.  Returns the sorted edge tuple, or None when those edges do
    not span the graph.
    """
    k = m.dim
    w = np.abs(m.entries)
    w.ravel()[::k + 1] = 0.0
    idx = np.flatnonzero(w >= max(floor, _SMALLEST_POSITIVE))
    rows, cols = np.divmod(idx, k)
    # entries[starts[i]:starts[i + 1]]: node i's edges (-|m_ij|, i, j), j
    # ascending (idx is row-major)
    entries = list(zip((-w.ravel()[idx]).tolist(), rows.tolist(),
                       cols.tolist()))
    starts = np.searchsorted(rows, np.arange(k + 1)).tolist()
    in_tree = [False] * k
    in_tree[0] = True
    heap = entries[:starts[1]]
    heapify(heap)
    edges: list[tuple[int, int]] = []
    while heap:
        _, via, node = heappop(heap)
        if in_tree[node]:
            continue
        in_tree[node] = True
        edges.append((via, node) if via < node else (node, via))
        if len(edges) == k - 1:
            break
        for entry in entries[starts[node]:starts[node + 1]]:
            if not in_tree[entry[2]]:
                heappush(heap, entry)
    if len(edges) < k - 1:
        return None
    return tuple(sorted(edges))


# The smallest double above CONNECTIVITY_EPS: a tree over edges at or above
# it is a tree over edges strictly above CONNECTIVITY_EPS.
_EDGE_FLOOR = math.nextafter(CONNECTIVITY_EPS, math.inf)


def is_connected(m: SymmetricMatrix) -> bool:
    """Whether the edges with |m_ij| > CONNECTIVITY_EPS span the graph."""
    return max_spanning_tree(m, _EDGE_FLOOR) is not None


def validate_graph_metric(m: SymmetricMatrix) -> GraphMetric:
    """Certify ``m`` as a graph metric or raise with the full rejection report.

    The one membership check.  ``GraphMetricRejection.reasons`` lists every
    violated condition: a non-positive diagonal entry, a positive
    off-diagonal entry, a disconnected graph (``is_connected``), and
    lambda_min at or below PD_TOL * trace / K from one dense solve at any
    K.  On success the certificate carries the smallest eigenpair,
    sign-normalized so all entries are positive (Perron-Frobenius
    guarantees a strictly positive first eigenvector for graph metrics).
    """
    from . import eigen  # local import: eigen depends on this module's types

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
    floor = PD_TOL * max(m.trace(), 0.0) / m.dim
    if not pair.value > floor:
        reasons.append(f"non-PD (lambda_min {pair.value:.6g} <= floor "
                       f"{floor:.6g})")
    if reasons:
        raise GraphMetricRejection(reasons)
    vec = eigen.clamp_positive(pair.vector)
    if vec is None:
        # cannot happen for a true graph metric; indicates a broken solve
        raise GraphMetricRejection(
            ["first eigenvector has non-positive entries (certification failed)"])
    return GraphMetric(matrix=m, certificate=Certificate(lambda_min=pair.value,
                                                         eigvec=vec))


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
