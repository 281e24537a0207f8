"""Smallest-eigenpair solvers: exact dense and warm-startable LOBPCG.

This module holds the numerics only.  Both solvers return the vector as
computed, with its sign unspecified, as ``numpy.linalg.eigh`` does; what a
pair certifies, and with which sign, is decided by
``core.Certificate.from_pair`` alone.  Which solver runs when is the
optimizer's routing (``optimizer._certify_matrix``): one dense solve up to
K = 16 and for validation, warm-started Jacobi-preconditioned LOBPCG first
above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, SymmetricMatrix

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITERS = 200

# Re-orthogonalize the Rayleigh-Ritz basis when its Gram matrix condition
# number exceeds this.
_REORTH_COND = 1e8


@dataclass(frozen=True)
class EigenPair:
    """Smallest eigenpair with its residual norm ||Mv - lambda v||_2.

    ``iterations`` counts Rayleigh-Ritz steps taken by the iterative solver
    (0 for the dense path and for warm starts that are already converged).
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int = 0


class LobpcgNonConvergence(RuntimeError):
    """The residual did not reach tolerance within ``max_iters``."""


def smallest_eigenpair_dense(m: SymmetricMatrix) -> EigenPair:
    """Exact smallest eigenpair via full symmetric eigendecomposition."""
    a = m.entries
    vals, vecs = np.linalg.eigh(a)
    lam = float(vals[0])
    v = vecs[:, 0]
    v = v / np.linalg.norm(v)
    residual = float(np.linalg.norm(a @ v - lam * v))
    return EigenPair(value=lam, vector=v, residual=residual, iterations=0)


def _gram_well_conditioned(gram: np.ndarray) -> bool:
    """Whether Gershgorin's discs prove cond(gram) <= _REORTH_COND / 100.

    The discs bound the spectrum to [lo, hi], up to a few ulps of hi from
    summing them in floating point.  eigvalsh's eigenvalues are within a
    few ulps of ||gram|| <= hi of the true ones, so when hi / lo is 100x
    inside the threshold, eigvalsh would not ask for re-orthogonalization
    either.  A Gram matrix of Gram-Schmidt output is the identity up to
    round-off, which this proves without eigvalsh.
    """
    lo, hi = math.inf, 0.0
    for i, row in enumerate(gram.tolist()):
        centre = row[i]
        radius = sum(map(abs, row)) - abs(centre)
        lo = min(lo, centre - radius)
        hi = max(hi, centre + radius)
    return lo > 0 and hi <= 1e-2 * _REORTH_COND * lo


def _orthonormal_basis(columns: list[np.ndarray]) -> np.ndarray:
    """Modified Gram-Schmidt with conditional re-orthogonalization.

    Near-dependent columns are dropped; the result always contains at least
    the first column's direction.
    """
    # the kept columns fill a C-ordered basis, as np.column_stack would
    v = np.empty((columns[0].shape[0], len(columns)))
    kept: list[np.ndarray] = []
    for col in columns:
        w = col.copy()
        for q in kept:
            w -= (q @ w) * q
        # LOBPCG's norms are math.sqrt(w @ w): for a contiguous w that is
        # bit for bit np.linalg.norm(w), without its wrapper (a strided
        # view would take another BLAS path)
        norm = math.sqrt(w @ w)
        if norm <= 1e-12 * max(1.0, math.sqrt(col @ col)):
            continue
        w /= norm
        v[:, len(kept)] = w
        kept.append(w)
    if len(kept) < len(columns):
        v = np.ascontiguousarray(v[:, :len(kept)])
    gram = v.T @ v
    if _gram_well_conditioned(gram):
        return v
    gvals = np.linalg.eigvalsh(gram)
    if gvals[0] <= 0 or gvals[-1] / gvals[0] > _REORTH_COND:
        # one more MGS pass restores orthogonality at double precision
        refreshed: list[np.ndarray] = []
        for idx in range(v.shape[1]):
            w = v[:, idx].copy()
            for q in refreshed:
                w -= (q @ w) * q
            norm = math.sqrt(w @ w)
            if norm > 1e-12:
                refreshed.append(w / norm)
        v = np.column_stack(refreshed)
    return v


def smallest_eigenpair_lobpcg(m: SymmetricMatrix,
                              warm_start: np.ndarray | None = None,
                              tol: float = DEFAULT_TOL,
                              max_iters: int = DEFAULT_MAX_ITERS) -> EigenPair:
    """Smallest eigenpair by single-vector Jacobi-preconditioned LOBPCG.

    Each iteration performs a Rayleigh-Ritz solve on span{x, T r, p}: the
    current iterate, its preconditioned residual, and the previous search
    direction.  T is the Jacobi preconditioner diag(M)^-1 (up to a scale)
    when every diagonal entry is positive, as it always is for graph
    metrics; otherwise T = I.  Convergence is judged on the true residual
    ||Mx - lambda x||.  With a warm start near the true eigenvector the
    loop exits almost immediately, which is what the optimizer's warm
    re-certification exploits.

    Raises :class:`LobpcgNonConvergence` when the residual has not reached
    ``tol`` within ``max_iters``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    a = m.entries
    k = m.dim

    if warm_start is not None:
        x0 = np.asarray(warm_start, dtype=float)
        if x0.shape != (k,):
            raise DimensionMismatchError(
                f"warm start shape {x0.shape} vs dim {k}")
        norm = np.linalg.norm(x0)
        if norm == 0 or not np.isfinite(norm):
            raise ValueError("warm start must have nonzero finite norm")
        x = x0 / norm
    else:
        x = np.full(k, 1.0 / np.sqrt(k))

    # Jacobi preconditioner scaled by max(diag).  The scale leaves the span
    # unchanged, and ||Tr|| >= ||r|| keeps the preconditioned residual above
    # _orthonormal_basis's absolute drop threshold whenever r itself is.
    diag = a.diagonal()
    precond = float(diag.max()) / diag if bool((diag > 0).all()) else None
    ax = a @ x
    lam = float(x @ ax)
    r = ax - lam * x
    p: np.ndarray | None = None

    for it in range(max_iters + 1):
        res_norm = math.sqrt(r @ r)
        if res_norm <= tol:
            return EigenPair(value=lam, vector=x, residual=res_norm,
                             iterations=it)
        if it == max_iters:
            break
        w = r if precond is None else precond * r
        cols = [x, w] if p is None else [x, w, p]
        basis = _orthonormal_basis(cols)
        t = basis.T @ (a @ basis)
        t = 0.5 * (t + t.T)
        tvals, tvecs = np.linalg.eigh(t)
        y = tvecs[:, 0]
        x_new = basis @ y
        x_new /= math.sqrt(x_new @ x_new)
        # new direction: the Ritz combination minus its x component
        if basis.shape[1] > 1:
            p = basis[:, 1:] @ y[1:]
            pn = math.sqrt(p @ p)
            p = p / pn if pn > 1e-14 else None
        else:
            p = None
        x = x_new
        ax = a @ x
        lam = float(x @ ax)
        r = ax - lam * x

    raise LobpcgNonConvergence(
        f"LOBPCG did not reach tolerance {tol:.1e} in {max_iters} iterations "
        f"(final residual {res_norm:.3e})")
