"""Smallest-eigenpair solvers: exact dense and warm-startable LOBPCG.

The optimizer refreshes the first eigenpair of the metric after every block
update; Jacobi-preconditioned LOBPCG with the previous eigenvector as
initial guess makes that refresh cheap.  Every other solve is dense:
validation, scalar realignment and the backstop when LOBPCG fails.
"""

from __future__ import annotations

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


class EigensolverError(RuntimeError):
    pass


class LobpcgNonConvergence(EigensolverError):
    """Iteration budget exhausted; carries the best pair found so far."""

    def __init__(self, best: EigenPair, max_iters: int):
        self.best = best
        super().__init__(
            f"LOBPCG did not reach tolerance in {max_iters} iterations "
            f"(best residual {best.residual:.3e})")


def _sign_normalize(v: np.ndarray) -> np.ndarray:
    """Flip sign so the first entry with non-negligible magnitude is positive."""
    nz = np.nonzero(np.abs(v) > 1e-14 * max(1.0, float(np.max(np.abs(v)))))[0]
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


# Entries of a computed Perron eigenvector below this are treated as genuine
# negativity (certification failure) rather than round-off.
NEGATIVE_GRACE = 1e-12
_POSITIVE_FLOOR = 1e-13


def clamp_positive(v: np.ndarray) -> np.ndarray | None:
    """Positive representative of a floating-point Perron eigenvector.

    A graph metric's first eigenvector is strictly positive, but entries can
    fall below double precision and round to tiny negatives.  Entries above
    -NEGATIVE_GRACE are lifted to a 1e-13-relative floor and the vector is
    renormalized (the residual moves by ~1e-13 * ||M||, far inside the
    certificate tolerance).  Returns None when some entry is genuinely
    negative.
    """
    vmax = float(np.max(v))
    if vmax <= 0 or float(np.min(v)) <= -NEGATIVE_GRACE:
        return None
    w = np.maximum(v, _POSITIVE_FLOOR * vmax)
    return w / np.linalg.norm(w)


def smallest_eigenpair_dense(m: SymmetricMatrix) -> EigenPair:
    """Exact smallest eigenpair via full symmetric eigendecomposition."""
    a = m.entries
    vals, vecs = np.linalg.eigh(a)
    lam = float(vals[0])
    v = _sign_normalize(vecs[:, 0])
    v = v / np.linalg.norm(v)
    residual = float(np.linalg.norm(a @ v - lam * v))
    return EigenPair(value=lam, vector=v, residual=residual, iterations=0)


def _orthonormal_basis(columns: list[np.ndarray]) -> np.ndarray:
    """Modified Gram-Schmidt with conditional re-orthogonalization.

    Near-dependent columns are dropped; the result always contains at least
    the first column's direction.
    """
    kept: list[np.ndarray] = []
    for col in columns:
        w = col.astype(float, copy=True)
        for q in kept:
            w -= (q @ w) * q
        norm = np.linalg.norm(w)
        if norm <= 1e-12 * max(1.0, float(np.linalg.norm(col))):
            continue
        kept.append(w / norm)
    v = np.column_stack(kept)
    gram = v.T @ v
    gvals = np.linalg.eigvalsh(gram)
    if gvals[0] <= 0 or gvals[-1] / gvals[0] > _REORTH_COND:
        # one more MGS pass restores orthogonality at double precision
        refreshed: list[np.ndarray] = []
        for idx in range(v.shape[1]):
            w = v[:, idx].copy()
            for q in refreshed:
                w -= (q @ w) * q
            norm = np.linalg.norm(w)
            if norm > 1e-12:
                refreshed.append(w / norm)
        v = np.column_stack(refreshed)
    return v


def _eigenpair(value: float, x: np.ndarray, residual: float,
               iterations: int) -> EigenPair:
    return EigenPair(value=value, vector=_sign_normalize(x),
                     residual=residual, iterations=iterations)


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
    loop exits almost immediately, which is what the optimizer's
    certification after each block step exploits.

    Raises :class:`LobpcgNonConvergence` (carrying the best pair so far)
    when the residual has not reached ``tol`` within ``max_iters``.
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
    diag = np.diag(a)
    precond = float(np.max(diag)) / diag if bool(np.all(diag > 0)) else None
    ax = a @ x
    lam = float(x @ ax)
    r = ax - lam * x
    p: np.ndarray | None = None
    # (residual, value, vector, iterations) of the best iterate so far
    best = (float(np.linalg.norm(r)), lam, x, 0)

    for it in range(max_iters + 1):
        res_norm = float(np.linalg.norm(r))
        if res_norm <= tol:
            return _eigenpair(lam, x, res_norm, it)
        if res_norm < best[0]:
            best = (res_norm, lam, x, it)
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
        x_new /= np.linalg.norm(x_new)
        # new direction: the Ritz combination minus its x component
        if basis.shape[1] > 1:
            p = basis[:, 1:] @ y[1:]
            pn = np.linalg.norm(p)
            p = p / pn if pn > 1e-14 else None
        else:
            p = None
        x = x_new
        ax = a @ x
        lam = float(x @ ax)
        r = ax - lam * x

    res_norm, lam, x, it = best
    raise LobpcgNonConvergence(_eigenpair(lam, x, res_norm, it), max_iters)
