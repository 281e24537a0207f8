"""Smallest-eigenpair solvers: exact dense, warm LOBPCG and warm RQI.

The optimizer refreshes the first eigenpair of the metric after every block
update that changes it.  Up to K = 16 one dense solve is cheapest, with
warm LOBPCG as the backstop.  Above that, warm Rayleigh-quotient iteration
from the previous eigenvector comes first.  It issues its own pair only when
the pair is well resolved and a Cholesky factor proves it the smallest, and
otherwise hands over to Jacobi-preconditioned LOBPCG from the same warm
start.  A dense backstop replaces a pair whose alignment scalars cannot be
verified.  The only other solve, validation, is dense.
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

    ``iterations`` counts the steps an iterative solver took: Rayleigh-Ritz
    steps for LOBPCG, Rayleigh-quotient steps for RQI (0 for the dense path
    and for warm starts that are already converged).
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
    mag = np.abs(v)
    nz = np.nonzero(mag > 1e-14 * max(1.0, float(mag.max())))[0]
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


# Eigenvector entries below this fraction of the largest entry cannot carry
# alignment at 1e-9 margins in double precision: the optimizer's scalars
# floor them, and smallest_eigenpair_rqi issues no pair that has one.
SCALAR_FLOOR = 1e-6

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
    negative or not finite.
    """
    if not np.isfinite(v).all():
        return None
    vmax = float(v.max())
    if vmax <= 0 or float(v.min()) <= -NEGATIVE_GRACE:
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


def _eigenpair(value: float, x: np.ndarray, residual: float,
               iterations: int) -> EigenPair:
    return EigenPair(value=value, vector=_sign_normalize(x),
                     residual=residual, iterations=iterations)


def _start(a: np.ndarray, warm_start: np.ndarray | None
           ) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Unit start vector x, Ax, its Rayleigh quotient and residual Ax - lam x.

    The warm start is normalized; without one, x is the constant vector.
    """
    k = a.shape[0]
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
    ax = a @ x
    lam = float(x @ ax)
    return x, ax, lam, ax - lam * x


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
    x, ax, lam, r = _start(a, warm_start)

    # Jacobi preconditioner scaled by max(diag).  The scale leaves the span
    # unchanged, and ||Tr|| >= ||r|| keeps the preconditioned residual above
    # _orthonormal_basis's absolute drop threshold whenever r itself is.
    diag = a.diagonal()
    precond = float(diag.max()) / diag if bool((diag > 0).all()) else None
    p: np.ndarray | None = None
    # (residual, value, vector, iterations) of the best iterate so far
    best = (math.sqrt(r @ r), lam, x, 0)

    for it in range(max_iters + 1):
        res_norm = math.sqrt(r @ r)
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

    res_norm, lam, x, it = best
    raise LobpcgNonConvergence(_eigenpair(lam, x, res_norm, it), max_iters)


# Rayleigh-quotient steps smallest_eigenpair_rqi takes before LOBPCG.
_RQI_MAX_STEPS = 4


def _shifted(a: np.ndarray, sigma: float) -> np.ndarray:
    """A - sigma I as a new array."""
    s = a.copy()
    s.ravel()[::s.shape[0] + 1] -= sigma
    return s


def _spectrum_above(a: np.ndarray, sigma: float) -> bool:
    """Whether every eigenvalue of A exceeds sigma.

    A Cholesky factor of A - sigma I exists exactly when that matrix is
    positive definite; by Sylvester's law of inertia this proves it.
    """
    try:
        np.linalg.cholesky(_shifted(a, sigma))
    except np.linalg.LinAlgError:
        return False
    return True


def _rqi_pair(a: np.ndarray, x: np.ndarray, lam: float,
              tol: float) -> EigenPair | None:
    """Rayleigh-quotient iteration from unit x with quotient lam.

    Takes up to _RQI_MAX_STEPS steps x <- (A - lam I)^-1 x, lam <- x'Ax.
    Returns the first pair whose residual is within ``tol`` when it passes
    the acceptance tests of ``smallest_eigenpair_rqi``'s step 4, else None.
    """
    for steps in range(1, _RQI_MAX_STEPS + 1):
        try:
            y = np.linalg.solve(_shifted(a, lam), x)
        except np.linalg.LinAlgError:
            return None  # lam is an eigenvalue to working precision
        norm = math.sqrt(y @ y)
        if not math.isfinite(norm):
            return None
        x = y / norm
        ax = a @ x
        lam = float(x @ ax)
        r = ax - lam * x
        res_norm = math.sqrt(r @ r)
        if res_norm <= tol:
            break
    else:
        return None
    v = _sign_normalize(x)
    if not float(v.min()) > SCALAR_FLOOR * float(v.max()):
        return None
    delta = 1e-9 * abs(lam) + 1e-13 * float(np.abs(a).sum(axis=1).max())
    if not _spectrum_above(a, lam - delta):
        return None
    return EigenPair(value=lam, vector=v, residual=res_norm, iterations=steps)


def smallest_eigenpair_rqi(m: SymmetricMatrix, warm_start: np.ndarray | None,
                           tol: float = DEFAULT_TOL) -> EigenPair:
    """Smallest eigenpair by warm Rayleigh-quotient iteration, else LOBPCG.

    1. A warm start whose residual is already within ``tol`` comes back as
       its own pair, by the arithmetic of LOBPCG's iteration 0 (the same
       bits).
    2. A warm start with an entry <= SCALAR_FLOOR * max goes to LOBPCG.
    3. Otherwise up to _RQI_MAX_STEPS Rayleigh-quotient steps run.  Near an
       eigenpair they converge cubically, though not necessarily to the
       smallest one (Parlett, The Symmetric Eigenvalue Problem, ch. 4).
    4. Their pair is returned only when its residual is within ``tol``,
       every entry of v is > SCALAR_FLOOR * max(v), so the alignment
       scalars 1/v rest on no entry below double precision's reach, and a
       Cholesky factor of M - (lam - delta) I exists, delta = 1e-9 |lam| +
       1e-13 ||M||_inf: by Sylvester's law of inertia no eigenvalue lies
       below lam - delta, so lam is lambda_min to that margin.
    Any other outcome hands over to ``smallest_eigenpair_lobpcg`` from the
    same warm start; its errors (non-convergence, a bad warm start) pass
    through.  ``iterations`` counts the Rayleigh-quotient steps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = m.entries
    x, ax, lam, r = _start(a, warm_start)
    res_norm = math.sqrt(r @ r)
    if res_norm <= tol:
        return _eigenpair(lam, x, res_norm, 0)
    if float(x.min()) > SCALAR_FLOOR * float(x.max()):
        pair = _rqi_pair(a, x, lam, tol)
        if pair is not None:
            return pair
    return smallest_eigenpair_lobpcg(m, warm_start=warm_start, tol=tol)
