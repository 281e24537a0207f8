"""Alternating Frank-Wolfe metric learning over graph metric matrices.

The loop alternates a diagonal Frank-Wolfe pass whose LP subproblem has a
closed-form vertex and per-column block-coordinate Frank-Wolfe passes over
the off-diagonals with an irreducibility floor.  Up to K = 16, as in the
paper, a step that changes the matrix certifies the new iterate by its
smallest eigenpair (lambda_min, v) and in the same step re-aligns all
Gershgorin disc left-ends at lambda_min via s_k = 1 / v_k, so the linear PD
surrogate constraints of the next step are tight around the incumbent.
Above K = 16 a column step's iterate lies in the scaled disc polytope of
the current scalars, so its own disc left-ends prove lambda_min >= rho; the
step keeps the scalars and solves no eigenproblem, and the learner
re-certifies and re-aligns once per sweep (``learn_metric``).  Eigenpairs
come from ``_certify_matrix``: one dense solve first up to K = 16, warm
LOBPCG first above it.  Every iterate stays a certified graph metric whose
scalars its certificate verifies.  Column steps keep the graph connected by
pinning the edges of Prim's maximum spanning tree
(``core.max_spanning_tree``) at magnitude >= epsilon; the config holds
epsilon above core.CONNECTIVITY_EPS, so that tree also proves connectivity
under ``core.is_connected``'s rule.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable

import numpy as np

from . import eigen, lp
from .core import (CONNECTIVITY_EPS, Certificate, GershgorinScalars,
                   GraphMetric, SymmetricMatrix, is_connected,
                   max_spanning_tree, scaled_left_ends, scaled_radii,
                   validate_graph_metric)
from .objective import ConvexObjective, GLRObjective, ObjectiveContext

log = logging.getLogger(__name__)

# Eigensolver tolerance inside the optimizer; tighter than the public
# default so feasibility margins are not eaten by eigenvector error.
_EIG_TOL = 1e-11

_FEAS_SLACK = 1e-9
_ARMIJO_C = 1e-4
_MIN_STEP = 1e-12

Observer = Callable[[str, "OptimizerState"], None]


class ConfigError(ValueError):
    """Optimizer configuration violates its invariants."""


class CertificationError(RuntimeError):
    """An iterate failed graph-metric certification (should not happen)."""


class SubproblemInfeasibleError(RuntimeError):
    """A Frank-Wolfe LP had no feasible point; rho / trace_cap mismatch."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the metric learner.

    ``trace_cap``, ``rho`` and ``epsilon`` default to None and are resolved
    against the feature dimension K: trace_cap = K, rho = 1e-4 * C / K,
    epsilon = 1e-3 * C / K.  Building a config coerces numeric strings to
    float and checks the invariants that hold at any K; ``resolve`` checks
    the ones that depend on K.
    """

    trace_cap: float | None = None
    rho: float | None = None
    epsilon: float | None = None
    fw_max_iters: int = 100
    outer_max_iters: int = 50
    obj_rel_tol: float = 1e-6

    def __post_init__(self):
        for name in ("trace_cap", "rho", "epsilon", "obj_rel_tol"):
            value = getattr(self, name)
            if value is None and name != "obj_rel_tol":
                continue  # resolved against K
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{name} must be a number, not {value!r}") from None
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, not {value}")
            if value <= 0:
                raise ConfigError(f"{name} must be positive")
            object.__setattr__(self, name, value)
        counts = (self.fw_max_iters, self.outer_max_iters)
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer))
               for n in counts):
            raise ConfigError(f"iteration counts must be integers: {counts}")
        if min(counts) < 1:
            raise ConfigError("iteration counts must be >= 1")

    def resolve(self, dim: int) -> "OptimizerConfig":
        """Fill defaults for dimension ``dim``; check the invariants on K.

        A config whose trace_cap, rho and epsilon are all set comes back as
        the same object.
        """
        if dim < 2:
            raise ConfigError("need at least 2 features")
        cfg = self
        if None in (self.trace_cap, self.rho, self.epsilon):
            # a set value is positive, so ``or`` picks it over the default
            c = self.trace_cap or float(dim)
            cfg = replace(self, trace_cap=c, rho=self.rho or 1e-4 * c / dim,
                          epsilon=self.epsilon or 1e-3 * c / dim)
        c, rho, eps = cfg.trace_cap, cfg.rho, cfg.epsilon
        if not rho < c / dim:
            raise ConfigError(f"rho={rho} must be < trace_cap/K = {c / dim}")
        if not c / dim > 2 * eps + rho:
            raise ConfigError(
                f"need trace_cap/K > 2*epsilon + rho for a PD start "
                f"({c / dim} vs {2 * eps + rho})")
        if not eps > CONNECTIVITY_EPS:
            # the floors must keep every pinned edge a graph edge
            raise ConfigError(
                f"epsilon={eps} must be above the {CONNECTIVITY_EPS:g} "
                f"edge floor (CONNECTIVITY_EPS)")
        return cfg


@dataclass(frozen=True)
class OptimizerState:
    """One point of the optimization trajectory.

    ``metric.certificate`` holds the iterate's smallest eigenpair and
    ``scalars`` are aligned with it at rho, or, for a column step above
    _DENSE_MAX_DIM, a disc certificate: the step kept the scalars, under
    which every scaled disc left-end of the new matrix is >= rho - 1e-9, and
    the certificate's vector is the last computed eigenvector, a warm start
    only.  Every other step that changes the matrix certifies and aligns it
    afresh; a step that leaves it unchanged keeps the certificate object and
    the scalars.  ``protected_edges`` is the spanning tree of edges
    currently pinned at magnitude >= epsilon to keep the graph irreducible:
    Prim's tree of the incumbent as of the last column step that found one.
    """

    metric: GraphMetric
    scalars: GershgorinScalars
    objective_trace: tuple[float, ...]
    protected_edges: tuple[tuple[int, int], ...] = ()
    fw_gap: float = math.nan


@dataclass(frozen=True)
class LearnResult:
    metric: GraphMetric
    objective_trace: list[float]
    outer_iterations: int
    converged: bool


def init_metric(cfg: OptimizerConfig, dim: int) -> GraphMetric:
    """Path-graph start: diagonal trace_cap/K, off-diagonals -epsilon on j = i +- 1.

    The diagonal is nudged so the trace hits the cap exactly.
    """
    cfg = cfg.resolve(dim)
    d = cfg.trace_cap / dim
    a = np.zeros((dim, dim))
    np.fill_diagonal(a, d)
    for i in range(dim - 1):
        a[i, i + 1] = -cfg.epsilon
        a[i + 1, i] = -cfg.epsilon
    # land the exactly rounded trace on the cap: coarse correction on the
    # last entry, then an ulp walk (terminates because the walk's step is
    # no larger than the cap's rounding window)
    last = dim - 1
    a[last, last] += cfg.trace_cap - math.fsum(np.diag(a))
    for _ in range(300):
        t = math.fsum(np.diag(a))
        if t == cfg.trace_cap:
            break
        a[last, last] = np.nextafter(
            a[last, last], np.inf if t < cfg.trace_cap else -np.inf)
    return validate_graph_metric(SymmetricMatrix(a))


def _path_edges(dim: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(dim - 1))


def initial_state(ctx: ObjectiveContext, cfg: OptimizerConfig,
                  objective: ConvexObjective | None = None) -> OptimizerState:
    """State at M^0, its scalars aligned at rho, and Q(M^0) as the trace."""
    dim = ctx.num_features
    cfg = cfg.resolve(dim)
    obj = objective if objective is not None else GLRObjective(ctx)
    g = init_metric(cfg, dim)
    return OptimizerState(metric=g, scalars=_conditioned_scalars(g, cfg.rho),
                          objective_trace=(obj.value(g.matrix),),
                          protected_edges=_path_edges(dim))


# Largest K whose iterates are certified after every step, by a dense solve
# first.  Measured on the benchmark workloads (2-core x86, numpy 2.4):
# - Replayed on the certification inputs, one LAPACK eigh took 34 and 61 us
#   at K = 4 and 13 against 309 and 707 us for warm LOBPCG.
# - Above it, certifying column steps by their discs and re-aligning once
#   per sweep took K = 48 Gaussian blobs from objective ratio 0.3532 to
#   0.2267 at the same converged learns.  The same rule at K = 4 and 13
#   makes iris and wine learns creep (outer iterations +55%, wine learns/s
#   -35%), so those keep the paper's per-step alignment.
# - Certifying K = 48 densely instead of by warm LOBPCG lost: converged
#   learns 14/15 -> 13/15 and outer iterations 113 -> 158.
_DENSE_MAX_DIM = 16


def _certify_matrix(matrix: SymmetricMatrix, warm: np.ndarray | None,
                    rho: float) -> tuple[GraphMetric, GershgorinScalars]:
    """Fresh certificate for ``matrix`` and its scalars aligned at ``rho``.

    Runs after every matrix-changing step up to _DENSE_MAX_DIM, and above
    it once per sweep and after a column step whose discs do not certify.
    A pair certifies when its value is positive and its vector clamps
    positive.  Up to _DENSE_MAX_DIM one dense solve comes first and warm
    LOBPCG is the backstop; above it warm LOBPCG comes first and one dense
    solve is the backstop.  The backstop covers LOBPCG non-convergence, an
    eigenvector whose sub-precision entries come out too negative to
    clamp, and a LOBPCG pair whose scalars cannot be verified.  A dense
    pair, or the last solver's, ends the search, with floored scalars if
    need be (``_conditioned_scalars``).
    """
    def lobpcg() -> eigen.EigenPair:
        return eigen.smallest_eigenpair_lobpcg(matrix, warm_start=warm,
                                               tol=_EIG_TOL)

    def dense() -> eigen.EigenPair:
        return eigen.smallest_eigenpair_dense(matrix)

    order = ((dense, lobpcg) if matrix.dim <= _DENSE_MAX_DIM
             else (lobpcg, dense))
    unverified = None
    for solve in order:
        try:
            pair = solve()
        except eigen.LobpcgNonConvergence:
            log.debug("LOBPCG did not converge")
            continue
        v = eigen.clamp_positive(pair.vector)
        if v is None or not pair.value > 0:
            continue
        metric = GraphMetric(matrix=matrix, certificate=Certificate(
            lambda_min=pair.value, eigvec=v))
        scalars = _conditioned_scalars(metric, rho,
                                       floored=solve in (dense, order[-1]))
        if scalars is not None:
            return metric, scalars
        unverified = metric
    if unverified is None:
        raise CertificationError(
            f"iterate is not certifiable (lambda_min={pair.value:.3e}, "
            f"min eigvec entry={float(np.min(pair.vector)):.3e}); the "
            f"iterate left the graph-metric set")
    # warm LOBPCG's pair did not verify and the dense backstop failed
    return unverified, _conditioned_scalars(unverified, rho)


# Eigenvector entries below this fraction of the largest entry cannot carry
# alignment at 1e-9 margins in double precision; the scalars floor them.
_SCALAR_FLOOR = 1e-6


def _conditioned_scalars(metric: GraphMetric, rho: float,
                         floored: bool = True) -> GershgorinScalars | None:
    """Alignment scalars with a floor on tiny eigenvector entries.

    Exactly s = 1/v when the eigenvector is well resolved.  Entries below
    eta * max(v) are lifted before inverting, largest eta first, so the
    scalars stay numerically representable; any positive scalars keep the
    Gershgorin PD guarantee, lifting only relaxes tightness on coordinates
    that double precision cannot resolve anyway.  Returns the first choice
    under which the incumbent verifiably keeps every scaled disc left-end
    >= rho - 1e-9.  When none does, the entries sit below double
    precision's reach and the left-ends are too noisy to verify a margin
    that may still hold: then with ``floored`` the eta = _SCALAR_FLOOR
    choice is returned once lambda_min >= rho - 1e-9 is checked, and
    without it None.
    """
    v = metric.certificate.eigvec
    vmax = float(v.max())
    # scaled_left_ends' arithmetic, with |M| and diag(M) taken once
    a = metric.matrix.entries
    off = np.abs(a)
    off.ravel()[::a.shape[0] + 1] = 0.0
    centres = a.diagonal()
    for eta in (_SCALAR_FLOOR, 1e-9, 0.0):
        sv = 1.0 / np.maximum(v, eta * vmax)
        left = centres - (off * (sv[:, None] / sv[None, :])).sum(axis=1)
        if float(left.min()) >= rho - _FEAS_SLACK:
            return GershgorinScalars(sv)
    if not floored:
        return None
    lam = metric.certificate.lambda_min
    if lam < rho - _FEAS_SLACK:
        raise CertificationError(
            f"incumbent left the feasible region: lambda_min "
            f"{lam:.6e} < rho {rho:.6e}")
    log.debug("scaled left-ends unverifiable at rho margins "
              "(eigenvector entries below relative %.0e); using "
              "floored scalars, lambda_min %.6e >= rho", _SCALAR_FLOOR, lam)
    return GershgorinScalars(1.0 / np.maximum(v, _SCALAR_FLOOR * vmax))


def update_scalars(state: OptimizerState, rho: float = 0.0) -> OptimizerState:
    """Set s = 1 / v from ``state.metric``'s certificate; solves nothing.

    Raises CertificationError unless the incumbent stays feasible at
    ``rho`` under the new scalars, as ``_conditioned_scalars`` states.  The
    optimizer's steps align every iterate they certify, so this serves
    states built by hand.
    """
    return replace(state, scalars=_conditioned_scalars(state.metric, rho))


# Largest exponent j with 2**-j >= _MIN_STEP: the last halving that
# backtracking from gamma = 1 tries.
_MAX_HALVINGS = math.floor(-math.log2(_MIN_STEP))


def _step_size(phi0: float, slope: float, move, value, j0: int
               ) -> tuple[float, object, float, int]:
    """Backtracking Armijo step toward the LP vertex, searched from 2**-j0.

    A trial at gamma evaluates phi = value(move(gamma)).  Returns (gamma,
    point, phi, j) for the largest gamma = 2**-j, 0 <= j <= _MAX_HALVINGS,
    that passes phi <= phi0 + _ARMIJO_C * gamma * slope, with point =
    move(gamma) the accepted trial's point; or (0.0, None, phi0, j0) when
    none passes.  Halving from gamma = 1 finds that step after j + 1
    trials; the search starts instead at the caller's previous exponent
    j0.  If 2**-j0 passes it tries j0 - 1, j0 - 2, ... and stops at the
    first rejection; otherwise it tries j0 + 1, j0 + 2, ... until one
    passes.

    Skipping the other exponents is exact because the passing steps form
    one interval.  Along a Frank-Wolfe ray every pair distance delta_p is
    affine in gamma, so phi(gamma) = sum_p w_p exp(-delta_p(gamma)) is
    convex.  Then h(gamma) = phi(gamma) - phi0 - c * gamma * slope is
    convex with h(0) = 0 and h'(0) = (1 - c) * slope < 0 (slope < 0,
    c < 1), so {gamma > 0 : h(gamma) <= 0} is an interval (0, gamma*]:
    every step below a passing one passes, every step above a failing one
    fails.  In floating point a step so small that gamma * slope is below
    phi0's round-off can fail while a larger step passes; so before giving
    up, the exponents below j0 are tried in the order halving tries them.
    """
    def trial(j: int) -> tuple[bool, float, object, float]:
        gamma = math.ldexp(1.0, -j)
        point = move(gamma)
        phi = value(point)
        return phi <= phi0 + _ARMIJO_C * gamma * slope, gamma, point, phi

    ok, gamma, point, phi = trial(j0)
    if ok:
        j = j0
        while j > 0:
            ok, up_gamma, up_point, up_phi = trial(j - 1)
            if not ok:
                break
            j, gamma, point, phi = j - 1, up_gamma, up_point, up_phi
        return gamma, point, phi, j
    for j in chain(range(j0 + 1, _MAX_HALVINGS + 1), range(j0)):
        ok, gamma, point, phi = trial(j)
        if ok:
            return gamma, point, phi, j
    return 0.0, None, phi0, j0


def _frank_wolfe(obj: ConvexObjective, point, x: np.ndarray, q: float,
                 col: int | None, cfg: OptimizerConfig, vertex):
    """Frank-Wolfe on the diagonal (``col`` None) or on column ``col``.

    Starts from block values ``x`` at objective point ``point`` of value
    ``q``; ``vertex(g)`` is the LP vertex for gradient g, or None when the
    LP is empty.  Each iteration steps by backtracking Armijo over gamma =
    2**-j; ``_step_size`` starts its search at the exponent the previous
    iteration accepted (0 on the first), which finds the same step as
    halving from gamma = 1 in fewer objective evaluations, and the next
    gradient is taken at the accepted trial's point.  Stops when the
    duality gap g.(x - vertex) is at most obj_rel_tol * max(1, |Q|), when
    backtracking Armijo finds no step of at least _MIN_STEP, or after
    fw_max_iters.  Returns (x, Q, gap), or None when the LP is empty.
    """
    gap = math.nan
    j = 0
    for _ in range(cfg.fw_max_iters):
        g = (obj.grad_diag(point) if col is None
             else obj.grad_offdiag_col(point, col))
        target = vertex(g)
        if target is None:
            return None
        direction = target - x
        gap = float(-(g @ direction))
        if gap <= cfg.obj_rel_tol * max(1.0, abs(q)):
            break
        gamma, moved, phi, j = _step_size(
            q, -gap, obj.ray(point, direction, col), obj.value, j)
        if gamma == 0.0:
            break
        x = x + gamma * direction
        point, q = moved, phi
    return x, q, gap


def diagonal_step(state: OptimizerState, ctx: ObjectiveContext,
                  cfg: OptimizerConfig,
                  objective: ConvexObjective | None = None) -> OptimizerState:
    """Frank-Wolfe over the diagonal under the current scalars.

    Feasible set: m_ii >= s_i * sum_{j != i} |m_ij| / s_j + rho per row and
    trace <= trace_cap.  The LP vertex is closed-form; ``_frank_wolfe``
    states the stop rules.  A new diagonal comes back certified and
    aligned (``_certify_matrix``).
    """
    cfg = cfg.resolve(state.metric.dim)
    obj = objective if objective is not None else GLRObjective(ctx)
    matrix = state.metric.matrix
    lb = scaled_radii(matrix, state.scalars) + cfg.rho
    x0 = matrix.diagonal()
    point = obj.at(matrix)
    q = obj.value(point)
    deficit = float(np.sum(lb)) - cfg.trace_cap
    if deficit > 1e-3 * max(1.0, cfg.trace_cap):
        raise SubproblemInfeasibleError(
            f"diagonal LP infeasible: sum of lower bounds exceeds trace_cap "
            f"{cfg.trace_cap:.6g} by {deficit:.3e}; check rho / trace_cap")
    if deficit > lp.FEASIBILITY_TOL * max(1.0, cfg.trace_cap):
        # tiny overshoot comes from floored-scalar bound erosion at the
        # lambda_min = rho floor, not from misconfiguration; the skip keeps
        # the metric object, and learn_metric's summary counts it
        log.debug("diagonal step skipped: scaled lower bounds overshoot "
                  "the trace cap by %.3e (incumbent at the rho floor)",
                  deficit)
        return replace(state,
                       objective_trace=state.objective_trace + (q,),
                       fw_gap=0.0)
    # the deficit test above is solve_diagonal_lp's, so the LP is nonempty
    x, q, gap = _frank_wolfe(
        obj, point, x0, q, None, cfg,
        lambda g: lp.solve_diagonal_lp(g, lb, cfg.trace_cap).point)
    if np.any(x != x0):
        metric, scalars = _certify_matrix(matrix.with_diagonal(x),
                                          state.metric.certificate.eigvec,
                                          cfg.rho)
    else:
        metric, scalars = _unchanged(state.metric), state.scalars
    return replace(state, metric=metric, scalars=scalars,
                   objective_trace=state.objective_trace + (q,), fw_gap=gap)


def _unchanged(metric: GraphMetric) -> GraphMetric:
    """A new wrapper of ``metric``'s matrix and certificate.

    A block step that leaves its block bit-identical keeps the certificate
    computed for that exact matrix.  The new object still tells a step
    that ran from one that kept the incumbent (see ``learn_metric``).
    """
    return GraphMetric(matrix=metric.matrix, certificate=metric.certificate)


def _column_tree_edges(tree: tuple[tuple[int, int], ...], col: int
                       ) -> list[int]:
    """Positions of ``col``'s tree neighbours among its off-diagonal rows.

    The rows run 0..K-1 with ``col`` skipped, so row r sits at r - (r > col).
    """
    neighbours = (j if i == col else i for i, j in tree if col in (i, j))
    return [r - (r > col) for r in neighbours]


def _tree_survives(tree: tuple[tuple[int, int], ...], tree_local: list[int],
                   before: np.ndarray, after: np.ndarray,
                   current: SymmetricMatrix, floor: float) -> bool:
    """Whether ``tree`` is still Prim's tree after a column step.

    ``before`` and ``after`` are the column's off-diagonals, ``tree_local``
    the positions of its tree edges among them.  ``tree`` must be Prim's
    tree of the matrix before the step whenever all its edges reach
    ``floor`` there, as learn_metric keeps it.  If the step left every tree
    entry alone, only shrank the magnitudes of the others it changed, and
    every tree edge still reaches ``floor``, then no edge outside the tree
    gained weight, so each of Prim's choices, ties included, is as before.
    """
    moved = before != after
    if not tree or moved[tree_local].any():
        return False
    if (np.abs(after[moved]) > np.abs(before[moved])).any():
        return False
    i, j = np.array(tree).T
    return bool((np.abs(current.entries[i, j]) >= floor).all())


def offdiag_step(state: OptimizerState, ctx: ObjectiveContext,
                 cfg: OptimizerConfig, col: int,
                 objective: ConvexObjective | None = None) -> OptimizerState:
    """Frank-Wolfe over column ``col``'s off-diagonals (symmetric tying).

    Feasible set: every scaled Gershgorin row constraint written in the
    column variables, all variables <= 0, and magnitude floors epsilon on
    the anchor entry zeta (this column's largest incumbent magnitude,
    lowest row on ties) plus the protected spanning edges in this column.
    The spanning-edge floors keep the whole graph connected across block
    updates; the per-column zeta floor alone only guards this column.
    Infeasible subproblems skip the column and leave the state unchanged.
    Above _DENSE_MAX_DIM a new column whose scaled disc left-ends under the
    unchanged scalars are all >= rho - _FEAS_SLACK comes back with a disc
    certificate and those scalars; any other new column comes back
    certified and aligned (``_certify_matrix``).
    """
    cfg = cfg.resolve(state.metric.dim)
    obj = objective if objective is not None else GLRObjective(ctx)
    matrix = state.metric.matrix
    k = matrix.dim
    if not 0 <= col < k:
        raise IndexError(f"column {col} out of range for dim {k}")
    rows = np.arange(k - 1)
    rows[col:] += 1  # every row but col
    a = matrix.entries
    s = state.scalars.values
    a_rows, s_rows = a[rows], s[rows]
    x0 = a_rows[:, col]

    zeta_local = int(np.abs(x0).argmax())
    tree = state.protected_edges or max_spanning_tree(matrix, cfg.epsilon) or ()
    tree_local = _column_tree_edges(tree, col)

    # row r's budget for |m_r,col|, by direct summation (no cancellation):
    # u_r = s_col * ((a_rr - rho)/s_r - sum_{j not in {r, col}} |a_rj|/s_j)
    diag = (np.arange(k - 1), rows)  # entry (r, r) of each row r of a_rows
    ratio_rows = np.abs(a_rows) / s  # |a_rj| / s_j
    other_sum = (ratio_rows.sum(axis=1) - ratio_rows[diag]
                 - ratio_rows[:, col])
    upper_mag = s[col] * ((a_rows[diag] - cfg.rho) / s_rows - other_sum)
    coupling_budget = (a[col, col] - cfg.rho) / s[col]
    lower = -np.maximum(upper_mag, 0.0)
    upper = np.zeros(k - 1)
    upper[[zeta_local, *tree_local]] = -cfg.epsilon

    coupling_coeffs = 1.0 / s_rows
    x = np.minimum(np.maximum(x0, lower), upper)
    if ((lower > upper).any() or coupling_budget < 0
            or float(coupling_coeffs @ np.maximum(-x, 0.0))
            > coupling_budget * (1.0 + 1e-9) + 1e-15):
        log.debug("off-diagonal step on column %d skipped: the epsilon "
                  "floor or coupling budget excludes the incumbent "
                  "(lambda_min is pressing the rho floor)", col)
        return state
    point = start = obj.at(matrix)
    q = q0 = obj.value(start)
    if (x != x0).any():
        point = obj.ray(start, x - x0, col)(1.0)
        q = obj.value(point)

    result = _frank_wolfe(
        obj, point, x, q, col, cfg,
        lambda g: lp.solve_box_knapsack_lp(g, lower, upper, coupling_coeffs,
                                           coupling_budget).point)
    if result is None:
        log.debug("off-diagonal step on column %d skipped: empty LP", col)
        return state
    x, q, _ = result
    if q > q0:
        # the feasibility clamp on the start cost more than the step gained
        log.debug("off-diagonal step on column %d made no progress; "
                  "keeping the incumbent", col)
        return replace(state,
                       objective_trace=state.objective_trace + (q0,))
    if not (x != x0).any():
        return replace(state, metric=_unchanged(state.metric),
                       objective_trace=state.objective_trace + (q,))
    current = matrix.with_offdiag_column(col, x)
    # a spanning tree over edges >= epsilon > CONNECTIVITY_EPS proves the
    # graph connected; only without one is the full check needed
    if _tree_survives(state.protected_edges, tree_local, x0, x, current,
                      cfg.epsilon):
        tree_after = state.protected_edges
    else:
        tree_after = max_spanning_tree(current, cfg.epsilon)
    if tree_after is None:
        if not is_connected(current):
            raise CertificationError(
                "off-diagonal step disconnected the graph despite edge floors")
        tree_after = state.protected_edges
    warm = state.metric.certificate.eigvec
    bound = (float(scaled_left_ends(current, state.scalars).min())
             if k > _DENSE_MAX_DIM else -math.inf)
    if bound >= cfg.rho - _FEAS_SLACK:
        # Gershgorin's theorem on S M S^-1 proves lambda_min >= bound
        metric, scalars = GraphMetric(matrix=current, certificate=Certificate(
            lambda_min=bound, eigvec=warm, eigenpair=False)), state.scalars
    else:
        metric, scalars = _certify_matrix(current, warm, cfg.rho)
    return replace(state, metric=metric, scalars=scalars,
                   objective_trace=state.objective_trace + (q,),
                   protected_edges=tree_after)


def learn_metric(ctx: ObjectiveContext, cfg: OptimizerConfig | None = None,
                 observer: Observer | None = None) -> LearnResult:
    """Full alternating optimization: returns the certified metric and trace.

    Loop: diagonal Frank-Wolfe, then off-diagonal Frank-Wolfe on each
    column in turn.  Up to _DENSE_MAX_DIM each step that changes the matrix
    hands on the new iterate certified and aligned.  Above it a column step
    may hand on a disc certificate (``offdiag_step``); a sweep that ends on
    one is then re-certified and re-aligned once by ``_certify_matrix``,
    warm-started from the last computed eigenvector.  So every "outer"
    state, log line and returned metric carries an eigenpair of its own
    matrix.  Stops when an outer iteration changes the objective Q by at
    most obj_rel_tol * max(1, |Q|), so the tolerance is relative once
    |Q| >= 1 and absolute below, or at outer_max_iters.
    The observer sees "init", then "diagonal", one "offdiag" per column
    and "outer" in each outer iteration.  Logs one warning per run that
    counts skipped diagonal steps and skipped or stalled column steps, and
    one when the run stops at outer_max_iters unconverged.
    """
    cfg = (cfg or OptimizerConfig()).resolve(ctx.num_features)
    obj = GLRObjective(ctx)
    state = initial_state(ctx, cfg, objective=obj)
    notify = observer or (lambda event, st: None)
    notify("init", state)

    converged = False
    outer = 0
    diag_skipped = skipped = stalled = 0
    for outer in range(1, cfg.outer_max_iters + 1):
        q_start = state.objective_trace[-1]
        before = state
        state = diagonal_step(state, ctx, cfg, objective=obj)
        notify("diagonal", state)
        # a diagonal step that ran hands on a new metric object
        diag_skipped += state.metric is before.metric
        for col in range(ctx.num_features):
            before = state
            state = offdiag_step(state, ctx, cfg, col, objective=obj)
            notify("offdiag", state)
            # a skipped column returns its input state; a stalled one
            # keeps the input metric
            if state is before:
                skipped += 1
            elif state.metric is before.metric:
                stalled += 1
        cert = state.metric.certificate
        if not cert.eigenpair:
            metric, scalars = _certify_matrix(state.metric.matrix, cert.eigvec,
                                              cfg.rho)
            state = replace(state, metric=metric, scalars=scalars)
        notify("outer", state)
        q_end = state.objective_trace[-1]
        log.info("outer=%d objective=%.10e lambda_min=%.6e trace=%.6e "
                 "fw_gap=%.3e", outer, q_end,
                 state.metric.certificate.lambda_min,
                 state.metric.matrix.trace(), state.fw_gap)
        change = abs(q_end - q_start)
        if change <= cfg.obj_rel_tol * max(1.0, abs(q_start)):
            converged = True
            break
    events = []
    if diag_skipped:
        events.append(f"{diag_skipped} of {outer} diagonal steps skipped "
                      f"(scaled lower bounds over the trace cap)")
    if skipped or stalled:
        events.append(f"{skipped} of {outer * ctx.num_features} off-diagonal "
                      f"column steps skipped and {stalled} made no progress")
    if events:
        log.warning("%s", "; ".join(events))
    if not converged:
        log.warning("stopped unconverged at outer_max_iters=%d: last outer "
                    "change over max(1, |Q|) is %.3e, above obj_rel_tol "
                    "%.1e", cfg.outer_max_iters,
                    change / max(1.0, abs(q_start)), cfg.obj_rel_tol)
    return LearnResult(metric=state.metric,
                       objective_trace=list(state.objective_trace),
                       outer_iterations=outer, converged=converged)
