"""Alternating Frank-Wolfe metric learning over graph metric matrices.

The loop alternates three ingredients: scalar updates that re-align all
Gershgorin disc left-ends at lambda_min via s_k = 1 / v_k (so the linear PD
surrogate constraints are tight around the incumbent), a diagonal
Frank-Wolfe pass whose LP subproblem has a closed-form vertex, and
per-column block-coordinate Frank-Wolfe passes over the off-diagonals with
an irreducibility floor.  Every iterate stays a certified graph metric.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import eigen, lp
from .core import (CONNECTIVITY_EPS, Certificate, GershgorinScalars,
                   GraphMetric, SymmetricMatrix, alignment_scalars,
                   is_connected, scaled_left_ends, scaled_radii,
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
    epsilon = 1e-3 * C / K.
    """

    trace_cap: float | None = None
    rho: float | None = None
    epsilon: float | None = None
    fw_max_iters: int = 100
    outer_max_iters: int = 50
    obj_rel_tol: float = 1e-6

    def resolve(self, dim: int) -> "OptimizerConfig":
        """Fill defaults for dimension ``dim`` and validate all invariants."""
        if dim < 2:
            raise ConfigError("need at least 2 features")
        c = float(self.trace_cap) if self.trace_cap is not None else float(dim)
        rho = float(self.rho) if self.rho is not None else 1e-4 * c / dim
        eps = float(self.epsilon) if self.epsilon is not None else 1e-3 * c / dim
        cfg = replace(self, trace_cap=c, rho=rho, epsilon=eps)
        cfg._validate(dim)
        return cfg

    def _validate(self, dim: int) -> None:
        c, rho, eps = self.trace_cap, self.rho, self.epsilon
        if c is None or c <= 0:
            raise ConfigError("trace_cap must be positive")
        if rho is None or rho <= 0:
            raise ConfigError("rho must be positive")
        if eps is None or eps <= 0:
            raise ConfigError("epsilon must be positive")
        if not rho < c / dim:
            raise ConfigError(f"rho={rho} must be < trace_cap/K = {c / dim}")
        if not c / dim > 2 * eps + rho:
            raise ConfigError(
                f"need trace_cap/K > 2*epsilon + rho for a PD start "
                f"({c / dim} vs {2 * eps + rho})")
        counts = (self.fw_max_iters, self.outer_max_iters)
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer))
               for n in counts):
            raise ConfigError(f"iteration counts must be integers: {counts}")
        if min(counts) < 1:
            raise ConfigError("iteration counts must be >= 1")
        if self.obj_rel_tol <= 0:
            raise ConfigError("obj_rel_tol must be positive")

    @property
    def is_resolved(self) -> bool:
        return None not in (self.trace_cap, self.rho, self.epsilon)


@dataclass(frozen=True)
class OptimizerState:
    """One point of the optimization trajectory.

    ``metric.certificate`` holds the iterate's smallest eigenpair; every
    step that changes the matrix certifies it afresh, and a step that
    leaves it unchanged keeps the certificate object.  ``scalars`` are
    aligned with that certificate as of the most recent scalar update;
    ``alignment`` records (certificate, scalars, rho) of that update, so
    aligning the same certificate again is free.  ``protected_edges`` is
    the spanning tree of edges currently pinned at magnitude >= epsilon to
    keep the graph irreducible: Prim's tree of the incumbent as of the last
    column step that found one.
    """

    metric: GraphMetric
    scalars: GershgorinScalars
    objective_trace: tuple[float, ...]
    protected_edges: tuple[tuple[int, int], ...] = ()
    fw_gap: float = math.nan
    alignment: tuple[Certificate, GershgorinScalars, float] | None = field(
        default=None, repr=False, compare=False)


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
    cfg = cfg if cfg.is_resolved else cfg.resolve(dim)
    cfg._validate(dim)
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
    """State at M^0 with aligned scalars and Q(M^0) as the first trace entry."""
    dim = ctx.num_features
    cfg = cfg if cfg.is_resolved else cfg.resolve(dim)
    obj = objective if objective is not None else GLRObjective(ctx)
    g = init_metric(cfg, dim)
    return OptimizerState(metric=g, scalars=alignment_scalars(g),
                          objective_trace=(obj.value(g.matrix),),
                          protected_edges=_path_edges(dim))


def _certified(matrix: SymmetricMatrix, pair: eigen.EigenPair
               ) -> GraphMetric | None:
    """``matrix`` certified by ``pair``, or None if its vector is not positive."""
    v = eigen.clamp_positive(pair.vector)
    if v is None:
        return None
    return GraphMetric(matrix=matrix,
                       certificate=Certificate(lambda_min=pair.value, eigvec=v))


def _certify_matrix(matrix: SymmetricMatrix,
                    warm: np.ndarray | None) -> GraphMetric:
    """Fresh certificate for ``matrix``: warm LOBPCG, dense as backstop.

    One dense solve covers both LOBPCG non-convergence and an eigenvector
    whose sub-precision entries come out too negative to clamp.
    """
    try:
        pair = eigen.smallest_eigenpair_lobpcg(matrix, warm_start=warm,
                                               tol=_EIG_TOL)
        metric = _certified(matrix, pair)
    except eigen.LobpcgNonConvergence:
        log.debug("LOBPCG did not converge; falling back to dense solve")
        metric = None
    if metric is None:
        pair = eigen.smallest_eigenpair_dense(matrix)
        metric = _certified(matrix, pair)
    if metric is None or pair.value <= 0:
        raise CertificationError(
            f"iterate is not certifiable (lambda_min={pair.value:.3e}, "
            f"min eigvec entry={float(np.min(pair.vector)):.3e}); the "
            f"iterate left the graph-metric set")
    return metric


# Eigenvector entries below this fraction of the largest entry cannot carry
# alignment at 1e-9 margins in double precision; the scalars floor them.
_SCALAR_FLOOR = 1e-6


def _conditioned_scalars(metric: GraphMetric, rho: float
                         ) -> tuple[GershgorinScalars, bool]:
    """Alignment scalars with a floor on tiny eigenvector entries.

    Exactly s = 1/v when the eigenvector is well resolved.  Entries below
    eta * max(v) are lifted before inverting, largest eta first, so the
    scalars stay numerically representable; any positive scalars keep the
    Gershgorin PD guarantee, lifting only relaxes tightness on coordinates
    that double precision cannot resolve anyway.  Returns the first choice
    under which the incumbent still satisfies every scaled constraint and
    True, or the eta = _SCALAR_FLOOR choice and False if none verifiably does.
    """
    v = metric.certificate.eigvec
    vmax = float(np.max(v))
    for eta in (_SCALAR_FLOOR, 1e-9, 0.0):
        scalars = GershgorinScalars(1.0 / np.maximum(v, eta * vmax))
        left = scaled_left_ends(metric.matrix, scalars)
        if float(np.min(left)) >= rho - _FEAS_SLACK:
            return scalars, True
    return GershgorinScalars(1.0 / np.maximum(v, _SCALAR_FLOOR * vmax)), False


def update_scalars(state: OptimizerState, rho: float = 0.0) -> OptimizerState:
    """Set s = 1 / v from ``state.metric``'s certificate, without a re-solve.

    Asserts the incumbent stays feasible under the new scalars: all scaled
    disc left-ends >= rho - 1e-9.  When eigenvector entries sit below
    double precision's reach (relative 1e-6), computed left-ends are too
    noisy to verify that margin even though it holds; the eigenpair is then
    re-solved densely, and failing that the scalars take the floored form
    and lambda_min is checked against rho instead.  Returns ``state``
    itself when its scalars are already aligned to its certificate object
    at this ``rho``.
    """
    metric = state.metric
    done = state.alignment
    if (done is not None and done[0] is metric.certificate
            and done[1] is state.scalars and done[2] == rho):
        return state
    scalars, verified = _conditioned_scalars(metric, rho)
    if not verified:
        dense = _certified(metric.matrix,
                           eigen.smallest_eigenpair_dense(metric.matrix))
        if dense is not None:
            metric = dense
            scalars, verified = _conditioned_scalars(metric, rho)
    if not verified:
        lam = metric.certificate.lambda_min
        if lam < rho - _FEAS_SLACK:
            raise CertificationError(
                f"incumbent left the feasible region: lambda_min "
                f"{lam:.6e} < rho {rho:.6e}")
        log.debug("scaled left-ends unverifiable at rho margins "
                  "(eigenvector entries below relative %.0e); using "
                  "floored scalars, lambda_min %.6e >= rho",
                  _SCALAR_FLOOR, lam)
    return replace(state, metric=metric, scalars=scalars,
                   alignment=(metric.certificate, scalars, rho))


def _step_size(phi0: float, slope: float, evaluate) -> tuple[float, float]:
    """Step toward the LP vertex by backtracking Armijo."""
    gamma = 1.0
    while gamma >= _MIN_STEP:
        phi = evaluate(gamma)
        if phi <= phi0 + _ARMIJO_C * gamma * slope:
            return gamma, phi
        gamma *= 0.5
    return 0.0, phi0


def _frank_wolfe(obj: ConvexObjective, point, x: np.ndarray, q: float,
                 col: int | None, cfg: OptimizerConfig, vertex):
    """Frank-Wolfe on the diagonal (``col`` None) or on column ``col``.

    Starts from block values ``x`` at objective point ``point`` of value
    ``q``; ``vertex(g)`` is the LP vertex for gradient g, or None when the
    LP is empty.  Stops when the duality gap g.(x - vertex) is at most
    obj_rel_tol * max(1, |Q|), when backtracking Armijo finds no step of at
    least _MIN_STEP, or after fw_max_iters.  Returns (x, Q, gap), or None
    when the LP is empty.
    """
    gap = math.nan
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
        move = obj.ray(point, direction, col)
        gamma, phi = _step_size(q, -gap, lambda t: obj.value(move(t)))
        if gamma == 0.0:
            break
        x = x + gamma * direction
        point = move(gamma)
        q = phi
    return x, q, gap


def diagonal_step(state: OptimizerState, ctx: ObjectiveContext,
                  cfg: OptimizerConfig,
                  objective: ConvexObjective | None = None) -> OptimizerState:
    """Frank-Wolfe over the diagonal under the current scalars.

    Feasible set: m_ii >= s_i * sum_{j != i} |m_ij| / s_j + rho per row and
    trace <= trace_cap.  The LP vertex is closed-form; ``_frank_wolfe``
    states the stop rules.
    """
    cfg = cfg if cfg.is_resolved else cfg.resolve(state.metric.dim)
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
        # lambda_min = rho floor, not from misconfiguration
        log.warning("diagonal step skipped: scaled lower bounds overshoot "
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
        metric = _certify_matrix(matrix.with_diagonal(x),
                                 state.metric.certificate.eigvec)
    else:
        metric = _unchanged(state.metric)
    return replace(state, metric=metric,
                   objective_trace=state.objective_trace + (q,), fw_gap=gap)


def _unchanged(metric: GraphMetric) -> GraphMetric:
    """A new wrapper of ``metric``'s matrix and certificate.

    A block step that leaves its block bit-identical keeps the certificate
    computed for that exact matrix.  The new object still tells a step
    that ran from one that kept the incumbent (see ``learn_metric``).
    """
    return GraphMetric(matrix=metric.matrix, certificate=metric.certificate)


def _max_spanning_tree(matrix: SymmetricMatrix, floor: float
                       ) -> tuple[tuple[int, int], ...] | None:
    """Maximum-weight spanning tree over edges with |m_ij| >= floor (Prim).

    Ties go to the lowest tree node, then the lowest new node.  Returns None
    when those edges do not span the graph.
    """
    k = matrix.dim
    w = np.abs(matrix.entries)
    w[w < floor] = 0.0
    rows = w.tolist()
    # key[j]: heaviest edge from the tree to node j, reached from parent[j]
    key = list(rows[0])
    parent = [0] * k
    outside = list(range(1, k))
    edges: list[tuple[int, int]] = []
    while outside:
        node, weight, via = -1, 0.0, k
        for j in outside:
            kj = key[j]
            if kj > weight or (kj == weight and parent[j] < via):
                node, weight, via = j, kj, parent[j]
        if weight <= 0.0:
            return None
        outside.remove(node)
        edges.append((min(via, node), max(via, node)))
        row = rows[node]
        for j in outside:
            wj = row[j]
            if wj > key[j] or (wj == key[j] and node < parent[j]):
                key[j] = wj
                parent[j] = node
    return tuple(sorted(edges))


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
    if np.any(np.abs(after[moved]) > np.abs(before[moved])):
        return False
    i, j = np.array(tree).T
    return bool(np.all(np.abs(current.entries[i, j]) >= floor))


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
    """
    cfg = cfg if cfg.is_resolved else cfg.resolve(state.metric.dim)
    obj = objective if objective is not None else GLRObjective(ctx)
    matrix = state.metric.matrix
    k = matrix.dim
    if not 0 <= col < k:
        raise IndexError(f"column {col} out of range for dim {k}")
    rows = [r for r in range(k) if r != col]
    a = matrix.entries
    s = state.scalars.values
    x0 = a[rows, col].copy()

    zeta_local = int(np.argmax(np.abs(x0)))
    tree = state.protected_edges or _max_spanning_tree(matrix, cfg.epsilon) or ()
    tree_local = _column_tree_edges(tree, col)
    pinned = set(tree_local)
    pinned.add(zeta_local)

    # row r's budget for |m_r,col|, by direct summation (no cancellation):
    # u_r = s_col * ((a_rr - rho)/s_r - sum_{j not in {r, col}} |a_rj|/s_j)
    abs_a = np.abs(a)
    ratio_rows = abs_a[rows] / s[None, :]  # |a_rj| / s_j
    other_sum = (ratio_rows.sum(axis=1) - ratio_rows[np.arange(k - 1), rows]
                 - ratio_rows[:, col])
    upper_mag = s[col] * ((a[rows, rows] - cfg.rho) / s[rows] - other_sum)
    coupling_budget = (a[col, col] - cfg.rho) / s[col]
    lower = -np.maximum(upper_mag, 0.0)
    upper = np.zeros(k - 1)
    for idx in pinned:
        upper[idx] = -cfg.epsilon

    coupling_coeffs = 1.0 / s[rows]
    if (np.any(lower > upper) or coupling_budget < 0
            or float(coupling_coeffs @ np.maximum(-np.clip(x0, lower, upper),
                                                  0.0))
            > coupling_budget * (1.0 + 1e-9) + 1e-15):
        log.debug("off-diagonal step on column %d skipped: the epsilon "
                  "floor or coupling budget excludes the incumbent "
                  "(lambda_min is pressing the rho floor)", col)
        return state
    x = np.clip(x0, lower, upper)
    point = start = obj.at(matrix)
    q = q0 = obj.value(start)
    if np.any(x != x0):
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
    if not np.any(x != x0):
        return replace(state, metric=_unchanged(state.metric),
                       objective_trace=state.objective_trace + (q,))
    current = matrix.with_offdiag_column(col, x)
    # a spanning tree over edges >= epsilon > CONNECTIVITY_EPS proves the
    # graph connected; only without one is the full search needed
    if _tree_survives(state.protected_edges, tree_local, x0, x, current,
                      cfg.epsilon):
        tree_after = state.protected_edges
    else:
        tree_after = _max_spanning_tree(current, cfg.epsilon)
    if tree_after is None or cfg.epsilon <= CONNECTIVITY_EPS:
        if not is_connected(current):
            raise CertificationError(
                "off-diagonal step disconnected the graph despite edge floors")
    if tree_after is None:
        tree_after = state.protected_edges
    metric = _certify_matrix(current, state.metric.certificate.eigvec)
    return replace(state, metric=metric,
                   objective_trace=state.objective_trace + (q,),
                   protected_edges=tree_after)


def learn_metric(ctx: ObjectiveContext, cfg: OptimizerConfig | None = None,
                 observer: Observer | None = None) -> LearnResult:
    """Full alternating optimization: returns the certified metric and trace.

    Loop: scalars -> diagonal Frank-Wolfe -> per-column scalar refresh and
    off-diagonal Frank-Wolfe, until the relative objective change over an
    outer iteration falls below obj_rel_tol or outer_max_iters is reached.
    Logs one warning per run for skipped or stalled column steps, and one
    when the run stops at outer_max_iters unconverged.
    """
    cfg = (cfg or OptimizerConfig()).resolve(ctx.num_features)
    obj = GLRObjective(ctx)
    state = initial_state(ctx, cfg, objective=obj)
    notify = observer or (lambda event, st: None)
    notify("init", state)

    converged = False
    outer = 0
    skipped = stalled = 0
    for outer in range(1, cfg.outer_max_iters + 1):
        q_start = state.objective_trace[-1]
        state = update_scalars(state, rho=cfg.rho)
        notify("scalars", state)
        state = diagonal_step(state, ctx, cfg, objective=obj)
        notify("diagonal", state)
        for col in range(ctx.num_features):
            state = update_scalars(state, rho=cfg.rho)
            notify("scalars", state)
            before = state
            state = offdiag_step(state, ctx, cfg, col, objective=obj)
            notify("offdiag", state)
            # a skipped column returns its input state; a stalled one
            # keeps the input metric
            if state is before:
                skipped += 1
            elif state.metric is before.metric:
                stalled += 1
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
    if skipped or stalled:
        log.warning("%d of %d off-diagonal column steps skipped and %d "
                    "made no progress",
                    skipped, outer * ctx.num_features,
                    stalled)
    if not converged:
        log.warning("stopped unconverged at outer_max_iters=%d: last outer "
                    "change %.3e exceeds obj_rel_tol %.1e (relative)",
                    cfg.outer_max_iters,
                    change / max(1.0, abs(q_start)), cfg.obj_rel_tol)
    return LearnResult(metric=state.metric,
                       objective_trace=list(state.objective_trace),
                       outer_iterations=outer, converged=converged)
