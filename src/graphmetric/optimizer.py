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
come from ``_certify_matrix`` by one rule: above K = 16 and given a warm
vector, a warm LOBPCG pair whose scalars verify every scaled disc
left-end, else one dense solve.  A column step whose discs fail and the
sweep-end re-alignment pass the last computed eigenvector; a diagonal
step, which moves every disc, passes none.  A pair becomes a certificate
only through ``core.Certificate.from_pair``, which signs and clamps its
vector.  Every iterate stays a certified graph
metric whose scalars its certificate verifies.  Column steps keep the
graph connected by pinning the edges of Prim's maximum spanning tree
(``core.max_spanning_tree``) at magnitude >= epsilon; the config holds
epsilon above core.CONNECTIVITY_EPS, so that tree also proves connectivity
under ``core.is_connected``'s rule.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Any, Callable

import numpy as np

from . import eigen, lp
from .core import (CONNECTIVITY_EPS, FEAS_SLACK, Certificate,
                   GershgorinPolytope, GershgorinScalars, GraphMetric,
                   SymmetricMatrix, is_connected, max_spanning_tree,
                   validate_graph_metric)
from .objective import ConvexObjective, GLRObjective, ObjectiveContext

log = logging.getLogger(__name__)

# Eigensolver tolerance inside the optimizer; tighter than the public
# default so feasibility margins are not eaten by eigenvector error.
_EIG_TOL = 1e-11

_ARMIJO_C = 1e-4
_MIN_STEP = 1e-12
_TANGENT_SLACK = 1e-9  # relative; derived in _step_size

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
    float and numpy-integer iteration counts to int, rejects booleans and
    checks the invariants that hold at any K;
    ``resolve`` checks the ones that depend on K.
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
                if isinstance(value, (bool, np.bool_)):
                    raise TypeError  # float() would read True as 1.0
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
        for name in ("fw_max_iters", "outer_max_iters"):
            # a numpy integer would reach the experiment's JSON echo
            object.__setattr__(self, name, int(getattr(self, name)))

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
    which the new matrix's ``core.GershgorinPolytope`` at rho holds, and
    the certificate's vector is the last computed eigenvector, a warm start
    only.  Every other step that changes the matrix certifies and aligns it
    afresh; a step that leaves it unchanged keeps the certificate object and
    the scalars.  ``protected_edges`` is the spanning tree of edges
    currently pinned at magnitude >= epsilon to keep the graph irreducible:
    Prim's tree of the incumbent as of the last column step that found one.
    ``point``, the objective's point of ``metric.matrix``, is built by
    ``initial_state`` and then handed on by the steps; in every state a
    learn builds, ``objective_trace[-1]`` is the objective's value there.
    ``fw_gap`` is the Frank-Wolfe duality gap at which the last diagonal
    step stopped; it is NaN before the first diagonal step and after one
    that skipped, and column steps leave it as it is.
    """

    metric: GraphMetric
    scalars: GershgorinScalars
    objective_trace: tuple[float, ...]
    point: Any
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
    """State at M^0, its scalars aligned at rho, its point (the one a learn
    builds from a matrix) and Q(M^0) as the trace."""
    dim = ctx.num_features
    cfg = cfg.resolve(dim)
    obj = objective if objective is not None else GLRObjective(ctx)
    g = init_metric(cfg, dim)
    point = obj.at(g.matrix)
    return OptimizerState(metric=g, scalars=_conditioned_scalars(g, cfg.rho),
                          objective_trace=(obj.value(point),), point=point,
                          protected_edges=_path_edges(dim))


# Largest K whose iterates are certified after every step, each by one
# dense solve; above it a column step whose discs fail and the sweep-end
# re-alignment try warm LOBPCG first, and a pair whose scalars do not
# verify goes to dense (``_certify_matrix``).  Measured on the benchmark
# workloads (2-core x86, numpy 2.4):
# - Replayed on the certification inputs, one LAPACK eigh took 34 and 61 us
#   at K = 4 and 13 against 309 and 707 us for warm LOBPCG.
# - Above it, certifying column steps by their discs and re-aligning once
#   per sweep took K = 48 Gaussian blobs from objective ratio 0.3532 to
#   0.2267 at the same converged learns.  The same rule at K = 4 and 13
#   makes iris and wine learns creep (outer iterations +55%, wine learns/s
#   -35%), so those keep the paper's per-step alignment.
# - Certifying every K = 48 step densely, column-step fallbacks and
#   re-alignments included, lost: over 75 K = 48 blob learns, converged
#   learns 67 -> 58 and outer iterations 768 -> 1,204, and the K = 48
#   benchmark's converged fraction 0.933 -> 0.867.
# - Certifying only the diagonal steps densely won: a diagonal step moves
#   every disc, and warm LOBPCG from the last eigenvector took about
#   1.6 ms a call there, 31 of 45 calls a K = 48 benchmark pass still
#   ending in the dense solve, against about 0.2 ms for one eigh.  Learns
#   per second rose about 7% at an equal converged fraction; the 75 learns
#   gave 66 converged and 800 outer iterations, within the run-to-run
#   spread that 1e-12 eigenvector noise causes.
_DENSE_MAX_DIM = 16


def _certify_matrix(matrix: SymmetricMatrix, warm: np.ndarray | None,
                    rho: float) -> tuple[GraphMetric, GershgorinScalars]:
    """Fresh certificate for ``matrix`` and its scalars aligned at ``rho``.

    Runs after every matrix-changing step up to _DENSE_MAX_DIM, and above
    it after a diagonal step, once per sweep and after a column step whose
    discs do not certify.  A pair certifies when ``Certificate.from_pair``
    gives a certificate.  Above _DENSE_MAX_DIM and given a ``warm`` vector,
    warm LOBPCG is tried first, and its pair is kept only when the scalars
    it aligns verify every scaled disc left-end.  Every other case is
    certified by one dense solve, and only that pair may carry floored
    scalars (``_conditioned_scalars``): its lambda_min is exact, while a
    LOBPCG Rayleigh quotient only bounds lambda_min from above.  A dense
    pair that does not certify raises CertificationError.
    """
    if matrix.dim > _DENSE_MAX_DIM and warm is not None:
        try:
            pair = eigen.smallest_eigenpair_lobpcg(matrix, warm_start=warm,
                                                   tol=_EIG_TOL)
        except eigen.LobpcgNonConvergence:
            log.debug("LOBPCG did not converge")
        else:
            certificate = Certificate.from_pair(pair.value, pair.vector)
            if certificate is not None:
                metric = GraphMetric(matrix=matrix, certificate=certificate)
                scalars = _conditioned_scalars(metric, rho, floored=False)
                if scalars is not None:
                    return metric, scalars
    pair = eigen.smallest_eigenpair_dense(matrix)
    certificate = Certificate.from_pair(pair.value, pair.vector)
    if certificate is None:
        signed = Certificate.signed(pair.vector)
        raise CertificationError(
            f"iterate is not certifiable (lambda_min={pair.value:.3e}, "
            f"min eigvec entry={float(np.min(signed)):.3e}); the "
            f"iterate left the graph-metric set")
    metric = GraphMetric(matrix=matrix, certificate=certificate)
    return metric, _conditioned_scalars(metric, rho)


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
    under which the incumbent's ``GershgorinPolytope`` at rho holds.  When
    none does, the entries sit below double precision's reach and the
    left-ends are too noisy to verify a margin that may still hold: then
    with ``floored`` the eta = _SCALAR_FLOOR choice is returned once
    lambda_min >= rho - FEAS_SLACK is checked, and without it None.  So
    ``floored`` needs a lambda_min that is not above the true one: never a
    LOBPCG Rayleigh quotient.
    """
    v = metric.certificate.eigvec
    vmax = float(v.max())
    for eta in (_SCALAR_FLOOR, 1e-9, 0.0):
        scalars = GershgorinScalars(1.0 / np.maximum(v, eta * vmax))
        if GershgorinPolytope(metric.matrix, scalars, rho).holds:
            return scalars
    if not floored:
        return None
    lam = metric.certificate.lambda_min
    if lam < rho - FEAS_SLACK:
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


def _step_size(phi0: float, slope: float, ray, value, j0: int
               ) -> tuple[float, object, float, int]:
    """Backtracking Armijo step toward the LP vertex, in about one trial.

    A trial at gamma evaluates phi = value(ray(gamma)).  Returns (gamma,
    point, phi, j) for the largest gamma = 2**-j, 0 <= j <= _MAX_HALVINGS,
    that passes phi <= phi0 + _ARMIJO_C * gamma * slope (point = ray(gamma),
    the accepted trial's), or (0.0, None, phi0, j0) when none passes: the
    step that halving from gamma = 1 finds after j + 1 trials.

    Any start finds it.  Along a Frank-Wolfe ray every pair distance
    delta_p is affine in gamma, so phi(gamma) = sum_p w_p exp(-delta_p) is
    convex (the +-745 clip keeps each term max(e^-delta, e^-745) convex),
    and so is h(gamma) = phi(gamma) - phi0 - c * gamma * slope, with h(0) =
    0 > h'(0): the passing steps form an interval (0, gamma*].  From 2**-j
    the search tries j - 1, j - 2, ... while they pass, or j + 1, j + 2,
    ... until one passes.  A step whose decrease is below phi0's round-off
    can fail while a larger one passes, so before giving up it tries the
    exponents below the start in halving's order.

    The start is the largest 2**-j at or below 2 (1 - c) (-slope) / kappa,
    where the quadratic model of curvature kappa = ``ray.curvature`` =
    phi''(0) crosses the Armijo line (Nocedal and Wright, sec. 3.5), or j0
    when kappa is not positive and finite.  After gamma passes, 2 gamma is
    not tried when convexity rejects it: phi(2 gamma) >= T = phi(gamma) +
    gamma * ``ray.slope(point)`` > threshold(2 gamma) + slack.  The slack
    _TANGENT_SLACK (|phi0| + |T|) covers the floating-point error: for GLR
    over P pairs each computed term and sum is off by a relative eps <=
    (760 + P) u (delta_p's rounding <= 745 u, exp and weight a few u,
    summation P u).  Of the products t_p(gamma) gamma rate_p in T, those
    with rate_p > 0 sum to at most phi0 / e and the others add to T; so T
    and the computed phi(2 gamma) are off by less than 3 eps (|phi0| +
    |T|), inside the slack up to P = 3e6 pairs.
    """
    kappa = ray.curvature
    model = (2.0 * (1.0 - _ARMIJO_C) * -slope / kappa
             if 0.0 < kappa < math.inf else 0.0)
    if 0.0 < model < math.inf:
        j0 = min(max(1 - math.frexp(model)[1], 0), _MAX_HALVINGS)
    gamma = math.ldexp(1.0, -j0)
    phi = value(point := ray(gamma))
    if phi <= phi0 + _ARMIJO_C * gamma * slope:
        j = j0
        while j > 0:
            up = 2.0 * gamma
            bar = phi0 + _ARMIJO_C * up * slope
            tangent = phi + gamma * ray.slope(point)
            if tangent - _TANGENT_SLACK * (abs(phi0) + abs(tangent)) > bar:
                break  # convexity rejects 2 gamma
            if not (up_phi := value(up_point := ray(up))) <= bar:
                break
            j, gamma, point, phi = j - 1, up, up_point, up_phi
        return gamma, point, phi, j
    for j in chain(range(j0 + 1, _MAX_HALVINGS + 1), range(j0)):
        gamma = math.ldexp(1.0, -j)
        phi = value(point := ray(gamma))
        if phi <= phi0 + _ARMIJO_C * gamma * slope:
            return gamma, point, phi, j
    return 0.0, None, phi0, j0


def _frank_wolfe(obj: ConvexObjective, point, x: np.ndarray, q: float,
                 col: int | None, cfg: OptimizerConfig, vertex):
    """Frank-Wolfe on the diagonal (``col`` None) or on column ``col``.

    Starts from block values ``x`` at objective point ``point`` of value
    ``q``; ``vertex(g)`` is the LP vertex for gradient g.  Each iteration
    steps by backtracking Armijo over gamma = 2**-j along ``obj.ray``,
    searched from where the ray's curvature points (or from the previous
    iteration's exponent, 0 on the first, when it is degenerate), which
    finds halving's step in about one objective evaluation; the next
    gradient is taken at the accepted trial's point.  Stops when the
    duality gap g.(x - vertex) is at most obj_rel_tol * max(1, |Q|), when
    backtracking Armijo finds no step of at least _MIN_STEP, or after
    fw_max_iters.  Returns (x, point, Q, gap).
    """
    gap = math.nan
    j = 0
    for _ in range(cfg.fw_max_iters):
        g = (obj.grad_diag(point) if col is None
             else obj.grad_offdiag_col(point, col))
        direction = vertex(g) - x
        gap = -float(g @ direction)
        if gap <= cfg.obj_rel_tol * max(1.0, abs(q)):
            break
        gamma, moved, phi, j = _step_size(
            q, -gap, obj.ray(point, direction, col), obj.value, j)
        if gamma == 0.0:
            break
        x = x + gamma * direction
        point, q = moved, phi
    return x, point, q, gap


def diagonal_step(state: OptimizerState, ctx: ObjectiveContext,
                  cfg: OptimizerConfig,
                  objective: ConvexObjective | None = None) -> OptimizerState:
    """Frank-Wolfe over the diagonal under the current scalars.

    Feasible set: m_ii >= ``GershgorinPolytope.radii`` + rho and trace <=
    trace_cap, set up once (``lp.diagonal_lp``); the step skips when it is
    empty.  The LP vertex is closed-form; ``_frank_wolfe`` states the stop
    rules.  A new diagonal comes back certified and
    aligned by one dense solve (``_certify_matrix`` without a warm vector:
    the step moves every disc, so the last eigenvector is a poor start).
    """
    cfg = cfg.resolve(state.metric.dim)
    obj = objective if objective is not None else GLRObjective(ctx)
    matrix = state.metric.matrix
    lb = GershgorinPolytope(matrix, state.scalars, cfg.rho).radii + cfg.rho
    x0 = matrix.diagonal()
    q0 = obj.value(state.point)
    feasible = lp.diagonal_lp(lb, cfg.trace_cap)
    if feasible is None:
        deficit = float(np.sum(lb)) - cfg.trace_cap
        if deficit > 1e-3 * max(1.0, cfg.trace_cap):
            raise SubproblemInfeasibleError(
                f"diagonal LP infeasible: sum of lower bounds exceeds "
                f"trace_cap {cfg.trace_cap:.6g} by {deficit:.3e}; check "
                f"rho / trace_cap")
        # tiny overshoot comes from floored-scalar bound erosion at the
        # lambda_min = rho floor, not from misconfiguration; the skip keeps
        # the metric object, and learn_metric's summary counts it
        log.debug("diagonal step skipped: scaled lower bounds overshoot "
                  "the trace cap by %.3e (incumbent at the rho floor)",
                  deficit)
        return replace(state,
                       objective_trace=state.objective_trace + (q0,),
                       fw_gap=math.nan)
    x, point, q, gap = _frank_wolfe(
        obj, state.point, x0, q0, None, cfg,
        lambda g: lp.solve_diagonal_lp(g, feasible).point)
    if not np.any(x != x0):
        return replace(state, metric=_unchanged(state.metric),
                       objective_trace=state.objective_trace + (q0,),
                       fw_gap=gap)
    metric, scalars = _certify_matrix(matrix.with_diagonal(x), None, cfg.rho)
    return replace(state, metric=metric, scalars=scalars,
                   objective_trace=state.objective_trace + (q,), point=point,
                   fw_gap=gap)


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

    Feasible set: ``GershgorinPolytope.column``'s box on the left-ends,
    all variables <= 0, and magnitude floors epsilon on the protected tree's
    edges in this column, which keep the graph connected.  Every vertex
    of a spanning tree has a tree edge, and by the cut property the
    column's heaviest edge lies in every maximum spanning tree (ties
    aside), so while the tree is Prim's tree of the incumbent its floors
    hold that edge too.  Only a state built by hand whose matrix has no
    spanning tree of edges >= epsilon has no tree (a learn always carries
    one); then the heaviest entry alone is floored.  The LP is set up once
    (``lp.knapsack_lp``); the step skips, returning the state unchanged,
    exactly when it is empty.  Frank-Wolfe starts from the incumbent
    column: each scaled left-end is affine in the column and >= rho at
    every LP vertex, so from an incumbent whose scalars verify its polytope
    at rho - FEAS_SLACK every iterate does too (Jaggi, ICML 2013), and one
    whose left-ends are >= rho lies in its box.  Not every incumbent's
    scalars do: a learn hands on floored scalars whose polytope does not
    hold when no rung of ``_conditioned_scalars`` verifies, and a state
    built by hand may carry any scalars.  Such an incumbent is not
    projected into its box; the iterates keep a share of its violation,
    and a new column then rests on the dense check of ``_certify_matrix``,
    lambda_min >= rho - FEAS_SLACK, which raises CertificationError when it
    fails.  Above _DENSE_MAX_DIM a new column whose polytope under the
    unchanged scalars holds comes back with a disc certificate and those
    scalars; any other new column comes back certified and aligned
    (``_certify_matrix``).
    """
    cfg = cfg.resolve(state.metric.dim)
    obj = objective if objective is not None else GLRObjective(ctx)
    matrix = state.metric.matrix
    upper_mag, coupling_coeffs, coupling_budget = GershgorinPolytope(
        matrix, state.scalars, cfg.rho).column(col)
    row = matrix.entries[col]  # the column too: entries are exactly symmetric
    x0 = np.concatenate((row[:col], row[col + 1:]))

    tree = state.protected_edges or max_spanning_tree(matrix, cfg.epsilon) or ()
    tree_local = _column_tree_edges(tree, col) or [int(np.abs(x0).argmax())]

    lower = -np.maximum(upper_mag, 0.0)
    upper = np.zeros(x0.size)
    upper[tree_local] = -cfg.epsilon
    feasible = lp.knapsack_lp(lower, upper, coupling_coeffs, coupling_budget)
    if feasible is None:
        log.debug("off-diagonal step on column %d skipped: its LP is empty "
                  "(the epsilon floors or the coupling budget; lambda_min "
                  "is pressing the rho floor)", col)
        return state
    q0 = obj.value(state.point)
    x, point, q, _ = _frank_wolfe(
        obj, state.point, x0, q0, col, cfg,
        lambda g: lp.solve_box_knapsack_lp(g, feasible).point)
    if not (x != x0).any():
        return replace(state, metric=_unchanged(state.metric),
                       objective_trace=state.objective_trace + (q0,))
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
    if matrix.dim > _DENSE_MAX_DIM and (discs := GershgorinPolytope(
            current, state.scalars, cfg.rho)).holds:
        # Gershgorin's theorem on S M S^-1 proves lambda_min >= every left-end
        bound = float(discs.left_ends.min())
        metric, scalars = GraphMetric(matrix=current, certificate=Certificate(
            lambda_min=bound, eigvec=warm, eigenpair=False)), state.scalars
    else:
        metric, scalars = _certify_matrix(current, warm, cfg.rho)
    return replace(state, metric=metric, scalars=scalars,
                   objective_trace=state.objective_trace + (q,), point=point,
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
    counts skipped diagonal and column steps (a step skips when its LP is
    empty), and one when the run stops at outer_max_iters unconverged.
    """
    cfg = (cfg or OptimizerConfig()).resolve(ctx.num_features)
    obj = GLRObjective(ctx)
    state = initial_state(ctx, cfg, objective=obj)
    notify = observer or (lambda event, st: None)
    notify("init", state)

    converged = False
    outer = 0
    diag_skipped = skipped = 0
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
            # a skipped column returns its input state
            skipped += state is before
        cert = state.metric.certificate
        if not cert.eigenpair:
            metric, scalars = _certify_matrix(state.metric.matrix, cert.eigvec,
                                              cfg.rho)
            state = replace(state, metric=metric, scalars=scalars)
        notify("outer", state)
        q_end = state.objective_trace[-1]
        log.info("outer=%d objective=%.10e lambda_min=%.6e trace=%.6e "
                 "diag_fw_gap=%.3e", outer, q_end,
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
    if skipped:
        events.append(f"{skipped} of {outer * ctx.num_features} off-diagonal "
                      f"column steps skipped (empty column LP)")
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
