"""Tests for the dense, LOBPCG and RQI smallest-eigenpair solvers."""

import re
import warnings

import numpy as np
import pytest

from graphmetric import eigen
from graphmetric.core import DimensionMismatchError, SymmetricMatrix
from graphmetric.eigen import (NEGATIVE_GRACE, SCALAR_FLOOR,
                               LobpcgNonConvergence, clamp_positive,
                               smallest_eigenpair_dense,
                               smallest_eigenpair_lobpcg,
                               smallest_eigenpair_rqi)
from helpers import (count_eigensolves, random_graph_metric, random_spd,
                     reference_basis, reference_lobpcg)

EX_MATRIX = SymmetricMatrix([[2.0, -2.0, -1.0],
                             [-2.0, 5.0, -2.0],
                             [-1.0, -2.0, 4.0]])


class TestClampPositive:
    def test_lifts_round_off_and_normalizes(self):
        v = clamp_positive(np.array([0.6, 0.8, -0.5 * NEGATIVE_GRACE]))
        assert np.all(v > 0)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)

    def test_genuinely_negative_entry_rejected(self):
        assert clamp_positive(np.array([0.6, 0.8, -NEGATIVE_GRACE])) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_rejected(self, bad):
        assert clamp_positive(np.array([0.6, bad, 0.8])) is None


class TestDense:
    def test_identity(self):
        pair = smallest_eigenpair_dense(SymmetricMatrix(np.eye(4)))
        assert pair.value == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        pair = smallest_eigenpair_dense(SymmetricMatrix(np.diag([3.0, 1.0, 2.0])))
        assert pair.value == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(np.abs(pair.vector), [0.0, 1.0, 0.0], atol=1e-12)

    def test_worked_example(self):
        pair = smallest_eigenpair_dense(EX_MATRIX)
        assert pair.value == pytest.approx(0.1078, abs=1e-3)
        assert np.allclose(pair.vector, [0.7511, 0.4886, 0.4440], atol=5e-4)

    def test_unit_norm_and_residual(self):
        pair = smallest_eigenpair_dense(EX_MATRIX)
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
        recomputed = np.linalg.norm(
            EX_MATRIX.entries @ pair.vector - pair.value * pair.vector)
        assert abs(recomputed - pair.residual) <= 1e-12


class TestLobpcg:
    def test_worked_example_cold(self):
        pair = smallest_eigenpair_lobpcg(EX_MATRIX, tol=1e-9)
        dense = smallest_eigenpair_dense(EX_MATRIX)
        assert abs(pair.value - dense.value) <= 1e-8
        assert pair.value == pytest.approx(0.1078, abs=1e-3)

    def test_identity_fast(self):
        pair = smallest_eigenpair_lobpcg(SymmetricMatrix(np.eye(5)))
        assert pair.value == pytest.approx(1.0, abs=1e-12)
        assert pair.iterations <= 2

    def test_random_graph_metric_vs_dense(self):
        rng = np.random.default_rng(0)
        g = random_graph_metric(rng, 30)
        pair = smallest_eigenpair_lobpcg(g.matrix, tol=1e-10, max_iters=500)
        dense = smallest_eigenpair_dense(g.matrix)
        assert abs(pair.value - dense.value) <= 1e-8

    def test_residual_self_consistent(self):
        rng = np.random.default_rng(2)
        m = random_spd(rng, 12)
        pair = smallest_eigenpair_lobpcg(m, tol=1e-9)
        recomputed = np.linalg.norm(
            m.entries @ pair.vector - pair.value * pair.vector)
        assert abs(recomputed - pair.residual) <= 1e-12
        assert pair.residual <= 1e-9
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)

    def test_warm_start_from_exact_converges_immediately(self):
        rng = np.random.default_rng(3)
        m = random_spd(rng, 20)
        exact = smallest_eigenpair_dense(m).vector
        pair = smallest_eigenpair_lobpcg(m, warm_start=exact, tol=1e-9)
        assert pair.iterations <= 2

    def test_warm_start_statistical_benefit(self):
        # warm starts within 0.1 of the eigenvector beat cold starts on
        # average, not necessarily per instance
        rng = np.random.default_rng(4)
        warm_iters, cold_iters = [], []
        for _ in range(40):
            dim = int(rng.integers(5, 40))
            m = random_spd(rng, dim)
            exact = smallest_eigenpair_dense(m).vector
            noise = rng.normal(size=dim)
            noise -= (noise @ exact) * exact
            noise /= np.linalg.norm(noise)
            start = exact + 0.05 * noise
            warm_iters.append(
                smallest_eigenpair_lobpcg(m, warm_start=start,
                                          tol=1e-9, max_iters=500).iterations)
            cold_iters.append(
                smallest_eigenpair_lobpcg(m, tol=1e-9,
                                          max_iters=500).iterations)
        assert np.mean(warm_iters) <= np.mean(cold_iters)

    def test_nonconvergence_carries_best(self):
        rng = np.random.default_rng(5)
        m = random_spd(rng, 40)
        with pytest.raises(LobpcgNonConvergence) as exc:
            smallest_eigenpair_lobpcg(m, tol=1e-14, max_iters=1)
        best = exc.value.best
        assert best.residual > 0
        assert np.linalg.norm(best.vector) == pytest.approx(1.0, abs=1e-10)

    def test_warm_start_validation(self):
        with pytest.raises(DimensionMismatchError):
            smallest_eigenpair_lobpcg(EX_MATRIX, warm_start=np.ones(2))
        with pytest.raises(ValueError):
            smallest_eigenpair_lobpcg(EX_MATRIX, warm_start=np.zeros(3))

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            smallest_eigenpair_lobpcg(EX_MATRIX, tol=0.0)


class TestPreconditioning:
    """Jacobi preconditioning changes the search space, not the answer."""

    @pytest.mark.parametrize("seed", range(4))
    def test_graph_metrics_match_dense(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(15):
            m = random_graph_metric(rng, int(rng.integers(2, 61))).matrix
            dense = smallest_eigenpair_dense(m)
            pair = smallest_eigenpair_lobpcg(m, tol=1e-11, max_iters=500)
            assert abs(pair.value - dense.value) <= 1e-10
            assert abs(float(pair.vector @ dense.vector)) >= 1.0 - 1e-8

    def test_large_diagonal_reaches_tight_tolerance(self):
        # a preconditioned residual much shorter than r would fall below the
        # basis builder's drop threshold before r reaches 1e-11
        rng = np.random.default_rng(7)
        g = random_graph_metric(rng, 40)
        m = SymmetricMatrix(1e3 * g.matrix.entries)
        pair = smallest_eigenpair_lobpcg(m, tol=1e-11, max_iters=500)
        assert pair.residual <= 1e-11

    @pytest.mark.parametrize("first_diag", [0.0, -0.5])
    def test_nonpositive_diagonal_takes_plain_path(self, first_diag):
        # a zero diagonal entry would divide by zero on the preconditioned
        # path, which the RuntimeWarning filter turns into a failure
        rng = np.random.default_rng(8)
        a = random_spd(rng, 9).entries.copy()
        a[0, 0] = first_diag
        m = SymmetricMatrix(a)
        dense = smallest_eigenpair_dense(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pair = smallest_eigenpair_lobpcg(m, tol=1e-10, max_iters=500)
        assert abs(pair.value - dense.value) <= 1e-10 * max(1.0, abs(dense.value))
        assert abs(float(pair.vector @ dense.vector)) >= 1.0 - 1e-8


class TestLobpcgKernels:
    def test_gram_bound_never_overrules_eigvalsh(self):
        # bases from well separated to nearly dependent columns: whenever
        # the discs prove the Gram matrix well conditioned, eigvalsh agrees
        # that no re-orthogonalization is needed
        rng = np.random.default_rng(9)
        proven = refused = 0
        for _ in range(3000):
            v = rng.normal(size=(20, int(rng.integers(1, 4))))
            if v.shape[1] > 1:
                v[:, 1] = v[:, 0] + 10.0 ** -rng.uniform(0, 12) * v[:, 1]
            v /= np.linalg.norm(v, axis=0)
            gram = v.T @ v
            if eigen._gram_well_conditioned(gram):
                proven += 1
                gvals = np.linalg.eigvalsh(gram)
                assert 0 < gvals[0] and gvals[-1] / gvals[0] <= eigen._REORTH_COND
            else:
                refused += 1
        assert proven > 500 and refused > 500
        assert eigen._gram_well_conditioned(np.eye(3))

    def test_basis_bit_identical_on_near_dependent_columns(self):
        rng = np.random.default_rng(10)
        dropped = 0
        for _ in range(500):
            k = int(rng.integers(2, 50))
            x = rng.normal(size=k)
            near = x + 10.0 ** -rng.uniform(0, 13) * rng.normal(size=k)
            cols = [x, near, rng.normal(size=k)]
            basis = eigen._orthonormal_basis(cols)
            dropped += basis.shape[1] < 3
            # the layout picks the BLAS kernels of LOBPCG's products
            assert basis.flags.c_contiguous
            assert basis.tobytes() == reference_basis(cols).tobytes()
        assert dropped > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_reference(self, seed):
        # np.linalg.norm and an eigvalsh test of every basis, as in the
        # reference, give the same bits
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 60))
        m = (random_graph_metric(rng, k).matrix if seed % 2
             else random_spd(rng, k))
        warm = smallest_eigenpair_dense(m).vector + 1e-2 * rng.random(k)
        for start in (None, warm):
            got = smallest_eigenpair_lobpcg(m, warm_start=start, tol=1e-11,
                                            max_iters=500)
            want = reference_lobpcg(m, warm_start=start, tol=1e-11,
                                    max_iters=500)
            assert got.vector.tobytes() == want.vector.tobytes()
            assert (got.value, got.residual, got.iterations) == \
                (want.value, want.residual, want.iterations)


def _localized_metric() -> SymmetricMatrix:
    """K = 20 graph metric whose Perron vector has v_0 ~ 2e-9 max(v).

    Node 0 hangs on node 1 by a 1e-7 edge and has a diagonal of 50, far
    above the rest of the spectrum.
    """
    a = random_graph_metric(np.random.default_rng(5), 20).matrix.entries.copy()
    a[0, 1:] = a[1:, 0] = 0.0
    a[0, 1] = a[1, 0] = -1e-7
    a[0, 0] = 50.0
    return SymmetricMatrix(a)


class TestRqi:
    """Warm Rayleigh-quotient iteration with a Cholesky inertia check."""

    @staticmethod
    def _spy(monkeypatch):
        """Lists of the solves (the LOBPCG fallback among them) and of the
        inertia checks (sigma, proved) that the RQI solver makes."""
        solves = count_eigensolves(monkeypatch)
        checks = []
        real = eigen._spectrum_above

        def spy(a, sigma):
            proved = real(a, sigma)
            checks.append((sigma, proved))
            return proved
        monkeypatch.setattr(eigen, "_spectrum_above", spy)
        return solves, checks

    @pytest.mark.parametrize("case", ["spread", "localized"])
    def test_converged_warm_start_is_lobpcg_iteration_zero(self, monkeypatch,
                                                           case):
        # a localized warm start within tol exits here too: the first test
        # comes before the floor test
        m = (random_graph_metric(np.random.default_rng(1), 40).matrix
             if case == "spread" else _localized_metric())
        warm = smallest_eigenpair_dense(m).vector
        want = smallest_eigenpair_lobpcg(m, warm_start=warm, tol=1e-11)
        assert want.iterations == 0
        solves, checks = self._spy(monkeypatch)
        got = eigen.smallest_eigenpair_rqi(m, warm, tol=1e-11)
        assert solves == ["smallest_eigenpair_rqi"] and checks == []
        assert got.vector.tobytes() == want.vector.tobytes()
        assert (got.value, got.residual, got.iterations) == \
            (want.value, want.residual, 0)

    def test_issued_pairs_match_eigvalsh(self, monkeypatch):
        rng = np.random.default_rng(19)
        solves, checks = self._spy(monkeypatch)
        issued = 0
        for _ in range(60):
            m = random_graph_metric(rng, int(rng.integers(17, 65))).matrix
            vals, vecs = np.linalg.eigh(m.entries)
            spread = 10.0 ** rng.uniform(-4, -0.5)
            warm = (np.abs(vecs[:, 0])
                    * (1 + spread * rng.uniform(-1, 1, m.dim)))
            solves.clear()
            pair = smallest_eigenpair_rqi(m, warm, tol=1e-11)
            if solves:
                continue  # LOBPCG's pair, not RQI's
            issued += 1
            assert pair.iterations > 0 and checks[-1][1]
            assert abs(pair.value - vals[0]) <= 1e-10 * m.trace()
            assert abs(float(pair.vector @ vecs[:, 0])) >= 1.0 - 1e-8
        assert issued >= 50

    def test_second_eigenpair_fails_the_inertia_check(self, monkeypatch):
        # not a graph metric: the eigenvector of lambda_2 = 2 is positive,
        # so the floor test passes and only the inertia check can object
        rng = np.random.default_rng(2)
        k = 20
        q, _ = np.linalg.qr(np.column_stack(
            [rng.uniform(0.5, 1.5, k), rng.normal(size=(k, k - 1))]))
        q[:, [0, 1]] = q[:, [1, 0]]
        m = SymmetricMatrix(
            (q * np.r_[1.0, 2.0, np.linspace(3.0, 10.0, k - 2)]) @ q.T)
        v2 = np.abs(q[:, 1])
        assert v2.min() > SCALAR_FLOOR * v2.max()
        solves, checks = self._spy(monkeypatch)
        pair = smallest_eigenpair_rqi(m, v2 + 1e-4 * rng.random(k),
                                      tol=1e-11)
        # RQI reached lambda_2, the check refused it, LOBPCG found lambda_1
        assert len(checks) == 1
        sigma, proved = checks[0]
        assert sigma == pytest.approx(2.0, abs=1e-8) and not proved
        assert solves == ["smallest_eigenpair_lobpcg"]
        assert pair.value == pytest.approx(1.0, abs=1e-10)

    def test_unresolved_perron_vector_falls_back(self, monkeypatch):
        m = _localized_metric()
        exact = smallest_eigenpair_dense(m)
        assert exact.vector[0] <= SCALAR_FLOOR * exact.vector.max()
        # a resolved warm start: RQI converges to the Perron vector, whose
        # v_0 fails the floor test before any inertia check
        warm = exact.vector.copy()
        warm[0] = 1e-3 * warm.max()
        solves, checks = self._spy(monkeypatch)
        pair = smallest_eigenpair_rqi(m, warm, tol=1e-11)
        assert solves == ["smallest_eigenpair_lobpcg"] and checks == []
        assert pair.value == pytest.approx(exact.value, abs=1e-10)
        # without the floor the same start issues RQI's own pair
        with monkeypatch.context() as patch:
            patch.setattr(eigen, "SCALAR_FLOOR", 0.0)
            solves.clear()
            issued = smallest_eigenpair_rqi(m, warm, tol=1e-11)
        assert solves == [] and issued.iterations > 0
        assert issued.value == pytest.approx(exact.value, abs=1e-10)

    def test_unresolved_warm_start_goes_straight_to_lobpcg(self, monkeypatch):
        m = _localized_metric()
        exact = smallest_eigenpair_dense(m).vector
        warm = exact + 1e-4 * np.r_[0.0, np.ones(m.dim - 1)]
        assert warm[0] <= SCALAR_FLOOR * warm.max()
        solves, checks = self._spy(monkeypatch)
        steps = []
        monkeypatch.setattr(eigen, "_rqi_pair",
                            lambda *args: steps.append(args))
        pair = smallest_eigenpair_rqi(m, warm, tol=1e-11)
        assert steps == [] and checks == []
        assert solves == ["smallest_eigenpair_lobpcg"]
        assert pair.value == pytest.approx(
            smallest_eigenpair_dense(m).value, abs=1e-10)

    @pytest.mark.parametrize("warm", [
        np.ones(2), np.zeros(3), np.array([1.0, np.nan, 1.0]),
        np.array([1.0, np.inf, 1.0])],
        ids=["wrong-shape", "zero", "nan", "inf"])
    def test_bad_warm_start_fails_as_in_lobpcg(self, warm):
        with pytest.raises(Exception) as want:
            smallest_eigenpair_lobpcg(EX_MATRIX, warm_start=warm)
        with pytest.raises(type(want.value),
                           match=f"^{re.escape(str(want.value))}$"):
            smallest_eigenpair_rqi(EX_MATRIX, warm)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            smallest_eigenpair_rqi(EX_MATRIX, np.ones(3), tol=0.0)
