"""Tests for the dense and LOBPCG smallest-eigenpair solvers."""

import warnings

import numpy as np
import pytest

from graphmetric import eigen
from graphmetric.core import (NEGATIVE_GRACE, Certificate,
                              DimensionMismatchError, SymmetricMatrix)
from graphmetric.eigen import (LobpcgNonConvergence, smallest_eigenpair_dense,
                               smallest_eigenpair_lobpcg)
from helpers import (random_graph_metric, random_spd, reference_basis,
                     reference_lobpcg)

EX_MATRIX = SymmetricMatrix([[2.0, -2.0, -1.0],
                             [-2.0, 5.0, -2.0],
                             [-1.0, -2.0, 4.0]])


class TestClampPositive:
    """The clamp a computed eigenvector gets on its way into a certificate
    (``Certificate.from_pair``; the solvers return it unclamped)."""

    def test_lifts_round_off_and_normalizes(self):
        cert = Certificate.from_pair(
            1.0, np.array([0.6, 0.8, -0.5 * NEGATIVE_GRACE]))
        assert np.all(cert.eigvec > 0)
        assert np.linalg.norm(cert.eigvec) == pytest.approx(1.0, abs=1e-15)

    def test_genuinely_negative_entry_rejected(self):
        assert Certificate.from_pair(
            1.0, np.array([0.6, 0.8, -NEGATIVE_GRACE])) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_rejected(self, bad):
        assert Certificate.from_pair(1.0, np.array([0.6, bad, 0.8])) is None


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
        assert np.allclose(np.abs(pair.vector), [0.7511, 0.4886, 0.4440],
                           atol=5e-4)

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

    def test_nonconvergence_names_budget_and_residual(self):
        rng = np.random.default_rng(5)
        m = random_spd(rng, 40)
        with pytest.raises(LobpcgNonConvergence,
                           match=r"in 1 iterations \(final residual "):
            smallest_eigenpair_lobpcg(m, tol=1e-14, max_iters=1)

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
