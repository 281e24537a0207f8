"""Tests for the matrix types, validation, and Gershgorin machinery."""

import numpy as np
import pytest

from graphmetric.core import (DimensionMismatchError, GershgorinScalars,
                              GraphMetricRejection, SymmetricMatrix,
                              alignment_scalars, definition_violations,
                              is_connected, pairwise_mahalanobis,
                              scaled_left_ends, validate_graph_metric)
from graphmetric.eigen import smallest_eigenpair_dense
from helpers import (count_eigensolves, gershgorin_left_ends, mahalanobis,
                     random_graph_metric, shifted_path_laplacian)

EX_MATRIX = SymmetricMatrix([[2.0, -2.0, -1.0],
                             [-2.0, 5.0, -2.0],
                             [-1.0, -2.0, 4.0]])


class TestSymmetricMatrix:
    def test_symmetry_exact_by_construction(self):
        a = np.array([[1.0, 0.3], [0.3 + 1e-12, 2.0]])
        m = SymmetricMatrix(a)
        assert m.entries[0, 1] == m.entries[1, 0]

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricMatrix([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_entries_read_only(self):
        m = SymmetricMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_with_diagonal(self):
        m = EX_MATRIX.with_diagonal(np.array([7.0, 8.0, 9.0]))
        assert m.diagonal().tolist() == [7.0, 8.0, 9.0]
        assert m.entries[0, 1] == -2.0

    def test_with_offdiag_column(self):
        m = EX_MATRIX.with_offdiag_column(1, np.array([-0.5, -0.25]))
        assert m.entries[0, 1] == m.entries[1, 0] == -0.5
        assert m.entries[2, 1] == m.entries[1, 2] == -0.25
        assert m.entries[1, 1] == 5.0


class TestValidation:
    def test_worked_example_accepted(self):
        g = validate_graph_metric(EX_MATRIX)
        # reference smallest eigenvalue for this matrix: 0.1078
        assert g.certificate.lambda_min == pytest.approx(0.1078, abs=1e-3)
        dense = smallest_eigenpair_dense(EX_MATRIX)
        assert g.certificate.lambda_min == pytest.approx(dense.value, abs=1e-12)

    def test_identity_rejected_disconnected(self):
        with pytest.raises(GraphMetricRejection) as exc:
            validate_graph_metric(SymmetricMatrix(np.eye(3)))
        assert any("disconnected" in r for r in exc.value.reasons)

    def test_indefinite_rejected(self):
        # eigenvalues 1 +- 2 by hand: lambda_min = -1
        with pytest.raises(GraphMetricRejection) as exc:
            validate_graph_metric(SymmetricMatrix([[1.0, -2.0], [-2.0, 1.0]]))
        assert any("non-PD" in r for r in exc.value.reasons)

    def test_positive_offdiagonal_rejected(self):
        reasons = definition_violations(
            SymmetricMatrix([[2.0, 0.5], [0.5, 2.0]]))
        assert any("positive off-diagonal" in r for r in reasons)

    def test_nonpositive_diagonal_rejected(self):
        reasons = definition_violations(
            SymmetricMatrix([[0.0, -1.0], [-1.0, 2.0]]))
        assert any("non-positive diagonal" in r for r in reasons)

    def test_all_violations_reported_together(self):
        m = SymmetricMatrix([[-1.0, 0.0, 0.5],
                             [0.0, 1.0, 0.0],
                             [0.5, 0.0, 1.0]])
        reasons = definition_violations(m)
        joined = " ".join(reasons)
        for expected in ("non-positive diagonal", "positive off-diagonal",
                         "disconnected", "non-PD"):
            assert expected in joined

    def test_validation_solves_once(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        validate_graph_metric(EX_MATRIX)
        assert calls == ["smallest_eigenpair_dense"]

    def test_validation_solves_densely_at_any_size(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        g = validate_graph_metric(shifted_path_laplacian(600, 0.1))
        assert calls == ["smallest_eigenpair_dense"]
        assert g.certificate.lambda_min == pytest.approx(0.1, abs=1e-10)
        assert np.allclose(g.certificate.eigvec, 600 ** -0.5, rtol=1e-6)

    def test_certificate_eigvec_positive_unit(self):
        g = validate_graph_metric(EX_MATRIX)
        v = g.certificate.eigvec
        assert np.all(v > 0)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestGershgorin:
    def test_worked_example_left_ends(self):
        # disc left-ends for this matrix are {-1, 1, 1}
        assert gershgorin_left_ends(EX_MATRIX).tolist() == [-1.0, 1.0, 1.0]

    def test_identity_left_ends(self):
        assert gershgorin_left_ends(
            SymmetricMatrix(np.eye(3))).tolist() == [1.0, 1.0, 1.0]

    def test_hand_2x2(self):
        m = SymmetricMatrix([[5.0, -3.0], [-3.0, 2.0]])
        assert gershgorin_left_ends(m).tolist() == [2.0, -1.0]

    def test_unit_scalars_match_plain(self):
        s = GershgorinScalars(np.ones(3))
        assert np.array_equal(scaled_left_ends(EX_MATRIX, s),
                              gershgorin_left_ends(EX_MATRIX))
        assert scaled_left_ends(EX_MATRIX, s).tolist() == [-1.0, 1.0, 1.0]

    def test_alignment_from_unit_eigvec_reciprocals(self):
        # s_k = 1/v_k for the unit-norm eigenvector aligns all left-ends
        g = validate_graph_metric(EX_MATRIX)
        s = alignment_scalars(g)
        expected = 1.0 / g.certificate.eigvec
        assert np.allclose(s.values, expected, rtol=0, atol=0)
        # printed to 4 digits these are (1.3314, 2.0467, 2.2523)
        assert np.allclose(s.values, [1.3314, 2.0467, 2.2523], atol=5e-4)
        ends = scaled_left_ends(EX_MATRIX, s)
        lam = g.certificate.lambda_min
        assert np.max(np.abs(ends - lam)) < 1e-8
        assert lam == pytest.approx(0.1078, abs=1e-3)

    def test_symmetric_2x2_uniform_eigvec(self):
        a, b = 3.0, 1.0
        g = validate_graph_metric(SymmetricMatrix([[a, -b], [-b, a]]))
        s = alignment_scalars(g)
        assert s.values[0] == pytest.approx(s.values[1], rel=1e-12)
        ends = scaled_left_ends(g.matrix, s)
        assert np.allclose(ends, a - b, atol=1e-10)

    def test_alignment_random_10x10_vs_dense(self):
        rng = np.random.default_rng(7)
        g = random_graph_metric(rng, 10)
        lam = smallest_eigenpair_dense(g.matrix).value
        ends = scaled_left_ends(g.matrix, alignment_scalars(g))
        assert np.max(np.abs(ends - lam)) < 1e-8 * max(1.0, lam)

    def test_alignment_rejects_nonpositive_eigvec(self):
        from graphmetric.core import Certificate, GraphMetric
        bad = GraphMetric(matrix=EX_MATRIX,
                          certificate=Certificate(
                              lambda_min=0.1,
                              eigvec=np.array([0.5, -0.5, 0.7])))
        with pytest.raises(ValueError, match="non-positive"):
            alignment_scalars(bad)

    def test_scalars_must_be_positive(self):
        with pytest.raises(ValueError):
            GershgorinScalars(np.array([1.0, 0.0]))

    def test_scaling_invariance_power_of_two_bitwise(self):
        rng = np.random.default_rng(3)
        g = random_graph_metric(rng, 6)
        s = GershgorinScalars(rng.uniform(0.5, 2.0, size=6))
        base = scaled_left_ends(g.matrix, s)
        scaled = scaled_left_ends(g.matrix, GershgorinScalars(8.0 * s.values))
        assert np.array_equal(base, scaled)

    def test_scaling_invariance_general(self):
        rng = np.random.default_rng(4)
        g = random_graph_metric(rng, 6)
        s = GershgorinScalars(rng.uniform(0.5, 2.0, size=6))
        base = scaled_left_ends(g.matrix, s)
        scaled = scaled_left_ends(g.matrix, GershgorinScalars(3.0 * s.values))
        assert np.max(np.abs(base - scaled)) <= 1e-12

    def test_scaling_invariance_batch(self):
        # the ratio form s_i / s_j makes power-of-two rescaling exact
        rng = np.random.default_rng(2)
        for _ in range(200):
            dim = int(rng.integers(2, 12))
            g = random_graph_metric(rng, dim)
            s = rng.uniform(0.1, 10.0, size=dim)
            base = scaled_left_ends(g.matrix, GershgorinScalars(s))
            for c in (4.0, 8.0):
                assert np.array_equal(
                    scaled_left_ends(g.matrix, GershgorinScalars(c * s)), base)
            c = float(rng.uniform(0.3, 7.0))
            general = scaled_left_ends(g.matrix, GershgorinScalars(c * s))
            assert np.max(np.abs(general - base)) <= 1e-12

    def test_gct_lower_bound_vs_dense(self):
        # any symmetric matrix, so the plain (unit-scalar) discs
        rng = np.random.default_rng(1)
        for _ in range(300):
            dim = int(rng.integers(2, 21))
            a = rng.normal(size=(dim, dim))
            m = SymmetricMatrix((a + a.T) / 2)
            lam = smallest_eigenpair_dense(m).value
            ends = scaled_left_ends(m, GershgorinScalars(np.ones(dim)))
            assert float(np.min(ends)) <= lam + 1e-10


class TestConnectivity:
    def test_path_connected(self):
        m = SymmetricMatrix([[1.0, -0.1, 0.0],
                             [-0.1, 1.0, -0.1],
                             [0.0, -0.1, 1.0]])
        assert is_connected(m)

    def test_block_diagonal_disconnected(self):
        m = SymmetricMatrix([[1.0, -0.5, 0.0, 0.0],
                             [-0.5, 1.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0, -0.5],
                             [0.0, 0.0, -0.5, 1.0]])
        assert not is_connected(m)

    def test_threshold(self):
        m = SymmetricMatrix([[1.0, -1e-13], [-1e-13, 1.0]])
        assert not is_connected(m)  # below the 1e-12 edge floor


class TestMahalanobis:
    def test_zero_for_equal_points(self):
        f = np.array([1.0, 2.0, 3.0])
        assert pairwise_mahalanobis(f, f, EX_MATRIX)[0, 0] == pytest.approx(
            0.0, abs=1e-12)

    def test_identity_is_squared_euclidean(self):
        m = SymmetricMatrix(np.eye(2))
        d = pairwise_mahalanobis(np.array([3.0, 4.0]), np.zeros(2), m)
        assert d.tolist() == [[25.0]]

    def test_worked_example_quadratic_form(self):
        # hand expansion: 2 - 4 + 5 = 3 for difference (1, 1, 0)
        d = pairwise_mahalanobis(np.array([1.0, 1.0, 0.0]), np.zeros(3),
                                 EX_MATRIX)
        assert d[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pairwise_mahalanobis(np.zeros(2), np.zeros(2), EX_MATRIX)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(2, 8))
            g = random_graph_metric(rng, dim)
            pts = rng.normal(size=(2, dim))
            d = pairwise_mahalanobis(pts, pts, g.matrix)
            assert d[0, 1] == pytest.approx(d[1, 0], rel=1e-12)
            assert d[0, 1] > 0
            assert np.all(np.diag(d) <= 1e-12 * d[0, 1])

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(6)
        g = random_graph_metric(rng, 3)
        xs = rng.normal(size=(4, 3))
        ys = rng.normal(size=(5, 3))
        d = pairwise_mahalanobis(xs, ys, g.matrix)
        for i in range(4):
            for j in range(5):
                assert d[i, j] == pytest.approx(
                    mahalanobis(xs[i], ys[j], g.matrix), rel=1e-10, abs=1e-12)
