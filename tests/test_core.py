"""Tests for the matrix types, validation, and Gershgorin machinery."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from graphmetric.core import (CONNECTIVITY_EPS, FEAS_SLACK, Certificate,
                              DimensionMismatchError, GershgorinPolytope,
                              GershgorinScalars, GraphMetricRejection,
                              SymmetricMatrix, is_connected,
                              pairwise_mahalanobis, validate_graph_metric)
from graphmetric.eigen import smallest_eigenpair_dense
from helpers import (alignment_scalars, count_eigensolves,
                     gershgorin_left_ends, mahalanobis,
                     mirrored_symmetric_init, random_graph_metric,
                     shifted_path_laplacian)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mirrored", [True, False])
    def test_rejects_nonfinite_before_symmetry(self, bad, mirrored):
        # an inf would make a - a.T warn, and a symmetric NaN used to pass
        # construction and fail inside the eigensolver
        a = EX_MATRIX.entries.copy()
        a[0, 2] = bad
        if mirrored:
            a[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix(a)

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

    @staticmethod
    def _mirrored(a):
        """The entries the triu mirror gives ``a``."""
        box = SimpleNamespace(entries=a)
        mirrored_symmetric_init(box)
        return box.entries

    def test_exact_input_gets_the_mirrors_bits(self):
        # zeros of either sign, on and off the diagonal, come out +0.0
        rng = np.random.default_rng(5)
        for k in (1, 2, 3, 13, 48):
            below = np.tril(np.ones((k, k), dtype=bool), -1)
            for _ in range(20):
                u = rng.choice([0.0, -0.0, 1.5, -2.0, 1e-300, -7.25],
                               size=(k, k)) * rng.uniform(0.5, 2.0, (k, k))
                a = np.where(below, u.T, u)
                # zeros may differ in sign across the diagonal
                flip = (a == 0.0) & (rng.random((k, k)) < 0.5)
                a = np.where(flip, -a, a)
                assert np.array_equal(a, a.T)
                got = SymmetricMatrix(a).entries
                assert got.tobytes() == self._mirrored(a).tobytes()
                assert not np.signbit(got[got == 0.0]).any()

    def test_near_symmetric_input_is_mirrored(self):
        a = EX_MATRIX.entries.copy()
        a[2, 0] = np.nextafter(a[2, 0], 0.0)
        a[1, 1] = -0.0 * a[1, 1]
        m = SymmetricMatrix(a)
        assert m.entries.tobytes() == self._mirrored(a).tobytes()
        assert m.entries[2, 0] == m.entries[0, 2] == -1.0

    def test_asymmetry_above_tolerance_rejected(self):
        # scale max(1, max|a|) = 5: asymmetry 5e-9 is the edge
        a = EX_MATRIX.entries.copy()
        a[0, 1] += 4e-9
        assert SymmetricMatrix(a).entries[1, 0] == a[0, 1]
        a[0, 1] += 2e-9
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricMatrix(a)

    @pytest.mark.parametrize("col", [-1, 3, 4])
    def test_with_offdiag_column_out_of_range(self, col):
        # slices alone would write col -1 as col K-1 and col K as nothing
        with pytest.raises(IndexError, match="out of range"):
            EX_MATRIX.with_offdiag_column(col, np.array([-0.5, -0.25]))

    def test_with_offdiag_column_matches_index_lists(self):
        rng = np.random.default_rng(9)
        k = 6
        base = SymmetricMatrix(random_graph_metric(rng, k).matrix.entries)
        for col in range(k):
            values = -rng.uniform(0.0, 1.0, k - 1)
            rows = [r for r in range(k) if r != col]
            a = base.entries.copy()
            a[rows, col] = values
            a[col, rows] = values
            got = base.with_offdiag_column(col, values).entries
            assert got.tobytes() == a.tobytes()


class TestFromPair:
    def test_signs_by_the_largest_entry(self):
        # a localized Perron vector: its first entry is round-off of the
        # wrong sign, its mass is negative
        v = np.array([1.6e-14, -0.71, -0.50, -0.50])
        v /= np.linalg.norm(v)
        cert = Certificate.from_pair(3.34e-3, v)
        assert cert is not None and cert.lambda_min == 3.34e-3
        assert np.all(cert.eigvec > 0)
        assert cert.eigvec[1:4] == pytest.approx(-v[1:4], abs=1e-13)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_nonpositive_value_rejected(self, value):
        assert Certificate.from_pair(value, np.array([0.6, 0.8])) is None


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

    @staticmethod
    def _reasons(m: SymmetricMatrix) -> list[str]:
        with pytest.raises(GraphMetricRejection) as exc:
            validate_graph_metric(m)
        return exc.value.reasons

    def test_positive_offdiagonal_rejected(self):
        reasons = self._reasons(SymmetricMatrix([[2.0, 0.5], [0.5, 2.0]]))
        assert any("positive off-diagonal" in r for r in reasons)

    def test_nonpositive_diagonal_rejected(self):
        reasons = self._reasons(SymmetricMatrix([[0.0, -1.0], [-1.0, 2.0]]))
        assert any("non-positive diagonal" in r for r in reasons)

    def test_all_violations_reported_together(self):
        m = SymmetricMatrix([[-1.0, 0.0, 0.5],
                             [0.0, 1.0, 0.0],
                             [0.5, 0.0, 1.0]])
        reasons = self._reasons(m)
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
        assert np.array_equal(GershgorinPolytope(EX_MATRIX, s).left_ends,
                              gershgorin_left_ends(EX_MATRIX))
        assert GershgorinPolytope(EX_MATRIX, s).left_ends.tolist() == [
            -1.0, 1.0, 1.0]

    def test_alignment_from_unit_eigvec_reciprocals(self):
        # s_k = 1/v_k for the unit-norm eigenvector aligns all left-ends
        g = validate_graph_metric(EX_MATRIX)
        s = alignment_scalars(g)
        expected = 1.0 / g.certificate.eigvec
        assert np.allclose(s.values, expected, rtol=0, atol=0)
        # printed to 4 digits these are (1.3314, 2.0467, 2.2523)
        assert np.allclose(s.values, [1.3314, 2.0467, 2.2523], atol=5e-4)
        ends = GershgorinPolytope(EX_MATRIX, s).left_ends
        lam = g.certificate.lambda_min
        assert np.max(np.abs(ends - lam)) < 1e-8
        assert lam == pytest.approx(0.1078, abs=1e-3)

    def test_symmetric_2x2_uniform_eigvec(self):
        a, b = 3.0, 1.0
        g = validate_graph_metric(SymmetricMatrix([[a, -b], [-b, a]]))
        s = alignment_scalars(g)
        assert s.values[0] == pytest.approx(s.values[1], rel=1e-12)
        ends = GershgorinPolytope(g.matrix, s).left_ends
        assert np.allclose(ends, a - b, atol=1e-10)

    def test_alignment_random_10x10_vs_dense(self):
        rng = np.random.default_rng(7)
        g = random_graph_metric(rng, 10)
        lam = smallest_eigenpair_dense(g.matrix).value
        ends = GershgorinPolytope(g.matrix, alignment_scalars(g)).left_ends
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
        # non-finite or empty scalars, or scalars whose ratios overflow,
        # would give nan left-ends much later
        for values, problem in (([1.0, math.inf, 2.0], "finite"),
                                ([1.0, math.nan], "finite"),
                                ([1e-200, 1.0, 1e200], "finite max/min"),
                                ([], "non-empty")):
            with pytest.raises(ValueError, match=problem):
                GershgorinScalars(np.array(values))

    def test_scaling_invariance_power_of_two_bitwise(self):
        rng = np.random.default_rng(3)
        g = random_graph_metric(rng, 6)
        s = GershgorinScalars(rng.uniform(0.5, 2.0, size=6))
        base = GershgorinPolytope(g.matrix, s).left_ends
        scaled = GershgorinPolytope(
            g.matrix, GershgorinScalars(8.0 * s.values)).left_ends
        assert np.array_equal(base, scaled)

    def test_scaling_invariance_general(self):
        rng = np.random.default_rng(4)
        g = random_graph_metric(rng, 6)
        s = GershgorinScalars(rng.uniform(0.5, 2.0, size=6))
        base = GershgorinPolytope(g.matrix, s).left_ends
        scaled = GershgorinPolytope(
            g.matrix, GershgorinScalars(3.0 * s.values)).left_ends
        assert np.max(np.abs(base - scaled)) <= 1e-12

    def test_scaling_invariance_batch(self):
        # the ratio form s_i / s_j makes power-of-two rescaling exact
        rng = np.random.default_rng(2)
        for _ in range(200):
            dim = int(rng.integers(2, 12))
            g = random_graph_metric(rng, dim)
            s = rng.uniform(0.1, 10.0, size=dim)
            base = GershgorinPolytope(g.matrix, GershgorinScalars(s)).left_ends
            for c in (4.0, 8.0):
                assert np.array_equal(
                    GershgorinPolytope(
                        g.matrix, GershgorinScalars(c * s)).left_ends, base)
            c = float(rng.uniform(0.3, 7.0))
            general = GershgorinPolytope(
                g.matrix, GershgorinScalars(c * s)).left_ends
            assert np.max(np.abs(general - base)) <= 1e-12

    def test_gct_lower_bound_vs_dense(self):
        # any symmetric matrix, so the plain (unit-scalar) discs
        rng = np.random.default_rng(1)
        for _ in range(300):
            dim = int(rng.integers(2, 21))
            a = rng.normal(size=(dim, dim))
            m = SymmetricMatrix((a + a.T) / 2)
            lam = smallest_eigenpair_dense(m).value
            ends = GershgorinPolytope(
                m, GershgorinScalars(np.ones(dim))).left_ends
            assert float(np.min(ends)) <= lam + 1e-10


class TestGershgorinPolytope:
    """``column`` reads the polytope's own ``left_ends``: a column at its
    budgets puts a row's left-end on rho, and the incumbent column lies in
    its box and within its budget exactly where those left-ends are >= rho."""

    @staticmethod
    def _cases(dim):
        """(polytope at rho 0, rho levels) for ten random graph metrics.  The
        levels lie below every left-end and midway between adjacent sorted
        left-ends, so each left-end is clear of each level, and above the
        lowest level the left-ends lie on both sides."""
        rng = np.random.default_rng(dim)
        for _ in range(10):
            m = random_graph_metric(rng, dim).matrix
            s = GershgorinScalars(rng.uniform(0.5, 2.0, size=dim))
            polytope = GershgorinPolytope(m, s)
            e = np.sort(polytope.left_ends)
            mids = (e[:-1] + e[1:]) / 2
            yield polytope, [e[0] - 1.0, *mids[[0, dim // 2 - 1, -1]]]

    @pytest.mark.parametrize("dim", [4, 13, 48])
    def test_column_budgets_meet_left_ends_at_rho(self, dim):
        sides = set()
        for base, levels in self._cases(dim):
            m, s = base.matrix, base.scalars
            scale = np.abs(m.entries).max()
            for rho in levels:
                # the column of the heaviest edge of the highest row below
                # rho, whose budget is then most likely >= 0
                below = np.flatnonzero(base.left_ends < rho)
                col = 0
                if below.size:
                    row = below[base.left_ends[below].argmax()]
                    weights = np.abs(m.entries[row])
                    weights[row] = 0.0
                    col = int(weights.argmax())
                budgets, coeffs, budget = GershgorinPolytope(
                    m, s, rho).column(col)
                if rho == levels[0]:
                    # a level below every left-end leaves every budget
                    # positive
                    assert (budgets > 0).all() and budget > 0
                incumbent = np.delete(m.entries[:, col], col)
                for local in np.flatnonzero(budgets >= 0):
                    row = local + (local >= col)
                    x = incumbent.copy()
                    x[local] = -budgets[local]
                    ends = GershgorinPolytope(m.with_offdiag_column(col, x),
                                              s).left_ends
                    assert abs(ends[row] - rho) <= 1e-12 * scale
                    sides.add(bool(base.left_ends[row] >= rho))
                if budget > 0:
                    w = np.linspace(1.0, 2.0, dim - 1)
                    column = -budget * (w / w.sum()) / coeffs
                    assert float(coeffs @ -column) == pytest.approx(
                        budget, rel=1e-12)
                    filled = m.with_offdiag_column(col, column)
                    ends = GershgorinPolytope(filled, s).left_ends
                    assert abs(ends[col] - rho) <= 1e-12 * np.abs(
                        filled.entries).max()
        assert sides == {True, False}

    @pytest.mark.parametrize("dim", [4, 13, 48])
    def test_incumbent_column_is_feasible_where_left_ends_clear_rho(self,
                                                                    dim):
        in_box, within = set(), set()
        for base, levels in self._cases(dim):
            ends = base.left_ends
            for rho in levels:
                polytope = GershgorinPolytope(base.matrix, base.scalars, rho)
                for col in range(dim):
                    budgets, coeffs, budget = polytope.column(col)
                    x0 = np.delete(np.abs(base.matrix.entries[col]), col)
                    others = np.delete(ends, col) >= rho
                    # row by row: the box holds |m_r,col| exactly where l_r
                    # >= rho, so the incumbent lies in it exactly when every
                    # other row's left-end does
                    assert ((x0 <= budgets) == others).all()
                    in_box.add(bool(others.all()))
                    assert (float(coeffs @ x0) <= budget) == (ends[col] >= rho)
                    within.add(bool(ends[col] >= rho))
        assert in_box == within == {True, False}

    @pytest.mark.parametrize("dim", [4, 13, 48])
    def test_holds_is_min_left_end_within_the_slack(self, dim):
        rng = np.random.default_rng(100 + dim)
        m = random_graph_metric(rng, dim).matrix
        s = GershgorinScalars(rng.uniform(0.5, 2.0, size=dim))
        low = float(GershgorinPolytope(m, s).left_ends.min())
        assert GershgorinPolytope(m, s, low).holds
        assert not GershgorinPolytope(m, s, low + 2 * FEAS_SLACK).holds

    def test_dimension_mismatch(self):
        for size in (2, 4):  # too short and too long for EX_MATRIX
            polytope = GershgorinPolytope(EX_MATRIX,
                                          GershgorinScalars(np.ones(size)))
            with pytest.raises(DimensionMismatchError):
                polytope.left_ends  # noqa: B018 -- computed on first read
            with pytest.raises(DimensionMismatchError):
                polytope.column(0)

    @pytest.mark.parametrize("col", [-1, 3])
    def test_column_out_of_range(self, col):
        polytope = GershgorinPolytope(EX_MATRIX, GershgorinScalars(np.ones(3)))
        with pytest.raises(IndexError, match="out of range"):
            polytope.column(col)


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

    def test_edge_floor_is_strict(self):
        # an entry of exactly CONNECTIVITY_EPS is no edge; the next double is
        at_floor = SymmetricMatrix([[1.0, -CONNECTIVITY_EPS],
                                    [-CONNECTIVITY_EPS, 1.0]])
        above = math.nextafter(CONNECTIVITY_EPS, math.inf)
        assert not is_connected(at_floor)
        assert is_connected(SymmetricMatrix([[1.0, -above], [-above, 1.0]]))

    def test_matches_scipy_components(self):
        # entries on either side of the edge floor, most matrices sparse
        floor = CONNECTIVITY_EPS
        levels = np.array([0.0, floor, math.nextafter(floor, 0.0),
                           math.nextafter(floor, math.inf), 1e-3, 0.7])
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(300):
            k = int(rng.integers(1, 30))
            w = rng.choice(levels, size=(k, k),
                           p=[0.8, 0.04, 0.03, 0.04, 0.05, 0.04])
            a = -np.triu(w, 1)
            a = a + a.T
            np.fill_diagonal(a, 1.0)
            n, _ = connected_components(np.abs(a) > floor, directed=False)
            expected = n == 1
            assert is_connected(SymmetricMatrix(a)) == expected
            seen.add(expected)
        assert seen == {True, False}


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
