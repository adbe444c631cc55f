import itertools
import math

import numpy as np
import pytest

from magbeam.conic import (GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, LpProblem,
                           SdpConstraint, SdpProblem, Tolerances,
                           embed_hermitian, numerical_rank, project_embedded,
                           psd_eigendecomposition, solve_lp, solve_sdp)
from magbeam.conic.kernel import _max_step_pos

W_TABLE = 42.6e6
R_RX = 10.5367
M_RX2 = np.array([0.04747, 0.5642, 0.01945, 0.01116, 0.1526]) * 1e-6


def _single_constraint_optimum(b_bar, m_vec, rhs):
    # single-delivery optimum: direction b_bar^{-1} m, value rhs/2 / lmax
    ell = np.linalg.cholesky(b_bar)
    inv = np.linalg.inv(ell)
    lmax = float(np.linalg.eigvalsh(inv @ np.outer(m_vec, m_vec) @ inv.T)[-1])
    return 0.5 * rhs / lmax


def _single_rx_problem():
    b_bar = 13.44 * np.eye(5) + W_TABLE ** 2 * np.outer(M_RX2, M_RX2) / R_RX
    rhs = 2.0 * R_RX ** 2 * 1.0 / (W_TABLE ** 2 * 10.0)
    problem = SdpProblem(5, b_bar,
                         [SdpConstraint(np.outer(M_RX2, M_RX2), GE, rhs)])
    return problem, b_bar, rhs


class TestSolveSdp:
    def test_scalar_trivial(self):
        sol = solve_sdp(SdpProblem(1, np.eye(1), [SdpConstraint(np.eye(1), GE, 2.0)]))
        assert sol.is_optimal
        assert sol.value == pytest.approx(1.0, rel=1e-7)
        assert sol.x[0, 0] == pytest.approx(2.0, rel=1e-6)

    def test_two_tx_grid_oracle(self):
        # exhaustive sweep over unit-rank candidates in the plane
        m = np.array([0.8, 0.35])
        b_bar = np.diag([2.0, 5.0]) + 3.0 * np.outer(m, m)
        rhs = 0.7
        prob = SdpProblem(2, b_bar, [SdpConstraint(np.outer(m, m), GE, rhs)])
        sol = solve_sdp(prob)
        best = np.inf
        for theta in np.linspace(0.0, math.pi, 200_001):
            u = np.array([math.cos(theta), math.sin(theta)])
            gain = float(u @ m) ** 2
            if gain <= 0:
                continue
            best = min(best, 0.5 * rhs / gain * float(u @ b_bar @ u))
        assert sol.is_optimal
        assert sol.value == pytest.approx(best, rel=1e-4)

    def test_tabletop_single_rx_closed_form(self):
        prob, b_bar, rhs = _single_rx_problem()
        sol = solve_sdp(prob)
        assert sol.is_optimal
        assert sol.value == pytest.approx(_single_constraint_optimum(b_bar, M_RX2, rhs), rel=1e-6)

    def test_infeasible_via_dual_ray(self):
        prob = SdpProblem(2, np.eye(2), [SdpConstraint(np.eye(2), LE, 1.0),
                                         SdpConstraint(np.eye(2), GE, 3.0)])
        assert solve_sdp(prob).status == INFEASIBLE

    def test_unbounded(self):
        prob = SdpProblem(2, -np.eye(2), [SdpConstraint(np.eye(2), GE, 1.0)])
        assert solve_sdp(prob).status == UNBOUNDED

    def test_requires_constraints(self):
        with pytest.raises(ValueError):
            SdpProblem(2, np.eye(2), [])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SdpProblem(2, np.array([[1.0, 2.0], [0.0, 1.0]]),
                       [SdpConstraint(np.eye(2), GE, 1.0)])


class TestKktCertificates:
    def _random_problem(self, rng, complex_data=False):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 6))

        def rand_psd():
            if complex_data:
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                return a @ a.conj().T
            a = rng.standard_normal((n, n))
            return a @ a.T

        c = rand_psd() + n * np.eye(n)
        x0 = rand_psd() + 0.5 * np.eye(n)
        cons = []
        for _ in range(k):
            a = rand_psd()
            v = float(np.real(np.sum(a.conj() * x0)))
            if rng.random() < 0.5:
                cons.append(SdpConstraint(a, GE, 0.7 * v))
            else:
                cons.append(SdpConstraint(a, LE, 1.3 * v))
        return SdpProblem(n, c, cons)

    def test_kkt_on_random_instances(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            prob = self._random_problem(rng, complex_data=bool(trial % 2))
            sol = solve_sdp(prob)
            assert sol.is_optimal, f"trial {trial}: {sol.status}"
            c_half = np.asarray(prob.objective) / 2.0
            s = c_half - sum(y * np.asarray(con.matrix)
                             for y, con in zip(sol.duals, prob.constraints))
            scale = 1.0 + abs(sol.value)
            # complementary slackness
            assert abs(np.real(np.sum(s.conj() * sol.x))) <= 1e-6 * scale
            # dual feasibility: S PSD, multiplier signs match the senses
            assert float(np.linalg.eigvalsh((s + s.conj().T) / 2)[0]) >= -1e-6 * np.linalg.norm(s)
            for y, con in zip(sol.duals, prob.constraints):
                if con.sense == GE:
                    assert y >= -1e-6 * scale
                else:
                    assert y <= 1e-6 * scale
            # primal matrix is PSD
            assert float(np.linalg.eigvalsh(sol.x)[0].real) >= -1e-7 * (1 + np.linalg.norm(sol.x))

    def test_monotonicity_in_rhs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            prob = self._random_problem(rng)
            base = solve_sdp(prob).value
            tightened = []
            for con in prob.constraints:
                rhs = con.rhs * (1.05 if con.sense == GE else 0.95)
                tightened.append(SdpConstraint(con.matrix, con.sense, rhs))
            harder = solve_sdp(SdpProblem(prob.dimension, prob.objective, tightened))
            if harder.is_optimal:
                assert harder.value >= base - 1e-7 * (1 + abs(base))


class TestComplexEmbedding:
    def test_embed_project_roundtrip(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (a + a.conj().T) / 2
        y = embed_hermitian(h)
        assert np.allclose(y, y.T)
        assert np.allclose(project_embedded(y), h)
        # trace inner products double under embedding
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g = (b + b.conj().T) / 2
        lhs = float(np.sum(embed_hermitian(h) * embed_hermitian(g)))
        rhs = 2.0 * float(np.real(np.sum(h.conj() * g)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_hermitian_value_matches_direct_arithmetic(self):
        # closed form computed with native complex arithmetic is reproduced
        # by the embedded solve
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = 4
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            c = a @ a.conj().T + n * np.eye(n)
            b_m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g = b_m @ b_m.conj().T
            rhs = float(rng.uniform(0.5, 2.0))
            sol = solve_sdp(SdpProblem(n, c, [SdpConstraint(g, GE, rhs)]))
            ell_inv = np.linalg.inv(np.linalg.cholesky(c))
            lmax = float(np.linalg.eigvalsh(ell_inv @ g @ ell_inv.conj().T)[-1].real)
            assert sol.is_optimal
            assert sol.value == pytest.approx(0.5 * rhs / lmax, rel=1e-6)
            assert np.linalg.norm(sol.x - sol.x.conj().T) <= 1e-10

    def test_real_data_stays_on_real_path(self):
        prob, b_bar, rhs = _single_rx_problem()
        sol = solve_sdp(prob)
        assert not np.iscomplexobj(sol.x)


class TestStepLength:
    def test_denormal_step_is_unbounded(self):
        # the ratio overflows to +inf, the right bound, without a warning
        assert _max_step_pos(np.array([1.0, 2.0]),
                             np.array([-1e-310, 1.0])) == math.inf


class TestOrthantVariables:
    """SDPs joined by nonnegative scalar variables (one kernel call)."""

    @staticmethod
    def _max_t(a):
        # maximize t s.t. Tr(A X) >= t, Tr(X) <= 1: t* = lambda_max(A)
        n = a.shape[0]
        return SdpProblem(n, np.zeros((n, n)),
                          [SdpConstraint(a, GE, 0.0, linear=(-1.0,)),
                           SdpConstraint(np.eye(n), LE, 1.0)],
                          linear_objective=(-1.0,))

    def test_max_t_real(self):
        g = np.random.default_rng(5).standard_normal((4, 4))
        a = g @ g.T
        sol = solve_sdp(self._max_t(a))
        assert sol.status == OPTIMAL
        lmax = np.linalg.eigvalsh(a)[-1]
        assert sol.u[0] == pytest.approx(lmax, rel=1e-6)
        assert sol.value == pytest.approx(-lmax, rel=1e-6)

    def test_max_t_hermitian(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = g @ g.conj().T
        sol = solve_sdp(self._max_t(a))
        assert sol.status == OPTIMAL
        assert sol.u[0] == pytest.approx(np.linalg.eigvalsh(a)[-1], rel=1e-6)
        assert np.iscomplexobj(sol.x)

    def test_rejects_mismatched_linear_coefficients(self):
        with pytest.raises(ValueError):
            SdpProblem(2, np.eye(2), [SdpConstraint(np.eye(2), GE, 1.0,
                                                    linear=(1.0, 2.0))],
                       linear_objective=(1.0,))


class TestSolveLp:
    def test_lower_bound_only(self):
        sol = solve_lp(LpProblem(objective=[1.0], a_ub=[[1.0]], b_ub=[10.0],
                                 lower_bounds=[3.0]))
        assert sol.is_optimal
        assert sol.value == pytest.approx(3.0, abs=1e-8)

    def test_two_variable_vertex(self):
        # min -x - y  s.t. x + 2y <= 4, 3x + y <= 6 -> vertex (1.6, 1.2)
        sol = solve_lp(LpProblem(objective=[-1.0, -1.0],
                                 a_ub=[[1.0, 2.0], [3.0, 1.0]], b_ub=[4.0, 6.0]))
        assert sol.is_optimal
        assert sol.x == pytest.approx([1.6, 1.2], abs=1e-7)
        assert sol.value == pytest.approx(-2.8, abs=1e-7)

    def test_infeasible(self):
        sol = solve_lp(LpProblem(objective=[1.0, 1.0],
                                 a_ub=[[1.0, 1.0]], b_ub=[-1.0]))
        assert sol.status == INFEASIBLE

    def test_unbounded(self):
        sol = solve_lp(LpProblem(objective=[-1.0], a_ub=[[-1.0]], b_ub=[0.0]))
        assert sol.status == UNBOUNDED

    def test_equality_rows(self):
        sol = solve_lp(LpProblem(objective=[1.0, 2.0],
                                 a_eq=[[1.0, 1.0]], b_eq=[1.0]))
        assert sol.is_optimal
        assert sol.value == pytest.approx(1.0, abs=1e-8)
        assert sol.x == pytest.approx([1.0, 0.0], abs=1e-7)

    def test_vertex_enumeration_oracle(self):
        rng = np.random.default_rng(14)
        for trial in range(25):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 6))
            a_ub = rng.uniform(-1.0, 1.0, (m, n))
            b_ub = rng.uniform(0.5, 2.0, m)          # origin strictly feasible
            a_rows = np.vstack([a_ub, np.ones(n)])   # box row keeps it bounded
            b_rows = np.concatenate([b_ub, [float(rng.uniform(2.0, 5.0))]])
            c = rng.uniform(-1.0, 1.0, n)
            best = np.inf
            rows_all = np.vstack([a_rows, -np.eye(n)])
            rhs_all = np.concatenate([b_rows, np.zeros(n)])
            for active in itertools.combinations(range(rows_all.shape[0]), n):
                sub = rows_all[list(active)]
                if abs(np.linalg.det(sub)) < 1e-10:
                    continue
                x = np.linalg.solve(sub, rhs_all[list(active)])
                if np.all(rows_all @ x <= rhs_all + 1e-9):
                    best = min(best, float(c @ x))
            sol = solve_lp(LpProblem(objective=c, a_ub=a_rows, b_ub=b_rows),
                           Tolerances(rel_gap=1e-11, feasibility=1e-11))
            assert sol.is_optimal, f"trial {trial}"
            assert sol.value == pytest.approx(best, abs=1e-8 * (1 + abs(best)))


class TestEigUtilities:
    def test_identity(self):
        w, v = psd_eigendecomposition(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v @ v.T, np.eye(3))

    def test_rank_one_outer_product(self):
        m = np.array([3.0, 4.0])
        w, v = psd_eigendecomposition(np.outer(m, m))
        assert w == pytest.approx([25.0, 0.0], abs=1e-12)
        lead = v[:, 0] * np.sign(v[0, 0])
        assert lead == pytest.approx([0.6, 0.8], abs=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            a = rng.standard_normal((5, 5))
            x = a @ a.T
            w, v = psd_eigendecomposition(x)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.linalg.norm(v @ np.diag(w) @ v.T - x) <= 1e-10 * np.linalg.norm(x)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            psd_eigendecomposition(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_numerical_rank_thresholds(self):
        assert numerical_rank([5.0, 1e-12], 1e-9) == 1
        assert numerical_rank([0.0, 0.0, 0.0]) == 0
        assert numerical_rank([3.0, 2.0, 3e-5], 1e-6) == 3
        assert numerical_rank([3.0, 2.0, 3e-5], 1e-4) == 2
        assert numerical_rank([], 1e-6) == 0


class TestTraceLog:
    def test_iterate_dump(self):
        import io
        buf = io.StringIO()
        prob = SdpProblem(2, np.eye(2), [SdpConstraint(np.eye(2), GE, 1.0)])
        sol = solve_sdp(prob, trace=buf)
        assert sol.is_optimal
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == sol.iterations
        assert "pobj" in lines[0] and "mu" in lines[0]
