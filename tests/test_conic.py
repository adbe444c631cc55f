import contextvars
import itertools
import logging
import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import row_matrices
from magbeam.conic import (GE, INFEASIBLE, LE, NUMERICAL_FAILURE, OPTIMAL, UNBOUNDED,
                           SdpProblem, kernel, linalg, numerical_rank,
                           psd_eigendecomposition, solve_sdp)
from magbeam.conic.kernel import (_factor_normal, _max_step_framed, _max_step_pos, _minimum,
                                  _nt_scaling, _schur_complement)

W_TABLE = 42.6e6
R_RX = 10.5367
M_RX2 = np.array([0.04747, 0.5642, 0.01945, 0.01116, 0.1526]) * 1e-6


def _max_step_psd(d, ds):
    # largest alpha with diag(d) + alpha*ds PSD (d > 0), stepped in the frame
    # d^-1/2 ds d^-1/2 where the iterate is the identity; a stack (..., n, n)
    # takes its smallest eigenvalues from one batched eigvalsh, as the kernel
    # does, and an n = 0 stack has none (inf)
    s = 1.0 / np.sqrt(d)
    framed = ds * (s[:, None] * s)
    lams = linalg.eigvalsh(framed)[..., 0] if len(d) else np.full(ds.shape[:-2], math.inf)
    return np.vectorize(_max_step_framed, otypes=[float])(lams)


def _single_constraint_optimum(b_bar, m_vec, rhs):
    # single-delivery optimum: direction b_bar^{-1} m, value rhs/2 / lmax
    ell = np.linalg.cholesky(b_bar)
    inv = np.linalg.inv(ell)
    lmax = float(np.linalg.eigvalsh(inv @ np.outer(m_vec, m_vec) @ inv.T)[-1])
    return 0.5 * rhs / lmax


def _single_rx_problem():
    b_bar = 13.44 * np.eye(5) + W_TABLE ** 2 * np.outer(M_RX2, M_RX2) / R_RX
    rhs = 2.0 * R_RX ** 2 * 1.0 / (W_TABLE ** 2 * 10.0)
    problem = SdpProblem(b_bar, M_RX2[None], (GE,), [rhs])
    return problem, b_bar, rhs


class TestSolveSdp:
    def test_scalar_trivial(self):
        sol = solve_sdp(SdpProblem(np.eye(1), np.eye(1)[None], (GE,), [2.0]))
        assert sol.is_optimal
        assert sol.value == pytest.approx(1.0, rel=1e-7)
        assert sol.x[0, 0] == pytest.approx(2.0, rel=1e-6)

    def test_two_tx_grid_oracle(self):
        # exhaustive sweep over unit-rank candidates in the plane
        m = np.array([0.8, 0.35])
        b_bar = np.diag([2.0, 5.0]) + 3.0 * np.outer(m, m)
        rhs = 0.7
        prob = SdpProblem(b_bar, m[None], (GE,), [rhs])
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
        prob = SdpProblem(np.eye(2), np.stack([np.eye(2), np.eye(2)]), (LE, GE),
                          [1.0, 3.0])
        assert solve_sdp(prob).status == INFEASIBLE

    def test_unbounded(self):
        prob = SdpProblem(-np.eye(2), np.eye(2)[None], (GE,), [1.0])
        assert solve_sdp(prob).status == UNBOUNDED

    def test_requires_constraints(self):
        with pytest.raises(ValueError):
            SdpProblem(np.eye(2), np.zeros((0, 2, 2)), (), [])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SdpProblem(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2)[None], (GE,), [1.0])

    def test_objective_symmetry_is_relative(self):
        # an asymmetric objective is refused at any scale, not solved as
        # "unbounded" once it is small
        for scale in (1.0, 1e-12, 1e12):
            with pytest.raises(ValueError, match="symmetric"):
                SdpProblem(scale * np.array([[1.0, 5.0], [0.0, 1.0]]), np.eye(2)[None],
                           (GE,), [1.0])
            sol = solve_sdp(SdpProblem(scale * np.array([[1.0, 1e-10], [0.0, 1.0]]),
                                       np.eye(2)[None], (GE,), [1.0]))
            assert sol.is_optimal


class TestKktCertificates:
    @staticmethod
    def _random_problem(rng, complex_data=False):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 6))

        def rand_factor():
            # F = a^T, standing for F^T conj(F) = a a^H
            a = rng.standard_normal((n, n))
            return (a + 1j * rng.standard_normal((n, n)) if complex_data else a).T

        def gram(f):
            return f.T @ f.conj()

        c = gram(rand_factor()) + n * np.eye(n)
        x0 = gram(rand_factor()) + 0.5 * np.eye(n)
        factors, sense, rhs = [], [], []
        for _ in range(k):
            f = rand_factor()
            a = gram(f)
            v = float(np.real(np.sum(a.conj() * x0)))
            factors.append(f)
            if rng.random() < 0.5:
                sense.append(GE)
                rhs.append(0.7 * v)
            else:
                sense.append(LE)
                rhs.append(1.3 * v)
        return SdpProblem(c, np.stack(factors), sense, rhs)

    def test_kkt_on_random_instances(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            prob = self._random_problem(rng, complex_data=bool(trial % 2))
            sol = solve_sdp(prob)
            assert sol.is_optimal, f"trial {trial}: {sol.status}"
            c_half = np.asarray(prob.objective) / 2.0
            s = c_half - sum(y * a for y, a in zip(sol.duals, row_matrices(prob)))
            scale = 1.0 + abs(sol.value)
            # complementary slackness
            assert abs(np.real(np.sum(s.conj() * sol.x))) <= 1e-6 * scale
            # dual feasibility: S PSD, multiplier signs match the senses
            assert float(np.linalg.eigvalsh((s + s.conj().T) / 2)[0]) >= -1e-6 * np.linalg.norm(s)
            for y, sense in zip(sol.duals, prob.sense):
                if sense == GE:
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
            rhs = [b * (1.05 if sense == GE else 0.95)
                   for b, sense in zip(prob.rhs, prob.sense)]
            harder = solve_sdp(replace(prob, rhs=rhs))
            if harder.is_optimal:
                assert harder.value >= base - 1e-7 * (1 + abs(base))


class TestKernelResult:
    @staticmethod
    def _residuals(kw, res):
        # the relative gap and scaled infeasibilities of the kernel's problem
        # at res, in its own geometry (inner product weight * Re tr(A^H B))
        weight = kernel.HERMITIAN_WEIGHT if np.iscomplexobj(kw["c_psd"]) else 1.0
        f, e, a_lin, b = kw["a_factors"], kw["rows"].e, kw["a_lin"], kw["b"]
        c, c_lin = (kw["c_psd"] + kw["c_psd"].conj().T) / 2.0, kw["c_lin"]
        mats = np.einsum("ij,ja,jb->iab", e, f, f.conj())

        def dot(p, q):
            return weight * np.sum(p.conj() * q).real

        r_p = b - [dot(m, res.x) for m in mats] - a_lin @ res.u
        r_d = c - np.tensordot(res.y, mats, 1) - res.z_psd
        r_lin = c_lin - res.y @ a_lin - res.z_lin
        pobj, dobj = dot(c, res.x) + c_lin @ res.u, b @ res.y
        norm_c = 1.0 + math.sqrt(dot(c, c) + c_lin @ c_lin)
        return (abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
                np.linalg.norm(r_p) / (1.0 + np.linalg.norm(b)),
                math.sqrt(dot(r_d, r_d) + r_lin @ r_lin) / norm_c)

    def test_optimal_result_reports_its_iterate(self, monkeypatch):
        # an optimal stop keeps the residuals it was just tested on; a solve cut
        # one iteration short ends on the same iterate and evaluates them after
        # its loop, and a direct evaluation agrees to rounding
        seen, solve = [], kernel.solve_mixed_cone
        monkeypatch.setattr(kernel, "solve_mixed_cone",
                            lambda **kw: seen.append(kw) or solve(**kw))
        rng = np.random.default_rng(10)
        for trial in range(6):
            solve_sdp(TestKktCertificates._random_problem(rng, bool(trial % 2)))
            kw = seen.pop()
            res = solve(**kw)
            short = solve(**{**kw, "max_iter": res.iterations - 1})
            assert (res.status, short.status) == (OPTIMAL, NUMERICAL_FAILURE)
            for field in ("x", "u", "y", "z_psd", "z_lin"):
                assert np.array_equal(getattr(short, field), getattr(res, field))
            reported = (res.rel_gap, res.primal_infeas, res.dual_infeas)
            assert (short.rel_gap, short.primal_infeas, short.dual_infeas) == reported
            assert reported == pytest.approx(self._residuals(kw, res), rel=1e-6, abs=1e-14)


class TestComplexEmbedding:
    def test_hermitian_value_matches_direct_arithmetic(self):
        # the solve reproduces a closed form computed with native complex
        # arithmetic
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = 4
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            c = a @ a.conj().T + n * np.eye(n)
            b_m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g = b_m @ b_m.conj().T
            rhs = float(rng.uniform(0.5, 2.0))
            sol = solve_sdp(SdpProblem(c, b_m.T[None], (GE,), [rhs]))
            ell_inv = np.linalg.inv(np.linalg.cholesky(c))
            lmax = float(np.linalg.eigvalsh(ell_inv @ g @ ell_inv.conj().T)[-1].real)
            assert sol.is_optimal
            assert sol.value == pytest.approx(0.5 * rhs / lmax, rel=1e-6)
            assert np.linalg.norm(sol.x - sol.x.conj().T) <= 1e-10

    def test_kernel_gets_native_complex_block(self, monkeypatch):
        # a Hermitian problem of dimension n reaches the kernel as one n x n
        # complex block, not as a 2n x 2n real embedding
        seen = []
        solve = kernel.solve_mixed_cone

        def spy(**kwargs):
            seen.append((kwargs["c_psd"], kwargs["a_factors"]))
            return solve(**kwargs)

        monkeypatch.setattr(kernel, "solve_mixed_cone", spy)
        g = np.array([[2.0, 1j], [-1j, 1.0]])
        # the row g as its factor F, g = F^T conj(F)
        sol = solve_sdp(SdpProblem(np.eye(2), np.linalg.cholesky(g).T[None], (GE,), [1.0]))
        assert sol.is_optimal
        (c_psd, a_factors), = seen
        assert c_psd.shape == (2, 2) and a_factors.shape == (2, 2)
        assert np.iscomplexobj(c_psd) and np.iscomplexobj(a_factors)

    def test_real_data_stays_on_real_path(self):
        prob, b_bar, rhs = _single_rx_problem()
        sol = solve_sdp(prob)
        assert not np.iscomplexobj(sol.x)


class TestStepLength:
    def test_denormal_step_is_unbounded(self):
        # the ratio overflows to +inf, the right bound, without a warning
        assert _max_step_pos(np.array([1.0, 2.0]),
                             np.array([-1e-310, 1.0])) == math.inf

    @staticmethod
    def _largest_psd_step(m, dm):
        # bisection on the sign of lambda_min(m + alpha*dm)
        def psd(alpha):
            return np.linalg.eigvalsh(m + alpha * dm)[0] >= 0.0

        hi = 1.0
        while psd(hi):
            hi *= 2.0
            if hi > 1e12:
                return math.inf
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if psd(mid) else (lo, mid)
        return lo

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_psd_step_in_nt_frame_matches_brute_force(self, complex_data):
        # in the NT frame of (x, z) both iterates are diag(d); the step taken
        # there is the largest alpha keeping x + alpha*dm and z + alpha*dm PSD
        rng = np.random.default_rng(14)

        def rand(n):
            a = rng.standard_normal((n, n))
            return a + 1j * rng.standard_normal((n, n)) if complex_data else a

        unbounded = 0
        for trial in range(40):
            n = int(rng.integers(1, 8))
            a, b, h = rand(n), rand(n), rand(n)
            x = a @ a.conj().T + 0.1 * np.eye(n)
            z = b @ b.conj().T + 0.1 * np.eye(n)
            # every fourth direction is PSD: no step leaves the cone
            dm = h @ h.conj().T if trial % 4 == 0 else (h + h.conj().T) / 2.0
            r, r_inv, d = _nt_scaling(np.array((x, z)))
            for m, step in ((x, _max_step_psd(d, r_inv @ dm @ r_inv.conj().T)),
                            (z, _max_step_psd(d, r.conj().T @ dm @ r))):
                expected = self._largest_psd_step(m, dm)
                if expected == math.inf:
                    unbounded += 1
                    assert step == math.inf
                else:
                    assert step == pytest.approx(expected, rel=1e-9)
        assert unbounded >= 20

    def test_float_combine_matches_numpy(self):
        # the kernel's float step lengths against the array code they replace:
        # np.divide(-1, lam, where=not lam >= -1e-14) into inf, np.minimum with
        # the orthant bound, then np.minimum(1, fraction * step); bit for bit,
        # with NaN, signed zeros and infinities; lam = inf stands for an LP's
        # missing PSD block (n = 0), whose step is the orthant bound
        edge = -1e-14
        lams = [math.nan, math.inf, -math.inf, 0.0, -0.0, edge, np.nextafter(edge, -1.0),
                np.nextafter(edge, 0.0), -0.5, -1e300, 2.0]
        bounds = [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, 2.0, 1e-300]

        def bits(values):
            return np.asarray(values, dtype=float).view(np.uint64)

        lam, bound = (np.array(v, dtype=float) for v in zip(*itertools.product(lams, bounds)))
        psd = np.full(lam.shape, np.inf)
        np.divide(-1.0, lam, out=psd, where=~(lam >= -1e-14))
        expected = np.minimum(psd, bound)
        steps = [_max_step_framed(a, b) for a, b in zip(lam.tolist(), bound.tolist())]
        assert all(type(step) is float for step in steps)
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(steps), nan)
        assert np.array_equal(bits(steps)[~nan], bits(expected)[~nan])
        for fraction in (1.0, 0.99):
            alphas = [_minimum(1.0, fraction * step) for step in steps]
            expected_alphas = np.minimum(1.0, fraction * expected)
            assert np.array_equal(np.isnan(alphas), nan)
            assert np.array_equal(bits(alphas)[~nan], bits(expected_alphas)[~nan])
        assert _max_step_framed(-2.0) == 0.5 and _max_step_framed(edge) == math.inf


class TestBatchedStep:
    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_stack_matches_per_matrix(self, complex_data):
        # one batched eigvalsh gives each matrix's step bit for bit; the
        # PSD directions in the stack are unbounded
        rng = np.random.default_rng(15)
        for n in (1, 2, 5, 8):
            h = rng.standard_normal((2, 3, n, n))
            if complex_data:
                h = h + 1j * rng.standard_normal((2, 3, n, n))
            h[0, 0] = h[0, 0] @ h[0, 0].conj().T
            d = rng.uniform(0.1, 3.0, n)
            steps = _max_step_psd(d, h)
            expected = [[_max_step_psd(d, m) for m in row] for row in h]
            assert steps.shape == (2, 3)
            assert np.array_equal(steps, expected)
            assert steps[0, 0] == math.inf
        assert np.array_equal(_max_step_psd(np.zeros(0), np.zeros((2, 0, 0))),
                              [math.inf, math.inf])


def _lu_failure_cases():
    """Rank-two 3x3 Gram matrices with a diagonal below 1e-16 of their largest
    entry: draws 14 and 64 pass the Cholesky test and have an exact zero LU pivot."""
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(65):
        v = rng.standard_normal((3, 2))
        m = v @ v.T
        cases.append(m + np.diag(rng.uniform(0.0, 1e-16, 3) * np.max(np.diag(m))))
    return cases[14], cases[64]


class TestFactorNormal:
    """The normal matrix's solver: a Cholesky test, jitter, then least squares."""

    @staticmethod
    def _solve(m, rhs, caplog):
        with caplog.at_level(logging.DEBUG, logger="magbeam.conic"):
            sol = _factor_normal(m)(rhs)
        return sol, [r.getMessage() for r in caplog.records]

    def test_spd_matches_solve(self, caplog):
        rng = np.random.default_rng(16)
        g = rng.standard_normal((13, 13))
        m = g @ g.T + np.eye(13)
        rhs = rng.standard_normal(13)
        sol, lines = self._solve(m, rhs, caplog)
        np.testing.assert_allclose(sol, np.linalg.solve(m, rhs), rtol=1e-12, atol=0)
        assert lines == []

    def test_singular_psd_takes_jitter(self, caplog):
        # ones(3, 3) has a zero pivot; 1e-14 of its diagonal makes it PD
        m = np.ones((3, 3))
        sol, lines = self._solve(m, m @ [1.0, 2.0, 3.0], caplog)
        np.testing.assert_allclose(sol, 2.0, rtol=1e-12)
        assert lines == ["normal matrix needs jitter 1.0e-14"]

    def test_indefinite_falls_back_to_lstsq(self, caplog):
        # no jitter up to 1e-6 of the diagonal makes it PD
        m = np.diag([1.0, -1.0, 2.0])
        rhs = np.array([1.0, 2.0, 3.0])
        sol, lines = self._solve(m, rhs, caplog)
        np.testing.assert_array_equal(sol, np.linalg.lstsq(m, rhs, rcond=None)[0])
        assert lines == ["normal matrix not factored: least squares"]

    def test_lu_failure_falls_back_to_lstsq(self, caplog):
        rhs = np.array([1.0, 2.0, 3.0])
        for m in _lu_failure_cases():
            np.linalg.cholesky(m)
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(m, rhs)
            caplog.clear()
            sol, lines = self._solve(m, rhs, caplog)
            assert np.all(np.isfinite(sol))
            np.testing.assert_array_equal(sol, np.linalg.lstsq(m, rhs, rcond=None)[0])
            assert lines == ["normal matrix singular in LU: least squares"]


class TestLapackEntryPoints:
    """conic.linalg's direct LAPACK calls give numpy.linalg's arrays, and fail as it does."""

    @staticmethod
    def _assert_same(ours, numpy_result):
        assert ours.dtype == numpy_result.dtype
        assert np.array_equal(ours, numpy_result)

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [5, 16])
    def test_matches_numpy(self, n, complex_data):
        rng = np.random.default_rng(n)
        g = rng.standard_normal((3, n, n))
        if complex_data:
            g = g + 1j * rng.standard_normal((3, n, n))
        h = g @ g.conj().swapaxes(-1, -2) + np.eye(n)
        rhs = rng.standard_normal(n)
        self._assert_same(linalg.cholesky(h), np.linalg.cholesky(h))
        self._assert_same(linalg.eigvalsh(h), np.linalg.eigvalsh(h))
        for ours, numpy_result in zip(linalg.eigh(h), np.linalg.eigh(h)):
            self._assert_same(ours, numpy_result)
        for ours, numpy_result in zip(linalg.svd(g), np.linalg.svd(g)):
            self._assert_same(ours, numpy_result)
        for m in g:
            self._assert_same(linalg.solve(m, rhs), np.linalg.solve(m, rhs))
            for view in (m, m.T, m[::2]):
                assert linalg.frobenius_norm(view) == np.linalg.norm(view)

    def test_failure_raises_without_warning(self):
        rhs = np.array([1.0, 2.0, 3.0])
        indefinite = np.array((np.eye(3), np.diag([1.0, -1.0, 2.0])))
        errstate = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stack in (indefinite, indefinite.astype(complex)):
                with pytest.raises(np.linalg.LinAlgError):
                    linalg.cholesky(stack)
                assert np.geterr() == errstate
            for m in _lu_failure_cases():
                linalg.cholesky(m)
                with pytest.raises(np.linalg.LinAlgError):
                    linalg.solve(m, rhs)
                assert np.geterr() == errstate

    # each entry point with arguments it solves and arguments it fails on (a
    # 3 x 3 NaN matrix fails eigvalsh, eigh and svd to converge)
    _SPD, _NAN, _RHS = np.eye(3) + 0.5, np.full((3, 3), np.nan), np.ones(3)
    ENTRY_POINTS = {"cholesky": (linalg.cholesky, (_SPD,), (np.diag([1.0, -1.0, 2.0]),)),
                    "eigvalsh": (linalg.eigvalsh, (_SPD,), (_NAN,)),
                    "eigh": (linalg.eigh, (_SPD,), (_NAN,)),
                    "svd": (linalg.svd, (_SPD,), (_NAN,)),
                    "solve": (linalg.solve, (_SPD, _RHS), (np.zeros((3, 3)), _RHS))}

    @staticmethod
    def _state():
        return np.geterr(), np.geterrcall(), np.getbufsize()

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_error_state_is_restored(self, name):
        # under a caller's own error state and buffer size, in a context of
        # its own so that none of it outlives the test
        call, good, bad = self.ENTRY_POINTS[name]

        def check():
            np.seterr(all="warn")
            np.seterrcall(print)
            np.setbufsize(2 * np.getbufsize())
            state = self._state()
            call(*good)
            assert self._state() == state
            with pytest.raises(np.linalg.LinAlgError):
                call(*bad)
            assert self._state() == state

        contextvars.copy_context().run(check)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_outer_raise_state_does_not_leak_in(self, name):
        # a failure raises LinAlgError, not FloatingPointError
        call, good, bad = self.ENTRY_POINTS[name]
        expected = call(*good)
        with np.errstate(all="raise"):
            result = call(*good)
            with pytest.raises(np.linalg.LinAlgError):
                call(*bad)
        for ours, reference in zip(*(r if isinstance(r, tuple) else (r,)
                                     for r in (result, expected))):
            assert np.array_equal(ours, reference)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_failure_in_a_thread_leaves_the_caller_alone(self, name):
        call, _, bad = self.ENTRY_POINTS[name]
        outcome = []

        def worker():
            state = self._state()
            try:
                call(*bad)
            except np.linalg.LinAlgError as error:
                outcome.append((type(error), self._state() == state))

        with np.errstate(all="raise"):
            state = self._state()
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert self._state() == state
        assert outcome == [(np.linalg.LinAlgError, True)]


class TestFactoredSchur:
    """The normal matrix's PSD block from the rows' factor columns."""

    @staticmethod
    def _rand(rng, shape, complex_data):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if complex_data else a

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("rows", ["rank_one", "mixed"])
    def test_matches_dense_formula(self, complex_data, rows):
        # weight * Re tr(A_i W A_j W), formed from the full matrices
        rng = np.random.default_rng(19)
        weight = kernel.HERMITIAN_WEIGHT if complex_data else 1.0
        for n in (1, 2, 5, 9):
            k = int(rng.integers(1, 12))
            cols = self._rand(rng, (k, n), complex_data)
            owner = np.arange(k)
            if rows == "mixed":
                # every third row a block: two more columns, after all the others
                more = np.arange(0, k, 3).repeat(2)
                cols = np.concatenate([cols, self._rand(rng, (more.size, n), complex_data)])
                owner = np.concatenate([owner, more])
            e = np.zeros((k, len(cols)))
            e[owner, np.arange(len(cols))] = 1.0
            a_psd = np.einsum("ij,ja,jb->iab", e, cols, cols.conj())
            g = self._rand(rng, (n, n), complex_data)
            w = g @ g.conj().T + 0.1 * np.eye(n)
            dense = weight * np.einsum("iab,bc,jcd,da->ij", a_psd, w, a_psd, w).real
            schur = _schur_complement(cols, e, weight)(w)
            assert schur.shape == (k, k)
            assert np.max(np.abs(schur - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_lp_block_is_zero(self):
        schur = _schur_complement(np.zeros((4, 0)), np.eye(4), 1.0)(np.zeros((0, 0)))
        assert np.array_equal(schur, np.zeros((4, 4)))

    def test_vector_count_must_match_rows(self):
        # two rows on a 3 x 3 block: each column has length 3 and a row
        for factors, rows in ((np.ones((1, 3)), [0, 1]), (np.ones((2, 2)), [0, 1]),
                              (np.ones((2, 3)), [0, 2])):
            with pytest.raises(ValueError, match="vectors"):
                kernel.solve_mixed_cone(c_psd=np.eye(3), c_lin=np.zeros(0), a_factors=factors,
                                        a_lin=np.zeros((2, 0)), b=np.ones(2),
                                        rows=kernel.row_map(np.array(rows), 2, 3, 0, float))


class TestVectorRows:
    """Rows given by a vector a stand for a a^H, and by a block F for F^T conj(F)."""

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_same_problem_as_its_matrices(self, complex_data):
        # the same row matrices through other factors: each vector as two
        # columns a / sqrt(2), the identity as an orthogonal block
        rng = np.random.default_rng(20)
        n = 4
        vecs = rng.standard_normal((3, n))
        if complex_data:
            vecs = vecs + 1j * rng.standard_normal((3, n))
        rotation = np.linalg.qr(rng.standard_normal((n, n)))[0]
        sense, rhs = (GE, GE, LE), [1.0, 0.5, 40.0]
        given = SdpProblem(np.eye(n), [vecs[0], np.eye(n), vecs[1], vecs[2]],
                           (LE,) + sense, [50.0] + rhs)
        assert len(given.factors) == 4
        for kept, block in zip(given.factors, [vecs[:1], np.eye(n), vecs[1:2], vecs[2:]]):
            np.testing.assert_array_equal(kept, block)
        halves = vecs[:, None, :].repeat(2, axis=1) / np.sqrt(2.0)
        formed = SdpProblem(np.eye(n), [halves[0], rotation, halves[1], halves[2]],
                            (LE,) + sense, [50.0] + rhs)
        np.testing.assert_allclose(row_matrices(formed), row_matrices(given),
                                   rtol=0, atol=1e-14)
        a, b = solve_sdp(given), solve_sdp(formed)
        assert a.is_optimal and b.is_optimal
        assert a.value == pytest.approx(b.value, rel=1e-9)
        np.testing.assert_allclose(a.duals, b.duals, rtol=1e-6, atol=1e-9)

    def test_vector_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            SdpProblem(np.eye(3), [np.ones(2)], (GE,), [1.0])

    def test_zero_row_stays_out_of_the_kernel(self, monkeypatch):
        # a row with zero matrix, linear part and rhs constrains nothing
        seen = []
        solve = kernel.solve_mixed_cone

        def spy(**kwargs):
            seen.append(kwargs["b"].size)
            return solve(**kwargs)

        monkeypatch.setattr(kernel, "solve_mixed_cone", spy)
        a = np.array([1.0, 2.0])
        zero = SdpProblem(np.eye(2), [a, np.zeros(2)], (GE, GE), [1.0, 0.0],
                          linear_objective=(1.0,), linear=[[0.0], [0.0]])
        alone = SdpProblem(np.eye(2), [a], (GE,), [1.0], linear_objective=(1.0,))
        with_zero, without = solve_sdp(zero), solve_sdp(alone)
        assert seen == [1, 1]
        assert with_zero.duals[1] == 0.0
        assert with_zero.iterations == without.iterations
        assert with_zero.value == pytest.approx(without.value, rel=1e-12)
        assert with_zero.duals[0] == pytest.approx(without.duals[0], rel=1e-12)


class TestOrthantVariables:
    """SDPs joined by nonnegative scalar variables (one kernel call)."""

    @staticmethod
    def _max_t(f):
        # maximize t s.t. Tr(A X) >= t, Tr(X) <= 1 for A = F^T conj(F):
        # t* = lambda_max(A)
        n = f.shape[1]
        return SdpProblem(np.zeros((n, n)), np.stack([f, np.eye(n)]), (GE, LE), [0.0, 1.0],
                          linear_objective=(-1.0,), linear=[[-1.0], [0.0]])

    def test_max_t_real(self):
        g = np.random.default_rng(5).standard_normal((4, 4))
        a = g @ g.T
        sol = solve_sdp(self._max_t(g.T))
        assert sol.status == OPTIMAL
        lmax = np.linalg.eigvalsh(a)[-1]
        assert sol.u[0] == pytest.approx(lmax, rel=1e-6)
        assert sol.value == pytest.approx(-lmax, rel=1e-6)

    def test_max_t_hermitian(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = g @ g.conj().T
        sol = solve_sdp(self._max_t(g.T))
        assert sol.status == OPTIMAL
        assert sol.u[0] == pytest.approx(np.linalg.eigvalsh(a)[-1], rel=1e-6)
        assert np.iscomplexobj(sol.x)

    def test_rejects_mismatched_linear_coefficients(self):
        with pytest.raises(ValueError):
            SdpProblem(np.eye(2), np.eye(2)[None], (GE,), [1.0],
                       linear_objective=(1.0,), linear=[[1.0, 2.0]])


class TestWarmStart:
    """A solve started from the final iterate of one with the same rows."""

    N = 6

    @classmethod
    def _problem(cls, objective, n_rows=3):
        # maximize t subject to Tr(g g^H X) >= d t per row, Tr X <= 1 and
        # X_ii <= 1/4, plus 0.5 Tr(objective X); rank two without objective
        rng = np.random.default_rng(1)
        n = cls.N
        mats, linear = [], []
        for _ in range(n_rows):
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            mats.append(g)
            linear.append([-float(rng.uniform(0.5, 2.0))])
        mats.append(np.eye(n))
        mats += list(np.eye(n))
        linear += [[0.0]] * (n + 1)
        return SdpProblem(objective, mats, (GE,) * n_rows + (LE,) * (n + 1),
                          [0.0] * n_rows + [1.0] + [0.25] * n,
                          linear_objective=(-1.0,), linear=linear)

    @staticmethod
    def _assert_kkt(prob, sol):
        # rows met, multiplier signs, dual slacks in their cones and
        # complementary slackness, as for the wide-array P0 relaxation
        scale = 1.0 + abs(sol.value)
        s = np.asarray(prob.objective) / 2.0
        s_lin = np.array(prob.linear_objective, dtype=float)
        for y, a, sense, rhs, lin in zip(sol.duals, row_matrices(prob), prob.sense,
                                         prob.rhs, prob.linear):
            trace = float(np.sum(np.conj(a) * sol.x).real)
            lhs = trace + float(np.dot(lin, sol.u))
            slack = lhs - rhs if sense == GE else rhs - lhs
            assert slack >= -1e-6 * max(abs(trace), abs(rhs), 1e-300)
            assert (y if sense == GE else -y) >= -1e-6 * scale
            s = s - y * a
            s_lin = s_lin - y * lin
        assert abs(np.real(np.sum(s.conj() * sol.x))) <= 1e-6 * scale
        assert float(np.linalg.eigvalsh((s + s.conj().T) / 2)[0]) >= -1e-6 * np.linalg.norm(s)
        assert np.all(s_lin >= -1e-6 * scale) and abs(s_lin @ sol.u) <= 1e-6 * scale

    def test_changed_objective_reaches_cold_value(self):
        n = self.N
        unpenalized = self._problem(np.zeros((n, n)))
        base = solve_sdp(unpenalized)
        evals, evecs = psd_eigendecomposition(base.x)
        assert base.is_optimal and numerical_rank(evals, 1e-6) == 2
        v = evecs[:, 0]
        prob = replace(unpenalized, objective=0.6 * base.u[0] / np.trace(base.x).real
                       * (np.eye(n) - np.outer(v, v.conj())))
        cold = solve_sdp(prob)
        warm = solve_sdp(prob, start=base)
        assert cold.is_optimal and warm.is_optimal
        assert warm.value == pytest.approx(cold.value, rel=1e-7)
        assert warm.iterations < cold.iterations
        self._assert_kkt(prob, warm)

    def test_results_share_no_memory(self, monkeypatch):
        # the kernel keeps x and u, z_psd and z_lin as views of stacked
        # vectors; no returned array may alias another
        results = []
        solve = kernel.solve_mixed_cone

        def spy(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(kernel, "solve_mixed_cone", spy)
        n = self.N
        sol = solve_sdp(self._problem(np.zeros((n, n))))
        res = results[0]
        for arrays in ((res.x, res.u, res.y, res.z_psd, res.z_lin), sol.iterate,
                       (sol.x, sol.u, sol.duals) + sol.iterate):
            for a, b in itertools.combinations(arrays, 2):
                assert not np.shares_memory(a, b)

    def test_mutated_solution_keeps_its_warm_start(self):
        n = self.N
        prob = self._problem(np.zeros((n, n)))
        base = solve_sdp(prob)
        warm = solve_sdp(prob, start=base)
        u = base.u.copy()
        base.x[...] = 0.0
        assert np.array_equal(base.u, u)
        again = solve_sdp(prob, start=base)
        assert again.iterations == warm.iterations
        assert np.array_equal(again.x, warm.x) and np.array_equal(again.u, warm.u)

    @staticmethod
    def _indefinite_start_solve(dtype):
        # X = diag(1, -10) stays indefinite after the start's shift, so the NT
        # scaling's Cholesky fails in the first iteration
        start = (np.diag([1.0, -10.0]).astype(dtype), np.zeros(0), np.zeros(1),
                 np.eye(2, dtype=dtype), np.zeros(0))
        return kernel.solve_mixed_cone(
            c_psd=np.eye(2, dtype=dtype), c_lin=np.zeros(0),
            a_factors=np.array([[1.0, 0.0]], dtype=dtype), a_lin=np.zeros((1, 0)),
            b=[1.0], rows=kernel.row_map([0], 1, 2, 0, dtype), start=start)

    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    def test_indefinite_start_ends_numerical_failure(self, dtype):
        # a numerical failure, not an exception or a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = self._indefinite_start_solve(dtype)
        assert res.status == NUMERICAL_FAILURE and res.iterations == 1

    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    def test_failed_warm_solve_restores_the_error_state(self, dtype):
        # TestLapackEntryPoints.test_error_state_is_restored through a warm
        # solve whose LinAlgError the kernel catches, under a caller's own
        # error state and buffer size, in a context of its own
        def check():
            np.seterr(all="warn")
            np.seterrcall(print)
            np.setbufsize(2 * np.getbufsize())
            state = TestLapackEntryPoints._state()
            assert self._indefinite_start_solve(dtype).status == NUMERICAL_FAILURE
            assert TestLapackEntryPoints._state() == state

        contextvars.copy_context().run(check)

    def test_warm_result_shares_no_memory_with_its_start(self):
        # the kernel returns views of its own iterate, and a warm solve's x and
        # u are copies of those: no edit of either reaches the other solve
        n = self.N
        prob = self._problem(np.zeros((n, n)))
        base = solve_sdp(prob)
        warm = solve_sdp(prob, start=base)
        for a in (warm.x, warm.u):
            for b in base.iterate + warm.iterate + (base.x, base.u):
                assert not np.shares_memory(a, b)

    def test_start_from_other_rows_rejected(self):
        n = self.N
        base = solve_sdp(self._problem(np.zeros((n, n))))
        with pytest.raises(ValueError):
            solve_sdp(self._problem(np.eye(n), n_rows=4), start=base)
        with pytest.raises(ValueError):
            solve_sdp(SdpProblem(np.eye(2), np.eye(2)[None], (GE,), [1.0]), start=base)


def _lp(objective, rows, sense, rhs):
    """The LP  minimize objective . u  s.t.  rows u (sense) rhs, u >= 0."""
    k = len(rhs)
    return SdpProblem(np.zeros((0, 0)), np.zeros((k, 0, 0)), sense, rhs,
                      linear_objective=objective, linear=rows)


class TestSolveLp:
    """LPs: problems of dimension 0."""

    def test_two_variable_vertex(self):
        # min -x - y  s.t. x + 2y <= 4, 3x + y <= 6 -> vertex (1.6, 1.2)
        sol = solve_sdp(_lp([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], (LE, LE), [4.0, 6.0]))
        assert sol.is_optimal
        assert sol.u == pytest.approx([1.6, 1.2], abs=1e-7)
        assert sol.value == pytest.approx(-2.8, abs=1e-7)

    def test_infeasible(self):
        sol = solve_sdp(_lp([1.0, 1.0], [[1.0, 1.0]], (LE,), [-1.0]))
        assert sol.status == INFEASIBLE

    def test_unbounded(self):
        sol = solve_sdp(_lp([-1.0], [[-1.0]], (LE,), [0.0]))
        assert sol.status == UNBOUNDED

    def test_vertex_enumeration_oracle(self, monkeypatch):
        # stopped at 1e-11 gap and feasibility, not the kernel's 1e-8
        solve = kernel.solve_mixed_cone

        def tight(**kwargs):
            return solve(**kwargs, gap_tol=1e-11, feas_tol=1e-11)

        monkeypatch.setattr(kernel, "solve_mixed_cone", tight)
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
            sol = solve_sdp(_lp(c, a_rows, (LE,) * len(b_rows), b_rows))
            assert sol.is_optimal, f"trial {trial}"
            assert sol.value == pytest.approx(best, abs=1e-8 * (1 + abs(best)))


class TestProblemForm:
    """The stacked-row problem form and its senses."""

    def test_rejects_unknown_sense(self):
        with pytest.raises(ValueError, match="sense"):
            SdpProblem(np.eye(2), np.eye(2)[None], ("=>",), [1.0])

    def test_rejects_equality_sense(self):
        # the problem form has inequality rows only
        with pytest.raises(ValueError, match="sense"):
            SdpProblem(np.eye(2), np.eye(2)[None], ("==",), [1.0])

    @pytest.mark.parametrize("field", ["rhs", "sense", "linear"])
    def test_rejects_row_count_mismatch(self, field):
        rows = {"rhs": [1.0, 2.0], "sense": (GE, LE), "linear": [[0.0], [0.0]]}
        rows[field] = rows[field][:1]
        with pytest.raises(ValueError):
            SdpProblem(np.eye(2), np.stack([np.eye(2), np.eye(2)]), rows["sense"],
                       rows["rhs"], linear_objective=(1.0,), linear=rows["linear"])

    @pytest.mark.parametrize("field", ["objective", "factors", "rhs",
                                       "linear_objective", "linear"])
    def test_rejects_non_finite_data(self, field):
        data = {"objective": np.eye(2), "factors": np.eye(2)[None], "rhs": [1.0],
                "linear_objective": [1.0], "linear": [[1.0]]}
        data[field] = np.full(np.shape(data[field]), np.nan)
        with pytest.raises(ValueError, match="finite"):
            SdpProblem(data["objective"], data["factors"], (GE,), data["rhs"],
                       linear_objective=data["linear_objective"], linear=data["linear"])

    @pytest.mark.parametrize("objective, message", [
        (np.diag([1.0, np.nan]), "finite"), (np.diag([np.inf, 1.0]), "finite"),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), "Hermitian"),
        (np.array([[1.0, 1j], [1j, 1.0]]), "Hermitian")], ids=["nan", "inf", "real", "complex"])
    def test_replaced_objective_is_checked(self, objective, message):
        # dataclasses.replace builds the problem again, checks included
        problem = SdpProblem(np.eye(2), np.eye(2)[None], (GE,), [1.0])
        with pytest.raises(ValueError, match=message):
            replace(problem, objective=objective)

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_ge_row_on_psd_block(self, complex_data):
        # minimize Tr X s.t. Tr(A X) >= b: the row binds at X = (b / lambda_max) v v^H
        rng = np.random.default_rng(16)
        g = rng.standard_normal((4, 4))
        if complex_data:
            g = g + 1j * rng.standard_normal((4, 4))
        a = g @ g.conj().T
        sol = solve_sdp(SdpProblem(2.0 * np.eye(4), g.T[None], (GE,), [3.0]))
        assert sol.is_optimal
        assert sol.value == pytest.approx(3.0 / np.linalg.eigvalsh(a)[-1], rel=1e-6)
        assert float(np.sum(a.conj() * sol.x).real) == pytest.approx(3.0, rel=1e-7)

    def test_one_slack_column_per_inequality_row(self, monkeypatch):
        # +1 for a <= row, -1 for a >= row
        seen = []
        solve = kernel.solve_mixed_cone

        def spy(**kwargs):
            seen.append(kwargs["a_lin"])
            return solve(**kwargs)

        monkeypatch.setattr(kernel, "solve_mixed_cone", spy)
        sol = solve_sdp(_lp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], (LE, GE), [2.0, 0.5]))
        assert sol.is_optimal and sol.value == pytest.approx(0.5, abs=1e-8)
        a_lin, = seen
        assert a_lin.shape == (2, 4)
        assert np.sign(a_lin[:, 2:]).tolist() == [[1.0, 0.0], [0.0, -1.0]]


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

    def test_hermitian_test_is_relative(self):
        # the asymmetry counts against the matrix's own norm, at any scale
        for scale in (1.0, 1e-12, 1e12):
            with pytest.raises(ValueError):
                psd_eigendecomposition(scale * np.array([[1.0, 2.0], [0.0, 1.0]]))
            w, _ = psd_eigendecomposition(scale * np.array([[2.0, 1e-10], [0.0, 1.0]]))
            assert w == pytest.approx([2.0 * scale, scale], rel=1e-9)

    def test_numerical_rank_thresholds(self):
        assert numerical_rank([5.0, 1e-12], 1e-9) == 1
        assert numerical_rank([0.0, 0.0, 0.0]) == 0
        assert numerical_rank([3.0, 2.0, 3e-5], 1e-6) == 3
        assert numerical_rank([3.0, 2.0, 3e-5], 1e-4) == 2
        assert numerical_rank([], 1e-6) == 0


class TestTraceLog:
    def test_iterate_dump(self, caplog):
        prob = SdpProblem(np.eye(2), np.eye(2)[None], (GE,), [1.0])
        with caplog.at_level(logging.DEBUG, logger="magbeam"):
            sol = solve_sdp(prob)
        assert sol.is_optimal
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == sol.iterations
        assert "pobj" in lines[0] and "mu" in lines[0]
