import math
import warnings

import numpy as np
import pytest

from mfcert import (
    GainSet,
    bP_norm,
    c_star,
    certify,
    design_gains,
    gamma_mfc,
    gamma_sl,
    gamma_slhg,
    high_gain,
    lambda_min,
    m_matrix_positive,
    place_poles,
    solve_lyapunov,
)
from mfcert.config import parse_config, preset
from mfcert.synthesis import closed_loop_matrix, real_poly


def _random_stable_roots(rng, n):
    roots = []
    while len(roots) < n:
        if n - len(roots) >= 2 and rng.random() < 0.4:
            re = -rng.uniform(0.2, 4.0)
            im = rng.uniform(0.1, 3.0)
            roots += [complex(re, im), complex(re, -im)]
        else:
            roots.append(complex(-rng.uniform(0.2, 4.0), 0.0))
    return roots[:n]


class TestPlacePoles:
    def test_double_pole_at_minus_two(self):
        assert place_poles([-2, -2]) == pytest.approx([-4.0, -4.0], abs=1e-12)

    def test_scalar(self):
        assert place_poles([-1]) == pytest.approx([-1.0], abs=1e-15)

    def test_three_real_poles(self):
        # (s+1)(s+2)(s+3) = s^3 + 6 s^2 + 11 s + 6
        assert place_poles([-1, -2, -3]) == pytest.approx([-6.0, -11.0, -6.0], abs=1e-12)

    def test_rejects_unstable_roots(self):
        with pytest.raises(ValueError):
            place_poles([1.0, -2.0])
        with pytest.raises(ValueError):
            place_poles([0.0])

    def test_rejects_non_conjugate_sets(self):
        with pytest.raises(ValueError):
            place_poles([complex(-1, 1), complex(-2, 0)])

    def test_characteristic_polynomial_recovery(self):
        # determinant of (root I - Acl) vanishes at every requested root
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            roots = _random_stable_roots(rng, n)
            acl = closed_loop_matrix(place_poles(roots))
            for r in roots:
                val = np.linalg.det(r * np.eye(n) - acl)
                assert abs(val) <= 1e-9


class TestRealPoly:
    @pytest.mark.parametrize("roots, expected", [
        ([-1 + 2j, -1 - 2j], [1.0, 2.0, 5.0]),
        ([-4.0, -4.0], [1.0, 8.0, 16.0]),
        ([-1 + 2j, -1 - (2 + 1e-13) * 1j], [1.0, 2.0, 5.0000000000002]),
        ([-1 + 1j, -2.0], None),
        ([-1 + 2j, -1 + 2j], None),
        ([-1e308 + 1e308j, -1e308 + 1e308j], None),
    ], ids=["complex-pair", "repeated-real", "near-pair", "unpaired", "twice-the-same",
            "overflow"])
    def test_coefficients_or_error(self, roots, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow stays silent
            if expected is None:
                with pytest.raises(ValueError, match="closed under complex conjugation"):
                    real_poly(roots)
                return
            coeffs = real_poly(roots)
        assert coeffs.dtype == np.float64
        assert coeffs.tolist() == expected


class TestHighGain:
    def test_benchmark_scaling_exact(self):
        k_tilde = high_gain([-4.0, -4.0], 0.1)
        assert k_tilde.tolist() == [-400.0, -40.0]
        D = GainSet((-4.0, -4.0), k_tilde, 0.1).d_matrix()
        assert D.tolist() == [[0.1, 0.0], [0.0, 1.0]]

    def test_identity_scaling(self):
        k_tilde = high_gain([-3.0, -5.0], 1.0)
        assert k_tilde.tolist() == [-3.0, -5.0]
        assert np.allclose(GainSet((-3.0, -5.0), k_tilde, 1.0).d_matrix(), np.eye(2))

    def test_third_order(self):
        k_tilde = high_gain([-6.0, -11.0, -6.0], 0.5)
        assert k_tilde == pytest.approx([-48.0, -44.0, -12.0], abs=1e-12)

    def test_rejects_bad_epsilon(self):
        for eps in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                high_gain([-4.0, -4.0], eps)


class TestSolveLyapunov:
    def test_benchmark_matrix(self, p_expected):
        P = solve_lyapunov([-4.0, -4.0])
        assert np.max(np.abs(P - p_expected)) <= 1e-10

    def test_scalar(self):
        assert solve_lyapunov([-1.0]) == pytest.approx(np.array([[0.5]]), abs=1e-14)

    def test_against_quadrature_oracle(self):
        # P = integral of expm(Acl' t) expm(Acl t) dt, Simpson on a fine grid
        k = place_poles([-1, -2, -3])
        acl = closed_loop_matrix(k)
        w, V = np.linalg.eig(acl)
        Vinv = np.linalg.inv(V)
        ts = np.linspace(0.0, 40.0, 40001)
        exps = np.einsum("ij,tj,jk->tik", V, np.exp(np.outer(ts, w)), Vinv).real
        integrand = np.einsum("tji,tjk->tik", exps, exps)
        weights = np.ones(len(ts))
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        h = ts[1] - ts[0]
        P_oracle = h / 3.0 * np.einsum("t,tik->ik", weights, integrand)
        P = solve_lyapunov(k)
        assert np.max(np.abs(P - P_oracle)) <= 1e-8
        residual = np.max(np.abs(acl.T @ P + P @ acl + np.eye(3)))
        assert residual <= 1e-10

    def test_rejects_non_hurwitz(self):
        with pytest.raises(ValueError):
            solve_lyapunov([1.0, 0.0])  # eigenvalues +-1, singular operator
        with pytest.raises(ValueError):
            solve_lyapunov([-1.0, 2.0])  # eigenvalues at +1, indefinite solution


class TestSpectralHelpers:
    def test_lambda_min_benchmark(self, p_expected):
        assert lambda_min(p_expected) == pytest.approx((41 - math.sqrt(1025)) / 64, abs=1e-12)
        assert lambda_min(p_expected) == pytest.approx(0.140381, abs=1e-5)

    def test_bp_norm_benchmark(self, p_expected):
        assert bP_norm(p_expected) == pytest.approx(math.sqrt(41) / 32, abs=1e-14)

    def test_identity(self):
        assert lambda_min(np.eye(2)) == 1.0
        assert bP_norm(np.eye(2)) == 1.0

    def test_rejects_asymmetric(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            lambda_min(bad)
        with pytest.raises(ValueError):
            bP_norm(bad)


class TestRobustnessBounds:
    def test_gamma_mfc_benchmark(self, p_expected):
        got = gamma_mfc(0.1, 1000.0, p_expected)
        assert got == pytest.approx(24.9256, rel=0.003)

    def test_gamma_mfc_large_weight_limit(self):
        assert gamma_mfc(1.0, 1e12, np.eye(2)) == pytest.approx(0.5, abs=1e-9)

    def test_gamma_mfc_small_weight(self, p_expected):
        got = gamma_mfc(0.1, 10.0, p_expected)
        expected = 24.92564280633679 * (1 + math.sqrt(1.01)) / (1 + math.sqrt(2))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(20.77, rel=0.01)

    @pytest.mark.parametrize("vartheta", [0.0, -1.0, math.nan])
    def test_vartheta_must_be_positive(self, p_expected, vartheta):
        # one check for the bound, the certificate and the model-loop level
        gains = design_gains([-1.0, -2.0], 0.1)
        for call in (lambda: gamma_mfc(0.1, vartheta, p_expected),
                     lambda: certify(gains, vartheta),
                     lambda: c_star(vartheta, p_expected, (1.0, 0.0))):
            with pytest.raises(ValueError, match="^vartheta must be positive$"):
                call()

    def test_gamma_sl_and_slhg_benchmark(self, p_expected):
        assert gamma_sl(p_expected) == pytest.approx(2.4988, abs=1e-3)
        assert gamma_slhg(0.1, p_expected) == pytest.approx(24.9878, abs=1e-3)
        assert gamma_slhg(1.0, p_expected) == gamma_sl(p_expected)

    def test_bound_ordering_and_scaling(self, cert):
        assert cert.gamma_sl < cert.gamma_mfc < cert.gamma_slhg
        assert cert.gamma_slhg == pytest.approx(cert.gamma_sl / cert.epsilon, rel=1e-14)

    def test_weight_limit_closes_gap(self, p_expected):
        g_inf = gamma_mfc(0.1, 1e8, p_expected)
        g_hg = gamma_slhg(0.1, p_expected)
        assert abs(g_inf - g_hg) / g_hg < 1e-4

    def test_bound_monotone_in_weight(self, p_expected):
        values = [gamma_mfc(0.1, vth, p_expected) for vth in np.logspace(-2, 8, 60)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] <= gamma_slhg(0.1, p_expected)


class TestMMatrix:
    def test_benchmark_cases(self, p_expected):
        ok, _ = m_matrix_positive(1000.0, 0.1, 24.0, p_expected)
        assert ok
        ok, _ = m_matrix_positive(1000.0, 0.1, 26.0, p_expected)
        assert not ok

    def test_zero_gain_diagonal(self, p_expected):
        ok, M = m_matrix_positive(5.0, 0.3, 0.0, p_expected)
        assert ok
        assert M[0, 1] == 0.0

    def test_equivalence_with_solved_bound(self, p_expected):
        rng = np.random.default_rng(11)
        for _ in range(300):
            vth = rng.uniform(0.5, 5000.0)
            eps = rng.uniform(0.02, 1.0)
            bound = gamma_mfc(eps, vth, p_expected)
            gamma = rng.uniform(0.0, 2.0 * bound)
            ok, _ = m_matrix_positive(vth, eps, gamma, p_expected)
            assert ok == (gamma < bound)


class TestCertificate:
    def test_residual_for_random_designs(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            gains = design_gains(_random_stable_roots(rng, n), rng.uniform(0.05, 1.0))
            cert = certify(gains, 100.0 / gains.epsilon)
            acl = closed_loop_matrix(gains.k_star)
            residual = np.max(np.abs(acl.T @ cert.P + cert.P @ acl + np.eye(n)))
            assert residual <= 1e-10
            assert cert.residual == residual

    def test_default_weight(self):
        # the 100 / epsilon default lives in the configuration alone
        raw = preset("scenario1").to_dict()
        del raw["vartheta"]
        cfg = parse_config(raw)
        cert = certify(design_gains(cfg.poles, cfg.epsilon), cfg.vartheta)
        assert cert.vartheta == pytest.approx(1000.0)
        assert "residual" not in cert.to_dict()

    def test_gain_set_relation(self, gains):
        n = gains.n
        for i in range(n):
            assert gains.k_tilde[i] == pytest.approx(
                gains.k_star[i] * gains.epsilon ** -(n - i), rel=1e-14
            )
        assert np.linalg.norm(gains.d_matrix(), 2) == pytest.approx(1.0)
