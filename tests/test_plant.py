import math

import numpy as np
import pytest

from mfcert import (
    Box,
    MsdParams,
    msd_f,
    msd_phi,
    msd_phi_gradient,
    phi_lipschitz_sup,
    sigma1,
    sigma1_bar,
)


def test_msd_f_table_values(table_params):
    assert msd_f(table_params, (0.0, 0.0)) == pytest.approx(-9.81, abs=1e-12)
    # -1.5 * 1.0025 * 0.1 + 2.4 - 9.81
    assert msd_f(table_params, (0.1, -8.0)) == pytest.approx(-7.560375, abs=1e-12)
    assert msd_f(table_params, (0.1, -8.0)) == pytest.approx(-7.560, abs=1e-3)


def test_msd_f_vanishes_at_origin_without_gravity():
    p = MsdParams(k=2.0, c_d=0.4, alpha=1.0, m=2.0, g0=0.0)
    assert msd_f(p, (0.0, 0.0)) == 0.0


def test_msd_phi_table_values(table_params):
    # 0.147 * 0.75^3 + 0.075 * 0.75 with sigma1 = -0.147
    assert msd_phi(table_params, (0.75, 0.0)) == pytest.approx(0.118265625, abs=1e-12)
    assert msd_phi(table_params, (0.75, 0.0)) == pytest.approx(0.1183, abs=1e-3)
    # only the damping-uncertainty term survives
    assert msd_phi(table_params, (0.0, 1.0)) == pytest.approx(-0.06, abs=1e-15)


def test_msd_phi_zero_without_uncertainty(nominal_params):
    rng = np.random.default_rng(1)
    for x in rng.uniform(-5, 5, size=(50, 2)):
        assert msd_phi(nominal_params, x) == 0.0


def test_msd_phi_is_odd(table_params):
    rng = np.random.default_rng(2)
    for x1, x2 in rng.uniform(-5, 5, size=(200, 2)):
        assert msd_phi(table_params, (x1, x2)) + msd_phi(table_params, (-x1, -x2)) == 0.0


def test_sigma1_values(table_params):
    assert sigma1(table_params) == pytest.approx(-0.147, abs=1e-6)
    assert sigma1_bar(table_params) == pytest.approx(0.192, abs=1e-6)


def test_sigma1_zero_uncertainty(nominal_params):
    assert sigma1(nominal_params) == 0.0
    assert sigma1_bar(nominal_params) == 0.0


def test_sigma1_bar_majorises_sigma1():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = MsdParams(
            k=rng.uniform(0.5, 3), c_d=rng.uniform(0.1, 1), alpha=rng.uniform(0.1, 2),
            m=rng.uniform(0.5, 2), g0=9.81,
            dk=rng.uniform(-0.5, 0.5), dc_d=rng.uniform(-0.2, 0.2),
            dalpha=rng.uniform(-0.3, 0.3),
        )
        assert sigma1_bar(p) >= abs(sigma1(p)) - 1e-15


def test_lipschitz_sup_zero_uncertainty(nominal_params):
    assert phi_lipschitz_sup(nominal_params, Box((-3, -3), (3, 3))) == 0.0


def test_lipschitz_sup_symmetric_band(table_params):
    region = Box((-1.0, -10.0), (1.0, 10.0))
    # gradient-norm maximum at |x1| = 1: sqrt((3*0.147 + 0.075)^2 + 0.06^2)
    expected = math.sqrt(0.516**2 + 0.06**2)
    got = phi_lipschitz_sup(table_params, region)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.5194, abs=1e-3)


def test_lipschitz_sup_point_region(table_params):
    region = Box((0.0, 0.0), (0.0, 0.0))
    assert phi_lipschitz_sup(table_params, region) == pytest.approx(
        math.sqrt(0.075**2 + 0.06**2), abs=1e-12
    )
    assert phi_lipschitz_sup(table_params, region) == pytest.approx(0.09605, abs=1e-5)


def test_lipschitz_sup_matches_grid_oracle(table_params):
    # brute-force gradient norms on a fine grid never exceed the formula
    region = Box((-0.4, -2.0), (2.3, 2.0))
    sup = phi_lipschitz_sup(table_params, region)
    xs = np.linspace(region.lo[0], region.hi[0], 20001)
    d1, d2 = msd_phi_gradient(table_params, (xs, np.zeros_like(xs)))
    norms = np.sqrt(np.asarray(d1) ** 2 + d2**2)
    assert float(np.max(norms)) <= sup + 1e-12
    assert float(np.max(norms)) == pytest.approx(sup, rel=1e-6)


def test_lipschitz_sup_inside_a_box_straddling_zero():
    # sigma1 = 0.129 > 0 and dk < 0: the gradient's x1 part, 3 sigma1 x1^2 + dk,
    # is largest in size at x1 = 0 (0.1), not at the endpoints (0.06517)
    p = MsdParams(k=1.5, c_d=0.3, alpha=0.5, m=1.0, g0=9.81, dk=-0.1, dc_d=0.0, dalpha=0.1)
    region = Box((-0.3, -1.0), (0.3, 1.0))
    assert sigma1(p) == pytest.approx(0.129, abs=1e-12)
    sup = phi_lipschitz_sup(p, region)
    xs = np.linspace(region.lo[0], region.hi[0], 20001)
    d1, d2 = msd_phi_gradient(p, (xs, np.zeros_like(xs)))
    assert sup == float(np.max(np.hypot(d1, d2))) == pytest.approx(0.1, abs=1e-15)


def test_inverted_box_rejected():
    with pytest.raises(ValueError):
        Box((1.0, 0.0), (-1.0, 1.0))


def test_lipschitz_bound_on_random_pairs(table_params):
    region = Box((-5.0, -10.0), (5.0, 10.0))
    gamma = phi_lipschitz_sup(table_params, region)
    rng = np.random.default_rng(4)
    a = region.sample(rng, 10_000)
    b = region.sample(rng, 10_000)
    num = np.abs(
        msd_phi(table_params, (a[:, 0], a[:, 1]))
        - msd_phi(table_params, (b[:, 0], b[:, 1]))
    )
    den = np.linalg.norm(a - b, axis=1)
    mask = den > 0
    assert np.all(num[mask] <= gamma * den[mask] + 1e-12)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        MsdParams(k=-1.0, c_d=0.3, alpha=0.5, m=1.0, g0=9.81)
    with pytest.raises(ValueError):
        MsdParams(k=1.0, c_d=0.3, alpha=0.5, m=0.0, g0=9.81)


def test_params_roundtrip_serialisation(table_params):
    data = table_params.to_dict()
    assert set(data) == {
        "k", "c_d", "alpha", "m", "g0", "delta_k", "delta_c_d", "delta_alpha",
    }
    assert MsdParams.from_dict(data) == table_params
    p = table_params
    assert data == {
        "k": p.k, "c_d": p.c_d, "alpha": p.alpha, "m": p.m, "g0": p.g0,
        "delta_k": p.dk, "delta_c_d": p.dc_d, "delta_alpha": p.dalpha,
    }


def test_params_without_a_required_key_raise_key_error():
    with pytest.raises(KeyError, match="m"):
        MsdParams.from_dict({"k": 1.5, "c_d": 0.3, "alpha": 0.5, "g0": 9.81})
