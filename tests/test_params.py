import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoermander_kit import params
from hoermander_kit.errors import (
    InvalidConfig,
    NonPositiveValue,
    OrderingViolation,
    UnboundedRatio,
    UnknownConfigKey,
)


def test_slow_variation_constant_passes():
    rep = params.check_slow_variation(params.constant(), [0.25, 0.5, 2.0, 4.0], 1e6)
    assert rep.deviation_at_rmax == 0.0
    assert all(d == 0.0 for d in rep.deviations)
    assert rep.passed


def test_slow_variation_log_matches_closed_form():
    # |phi(2r)/phi(r) - 1| = ln 2 / (1 + ln r) for phi = 1 + ln r
    rep = params.check_slow_variation(params.log_power(1.0), [2.0], 1e6)
    expected = math.log(2.0) / (1.0 + math.log(1e6))
    assert rep.deviation_at_rmax == pytest.approx(expected, rel=1e-12)
    assert rep.passed


def test_slow_variation_power_fails():
    rep = params.check_slow_variation(params.power_times_slow(0.5), [2.0], 1e6)
    assert rep.deviation_at_rmax == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
    assert not rep.passed
    # deviation is constant in r for a pure power
    assert np.ptp(rep.deviations) < 1e-12


def test_slow_variation_rejects_nonpositive():
    # negative only between decades, so construction passes but the
    # diagnostic samples lam*r = 2e6 and must reject
    bad = params.custom(lambda r: np.where((r > 1.5e6) & (r < 3e6), -1.0, 1.0))
    with pytest.raises(NonPositiveValue):
        params.check_slow_variation(bad, [2.0], 1e6)


def test_constructor_rejects_nonpositive():
    with pytest.raises(NonPositiveValue):
        params.custom(lambda r: r - 2.0)


def test_build_psi_power_case():
    psi = params.build_psi(0.0, 1.0, 2.0, params.constant())
    r = np.geomspace(1.0, 1e12, 64)
    assert np.max(np.abs(psi(r) - np.sqrt(r))) <= 1e-14 * np.max(np.sqrt(r))
    assert psi(0.5) == pytest.approx(1.0)


def test_build_psi_log_example():
    psi = params.build_psi(2.0, 3.0, 5.0, params.log_power(1.0))
    expected = 9.0 ** (1.0 / 3.0) * (1.0 + math.log(9.0 ** (1.0 / 3.0)))
    assert float(psi(9.0)) == pytest.approx(expected, rel=1e-12)


def test_build_psi_ordering_guard():
    with pytest.raises(OrderingViolation):
        params.build_psi(0.0, 0.0, 2.0, params.constant())
    with pytest.raises(OrderingViolation):
        params.build_psi(2.0, 1.0, 3.0, params.constant())


@given(
    s0=st.floats(-3, 3),
    ds=st.floats(0.05, 2),
    ds1=st.floats(0.05, 2),
    theta=st.floats(-1.5, 1.5),
)
@settings(max_examples=40, deadline=None)
def test_build_psi_membership_property(s0, ds, ds1, theta):
    phi = params.log_power(theta)
    psi = params.build_psi(s0, s0 + ds, s0 + ds + ds1, phi)
    rep = params.check_interp_membership(psi)
    assert rep["passed"]


def test_reiterate_power_algebra():
    alpha = params.InterpParam(evaluator=lambda r: r**0.25)
    beta = params.InterpParam(evaluator=lambda r: r**0.75)
    psi = params.InterpParam(evaluator=lambda r: np.sqrt(r))
    omega = params.reiterate(alpha, beta, psi)
    r = np.geomspace(1.0, 1e8, 64)
    assert np.max(np.abs(omega(r) / np.sqrt(r) - 1.0)) < 1e-14


def test_reiterate_equal_inputs_constant_multiple():
    alpha = params.build_psi(0, 1, 2, params.log_power(1.0))
    psi = params.InterpParam(evaluator=lambda r: 2.0 + 0.0 * r)
    omega = params.reiterate(alpha, alpha, psi)
    r = np.geomspace(1.0, 1e6, 32)
    assert np.max(np.abs(omega(r) / (2.0 * alpha(r)) - 1.0)) < 1e-14


def test_reiterate_paper_triple():
    # eps = 0.25, delta = 0.5: alpha = r^(1/3) phi(r^(2/3)),
    # beta = r^(2/3) phi(r^(2/3)), psi = sqrt -> omega = r^(1/2) phi(r^(2/3))
    phi = params.log_power(1.0)
    alpha = params.InterpParam(evaluator=lambda r: r ** (1.0 / 3.0) * phi(r ** (2.0 / 3.0)))
    beta = params.InterpParam(evaluator=lambda r: r ** (2.0 / 3.0) * phi(r ** (2.0 / 3.0)))
    psi = params.InterpParam(evaluator=lambda r: np.sqrt(r))
    omega = params.reiterate(alpha, beta, psi)
    r = np.geomspace(1.0, 1e8, 64)
    expected = np.sqrt(r) * phi(r ** (2.0 / 3.0))
    assert np.max(np.abs(omega(r) / expected - 1.0)) < 1e-14


def test_reiterate_pointwise_identity_random():
    rng = np.random.default_rng(1)
    a, b = sorted(rng.uniform(0.1, 0.9, size=2))
    alpha = params.InterpParam(evaluator=lambda r, a=a: r**a)
    beta = params.InterpParam(evaluator=lambda r, b=b: r**b)
    psi = params.build_psi(0, 1, 3, params.log_power(-0.5))
    omega = params.reiterate(alpha, beta, psi)
    r = np.geomspace(1.0, 1e8, 200)
    direct = alpha(r) * psi(beta(r) / alpha(r))
    assert np.max(np.abs(omega(r) - direct) / np.abs(direct)) < 1e-14


def test_reiterate_unbounded_ratio_guard():
    alpha = params.InterpParam(evaluator=lambda r: r)
    beta = params.InterpParam(evaluator=lambda r: np.sqrt(r))
    psi = params.InterpParam(evaluator=lambda r: np.ones_like(r))
    with pytest.raises(UnboundedRatio):
        params.reiterate(alpha, beta, psi)


def test_sandwich_constants_bound_phi():
    phi = params.log_power(1.0)
    c0, c1 = params.sandwich_constants(phi, 0.0, 1.0, 2.0)
    r = np.geomspace(1.0, 1e8, 300)
    vals = phi(r)
    assert np.all(c0 * r**-1.0 <= vals * (1 + 1e-12))
    assert np.all(vals <= c1 * r**1.0 * (1 + 1e-12))


@pytest.mark.parametrize(
    "p",
    [
        params.constant(),
        params.constant(3.5),
        params.log_power(1.0),
        params.log_power(1.0, -0.5),
        params.power_times_slow(0.25, 2.0),
    ],
)
def test_serialization_round_trip(p):
    q = params.param_from_dict(json.loads(json.dumps(params.param_to_dict(p))))
    r = np.geomspace(1.0, 1e8, 50)
    assert np.allclose(p(r), q(r), rtol=1e-15)


@pytest.mark.parametrize("d, error, message", [
    ({"kind": "LogPower", "thet": [1.0]}, UnknownConfigKey, r"LogPower phi: unknown keys \['thet'\]"),
    ({"kind": "Constant", "valeu": 2}, UnknownConfigKey, r"Constant phi: unknown keys \['valeu'\]"),
    ({"kind": "PowerTimesSlow"}, InvalidConfig, r"PowerTimesSlow phi: missing keys \['power'\]"),
    ({"kind": "LogPower", "theta": "ab"}, InvalidConfig, "phi theta: bad value 'ab'"),
], ids=["misspelt-theta", "misspelt-value", "no-power", "theta-string"])
def test_param_from_dict_checks_its_keys(d, error, message):
    # a misspelt key is an error, not phi = 1
    with pytest.raises(error, match=message):
        params.param_from_dict(d)


@pytest.mark.parametrize("d, message", [
    ({"kind": "LogPower", "theta": [True]}, "phi theta: bad value"),
    ({"kind": "Constant", "value": True}, "phi value: bad value"),
    ({"kind": "PowerTimesSlow", "power": True}, "phi power: bad value"),
], ids=["theta", "value", "power"])
def test_param_from_dict_rejects_true_as_a_number(d, message):
    with pytest.raises(InvalidConfig, match=message):
        params.param_from_dict(d)


def test_serialization_schema():
    d = params.param_to_dict(params.log_power(1.0, -0.5))
    assert d == {"kind": "LogPower", "theta": [1.0, -0.5]}


def test_custom_not_serializable():
    with pytest.raises(ValueError):
        params.param_to_dict(params.custom(lambda r: np.ones_like(r)))


def test_custom_params_compare_by_evaluator():
    sqrt, log1p = params.custom(np.sqrt), params.custom(np.log1p)
    assert sqrt != log1p and len({sqrt, log1p}) == 2
    assert sqrt == params.custom(np.sqrt) and hash(sqrt) == hash(params.custom(np.sqrt))
    assert sqrt.describe() != log1p.describe() != params.constant().describe()
    assert sqrt.cache_key() is None and log1p.cache_key() is None


def test_interp_params_compare_by_evaluator():
    sqrt, log1p = params.InterpParam(evaluator=np.sqrt), params.InterpParam(evaluator=np.log1p)
    assert sqrt != log1p and len({sqrt, log1p}) == 2
    assert sqrt == params.InterpParam(evaluator=np.sqrt)
    assert hash(sqrt) == hash(params.InterpParam(evaluator=np.sqrt))
    assert sqrt != params.InterpParam(evaluator=np.sqrt, label="sqrt")


def test_membership_diagnostics_for_family():
    for phi in [params.log_power(t) for t in (-2.0, -0.5, 0.5, 2.0)]:
        for s0, s, s1 in [(0, 1, 2), (-1, 0.5, 3), (2, 2.2, 2.5)]:
            psi = params.build_psi(s0, s, s1, phi)
            assert params.check_interp_membership(psi)["passed"]


def test_pseudoconcavity_diagnostic():
    ok = params.build_psi(0, 1, 2, params.log_power(1.0))
    assert params.check_pseudoconcavity(ok)["looks_pseudoconcave"]
    wiggly = params.InterpParam(evaluator=lambda r: np.exp(np.sin(np.log(r)) * np.log(r) * 0.2) * np.sqrt(r))
    assert not params.check_pseudoconcavity(wiggly)["looks_pseudoconcave"]
