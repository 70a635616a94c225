from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockladder import (DomainError, Family, LimitRoute, abgx, make_channel,
                        noise_limit_params, standard_grid, validate_params)
from fockladder.channel import ChannelParams


def test_lossy_half_half_row():
    # eta=0.5, N=1 => y=0.5: alpha=2/3, beta=1/3, gamma=0, chi=2/3, nu=2/9
    p = abgx(make_channel("lossy", eta=0.5, thermal_N=1.0))
    assert p.alpha == pytest.approx(2 / 3, abs=1e-15)
    assert p.beta == pytest.approx(1 / 3, abs=1e-15)
    assert p.gamma == pytest.approx(0.0, abs=1e-15)
    assert p.chi == pytest.approx(2 / 3, abs=1e-15)
    assert p.nu == pytest.approx(2 / 9, abs=1e-15)


def test_lossless_is_identity():
    p = abgx(make_channel("lossy", eta=1.0, thermal_N=3.7))
    assert (p.alpha, p.beta, p.gamma, p.chi, p.nu) == (0.0, 0.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
def test_additive_noise_nu_closed_form(n):
    # direct algebra on the noise row gives nu = 1/(n+1)^2
    p = abgx(make_channel("noise", added_n=n))
    assert p.alpha == p.beta == pytest.approx(n / (n + 1), abs=1e-15)
    assert p.nu == pytest.approx(1.0 / (n + 1) ** 2, abs=1e-15)


def test_amplifier_nu_nonnegative_at_high_noise():
    # g=2, y=0.9 (N=9): nu = (1-gy)/(g-y) + y(g-1)^2/(g-y)^2 = g(1-y)^2/(g-y)^2
    p = abgx(make_channel("amp", g=2.0, thermal_N=9.0))
    direct = p.gamma + p.beta * p.alpha
    assert p.nu == direct
    assert p.nu == pytest.approx(2.0 * 0.01 / 1.21, abs=1e-15)
    assert p.nu >= 0.0


def test_conjugate_row():
    # g=2, N=1 => y=0.5: alpha=0.75, beta=0.75, gamma=-0.5, chi=0.25
    p = abgx(make_channel("conj", g=2.0, thermal_N=1.0))
    assert p.alpha == pytest.approx(0.75, abs=1e-15)
    assert p.beta == pytest.approx(0.75, abs=1e-15)
    assert p.gamma == pytest.approx(-0.5, abs=1e-15)
    assert p.chi == pytest.approx(0.25, abs=1e-15)
    assert p.nu == pytest.approx(0.0625, abs=1e-15)


def test_domain_errors_name_the_parameter():
    with pytest.raises(DomainError) as err:
        make_channel("amp", g=0.5)
    assert err.value.name == "g"
    with pytest.raises(DomainError) as err:
        make_channel("lossy", eta=1.5, thermal_N=0.0)
    assert err.value.name == "eta"
    with pytest.raises(DomainError):
        make_channel("noise", added_n=-0.1)
    with pytest.raises(DomainError):
        make_channel("banana")


def test_noise_boundary_is_valid_identity():
    spec = make_channel("noise", added_n=0.0)
    p = abgx(spec)
    assert (p.alpha, p.beta, p.gamma, p.chi) == (0.0, 0.0, 1.0, 1.0)


def test_irrelevant_fields_ignored():
    spec = make_channel("lossy", eta=0.5, g=17.0, thermal_N=1.0, added_n=3.0)
    assert spec.g is None and spec.added_n is None


def test_validate_params_passes_for_valid_specs():
    for spec in (make_channel("lossy", eta=0.3, thermal_N=2.0),
                 make_channel("amp", g=5.0, thermal_N=0.5),
                 make_channel("conj", g=1.2, thermal_N=2.0),
                 make_channel("noise", added_n=2.0), *standard_grid()):
        report = validate_params(abgx(spec), spec=spec)
        assert report.ok, report.checks


def test_validate_params_catches_violation():
    bad = ChannelParams(alpha=0.5, beta=0.5, gamma=0.5, chi=0.5, nu=0.75)
    report = validate_params(bad)
    assert not report.ok
    assert not report.checks["alpha+beta+gamma=1"][0]


def test_validate_params_reports_exact_residuals():
    # in binary64, 0.1 + 0.2 + 0.7 - 1 rounds to 0; exactly it is -2**-55
    p = ChannelParams(alpha=0.1, beta=0.2, gamma=0.7, chi=0.8, nu=0.72)
    residual = validate_params(p).checks["alpha+beta+gamma=1"][1]
    assert residual == float(Fraction(0.1) + Fraction(0.2) + Fraction(0.7) - 1)
    assert residual == -2.0 ** -55
    report = validate_params(abgx(make_channel("conj", g=2.0, thermal_N=99.0)))
    assert report.ok
    assert report.checks["alpha+beta+gamma=1"][1] == 0.0
    assert report.checks["beta+chi=1"][1] == 0.0


def _beta_sweep(family):
    """Channels of the family with beta from 0.5 to 0.999."""
    specs = []
    for beta in np.linspace(0.5, 0.999, 40):
        beta = float(beta)
        if family == "lossy":    # beta = y(1-eta)/(1-eta*y), so y > beta
            for y in ((1.0 + beta) / 2, 1.0 - (1.0 - beta) / 10):
                eta = (y - beta) / (y - beta * y)
                specs.append(make_channel(family, eta=eta, thermal_N=y / (1.0 - y)))
        elif family == "amp":    # beta = (g-1)/(g-y)
            for y in (0.0, 0.3, 0.6, 0.9):
                specs.append(make_channel(family, g=(1.0 - beta * y) / (1.0 - beta),
                                          thermal_N=y / (1.0 - y)))
        elif family == "conj":   # beta = 1 - (1-y)/g, so y <= beta
            for y in (0.0, 0.3, 0.5, beta):
                specs.append(make_channel(family, g=(1.0 - y) / (1.0 - beta),
                                          thermal_N=y / (1.0 - y)))
        else:
            specs.append(make_channel(family, added_n=beta / (1.0 - beta)))
    return specs


@pytest.mark.parametrize("family", ["standard", "lossy", "amp", "conj", "noise"])
def test_parameters_are_trace_preserving_to_the_last_bit(family):
    # each row sums to (alpha+gamma)/(1-beta) times the previous one, so the
    # residual over 1-beta is the relative drift of the row sums per row
    specs = standard_grid() if family == "standard" else _beta_sweep(family)
    for spec in specs:
        p = abgx(spec)
        alpha, beta, gamma, chi = map(Fraction, (p.alpha, p.beta, p.gamma, p.chi))
        residual = abs(alpha + beta + gamma - 1)
        assert residual == 0 or residual / (1 - beta) <= Fraction(1e-16), spec.label()
        if p.beta >= 0.5:
            assert beta + chi == 1, spec.label()
        else:
            assert abs(beta + chi - 1) <= Fraction(2) ** -54, spec.label()


def test_conjugate_at_unit_gain_is_flagged():
    spec = make_channel("conj", g=1.0, thermal_N=1.0)
    p = abgx(spec)
    assert p.nu == pytest.approx(0.0, abs=1e-15)
    report = validate_params(p, spec=spec)
    assert report.ok and report.notes


def test_noise_limit_via_loss_close_to_direct_row():
    p = noise_limit_params(1.0, 1e-3, LimitRoute.VIA_LOSS)
    target = abgx(make_channel("noise", added_n=1.0))
    for key in ("alpha", "beta", "gamma", "chi", "nu"):
        assert getattr(p, key) == pytest.approx(getattr(target, key), abs=5e-3)


@pytest.mark.parametrize("route", [LimitRoute.VIA_LOSS, LimitRoute.VIA_AMP])
def test_noise_limit_error_halves_with_eps(route):
    target = abgx(make_channel("noise", added_n=1.0))

    def err(eps):
        p = noise_limit_params(1.0, eps, route)
        return max(abs(getattr(p, k) - getattr(target, k))
                   for k in ("alpha", "beta", "gamma", "chi", "nu"))

    ratio = err(5e-4) / err(1e-3)
    assert 0.4 <= ratio <= 0.6


def test_noise_limit_routes_agree_as_eps_shrinks():
    gap_coarse = gap_fine = 0.0
    for eps, store in ((1e-2, "coarse"), (1e-4, "fine")):
        a = noise_limit_params(2.0, eps, LimitRoute.VIA_LOSS)
        b = noise_limit_params(2.0, eps, LimitRoute.VIA_AMP)
        gap = max(abs(getattr(a, k) - getattr(b, k))
                  for k in ("alpha", "beta", "gamma", "chi", "nu"))
        if store == "coarse":
            gap_coarse = gap
        else:
            gap_fine = gap
    assert gap_fine < gap_coarse / 50


def test_noise_limit_domain():
    with pytest.raises(DomainError):
        noise_limit_params(1.0, 0.0, LimitRoute.VIA_LOSS)
    with pytest.raises(DomainError):
        noise_limit_params(1.0, 1.0, LimitRoute.VIA_AMP)


def test_zero_added_noise_limit_approaches_identity():
    p = noise_limit_params(0.0, 1e-6, LimitRoute.VIA_AMP)
    assert p.alpha == pytest.approx(0.0, abs=1e-5)
    assert p.chi == pytest.approx(1.0, abs=1e-5)


_specs = st.one_of(
    st.builds(lambda e, N: make_channel(Family.LOSSY, eta=e, thermal_N=N),
              st.floats(0.0, 1.0), st.floats(0.0, 50.0)),
    st.builds(lambda g, N: make_channel(Family.AMP, g=g, thermal_N=N),
              st.floats(1.0, 50.0), st.floats(0.0, 50.0)),
    st.builds(lambda g, N: make_channel(Family.CONJ, g=g, thermal_N=N),
              st.floats(1.0, 50.0), st.floats(0.0, 50.0)),
    st.builds(lambda n: make_channel(Family.NOISE, added_n=n),
              st.floats(0.0, 50.0)),
)


@settings(max_examples=300, deadline=None)
@given(_specs)
def test_identities_and_signs_hold_everywhere(spec):
    p = abgx(spec)
    assert abs(p.alpha + p.beta + p.gamma - 1.0) <= 1e-14
    assert abs(p.beta + p.chi - 1.0) <= 1e-14
    assert p.alpha >= -1e-15
    assert -1e-15 <= p.beta < 1.0
    assert p.nu >= -1e-15
    assert p.chi > 1e-15
    assert p.chi <= 1.0 + 1e-15


@settings(max_examples=50, deadline=None)
@given(_specs)
def test_abgx_is_pure(spec):
    assert abgx(spec) == abgx(spec)


@pytest.mark.parametrize("family, kwargs, name", [
    ("lossy", {"eta": 1.0, "thermal_N": 1e17}, "thermal_N"),    # abgx divided by zero
    ("amp", {"g": 1.0, "thermal_N": 1e17}, "thermal_N"),        # abgx divided by zero
    ("lossy", {"eta": 0.5, "thermal_N": 1e17}, "thermal_N"),    # chi = 0
    ("amp", {"g": 1e17}, "g"),
    ("noise", {"added_n": 1e17}, "added_n"),
    ("conj", {"g": 1e17}, "g"),
    ("noise", {"added_n": 1e300}, "added_n"),
], ids=["lossless-N1e17", "amp-g1-N1e17", "lossy-N1e17", "amp-g1e17", "noise-n1e17",
        "conj-g1e17", "noise-n1e300"])
def test_rows_with_unit_beta_are_out_of_domain(family, kwargs, name):
    with pytest.raises(DomainError, match="in binary64") as err:
        make_channel(family, **kwargs)
    assert err.value.name == name


@pytest.mark.parametrize("kwargs", [{"eta": True}, {"eta": "0.5"}, {"eta": 0.5, "thermal_N": None},
                                    {"eta": 0.5, "thermal_N": float("inf")}])
def test_lossy_parameters_must_be_finite_numbers(kwargs):
    if kwargs.get("thermal_N", 0) is None:  # None means the default N = 0
        assert make_channel("lossy", **kwargs).thermal_N == 0.0
        return
    with pytest.raises(DomainError):
        make_channel("lossy", **kwargs)


def test_noise_limit_rejects_unknown_route():
    assert noise_limit_params(1.0, 0.5, "amp") == noise_limit_params(1.0, 0.5, LimitRoute.VIA_AMP)
    with pytest.raises(DomainError, match="route"):
        noise_limit_params(1.0, 0.5, "banana")

