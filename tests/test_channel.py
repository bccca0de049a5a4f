"""Channel samplers against analytic laws and independent oracles."""
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sstats

from thzra import channel
from thzra.errors import DomainError, OutOfRange, ProfileMissing, UnsupportedParams
from thzra.params import (FadingParams, GammaAbsorption, MisalignmentParams,
                          ThzLinkParams)

RNG = lambda s: np.random.default_rng(s)


def make_link(**kw):
    args = dict(f_hz=300e9, d_m=100.0, gain_tx=316227.766, gain_rx=316227.766,
                temperature_k=296.0, humidity_pct=50.0, pressure_hpa=1013.25)
    args.update(kw)
    return ThzLinkParams(**args)


# ---------------------------------------------------------------------------
# Buck saturation pressure
# ---------------------------------------------------------------------------

def test_buck_pinned_value_at_freezing():
    # independent evaluation of the published formula at T_c = 0:
    # 6.1121 * (1.0007 + 3.46e-6 * 1013.25) * exp(0) = 6.1378065...
    expected = 6.1121 * (1.0007 + 3.46e-6 * 1013.25)
    got = channel.buck_saturation_pressure(273.15, 1013.25)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(6.1378, abs=1e-4)


def test_buck_monotone_in_temperature():
    grid = np.linspace(210.0, 340.0, 40)
    vals = [channel.buck_saturation_pressure(t, 1013.25) for t in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_buck_rejects_unphysical_temperature():
    with pytest.raises(OutOfRange):
        channel.buck_saturation_pressure(100.0, 1013.25)
    with pytest.raises(OutOfRange):
        channel.buck_saturation_pressure(400.0, 1013.25)


# ---------------------------------------------------------------------------
# deterministic absorption
# ---------------------------------------------------------------------------

def test_zero_humidity_and_zero_tail_kills_everything():
    prof = channel.load_absorption_profile()
    prof = type(prof)(q=prof.q, p1=prof.p1, p2=prof.p2, c=(0.0, 0.0, 0.0, 0.0))
    link = make_link(humidity_pct=0.0)
    assert channel.absorption_deterministic(link, prof) == 0.0


def test_absorption_continuous_in_humidity():
    prof = channel.load_absorption_profile()
    vals = [channel.absorption_deterministic(make_link(humidity_pct=h), prof)
            for h in np.linspace(0.0, 100.0, 201)]
    diffs = np.abs(np.diff(vals))
    assert np.all(diffs < 5e-5)        # no jumps on a fine grid
    assert vals[-1] > vals[0]


def test_absorption_pinned_against_independent_chain():
    # spreadsheet-style re-evaluation with the shipped coefficients
    link = make_link()
    p_w = 6.1121 * (1.0007 + 3.46e-6 * 1013.25) * math.exp(
        17.502 * (296.0 - 273.15) / (240.97 + (296.0 - 273.15)))
    v = 0.5 * p_w / 1013.25
    wn = 300e9 / (100.0 * 299792458.0)
    y1 = 0.2205 * v * (0.1303 * v + 0.0294) / (
        (0.4093 * v + 0.0925) ** 2 + (wn - 10.835) ** 2)
    y2 = 2.014 * v * (0.1702 * v + 0.0303) / (
        (0.537 * v + 0.0956) ** 2 + (wn - 12.664) ** 2)
    tail = (5.54e-37 * 300e9 ** 3 - 3.94e-25 * 300e9 ** 2
            + 9.06e-14 * 300e9 - 6.36e-3)
    expected = y1 + y2 + tail
    prof = channel.load_absorption_profile()
    got = channel.absorption_deterministic(link, prof)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(5.8268e-4, rel=1e-3)


def test_profile_missing():
    with pytest.raises(ProfileMissing):
        channel.load_absorption_profile("/nonexistent/file.profile")
    with pytest.raises(ProfileMissing):
        channel.absorption_deterministic(make_link(), None)


# ---------------------------------------------------------------------------
# Gamma absorption sampling
# ---------------------------------------------------------------------------

def test_gamma_sampler_mean():
    model = GammaAbsorption(k=1, beta=5)
    draws = channel.sample_absorption_db(model, RNG(1), 1_000_000)
    assert abs(draws.mean() - 5.0) / 5.0 < 0.01
    assert draws.min() >= 0.0


def test_gamma_sampler_variance():
    model = GammaAbsorption(k=2, beta=1)
    draws = channel.sample_absorption_db(model, RNG(2), 1_000_000)
    assert abs(draws.var() - 2.0) / 2.0 < 0.02


def test_gamma_sampler_ks_vs_independent_cdf():
    model = GammaAbsorption(k=2.5, beta=3.0)
    draws = channel.sample_absorption_db(model, RNG(3), 100_000)
    draws.sort()
    # independent oracle: scipy regularized lower incomplete gamma
    cdf = sstats.gamma.cdf(draws, a=model.k, scale=model.beta)
    n = draws.size
    d = max(np.max(np.arange(1, n + 1) / n - cdf),
            np.max(cdf - np.arange(0, n) / n))
    assert d < 0.005


# ---------------------------------------------------------------------------
# path gain
# ---------------------------------------------------------------------------

def test_path_gain_zero_absorption_is_a_l():
    link = make_link()
    assert channel.path_gain_from_absorption(0.0, link) == link.a_l


def test_path_gain_one_neper_point():
    # zeta_dB = 8.686 over 1 km is exactly one amplitude neper
    link = make_link(d_m=1000.0)
    got = channel.path_gain_from_absorption(8.686, link)
    assert got == pytest.approx(link.a_l * math.exp(-1.0), rel=1e-12)


def test_path_gain_strictly_decreasing():
    link = make_link()
    zs = np.linspace(0.0, 200.0, 50)
    hl = channel.path_gain_from_absorption(zs, link)
    assert np.all(np.diff(hl) < 0)


def test_path_gain_pdf_normalizes():
    link = make_link(d_m=1000.0)
    model = GammaAbsorption(k=2, beta=8.686 / 3.0)   # z = 3
    assert model.z_for(link) == pytest.approx(3.0)
    total, err = integrate.quad(
        lambda x: channel.path_gain_pdf(x, model, link), 0.0, link.a_l,
        limit=300)
    assert abs(total - 1.0) < 1e-6


def test_path_gain_density_vanishes_at_a_l_for_k_gt_1():
    link = make_link()
    model = GammaAbsorption(k=2, beta=10.0)
    assert channel.path_gain_pdf(link.a_l, model, link) == 0.0
    with pytest.raises(DomainError):
        channel.path_gain_pdf(link.a_l * 1.001, model, link)
    with pytest.raises(DomainError):
        channel.path_gain_pdf(0.0, model, link)


def test_path_gain_ks_vs_analytic_cdf():
    link = make_link()
    model = GammaAbsorption(k=3, beta=10.0)
    hl = np.sort(channel.sample_path_gain(model, link, RNG(14), 100_000))
    f = channel.path_gain_cdf(hl, model, link)
    n = hl.size
    d = max(np.max(np.arange(1, n + 1) / n - f),
            np.max(f - np.arange(0, n) / n))
    assert d < 1.36 / math.sqrt(n)


def test_path_gain_cdf_shape_one_is_power_law():
    # k = 1: ln(a_l/h) ~ Exp(z), so P(h_l <= h) = (h/a_l)^z; arrays are
    # evaluated whole, scalars come back as floats, h = a_l gives 1
    link = make_link()
    model = GammaAbsorption(k=1, beta=10.0)
    z = model.z_for(link)
    h = link.a_l * np.array([1e-6, 0.01, 0.3, 0.9, 1.0])
    f = channel.path_gain_cdf(h, model, link)
    np.testing.assert_allclose(f, (h / link.a_l) ** z, rtol=1e-13, atol=0.0)
    assert isinstance(channel.path_gain_cdf(float(h[2]), model, link), float)
    assert channel.path_gain_cdf(link.a_l, model, link) == 1.0
    with pytest.raises(DomainError):
        channel.path_gain_cdf(h * 1.001, model, link)


def test_path_gain_histogram_matches_density():
    # chi-square with equal-probability edges from the exact Gamma transform:
    # ln(a_l/h) ~ Gamma(k, 1/z), so quantiles come from an independent ppf
    link = make_link()
    model = GammaAbsorption(k=3, beta=10.0)
    z = model.z_for(link)
    n = 100_000
    hl = channel.sample_path_gain(model, link, RNG(4), n)
    n_bins = 40
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    t_edges = sstats.gamma.ppf(1.0 - qs, a=model.k, scale=1.0 / z)
    edges = np.concatenate([[0.0], link.a_l * np.exp(-t_edges), [link.a_l]])
    counts, _ = np.histogram(hl, bins=edges)
    expected = n / n_bins
    stat = float(np.sum((counts - expected) ** 2 / expected))
    p = float(sstats.chi2.sf(stat, df=n_bins - 1))
    assert p > 0.01


# ---------------------------------------------------------------------------
# misalignment
# ---------------------------------------------------------------------------

def test_misalignment_cdf_endpoints():
    assert channel.misalignment_cdf(1.0, 4.0) == pytest.approx(1.0)
    assert channel.misalignment_cdf(1e-12, 4.0) < 1e-8


def test_misalignment_cdf_closed_point():
    # x = e^{-1/rho}: x^rho (1 - rho ln x) = e^{-1} * 2 = 2/e
    for rho in (0.7, 2.0, 4.0, 6.3):
        got = channel.misalignment_cdf(math.exp(-1.0 / rho), rho)
        assert got == pytest.approx(2.0 / math.e, rel=1e-12)


def test_misalignment_cdf_matches_pdf_by_fd():
    rho = 3.7
    for x in np.linspace(0.05, 0.95, 19):
        h = 1e-7
        fd = (channel.misalignment_cdf(x + h, rho)
              - channel.misalignment_cdf(x - h, rho)) / (2 * h)
        pdf = channel.misalignment_pdf(x, rho)
        assert abs(fd - pdf) / pdf < 1e-6


def test_misalignment_domain():
    with pytest.raises(DomainError):
        channel.misalignment_cdf(0.0, 2.0)
    with pytest.raises(DomainError):
        channel.misalignment_cdf(1.5, 2.0)


def test_misalignment_sampler_exact_law():
    rho = 4.0
    hp = channel.sample_misalignment(rho, RNG(5), 100_000)
    assert hp.min() > 0.0 and hp.max() < 1.0
    hp.sort()
    f = channel.misalignment_cdf(hp, rho)
    n = hp.size
    d = max(np.max(np.arange(1, n + 1) / n - f),
            np.max(f - np.arange(0, n) / n))
    assert d < 1.36 / math.sqrt(n)


# ---------------------------------------------------------------------------
# fading
# ---------------------------------------------------------------------------

def test_fading_rayleigh_second_moment():
    fp = FadingParams(alpha=2.0, eta=1.0, kappa=0.0, mu=1, r_hat=1.0)
    hf = channel.sample_fading(fp, RNG(6), 1_000_000)
    assert abs(np.mean(hf ** 2) - 1.0) < 0.01


def test_fading_alpha_mu_reduction_is_gamma():
    fp = FadingParams(alpha=3.5, eta=1.0, kappa=0.0, mu=3, r_hat=1.3)
    hf = channel.sample_fading(fp, RNG(7), 100_000)
    y = np.sort((hf / fp.r_hat) ** fp.alpha * fp.mu)
    f = sstats.gamma.cdf(y, a=fp.mu, scale=1.0)   # independent oracle
    n = y.size
    d = max(np.max(np.arange(1, n + 1) / n - f),
            np.max(f - np.arange(0, n) / n))
    assert d < 0.005


def test_fading_normalization_across_parameter_grid():
    cases = [
        dict(alpha=2.0, eta=1.0, kappa=0.0, mu=1),
        dict(alpha=1.2, eta=0.5, kappa=1.0, mu=2),
        dict(alpha=3.0, eta=2.0, kappa=0.4, mu=4),
        dict(alpha=2.5, eta=1.0, kappa=0.0, mu=2.5),   # gamma route
    ]
    for i, kw in enumerate(cases):
        fp = FadingParams(r_hat=1.7, **kw)
        hf = channel.sample_fading(fp, RNG(80 + i), 400_000)
        moment = np.mean((hf / fp.r_hat) ** fp.alpha)
        assert abs(moment - 1.0) < 0.01, kw


def test_fading_rejects_what_it_cannot_sample_exactly():
    # a non-integer mu outside alpha-mu cannot even be built
    with pytest.raises(OutOfRange):
        FadingParams(mu=1.5, eta=2.0)
    with pytest.raises(OutOfRange):
        FadingParams(mu=1.5, kappa=0.5)
    with pytest.raises(UnsupportedParams):
        channel.sample_fading(FadingParams(enabled=False), RNG(0), 10)


def test_fading_noninteger_mu_gamma_route():
    fp = FadingParams(alpha=1.0, eta=1.0, kappa=0.0, mu=1.5)
    hf = channel.sample_fading(fp, RNG(9), 100_000)
    y = np.sort(hf * fp.mu)       # alpha=1: h_f * mu ~ Gamma(mu)
    f = sstats.gamma.cdf(y, a=1.5)
    n = y.size
    d = max(np.max(np.arange(1, n + 1) / n - f),
            np.max(f - np.arange(0, n) / n))
    assert d < 1.36 / math.sqrt(n)


# ---------------------------------------------------------------------------
# numpy incomplete gamma and the alpha-mu CDF
# ---------------------------------------------------------------------------

def gammainc_oracle(a, xs):
    with mpmath.workdps(30):
        return np.array([float(mpmath.gammainc(a, 0, mpmath.mpf(float(x)),
                                               regularized=True)) for x in xs])


@pytest.mark.parametrize("a,tol", [
    (0.25, 1e-14), (0.5, 1e-14), (1.0, 1e-14), (1.5, 1e-14), (2.5, 1e-14),
    (4.0, 1e-14), (7.3, 1e-14), (20.0, 1e-14),
    (150.0, 1e-11),             # beyond a = 100 the prefactor goes by logs
])
def test_gammainc_matches_mpmath(a, tol):
    xs = list(np.geomspace(1e-30, a + 60.0, 120))
    for edge in (1.0, a + 1.0):     # series / fraction branch edges
        xs += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
    xs = np.array(xs)
    p = channel.gammainc(a, xs)
    ref = gammainc_oracle(a, xs)
    err = np.abs(p - ref)
    assert np.max(err) <= tol
    tiny = ref <= 1e-300
    assert np.all(err[~tiny] <= tol * ref[~tiny])


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.5, 3.0, 24.5, 100.0])
def test_gammaincc_matches_mpmath(a):
    # Q itself, down to 1e-300: a deep tail must not cancel in 1 - P, and
    # its exponent (about -700 at the far end) must not lose digits
    xs = list(np.geomspace(1e-20, a + 700.0, 150))
    xs += list(np.linspace(a + 1.0, a + 700.0, 150))      # the fraction
    xs += [np.nextafter(a + 1.0, 0.0), np.nextafter(a + 1.0, np.inf)]
    xs = np.array(xs)
    q = channel.gammaincc(a, xs)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.gammainc(a, mpmath.mpf(float(x)),
                                              mpmath.inf, regularized=True))
                        for x in xs])
    live = ref > 1e-300
    assert np.all(np.abs(q[live] - ref[live]) <= 1e-13 * ref[live])
    assert np.all(q[~live] <= 1e-299)
    assert channel.gammaincc(a, 0.0) == 1.0
    assert channel.gammaincc(a, math.inf) == 0.0


def test_gammainc_endpoints_and_shapes():
    assert channel.gammainc(2.5, 0.0) == 0.0
    assert channel.gammainc(2.5, math.inf) == 1.0
    assert channel.gammainc(0.3, math.inf) == 1.0
    x = np.array([[0.0, 0.5], [3.0, np.inf]])
    p = channel.gammainc(1.0, x)
    assert p.shape == (2, 2)
    np.testing.assert_allclose(p, 1.0 - np.exp(-x), rtol=1e-15, atol=0)
    assert isinstance(channel.gammainc(1.0, 0.5), float)


def test_alpha_mu_cdf_is_gamma_law():
    fp = FadingParams(alpha=3.5, mu=2.5, r_hat=1.3)
    u = np.geomspace(1e-3, 3.0, 40)
    ref = sstats.gamma.cdf(fp.mu * (u / fp.r_hat) ** fp.alpha, a=fp.mu)
    np.testing.assert_allclose(channel.alpha_mu_cdf(u, fp), ref,
                               rtol=1e-12, atol=1e-15)
    assert channel.alpha_mu_cdf(0.9, fp) == channel.alpha_mu_cdf(
        np.array([0.9]), fp)[0]
    with pytest.raises(UnsupportedParams):
        channel.alpha_mu_cdf(u, FadingParams(mu=2, kappa=0.5))


# ---------------------------------------------------------------------------
# composite draw
# ---------------------------------------------------------------------------

def make_experiment(**kw):
    from thzra.params import Experiment, ProtocolConfig
    link = kw.pop("link", make_link(k_t=0.1, k_r=0.1, avg_snr=10 ** 4.5))
    absorption = kw.pop("absorption", GammaAbsorption(k=3, beta=10.0))
    fading = kw.pop("fading", FadingParams())
    mis = kw.pop("misalignment", MisalignmentParams(rho=4.0))
    return Experiment(link=link, absorption=absorption, fading=fading,
                      misalignment=mis, protocol=ProtocolConfig())


def test_snr_formula_and_ceiling():
    exp = make_experiment()
    k_h, gbar = exp.link.k_h, exp.link.avg_snr
    h_l = channel.sample_path_gain(exp.absorption, exp.link, RNG(10), 200)
    h_f = channel.sample_fading(exp.fading, RNG(20), 200)
    h_p = channel.sample_misalignment(exp.misalignment.rho, RNG(30), 200)
    h = h_l * h_f * h_p
    gamma = channel.draw_snr_batch(exp, 200, RNG(10), RNG(20), RNG(30))
    np.testing.assert_allclose(
        gamma, gbar * h ** 2 / (k_h ** 2 * gbar * h ** 2 + 1.0), rtol=1e-14)
    assert np.all(gamma < 1.0 / k_h ** 2)
    assert np.all((0.0 < h_p) & (h_p < 1.0))
    assert np.all((0.0 < h_l) & (h_l <= exp.link.a_l))


def test_ideal_front_end_snr():
    link = make_link(k_t=0.0, k_r=0.0, avg_snr=100.0)
    assert channel.snr_from_gain(0.3, link.avg_snr, link.k_h) == \
        pytest.approx(100.0 * 0.09, rel=1e-15)
    assert channel.snr_from_gain(0.0, 100.0, 0.1) == 0.0


def test_snr_saturates_at_ceiling():
    # gamma -> 1/k_h^2 as avg_snr -> inf
    assert channel.snr_from_gain(1.0, 1e18, 0.2) == pytest.approx(25.0, rel=1e-9)


def test_composition_associativity():
    rng = RNG(42)
    for _ in range(1000):
        hl, hf, hp = rng.random(3)
        a = (hl * hf) * hp
        b = hl * (hf * hp)
        assert a == pytest.approx(b, rel=4e-16)


def test_deterministic_absorption_channel_draw():
    prof = channel.load_absorption_profile()
    exp = make_experiment(absorption=prof)
    zeta = channel.absorption_deterministic(exp.link, prof)
    h_l = exp.link.a_l * math.exp(-0.5 * zeta * exp.link.d_m)
    h_f = channel.sample_fading(exp.fading, RNG(2), 50)
    h_p = channel.sample_misalignment(exp.misalignment.rho, RNG(3), 50)
    gamma = channel.draw_snr_batch(exp, 50, RNG(1), RNG(2), RNG(3))
    np.testing.assert_allclose(gamma, channel.snr_from_gain(
        h_l * h_f * h_p, exp.link.avg_snr, exp.link.k_h), rtol=1e-12)


def test_fading_disabled_gives_unit_envelope():
    exp = make_experiment(fading=FadingParams(enabled=False))
    h_l = channel.sample_path_gain(exp.absorption, exp.link, RNG(1), 50)
    h_p = channel.sample_misalignment(exp.misalignment.rho, RNG(3), 50)
    gamma = channel.draw_snr_batch(exp, 50, RNG(1), RNG(2), RNG(3))
    np.testing.assert_array_equal(gamma, channel.snr_from_gain(
        h_l * h_p, exp.link.avg_snr, exp.link.k_h))


def test_mc_cdf_matches_no_fading_closed_form():
    # fading off: empirical CDF of gamma vs the closed form, 3 binomial SE
    from thzra import analytics
    exp = make_experiment(fading=FadingParams(enabled=False))
    n = 200_000
    g = channel.draw_snr_batch(exp, n, RNG(11), RNG(12), RNG(13))
    for gamma_th in (0.5, 3.16, 10.0, 31.6):
        q = analytics.OutageQuery(gamma_th=gamma_th, gamma_bar=exp.link.avg_snr,
                                  k_h=exp.link.k_h)
        p = analytics.cdf_snr_no_fading(q, exp.absorption,
                                        exp.misalignment.rho, exp.link)
        phat = float(np.mean(g < gamma_th))
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(phat - p) <= 3 * se, (gamma_th, phat, p)
