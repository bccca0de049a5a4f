"""Closed forms against quadrature, finite-difference, and Monte Carlo oracles."""
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from thzra import analytics, channel
from thzra.errors import DomainError, NonIntegerShape
from thzra.params import GammaAbsorption, ThzLinkParams

EULER = analytics.EULER_GAMMA


def make_link(**kw):
    args = dict(f_hz=300e9, d_m=100.0, gain_tx=316227.766, gain_rx=316227.766,
                k_t=0.1, k_r=0.1, avg_snr=10 ** 4.5)
    args.update(kw)
    return ThzLinkParams(**args)


# ---------------------------------------------------------------------------
# no-fading SNR law
# ---------------------------------------------------------------------------

def mp_gain_law(y, k, z, rho, a_l):
    """Independent construction oracle, (CDF, density) of h_l * h_p at y by
    40-digit quadrature.  h_l * h_p = a_l e^{-(T+W)} with T = ln(a_l/h_l) ~
    Gamma(k, 1/z) and W = -ln h_p, whose tail (1 + rho w) e^{-rho w} and
    density rho^2 w e^{-rho w} are the misalignment CDF x^rho (1 - rho ln x)
    and density at x = e^{-w}.  Integrate over T = uL up to L = ln(a_l/y),
    beyond which the CDF takes the whole Gamma tail; the factors
    (zL)^k e^{-rho L} / (k-1)! stay outside, because quad's tolerance is
    absolute and the density can be 1e-30.  For a large k the integrand
    u^{k-1} e^{-(z-rho) L u} is itself a narrow peak of height 1e-48 or
    less at u* = (k-1)/((z-rho) L): the interval is split there, and the
    integrand is divided by its peak value, or quad stops at once on a
    wrong answer (0.2842 for 0.36351 at k = 40)."""
    with mpmath.workdps(40):
        y, z, rho, a_l = (mpmath.mpf(v) for v in (y, z, rho, a_l))
        L = mpmath.log(a_l / y)
        scale = (z * L) ** k * mpmath.exp(-rho * L) / mpmath.factorial(k - 1)

        def t_then_w(u):     # L f_T(uL) e^{-rho w} at w = (1-u)L, over scale
            return u ** (k - 1) * mpmath.exp(-(z - rho) * L * u)

        nodes = [mpmath.mpf(0), mpmath.mpf(1)]
        if z != rho and 0 < (k - 1) / ((z - rho) * L) < 1:
            nodes.insert(1, (k - 1) / ((z - rho) * L))
        peak = max(t_then_w(u) for u in nodes)      # unimodal on [0, 1]
        scale *= peak
        tail = mpmath.gammainc(k, z * L, mpmath.inf, regularized=True)
        cdf = tail + scale * mpmath.quad(
            lambda u: t_then_w(u) / peak * (1 + rho * L * (1 - u)), nodes)
        pdf = scale * rho ** 2 * L / y * mpmath.quad(
            lambda u: t_then_w(u) / peak * (1 - u), nodes)
        return float(cdf), float(pdf)


def assert_gain_law(y, k, z, rho, a_l):
    """CDF within 1e-13 absolute, density within 1e-12 relative of mpmath."""
    cdf, pdf = mp_gain_law(y, k, z, rho, a_l)
    args = (y, k, z, rho, a_l)
    assert abs(analytics.composite_gain_cdf(*args) - cdf) <= 1e-13, args
    assert analytics.composite_gain_pdf(*args) == \
        pytest.approx(pdf, rel=1e-12, abs=0), args


@pytest.mark.parametrize("k,z,rho", [(3, 8.686, 4.0), (2, 3.0, 4.0),
                                     (1, 10.0, 2.0), (4, 2.0, 6.0)])
def test_gain_cdf_matches_construction_quadrature(k, z, rho):
    for frac in (0.999, 0.9, 0.5, 0.1, 0.01):
        assert_gain_law(0.25 * frac, k, z, rho, 0.25)


@pytest.mark.parametrize("k", range(1, 9))
def test_gain_law_near_z_equals_rho(k):
    # z - rho = s down to 1e-8 either side: the (z/s)^k partial-sum form
    # cancels catastrophically here (k = 6, s = 1e-3 gave 0.648 for 0.885)
    for rho in (0.5, 4.0):
        for s in [0.0] + [sign * 10.0 ** -e for e in range(1, 9) for sign in (1, -1)]:
            for frac in (0.999, 0.3, 1e-6):
                assert_gain_law(0.25 * frac, k, rho + s, rho, 0.25)


@pytest.mark.parametrize("k,z,rho,frac", [(2, 1.0, 800.0, 1e-6),
                                          (3, 2.0, 300.0, 1e-4)])
def test_gain_law_with_rates_far_apart(k, z, rho, frac):
    # |z - rho| L in the thousands: e^{|s| L} overflows unless the Kummer
    # transformation keeps the hypergeometric argument non-positive
    assert math.isfinite(analytics.composite_gain_cdf(frac, k, z, rho, 1.0))
    assert math.isfinite(analytics.composite_gain_pdf(frac, k, z, rho, 1.0))
    assert_gain_law(frac, k, z, rho, 1.0)


@pytest.mark.parametrize("z,rho", [(10.0, 4.0), (0.5, 6.5)],
                         ids=["z_above_rho", "z_below_rho"])
@pytest.mark.parametrize("L", [11.0, 12.5], ids=["series", "asymptotic"])
def test_gain_law_either_side_of_kummer_switch(z, rho, L):
    # k = 3: |z - rho| L = 66 sums the Poisson-weighted series for both
    # Kummer terms (b = 4, 5 switch at 60 + 2b = 68, 70); 75 takes the
    # terminating asymptotic sum for both
    assert_gain_law(math.exp(-L), 3, z, rho, 1.0)


@pytest.mark.parametrize("k", [40, 150])
def test_gain_law_at_large_shape(k):
    # configs/default.cfg's mean absorption, 30 dB/km, split over shape k;
    # at k = 150, zL is 386 to 1386, so (zL)^k leaves the double range and
    # the law is carried as a logarithm
    link = make_link()
    z = GammaAbsorption(k=k, beta=30.0 / k).z_for(link)
    for db in (25.0, 35.0, 45.0):
        q = analytics.OutageQuery(10 ** 0.5, 10 ** (db / 10), link.k_h)
        assert_gain_law(q.gamma_h, k, z, 4.0, link.a_l)


@pytest.mark.parametrize("b", [2, 3, 5, 10, 30])
def test_poisson_kummer_matches_mpmath(b):
    # W(a, b, x) = e^-x M(a, b, x) for the a the gain law asks for (1, 2,
    # b - 2, b - 1), on both sides of the series/asymptotic switch
    switch = 60.0 + 2.0 * b
    xs = [0.0, 1e-8, 1.0, 10.0, 30.0, 60.0, 61.0, switch,
          np.nextafter(switch, np.inf), 1.5 * switch, 1e4]
    for a in sorted({1, 2, b - 2, b - 1} & set(range(1, b))):
        for x in xs:
            with mpmath.workdps(30):
                ref = float(mpmath.exp(-x) * mpmath.hyp1f1(a, b, x))
            got = analytics._poisson_kummer(a, b, x)
            assert got == pytest.approx(ref, rel=1e-14, abs=1e-300), (a, x)


def test_poisson_kummer_where_exp_minus_x_underflows():
    # from b = 325 on the series serves x past 708, where e^-x is
    # subnormal (0 past 745): an absorption shape k above 324 with z < rho
    points = [(400, 401, 800.0), (400, 401, 740.0), (345, 346, 720.0)]
    for b in (346, 401):
        switch = 60.0 + 2.0 * b
        points += [(a, b, x) for a in (1, 2, b - 1)
                   for x in (switch - 0.5, switch, np.nextafter(switch, np.inf),
                             switch + 0.5)]
    for a, b, x in points:
        with mpmath.workdps(40):
            ref = float(mpmath.exp(-x) * mpmath.hyp1f1(a, b, x))
        assert ref > np.finfo(float).tiny     # a normal double
        got = analytics._poisson_kummer(a, b, x)
        assert got == pytest.approx(ref, rel=1e-13), (a, b, x)


def test_gain_pdf_integrates_to_one():
    for k, z, rho in [(3, 8.686, 4.0), (4, 2.0, 6.0)]:
        total, _ = integrate.quad(
            lambda x: analytics.composite_gain_pdf(x, k, z, rho, 0.25),
            0.0, 0.25, limit=400)
        assert abs(total - 1.0) < 1e-6


def test_snr_cdf_pdf_finite_difference_consistency():
    link = make_link()
    model = GammaAbsorption(k=3, beta=10.0)
    rho = 4.0
    gmax = channel.snr_from_gain(link.a_l, link.avg_snr, link.k_h)  # h = a_l
    for g in np.linspace(0.05, 0.95, 20) * min(gmax, 40.0):
        h = 1e-5 * g
        lo = analytics.cdf_snr_no_fading(
            analytics.OutageQuery(g - h, link.avg_snr, link.k_h), model, rho, link)
        hi = analytics.cdf_snr_no_fading(
            analytics.OutageQuery(g + h, link.avg_snr, link.k_h), model, rho, link)
        fd = (hi - lo) / (2 * h)
        pdf = analytics.pdf_snr_no_fading(
            analytics.OutageQuery(g, link.avg_snr, link.k_h), model, rho, link)
        assert pdf >= 0.0
        assert fd == pytest.approx(pdf, rel=1e-5), g


def test_snr_pdf_integrates_to_one():
    link = make_link()
    model = GammaAbsorption(k=3, beta=10.0)
    rho = 4.0
    gmax = channel.snr_from_gain(link.a_l, link.avg_snr, link.k_h)  # h = a_l
    total, _ = integrate.quad(
        lambda g: analytics.pdf_snr_no_fading(
            analytics.OutageQuery(g, link.avg_snr, link.k_h), model, rho, link),
        0.0, gmax, limit=500)
    assert abs(total - 1.0) < 1e-4


def test_snr_cdf_limits():
    link = make_link()
    model = GammaAbsorption(k=3, beta=10.0)
    q0 = analytics.OutageQuery(gamma_th=1e-30, gamma_bar=link.avg_snr, k_h=link.k_h)
    assert analytics.cdf_snr_no_fading(q0, model, 4.0, link) < 1e-12
    ideal = make_link(k_t=0.0, k_r=0.0)
    qinf = analytics.OutageQuery(gamma_th=3.16, gamma_bar=1e30, k_h=0.0)
    assert analytics.cdf_snr_no_fading(qinf, model, 4.0, ideal) < 1e-12


def test_z_equals_rho_exact_value():
    # at z = rho, -ln(h_l h_p / a_l) is the sum of Gamma(k, 1/z) and
    # Gamma(2, 1/z), i.e. Gamma(k + 2, 1/z): F = Q(k + 2, zL)
    link = make_link(d_m=1000.0)
    for k in range(1, 9):
        model = GammaAbsorption(k=k, beta=8.686 / 4.0)   # z = 4.0 exactly
        assert model.z_for(link) == 4.0
        for gamma_th in (0.01, 1.0, 10.0):
            q = analytics.OutageQuery(gamma_th, link.avg_snr, link.k_h)
            with mpmath.workdps(30):
                zl = 4 * mpmath.log(mpmath.mpf(link.a_l) / mpmath.mpf(q.gamma_h))
                cdf = mpmath.gammainc(k + 2, zl, mpmath.inf, regularized=True)
                pdf = (4 * zl ** (k + 1) * mpmath.exp(-zl) / mpmath.factorial(k + 1)
                       / mpmath.mpf(q.gamma_h))
            assert abs(analytics.cdf_snr_no_fading(q, model, 4.0, link)
                       - float(cdf)) <= 1e-13
            assert analytics.composite_gain_pdf(q.gamma_h, k, 4.0, 4.0, link.a_l) \
                == pytest.approx(float(pdf), rel=1e-12, abs=0)


def test_ceiling_outage_flagged_probability_one():
    link = make_link()          # k_h^2 = 0.02, ceiling = 50
    model = GammaAbsorption(k=3, beta=10.0)
    q = analytics.OutageQuery(gamma_th=60.0, gamma_bar=link.avg_snr, k_h=link.k_h)
    assert q.above_ceiling
    assert analytics.cdf_snr_no_fading(q, model, 4.0, link) == 1.0


def test_non_integer_shape_rejected_by_closed_form():
    link = make_link()
    model = GammaAbsorption(k=2.5, beta=10.0)
    q = analytics.OutageQuery(gamma_th=1.0, gamma_bar=link.avg_snr, k_h=link.k_h)
    with pytest.raises(NonIntegerShape):
        analytics.cdf_snr_no_fading(q, model, 4.0, link)


def test_snr_cdf_monotone_in_threshold_and_avg_snr():
    link = make_link()
    model = GammaAbsorption(k=3, beta=10.0)
    cdfs = [analytics.cdf_snr_no_fading(
        analytics.OutageQuery(g, link.avg_snr, link.k_h), model, 4.0, link)
        for g in np.linspace(0.01, 45.0, 60)]
    assert all(b >= a - 1e-12 for a, b in zip(cdfs, cdfs[1:]))
    outs = [analytics.cdf_snr_no_fading(
        analytics.OutageQuery(3.16, 10 ** (db / 10.0), link.k_h), model, 4.0, link)
        for db in np.linspace(20.0, 60.0, 40)]
    assert all(b <= a + 1e-12 for a, b in zip(outs, outs[1:]))


@pytest.mark.parametrize("beta", [10.0, 1.0])
def test_snr_cdf_vs_monte_carlo(beta):
    # beta=1 puts z = 86.86 (absorption nearly transparent over 100 m);
    # beta=10 gives z = 8.686 (absorption-shaped tail)
    from thzra.params import (Experiment, FadingParams, MisalignmentParams,
                              ProtocolConfig)
    link = make_link()
    model = GammaAbsorption(k=3, beta=beta)
    exp = Experiment(link=link, absorption=model,
                     fading=FadingParams(enabled=False),
                     misalignment=MisalignmentParams(rho=4.0),
                     protocol=ProtocolConfig())
    n = 300_000
    rng = np.random.default_rng(77)
    g = channel.draw_snr_batch(exp, n, rng, rng, rng)
    for gamma_th in (1.0, 3.16, 10.0):
        q = analytics.OutageQuery(gamma_th, link.avg_snr, link.k_h)
        p = analytics.cdf_snr_no_fading(q, model, 4.0, link)
        phat = float(np.mean(g < gamma_th))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(phat - p) <= 3 * se


def test_diversity_order():
    do = analytics.diversity_order(alpha=2, mu=1, rho=4, z=10)
    assert do.exponents == (1.0, 2.0, 5.0)
    assert do.effective == 1.0
    # min is invariant under relabeling of the exponent set
    assert min(do.exponents) == min(do.exponents[::-1])
    do2 = analytics.diversity_order(alpha=4, mu=1, rho=2, z=10)
    assert do2.effective == 1.0
    with pytest.raises(DomainError):
        analytics.diversity_order(0, 1, 1, 1)


# ---------------------------------------------------------------------------
# delay series
# ---------------------------------------------------------------------------

def mp_delay_exact(K, p):
    with mpmath.workdps(50):
        return float(sum(1 / (k * p * (1 - p) ** (k - 1))
                         for k in range(1, K + 1)))


def test_delay_exact_hand_values():
    assert analytics.expected_delay_exact(1, 1.0) == 1.0
    assert analytics.expected_delay_exact(2, 0.5) == pytest.approx(4.0, rel=1e-14)
    assert analytics.expected_delay_exact(2, 1.0) == math.inf


def test_delay_exact_vs_high_precision():
    for K, p in [(10, 0.1), (17, 0.3), (40, 1 / 40)]:
        assert analytics.expected_delay_exact(K, p) == \
            pytest.approx(mp_delay_exact(K, mpmath.mpf(p)), rel=1e-12)


def test_delay_ftp_values():
    assert analytics.delay_ftp(1) == 1.0
    assert analytics.delay_ftp(2) == pytest.approx(4.0, rel=1e-12)
    # frozen from two independent evaluations (high-precision sum and
    # the staged-geometric simulator)
    assert analytics.delay_ftp(10) == pytest.approx(39.434865850444385, rel=1e-12)


def test_delay_ftp_identity_with_exact_series():
    for K in range(2, 201):
        a = analytics.delay_ftp(K)
        b = analytics.expected_delay_exact(K, 1.0 / K)
        assert abs(a - b) / b < 1e-12


def test_delay_atp_values():
    assert analytics.delay_atp(1) == 1.0
    assert analytics.delay_atp(2) == pytest.approx(3.0, rel=1e-14)
    assert analytics.delay_atp(10) == pytest.approx(22.765181994816743, rel=1e-12)
    # FTP needs about 1.7-1.8x the ATP slots at K=10
    ratio = analytics.delay_ftp(10) / analytics.delay_atp(10)
    assert 1.6 < ratio < 2.0


def test_delay_atp_prefix_matches_scalar():
    pre = analytics.delay_atp_prefix(50)
    for K in (1, 2, 7, 50):
        assert pre[K - 1] == pytest.approx(analytics.delay_atp(K), rel=1e-14)


def test_delay_bounds_ftp_at_ten():
    lo, hi = analytics.delay_bounds_ftp(10)
    assert lo == pytest.approx(9 * (math.log(10) + 1 / 21 + EULER + 1), rel=1e-12)
    assert hi == pytest.approx(9 * (math.log(10) + 1 / 90 + 10 / 9 * math.e + 1),
                               rel=1e-12)
    assert lo == pytest.approx(35.3, abs=0.05)
    assert hi == pytest.approx(57.0, abs=0.05)
    assert lo < analytics.delay_ftp(10) < hi


def test_delay_bounds_ftp_ordering_sweep():
    for K in list(range(3, 200)) + [1000, 10000]:
        lo, hi = analytics.delay_bounds_ftp(K)
        assert lo < hi


def test_ftp_over_klogk_bounded():
    for K in (10, 100, 1000, 10000):
        ratio = analytics.delay_ftp(K) / (K * math.log(K))
        assert 0.5 < ratio < 3.0


def test_delay_bounds_atp():
    lo, hi = analytics.delay_bounds_atp(40)
    assert hi == pytest.approx(40 * math.e, rel=1e-14)
    assert hi == pytest.approx(108.73, abs=0.005)
    for K in list(range(2, 100)) + [1000, 10000]:
        lo, hi = analytics.delay_bounds_atp(K)
        d = analytics.delay_atp(K)
        assert lo <= d <= hi
    assert analytics.delay_atp(1000) / 1000 == pytest.approx(math.e, rel=0.05)


# ---------------------------------------------------------------------------
# energy series
# ---------------------------------------------------------------------------

def test_collisions_given_failure():
    assert analytics.expected_collisions_given_failure(2, 1.0) == pytest.approx(2.0)
    assert analytics.expected_collisions_given_failure(1, 0.37) == 0.0
    assert analytics.expected_collisions_given_failure(3, 1 / 3) == \
        pytest.approx(1.0 - (2 / 3) ** 2, rel=1e-14)


def test_collisions_monte_carlo_oracle():
    # mean colliding-packet count per slot (success slots contribute zero)
    rng = np.random.default_rng(5)
    k, p = 3, 1 / 3
    m = rng.binomial(k, p, size=1_000_000)
    sim = np.where(m == 1, 0, m).mean()
    assert analytics.expected_collisions_given_failure(k, p) == \
        pytest.approx(sim, rel=0.02)


def test_attempts_between_successes():
    assert analytics.expected_attempts_between_successes(1, 1.0) == 1.0
    assert analytics.expected_attempts_between_successes(2, 0.5) == \
        pytest.approx(2.0, rel=1e-14)
    assert analytics.expected_attempts_between_successes(2, 0.0) == math.inf


def test_attempts_monte_carlo_oracle():
    rng = np.random.default_rng(6)
    k, p = 4, 0.2
    ps = k * p * (1 - p) ** (k - 1)
    gaps = rng.geometric(ps, size=500_000)
    assert analytics.expected_attempts_between_successes(k, p) == \
        pytest.approx(gaps.mean(), rel=0.02)


def test_energy_exact_hand_values():
    assert analytics.energy_exact(1, 1.0) == 1.0
    assert analytics.energy_exact(2, 0.5) == pytest.approx(3.0, rel=1e-14)
    assert analytics.energy_exact(2, 1.0) == math.inf


def test_energy_ftp_values_and_identity():
    assert analytics.energy_ftp(2) == pytest.approx(3.0, rel=1e-12)
    assert analytics.energy_ftp(40) == pytest.approx(68.36926473868415, rel=1e-12)
    for K in range(2, 201):
        series = analytics.energy_ftp(K)
        assert abs(series - analytics.energy_exact(K, 1.0 / K)) / series < 1e-12


def test_energy_ftp_vs_high_precision():
    # (K-1)(r^-K - 1) with r = 1 - 1/K cancels badly if r^-K is formed
    # first; the expm1/log1p evaluation stays at rounding level up to 1e6
    with mpmath.workdps(50):
        for K in (2, 3, 10, 40, 1000, 10_000, 1_000_000):
            r = 1 - mpmath.mpf(1) / K
            want = float((K - 1) * (r ** -K - 1))
            assert analytics.energy_ftp(K) == pytest.approx(want, rel=1e-15)


def test_energy_bounds_ftp():
    lo, hi = analytics.energy_bounds_ftp(40)
    assert lo == pytest.approx(59.0, abs=0.05)
    assert hi == pytest.approx(69.8, abs=0.05)
    assert lo < analytics.energy_ftp(40) < hi
    for K in list(range(3, 300)) + [1000, 10000]:
        lo, hi = analytics.energy_bounds_ftp(K)
        assert lo < analytics.energy_ftp(K) < hi
    # per-user FTP energy approaches e - 1
    assert analytics.energy_ftp(1000) / 1000 == pytest.approx(math.e - 1, rel=0.05)


def test_energy_atp_is_same_series_as_delay():
    # ATP's unit energy is its delay series: about 1.5x the FTP energy at K=40
    assert analytics.delay_atp(40) == pytest.approx(102.47114308582964, rel=1e-12)
    ratio = analytics.delay_atp(40) / analytics.energy_ftp(40)
    assert 1.35 < ratio < 1.65


def test_energy_bounds_atp_total_and_per_user():
    lo, hi = analytics.delay_bounds_atp(40)
    assert lo == pytest.approx(97.10, abs=0.05)
    assert hi == pytest.approx(108.73, abs=0.05)
    assert lo <= analytics.delay_atp(40) <= hi
    # per user, the same bracket divided by K
    assert lo / 40 <= analytics.delay_atp(40) / 40 <= hi / 40
    for K in list(range(2, 300)) + [1000, 10000]:
        e = analytics.delay_atp(K)
        lo, hi = analytics.delay_bounds_atp(K)
        assert lo <= e <= hi
        assert e / K <= math.e
    assert analytics.delay_atp(10000) / 10000 == pytest.approx(math.e, rel=0.02)

def test_energy_gap():
    gap40 = analytics.delay_atp(40) - analytics.energy_ftp(40)
    assert gap40 == pytest.approx(34.10187834714553, rel=1e-12)
    lo, hi = analytics.energy_gap_bounds(40)
    assert lo < gap40 < hi
    for K in list(range(3, 300)) + [1000, 10000]:
        lo, hi = analytics.energy_gap_bounds(K)
        assert lo < hi
        gap = analytics.delay_atp(K) - analytics.energy_ftp(K)
        assert lo < gap < hi
        assert gap > 0.0
    # ATP and FTP coincide exactly at K=2
    assert analytics.delay_atp(2) == pytest.approx(analytics.energy_ftp(2),
                                                   rel=1e-14)


def test_delay_energy_reports():
    for K in (3, 10, 40, 500):
        for rep, ref in [
                (analytics.delay_report_ftp(K), K * math.log(K)),
                (analytics.delay_report_atp(K), K * math.e),
                (analytics.energy_report_ftp(K), (math.e - 1) * K)]:
            assert rep.bracketed
            assert rep.lower <= rep.exact <= rep.upper
            assert rep.scaling_reference == pytest.approx(ref)
            # the scaling reference is the right order of magnitude
            assert 0.3 < rep.exact / rep.scaling_reference < 3.0


def test_hoeffding_bound():
    assert analytics.hoeffding_bound(0.0, 100, "delay") == 2.0
    assert analytics.hoeffding_bound(0.0, 100, "energy") == 2.0
    eps = np.linspace(0.0, 50.0, 20)
    vals = [analytics.hoeffding_bound(e, 100, "delay") for e in eps]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert analytics.hoeffding_bound(10.0, 100, "delay") == \
        pytest.approx(2 * math.exp(-2 * 100 / 100), rel=1e-14)
    assert analytics.hoeffding_bound(10.0, 100, "energy") == \
        pytest.approx(2 * math.exp(-2 * 100 / (100 * 99 ** 2)), rel=1e-14)
    with pytest.raises(DomainError):
        analytics.hoeffding_bound(1.0, 100, "slots")
