"""Closed forms against quadrature, finite-difference, and Monte Carlo oracles."""
import itertools
import math
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats as sstats

from thzra import analytics, channel, cli, params
from thzra.errors import DomainError
from thzra.params import (DB_PER_NEPER, FadingParams, GammaAbsorption,
                          MisalignmentParams, ThzLinkParams)

import reference

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
    """Independent construction oracle, the CDF of h_l * h_p at y by 40-digit
    quadrature, for any real shape k > 0.  h_l * h_p = a_l e^{-(T+W)} with
    T = ln(a_l/h_l) ~ Gamma(k, 1/z) and W = -ln h_p, whose tail
    (1 + rho w) e^{-rho w} is the misalignment CDF x^rho (1 - rho ln x) at
    x = e^{-w}.  Integrate over T = uL up to L = ln(a_l/y), beyond which
    the CDF takes the whole Gamma tail; the factors (zL)^k e^{-rho L} /
    Gamma(k) stay outside, because quad's tolerance is absolute and that
    part can be 1e-30.  For a large k the integrand u^{k-1} e^{-(z-rho) L u}
    is itself a narrow peak of height 1e-48 or less at u* = (k-1)/((z-rho)
    L): the interval is split there, and the integrand is divided by its
    peak value, or quad stops at once on a wrong answer (0.2842 for
    0.36351 at k = 40).  Below k = 1 the integrand is infinite at u = 0,
    so the peak is taken at the other nodes, and with z > rho the interval
    is split at 1/((z-rho) L) as well, past which e^{-(z-rho) L u} has
    fallen."""
    with mpmath.workdps(40):
        y, z, rho, a_l, k = (mpmath.mpf(v) for v in (y, z, rho, a_l, k))
        L = mpmath.log(a_l / y)
        scale = (z * L) ** k * mpmath.exp(-rho * L) / mpmath.gamma(k)

        def t_then_w(u):     # L f_T(uL) e^{-rho w} at w = (1-u)L, over scale
            return u ** (k - 1) * mpmath.exp(-(z - rho) * L * u)

        nodes = [mpmath.mpf(0), mpmath.mpf(1)]
        if z != rho and 0 < (k - 1) / ((z - rho) * L) < 1:
            nodes.insert(1, (k - 1) / ((z - rho) * L))
        peak = max(t_then_w(u) for u in nodes if u > 0 or k >= 1)
        if k < 1 and (z - rho) * L > 1:
            nodes.insert(1, 1 / ((z - rho) * L))
        scale *= peak
        tail = mpmath.gammainc(k, z * L, mpmath.inf, regularized=True)
        return float(tail + scale * mpmath.quad(
            lambda u: t_then_w(u) / peak * (1 + rho * L * (1 - u)), nodes))


def assert_gain_law(y, k, z, rho, a_l):
    """CDF within 1e-13 absolute and 1e-12 relative of mpmath."""
    cdf = mp_gain_law(y, k, z, rho, a_l)
    args = (y, k, z, rho, a_l)
    got = reference.composite_gain_cdf(*args)
    assert abs(got - cdf) <= 1e-13, args
    assert got == pytest.approx(cdf, rel=1e-12, abs=0), args


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
    assert math.isfinite(reference.composite_gain_cdf(frac, k, z, rho, 1.0))
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


REAL_SHAPES = [0.3, 0.5, 1.5, 2.5, 7.3, 40.5]


@pytest.mark.parametrize("k", REAL_SHAPES)
def test_gain_law_at_a_real_shape(k):
    # the law needs no integer k: z < rho, z = rho and z > rho, on both
    # sides of the Kummer switch, from F near 1 down to about 1e-290
    for z, rho in ((2.0, 6.0), (4.0, 4.0), (8.0, 4.0)):
        for L in (1e-6, 0.3, 3.0, 11.0, 12.5, 40.0, 165.0):
            assert_gain_law(math.exp(-L), k, z, rho, 1.0)


@pytest.mark.parametrize("k,L", [(40, 150.0), (80, 70.0), (20, 150.0)])
def test_gain_law_where_its_terms_underflow(k, L):
    # e^{-min(z, rho) L} W / (b-1)! goes subnormal where (zL)^k times it
    # is still a normal double: at z = 8, rho = 4 the law read 0.0 for
    # 1.63e-246 (k = 40) and was 5e-7 (k = 80) and 1e-8 (k = 20) off
    y = math.exp(-L)
    assert reference.composite_gain_cdf(y, k, 8.0, 4.0, 1.0) == pytest.approx(
        mp_gain_law(y, k, 8.0, 4.0, 1.0), rel=1e-12, abs=0)


@pytest.mark.parametrize("k,z,L", [(150, 300.0, 40.0), (150, 13029.0, 3.0),
                                   (150.5, 13072.4, 3.0)])
def test_gain_law_where_its_log_form_overflowed(k, z, L):
    # (zL)^k e^{-rho L} / Gamma(b) leaves the double range while W
    # underflows: the log form read 0.0 or raised OverflowError here
    # (z = 13029 is configs/default.cfg with k_shape = 150 and
    # kbeta_db_per_km = 1, on which analyze failed)
    assert_gain_law(math.exp(-L), k, z, 4.0, 1.0)


@pytest.mark.parametrize("k", REAL_SHAPES)
def test_poisson_kummer_at_a_real_shape(k):
    # the (a, b) the gain law asks for at a real k, a in {1, 2} with
    # b = k + a (z >= rho) and a = k with b = k + 1, k + 2 (z < rho), on
    # both sides of the series/asymptotic switch
    for a, b in ((1, k + 1), (2, k + 2), (k, k + 1), (k, k + 2)):
        switch = 60.0 + 2.0 * b
        for x in (0.0, 1e-8, 1.0, 30.0, switch, np.nextafter(switch, np.inf),
                  1.5 * switch, 1e4):
            with mpmath.workdps(30):
                ref = float(mpmath.exp(-x) * mpmath.hyp1f1(a, b, x))
            got = analytics._poisson_kummer(a, b, x)
            assert got == pytest.approx(ref, rel=1e-14, abs=1e-300), (a, b, x)


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
            assert abs(analytics.cdf_snr_no_fading(q, model, 4.0, link)
                       - float(cdf)) <= 1e-13


def test_ceiling_outage_flagged_probability_one():
    link = make_link()          # k_h^2 = 0.02, ceiling = 50
    model = GammaAbsorption(k=3, beta=10.0)
    q = analytics.OutageQuery(gamma_th=60.0, gamma_bar=link.avg_snr, k_h=link.k_h)
    assert q.above_ceiling
    assert analytics.cdf_snr_no_fading(q, model, 4.0, link) == 1.0


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


def test_gain_cdf_on_an_array_reads_as_its_scalars():
    # one implementation: each element of an array call is the scalar
    # call at that L to the bit, on both Kummer branches and with (zL)^k
    # carried as a logarithm (k = 150, 345), at real shapes (channel's
    # incomplete gamma takes each x alone); and the Kummer series with
    # e^-x in factors (b = 401, x past 700)
    L = np.r_[1e-6, 0.3, 2.0, 11.0, 12.5, 40.0, 400.0]
    for k, z, rho in ((3, 8.686, 4.0), (2, 4.0, 4.0), (4, 2.0, 6.0),
                      (150, 8.0, 4.0), (345, 1.0, 3.0), (2.5, 8.686, 4.0),
                      (0.5, 2.0, 6.0), (40.5, 8.0, 4.0)):
        got = analytics.gain_cdf_log(L, k, z, rho)
        one = [analytics.gain_cdf_log(L[i:i + 1], k, z, rho)[0]
               for i in range(L.size)]
        assert got.tolist() == one, (k, z, rho)
    x = np.r_[0.0, 5.0, 100.0, 720.0, 800.0, 900.0]
    assert (analytics._poisson_kummer(2, 401, x).tolist()
            == [analytics._poisson_kummer(2, 401, float(v)) for v in x])


# ---------------------------------------------------------------------------
# exact SNR law with alpha-mu fading
# ---------------------------------------------------------------------------

DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
DEFAULT = params.run_config(cli.read_config(DEFAULT_CFG)).exp


def law_experiment(alpha, mu, k, rho):
    """configs/default.cfg with alpha-mu fading, absorption shape k and
    misalignment rho; z = 8.686, so rho = 8.686 is z = rho."""
    d_km = DEFAULT.link.d_km
    exp = replace(DEFAULT, fading=FadingParams(alpha=alpha, mu=mu),
                  absorption=GammaAbsorption(k=k, beta=DB_PER_NEPER
                                             / (8.686 * d_km)),
                  misalignment=MisalignmentParams(rho=rho))
    assert exp.absorption.z_for(exp.link) == 8.686
    return exp


def law_at(exp, db):
    q = analytics.OutageQuery(10 ** 0.5, 10 ** (db / 10.0), exp.link.k_h)
    return q, analytics.cdf_snr(q, exp)


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_fading_law_matches_scipy_quadrature(alpha):
    # every (mu, k, rho) of the grid, each at one average SNR of 25-100 dB
    # in turn, against scipy's adaptive quadrature: 1e-10 relative down
    # to p_out of 1e-12 (1e-14 is what the law reaches)
    # (1e-10 at a real k, down to k = 0.3)
    cells = itertools.chain(
        itertools.product((0.6, 1, 1.5, 2.5, 4), (1, 3, 7), (2, 4.1, 8.686)),
        itertools.product((0.6, 2.5), (0.3, 2.5, 40.5), (2, 8.686)))
    dbs = itertools.cycle((25, 40, 55, 70, 85, 100))
    checked = 0
    for (mu, k, rho), db in zip(cells, dbs):
        exp = law_experiment(alpha, mu, k, rho)
        query, got = law_at(exp, db + alpha)
        ref = reference.exact_outage(exp, query.gamma_h)
        if ref >= 1e-12:
            assert got == pytest.approx(ref, rel=1e-10, abs=0), (mu, k, rho, db)
            checked += 1
    assert checked >= 40


def mp_deterministic_law(exp, gamma_h):
    """P(h <= gamma_h) for deterministic absorption, whose path gain h_0
    is one number, at 40 digits: the misalignment tail e^{-rho L}
    (1 + rho L) at L = ln(h_0 / gamma_h) in closed form with fading off;
    with alpha-mu fading, its mean over t = ln(mu G), which adds
    (ln(mu G) - t_k) / alpha to L, by quadrature up to mu G = mu + 200,
    past which the fading power's tail is below e^-150."""
    fp, rho = exp.fading, exp.misalignment.rho
    with mpmath.workdps(40):
        L0 = mpmath.log(mpmath.mpf(channel.deterministic_path_gain(
            exp.absorption, exp.link)) / mpmath.mpf(gamma_h))

        def tail(L):
            return mpmath.exp(-rho * L) * (1 + rho * L) if L > 0 else 1

        if not fp.enabled:
            return float(tail(L0))
        t_k = mpmath.log(fp.mu) - fp.alpha * (L0 + mpmath.log(fp.r_hat))
        p = mpmath.gammainc(fp.mu, 0, mpmath.exp(t_k), regularized=True)
        return float(p + mpmath.quad(
            lambda t: mpmath.exp(fp.mu * t - mpmath.exp(t))
            / mpmath.gamma(fp.mu) * tail((t - t_k) / fp.alpha),
            [t_k, t_k + 5, t_k + 20, max(t_k + 20, mpmath.log(fp.mu + 200))]))


@pytest.mark.parametrize("fading", [FadingParams(enabled=False),
                                    FadingParams(alpha=2.0, mu=1),
                                    FadingParams(alpha=1.0, mu=2.5, r_hat=1.3)],
                         ids=["off", "rayleigh", "alpha_mu"])
def test_deterministic_absorption_law(fading):
    # T = 0 and h_0 the one path gain in place of a_l: the misalignment
    # tail alone, or averaged over the fading power by the same panels
    exp = replace(DEFAULT, absorption=params.DeterministicAbsorption(),
                  fading=fading)
    for db in (25, 40, 55, 70, 85, 100):
        query, got = law_at(exp, db)
        assert got == pytest.approx(mp_deterministic_law(exp, query.gamma_h),
                                    rel=1e-12, abs=0), db


def test_fading_law_holds_where_a_split_in_g_fails():
    # configs/default.cfg from 25 to 100 dB.  At 100 dB the mass sits in
    # [g_k, a few g_k], g_k ~ 1e-8: the same panels taken in G rather
    # than ln G step over it and read 5.3e-9 for 4.68e-8
    for db in (25, 40, 55, 70, 85, 100):
        query, got = law_at(DEFAULT, db)
        assert got == pytest.approx(reference.exact_outage(DEFAULT, query.gamma_h),
                                    rel=1e-10, abs=0)
    fp, ab, link = DEFAULT.fading, DEFAULT.absorption, DEFAULT.link
    g_k = fp.mu * (query.gamma_h / (link.a_l * fp.r_hat)) ** fp.alpha
    x, w = analytics._gauss_legendre(analytics.NODES)
    half = 100.0 / (2 * analytics.PANELS)
    u = ((g_k + half * (2 * np.arange(analytics.PANELS) + 1))[:, None]
         + half * x).reshape(-1)
    split = channel.gammainc(fp.mu, g_k) + half * np.dot(
        np.tile(w, analytics.PANELS) * sstats.gamma.pdf(u, fp.mu),
        analytics.gain_cdf_log(np.log(u / g_k) / fp.alpha, ab.k,
                               ab.z_for(link), DEFAULT.misalignment.rho))
    assert split < got / 5.0


def test_gauss_legendre_rule_matches_mpmath():
    # nodes and weights at the edge, next to it and in the middle against
    # 40-digit roots of P_64 (numpy's leggauss is 1.3e-12 off at the
    # edge), and every even power up to x^126 integrated exactly
    x, w = analytics._gauss_legendre(analytics.NODES)
    with mpmath.workdps(40):
        for i in (0, 1, 15, analytics.NODES // 2 - 1):
            root = mpmath.findroot(lambda t: mpmath.legendre(analytics.NODES, t),
                                   mpmath.mpf(x[i]))
            slope = mpmath.diff(lambda t: mpmath.legendre(analytics.NODES, t),
                                root)
            assert abs(x[i] - root) <= 1e-16
            assert w[i] == pytest.approx(float(2 / ((1 - root ** 2) * slope ** 2)),
                                         rel=2e-13)
    powers = np.arange(0, 2 * analytics.NODES, 2)
    np.testing.assert_allclose(w @ x[:, None] ** powers, 2.0 / (powers + 1),
                               rtol=1e-13)


def test_snr_law_scope():
    # every channel the sampler draws has the law: fading off, alpha-mu,
    # eta-mu and kappa-mu fading, with either absorption model and any
    # real shape; outage_rule integrates only alpha-mu fading out
    query = analytics.OutageQuery(10 ** 0.5, DEFAULT.link.avg_snr,
                                  DEFAULT.link.k_h)
    off = replace(DEFAULT, fading=replace(DEFAULT.fading, enabled=False))
    real = replace(DEFAULT, absorption=GammaAbsorption(k=2.5, beta=12.0))
    det = replace(DEFAULT, absorption=params.DeterministicAbsorption())
    eta_mu = replace(det, fading=FadingParams(eta=2.0, mu=2))
    kappa_mu = replace(DEFAULT, fading=FadingParams(kappa=1.0, mu=2))
    for exp in (DEFAULT, off, real, replace(real, fading=off.fading), det,
                replace(det, fading=off.fading), eta_mu, kappa_mu):
        assert 0.0 < analytics.cdf_snr(query, exp) < 1.0
    assert analytics.cdf_snr(query, off) == analytics.cdf_snr_no_fading(
        query, off.absorption, off.misalignment.rho, off.link)
    assert channel.outage_rule(det).integrated == "fading"
    for exp in (eta_mu, kappa_mu):
        assert channel.outage_rule(exp).integrated != "fading"


# (eta, kappa, mu) of eta-mu and kappa-mu fading the law is checked on
CLUSTER_FADING = [(1, 1, 2), (1, 0.3, 3), (2, 0, 2), (2, 1, 2), (0.5, 0.4, 4),
                  (20, 3, 1)]


def mixture_cdf(fp, g):
    """P(G <= g) of the fading power by analytics' Gamma mixture alone."""
    r, n, chunks = analytics._power_mixture(fp)
    return analytics._mixture_law(fp.mu, n, chunks, r * g, np.empty(0))[0]


def test_fading_power_mixture_matches_the_convolution():
    # the Gamma mixture's CDF of G against scipy's convolution of the two
    # noncentral chi-square parts, 1e-12 relative from g = 1e-3 to 5
    # (about 1e-14 is what both reach), at eta = 1e+-3 and at a real mu
    # too (scipy's chndtr takes a real df); alpha-mu is the one term
    # Gamma(mu), rate mu
    grid = CLUSTER_FADING + [(1e3, 0, 1), (1e3, 3, 4), (1e-3, 3, 1),
                             (1e-3, 0, 4), (2, 1, 2.5), (0.3, 2, 0.7)]
    for eta, kappa, mu in grid:
        fp = FadingParams(eta=eta, kappa=kappa, mu=mu)
        power = reference.ConvolvedPower(fp)
        for g in np.geomspace(1e-3, 5.0, 7):
            want = power.cdf(g)
            if want > 1e-300:
                assert mixture_cdf(fp, g) == pytest.approx(
                    want, rel=1e-12, abs=0), (eta, kappa, mu, g)
    fp = FadingParams(alpha=3.0, mu=2.5)
    assert analytics._power_mixture(fp)[:2] == (2.5, 1)
    assert mixture_cdf(fp, 0.7) == channel.gammainc(2.5, 2.5 * 0.7)


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_cluster_fading_law_matches_scipy_quadrature(alpha):
    # each (eta, kappa, mu) of CLUSTER_FADING at one average SNR of
    # 25-70 dB in turn against scipy's quadrature of the no-fading law over
    # the fading power (kappa_mu_outage at eta = 1, eta_mu_outage's
    # convolution otherwise): 1e-10 relative down to p_out of 1e-12
    # (1e-13 is what the law reaches)
    dbs = itertools.cycle((25, 40, 55, 70))
    for (eta, kappa, mu), db in zip(CLUSTER_FADING, dbs):
        exp = replace(DEFAULT, fading=FadingParams(alpha=alpha, eta=eta,
                                                   kappa=kappa, mu=mu))
        query, got = law_at(exp, db + 5 * alpha)
        oracle = (reference.kappa_mu_outage if eta == 1
                  else reference.eta_mu_outage)
        ref = oracle(exp, query.gamma_h)
        assert ref >= 1e-12
        assert got == pytest.approx(ref, rel=1e-10, abs=0), (eta, kappa, mu)


def test_cluster_fading_law_where_its_weights_rise_steeply():
    # kappa-mu fading at kappa = 1e4: the weights are a Poisson bump of
    # mean 2e4 and the Gamma terms about 0.007 wide in t, which 8 equal
    # panels read 21 % low at 70 dB; the panels split in steps of
    # SPAN / 2 in e^(t/2) hold 1e-10 of scipy's quadrature
    exp = replace(DEFAULT, fading=FadingParams(kappa=1e4, mu=4))
    query, got = law_at(exp, 70)
    assert got == pytest.approx(reference.kappa_mu_outage(exp, query.gamma_h),
                                rel=1e-10, abs=0)


@pytest.mark.parametrize("eta", [1e-3, 1e3])
def test_cluster_fading_law_cost_at_a_far_eta(eta):
    # q's cost grows like 1 / min(eta, 1 / eta), the mixture's terms
    # (about 70 000 at eta = 1e+-3, kappa = 3, mu = 4): each law at
    # 16.2 dB within 2 s, and its weights and densities streamed in
    # chunks, so the tracemalloc peak stays below 64 MB at any eta
    for kappa, mu in itertools.product((0, 3), (1, 4)):
        exp = replace(DEFAULT, fading=FadingParams(eta=eta, kappa=kappa,
                                                   mu=mu))
        query = analytics.OutageQuery(params.db_to_linear(16.2),
                                      exp.link.avg_snr, exp.link.k_h)
        parts = (query, exp.absorption, exp.fading, exp.misalignment.rho,
                 exp.link)
        start = time.perf_counter()
        p = analytics._cdf_snr.__wrapped__(*parts)
        assert time.perf_counter() - start <= 2.0 and 0.0 < p < 1.0
    tracemalloc.start()
    try:
        analytics._cdf_snr.__wrapped__(*parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 << 20


@pytest.mark.parametrize("n", [1, 2, 40, 1000, 100_000])
def test_binomial_cdf_matches_scipy(n):
    k = np.arange(n + 1)
    for q in (0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0):
        got = analytics.binomial_cdf(n, q)
        np.testing.assert_allclose(got, sstats.binom.cdf(k, n, q),
                                   rtol=1e-9, atol=1e-300, err_msg=str(q))
        assert got[-1] == pytest.approx(1.0, abs=1e-12)


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

def stage_sums(scheme, K):
    """The stage law's expected delay sum 1/P_s and energy sum k p / P_s."""
    k, p, ps = analytics.stage_law(scheme, K)
    return float(np.sum(1.0 / ps)), float(np.sum(k * p / ps))


def mp_delay_exact(scheme, K):
    """sum over stages of 1/P_s to 50 digits, p = 1/K (FTP) or 1/k (ATP)."""
    with mpmath.workdps(50):
        total = 0
        for k in range(1, K + 1):
            p = mpmath.mpf(1) / (K if scheme == "ftp" else k)
            total += 1 / (k * p * (1 - p) ** (k - 1))
        return float(total)


def test_delay_exact_hand_values():
    # K = 1: one lone transmitter; K = 2: two stages of P_s = 1/2 (FTP),
    # or 1/2 then 1 (ATP)
    for scheme in ("ftp", "atp"):
        assert stage_sums(scheme, 1)[0] == 1.0
        k, p, _ = analytics.stage_law(scheme, 3)
        assert k.tolist() == [3, 2, 1]
        assert p.tolist() == ([1 / 3] * 3 if scheme == "ftp" else [1 / 3, 0.5, 1.0])
    assert stage_sums("ftp", 2)[0] == pytest.approx(4.0, rel=1e-14)
    assert stage_sums("atp", 2)[0] == pytest.approx(3.0, rel=1e-14)
    with pytest.raises(DomainError):
        analytics.stage_law("optimal", 3)
    with pytest.raises(DomainError):
        analytics.stage_law("ftp", 0)


def test_delay_exact_vs_high_precision():
    for scheme in ("ftp", "atp"):
        for K in (10, 17, 40):
            want = mp_delay_exact(scheme, K)
            assert stage_sums(scheme, K)[0] == pytest.approx(want, rel=1e-12)
            closed = analytics.delay_ftp if scheme == "ftp" else analytics.delay_atp
            assert closed(K) == pytest.approx(want, rel=1e-14)


def test_delay_ftp_values():
    assert analytics.delay_ftp(1) == 1.0
    assert analytics.delay_ftp(2) == pytest.approx(4.0, rel=1e-12)
    # frozen from two independent evaluations (high-precision sum and
    # the staged-geometric simulator)
    assert analytics.delay_ftp(10) == pytest.approx(39.434865850444385, rel=1e-12)


def test_delay_ftp_identity_with_exact_series():
    # the closed forms are the stage law's sum 1/P_s
    for K in range(2, 201):
        for scheme, closed in (("ftp", analytics.delay_ftp),
                               ("atp", analytics.delay_atp)):
            a = closed(K)
            b = stage_sums(scheme, K)[0]
            assert abs(a - b) / b < 1e-12


def test_delay_atp_values():
    assert analytics.delay_atp(1) == 1.0
    assert analytics.delay_atp(2) == pytest.approx(3.0, rel=1e-14)
    assert analytics.delay_atp(10) == pytest.approx(22.765181994816743, rel=1e-12)
    # FTP needs about 1.7-1.8x the ATP slots at K=10
    ratio = analytics.delay_ftp(10) / analytics.delay_atp(10)
    assert 1.6 < ratio < 2.0


def test_delay_atp_prefix_matches_scalar():
    pre = reference.delay_atp_prefix(50)
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
    # colliding packets per slot, k p - P_s: none for a lone holder
    for scheme, K, want in (("atp", 2, [0.5, 0.0]),
                            ("ftp", 3, [1 - (2 / 3) ** 2, 2 / 3 - 4 / 9, 1 / 3 - 1 / 3])):
        k, p, ps = analytics.stage_law(scheme, K)
        assert (k * p - ps) == pytest.approx(want, abs=1e-15)


def test_collisions_monte_carlo_oracle():
    # mean colliding-packet count per slot (success slots contribute zero)
    # at the first FTP stage of K = 3, k = 3 and p = 1/3
    rng = np.random.default_rng(5)
    k, p, ps = (v[0] for v in analytics.stage_law("ftp", 3))
    m = rng.binomial(k, p, size=1_000_000)
    sim = np.where(m == 1, 0, m).mean()
    assert k * p - ps == pytest.approx(sim, rel=0.02)


def test_attempts_between_successes():
    # 1/P_s slots per stage: 1/2 then 1 under ATP at K = 2, and under FTP
    # at K = 3, 9/4 for each of the two holders' stages
    assert (1.0 / analytics.stage_law("atp", 2)[2]).tolist() == [2.0, 1.0]
    assert 1.0 / analytics.stage_law("ftp", 3)[2] == \
        pytest.approx([9 / 4, 9 / 4, 3.0], rel=1e-14)


def test_attempts_monte_carlo_oracle():
    # the FTP stage with k = 4 of K = 5 (p = 0.2) lasts Geometric(P_s) slots
    rng = np.random.default_rng(6)
    k, p, ps = (v[1] for v in analytics.stage_law("ftp", 5))
    assert (k, p) == (4, 0.2)
    gaps = rng.geometric(ps, size=500_000)
    assert 1.0 / ps == pytest.approx(gaps.mean(), rel=0.02)


def test_energy_sum_hand_values():
    for scheme in ("ftp", "atp"):
        assert stage_sums(scheme, 1)[1] == 1.0
        assert stage_sums(scheme, 2)[1] == pytest.approx(3.0, rel=1e-14)
    assert stage_sums("ftp", 3)[1] == pytest.approx(1 + 3 / 2 + 9 / 4, rel=1e-14)


def test_energy_ftp_values_and_identity():
    assert analytics.energy_ftp(2) == pytest.approx(3.0, rel=1e-12)
    assert analytics.energy_ftp(40) == pytest.approx(68.36926473868415, rel=1e-12)
    # the closed forms are the stage law's sum k p / P_s; ATP's is its delay
    for K in range(2, 201):
        for scheme, closed in (("ftp", analytics.energy_ftp),
                               ("atp", analytics.delay_atp)):
            series = closed(K)
            assert abs(series - stage_sums(scheme, K)[1]) / series < 1e-12


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


def test_series_table_entries():
    for K in (1, 2, 3, 10, 40, 500):
        table = analytics.series_table(K)
        assert list(table)[:4] == list(analytics.SERIES)
        assert table["ftp_delay"][0] == analytics.delay_ftp(K)
        assert table["ftp_energy"][0] == analytics.energy_ftp(K)
        assert table["atp_delay"] == table["atp_energy"]
        assert table["atp_delay"][0] == analytics.delay_atp(K)
        # each bracket is NaN exactly below the K it holds from
        for name, k_from in (("ftp_delay", 3), ("ftp_energy", 3),
                             ("atp_delay", 2), ("atp_energy", 2)):
            exact, lo, up = table[name]
            assert math.isnan(lo) == math.isnan(up) == (K < k_from), (K, name)
            assert K < k_from or lo <= exact <= up
        assert ("energy_gap" in table) == (K >= 3)
    table = analytics.series_table(40)
    assert table["ftp_delay"][1:] == analytics.delay_bounds_ftp(40)
    assert table["atp_delay"][1:] == analytics.delay_bounds_atp(40)
    assert table["ftp_energy"][1:] == analytics.energy_bounds_ftp(40)
    gap = analytics.delay_atp(40) - analytics.energy_ftp(40)
    assert table["energy_gap"] == (gap,) + analytics.energy_gap_bounds(40)


def test_hoeffding_bound():
    assert reference.hoeffding_bound(0.0, 100, "delay") == 2.0
    assert reference.hoeffding_bound(0.0, 100, "energy") == 2.0
    eps = np.linspace(0.0, 50.0, 20)
    vals = [reference.hoeffding_bound(e, 100, "delay") for e in eps]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert reference.hoeffding_bound(10.0, 100, "delay") == \
        pytest.approx(2 * math.exp(-2 * 100 / 100), rel=1e-14)
    assert reference.hoeffding_bound(10.0, 100, "energy") == \
        pytest.approx(2 * math.exp(-2 * 100 / (100 * 99 ** 2)), rel=1e-14)
    with pytest.raises(DomainError):
        reference.hoeffding_bound(1.0, 100, "slots")
