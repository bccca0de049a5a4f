"""Channel samplers against analytic laws and independent oracles."""
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special
from scipy import stats as sstats

from thzra import analytics, channel, streams
from thzra.errors import UnsupportedParams
from thzra.params import (DeterministicAbsorption, FadingParams, GammaAbsorption,
                          MisalignmentParams, ThzLinkParams)

import reference

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


# ---------------------------------------------------------------------------
# deterministic absorption
# ---------------------------------------------------------------------------

def test_zero_humidity_and_zero_tail_kills_everything():
    prof = DeterministicAbsorption(c1=0.0, c2=0.0, c3=0.0, c4=0.0)
    link = make_link(humidity_pct=0.0)
    assert channel.absorption_deterministic(link, prof) == 0.0


def test_absorption_continuous_in_humidity():
    prof = DeterministicAbsorption()
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
    prof = DeterministicAbsorption()
    got = channel.absorption_deterministic(link, prof)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(5.8268e-4, rel=1e-3)


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
    # evaluated whole, scalars come back as floats, h = 0 gives 0 and
    # h >= a_l gives 1
    link = make_link()
    model = GammaAbsorption(k=1, beta=10.0)
    z = model.z_for(link)
    h = link.a_l * np.array([1e-6, 0.01, 0.3, 0.9, 1.0])
    f = channel.path_gain_cdf(h, model, link)
    np.testing.assert_allclose(f, (h / link.a_l) ** z, rtol=1e-13, atol=0.0)
    assert isinstance(channel.path_gain_cdf(float(h[2]), model, link), float)
    assert channel.path_gain_cdf(link.a_l, model, link) == 1.0
    assert channel.path_gain_cdf(0.0, model, link) == 0.0
    assert channel.path_gain_cdf(1.001 * link.a_l, model, link) == 1.0
    np.testing.assert_array_equal(
        channel.path_gain_cdf(np.array([0.0, 1.001 * link.a_l]), model, link),
        [0.0, 1.0])


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
    assert reference.misalignment_cdf(1.0, 4.0) == pytest.approx(1.0)
    assert reference.misalignment_cdf(1e-12, 4.0) < 1e-8


def test_misalignment_cdf_closed_point():
    # x = e^{-1/rho}: x^rho (1 - rho ln x) = e^{-1} * 2 = 2/e
    for rho in (0.7, 2.0, 4.0, 6.3):
        got = reference.misalignment_cdf(math.exp(-1.0 / rho), rho)
        assert got == pytest.approx(2.0 / math.e, rel=1e-12)


def test_misalignment_cdf_matches_density_quadrature():
    # the pointing-error density -rho^2 ln(x) x^(rho-1), integrated by scipy
    for rho in (0.5, 3.7):
        for x in np.linspace(0.05, 0.95, 19):
            ref, _ = integrate.quad(
                lambda t: -rho ** 2 * math.log(t) * t ** (rho - 1.0), 0.0, x)
            assert reference.misalignment_cdf(x, rho) == pytest.approx(
                ref, rel=1e-9), (rho, x)


def test_misalignment_domain():
    # every value the sampler returns, its underflowed zeros included, and
    # beyond the support: 0 at and below 0, 1 from 1 up, arrays whole
    assert reference.misalignment_cdf(0.0, 2.0) == 0.0
    assert reference.misalignment_cdf(1.5, 2.0) == 1.0
    np.testing.assert_array_equal(
        reference.misalignment_cdf(np.array([-1.0, 0.0, 1.0, 1.5]), 2.0),
        [0.0, 0.0, 1.0, 1.0])
    hp = channel.sample_misalignment(0.01, RNG(1), 100_000)
    assert np.any(hp == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = reference.misalignment_cdf(hp, 0.01)
    assert np.all(f[hp == 0.0] == 0.0) and np.all((f >= 0.0) & (f <= 1.0))


def test_misalignment_cdf_log_of_minus_infinity_is_zero():
    # L = -inf is x = 0, where a zero draw lands: exactly 0, not
    # e^(rho L) (1 - rho L) = 0 * inf = NaN, and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert channel.misalignment_cdf_log(-math.inf, 2.0) == 0.0
        np.testing.assert_array_equal(
            channel.misalignment_cdf_log(np.array([-np.inf, -800.0, -1e5]),
                                         0.01),
            [0.0, math.exp(-8.0) * 9.0, 0.0])


def test_misalignment_sampler_exact_law():
    rho = 4.0
    hp = channel.sample_misalignment(rho, RNG(5), 100_000)
    assert hp.min() > 0.0 and hp.max() < 1.0
    hp.sort()
    f = reference.misalignment_cdf(hp, rho)
    n = hp.size
    d = max(np.max(np.arange(1, n + 1) / n - f),
            np.max(f - np.arange(0, n) / n))
    assert d < 1.36 / math.sqrt(n)


NEG_LOG_SIZES = [2 ** 16, 2 ** 16 + 1, 16960, 4321, 3, 2, 1]


def stratified_w(size, seed):
    """The double w of each draw of stratified_neg_log(law, RNG(seed),
    size): (h + u) / P for draw k < 2P in stratum h = k mod P, the iid u
    for an odd size's last draw."""
    cells = size // 2
    w = RNG(seed).random(size)
    w[:2 * cells] += np.arange(2 * cells) % max(cells, 1)
    w[:2 * cells] /= max(cells, 1)
    return w


@functools.lru_cache(maxsize=None)
def neg_log_root(w):
    """The root y >= 0 of ln(1 + y) - y = ln w at 40 digits, by Newton's
    method from 1 - ln w (F(y) = ln(1 + y) - y - ln w is concave and
    decreasing, so it converges from either side)."""
    if w == 1.0:
        return mpmath.mpf(0)
    with mpmath.workdps(40):
        log_w = mpmath.log(mpmath.mpf(w))
        y = 1 - log_w
        for _ in range(200):
            step = (mpmath.log1p(y) - y - log_w) * (1 + y) / y
            y += step
            if abs(step) <= mpmath.mpf(10) ** -38 * (1 + y):
                return y
    raise AssertionError(f"no root for w = {w!r}")


def assert_at_root(y, w):
    """|y - y_ref| <= 4e-15 (1 + y_ref) for the 40-digit root y_ref at w."""
    ref = neg_log_root(float(w))
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(float(y)) - ref) <= 4e-15 * (1 + ref), (w, y)


@pytest.mark.parametrize("size", NEG_LOG_SIZES)
def test_stratified_neg_log_product_matches_mpmath(size):
    # every draw of the 1024 strata at each end (all strata below 2048),
    # and both draws of 500 sampled inner strata, against the 40-digit
    # root for the same double w; an odd size's last draw too
    y = channel.stratified_neg_log(channel.NEG_LOG_PRODUCT, RNG(13), size)
    w = stratified_w(size, 13)
    cells = size // 2
    cols = np.arange(cells)
    inner = cols[1024:cells - 1024]
    if inner.size:
        picked = np.random.default_rng(0).choice(inner, min(500, inner.size),
                                                 replace=False)
        cols = np.concatenate([cols[:1024], cols[cells - 1024:], picked])
    ks = np.concatenate([cols, cols + cells, np.arange(2 * cells, size)])
    assert np.all(np.isfinite(y))
    for k in ks:
        assert_at_root(y[k], w[k])


def test_neg_log_quantile_at_the_ends():
    # w = 1 is y = 0, the smallest double w is y near 751, and w = 0 is
    # inf; Generator.random can return 0, and (h + u) / P can round to 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = channel._upper_gamma2_quantile(np.array([1.0, 5e-324, 0.0]))
    assert_at_root(y[0], 1.0)
    assert_at_root(y[1], 5e-324)
    assert y[2] == np.inf


class ZeroUniforms:
    """A Generator whose uniforms are 0.0 at the given draws."""

    def __init__(self, rng, zeros):
        self.rng, self.zeros = rng, zeros

    def random(self, size):
        w = self.rng.random(size)
        w[[k for k in self.zeros if k < size]] = 0.0
        return w


@pytest.mark.parametrize("size", [1, 3, 4321, 2 ** 16, 2 ** 16 + 1])
def test_stratified_neg_log_product_of_zero_is_inf(size):
    # u = 0 in stratum 0 (draws 0 and P) and an odd size's last draw is
    # w = 0: U V = 0, Y = inf, without a RuntimeWarning; u = 0 elsewhere
    # is the stratum's upper quantile, finite
    cells = size // 2
    zeros = {0, cells, size - 1, 5}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = channel.stratified_neg_log(
            channel.NEG_LOG_PRODUCT, ZeroUniforms(RNG(14), zeros), size)
    inf = [k for k in sorted(zeros) if k < size
           and (k == size - 1 and size % 2 or k % max(cells, 1) == 0)]
    assert inf and np.all(y[inf] == np.inf)
    assert np.sum(np.isinf(y)) == len(inf)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 4321, 16960, 2 ** 16,
                                  2 ** 16 + 1])
def test_stratified_neg_log_product_strata(size):
    # draws k and k + P lie in stratum h = k mod P's quantile interval,
    # [Q((h + 1) / P), Q(h / P)] for Q the upper-tail quantile of Gamma(2)
    cells = size // 2
    y = channel.stratified_neg_log(channel.NEG_LOG_PRODUCT, RNG(15), size)
    h = np.arange(2 * cells) % max(cells, 1)
    top = sstats.gamma(2).isf(h / max(cells, 1))
    bottom = sstats.gamma(2).isf((h + 1) / max(cells, 1))
    assert np.all(y[:2 * cells] <= top * (1 + 1e-13))
    assert np.all(y[:2 * cells] >= bottom * (1 - 1e-13) - 1e-15)


def test_stratified_neg_log_product_law():
    # e^-Y = U V over many chunks, full ones and odd ones, follows the law
    # of the iid product, P(U V <= t) = t (1 - ln t)
    sizes = [2 ** 16] * 20 + [1, 2, 3, 4321, 16960, 2 ** 16 + 1]
    t = np.concatenate([np.exp(-channel.stratified_neg_log(
        channel.NEG_LOG_PRODUCT, RNG(100 + i), size))
        for i, size in enumerate(sizes)])
    result = sstats.kstest(t, lambda x: x * (1.0 - np.log(x)))
    assert result.statistic < 1.36 / math.sqrt(t.size)
    assert result.pvalue > 1e-3


def test_stratified_neg_log_product_holds_one_table():
    # one table of stratum-bound quantiles, that of a full chunk, built
    # once: a chunk with fewer strata (the last of a run, 16960 draws)
    # solves for its draws and leaves it in place
    channel._bound_quantiles.cache_clear()
    for size in (2 ** 16, 16960, 4321, 2 ** 16 + 1, 2 ** 16):
        channel.stratified_neg_log(channel.NEG_LOG_PRODUCT, RNG(3), size)
    info = channel._bound_quantiles.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    table = channel._bound_quantiles(channel.NEG_LOG_PRODUCT, 2 ** 15)
    assert table.nbytes == 8 * (2 ** 15 + 1) and not table.flags.writeable
    # a Gamma law's table takes its place: still one held
    channel.stratified_neg_log(channel.NegLogGamma(1.7), RNG(3), 2 ** 16)
    info = channel._bound_quantiles.cache_info()
    assert (info.currsize, info.misses) == (1, 2)


GAMMA_SHAPES = [0.3, 1.0, 1.7, 3.3, 150.5]


def neg_log_gamma_error(s, w, y):
    """|y - Y| for the root Y of P(s, e^-Y) = w (w = 1 taken at 1 - 2^-53,
    as the sampler takes it), and the allowed error 8 ulps of y on the
    scale 1 + |Y| plus the shift of the root by 8 ulps of w, 8 eps(w) /
    f(Y), f the density of Y: the tail probability's own rounding moves
    the root by that much.  Y at 40 digits by one Newton step from the
    double y, on P below w = 1/2 and on Q above: y is within 1e-13 of
    the root, so the step leaves an error below 1e-24."""
    w = min(float(w), 1.0 - 2.0 ** -53)
    with mpmath.workdps(40):
        S, Y = mpmath.mpf(s), mpmath.mpf(float(y))
        x = mpmath.exp(-Y)
        f = x ** S * mpmath.exp(-x) / mpmath.gamma(S)
        if w > 0.5:
            Y -= (mpmath.gammainc(S, x, mpmath.inf, regularized=True)
                  - (1 - mpmath.mpf(w))) / f
        else:
            Y += (mpmath.gammainc(S, 0, x, regularized=True)
                  - mpmath.mpf(w)) / f
        err = float(abs(Y - mpmath.mpf(float(y))))
    eps = np.finfo(float).eps
    return err, 8 * eps * (1 + abs(float(Y))) + 8 * np.spacing(w) / float(f)


@pytest.mark.parametrize("s", GAMMA_SHAPES)
@pytest.mark.parametrize("size", [2 ** 16, 2 ** 16 + 1, 16960, 3, 1])
def test_stratified_neg_log_gamma_matches_mpmath(s, size):
    # -ln of a Gamma(s) draw stratified on its quantile: the 16 strata at
    # each end, 64 more of each end's 1024 solved ones and 128 inner ones
    # (every stratum below 2048 is solved), both draws each, and an odd
    # size's last draw, against the 40-digit root for the same double w,
    # at non-integer shapes, at 1 and beyond a = 100
    y = channel.stratified_neg_log(channel.NegLogGamma(s), RNG(13), size)
    w = stratified_w(size, 13)
    cells = size // 2
    cols = np.arange(cells)
    if cells > 2048:
        pick = np.random.default_rng(0).choice
        cols = np.concatenate([
            cols[:16], cols[-16:], pick(cols[16:1024], 64, replace=False),
            pick(cols[cells - 1024:-16], 64, replace=False),
            pick(cols[1024:cells - 1024], 128, replace=False)])
    assert np.all(np.isfinite(y))
    for k in np.concatenate([cols, cols + cells, np.arange(2 * cells, size)]):
        err, tol = neg_log_gamma_error(s, w[k], y[k])
        assert err <= tol, (w[k], y[k], err, tol)


def test_neg_log_gamma_quantile_at_the_ends():
    # w = 0 is inf and w = 1, which (h + u) / P can round to, the root at
    # 1 - 2^-53; at s = 0.01 the smallest w of a stratum, 2^-68, puts e^-y
    # far below the smallest double, and y stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (0.01, 1.7, 150.5):
            y = channel._neg_log_gamma_quantile(
                s, np.array([0.0, 2.0 ** -68, 0.5, 1.0]))
            assert y[0] == np.inf and np.all(np.isfinite(y[1:]))
            for w, v in zip((2.0 ** -68, 0.5, 1.0), y[1:]):
                err, tol = neg_log_gamma_error(s, w, v)
                assert err <= tol, (s, w)
    tiny = channel._neg_log_gamma_quantile(0.01, np.array([2.0 ** -68]))
    assert tiny[0] > 4e3


def test_stratified_neg_log_gamma_law():
    # e^-Y over full and odd chunks follows Gamma(1.7), and each chunk's
    # draws k and k + P lie in stratum h's quantile interval
    s = 1.7
    sizes = [2 ** 16] * 3 + [1, 3, 4321, 16960, 2 ** 16 + 1]
    ys = [channel.stratified_neg_log(channel.NegLogGamma(s), RNG(200 + i),
                                     size) for i, size in enumerate(sizes)]
    result = sstats.kstest(np.exp(-np.concatenate(ys)), sstats.gamma(s).cdf)
    assert result.statistic < 1.36 / math.sqrt(sum(sizes))
    for y, size in zip(ys, sizes):
        cells = size // 2
        h = np.arange(2 * cells) % max(cells, 1)
        x = np.exp(-y[:2 * cells])
        ppf = sstats.gamma(s).ppf
        assert np.all(x >= ppf(h / max(cells, 1)) * (1 - 1e-12))
        assert np.all(x <= ppf((h + 1) / max(cells, 1)) * (1 + 1e-12))


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 400, 1025])
def test_stratified_uniform_strata(size):
    # draw k < 2P lies in stratum k mod P of P = size // 2, at (h + u) / P
    # for the stream's uniforms u; an odd size's last draw is its u
    cells, pairs = size // 2, 2 * (size // 2)
    u = RNG(12).random(size)
    h = np.arange(pairs) % max(cells, 1)
    w = channel.stratified_uniform(RNG(12), size)
    np.testing.assert_allclose(w[:pairs], (h + u[:pairs]) / cells, rtol=1e-15,
                               atol=0)
    np.testing.assert_array_equal(w[pairs:], u[pairs:])
    assert np.all((w >= 0.0) & (w < 1.0))
    assert np.all(np.floor(w[:pairs] * cells) == h)


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
    # a real mu outside alpha-mu builds and samples (the Gamma mixture is
    # defined there); a disabled fading has no draw
    for fp in (FadingParams(mu=1.5, eta=2.0), FadingParams(mu=1.5, kappa=0.5)):
        g = channel.fading_power(fp, RNG(0), 10)
        assert g.shape == (10,) and np.all(g > 0.0)
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


@pytest.mark.parametrize("mu", [1, 2, 3])
def test_fading_integer_mu_alpha_mu_is_one_gamma_draw(mu):
    # eta = 1, kappa = 0 at an integer mu draws mu G ~ Gamma(mu) as one
    # standard_gamma call, like a non-integer mu, and follows Gamma(mu)
    fp = FadingParams(alpha=2.0, eta=1.0, kappa=0.0, mu=mu)
    g = channel.fading_power(fp, RNG(40 + mu), 100_000)
    np.testing.assert_array_equal(
        g, (1.0 / mu) * RNG(40 + mu).standard_gamma(float(mu), 100_000))
    result = sstats.kstest(g * mu, sstats.gamma(mu).cdf)
    assert result.statistic < 1.36 / math.sqrt(g.size)


def mixture_cdf(fp, g):
    """P(G <= g) at each g of analytics._power_mixture's Gamma mixture,
    its weights times scipy's gammainc, 1024 terms at a time; terms
    below 1e-18 of the weights' sum are left out."""
    r, n, chunks = analytics._power_mixture(fp)
    parts = list(chunks)
    w = np.concatenate([c * 2.0 ** (e - parts[-1][0]) for e, c in parts])
    w /= w.sum()
    keep = w > 1e-18
    w, s = w[keep], (fp.mu + np.arange(n))[keep]
    return sum(w[i:i + 1024] @ special.gammainc(s[i:i + 1024, None], r * g)
               for i in range(0, w.size, 1024))


@pytest.mark.parametrize("eta,kappa,mu", [
    (2.0, 0.0, 2.0), (1.0, 1.0, 1.0), (0.5, 0.4, 4.0), (20.0, 3.0, 1.0),
    (1e3, 0.0, 1.0), (2.0, 1.0, 2.5), (0.3, 2.0, 0.7)])
def test_fading_power_follows_the_mixture_law(eta, kappa, mu):
    # the sampler's draws against the law analytics integrates, real mu
    # included: the KS distance taken at 512 order statistics, a lower
    # bound of the full one within the law's largest step between them
    # (about 1/512), so the 5 % threshold 1.36 / sqrt(n) keeps its level
    fp = FadingParams(alpha=2.0, eta=eta, kappa=kappa, mu=mu)
    n = 200_000
    g = np.sort(channel.fading_power(fp, RNG(62), n))
    at = np.linspace(0, n - 1, 512).astype(int)
    f = mixture_cdf(fp, g[at])
    d = max(np.max((at + 1) / n - f), np.max(f - at / n))
    assert d < 1.36 / math.sqrt(n)


@pytest.mark.parametrize("kw", [dict(eta=2.0, mu=2), dict(kappa=1.0, mu=1),
                                dict(eta=0.5, kappa=0.4, mu=3)])
def test_fading_eta_mu_and_kappa_mu_match_the_gaussian_construction(kw):
    # two-sample KS against the physical cluster construction at integer
    # mu, each from its own stream
    fp = FadingParams(alpha=2.0, **kw)
    result = sstats.ks_2samp(
        channel.fading_power(fp, RNG(50), 100_000),
        reference.fading_gaussian_construction(fp, RNG(51), 100_000))
    assert result.pvalue > 0.01

SHAPES = [2.0, 2.5, 3.0, 4.5]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("size", [1, 2, 3, 4321, 2 ** 16 + 1])
def test_stratified_log_gamma_cells(shape, size):
    # the stratified score's drawn log-losses, absorption integrated, with
    # alpha-mu fading of mu = shape: -ln h_p = -ln(U V) / (rho - theta)
    # with -ln(U V) from stratified_neg_log (draws k and k +
    # size // 2 share a stratum, an odd size's last draw is iid), and mu G
    # ~ Gamma(shape - theta / alpha) on the fading stream.  Each score is
    # Q(k, z max(ln(h / gamma_h), 0)) times the likelihood ratio
    # (rho / (rho - theta))^2 h_p^theta (mu G)^(theta / alpha)
    # Gamma(shape - theta / alpha) / Gamma(shape), composed with scipy
    ab = GammaAbsorption(k=1.0, beta=60.0)
    fp = FadingParams(alpha=2.0, mu=shape, r_hat=1.3)
    exp = make_experiment(absorption=ab, fading=fp,
                          misalignment=MisalignmentParams(rho=4.0))
    rule = channel.outage_rule(exp)
    assert rule.integrated == "absorption" and rule.tilt > 0.0
    theta, rho, z = rule.tilt, 4.0, ab.z_for(exp.link)
    gamma_h = exp.link.a_l * fp.r_hat * math.exp(-1.5)

    def rng(comp):
        return RNG([22, comp])

    [got] = channel.outage_score(exp, [gamma_h], size, rng)
    y = channel.stratified_neg_log(channel.NEG_LOG_PRODUCT,
                                   rng(streams.MISALIGNMENT), size)
    x = rng(streams.FADING).standard_gamma(shape - theta / fp.alpha, size)
    h_p = np.exp(-y / (rho - theta))
    h_f = fp.r_hat * np.power(x / shape, 1.0 / fp.alpha)
    h = exp.link.a_l * h_p * h_f
    ratio = ((rho / (rho - theta)) ** 2 * h_p ** theta
             * np.power(x, theta / fp.alpha)
             * math.exp(special.gammaln(shape - theta / fp.alpha)
                        - special.gammaln(shape)))
    want = special.gammaincc(ab.k, z * np.maximum(np.log(h / gamma_h), 0.0))
    assert got.shape == (size,)
    np.testing.assert_allclose(got, want * ratio, rtol=1e-12, atol=1e-300)


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
    for edge in (1.0, a + 1.0, a + 10.0):   # series / fraction branch edges
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


LOG_ENTRY_A = [0.25, 0.5, 1.0, 1.5, 2.5, 4.0, 7.3, 20.0, 150.0]


@pytest.mark.parametrize("a", LOG_ENTRY_A)
def test_gammainc_from_log_x_matches_mpmath(a):
    # the entry alpha_mu_cdf_log takes: P(a, e^L) with the prefactor from
    # L itself.  L's own rounding, times a, is the input's conditioning,
    # so the bound is a |L| ulps plus 16; beyond a = 100 the exponent also
    # carries ln Gamma(a+1) whole, and its rounding with it
    L = list(np.linspace(math.log(1e-30), math.log(a + 60.0), 300))
    for edge in (1.0, a + 1.0, a + 10.0):     # both sides of every split
        step = 4 * np.spacing(max(abs(math.log(edge)), 1.0))
        L += [math.log(edge) + k * step for k in (-2, -1, 0, 1, 2)]
    L = np.array(L)
    x = np.exp(L)
    for edge in (1.0, a + 1.0, a + 10.0):
        assert np.any(x < edge) and np.any(x > edge)
    p = channel._regularized_gamma(a, x.copy(), False, L.copy())
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.gammainc(
            a, 0, mpmath.exp(mpmath.mpf(float(v))), regularized=True))
            for v in L])
    ulps = a * np.abs(L) + 16.0 + (math.lgamma(a + 1.0) if a > 100 else 0.0)
    live = ref > 1e-300
    assert np.all(np.abs(p[live] - ref[live])
                  <= ulps[live] * np.finfo(float).eps * ref[live])
    assert np.all(p[~live] <= 1e-299)


@pytest.mark.parametrize("a", LOG_ENTRY_A)
def test_economized_series_is_the_taylor_sum(a):
    # the economized coefficients on [0, 1] against the full Taylor sum
    # 1F1(1; a+1; x), both evaluated at 40 digits
    coef = channel._economized_series(a)
    assert len(coef) < len(channel._series_terms(a, 1.0, 1e-17))
    with mpmath.workdps(40):
        for x in np.linspace(0.0, 1.0, 401):
            x = mpmath.mpf(float(x))
            econ = mpmath.polyval([mpmath.mpf(c) for c in reversed(coef)], x)
            full = mpmath.hyp1f1(1, mpmath.mpf(a) + 1, x)
            assert abs(econ - full) <= 1e-16 * full


def test_incomplete_gamma_leaves_its_inputs_unchanged():
    # the kernel writes into scratch arrays of its own, never the caller's
    x = np.array([0.0, 0.3, 1.0, 2.0, 2.6, 12.0, 40.0, np.inf])
    log_u = np.log(x[1:])
    kept_x, kept_log_u = x.copy(), log_u.copy()
    channel.gammainc(1.5, x)
    channel.gammaincc(1.5, x)
    channel.alpha_mu_cdf_log(log_u, FadingParams(alpha=1.0, mu=1.5))
    channel.alpha_mu_cdf_log(log_u, FadingParams(alpha=2.0, mu=1.5, r_hat=1.3))
    np.testing.assert_array_equal(x, kept_x)
    np.testing.assert_array_equal(log_u, kept_log_u)


def test_alpha_mu_cdf_log_can_overwrite_its_input():
    # overwrite_input builds ln x in log_u itself, to the same values
    log_u = np.linspace(-12.0, 2.0, 500)
    fp = FadingParams(alpha=2.0, mu=1.5, r_hat=1.3)
    want = channel.alpha_mu_cdf_log(log_u, fp)
    scratch = log_u.copy()
    got = channel.alpha_mu_cdf_log(scratch, fp, overwrite_input=True)
    np.testing.assert_array_equal(got, want)
    assert not np.array_equal(scratch, log_u)


@pytest.mark.parametrize("a", [1.0, 1.5, 2.5, 3.0, 40.5])
def test_lower_gamma_cut_off_is_bit_identical(a):
    # from _lower_cut(a) on P is 1.0 without the continued fraction; the
    # fraction's 1 - Q, at its fixed depth, gives exactly that, as Q <
    # 2^-55 there: every x past a + 10 reads the same bits as when the
    # fraction took them all, by x and by ln x
    cut = channel._lower_cut(a)
    with mpmath.workdps(40):
        q = mpmath.gammainc(a, mpmath.mpf(cut), mpmath.inf, regularized=True)
    assert a + 10.0 <= cut and q < 2.0 ** -55
    x = np.geomspace(1e-3, 10.0 * cut, 4000)
    assert np.any(x >= cut)
    far = x >= a + 10.0
    want = channel.gammainc(a, x)
    want[far] = 1.0 - channel._gammaincc_fraction(a, x[far])
    np.testing.assert_array_equal(channel.gammainc(a, x), want)
    got = channel._regularized_gamma(a, x.copy(), False, np.log(x))
    np.testing.assert_array_equal(got[far], want[far])
    np.testing.assert_array_equal(got[x >= cut], 1.0)


@pytest.mark.parametrize("a", [0.7, 1.5, 2.5, 150.0])
def test_weighted_gammainc_is_the_product(a):
    # weight = (b, c) folds x^-b e^c into the prefactor: the tilted outage
    # score's likelihood ratio, on every branch of the evaluation
    L = np.linspace(-30.0, math.log(a + 60.0), 3000)
    b, c = 0.75 * min(a, 1.5), 0.4
    got = channel._regularized_gamma(a, np.exp(L), False, L.copy(), (b, c))
    want = channel._regularized_gamma(a, np.exp(L), False, L.copy())
    normal = want > 1e-290          # the product rounds P itself first
    want *= np.exp(c - b * L)
    # beyond a = 100 the exponent carries ln Gamma(a+1) and its rounding
    np.testing.assert_allclose(got[normal], want[normal],
                               rtol=1e-13 * max(1.0, a / 50.0), atol=0)
    assert np.all(got[~normal] <= 1e-280)


def test_gammainc_endpoints_and_shapes():
    assert channel.gammainc(2.5, 0.0) == 0.0
    assert channel.gammainc(2.5, math.inf) == 1.0
    assert channel.gammainc(0.3, math.inf) == 1.0
    x = np.array([[0.0, 0.5], [3.0, np.inf]])
    p = channel.gammainc(1.0, x)
    assert p.shape == (2, 2)
    np.testing.assert_allclose(p, 1.0 - np.exp(-x), rtol=1e-15, atol=0)
    assert isinstance(channel.gammainc(1.0, 0.5), float)


def test_gammaincc_on_many_x_matches_fewer_at_a_time():
    # the continued fraction runs to one depth per a, whatever the x
    # beside it: 65536 x at a = 1.5 read the same bits as 1024 at a time
    # (a forward loop that stopped once every x had converged drifted
    # 8e-13 between the two)
    x = 2.5 + np.random.default_rng(3).exponential(1.0, 65536)
    q = channel.gammaincc(1.5, x)
    parts = np.concatenate([channel.gammaincc(1.5, x[i:i + 1024])
                            for i in range(0, x.size, 1024)])
    np.testing.assert_array_equal(q, parts)


@pytest.mark.parametrize("a", [0.5, 2.5, 3.0, 7.3])
def test_incomplete_gamma_on_an_array_reads_as_its_scalars(a):
    # every branch (series on [0, 1] and its two bands above, the fraction,
    # 1 - Q and the cut-off to 1.0) takes each x alone: an array call is
    # its scalar calls to the bit
    x = np.concatenate([np.geomspace(0.5, 500.0, 400),
                        [1.0, 4.0, a + 1.0, a + 10.0, channel._lower_cut(a)]])
    for fn in (channel.gammainc, channel.gammaincc):
        assert fn(a, x).tolist() == [fn(a, float(v)) for v in x], fn


@pytest.mark.parametrize("a,x", [(1000.5, 990.0), (50000.5, 49000.0)])
def test_gammainc_prefactor_beyond_a_hundred(a, x):
    # P and Q at large a against 40-digit mpmath: the prefactor's exponent
    # a ln(x/a) + (a - x) + s(a) - ln a keeps its digits (a ln x - x -
    # ln Gamma(a+1) was off by 6e-13 and 3e-11 here); what is left is the
    # rounding of a ln(x/a), about |x - a| eps / 2, plus a few ulps: the
    # bound (|x - a| + 16) eps is 5.9e-15 and 2.3e-13 (1.6e-15 and 1.7e-13
    # measured on P)
    bound = (abs(x - a) + 16.0) * np.finfo(float).eps
    with mpmath.workdps(40):
        p = mpmath.gammainc(a, 0, x, regularized=True)
        q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
    assert abs(channel.gammainc(a, x) - p) <= bound * p
    assert abs(channel.gammaincc(a, x) - q) <= bound * q


def test_alpha_mu_cdf_is_gamma_law():
    fp = FadingParams(alpha=3.5, mu=2.5, r_hat=1.3)
    u = np.geomspace(1e-3, 3.0, 40)
    ref = sstats.gamma.cdf(fp.mu * (u / fp.r_hat) ** fp.alpha, a=fp.mu)
    np.testing.assert_allclose(channel.alpha_mu_cdf(u, fp), ref,
                               rtol=1e-12, atol=1e-15)
    assert channel.alpha_mu_cdf(0.9, fp) == channel.alpha_mu_cdf(
        np.array([0.9]), fp)[0]
    with warnings.catch_warnings():     # ln 0 = -inf is no error here
        warnings.simplefilter("error")
        assert channel.alpha_mu_cdf(0.0, fp) == 0.0
        assert channel.alpha_mu_cdf(math.inf, fp) == 1.0
    with pytest.raises(UnsupportedParams,
                       match="outage score integrates only alpha-mu"):
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
    prof = DeterministicAbsorption()
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
