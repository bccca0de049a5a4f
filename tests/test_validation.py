"""Goodness-of-fit calibration and power, outage curves, slopes, bound sweeps."""
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from thzra import analytics, channel, cli, params, streams, validation
from thzra.params import (DeterministicAbsorption, Experiment, FadingParams,
                          GammaAbsorption, MisalignmentParams, ProtocolConfig,
                          ThzLinkParams)

import reference

SWEEP_CFG = Path(__file__).resolve().parents[1] / "configs" / "sweep_outage.cfg"


def make_experiment(**kw):
    link = kw.pop("link", ThzLinkParams(
        f_hz=300e9, d_m=100.0, gain_tx=316227.766, gain_rx=316227.766,
        k_t=0.0, k_r=0.0, avg_snr=10 ** 4.5))
    return Experiment(
        link=link,
        absorption=kw.pop("absorption", GammaAbsorption(k=3, beta=10.0)),
        fading=kw.pop("fading", FadingParams(enabled=False)),
        misalignment=kw.pop("misalignment", MisalignmentParams(rho=4.0)),
        protocol=ProtocolConfig())


# ---------------------------------------------------------------------------
# KS harness
# ---------------------------------------------------------------------------

def test_ks_calibration_nominal_rejection_rate():
    # samples drawn from the analytic law itself: ~5% rejections at the
    # 1.36/sqrt(n) threshold
    rho = 3.0
    passes = 0
    reps = 200
    for i in range(reps):
        rng = np.random.default_rng(1000 + i)
        hp = channel.sample_misalignment(rho, rng, 2000)
        rep = validation.ks_compare(hp, lambda x: reference.misalignment_cdf(x, rho))
        passes += rep.passed
    rate = passes / reps
    assert 0.90 <= rate <= 0.995      # 95% nominal, 3 sigma binomial slack


def test_ks_detects_perturbed_rho():
    rho = 4.0
    rng = np.random.default_rng(7)
    hp = channel.sample_misalignment(rho * 1.1, rng, 100_000)
    rep = validation.ks_compare(hp, lambda x: reference.misalignment_cdf(x, rho))
    assert not rep.passed


def test_ks_passes_exact_sampler_at_1e5():
    rng = np.random.default_rng(3)
    hp = channel.sample_misalignment(4.0, rng, 100_000)
    rep = validation.ks_compare(hp, lambda x: reference.misalignment_cdf(x, 4.0))
    assert rep.passed
    assert rep.threshold == pytest.approx(1.36 / math.sqrt(100_000))
    assert math.isnan(rep.p_value)


# ---------------------------------------------------------------------------
# chi-square harness
# ---------------------------------------------------------------------------

def test_chi_square_passes_own_law_and_detects_perturbation():
    link = make_experiment().link
    model = GammaAbsorption(k=3, beta=10.0)
    rng = np.random.default_rng(9)
    hl = channel.sample_path_gain(model, link, rng, 100_000)
    cdf = lambda x: channel.path_gain_cdf(x, model, link)
    rep = validation.chi_square_compare(hl, cdf, support=(0.0, link.a_l))
    assert rep.passed
    assert rep.p_value > 0.01
    wrong = GammaAbsorption(k=3, beta=12.0)
    rep_bad = validation.chi_square_compare(
        hl, lambda x: channel.path_gain_cdf(x, wrong, link),
        support=(0.0, link.a_l))
    assert not rep_bad.passed


@pytest.mark.parametrize("df", [1, 3, 10, 49, 200])
def test_chi_square_tail_and_threshold_match_oracles(df):
    # threshold against scipy's chdtri; the tail against 40-digit mpmath,
    # as scipy's chdtrc is itself 3e-14 off at df = 200, p = 1e-6
    for p in (1e-6, 0.01, 0.5):
        x = special.chdtri(df, p)
        assert validation.chi2_threshold(df, p) == pytest.approx(
            x, rel=1e-14, abs=0)
        with mpmath.workdps(40):
            tail = float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2,
                                         mpmath.inf, regularized=True))
        assert channel.gammaincc(df / 2.0, x / 2.0) == pytest.approx(
            tail, rel=1e-14, abs=0)


@pytest.mark.parametrize("n", [1, 5, 40, 1000])
def test_bonferroni_z_is_normal_quantile(n):
    ref = -special.ndtri(validation.AGREEMENT_ALPHA / (2.0 * n))
    assert abs(validation.bonferroni_z(n) - ref) <= 1e-15


# ---------------------------------------------------------------------------
# outage curves
# ---------------------------------------------------------------------------

GRID = [25.0, 29.0, 33.0, 37.0, 41.0]


def test_outage_curve_monotone_and_reproducible():
    exp = make_experiment()
    gth = 10 ** 0.5
    c1 = validation.outage_mc(exp, gth, GRID, 100_000, seed=3)
    c2 = validation.outage_mc(exp, gth, GRID, 100_000, seed=3)
    np.testing.assert_array_equal(c1.p_out, c2.p_out)
    # monotone nonincreasing up to CI noise: compare interval envelopes
    for i in range(len(GRID) - 1):
        assert c1.ci_lo[i + 1] <= c1.ci_hi[i]
    assert np.all(c1.ci_lo <= c1.p_out) and np.all(c1.p_out <= c1.ci_hi)


def test_outage_grows_with_mean_absorption():
    gth = 10 ** 0.5
    light = make_experiment(absorption=GammaAbsorption(k=3, beta=5.0))
    heavy = make_experiment(absorption=GammaAbsorption(k=3, beta=25.0))
    cl = validation.outage_mc(light, gth, GRID, 150_000, seed=4)
    ch = validation.outage_mc(heavy, gth, GRID, 150_000, seed=4)
    assert np.all(ch.p_out > cl.p_out)


def test_outage_matches_closed_form_within_3se():
    exp = make_experiment(link=replace(make_experiment().link, k_t=0.1, k_r=0.1))
    gth = 10 ** 0.5
    n = 200_000
    curve = validation.outage_mc(exp, gth, GRID, n, seed=5)
    for db, phat in zip(curve.gamma_bar_db, curve.p_out):
        q = analytics.OutageQuery(gth, 10 ** (db / 10.0), exp.link.k_h)
        p = analytics.cdf_snr_no_fading(q, exp.absorption,
                                        exp.misalignment.rho, exp.link)
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(phat - p) <= 3 * se


@pytest.mark.parametrize("fading,conditioned", [
    (FadingParams(enabled=False), "misalignment"),
    (FadingParams(alpha=2.0, mu=1), "fading"),          # alpha mu < rho = 4
    (FadingParams(alpha=2.0, mu=2), "misalignment"),    # alpha mu = rho
    (FadingParams(alpha=2.0, mu=1, kappa=1.0), "misalignment"),  # not alpha-mu
    (FadingParams(alpha=2.0, mu=2, eta=2.0), "misalignment"),    # not alpha-mu
], ids=["fading_off", "fading_on", "fading_on_at_rho", "fading_kappa_mu",
        "fading_eta_mu"])
@pytest.mark.parametrize("k_t", [0.0, 0.1], ids=["k_h=0", "k_h=0.1414"])
@pytest.mark.parametrize("absorption", ["gamma", "deterministic"])
def test_outage_mc_matches_crude_count(fading, conditioned, k_t, absorption):
    # one component integrated out vs hit counting, independent seeds
    exp = make_experiment(
        link=replace(make_experiment().link, k_t=k_t, k_r=k_t),
        fading=fading,
        absorption=GammaAbsorption(k=3, beta=10.0) if absorption == "gamma"
        else DeterministicAbsorption())
    grid = [25.0, 33.0, 41.0]
    mc = validation.outage_mc(exp, 10 ** 0.5, grid, 100_000, seed=1)
    count = reference.outage_count(exp, 10 ** 0.5, grid, 100_000, seed=2)
    assert (mc.conditioned, count.conditioned) == (conditioned, "none")
    assert np.all(count.p_out > 1e-4)       # at least ten hits per point
    combined = np.sqrt(mc.se ** 2 + count.se ** 2)
    assert np.all(np.abs(mc.p_out - count.p_out) <= 4.0 * combined)
    np.testing.assert_array_equal(count.vrf, 1.0)


def test_outage_mc_exact_where_the_score_is_constant():
    # deterministic absorption with fading off: every draw scores the same
    # misalignment CDF value, so the estimate is exact, se is 0.0 and vrf
    # is inf, not the rounding residue of a sum-of-squares variance
    exp = make_experiment(absorption=DeterministicAbsorption())
    grid = [25.0, 33.0, 41.0]
    curve = validation.outage_mc(exp, 10 ** 0.5, grid, 100_000, seed=1)
    h_l = channel.sample_path_gain(exp.absorption, exp.link, None, 1)[0]
    for i, db in enumerate(grid):
        q = analytics.OutageQuery(10 ** 0.5, 10 ** (db / 10.0), exp.link.k_h)
        assert curve.p_out[i] == pytest.approx(
            reference.misalignment_cdf(min(q.gamma_h / h_l, 1.0), 4.0),
            rel=1e-15)
    np.testing.assert_array_equal(curve.se, 0.0)
    np.testing.assert_array_equal(curve.vrf, np.inf)
    np.testing.assert_array_equal(curve.ci_lo, curve.p_out)
    np.testing.assert_array_equal(curve.ci_hi, curve.p_out)


class ZeroDraws:
    """A Generator whose uniform and Gamma draws 0 and size // 2 are 0.0,
    which Generator.random and a Gamma draw can return: U V = 0 (h_p = 0)
    from the stratified -ln(U V) (the two draws of stratum 0, w = 0), and
    G = 0 (h_f = 0) from a Gamma draw.  Its other draws are the
    Generator's."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self, size):
        return self.zeroed(self.rng.random(size))

    def standard_gamma(self, shape, size):
        return self.zeroed(self.rng.standard_gamma(shape, size))

    @staticmethod
    def zeroed(x):
        x[[0, x.size // 2]] = 0.0
        return x


def tilt_ratio_bound(exp):
    """The largest likelihood ratio of a draw whose gains lie at or below
    a_l, 1 and r_hat, over the tilted components of outage_rule: (z / (z
    - theta))^k, (rho / (rho - theta))^2 and, for fading, r^(theta /
    alpha) Gamma(mu + M - theta / alpha) / Gamma(mu + M) at M = 0, where
    it is largest (ln Gamma is convex)."""
    rule, fp, rho = channel.outage_rule(exp), exp.fading, exp.misalignment.rho
    theta, m = rule.tilt, 1.0
    if rule.integrated != "absorption" and isinstance(
            exp.absorption, GammaAbsorption):
        z = exp.absorption.z_for(exp.link)
        m *= (z / (z - theta)) ** exp.absorption.k
    if rule.integrated != "misalignment":
        m *= (rho / (rho - theta)) ** 2
    if rule.integrated != "fading" and fp.enabled:
        b = theta / fp.alpha
        m *= channel.fading_mixture(fp)[0] ** b * math.exp(
            math.lgamma(fp.mu - b) - math.lgamma(fp.mu))
    return m


def linear_draws(exp, m, rng):
    """The gains outage_score draws, in linear form, and each draw's
    likelihood ratio: h_l, h_p, h_f (None for the integrated component,
    h_f = 1 with fading off) and the ratio, the product over the drawn
    components of (z / (z - theta))^k (h_l / a_l)^theta, (rho / (rho -
    theta))^2 h_p^theta and e^(c_M) r^(theta / alpha) (h_f /
    r_hat)^theta, 1 at theta = 0: h_l = a_l e^(-Gamma(k) / (z - theta))
    (deterministic absorption's constant), h_p =
    e^(-stratified_neg_log_product / (rho - theta)) and h_f = r_hat
    (Gamma(mu + M - theta / alpha) / r)^(1/alpha) given
    channel.fading_index's (r, M), c_M = ln Gamma(mu + M - theta / alpha)
    - ln Gamma(mu + M) from scipy."""
    fp, ab, link, rho = (exp.fading, exp.absorption, exp.link,
                         exp.misalignment.rho)
    rule = channel.outage_rule(exp)
    theta, ratio = rule.tilt, 1.0
    h_l = h_p = h_f = None
    with np.errstate(divide="ignore"):      # U V = 0: -ln = inf, h_p = 0
        if rule.integrated != "absorption":
            if isinstance(ab, GammaAbsorption):
                z = ab.z_for(link)
                t = rng(streams.ABSORPTION).standard_gamma(ab.k, m)
                h_l = link.a_l * np.exp(-t / (z - theta))
                ratio = ratio * (z / (z - theta)) ** ab.k * (
                    h_l / link.a_l) ** theta
            else:
                h_l = channel.sample_path_gain(ab, link, None, m)
        if rule.integrated != "misalignment":
            h_p = np.exp(-channel.stratified_neg_log_product(
                rng(streams.MISALIGNMENT), m) / (rho - theta))
            ratio = ratio * (rho / (rho - theta)) ** 2 * h_p ** theta
        if rule.integrated != "fading" and fp.enabled:
            fading = rng(streams.FADING)
            r, index = channel.fading_index(fp, fading, m)
            b, shape = theta / fp.alpha, fp.mu + np.asarray(index, float)
            x = fading.standard_gamma(shape - b, m)
            h_f = fp.r_hat * (x / r) ** (1.0 / fp.alpha)
            ratio = ratio * np.exp(special.gammaln(shape - b)
                                   - special.gammaln(shape)) * r ** b * (
                h_f / fp.r_hat) ** theta
        elif rule.integrated != "fading":
            h_f = 1.0
    return h_l, h_p, h_f, ratio


def linear_score(exp, gamma_h, m, rng):
    """The conditional outage score composed from linear_draws and the
    channel's linear CDFs, times the draw's likelihood ratio: the
    alpha-mu CDF at gamma_h / (h_l h_p), F_p at min(gamma_h / (h_l h_f), 1)
    or the path-gain CDF at gamma_h / (h_p h_f)."""
    h_l, h_p, h_f, ratio = linear_draws(exp, m, rng)
    with np.errstate(divide="ignore"):      # h = 0 gives gamma_h / h = inf
        if h_f is None:
            score = channel.alpha_mu_cdf(gamma_h / (h_l * h_p), exp.fading)
        elif h_l is None:
            score = channel.path_gain_cdf(gamma_h / (h_p * h_f),
                                          exp.absorption, exp.link)
        else:
            score = reference.misalignment_cdf(
                np.minimum(gamma_h / (h_l * h_f), 1.0), exp.misalignment.rho)
    return score * ratio


DETERMINISTIC = "deterministic"
SET_B = GammaAbsorption(k=1.0, beta=60.0)   # criterion 8's z = 1.45 < 2, 4
SCORE_BRANCHES = {
    # name: (fading, rho, absorption, k_t, integrated)
    "fading_off": (FadingParams(enabled=False), 4.0, None, 0.0,
                   "misalignment"),
    "alpha_mu_on_fading": (FadingParams(alpha=1.0, mu=1.5, r_hat=1.3), 4.1,
                           None, 0.0, "fading"),
    "alpha_mu_on_misalignment": (FadingParams(alpha=1.0, mu=2.5, r_hat=1.3),
                                 2.0, None, 0.0, "misalignment"),
    "alpha_mu_integer_mu": (FadingParams(alpha=2.0, mu=1), 4.0, None, 0.0,
                            "fading"),
    "eta_mu": (FadingParams(alpha=2.0, mu=2, eta=2.0, r_hat=0.8), 4.0, None,
               0.0, "misalignment"),
    "eta_mu_on_absorption": (FadingParams(alpha=2.0, mu=2, eta=2.0), 4.0,
                             SET_B, 0.0, "absorption"),
    "kappa_mu": (FadingParams(alpha=2.0, mu=1, kappa=1.0), 4.0, None, 0.0,
                 "misalignment"),
    "deterministic_fading_off": (FadingParams(enabled=False), 4.0,
                                 DETERMINISTIC, 0.0, "misalignment"),
    "deterministic_on_fading": (FadingParams(alpha=2.0, mu=1), 4.0,
                                DETERMINISTIC, 0.0, "fading"),
    "deterministic_on_misalignment": (FadingParams(alpha=1.0, mu=2.5), 2.0,
                                      DETERMINISTIC, 0.0, "misalignment"),
    "k_h_on_fading": (FadingParams(alpha=1.0, mu=1.5), 4.1, None, 0.1,
                      "fading"),
    "k_h_on_misalignment": (FadingParams(alpha=2.0, mu=2, eta=2.0), 4.0,
                            None, 0.1, "misalignment"),
    "alpha_mu_on_absorption": (FadingParams(alpha=2.0, mu=1, r_hat=1.3), 4.0,
                               SET_B, 0.0, "absorption"),
}


def branch_experiment(name):
    fading, rho, absorption, k_t, integrated = SCORE_BRANCHES[name]
    exp = make_experiment(
        link=replace(make_experiment().link, k_t=k_t, k_r=k_t),
        fading=fading, misalignment=MisalignmentParams(rho=rho),
        absorption=(DeterministicAbsorption() if absorption == DETERMINISTIC
                    else absorption or GammaAbsorption(k=3, beta=10.0)))
    assert channel.outage_rule(exp).integrated == integrated
    return exp


@pytest.mark.parametrize("name", sorted(SCORE_BRANCHES))
@pytest.mark.parametrize("db", [25.0, 45.0])
def test_outage_score_is_the_linear_composition(name, db):
    # the log-domain score of one chunk's substreams, draw by draw, against
    # the same substreams composed in linear form
    exp = branch_experiment(name)
    q = analytics.OutageQuery(10 ** 0.5, 10 ** (db / 10.0), exp.link.k_h)
    m = validation.OUTAGE_CHUNK

    def rng(comp):
        return streams.substream(17, 1, m, comp)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [got] = channel.outage_score(exp, [q.gamma_h], m, rng)
    want = linear_score(exp, q.gamma_h, m, rng)
    assert got.shape == (m,)
    # a probability times a likelihood ratio, within [0, M(theta)] (1
    # where nothing is tilted): the ratio exceeds M(theta) only where a
    # fading gain exceeds r_hat, and such draws score far below 1 here
    assert np.all((got >= 0.0) & (got <= tilt_ratio_bound(exp)))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("name", ["alpha_mu_on_fading",
                                  "alpha_mu_on_misalignment",
                                  "deterministic_on_fading",
                                  "eta_mu_on_absorption"])
def test_outage_score_of_a_zero_gain_is_one(name, monkeypatch):
    # at theta = 0 a stratified -ln(U V) = inf (u = 0 in stratum 0) on
    # fading or absorption, or G = 0 from the Gamma fading draws on
    # misalignment, means h = 0: the draw is in outage, scored 1 without a
    # RuntimeWarning (tilted, the same draw scores 0:
    # test_tilted_score_of_a_zero_gain_is_zero).  Every config tilts, so
    # theta = 0 is reached at TILT_FRACTION = 0
    exp = branch_experiment(name)
    monkeypatch.setattr(channel, "TILT_FRACTION", 0.0)
    assert channel.outage_rule(exp).tilt == 0.0
    q = analytics.OutageQuery(10 ** 0.5, 10 ** 4.5, exp.link.k_h)

    def rng(comp):
        return ZeroDraws(streams.substream(3, 0, 0, comp))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [got] = channel.outage_score(exp, [q.gamma_h], 1000, rng)
    np.testing.assert_array_equal(got[[0, 500]], 1.0)
    np.testing.assert_allclose(got, linear_score(exp, q.gamma_h, 1000, rng),
                               rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("name", ["alpha_mu_on_fading",
                                  "alpha_mu_on_misalignment",
                                  "alpha_mu_on_absorption", "eta_mu",
                                  "kappa_mu"])
def test_tilted_score_of_a_zero_gain_is_zero(name):
    # a stratified -ln(U V) = inf (u = 0 in stratum 0) or a tilted Gamma
    # draw G = 0 is h = 0, in outage, but its likelihood ratio e^(-theta D)
    # is 0 at D = inf: scored exactly 0, not 1 * 0 by way of NaN, and
    # without a RuntimeWarning
    exp = branch_experiment(name)
    assert channel.outage_rule(exp).tilt > 0.0
    q = analytics.OutageQuery(10 ** 0.5, 10 ** 4.5, exp.link.k_h)

    def rng(comp):
        return ZeroDraws(streams.substream(3, 0, 0, comp))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [got] = channel.outage_score(exp, [q.gamma_h], 1000, rng)
    np.testing.assert_array_equal(got[[0, 500]], 0.0)
    assert not np.any(np.isnan(got))
    np.testing.assert_allclose(got, linear_score(exp, q.gamma_h, 1000, rng),
                               rtol=1e-13, atol=1e-300)


def test_outage_score_memory_is_pinned():
    # the tracemalloc peak of one 2^16-draw misalignment-conditioned chunk
    # scored at 3 points: 2 622 712 B, 5.0 chunk arrays (the drawn
    # log-loss, the shift buffer, the caller's last score and the two
    # temporaries of misalignment_cdf_log; 3 147 096 B with a third, for
    # 1 - rho L).  One chunk array of slack, so that no live temporary is
    # added unnoticed
    exp = branch_experiment("alpha_mu_on_misalignment")
    m = validation.OUTAGE_CHUNK
    gamma_hs = [analytics.OutageQuery(10 ** 0.5, 10 ** (db / 10.0),
                                      exp.link.k_h).gamma_h
                for db in (40.0, 45.0, 50.0)]

    def chunk():
        for score in channel.outage_score(
                exp, gamma_hs, m, lambda comp: streams.substream(7, 0, comp)):
            pass

    chunk()         # first-use costs (caches, substream set-up) off the count
    tracemalloc.start()
    try:
        chunk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_622_712 + 8 * m, peak


@pytest.mark.parametrize("rho,mu,arrays", [(4.1, 2.5, 5.02), (2.0, 2.5, 5.01),
                                           (2.0, 1.5, 5.93), (4.1, 1.5, 5.01)])
def test_outage_chunk_memory_on_sweep_cells(rho, mu, arrays):
    # the tracemalloc peak of one 2^16-draw chunk of a sweep cell scored at
    # 40, 45 and 50 dB, in chunk arrays of 8 * 2^16 B: 5.016 on (4.1, 2.5),
    # conditioned on fading, where the alpha-mu CDF builds ln x in the
    # score's per-point buffer (6.016 when it took a new array), and 5.003
    # on (2, 2.5), on misalignment.  On (2, 1.5), conditioned on fading,
    # 5.924: the tilt sends 31-45 % of the chunk above x = 1, where
    # _gamma_above_one holds gathered copies and their series temporaries
    # beside the chunk's arrays; 5.006 on (4.1, 1.5).  The table of
    # stratum-bound quantiles is built by the first chunk, off the count
    cfg = params.run_config(cli.read_config(SWEEP_CFG))
    exp = params.apply_cell(cfg.exp, {"rho": rho, "mu": mu})
    m = validation.OUTAGE_CHUNK
    gamma_hs = [analytics.OutageQuery(cfg.gamma_th, 10 ** (db / 10.0),
                                      exp.link.k_h).gamma_h
                for db in (40.0, 45.0, 50.0)]

    def chunk():
        for score in channel.outage_score(
                exp, gamma_hs, m, lambda comp: streams.substream(7, 0, comp)):
            pass

    chunk()
    tracemalloc.start()
    try:
        chunk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * m, peak / (8 * m)


@pytest.mark.parametrize("gamma_th,expected", [(0.0, 0.0), (math.inf, 1.0)])
@pytest.mark.parametrize("name", ["fading_off", "eta_mu",
                                  "deterministic_fading_off"])
def test_settled_points_on_every_branch(name, gamma_th, expected):
    # test_outage_mc_settled_thresholds conditions on fading; the same
    # points on the misalignment branches score without drawing
    exp = branch_experiment(name)
    curve = validation.outage_mc(exp, gamma_th, [30.0], 1000, seed=1)
    assert (curve.p_out[0], curve.se[0]) == (expected, 0.0)


def sweep_cells():
    """(coords, gamma_th, experiment) per cell of configs/sweep_outage.cfg."""
    cfg = params.run_config(cli.read_config(SWEEP_CFG))
    names = sorted(cfg.sweep_axes)
    for combo in itertools.product(*(cfg.sweep_axes[n] for n in names)):
        coords = dict(zip(names, combo))
        yield coords, cfg.gamma_th, params.apply_cell(cfg.exp, coords)


def test_outage_mc_matches_crude_count_on_sweep_cells():
    # alpha = 1: cells with mu < rho condition on fading, (rho, mu) =
    # (2, 2.5) on misalignment
    for coords, gamma_th, exp in sweep_cells():
        mc = validation.outage_mc(exp, gamma_th, [45.0], 200_000, seed=1)
        count = reference.outage_count(exp, gamma_th, [45.0], 200_000, seed=2)
        assert mc.conditioned == ("fading" if coords["mu"] < coords["rho"]
                                  else "misalignment"), coords
        combined = math.hypot(mc.se[0], count.se[0])
        assert abs(mc.p_out[0] - count.p_out[0]) <= 4.0 * combined, coords


def test_outage_mc_matches_quadrature_on_fading_cells():
    # the fading-conditioned sweep cells integrate the alpha-mu CDF over
    # the absorption draw (k = 1: e^-g) and Y = -ln(U V) (Gamma(2):
    # y e^-y); the stratified estimate at 1 M draws lies within 4 of its
    # se of that double integral at 40, 45 and 50 dB
    grid = [40.0, 45.0, 50.0]
    for coords, gamma_th, exp in sweep_cells():
        if channel.outage_rule(exp).integrated != "fading":
            continue
        fp, ab, link = exp.fading, exp.absorption, exp.link
        assert ab.k == 1
        curve = validation.outage_mc(exp, gamma_th, grid, 1_000_000, seed=21)
        for i, db in enumerate(grid):
            q = analytics.OutageQuery(gamma_th, 10 ** (db / 10.0), link.k_h)
            c = math.log(fp.mu) + fp.alpha * math.log(
                q.gamma_h / (link.a_l * fp.r_hat))

            def score(g, y):
                log_x = c + fp.alpha * (ab.beta * link.d_km / 8.686 * g
                                        + y / exp.misalignment.rho)
                return (special.gammainc(fp.mu, math.exp(min(log_x, 700.0)))
                        * math.exp(-g) * y * math.exp(-y))

            p = integrate.dblquad(score, 0, np.inf, 0, np.inf, epsabs=0,
                                  epsrel=1e-10)[0]
            assert abs(curve.p_out[i] - p) <= 4.0 * curve.se[i], (coords, db)


def test_outage_mc_matches_closed_form_within_bonferroni_se():
    # criterion 7's experiment and grid, judged by the estimator's own SE
    exp = make_experiment(link=replace(make_experiment().link, k_t=0.1, k_r=0.1))
    gth = 10 ** 0.5
    grid = [25, 27, 29, 31, 33, 35, 37, 39, 41, 43]
    curve = validation.outage_mc(exp, gth, grid, 200_000, seed=71)
    z = validation.bonferroni_z(len(grid))
    for i, db in enumerate(grid):
        q = analytics.OutageQuery(gth, 10 ** (db / 10.0), exp.link.k_h)
        p = analytics.cdf_snr_no_fading(q, exp.absorption,
                                        exp.misalignment.rho, exp.link)
        phat, se = curve.p_out[i], curve.se[i]
        assert abs(phat - p) <= z * se
        assert curve.vrf[i] > 1.0
        # the normal interval is p +- 1.96 se inside [0, 1]
        assert curve.ci_lo[i] == pytest.approx(max(0.0, phat - 1.959964 * se))
        assert curve.ci_hi[i] == pytest.approx(min(1.0, phat + 1.959964 * se))


def test_outage_mc_reduces_variance_on_sweep_cells():
    # where fading sets the slope by a margin (alpha mu = 1.5, 2.5 < rho
    # = 4.1) conditioning on it gains more than tenfold
    for coords, gamma_th, exp in sweep_cells():
        curve = validation.outage_mc(exp, gamma_th, [60.0], 200_000, seed=7)
        assert curve.p_out[0] > 0 and curve.vrf[0] > 1.0, coords
        if coords["rho"] == 4.1:
            assert curve.vrf[0] >= 10.0, coords


def test_outage_mc_stratification_floor_on_sweep_cells():
    # at 45 dB, 200 000 draws: stratifying -ln(U V) along its own
    # quantiles adds to what conditioning on fading gains; iid uniforms
    # gave (2, 1.5) 4.5-5.9, and strata on a 128 x 256 grid of (U, V)
    # 157-161, 346-401 and 101-136 on the three fading-conditioned cells,
    # where the quantile strata read 367-378, 846-867 and 498-558 at
    # seeds 11-14.  (2, 2.5) conditions on misalignment: stratifying the
    # -ln(U V) of mu G = -ln(U V) + Gamma(1/2) took it from 5.3-5.5 (iid
    # G) to 12.4-13.2, on the grid and on the quantile strata alike, as
    # the iid Gamma(1/2) bounds it
    floors = {(2.0, 1.5): 200.0, (4.1, 1.5): 500.0, (4.1, 2.5): 250.0,
              (2.0, 2.5): 8.0}
    for coords, gamma_th, exp in sweep_cells():
        curve = validation.outage_mc(exp, gamma_th, [45.0], 200_000, seed=11)
        assert curve.vrf[0] >= floors[coords["rho"], coords["mu"]], coords


def test_stratified_outage_se_is_calibrated():
    # over 120 seeds the spread of p_out matches its root-mean-square se
    # on two fading-conditioned cells and the misalignment-conditioned
    # one; the second chunk, of 4321 draws, ends in an iid draw
    n = validation.OUTAGE_CHUNK + 4321
    for coords, gamma_th, exp in sweep_cells():
        if (coords["rho"], coords["mu"]) not in ((2.0, 1.5), (4.1, 2.5),
                                                 (2.0, 2.5)):
            continue
        curves = [validation.outage_mc(exp, gamma_th, [45.0], n, seed)
                  for seed in range(300, 420)]
        p = np.array([c.p_out[0] for c in curves])
        se = np.array([c.se[0] for c in curves])
        ratio = np.std(p, ddof=1) / math.sqrt(np.mean(se ** 2))
        assert 0.85 <= ratio <= 1.15, (coords, ratio)


TAIL_GRID = [40.0, 60.0, 80.0, 100.0, 120.0]
TAIL_SEEDS = 200


def test_tilted_outage_is_calibrated_to_120_db():
    # over 200 seeds of one 2^14 + 1 draw run each, on the four sweep
    # groups from 40 to 120 dB (p_out down to 3.5e-12): the spread of p_out
    # over its root-mean-square se lies in [0.85, 1.15], and the mean of
    # z = (p_out - exact) / se within 3 / sqrt(seeds) of 0, the exact
    # value a quadrature of the no-fading law over the fading power.
    # Untilted, the same runs read a mean z of -0.6 to -5.9 from 80 dB on
    # three groups (the typical se far below the typical error).  At this
    # run length the mean z of (4.1, 2.5) carries a ratio bias of about
    # -0.12 at 100-120 dB (a run's se grows with its p_out): over eight
    # sets of 200 seeds it read -0.29 to +0.01 at 120 dB
    for coords, gamma_th, exp in sweep_cells():
        rule = channel.outage_rule(exp)
        assert rule.tilt == 0.75 * min(exp.misalignment.rho,
                                       exp.fading.alpha * exp.fading.mu)
        exact = np.array([reference.exact_outage(exp, analytics.OutageQuery(
            gamma_th, 10 ** (db / 10.0), exp.link.k_h).gamma_h)
            for db in TAIL_GRID])
        curves = [validation.outage_mc(exp, gamma_th, TAIL_GRID, 2 ** 14 + 1,
                                       seed) for seed in range(TAIL_SEEDS)]
        p = np.array([c.p_out for c in curves])
        se = np.array([c.se for c in curves])
        spread = np.std(p, axis=0, ddof=1) / np.sqrt(np.mean(se ** 2, axis=0))
        mean_z = np.mean((p - exact) / se, axis=0)
        assert np.all((spread >= 0.85) & (spread <= 1.15)), (coords, spread)
        assert np.all(np.abs(mean_z) <= 3.0 / math.sqrt(TAIL_SEEDS)), (
            coords, mean_z)


@pytest.mark.parametrize("fading,db", [
    (FadingParams(alpha=2.0, eta=2.0, mu=2), 70.0),
    (FadingParams(alpha=2.0, kappa=1.0, mu=1), 60.0)],
    ids=["eta_mu", "kappa_mu"])
def test_tilted_eta_mu_and_kappa_mu_outage_is_calibrated(fading, db):
    # over 300 seeds of one 2^14 draw run each, eta-mu and kappa-mu fading
    # drawn tilted (r G ~ Gamma(mu + M - theta / alpha) given the
    # mixture's index M): z = (p_out - exact) / se, exact the law
    # analytics.cdf_snr integrates, spreads within [0.85, 1.15] and its
    # mean lies within 3 / sqrt(seeds) of 0.  theta is 0.75 of the least
    # rate of all three components, the fading's alpha mu on kappa-mu
    exp = make_experiment(fading=fading)
    rule = channel.outage_rule(exp)
    assert rule.integrated == "misalignment"
    assert rule.tilt == 0.75 * min(4.0, fading.alpha * fading.mu,
                                   exp.absorption.z_for(exp.link))
    q = analytics.OutageQuery(10 ** 0.5, 10 ** (db / 10.0), exp.link.k_h)
    exact = analytics.cdf_snr(q, exp)
    curves = [validation.outage_mc(exp, 10 ** 0.5, [db], 2 ** 14, seed)
              for seed in range(300)]
    z = np.array([(c.p_out[0] - exact) / c.se[0] for c in curves])
    assert 0.85 <= np.std(z, ddof=1) <= 1.15
    assert abs(np.mean(z)) <= 3.0 / math.sqrt(z.size)


def stratified_estimate(exp, gamma_h, n, seed):
    """p_out and se of outage_mc from outage_score's chunks, by stratum
    with index arrays: draw k < 2P of a chunk of m in stratum k mod P,
    P = m // 2, each chunk the mean of its stratum means; an odd m's last
    draw is a chunk of one, its variance its squared distance to the mean
    of the draws before it, 0 for the first."""
    total = var = 0.0
    scores = []
    for done in range(0, n, validation.OUTAGE_CHUNK):
        m = min(validation.OUTAGE_CHUNK, n - done)
        [y] = channel.outage_score(
            exp, [gamma_h], m, lambda comp: streams.substream(seed, done, comp))
        cells = m // 2
        if cells:
            cell = np.arange(2 * cells) % cells
            mean = np.bincount(cell, y[:2 * cells]) / 2
            dev = y[:2 * cells] - mean[cell]
            s2 = np.bincount(cell, dev * dev)
            total += 2 * cells * mean.mean()
            var += 4 * cells ** 2 * np.sum(s2 / 2) / cells ** 2
            scores.append(y[:2 * cells])
        if m % 2:
            before = np.concatenate(scores) if scores else y[-1:]
            var += (y[-1] - before.mean()) ** 2
            total += y[-1]
            scores.append(y[-1:])
    return total / n, math.sqrt(var) / n


@pytest.mark.parametrize("name", ["alpha_mu_on_fading", "fading_off",
                                  "alpha_mu_on_misalignment"])
@pytest.mark.parametrize("n", [2, 3, 5, 2 ** 16 + 4321])
def test_outage_mc_is_the_cell_mean_estimate(name, n):
    # p_out is the mean of the chunks' stratum means, weighted by chunk
    # size, and se^2 the sum of their strata's s^2 / n_h / P^2, so weighted
    exp = branch_experiment(name)
    q = analytics.OutageQuery(10 ** 0.5, 10 ** 4.5, exp.link.k_h)
    curve = validation.outage_mc(exp, 10 ** 0.5, [45.0], n, seed=8)
    p, se = stratified_estimate(exp, q.gamma_h, n, seed=8)
    assert curve.p_out[0] == pytest.approx(p, rel=1e-13)
    assert curve.se[0] == pytest.approx(se, rel=1e-10)


@pytest.mark.parametrize("name", ["alpha_mu_on_fading", "fading_off",
                                  "alpha_mu_on_misalignment",
                                  "deterministic_fading_off"])
@pytest.mark.parametrize("n", [1, 2, 3, 2 ** 16 + 1, 2 ** 16 + 4321])
def test_outage_mc_at_small_and_odd_draw_counts(name, n):
    # n = 1, or a last chunk of one draw, has no pair: its draw's variance
    # is taken as its squared deviation from the draws before it (none at
    # n = 1), so se stays finite, and 0 where the score never varies
    exp = branch_experiment(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = validation.outage_mc(exp, 10 ** 0.5, [40.0, 45.0], n, seed=4)
    for field in ("p_out", "ci_lo", "ci_hi", "se"):
        assert np.all(np.isfinite(getattr(curve, field))), field
    assert np.all((curve.p_out >= 0.0) & (curve.p_out <= 1.0))
    assert not np.any(np.isnan(curve.vrf))
    if n == 1 or name == "deterministic_fading_off":
        np.testing.assert_array_equal(curve.se, 0.0)
    else:
        assert np.all(curve.se > 0.0)
    if n == 2 ** 16 + 1:
        # the lone draw adds its own variance to the full chunk's
        full = validation.outage_mc(exp, 10 ** 0.5, [40.0, 45.0], n - 1,
                                    seed=4)
        assert np.all(curve.se * n >= full.se * (n - 1))


@pytest.mark.parametrize("k_t,gamma_th,expected", [
    (0.1, 50.0, 1.0),           # at the ceiling 1/k_h^2
    (0.1, math.inf, 1.0),
    (0.0, math.inf, 1.0),       # inf * k_h^2 is NaN on an ideal front end
    (0.1, 0.0, 0.0),
    (0.0, 0.0, 0.0),            # F_p(0) would be 0 * log 0
], ids=["ceiling", "inf", "inf-ideal", "zero", "zero-ideal"])
def test_outage_mc_settled_thresholds(k_t, gamma_th, expected):
    exp = make_experiment(link=replace(make_experiment().link, k_t=k_t, k_r=k_t),
                          fading=FadingParams(alpha=2.0, mu=1))
    curve = validation.outage_mc(exp, gamma_th, [20.0, 45.0], 1000, seed=1)
    for field in ("p_out", "ci_lo", "ci_hi", "se", "vrf"):
        assert not np.any(np.isnan(getattr(curve, field))), field
    np.testing.assert_array_equal(curve.p_out, expected)
    np.testing.assert_array_equal(curve.ci_lo, expected)
    np.testing.assert_array_equal(curve.ci_hi, expected)
    np.testing.assert_array_equal(curve.se, 0.0)
    count = reference.outage_count(exp, gamma_th, [20.0, 45.0], 1000, seed=1)
    np.testing.assert_array_equal(count.p_out, expected)


@pytest.mark.parametrize("name", ["fading_off", "alpha_mu_on_fading",
                                  "alpha_mu_on_misalignment",
                                  "deterministic_fading_off", "k_h_on_fading"])
def test_outage_mc_point_is_the_same_on_any_grid(name):
    # the grid's points score one set of draws, and a point's result does
    # not depend on the other points, settled ones (inf) included, nor on
    # the order they are scored in: no array carries values from one point
    # or chunk into the next.  Sweep resume relies on it.  n is no
    # multiple of the chunk.
    exp = branch_experiment(name)
    n = validation.OUTAGE_CHUNK + 4321
    alone = validation.outage_mc(exp, 10 ** 0.5, [45.0], n, seed=5)
    grid = validation.outage_mc(exp, 10 ** 0.5, [40.0, 45.0, 50.0, math.inf],
                                n, seed=5)
    backward = validation.outage_mc(exp, 10 ** 0.5, [50.0, 45.0, 40.0], n,
                                    seed=5)
    for field in ("p_out", "ci_lo", "ci_hi", "se", "vrf"):
        assert getattr(grid, field)[1] == getattr(alone, field)[0], field
        assert getattr(backward, field)[1] == getattr(alone, field)[0], field
    assert (grid.p_out[3], grid.se[3]) == (0.0, 0.0)
    assert grid.p_out[0] > grid.p_out[1] > grid.p_out[2]
    # shared draws order the points draw by draw, so even the estimates
    # of nearby points keep their order
    near = validation.outage_mc(exp, 10 ** 0.5, [45.0, 45.01], n, seed=5)
    assert near.p_out[0] >= near.p_out[1]


def test_outage_mc_shares_one_draw_per_chunk(monkeypatch):
    # the chunk's substreams are keyed (seed, draws done, component), with
    # no grid index: every point scores the same draws
    exp = branch_experiment("alpha_mu_on_fading")
    seen = []
    substream = streams.substream

    def traced(seed, *path):
        seen.append(path)
        return substream(seed, *path)

    monkeypatch.setattr(streams, "substream", traced)
    n = 3 * validation.OUTAGE_CHUNK
    validation.outage_mc(exp, 10 ** 0.5, [40.0, 45.0, 50.0], n, seed=5)
    assert sorted(seen) == [(done, comp) for done in range(0, n, n // 3)
                            for comp in (streams.ABSORPTION,
                                         streams.MISALIGNMENT)]


# ---------------------------------------------------------------------------
# slope fits
# ---------------------------------------------------------------------------

def test_slope_fit_recovers_diversity_order():
    exp = make_experiment(fading=FadingParams(alpha=2.0, mu=1))
    z = exp.absorption.z_for(exp.link)
    do = analytics.diversity_order(2.0, 1.0, 4.0, z)
    assert do.effective == 1.0
    curve = validation.outage_mc(exp, 10 ** 0.5, [38, 42, 46, 50, 54, 58],
                                 1_000_000, seed=11)
    fit = reference.slope_fit(curve)
    assert fit.slope == pytest.approx(do.effective, rel=0.15)
    assert fit.n_points >= 4


def test_slope_fit_is_least_squares():
    # a noisy straight line in log-log: slope and standard error of the
    # least-squares fit, as scipy.stats.linregress gives them
    db = np.arange(30.0, 62.0, 4.0)
    noise = np.random.default_rng(5).normal(0.0, 0.05, db.size)
    p = 10.0 ** (-1.3 * db / 10.0 + 2.0 + noise)
    curve = validation.OutageCurve(
        gamma_bar_db=db, p_out=p, ci_lo=0.9 * p, ci_hi=1.1 * p,
        se=0.05 * p, vrf=np.ones(db.size),
        conditioned="none", tilt=0.0, re_bounded=False)
    ref = stats.linregress(db / 10.0, np.log10(p))
    fit = reference.slope_fit(curve)
    assert fit.n_points == db.size
    assert fit.slope == pytest.approx(-ref.slope, rel=1e-12, abs=0)
    assert fit.stderr == pytest.approx(ref.stderr, rel=1e-12, abs=0)


def test_slope_fit_insufficient_tail():
    exp = make_experiment()
    curve = validation.outage_mc(exp, 10 ** 0.5, [10.0, 14.0, 18.0], 20_000,
                                 seed=12)
    with pytest.raises(reference.InsufficientTail):
        reference.slope_fit(curve)


# ---------------------------------------------------------------------------
# bound sweeps and agreement
# ---------------------------------------------------------------------------

def test_bound_sweep_spot_values_pass():
    rows = validation.bound_sweep([3, 10, 40, 100, 1000, 10_000])
    assert all(r.passed for r in rows)
    metrics = {r.metric for r in rows}
    assert metrics == {"atp_delay", "atp_energy", "ftp_delay", "ftp_energy",
                       "energy_gap"}


def test_bound_sweep_rows_are_the_table_entries(monkeypatch):
    # one row per finite bracket of the table: none at K = 1, ATP's only
    # at K = 2, all five from K = 3
    rows = validation.bound_sweep([40, 1, 3, 2, 3])
    assert [r.K for r in rows] == [2, 2] + [3] * 5 + [40] * 5
    for r in rows:
        assert (r.exact, r.lower, r.upper) == \
            analytics.series_table(r.K)[r.metric]
    # energy_gap must lie strictly inside its bracket, the rest may touch
    table = {"ftp_delay": (2.0, 2.0, 2.0), "energy_gap": (2.0, 2.0, 3.0)}
    monkeypatch.setattr(analytics, "series_table", lambda K: table)
    assert [r.passed for r in validation.bound_sweep([5])] == [True, False]


def test_atp_bound_slack_vanishes():
    rows = {r.K: r for r in validation.bound_sweep([10, 100, 1000, 10_000])
            if r.metric == "atp_delay"}
    slack = {k: (r.upper - r.exact) / r.exact for k, r in rows.items()}
    assert slack[10_000] < slack[1000] < slack[100] < slack[10]
    assert slack[10_000] < 0.001


def test_relative_energy_gain_approaches_inverse_e():
    gain = 1.0 - analytics.energy_ftp(1000) / analytics.delay_atp(1000)
    assert gain == pytest.approx(1.0 / math.e, abs=0.05 / math.e)


def test_simulator_agreement_harness():
    exp = make_experiment()
    rows = validation.simulator_agreement(exp, ["atp"], [2, 5], trials=3000)
    assert all(r.passed for r in rows)
    kinds = {(r.scheme, r.K, r.kind) for r in rows}
    assert ("atp", 2, "delay") in kinds and ("atp", 5, "energy") in kinds
