"""Frame simulator: conservation invariants, scheme semantics, energy
accounting, and agreement with the exact stage law and series."""
import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sstats

from thzra import analytics, channel, cli, params, protocol, streams, validation
from thzra.params import (EnergyModel, Experiment, FadingParams,
                          GammaAbsorption, MisalignmentParams, ProtocolConfig,
                          ThzLinkParams)

import reference

DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
DEFAULT = params.run_config(cli.read_config(DEFAULT_CFG)).exp


def make_experiment(**protocol_kw):
    link = ThzLinkParams(f_hz=300e9, d_m=100.0, gain_tx=316227.766,
                         gain_rx=316227.766, k_t=0.1, k_r=0.1,
                         avg_snr=10 ** 4.5)
    return Experiment(link=link, absorption=GammaAbsorption(k=3, beta=10.0),
                      fading=FadingParams(enabled=False),
                      misalignment=MisalignmentParams(rho=4.0),
                      protocol=ProtocolConfig(**protocol_kw))


def kappa_mu_experiment(**protocol_kw):
    """make_experiment with kappa-mu fading (eta = 1, kappa = 1, mu = 2),
    whose SNR law is a Gamma mixture of the fading power."""
    return replace(make_experiment(**protocol_kw),
                   fading=FadingParams(kappa=1.0, mu=2))


def scipy_pass_probability(exp):
    """q = P(SNR > gamma_qos) with kappa-mu fading, by scipy's quadrature,
    which pass_probability is checked against."""
    q = analytics.OutageQuery(exp.protocol.gamma_qos, exp.link.avg_snr,
                              exp.link.k_h)
    q_ref = 1.0 - reference.kappa_mu_outage(exp, q.gamma_h)
    assert protocol.pass_probability(exp) == pytest.approx(q_ref, rel=1e-12)
    return q_ref


def rng(s):
    return np.random.default_rng(s)


# ---------------------------------------------------------------------------
# single frames
# ---------------------------------------------------------------------------

class SpyRng:
    """Generator stand-in recording each binomial draw of `contend` as
    (holders, probability, transmitters) per live frame."""

    def __init__(self, seed):
        self.gen = rng(seed)
        self.calls = []

    def binomial(self, n, p):
        m = self.gen.binomial(n, p)
        self.calls.append((np.array(n), np.broadcast_to(p, np.shape(n)).copy(),
                           np.array(m)))
        return m


def test_single_user_frame():
    for scheme in ("ftp", "atp", "optimal"):
        slots, txs, waits = protocol.contend(scheme, np.array([1]), rng(1))
        assert (slots.tolist(), txs.tolist(), waits.tolist()) == ([1], [1], [0])


def test_empty_frame():
    for scheme in ("ftp", "atp", "optimal"):
        slots, txs, waits = protocol.contend(scheme, np.array([0, 0]), rng(1))
        assert not slots.any() and not txs.any() and not waits.any()
    # nobody admitted: no slot, no transmission, no energy
    exp = make_experiment(n_total=4, gamma_qos=55.0, trials=5, seed=1)
    _, (_, slots, txs, e_uj) = protocol.run_batch(exp)
    assert not slots.any() and not txs.any() and not e_uj.any()


def test_conservation_invariants():
    # a slot's holders either transmit or wait, and each stage (one per
    # holder) lasts at least one slot: sum_{j<=k} j <= tx + waiting <= k slots
    for scheme in ("ftp", "atp"):
        for k in (1, 2, 5, 13):
            slots, txs, waits = protocol.contend(scheme, np.full(20, k),
                                                 rng(100 + k))
            assert (slots >= k).all() and (txs >= k).all()
            assert (waits >= 0).all()
            assert (txs + waits >= k * (k + 1) // 2).all()
            assert (txs + waits <= k * slots).all()


def test_ftp_probability_fixed_for_whole_frame():
    spy = SpyRng(3)
    protocol.contend("ftp", np.array([7]), spy)
    assert spy.calls
    assert all(p.tolist() == [1.0 / 7] for _, p, _ in spy.calls)


def test_atp_probability_tracks_remaining_pool():
    spy = SpyRng(4)
    protocol.contend("atp", np.array([9]), spy)
    assert spy.calls[0][0].tolist() == [9]
    for n, p, _ in spy.calls:
        assert p.tolist() == [1.0 / int(n[0])]


def test_optimal_baseline_exact():
    slots, txs, waits = protocol.contend("optimal", np.array([12]), rng(5))
    assert (slots.tolist(), txs.tolist(), waits.tolist()) == ([12], [12], [0])
    exp = make_experiment(scheme="optimal", n_total=12, trials=3, seed=5)
    stats, _ = protocol.run_batch(exp)
    assert stats.mean_energy_uj == 12 * (1200.0 + 120.0)
    assert stats.se_energy_uj == 0.0


def test_waiting_counts_match_slot_algebra():
    # the frame's totals are the sums of its slots: m transmit, the other
    # remaining - m wait, and only a lone transmitter leaves the pool
    spy = SpyRng(6)
    slots, txs, waits = protocol.contend("atp", np.array([6]), spy)
    n = [int(c[0][0]) for c in spy.calls]
    m = [int(c[2][0]) for c in spy.calls]
    assert slots[0] == len(spy.calls)
    assert txs[0] == sum(m)
    assert waits[0] == sum(r - x for r, x in zip(n, m))
    assert n[0] == 6 and m.count(1) == 6
    assert all(b == a - (x == 1) for a, b, x in zip(n, n[1:], m))


# ---------------------------------------------------------------------------
# energy accounting
# ---------------------------------------------------------------------------

CUSTOM = dict(e_tx_uj=10.0, e_ack_uj=2.0, e_idle_uj=1.0)


def energy_frames(scheme, n_total, energy, trials=300, seed=4):
    """Per-frame (k admitted, slots, transmissions, uJ) arrays of a batch."""
    exp = make_experiment(scheme=scheme, n_total=n_total, trials=trials,
                          seed=seed, energy=EnergyModel(**energy))
    return protocol.run_batch(exp)[1]


def test_unit_energy_is_transmission_count():
    # charging only transmissions, at 1 uJ each, gives the unit energy
    _, _, txs, e_uj = energy_frames("ftp", 8, dict(e_tx_uj=1.0, e_ack_uj=0.0,
                                                   e_idle_uj=0.0))
    assert (e_uj == txs).all()


def test_realistic_energy_single_user():
    # one transmission + one ACK, no idle holder anywhere
    _, _, _, e_uj = energy_frames("atp", 1, {}, trials=10)
    assert (e_uj == 1200.0 + 120.0).all()


def test_realistic_energy_decomposition():
    # the same frames under two sets of constants imply the same waiting
    dk, _, dtx, de = energy_frames("atp", 5, {}, seed=9)
    ck, _, ctx, ce = energy_frames("atp", 5, CUSTOM, seed=9)
    assert (dk == ck).all() and (dtx == ctx).all()
    assert ((de - 1200.0 * dtx - 120.0 * dk) / 40.0
            == ce - 10.0 * ctx - 2.0 * ck).all()


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------

def test_admission_zero_threshold_admits_all():
    exp = make_experiment(n_total=57, gamma_qos=0.0, trials=4)
    k = protocol.admit_users(exp, protocol.pass_probability(exp))
    assert k.tolist() == [57] * 4


def test_admission_above_ceiling_admits_none():
    # gamma_qos >= 1/k_h^2 = 50 can never be exceeded
    exp = make_experiment(n_total=1000, gamma_qos=55.0, trials=3)
    k = protocol.admit_users(exp, protocol.pass_probability(exp))
    assert k.tolist() == [0] * 3


def forbid_channel_draws(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("admission drew the channel")

    for name in ("outage_score", "draw_snr_batch", "fading_power",
                 "sample_absorption_db", "stratified_neg_log"):
        monkeypatch.setattr(channel, name, no_draw)


def test_admission_fraction_matches_kappa_mu_law(monkeypatch):
    # N = 100 000 users in each of a few frames with kappa-mu fading take
    # the Binomial quantile at the law's q, which scipy's quadrature
    # confirms, with no channel draw and no user cap
    forbid_channel_draws(monkeypatch)
    exp = kappa_mu_experiment(n_total=100_000, gamma_qos=10 ** 0.5,
                              trials=4)
    p_adm = scipy_pass_probability(exp)
    k = protocol.admit_users(exp, protocol.pass_probability(exp))
    n = exp.protocol.n_total * k.size
    se = math.sqrt(p_adm * (1 - p_adm) / n)
    assert abs(k.sum() / n - p_adm) <= 3 * se


@pytest.mark.parametrize("fading", [FadingParams(eta=2.0, mu=2),
                                    FadingParams(alpha=3.0, eta=0.5,
                                                 kappa=0.4, mu=4),
                                    FadingParams(kappa=1.0, mu=2)],
                         ids=["eta_mu", "eta_kappa_mu", "kappa_mu"])
def test_pass_probability_matches_snr_draws(fading):
    # the law's q on the default config at gamma_qos = 16.2 dB against the
    # share of 4 M channel draws above it (the Gaussian-cluster sampler),
    # within 4 se
    exp = replace(DEFAULT, fading=fading).with_protocol(
        gamma_qos=params.db_to_linear(16.2))
    q = protocol.pass_probability(exp)
    n, passed = 4_000_000, 0
    for chunk in range(4):
        rngs = [streams.substream(5, chunk, c) for c in
                (streams.ABSORPTION, streams.FADING, streams.MISALIGNMENT)]
        snr = channel.draw_snr_batch(exp, n // 4, *rngs)
        passed += np.count_nonzero(snr > exp.protocol.gamma_qos)
    assert abs(passed / n - q) <= 4.0 * math.sqrt(q * (1.0 - q) / n)


def test_law_admission_draws_no_channel_at_any_user_count(monkeypatch):
    # with fading off too, N = 100 000 users take the Binomial quantile,
    # with no channel draw and no user cap
    forbid_channel_draws(monkeypatch)
    exp = make_experiment(n_total=100_000, gamma_qos=10 ** 0.5, trials=4)
    q = protocol.pass_probability(exp)
    assert q == 1.0 - analytics.cdf_snr_no_fading(
        analytics.OutageQuery(10 ** 0.5, exp.link.avg_snr, exp.link.k_h),
        exp.absorption, exp.misalignment.rho, exp.link)
    k = protocol.admit_users(exp, q)
    n = exp.protocol.n_total
    assert abs(k.mean() - n * q) <= 3 * math.sqrt(n * q * (1 - q) / k.size)


def test_admission_draws_its_block_binomial(monkeypatch):
    # frame t admits the t-th Binomial(N, q) draw of the substream
    # (seed, ADMISSION, 0), and the outage rule plays no part in it
    def no_rule(exp):
        raise AssertionError("admission read the outage rule")

    monkeypatch.setattr(channel, "outage_rule", no_rule)
    exp = make_experiment(n_total=12, gamma_qos=10 ** 1.65, seed=21)
    q = protocol.pass_probability(exp)
    assert 0.0 < q < 1.0
    for trials in (1, 7, 1024, 1025):
        want = streams.substream(21, streams.ADMISSION, 0).binomial(
            12, q, trials)
        np.testing.assert_array_equal(
            protocol.admit_users(exp.with_protocol(trials=trials), q), want)
    protocol.run_batch(exp.with_protocol(trials=50))


@pytest.mark.parametrize("scheme", ["ftp", "atp", "optimal"])
def test_batch_draws_each_row_in_one_pass(scheme):
    # 2 * 1024 + 77 frames: the counts are one Binomial(N, q) draw of
    # (seed, ADMISSION, 0), and the slots and transmissions contend's on
    # one (seed, PROTOCOL, 0) stream over all frames
    trials = 2125
    exp = make_experiment(scheme=scheme, n_total=10, gamma_qos=10 ** 1.65,
                          trials=trials, seed=13)
    q = protocol.pass_probability(exp)
    ks, slots, txs, _ = protocol.run_batch(exp)[1]
    want_ks = streams.substream(13, streams.ADMISSION, 0).binomial(
        10, q, trials)
    np.testing.assert_array_equal(ks, want_ks)
    want_slots, want_txs, _ = protocol.contend(
        scheme, want_ks, streams.substream(13, streams.PROTOCOL, 0))
    np.testing.assert_array_equal(slots, want_slots)
    np.testing.assert_array_equal(txs, want_txs)


def test_drawn_block_admission_counts_are_binomial():
    # kappa-mu fading, a channel the Gaussian-cluster sampler draws: its
    # per-frame counts over 4096 frames ~ Binomial(N, q) as well, q by
    # scipy's quadrature
    n_users, trials = 40, 4096
    exp = kappa_mu_experiment(scheme="optimal", n_total=n_users,
                              gamma_qos=10 ** 0.5, trials=trials, seed=8)
    ks = protocol.run_batch(exp)[1][0]
    counts = np.bincount(ks, minlength=n_users + 1)
    expected = trials * sstats.binom.pmf(np.arange(n_users + 1), n_users,
                                         scipy_pass_probability(exp))
    lo, hi = np.flatnonzero(expected >= 5.0)[[0, -1]]
    fold = lambda x: np.r_[x[:lo + 1].sum(), x[lo + 1:hi], x[hi:].sum()]
    assert sstats.chisquare(fold(counts), fold(expected)).pvalue > 1e-4


def test_block_admission_counts_are_binomial():
    # per-frame admitted counts over 4096 frames ~ Binomial(N, q)
    n_users, trials = 40, 4096
    exp = make_experiment(scheme="optimal", n_total=n_users,
                          gamma_qos=10 ** 0.5, trials=trials, seed=8)
    ks = protocol.run_batch(exp)[1][0]
    counts = np.bincount(ks, minlength=n_users + 1)
    q = analytics.OutageQuery(exp.protocol.gamma_qos, exp.link.avg_snr,
                              exp.link.k_h)
    p_adm = 1.0 - analytics.cdf_snr_no_fading(q, exp.absorption,
                                              exp.misalignment.rho, exp.link)
    expected = trials * sstats.binom.pmf(np.arange(n_users + 1), n_users, p_adm)
    # the pmf is unimodal: fold each tail into the last bin expecting >= 5
    lo, hi = np.flatnonzero(expected >= 5.0)[[0, -1]]
    fold = lambda x: np.r_[x[:lo + 1].sum(), x[lo + 1:hi], x[hi:].sum()]
    assert sstats.chisquare(fold(counts), fold(expected)).pvalue > 1e-4


def binomial_mixture(f, n, q):
    """E[f(K)] for K ~ Binomial(n, q), f(0) = 0."""
    return sum(math.comb(n, k) * q ** k * (1.0 - q) ** (n - k) * f(k)
               for k in range(1, n + 1))


@pytest.mark.parametrize("n_users", [2, 10, 40])
def test_law_admission_is_calibrated_on_the_default_config(n_users):
    # configs/default.cfg (alpha-mu fading) at 16.2 dB, q = 0.50093, 400
    # trials: over 300 seeds, each of FTP's and ATP's post-stratified
    # delay and transmissions has a mean within 3 rms se / sqrt(300) of
    # the exact series averaged over Binomial(N, q), and a spread over
    # its root-mean-square se of about 1 (se of that ratio ~0.04).  The
    # mean z is not gated: se grows with a right-skewed mean, so it reads
    # about -0.1 to -0.2 on a calibrated estimator.
    exp = DEFAULT.with_protocol(n_total=n_users, trials=400,
                                gamma_qos=params.db_to_linear(16.2))
    q = protocol.pass_probability(exp)
    assert q == pytest.approx(0.50093038875476, rel=1e-12)
    seeds = range(7000, 7300)
    for scheme in ("ftp", "atp"):
        runs = [protocol.run_batch(exp.with_protocol(scheme=scheme, seed=s))[0]
                for s in seeds]
        for i, name in enumerate(("delay", "transmissions")):
            mean = np.array([getattr(st, f"mean_{name}") for st in runs])
            rms_se = math.sqrt(np.mean([getattr(st, f"se_{name}") ** 2
                                        for st in runs]))
            exact = binomial_mixture(
                lambda j: validation.exact_delay_energy(scheme, j)[i],
                n_users, q)
            assert abs(mean.mean() - exact) <= 3.0 * rms_se / math.sqrt(
                len(seeds)), (scheme, name)
            assert 0.85 <= np.std(mean, ddof=1) / rms_se <= 1.15, (scheme, name)


def test_stratified_admission_meets_the_mixture_rule_at_16_2_db():
    # the default config with eta-mu fading (eta = 2, mu = 2) at
    # gamma_qos = 16.2 dB (0.57 admitted): each FTP/ATP row's delay and
    # transmissions lie within 4 se of the exact series averaged over
    # Binomial(K, q) at the row's own admitted share
    base = replace(DEFAULT, fading=FadingParams(eta=2.0, mu=2)).with_protocol(
        gamma_qos=params.db_to_linear(16.2), trials=400)
    worst = 0.0
    for seed, scheme, k in itertools.product(range(40), ("ftp", "atp"),
                                             (2, 10, 40)):
        stats, _ = protocol.run_batch(base.with_protocol(
            scheme=scheme, n_total=k, seed=1000 * seed + k))
        q = stats.mean_k_admitted / k
        for i, mean, se in ((0, stats.mean_delay, stats.se_delay),
                            (1, stats.mean_transmissions,
                             stats.se_transmissions)):
            exact = binomial_mixture(
                lambda j: validation.exact_delay_energy(scheme, j)[i], k, q)
            worst = max(worst, abs(mean - exact) / se)
    assert worst <= 4.0


def post_stratified_estimate(x, ks, n, q):
    """Mean and se of run_batch's frame values x, post-stratified on the
    admitted counts ks by a loop: walking k = 0..n, a pool closes once it
    holds 2 frames, a short remainder joins the last pool; each pool
    weighs its Binomial(n, q) mass (scipy), and adds W^2 s^2 / n_g, s at
    ddof 1, to the variance where it holds 2 frames or more."""
    pools, run = [[]], 0
    for k in range(n + 1):
        pools[-1].append(k)
        run += int(np.count_nonzero(ks == k))
        if run >= 2 and k < n:
            pools.append([])
            run = 0
    if len(pools) > 1 and sum(np.count_nonzero(ks == k)
                              for k in pools[-1]) < 2:
        last = pools.pop()
        pools[-1] += last
    mean = var = 0.0
    for pool in pools:
        w = float(sstats.binom.pmf(pool, n, q).sum())
        y = x[np.isin(ks, pool)].astype(float)
        mean += w * y.mean()
        if y.size >= 2:
            var += w * w * y.var(ddof=1) / y.size
    return mean, math.sqrt(var)


@pytest.mark.parametrize("trials", [1, 2, 3, 401, 1025, 2125])
def test_stratified_aggregate_on_odd_and_many_blocks(trials):
    # odd batch sizes, a lone frame and batches past 1024 frames: finite se,
    # each mean and se the post-stratified ones of the per-frame arrays
    # that --dump-trials writes, and optimal's delay its admitted count
    exp = make_experiment(scheme="ftp", n_total=10, gamma_qos=10 ** 1.65,
                          trials=trials, seed=5)
    q = protocol.pass_probability(exp)
    assert 0.0 < q < 1.0
    stats, (ks, slots, txs, e_uj) = protocol.run_batch(exp)
    for mean, se, x in ((stats.mean_delay, stats.se_delay, slots),
                        (stats.mean_transmissions, stats.se_transmissions,
                         txs),
                        (stats.mean_energy_uj, stats.se_energy_uj, e_uj),
                        (stats.mean_k_admitted, None, ks)):
        want_mean, want_se = post_stratified_estimate(x, ks, 10, q)
        assert mean == pytest.approx(want_mean, rel=1e-12)
        if se is not None:
            assert math.isfinite(se) and se >= 0.0
            assert se == pytest.approx(want_se, rel=1e-10, abs=1e-12)
    assert (stats.se_delay == 0.0) == (trials == 1)
    opt, _ = protocol.run_batch(exp.with_protocol(scheme="optimal"))
    assert opt.mean_delay == opt.mean_k_admitted


@pytest.mark.parametrize("scheme", ["ftp", "atp"])
@pytest.mark.parametrize("n_users", [2, 40])
def test_settled_admission_se_is_calibrated(scheme, n_users):
    # gamma_qos = 0 admits every user and the frames are iid: the pair
    # estimator's se still matches the spread of mean_delay over 300
    # seeds (se of that ratio ~0.04), and the mean lies within 3 se of
    # the exact series
    exp = make_experiment(scheme=scheme, n_total=n_users, trials=400)
    runs = [protocol.run_batch(exp.with_protocol(seed=s))[0]
            for s in range(8000, 8300)]
    mean = np.array([st.mean_delay for st in runs])
    rms_se = math.sqrt(np.mean([st.se_delay ** 2 for st in runs]))
    exact = validation.exact_delay_energy(scheme, n_users)[0]
    assert abs(mean.mean() - exact) <= 3.0 * rms_se / math.sqrt(len(runs))
    assert 0.85 <= np.std(mean, ddof=1) / rms_se <= 1.15


# ---------------------------------------------------------------------------
# contention kernel against the exact stage law
# ---------------------------------------------------------------------------

def frame_law(scheme, K, n_max):
    """Exact PMFs on 0..n_max of a frame's slots and transmissions.

    A stage of analytics.stage_law ends at its first lone transmitter,
    P_s = P(1) of the Binomial(k, p) transmitter count P: its slots are
    Geometric(P_s), and its transmissions T obey
    a(n) = [P_s [n = 1] + sum_{m>=2} P(m) a(n - m)] / (1 - P(0)).
    A frame's totals are the convolutions over its stages, exact below
    n_max however the tails are cut.
    """
    slots = np.zeros(n_max + 1)
    txs = np.zeros(n_max + 1)
    slots[0] = txs[0] = 1.0
    for k, p, ps in zip(*analytics.stage_law(scheme, K)):
        pm = sstats.binom.pmf(np.arange(k + 1), k, p)
        assert pm[1] == pytest.approx(ps, rel=1e-13)
        geometric = np.r_[0.0, ps * (1.0 - ps) ** np.arange(n_max)]
        slots = np.convolve(slots, geometric)[:n_max + 1]
        q = pm / (1.0 - pm[0])
        collide = q[:1:-1]                  # P(k), ..., P(2) over 1 - P(0)
        a = np.zeros(n_max + 1)
        a[1] = q[1]
        for j in range(2, n_max + 1):       # sum over m = 2..k as one dot
            a[j] = collide[max(0, k - j):] @ a[max(0, j - k):j - 1]
        txs = np.convolve(txs, a)[:n_max + 1]
    return slots, txs


def chi2_pvalue(sample, pmf):
    """Chi-square goodness of fit of integer draws to a PMF on 0..n_max,
    the mass beyond n_max in the last value.  Values the law never takes
    (expected exactly 0) are dropped; runs of bins expecting fewer than 5
    are folded together, a short remainder into the last bin."""
    n_max = pmf.size - 1
    counts = np.bincount(np.minimum(sample, n_max), minlength=n_max + 1)
    expected = sample.size * np.r_[pmf[:-1], 1.0 - pmf[:-1].sum()]
    assert counts[expected == 0.0].sum() == 0
    obs, exp = [0.0], [0.0]
    for c, e in zip(counts[expected > 0], expected[expected > 0]):
        if exp[-1] >= 5.0:
            obs.append(0.0)
            exp.append(0.0)
        obs[-1] += c
        exp[-1] += e
    if exp[-1] < 5.0:
        o, e = obs.pop(), exp.pop()
        obs[-1] += o
        exp[-1] += e
    return float(sstats.chisquare(obs, exp).pvalue)


@pytest.mark.parametrize("scheme", ["ftp", "atp"])
@pytest.mark.parametrize("K", [2, 10, 40])
def test_kernel_matches_stage_law(scheme, K):
    n_frames = 4000
    slots, txs, waits = protocol.contend(scheme, np.full(n_frames, K),
                                         rng(1000 + K))
    k, p, ps = analytics.stage_law(scheme, K)
    d_var = np.sum((1.0 - ps) / ps ** 2)
    d_exact, e_exact = validation.exact_delay_energy(scheme, K)
    n_max = int(d_exact + 60.0 * math.sqrt(d_var))
    slots_pmf, txs_pmf = frame_law(scheme, K, n_max)
    # the law is whole and has the series means
    n = np.arange(n_max + 1)
    assert slots_pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert txs_pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert n @ slots_pmf == pytest.approx(d_exact, rel=1e-12)
    assert n @ txs_pmf == pytest.approx(e_exact, rel=1e-12)
    for name, sample, pmf in (("slots", slots, slots_pmf),
                              ("transmissions", txs, txs_pmf)):
        pval = chi2_pvalue(sample, pmf)
        assert pval > 1e-4, f"{scheme} K={K} {name}: p = {pval:.2e}"
    # waiting: by Wald's identity each stage adds (k - k p) / P_s
    w_exact = np.sum((k - k * p) / ps)
    se = waits.std(ddof=1) / math.sqrt(n_frames)
    assert abs(waits.mean() - w_exact) <= validation.bonferroni_z(6) * se


def test_kernel_exact_frames():
    k = np.array([0, 1, 3, 0, 12])
    for scheme in ("ftp", "atp"):
        slots, txs, waits = protocol.contend(scheme, k, rng(10))
        assert slots[[0, 1, 3]].tolist() == [0, 1, 0]
        assert txs[[0, 1, 3]].tolist() == [0, 1, 0]
        assert waits[[0, 1, 3]].tolist() == [0, 0, 0]
        assert (slots >= k).all() and (txs >= k).all()
    slots, txs, waits = protocol.contend("optimal", k, rng(10))
    assert slots.tolist() == k.tolist() and txs.tolist() == k.tolist()
    assert not waits.any()


def test_batch_realistic_energy_charges_frame_totals():
    # e_uJ = e_tx tx + e_ack successes (= K admitted) + e_idle waiting,
    # waiting a whole count >= 0, for the default and custom constants
    for energy in ({}, CUSTOM):
        e = EnergyModel(**energy)
        ks, _, txs, e_uj = energy_frames("atp", 6, energy)
        idle = (e_uj - e.e_tx_uj * txs - e.e_ack_uj * ks) / e.e_idle_uj
        assert (idle >= 0).all() and (idle == np.round(idle)).all()


@pytest.mark.parametrize("scheme", ["ftp", "atp"])
def test_batch_realistic_energy_matches_stage_law(scheme):
    # everyone admitted: E = sum over stages of (e_tx k p + e_idle (k - k p))
    # / P_s, plus e_ack per user
    z = validation.bonferroni_z(6)
    for K in (2, 10, 40):
        exp = make_experiment(scheme=scheme, n_total=K, trials=4000,
                              seed=30 + K, energy=EnergyModel(**CUSTOM))
        stats, _ = protocol.run_batch(exp)
        k, p, ps = analytics.stage_law(scheme, K)
        exact = CUSTOM["e_ack_uj"] * K + np.sum(
            (CUSTOM["e_tx_uj"] * k * p + CUSTOM["e_idle_uj"] * (k - k * p)) / ps)
        assert stats.mean_k_admitted == K
        assert abs(stats.mean_energy_uj - exact) <= z * stats.se_energy_uj, \
            (scheme, K, stats.mean_energy_uj, exact)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

def test_batch_deterministic_given_seed():
    exp = make_experiment(scheme="atp", n_total=7, trials=200, seed=99)
    a, frames_a = protocol.run_batch(exp)
    b, frames_b = protocol.run_batch(exp)
    assert a == b
    for x, y in zip(frames_a, frames_b):
        np.testing.assert_array_equal(x, y)
    c, _ = protocol.run_batch(replace(exp, protocol=replace(exp.protocol, seed=98)))
    assert c.mean_delay != a.mean_delay


def test_batch_std_err_shrinks_like_sqrt_n():
    exp = make_experiment(scheme="atp", n_total=5, trials=400, seed=1)
    small, _ = protocol.run_batch(exp)
    big, _ = protocol.run_batch(exp.with_protocol(trials=6400))
    ratio = small.se_delay / big.se_delay
    assert ratio == pytest.approx(4.0, rel=0.35)


def test_batch_mean_matches_series_at_5000_trials():
    for scheme, K in [("ftp", 10), ("atp", 10)]:
        exp = make_experiment(scheme=scheme, n_total=K, trials=5000, seed=11)
        stats, _ = protocol.run_batch(exp)
        d_exact, e_exact = validation.exact_delay_energy(scheme, K)
        assert abs(stats.mean_delay - d_exact) / d_exact < 0.02
        assert abs(stats.mean_transmissions - e_exact) / e_exact < 0.02


def test_atp_beats_ftp_delay_ftp_beats_atp_energy():
    for K in (3, 5, 10):
        d = {}
        e = {}
        for scheme in ("ftp", "atp"):
            exp = make_experiment(scheme=scheme, n_total=K, trials=5000, seed=21)
            stats, _ = protocol.run_batch(exp)
            d[scheme] = stats.mean_delay
            e[scheme] = stats.mean_transmissions
        assert d["atp"] < d["ftp"]
        assert e["ftp"] < e["atp"]


def test_batch_includes_empty_frames_in_averages():
    # nobody ever admitted: all-zero aggregates over full trial count
    exp = make_experiment(n_total=5, gamma_qos=55.0, trials=50, seed=2)
    stats, (ks, *_) = protocol.run_batch(exp)
    assert stats.n_trials == 50
    assert stats.mean_delay == 0.0
    assert stats.mean_k_admitted == 0.0
    assert ks.tolist() == [0] * 50


def test_component_streams_reproducible_independent_of_order():
    # drawing fading before misalignment must not change either draw
    s1 = channel.sample_misalignment(4.0, streams.substream(5, 0, streams.MISALIGNMENT), 10)
    _ = channel.sample_fading(FadingParams(), streams.substream(5, 0, streams.FADING), 10)
    s2 = channel.sample_misalignment(4.0, streams.substream(5, 0, streams.MISALIGNMENT), 10)
    np.testing.assert_array_equal(s1, s2)


def test_hoeffding_concentration_over_batches():
    # |batch mean - exact| exceeds eps no more often than the printed bounds
    K, n_per, n_batches = 5, 60, 400
    d_exact, e_exact = validation.exact_delay_energy("atp", K)
    dev_d = np.empty(n_batches)
    dev_e = np.empty(n_batches)
    for b in range(n_batches):
        exp = make_experiment(scheme="atp", n_total=K, trials=n_per,
                              seed=40_000 + b)
        st, _ = protocol.run_batch(exp)
        dev_d[b] = abs(st.mean_delay - d_exact)
        dev_e[b] = abs(st.mean_transmissions - e_exact)
    for kind, dev in (("delay", dev_d), ("energy", dev_e)):
        for target in (0.5, 0.1):
            if kind == "delay":
                eps = math.sqrt(n_per * math.log(2.0 / target) / 2.0)
            else:
                eps = math.sqrt(n_per * (n_per - 1) ** 2
                                * math.log(2.0 / target) / 2.0)
            freq = float(np.mean(dev > eps))
            assert freq <= reference.hoeffding_bound(eps, n_per, kind)
