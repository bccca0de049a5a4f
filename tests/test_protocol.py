"""Frame simulator: conservation invariants, scheme semantics, energy
accounting, and agreement with the exact stage law and series."""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sstats

from thzra import analytics, channel, protocol, streams, validation
from thzra.params import (EnergyModel, Experiment, FadingParams,
                          GammaAbsorption, MisalignmentParams, ProtocolConfig,
                          ThzLinkParams)


def make_experiment(**protocol_kw):
    link = ThzLinkParams(f_hz=300e9, d_m=100.0, gain_tx=316227.766,
                         gain_rx=316227.766, k_t=0.1, k_r=0.1,
                         avg_snr=10 ** 4.5)
    return Experiment(link=link, absorption=GammaAbsorption(k=3, beta=10.0),
                      fading=FadingParams(enabled=False),
                      misalignment=MisalignmentParams(rho=4.0),
                      protocol=ProtocolConfig(**protocol_kw))


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
    _, rows = protocol.run_batch(exp, collect_rows=True)
    assert all(r.total_slots == r.total_transmissions == 0 == r.energy_uj
               for r in rows)


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


def energy_rows(scheme, n_total, energy, trials=300, seed=4):
    exp = make_experiment(scheme=scheme, n_total=n_total, trials=trials,
                          seed=seed, energy=EnergyModel(**energy))
    return protocol.run_batch(exp, collect_rows=True)[1]


def test_unit_energy_is_transmission_count():
    # charging only transmissions, at 1 uJ each, gives the unit energy
    for r in energy_rows("ftp", 8, dict(e_tx_uj=1.0, e_ack_uj=0.0,
                                        e_idle_uj=0.0)):
        assert r.energy_uj == r.total_transmissions


def test_realistic_energy_single_user():
    # one transmission + one ACK, no idle holder anywhere
    for r in energy_rows("atp", 1, {}, trials=10):
        assert r.energy_uj == 1200.0 + 120.0


def test_realistic_energy_decomposition():
    # the same frames under two sets of constants imply the same waiting
    default = energy_rows("atp", 5, {}, seed=9)
    custom = energy_rows("atp", 5, CUSTOM, seed=9)
    for d, c in zip(default, custom):
        assert (d.total_transmissions, d.k_admitted) == \
            (c.total_transmissions, c.k_admitted)
        assert (d.energy_uj - 1200.0 * d.total_transmissions
                - 120.0 * d.k_admitted) / 40.0 == \
            c.energy_uj - 10.0 * c.total_transmissions - 2.0 * c.k_admitted


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------

def test_admission_zero_threshold_admits_all():
    exp = make_experiment(n_total=57, gamma_qos=0.0)
    k = protocol.admit_users(exp, block=0, size=4)
    assert k.tolist() == [57] * 4


def test_admission_above_ceiling_admits_none():
    # gamma_qos >= 1/k_h^2 = 50 can never be exceeded
    exp = make_experiment(n_total=1000, gamma_qos=55.0)
    k = protocol.admit_users(exp, block=0, size=3)
    assert k.tolist() == [0] * 3


def test_admission_fraction_matches_no_fading_law():
    # N = 100 000 users in each of a few frames; the draws span several
    # ADMISSION_DRAWS chunks of one block's streams
    exp = make_experiment(n_total=100_000, gamma_qos=10 ** 0.5)
    k = protocol.admit_users(exp, block=3, size=4)
    n = exp.protocol.n_total * k.size
    q = analytics.OutageQuery(exp.protocol.gamma_qos, exp.link.avg_snr,
                              exp.link.k_h)
    p_adm = 1.0 - analytics.cdf_snr_no_fading(q, exp.absorption,
                                              exp.misalignment.rho, exp.link)
    se = math.sqrt(p_adm * (1 - p_adm) / n)
    assert abs(k.sum() / n - p_adm) <= 3 * se


def test_block_admission_counts_are_binomial():
    # per-frame admitted counts over several blocks ~ Binomial(N, q)
    n_users, trials = 40, 4 * protocol.TRIAL_BLOCK
    exp = make_experiment(scheme="optimal", n_total=n_users,
                          gamma_qos=10 ** 0.5, trials=trials, seed=8)
    _, rows = protocol.run_batch(exp, collect_rows=True)
    counts = np.bincount([r.k_admitted for r in rows], minlength=n_users + 1)
    q = analytics.OutageQuery(exp.protocol.gamma_qos, exp.link.avg_snr,
                              exp.link.k_h)
    p_adm = 1.0 - analytics.cdf_snr_no_fading(q, exp.absorption,
                                              exp.misalignment.rho, exp.link)
    expected = trials * sstats.binom.pmf(np.arange(n_users + 1), n_users, p_adm)
    # the pmf is unimodal: fold each tail into the last bin expecting >= 5
    lo, hi = np.flatnonzero(expected >= 5.0)[[0, -1]]
    fold = lambda x: np.r_[x[:lo + 1].sum(), x[lo + 1:hi], x[hi:].sum()]
    assert sstats.chisquare(fold(counts), fold(expected)).pvalue > 1e-4


# ---------------------------------------------------------------------------
# block kernel against the exact stage law
# ---------------------------------------------------------------------------

def stages(scheme, K):
    """(holders k, probability p, Binomial(k, p) pmf of the transmitter
    count) for each stage of a K-user frame, k = K down to 1."""
    for k in range(K, 0, -1):
        p = 1.0 / K if scheme == "ftp" else 1.0 / k
        yield k, p, sstats.binom.pmf(np.arange(k + 1), k, p)


def frame_law(scheme, K, n_max):
    """Exact PMFs on 0..n_max of a frame's slots and transmissions.

    A stage ends at its first lone transmitter, P_s = P(1): its slots are
    Geometric(P_s), and its transmissions T obey
    a(n) = [P_s [n = 1] + sum_{m>=2} P(m) a(n - m)] / (1 - P(0)).
    A frame's totals are the convolutions over its stages, exact below
    n_max however the tails are cut.
    """
    slots = np.zeros(n_max + 1)
    txs = np.zeros(n_max + 1)
    slots[0] = txs[0] = 1.0
    for k, _, pm in stages(scheme, K):
        ps = pm[1]
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
    law = list(stages(scheme, K))
    attempts = [analytics.expected_attempts_between_successes(k, p)
                for k, p, _ in law]
    d_var = sum((a - 1.0) * a for a in attempts)    # (1 - P_s) / P_s^2
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
        p = chi2_pvalue(sample, pmf)
        assert p > 1e-4, f"{scheme} K={K} {name}: p = {p:.2e}"
    # waiting: by Wald's identity each stage adds (k - k p) / P_s
    w_exact = sum((k - k * p) * a for (k, p, _), a in zip(law, attempts))
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
        for r in energy_rows("atp", 6, energy):
            idle = (r.energy_uj - e.e_tx_uj * r.total_transmissions
                    - e.e_ack_uj * r.k_admitted) / e.e_idle_uj
            assert idle >= 0 and idle == int(idle)


@pytest.mark.parametrize("scheme", ["ftp", "atp"])
def test_batch_realistic_energy_matches_stage_law(scheme):
    # everyone admitted: E = sum over stages of (e_tx k p + e_idle (k - k p))
    # / P_s, plus e_ack per user
    z = validation.bonferroni_z(6)
    for K in (2, 10, 40):
        exp = make_experiment(scheme=scheme, n_total=K, trials=4000,
                              seed=30 + K, energy=EnergyModel(**CUSTOM))
        stats, _ = protocol.run_batch(exp)
        exact = CUSTOM["e_ack_uj"] * K
        for k, p, _ in stages(scheme, K):
            attempts = analytics.expected_attempts_between_successes(k, p)
            exact += (CUSTOM["e_tx_uj"] * k * p
                      + CUSTOM["e_idle_uj"] * (k - k * p)) * attempts
        assert stats.mean_k_admitted == K
        assert abs(stats.mean_energy_uj - exact) <= z * stats.se_energy_uj, \
            (scheme, K, stats.mean_energy_uj, exact)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

def test_batch_deterministic_given_seed():
    exp = make_experiment(scheme="atp", n_total=7, trials=200, seed=99)
    a, rows_a = protocol.run_batch(exp, collect_rows=True)
    b, rows_b = protocol.run_batch(exp, collect_rows=True)
    assert a == b
    assert rows_a == rows_b
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
    stats, rows = protocol.run_batch(exp, collect_rows=True)
    assert stats.n_trials == 50
    assert stats.mean_delay == 0.0
    assert stats.mean_k_admitted == 0.0
    assert len(rows) == 50
    assert all(r.k_admitted == 0 for r in rows)


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
            assert freq <= analytics.hoeffding_bound(eps, n_per, kind)
