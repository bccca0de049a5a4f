"""Frame simulator: conservation invariants, scheme semantics, energy
accounting, and agreement with the exact series."""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sstats

from thzra import analytics, channel, protocol, streams, validation
from thzra.params import (EnergyModel, Experiment, FadingParams,
                          GammaAbsorption, MisalignmentParams, ProtocolConfig,
                          ThzLinkParams)

UNIT = EnergyModel(realistic=False)
REAL = EnergyModel(realistic=True)


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

def test_single_user_frame():
    for scheme in ("ftp", "atp", "optimal"):
        tr = protocol.run_frame(scheme, 1, rng(1))
        assert tr.total_slots == 1
        assert tr.total_transmissions == 1
        assert tr.slots[0].kind == protocol.SUCCESS
        assert protocol.account_energy(tr, UNIT) == 1.0


def test_empty_frame():
    tr = protocol.run_frame("atp", 0, rng(1))
    assert tr.total_slots == 0
    assert tr.total_transmissions == 0
    assert protocol.account_energy(tr, UNIT) == 0.0
    assert protocol.account_energy(tr, REAL) == 0.0
    assert tr.per_user_energy(UNIT) == 0.0


def test_conservation_invariants():
    for scheme in ("ftp", "atp"):
        for k in (1, 2, 5, 13):
            for s in range(20):
                tr = protocol.run_frame(scheme, k, rng(100 + s))
                assert tr.success_count == k
                assert tr.k_admitted == k
                assert tr.total_slots >= k
                assert tr.total_transmissions >= k
                assert tr.total_transmissions == \
                    sum(sl.transmitters for sl in tr.slots)
                # users leave after success: distinct ids, pool shrinks by one
                ids = [sl.user for sl in tr.slots if sl.kind == protocol.SUCCESS]
                assert sorted(ids) == list(range(k))
                remaining = [sl.remaining for sl in tr.slots]
                assert remaining[0] == k
                assert remaining[-1] == 1


def test_ftp_probability_fixed_for_whole_frame():
    tr = protocol.run_frame("ftp", 7, rng(3))
    assert all(sl.p == pytest.approx(1.0 / 7) for sl in tr.slots)


def test_atp_probability_tracks_remaining_pool():
    tr = protocol.run_frame("atp", 9, rng(4))
    for sl in tr.slots:
        assert sl.p == pytest.approx(1.0 / sl.remaining)


def test_optimal_baseline_exact():
    tr = protocol.run_frame("optimal", 12, rng(5))
    assert tr.total_slots == 12
    assert tr.total_transmissions == 12
    assert tr.success_count == 12
    assert tr.total_waiting == 0
    assert protocol.account_energy(tr, REAL) == 12 * (1200.0 + 120.0)


def test_waiting_counts_match_slot_algebra():
    tr = protocol.run_frame("atp", 6, rng(6))
    for sl in tr.slots:
        assert sl.waiting == sl.remaining - sl.transmitters


# ---------------------------------------------------------------------------
# energy accounting
# ---------------------------------------------------------------------------

def test_unit_energy_is_transmission_count():
    tr = protocol.run_frame("ftp", 8, rng(7))
    assert protocol.account_energy(tr, UNIT) == tr.total_transmissions


def test_realistic_energy_single_user():
    tr = protocol.run_frame("atp", 1, rng(8))
    # one transmission + one ACK, no idle holder anywhere
    assert protocol.account_energy(tr, REAL) == 1200.0 + 120.0


def test_realistic_energy_decomposition():
    tr = protocol.run_frame("atp", 5, rng(9))
    e = protocol.account_energy(tr, REAL)
    assert e == (1200.0 * tr.total_transmissions + 120.0 * tr.success_count
                 + 40.0 * tr.total_waiting)
    custom = EnergyModel(realistic=True, e_tx_uj=10.0, e_ack_uj=2.0, e_idle_uj=1.0)
    assert protocol.account_energy(tr, custom) == \
        (10.0 * tr.total_transmissions + 2.0 * tr.success_count
         + 1.0 * tr.total_waiting)


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


def test_admission_average_mode_is_deterministic():
    # avg_snr = 10^4.5; the average mode is all-or-nothing around it
    exp = make_experiment(n_total=10, gamma_qos=1e5, admission="average")
    assert protocol.admit_users(exp, block=0, size=2).tolist() == [0, 0]
    exp = make_experiment(n_total=10, gamma_qos=3.0, admission="average")
    assert protocol.admit_users(exp, block=0, size=2).tolist() == [10, 10]


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
# block kernel against the per-slot reference
# ---------------------------------------------------------------------------

def _two_sample_chi2_p(a, b, bins=10):
    """Chi-square homogeneity p-value of two samples on pooled-quantile bins."""
    edges = np.unique(np.quantile(np.concatenate([a, b]),
                                  np.linspace(0.0, 1.0, bins + 1)))
    if edges.size < 2:
        return 1.0 if a[0] == b[0] else 0.0
    table = np.array([np.histogram(a, edges)[0], np.histogram(b, edges)[0]])
    return float(sstats.chi2_contingency(table)[1])


@pytest.mark.parametrize("scheme", ["ftp", "atp"])
@pytest.mark.parametrize("K", [2, 10, 40])
def test_kernel_matches_per_slot_reference(scheme, K):
    n_kernel, n_ref = 4000, 600
    slots, txs, waits = protocol.contend(scheme, np.full(n_kernel, K),
                                         rng(1000 + K))
    ref = [protocol.run_frame(scheme, K, rng(2000 + K + i))
           for i in range(n_ref)]
    reference = {"slots": [t.total_slots for t in ref],
                 "transmissions": [t.total_transmissions for t in ref],
                 "waiting": [t.total_waiting for t in ref]}
    for name, kernel in (("slots", slots), ("transmissions", txs),
                         ("waiting", waits)):
        p = _two_sample_chi2_p(kernel, np.asarray(reference[name]))
        assert p > 1e-4, f"{scheme} K={K} {name}: p = {p:.2e}"


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
    # e_uJ = 1200 tx + 120 successes (= K admitted) + 40 waiting, waiting >= 0
    exp = make_experiment(scheme="atp", n_total=6, trials=300, seed=4)
    _, rows = protocol.run_batch(exp, collect_rows=True)
    for r in rows:
        idle = (r.energy_uj - 1200.0 * r.total_transmissions
                - 120.0 * r.k_admitted) / 40.0
        assert idle >= 0 and idle == int(idle)


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
