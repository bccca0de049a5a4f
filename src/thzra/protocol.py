"""Slotted random access on a collision channel: QoS admission, FTP/ATP
contention, optimal-scheduling baseline and batch statistics.

A frame collects exactly one packet from each admitted user.  Per slot,
every user still holding a packet transmits independently with the
scheme's probability; exactly one transmitter is a success (that user
leaves the pool), two or more collide, zero is an idle slot.  Idle and
collision slots cost one time unit each, same as success slots.

Batches run in blocks of TRIAL_BLOCK frames with numpy (`admit_users`,
`contend`), which keep per-frame totals only, never per-slot records.
Admission draws each frame's admitted count, not each user's SNR, as a
stratified quantile of the count's law.  Where the channel has an exact
SNR law (analytics.has_snr_law: fading off or alpha-mu fading, with
either absorption model) that law is Binomial(N, q) at the exact pass
probability q, and admission draws no channel.  With eta-mu or kappa-mu
fading every provisioned user gets a draw of all channel components but
one, which gives its probability of passing the QoS threshold, and the
law is the Poisson binomial of those probabilities.
The tests check `contend` against the exact stage law: with k holders
at probability p a stage ends at its first single-transmitter slot, so
it lasts Geometric(k p (1-p)^(k-1)) slots.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import analytics, channel, streams
from .params import Experiment

# Frames per block.  Each block owns its admission and contention
# substreams, so memory stays bounded for any trial count and results do
# not depend on how blocks are scheduled.
TRIAL_BLOCK = 1024
# Admission scores at most this many users at once from a block's
# streams (rows of N users), bounding memory for large N as well.
ADMISSION_DRAWS = 1 << 18
# Above this many provisioned users a frame's count is drawn user by
# user instead of by the quantile, whose recursion costs O(N^2) per frame:
# at 64 users admission takes 1.7 times as long by quantile, at 128 2.4
# times (a block of 1024 frames on a 2-vCPU VM).  64 bounds that cost; it
# is not a measured break-even in time to a given precision, which no
# workload above 40 users has been timed for.
QUANTILE_MAX_USERS = 64


def admit_users(exp: Experiment, block: int, size: int) -> np.ndarray:
    """QoS admission for `size` frames of one block: admitted-user counts.

    Frame t admits K_t = min{k : F_t(k) >= W_t}, clipped to N, for W
    stratified (channel.stratified_uniform: frames t and t + size // 2
    share a stratum, an odd size's last frame is iid) and drawn from the
    block's substream (seed, ADMISSION, block, c), c the component
    channel.outage_rule integrates out.  F_t is the law of the count of
    the frame's N users whose SNR exceeds gamma_qos:
    - where pass_probability gives q exactly, Binomial(N, q)
      (binomial_cdf), the same for every frame: no channel draw;
    - with eta-mu or kappa-mu fading each provisioned user i of frame t
      gets one iid draw of the channel components channel.outage_score
      keeps, from the block's other substreams, and with it p_ti =
      P(SNR > gamma_qos | those components), one minus the score; F_t is
      the Poisson-binomial CDF of the p_ti.  Given the p, K_t is a count
      of Bernoulli(p_ti) passes, so its law is that of counting SNR draws
      above gamma_qos; which users pass is integrated out rather than
      drawn.  Above QUANTILE_MAX_USERS users each user passes on its
      own, at an iid uniform below p_ti from W's substream, which the
      score draws nothing from.

    q = 1 (gamma_qos = 0 or an infinite average SNR) admits everyone and
    q = 0 (a threshold at or above the SNR ceiling) nobody, with no draw.
    """
    cfg = exp.protocol
    n = cfg.n_total
    q = pass_probability(exp)
    if q in (0.0, 1.0):
        return np.full(size, n if q else 0, dtype=np.int64)
    free_stream = channel.outage_rule(exp).stream
    if q is not None:
        free = streams.substream(cfg.seed, streams.ADMISSION, block,
                                 free_stream)
        return binomial_quantile(analytics.binomial_cdf(n, q),
                                 channel.stratified_uniform(free, size))
    gamma_h = _qos_query(exp).gamma_h
    rngs = {c: streams.substream(cfg.seed, streams.ADMISSION, block, c)
            for c in (streams.ABSORPTION, streams.FADING,
                      streams.MISALIGNMENT)}
    free = rngs[free_stream]
    w = (channel.stratified_uniform(free, size)
         if n <= QUANTILE_MAX_USERS else None)
    counts = np.empty(size, dtype=np.int64)
    rows = max(1, ADMISSION_DRAWS // n)
    for lo in range(0, size, rows):
        m = min(rows, size - lo)
        [score] = channel.outage_score(exp, [gamma_h], m * n,
                                       rngs.__getitem__, stratified=False)
        p = 1.0 - score.reshape(n, m)   # user i of frame lo + t at [i, t]
        if w is None:
            counts[lo:lo + m] = np.count_nonzero(free.random((n, m)) < p,
                                                 axis=0)
        else:
            counts[lo:lo + m] = poisson_binomial_quantile(p, w[lo:lo + m])
    return counts


def _qos_query(exp: Experiment) -> analytics.OutageQuery:
    return analytics.OutageQuery(exp.protocol.gamma_qos, exp.link.avg_snr,
                                 exp.link.k_h)


def pass_probability(exp: Experiment) -> Optional[float]:
    """q = P(SNR > gamma_qos) for one user, exactly where it is known: 1
    or 0 where the threshold settles admission, 1 - analytics.cdf_snr
    where the channel has an SNR law (analytics.has_snr_law); None where
    admit_users draws the channel."""
    query = _qos_query(exp)
    if query.settled is None and not analytics.has_snr_law(exp):
        return None
    return 1.0 - analytics.cdf_snr(query, exp)


def binomial_quantile(cdf: np.ndarray, w: np.ndarray) -> np.ndarray:
    """min{k : cdf[k] >= w_t} for each w_t, clipped to N = cdf.size - 1
    where rounding leaves cdf[N] below w_t; w is raised to the smallest
    positive double, as in poisson_binomial_quantile."""
    k = np.searchsorted(cdf, np.maximum(w, np.nextafter(0.0, 1.0)))
    return np.minimum(k, cdf.size - 1)


def poisson_binomial_cdf(p: np.ndarray) -> np.ndarray:
    """P(S_t <= k) for k = 0..N, as an (N + 1, m) array, of the sum S_t of
    independent Bernoulli(p[i, t]) over the N rows of p.

    The PMF is built user by user, d_k <- d_k (1 - p) + d_(k-1) p, by
    three array operations in place; it is exact for p = 0 and p = 1.
    """
    n = p.shape[0]
    d = np.zeros((n + 1,) + p.shape[1:])
    d[0] = 1.0
    for i in range(n):
        t = d[:i + 1] * p[i]
        d[:i + 1] -= t
        d[1:i + 2] += t
    return np.cumsum(d, axis=0, out=d)


def poisson_binomial_quantile(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """min{k : F_t(k) >= w_t} per column t of p (poisson_binomial_cdf),
    clipped to N where rounding leaves F_t(N) below w_t.  w is raised to
    the smallest positive double, so w = 0 gives the lowest count of
    positive probability rather than 0."""
    below = poisson_binomial_cdf(p) < np.maximum(w, np.nextafter(0.0, 1.0))
    return np.minimum(np.count_nonzero(below, axis=0), p.shape[0])


def contend(scheme: str, k: np.ndarray, rng: np.random.Generator
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame (slots, transmissions, waiting) for admitted counts k.

    All live frames step in lockstep: each slot draws the transmitter count
    m ~ Binomial(remaining, p), with p = 1/k (FTP) or 1/remaining (ATP); a
    slot with m == 1 removes one holder, and the other remaining - m
    holders wait.  Finished frames drop out of the live set.  The optimal
    schedule polls one user per slot: (k, k, 0) in closed form.
    """
    k = np.asarray(k, dtype=np.int64)
    slots = np.zeros(k.size, dtype=np.int64)
    txs = np.zeros(k.size, dtype=np.int64)
    waits = np.zeros(k.size, dtype=np.int64)
    if scheme == "optimal":
        return k.copy(), k.copy(), waits
    live = np.flatnonzero(k > 0)
    remaining = k[live]
    p = 1.0 / remaining
    tx = np.zeros(live.size, dtype=np.int64)
    wait = np.zeros(live.size, dtype=np.int64)
    slot = 0
    while live.size:
        if scheme == "atp":
            p = 1.0 / remaining
        m = rng.binomial(remaining, p)
        slot += 1
        tx += m
        wait += remaining - m
        remaining = remaining - (m == 1)
        done = remaining == 0
        if done.any():
            ids = live[done]
            slots[ids] = slot
            txs[ids] = tx[done]
            waits[ids] = wait[done]
            keep = ~done
            live, remaining, tx, wait = (live[keep], remaining[keep],
                                         tx[keep], wait[keep])
            if scheme == "ftp":
                p = p[keep]
    return slots, txs, waits


@dataclass(frozen=True)
class AggregateStats:
    """Across-trial means with standard errors, from the frame pairs of
    each admission stratum (run_batch)."""

    scheme: str
    n_trials: int
    mean_delay: float
    se_delay: float
    mean_transmissions: float    # also the mean unit energy
    se_transmissions: float
    mean_energy_uj: float
    se_energy_uj: float
    mean_k_admitted: float


def run_batch(exp: Experiment) -> Tuple[AggregateStats, Tuple[np.ndarray, ...]]:
    """Run `trials` frames; deterministic given (seed, config).

    Returns the aggregate and the per-frame arrays (k admitted, slots,
    transmissions, energy in uJ); the transmissions are also the frame's
    unit energy.

    Block b of TRIAL_BLOCK frames draws admission from the substreams
    (seed, ADMISSION, b, component) and contention from (seed, PROTOCOL,
    b), so the aggregate is independent of execution order.
    K_admitted = 0 frames contribute zero delay/energy and stay in the
    averages.  Where admission is drawn, frames t and t + m // 2 of a
    block of m share a stratum of its uniform, so they are not
    independent: each mean and its se come from those pairs, blocks
    merged by size (channel.StratifiedMean), which stay unbiased where
    the threshold settles admission and the frames are iid.  Each mean
    is the plain average of the frames.
    """
    cfg = exp.protocol
    ks = np.empty(cfg.trials, dtype=np.int64)
    slots = np.empty(cfg.trials, dtype=np.int64)
    txs = np.empty(cfg.trials, dtype=np.int64)
    waits = np.empty(cfg.trials, dtype=np.int64)
    for block, lo in enumerate(range(0, cfg.trials, TRIAL_BLOCK)):
        hi = min(lo + TRIAL_BLOCK, cfg.trials)
        ks[lo:hi] = admit_users(exp, block, hi - lo)
        rng = streams.substream(cfg.seed, streams.PROTOCOL, block)
        slots[lo:hi], txs[lo:hi], waits[lo:hi] = contend(cfg.scheme,
                                                         ks[lo:hi], rng)
    # e_tx per transmission, e_ack per success (one per admitted user),
    # e_idle per holder waiting out a slot
    en = cfg.energy
    e_uj = en.e_tx_uj * txs + en.e_ack_uj * ks + en.e_idle_uj * waits
    moments = []
    for x in (slots, txs, e_uj, ks):
        mean = channel.StratifiedMean()
        for lo in range(0, x.size, TRIAL_BLOCK):    # add writes into a copy
            mean.add(x[lo:lo + TRIAL_BLOCK].astype(float))
        moments.append(mean.estimate())
    (d, d_se), (t, t_se), (e, e_se), (k, _) = moments
    stats = AggregateStats(
        scheme=cfg.scheme, n_trials=cfg.trials,
        mean_delay=d, se_delay=d_se,
        mean_transmissions=t, se_transmissions=t_se,
        mean_energy_uj=e, se_energy_uj=e_se, mean_k_admitted=k)
    return stats, (ks, slots, txs, e_uj)
