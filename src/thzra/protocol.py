"""Slotted random access on a collision channel: QoS admission, FTP/ATP
contention, optimal-scheduling baseline and batch statistics.

A frame collects exactly one packet from each admitted user.  Per slot,
every user still holding a packet transmits independently with the
scheme's probability; exactly one transmitter is a success (that user
leaves the pool), two or more collide, zero is an idle slot.  Idle and
collision slots cost one time unit each, same as success slots.

Batches run in blocks of TRIAL_BLOCK frames with numpy (`admit_users`,
`contend`), which keep per-frame totals only, never per-slot records.
Admission draws each frame's admitted count, not each user's SNR: the
Binomial(N, q) quantile at a stratified uniform, q from the exact SNR
law (analytics.cdf_snr), so admission draws no channel.
The tests check `contend` against the exact stage law: with k holders
at probability p a stage ends at its first single-transmitter slot, so
it lasts Geometric(k p (1-p)^(k-1)) slots.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import analytics, channel, streams
from .params import Experiment

# Frames per block.  Each block owns its admission and contention
# substreams, so memory stays bounded for any trial count and results do
# not depend on how blocks are scheduled.
TRIAL_BLOCK = 1024


def admit_users(exp: Experiment, block: int, size: int) -> np.ndarray:
    """QoS admission for `size` frames of one block: admitted-user counts.

    Frame t admits K_t = min{k : F(k) >= W_t}, clipped to N, for F the
    CDF of Binomial(N, q) (binomial_cdf), q = pass_probability, and W
    stratified (channel.stratified_uniform: frames t and t + size // 2
    share a stratum, an odd size's last frame is iid) and drawn from the
    block's substream (seed, ADMISSION, block, outage_rule's stream).
    q = 1 (gamma_qos = 0 or an infinite average SNR) admits everyone and
    q = 0 (a threshold at or above the SNR ceiling) nobody, no draw.
    """
    cfg = exp.protocol
    q = pass_probability(exp)
    if q in (0.0, 1.0):
        return np.full(size, cfg.n_total if q else 0, dtype=np.int64)
    rng = streams.substream(cfg.seed, streams.ADMISSION, block,
                            channel.outage_rule(exp).stream)
    return binomial_quantile(analytics.binomial_cdf(cfg.n_total, q),
                             channel.stratified_uniform(rng, size))


def pass_probability(exp: Experiment) -> float:
    """q = P(SNR > gamma_qos) for one user, 1 - analytics.cdf_snr."""
    query = analytics.OutageQuery(exp.protocol.gamma_qos, exp.link.avg_snr,
                                  exp.link.k_h)
    return 1.0 - analytics.cdf_snr(query, exp)


def binomial_quantile(cdf: np.ndarray, w: np.ndarray) -> np.ndarray:
    """min{k : cdf[k] >= w_t} for each w_t, clipped to N = cdf.size - 1
    where rounding leaves cdf[N] below w_t; w is raised to the smallest
    positive double, so w = 0 gives the lowest count of positive weight."""
    k = np.searchsorted(cdf, np.maximum(w, np.nextafter(0.0, 1.0)))
    return np.minimum(k, cdf.size - 1)


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

    Block b of TRIAL_BLOCK frames draws admission from the substream
    (seed, ADMISSION, b, c) and contention from (seed, PROTOCOL, b), so
    the aggregate is independent of execution order.
    K_admitted = 0 frames contribute zero delay/energy and stay in the
    averages.  Where 0 < q < 1, frames t and t + m // 2 of a block of m
    share a stratum of its uniform, so they are not
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
