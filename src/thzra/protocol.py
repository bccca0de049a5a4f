"""Slotted random access on a collision channel: QoS admission, FTP/ATP
contention, optimal-scheduling baseline and batch statistics.

A frame collects exactly one packet from each admitted user.  Per slot,
every user still holding a packet transmits independently with the
scheme's probability; exactly one transmitter is a success (that user
leaves the pool), two or more collide, zero is an idle slot.  Idle and
collision slots cost one time unit each, same as success slots.

Batches run in blocks of TRIAL_BLOCK frames with numpy (`admit_users`,
`contend`), which keep per-frame totals only, never per-slot records.
Admission draws each frame's admitted count, not each user's SNR:
K ~ Binomial(N, q), q from the exact SNR law (analytics.cdf_snr), so
admission draws no channel.
The tests check `contend` against the exact stage law: with k holders
at probability p a stage ends at its first single-transmitter slot, so
it lasts Geometric(k p (1-p)^(k-1)) slots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from . import analytics, streams
from .params import Experiment

# Frames per block.  Each block owns its admission and contention
# substreams, so memory stays bounded for any trial count and results do
# not depend on how blocks are scheduled.
TRIAL_BLOCK = 1024


def admit_users(exp: Experiment, block: int, size: int) -> np.ndarray:
    """QoS admission for `size` frames of one block: iid admitted-user
    counts K ~ Binomial(N, q), q = pass_probability, drawn from the block's
    substream (seed, ADMISSION, block)."""
    rng = streams.substream(exp.protocol.seed, streams.ADMISSION, block)
    return rng.binomial(exp.protocol.n_total, pass_probability(exp), size)


def pass_probability(exp: Experiment) -> float:
    """q = P(SNR > gamma_qos) for one user, 1 - analytics.cdf_snr."""
    query = analytics.OutageQuery(exp.protocol.gamma_qos, exp.link.avg_snr,
                                  exp.link.k_h)
    return 1.0 - analytics.cdf_snr(query, exp)


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
    """Across-trial means with standard errors, post-stratified on the
    admitted count (post_stratified)."""

    scheme: str
    n_trials: int
    mean_delay: float
    se_delay: float
    mean_transmissions: float    # also the mean unit energy
    se_transmissions: float
    mean_energy_uj: float
    se_energy_uj: float
    mean_k_admitted: float


def post_stratified(xs: Sequence[np.ndarray], ks: np.ndarray,
                    pmf: np.ndarray) -> Iterator[Tuple[float, float]]:
    """(mean, se) of each array of frame values in xs, post-stratified on
    the frames' counts ks, of known law pmf (Cochran, Sampling Techniques,
    3rd ed., 1977, ch. 5A).  Walking k = 0..N up, the counts pool into
    contiguous runs, each closed once it holds 2 frames; an incomplete
    last run joins the previous pool, and fewer than 2 frames are one
    pool.  Pool g weighs W_g = sum of pmf over its counts: mean = sum W_g
    xbar_g and se^2 = sum W_g^2 s_g^2 / n_g, s_g at ddof 1 and 0 where
    n_g < 2.  The values are centred on the first, as StratifiedMean
    centres them, which keeps settled means bit-identical to v16 cells."""
    counts = np.bincount(ks, minlength=pmf.size)
    ends, run = [], 0
    for k, c in enumerate(counts.tolist()):
        run += c
        if run >= 2:
            ends.append(k)
            run = 0
    pool_of = np.minimum(np.searchsorted(ends, np.arange(pmf.size)),
                         max(len(ends) - 1, 0))
    weight = np.bincount(pool_of, pmf)
    n = np.maximum(np.bincount(pool_of, counts), 1.0)
    pool = pool_of[ks]
    for x in xs:
        d = x.astype(float)
        centre = float(d[0])
        d -= centre
        mean = np.bincount(pool, d, weight.size) / n
        d -= mean[pool]
        s2 = np.bincount(pool, d * d, weight.size) / np.maximum(n - 1.0, 1.0)
        yield (centre + float(weight @ mean),
               math.sqrt(float(weight ** 2 @ (s2 / n))))


def run_batch(exp: Experiment) -> Tuple[AggregateStats, Tuple[np.ndarray, ...]]:
    """Run `trials` frames; deterministic given (seed, config).

    Returns the aggregate and the per-frame arrays (k admitted, slots,
    transmissions, energy in uJ); the transmissions are also the frame's
    unit energy.

    Block b of TRIAL_BLOCK frames draws admission from the substream
    (seed, ADMISSION, b) and contention from (seed, PROTOCOL, b), so
    the aggregate is independent of execution order.
    K_admitted = 0 frames contribute zero delay/energy and stay in the
    averages.  The frames are iid; each mean is post-stratified on K's
    law, Binomial(N, q), which is the plain mean with its iid se where
    the threshold settles admission (q = 0 or 1).
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
    pmf = analytics.binomial_pmf(cfg.n_total, pass_probability(exp))
    (d, d_se), (t, t_se), (e, e_se), (k, _) = post_stratified(
        (slots, txs, e_uj, ks), ks, pmf)
    stats = AggregateStats(
        scheme=cfg.scheme, n_trials=cfg.trials,
        mean_delay=d, se_delay=d_se,
        mean_transmissions=t, se_transmissions=t_se,
        mean_energy_uj=e, se_energy_uj=e_se, mean_k_admitted=k)
    return stats, (ks, slots, txs, e_uj)
