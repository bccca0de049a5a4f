"""Slotted random access on a collision channel: QoS admission, FTP/ATP
contention, optimal-scheduling baseline and batch statistics.

A frame collects exactly one packet from each admitted user.  Per slot,
every user still holding a packet transmits independently with the
scheme's probability; exactly one transmitter is a success (that user
leaves the pool), two or more collide, zero is an idle slot.  Idle and
collision slots cost one time unit each, same as success slots.

Batches run in blocks of TRIAL_BLOCK frames with numpy (`admit_users`,
`contend`), which keep per-frame totals only, never per-slot records.
The tests check `contend` against the exact stage law: with k holders
at probability p a stage ends at its first single-transmitter slot, so
it lasts Geometric(k p (1-p)^(k-1)) slots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import channel, streams
from .params import Experiment

# Frames per block.  Each block owns its admission and contention
# substreams, so memory stays bounded for any trial count and results do
# not depend on how blocks are scheduled.
TRIAL_BLOCK = 1024
# Admission draws at most this many channel SNRs at once from a block's
# streams (rows of N users), bounding memory for large N as well.
ADMISSION_DRAWS = 1 << 18


def admit_users(exp: Experiment, block: int, size: int) -> np.ndarray:
    """QoS admission for `size` frames of one block: admitted-user counts.

    Every provisioned user of every frame gets an independent channel draw
    from the block's substreams and is admitted when its SNR exceeds
    gamma_qos.
    """
    cfg = exp.protocol
    n = cfg.n_total
    if cfg.gamma_qos == 0.0:    # admits everyone: SNR > 0 almost surely
        return np.full(size, n, dtype=np.int64)
    rngs = [streams.substream(cfg.seed, streams.ADMISSION, block, c)
            for c in (streams.ABSORPTION, streams.FADING, streams.MISALIGNMENT)]
    counts = np.empty(size, dtype=np.int64)
    rows = max(1, ADMISSION_DRAWS // n)
    for lo in range(0, size, rows):
        m = min(rows, size - lo)
        gammas = channel.draw_snr_batch(exp, m * n, *rngs).reshape(m, n)
        counts[lo:lo + m] = np.count_nonzero(gammas > cfg.gamma_qos, axis=1)
    return counts


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
    """Across-trial means with standard errors (sample std / sqrt(n))."""

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
    """Run `trials` independent frames; deterministic given (seed, config).

    Returns the aggregate and the per-frame arrays (k admitted, slots,
    transmissions, energy in uJ); the transmissions are also the frame's
    unit energy.

    Block b of TRIAL_BLOCK frames draws admission from the substreams
    (seed, ADMISSION, b, component) and contention from (seed, PROTOCOL,
    b), so the aggregate is independent of execution order.
    K_admitted = 0 frames contribute zero delay/energy and stay in the
    averages.
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
    stats = AggregateStats(
        scheme=cfg.scheme, n_trials=cfg.trials,
        mean_delay=float(slots.mean()), se_delay=_se(slots),
        mean_transmissions=float(txs.mean()), se_transmissions=_se(txs),
        mean_energy_uj=float(e_uj.mean()), se_energy_uj=_se(e_uj),
        mean_k_admitted=float(ks.mean()))
    return stats, (ks, slots, txs, e_uj)


def _se(x: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    return float(x.std(ddof=1) / math.sqrt(x.size))
