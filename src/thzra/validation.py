"""Statistical harness tying Monte Carlo output to the closed forms:
goodness-of-fit, outage curves with confidence intervals, slope regression
for the diversity order, and exhaustive bound sweeps.

scipy is imported inside the functions that use it, so simulate and
sweep start without it.  Quantiles come from scipy.special (chdtri, chdtrc,
ndtri), which validate loads anyway; only slope_fit, which no command calls,
imports scipy.stats (about a third of a validate run on its own).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from . import analytics, channel, protocol, streams
from .errors import EmptySample, InsufficientTail
from .params import MIN_GOF_SAMPLES, Experiment

KS_COEFF_5PCT = 1.36     # asymptotic two-sided KS threshold factor at 5%
AGREEMENT_ALPHA = 1e-3   # family-wise false-alarm level of simulator_agreement


@dataclass(frozen=True)
class GofReport:
    test: str            # KS | ChiSquare
    statistic: float
    threshold: float
    n_samples: int
    passed: bool
    df: int = 0          # chi-square degrees of freedom (0 for KS)

    @staticmethod
    def make(test, statistic, threshold, n, df=0):
        return GofReport(test, float(statistic), float(threshold), int(n),
                         bool(statistic < threshold), int(df))

    @property
    def p_value(self) -> float:
        """Chi-square tail probability (only meaningful for ChiSquare)."""
        if self.test != "ChiSquare" or self.df < 1:
            raise ValueError("p_value defined for chi-square reports only")
        from scipy.special import chdtrc
        return float(chdtrc(self.df, self.statistic))


def ks_statistic(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.max(ecdf_hi - f), np.max(f - ecdf_lo)))


def ks_compare(samples: np.ndarray, cdf: Callable, level_coeff: float = KS_COEFF_5PCT
               ) -> GofReport:
    """Two-sided KS test against an analytic CDF; threshold 1.36/sqrt(n)."""
    n = np.asarray(samples).size
    if n < MIN_GOF_SAMPLES:
        raise EmptySample(f"KS comparison needs n >= {MIN_GOF_SAMPLES}, got {n}")
    d = ks_statistic(samples, cdf)
    return GofReport.make("KS", d, level_coeff / math.sqrt(n), n)


def chi_square_compare(samples: np.ndarray, cdf: Callable, support: Tuple[float, float],
                       min_expected: int = 20, p_floor: float = 0.01) -> GofReport:
    """Equal-probability-bin chi-square test against an analytic CDF.

    Bin edges are found by bisecting the CDF; passes when the p-value
    exceeds p_floor (statistic below the matching chi2 quantile).
    """
    from scipy.special import chdtri
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < MIN_GOF_SAMPLES:
        raise EmptySample(f"chi-square needs n >= {MIN_GOF_SAMPLES}, got {n}")
    n_bins = max(4, min(50, n // (5 * min_expected)))
    probs = np.linspace(0.0, 1.0, n_bins + 1)
    edges = [support[0]] + [_cdf_invert(cdf, q, support) for q in probs[1:-1]] \
        + [support[1]]
    counts, _ = np.histogram(x, bins=np.asarray(edges))
    expected = n / n_bins
    stat = float(np.sum((counts - expected) ** 2 / expected))
    threshold = float(chdtri(n_bins - 1, p_floor))
    return GofReport.make("ChiSquare", stat, threshold, n, df=n_bins - 1)


def _cdf_invert(cdf, q, support, tol=1e-12, iters=200):
    lo, hi = support
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# outage Monte Carlo and slope fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutageCurve:
    gamma_bar_db: np.ndarray
    p_out: np.ndarray
    ci_lo: np.ndarray        # Wilson interval
    ci_hi: np.ndarray
    n_draws: int


def wilson_interval(successes: int, n: int, z: float = 1.959964) -> Tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def outage_mc(exp: Experiment, gamma_th: float, gamma_bar_db: Sequence[float],
              n: int, seed: int, chunk: int = 1_000_000) -> OutageCurve:
    """Empirical outage probability over an average-SNR grid.

    Each grid point draws `n` composite channels from named substreams
    keyed by the grid index, so curves are reproducible point-by-point.
    """
    gdb = np.asarray(list(gamma_bar_db), dtype=float)
    p = np.empty(gdb.size)
    lo = np.empty(gdb.size)
    hi = np.empty(gdb.size)
    for i, db in enumerate(gdb):
        gbar = 10.0 ** (db / 10.0)
        hits = 0
        done = 0
        while done < n:
            m = min(chunk, n - done)
            rng_a = streams.substream(seed, i, done, streams.ABSORPTION)
            rng_f = streams.substream(seed, i, done, streams.FADING)
            rng_m = streams.substream(seed, i, done, streams.MISALIGNMENT)
            g = channel.draw_snr_batch(exp, m, rng_a, rng_f, rng_m, avg_snr=gbar)
            hits += int(np.count_nonzero(g < gamma_th))
            done += m
        p[i] = hits / n
        lo[i], hi[i] = wilson_interval(hits, n)
    return OutageCurve(gamma_bar_db=gdb, p_out=p, ci_lo=lo, ci_hi=hi, n_draws=n)


@dataclass(frozen=True)
class SlopeFit:
    slope: float             # decades of outage per decade of average SNR
    stderr: float
    n_points: int


def slope_fit(curve: OutageCurve, max_pout: float = 0.1,
              min_points: int = 4, max_ci_decades: float = 0.5) -> SlopeFit:
    """High-SNR log-log slope of the outage curve (diversity order estimate).

    Uses points with p_out < max_pout whose Wilson interval spans less
    than max_ci_decades; raises InsufficientTail when fewer than
    min_points qualify.
    """
    from scipy import stats as sstats
    ok = (curve.p_out < max_pout) & (curve.p_out > 0) & (curve.ci_lo > 0)
    width = np.full(curve.p_out.shape, np.inf)
    nz = curve.ci_lo > 0
    width[nz] = np.log10(curve.ci_hi[nz]) - np.log10(curve.ci_lo[nz])
    ok &= width < max_ci_decades
    if int(ok.sum()) < min_points:
        raise InsufficientTail(
            f"only {int(ok.sum())} usable high-SNR points (need {min_points})")
    x = curve.gamma_bar_db[ok] / 10.0
    y = np.log10(curve.p_out[ok])
    fit = sstats.linregress(x, y)
    return SlopeFit(slope=float(-fit.slope), stderr=float(fit.stderr),
                    n_points=int(ok.sum()))


# ---------------------------------------------------------------------------
# bound sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundRow:
    K: int
    metric: str
    exact: float
    lower: float
    upper: float
    passed: bool


def bound_sweep(K_values: Iterable[int]) -> List[BoundRow]:
    """Exact-vs-bracket table for the delay/energy brackets and the energy gap."""
    ks = sorted(set(int(k) for k in K_values))
    if not ks or ks[0] < 2:
        raise ValueError("bound sweep needs K >= 2")
    rows: List[BoundRow] = []

    def add(K, metric, rep: analytics.DelayEnergyReport):
        rows.append(BoundRow(K, metric, rep.exact, rep.lower, rep.upper,
                             rep.bracketed))

    for K in ks:
        atp = analytics.delay_report_atp(K)     # ATP energy = ATP delay
        add(K, "atp_delay", atp)
        add(K, "atp_energy", atp)
        if K >= 3:
            add(K, "ftp_delay", analytics.delay_report_ftp(K))
            add(K, "ftp_energy", analytics.energy_report_ftp(K))
            gap = atp.exact - analytics.energy_ftp(K)
            lo, up = analytics.energy_gap_bounds(K)
            rows.append(BoundRow(K, "energy_gap", gap, lo, up, lo < gap < up))
    return rows


def sweep_all_pass(rows: List[BoundRow]) -> bool:
    return all(r.passed for r in rows)


# ---------------------------------------------------------------------------
# simulator-vs-series agreement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgreementRow:
    scheme: str
    K: int
    kind: str            # delay | energy
    simulated: float
    exact: float
    se: float            # standard error of the simulated mean
    z: float             # allowed deviation in standard errors
    rel_err: float
    passed: bool


def exact_delay_energy(scheme: str, K: int) -> Tuple[float, float]:
    """Exact expected slots and unit energy for a scheme at K users."""
    if scheme == "ftp":
        return analytics.delay_ftp(K), analytics.energy_ftp(K)
    if scheme == "atp":
        d = analytics.delay_atp(K)
        return d, d
    if scheme == "optimal":
        return float(K), float(K)
    raise ValueError(f"unknown scheme {scheme!r}")


def simulator_agreement(exp: Experiment, schemes: Sequence[str],
                        k_values: Sequence[int], trials: int
                        ) -> List[AgreementRow]:
    """Mean frame slots / transmissions vs the exact series.

    A row passes when |simulated - exact| <= z * SE, with z the two-sided
    normal quantile at the Bonferroni level AGREEMENT_ALPHA / rows, so a
    correct simulator fails the table with probability at most about
    AGREEMENT_ALPHA at any trial count, while a fixed relative bias is
    caught once enough trials shrink SE well below it.
    """
    from scipy.special import ndtri
    results = []
    for scheme in schemes:
        for K in k_values:
            e = exp.with_protocol(scheme=scheme, n_total=K, gamma_qos=0.0,
                                  trials=trials)
            stats, _ = protocol.run_batch(e)
            d_exact, e_exact = exact_delay_energy(scheme, K)
            results += [(scheme, K, "delay", stats.mean_delay, stats.se_delay,
                         d_exact),
                        (scheme, K, "energy", stats.mean_transmissions,
                         stats.se_transmissions, e_exact)]
    z = float(-ndtri(AGREEMENT_ALPHA / (2.0 * len(results))))
    return [AgreementRow(scheme, K, kind, sim, float(exact), se, z,
                         abs(sim - exact) / exact, abs(sim - exact) <= z * se)
            for scheme, K, kind, sim, se, exact in results]
