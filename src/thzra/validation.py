"""Statistical harness tying Monte Carlo output to the closed forms:
goodness-of-fit, outage curves with confidence intervals, exhaustive
bound sweeps and simulator-vs-series agreement.

Every routine runs on numpy and the standard library: the chi-square
tail is channel.gammaincc, its quantile a bisection of that tail, and the
normal quantile from statistics.NormalDist, so validate, like every
command, loads no scipy module (importing scipy.special alone takes about
0.2 s).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from . import analytics, channel, protocol, streams
from .params import Experiment, db_to_linear

KS_COEFF_5PCT = 1.36     # asymptotic two-sided KS threshold factor at 5%
CHI2_MIN_EXPECTED = 20   # chi-square bins: n // (5 * this), from 4 to 50
CHI2_P_FLOOR = 0.01      # chi-square passes while its p-value exceeds this
AGREEMENT_ALPHA = 1e-3   # family-wise false-alarm level of simulator_agreement


@dataclass(frozen=True)
class GofReport:
    statistic: float
    threshold: float
    passed: bool             # statistic < threshold
    p_value: float = math.nan    # chi-square tail probability; NaN for KS


def ks_statistic(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.max(ecdf_hi - f), np.max(f - ecdf_lo)))


def ks_compare(samples: np.ndarray, cdf: Callable) -> GofReport:
    """Two-sided KS test against an analytic CDF at 5%: threshold
    1.36/sqrt(n)."""
    d = ks_statistic(samples, cdf)
    threshold = KS_COEFF_5PCT / math.sqrt(np.asarray(samples).size)
    return GofReport(d, threshold, d < threshold)


def chi_square_compare(samples: np.ndarray, cdf: Callable) -> GofReport:
    """Equal-probability-bin chi-square test against an analytic CDF.

    The probability integral transform u = cdf(x) of the samples is
    counted in equal cells of [0, 1]; passes when the p-value exceeds
    CHI2_P_FLOOR (statistic below the matching chi2 quantile).
    """
    u = np.asarray(cdf(np.asarray(samples, dtype=float)), dtype=float)
    n = u.size
    n_bins = max(4, min(50, n // (5 * CHI2_MIN_EXPECTED)))
    counts, _ = np.histogram(u, bins=n_bins, range=(0.0, 1.0))
    expected = n / n_bins
    stat = float(np.sum((counts - expected) ** 2 / expected))
    threshold = chi2_threshold(n_bins - 1, CHI2_P_FLOOR)
    return GofReport(stat, threshold, stat < threshold,
                     channel.gammaincc((n_bins - 1) / 2.0, stat / 2.0))


def chi2_threshold(df: int, p: float) -> float:
    """The x with chi-square tail Q(df/2, x/2) = p for 0 < p < 1, bisected
    until the bracket is below 4.5e-16 x, about two ulps; bisecting the
    tail itself keeps a small p's relative accuracy, which 1 - p would
    lose."""
    def above(x):                   # the root lies above x
        return channel.gammaincc(df / 2.0, x / 2.0) > p

    lo, hi = 0.0, float(df)
    while above(hi):
        hi *= 2.0
    while hi - lo >= 4.5e-16 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# outage Monte Carlo
# ---------------------------------------------------------------------------

OUTAGE_CHUNK = 2 ** 16   # draws per substream block; bounds peak memory
Z95 = 1.959964           # two-sided 95 % normal quantile


@dataclass(frozen=True)
class OutageCurve:
    gamma_bar_db: np.ndarray
    p_out: np.ndarray
    ci_lo: np.ndarray        # 95 %: p -/+ Z95 se, clipped to [0, 1]
    ci_hi: np.ndarray
    se: np.ndarray           # standard error of p_out
    vrf: np.ndarray          # variance of crude counting, p(1-p)/n, over
                             # se^2; inf where the estimate is exact
    conditioned: str         # absorption | misalignment | fading: the
                             # component outage_score integrates out
    tilt: float              # theta of the drawn components (outage_rule)
    re_bounded: bool         # relative error bounded as p_out -> 0
    stratified: str          # misalignment | fading | none: the drawn
                             # component whose strata the se rests on


def outage_mc(exp: Experiment, gamma_th: float, gamma_bar_db: Sequence[float],
              n: int, seed: int) -> OutageCurve:
    """Outage probability over an average-SNR grid, one channel component
    integrated out in closed form (channel.outage_score).

    channel.outage_rule integrates out the component of least tail rate
    r_1 among absorption, misalignment and alpha-mu fading, and draws the
    others from their laws tilted by theta = channel.TILT_FRACTION times
    the least rate of every random component (r_1 unless eta-mu or
    kappa-mu fading has it), each score weighted by its likelihood ratio,
    fading of every family as a tilted Gamma draw given its mixture
    index.  One drawn component is drawn in strata of its own quantile
    (channel.stratified_neg_log): -ln(U V), or where misalignment is
    integrated out, alpha-mu fading's -ln(r G).  The
    weighted score's mean is p_out, and where the rule's re_bounded holds
    its relative error stays bounded as p_out -> 0, so the se keeps its
    calibration deep in the tail.  Points where gamma_th settles the
    answer (OutageQuery.settled) take it without drawing.

    Every point scores the same draws: chunk j of OUTAGE_CHUNK draws comes
    from the substreams (seed, j * OUTAGE_CHUNK, component), drawn once
    for the whole grid, so the points' errors are positively correlated
    and a point's result is bit-identical whatever else is on the grid.
    Each point's chunks merge in one channel.StratifiedMean, its scores
    centred on its first, so a score that never varies gives se = 0 and
    vrf = p(1-p) / (n se^2) = inf (the estimate is exact).  The interval
    p +- 1.96 se is clipped to [0, 1].
    """
    gdb = np.asarray(list(gamma_bar_db), dtype=float)
    queries = [analytics.OutageQuery(gamma_th, db_to_linear(db), exp.link.k_h)
               for db in gdb]
    p = np.array([q.settled or 0.0 for q in queries])
    se = np.zeros(gdb.size)
    live = [i for i, q in enumerate(queries) if q.settled is None]
    means = [channel.StratifiedMean() for _ in live]
    for done in range(0, n, OUTAGE_CHUNK) if live else ():
        scores = channel.outage_score(
            exp, [queries[i].gamma_h for i in live],
            min(OUTAGE_CHUNK, n - done),
            lambda comp: streams.substream(seed, done, comp))
        for mean, v in zip(means, scores):
            mean.add(v)                         # centred in place
    for i, mean in zip(live, means):
        p[i], se[i] = mean.estimate()
    crude = p * (1.0 - p) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        # both variances 0 where the threshold settles p: no reduction
        vrf = np.where(crude == 0.0, 1.0, crude / se ** 2)
    rule = channel.outage_rule(exp)
    return OutageCurve(gamma_bar_db=gdb, p_out=p,
                       ci_lo=np.maximum(p - Z95 * se, 0.0),
                       ci_hi=np.minimum(p + Z95 * se, 1.0),
                       se=se, vrf=vrf, conditioned=rule.integrated,
                       tilt=rule.tilt, re_bounded=rule.re_bounded,
                       stratified=rule.stratified)


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
    """Exact-vs-bracket rows of analytics.series_table at each K, for every
    series whose bracket holds there; energy_gap must lie strictly inside."""
    rows: List[BoundRow] = []
    for K in sorted(set(int(k) for k in K_values)):
        for metric, (exact, lo, up) in analytics.series_table(K).items():
            if not math.isnan(lo):
                inside = (lo < exact < up if metric == "energy_gap"
                          else lo <= exact <= up)
                rows.append(BoundRow(K, metric, exact, lo, up, inside))
    return rows


# ---------------------------------------------------------------------------
# simulator-vs-series agreement
# ---------------------------------------------------------------------------

def bonferroni_z(n_tests: int) -> float:
    """Two-sided normal quantile at level AGREEMENT_ALPHA / n_tests: a
    family of n_tests correct estimates, each within z standard errors of
    its exact value, fails with probability at most about AGREEMENT_ALPHA."""
    from statistics import NormalDist   # lazy: only validate needs it
    return -NormalDist().inv_cdf(AGREEMENT_ALPHA / (2.0 * n_tests))


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
    if scheme == "optimal":
        return float(K), float(K)
    if scheme not in ("ftp", "atp"):
        raise ValueError(f"unknown scheme {scheme!r}")
    table = analytics.series_table(K)
    return table[f"{scheme}_delay"][0], table[f"{scheme}_energy"][0]


def simulator_agreement(exp: Experiment, schemes: Sequence[str],
                        k_values: Sequence[int], trials: int
                        ) -> List[AgreementRow]:
    """Mean frame slots / transmissions vs the exact series.

    A row passes when |simulated - exact| <= z * SE, with z = bonferroni_z
    over the rows, so a correct simulator fails the table with probability
    at most about AGREEMENT_ALPHA at any trial count, while a fixed
    relative bias is caught once enough trials shrink SE well below it.
    """
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
    z = bonferroni_z(len(results))
    return [AgreementRow(scheme, K, kind, sim, float(exact), se, z,
                         abs(sim - exact) / exact, abs(sim - exact) <= z * se)
            for scheme, K, kind, sim, se, exact in results]
