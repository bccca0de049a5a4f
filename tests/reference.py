"""Reference routines the tests check thzra against; no command calls them.

Crude outage counting with Wilson intervals (the estimator outage_mc's
conditional scores are compared with), the high-SNR slope fit of an
outage curve, the Hoeffding concentration bounds of the simulated means,
the ATP delay prefix, the linear misalignment CDF, the CDF of the gain
h_l h_p at one gain, and the exact outage probability with alpha-mu and
with kappa-mu fading, by quadrature.
"""
import math
from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np
from scipy import integrate, special, stats

from thzra import analytics, channel, streams
from thzra.errors import DomainError
from thzra.params import Experiment, db_to_linear
from thzra.validation import OUTAGE_CHUNK, Z95, OutageCurve


class InsufficientTail(RuntimeError):
    """Outage curve has too few usable high-SNR points for a slope fit."""


# ---------------------------------------------------------------------------
# crude outage counting and slope fits
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, n: int, z: float = Z95) -> Tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def outage_count(exp: Experiment, gamma_th: float, gamma_bar_db: Sequence[float],
                 n: int, seed: int) -> OutageCurve:
    """Crude outage Monte Carlo: the share of n composite draws with
    SNR < gamma_th, with Wilson intervals and the binomial standard error.
    The reference outage_mc is checked against.  Each point draws its own
    chunks, from the substreams (seed, grid index, draws done, component).
    """
    gdb = np.asarray(list(gamma_bar_db), dtype=float)
    hits = np.zeros(gdb.size)
    for i, db in enumerate(gdb):
        at_db = replace(exp, link=replace(exp.link, avg_snr=db_to_linear(db)))
        for done in range(0, n, OUTAGE_CHUNK):
            rngs = [streams.substream(seed, i, done, comp) for comp in
                    (streams.ABSORPTION, streams.FADING, streams.MISALIGNMENT)]
            g = channel.draw_snr_batch(at_db, min(OUTAGE_CHUNK, n - done), *rngs)
            hits[i] += np.count_nonzero(g < gamma_th)
    p = hits / n
    lo, hi = np.array([wilson_interval(int(h), n) for h in hits]).T
    return OutageCurve(gamma_bar_db=gdb, p_out=p, ci_lo=lo, ci_hi=hi,
                       se=np.sqrt(p * (1.0 - p) / n),
                       vrf=np.ones(gdb.size), conditioned="none", tilt=0.0,
                       re_bounded=False)


@dataclass(frozen=True)
class SlopeFit:
    slope: float             # decades of outage per decade of average SNR
    stderr: float
    n_points: int


SLOPE_MAX_POUT = 0.1
SLOPE_MAX_CI_DECADES = 0.5
SLOPE_MIN_POINTS = 4


def slope_fit(curve: OutageCurve) -> SlopeFit:
    """High-SNR log-log slope of the outage curve (diversity order estimate).

    Uses points with p_out < SLOPE_MAX_POUT whose interval spans less than
    SLOPE_MAX_CI_DECADES; raises InsufficientTail when fewer than
    SLOPE_MIN_POINTS qualify.
    """
    ok = (curve.p_out < SLOPE_MAX_POUT) & (curve.p_out > 0) & (curve.ci_lo > 0)
    width = np.full(curve.p_out.shape, np.inf)
    nz = curve.ci_lo > 0
    width[nz] = np.log10(curve.ci_hi[nz]) - np.log10(curve.ci_lo[nz])
    ok &= width < SLOPE_MAX_CI_DECADES
    if int(ok.sum()) < SLOPE_MIN_POINTS:
        raise InsufficientTail(f"only {int(ok.sum())} usable high-SNR points "
                               f"(need {SLOPE_MIN_POINTS})")
    x = curve.gamma_bar_db[ok] / 10.0
    y = np.log10(curve.p_out[ok])
    # least squares: slope Sxy / Sxx, its standard error from the residuals
    dx = x - x.mean()
    sxx = float(np.dot(dx, dx))
    slope = float(np.dot(dx, y - y.mean())) / sxx
    resid = y - y.mean() - slope * dx
    stderr = math.sqrt(float(np.dot(resid, resid)) / (x.size - 2) / sxx)
    return SlopeFit(slope=-slope, stderr=stderr, n_points=int(ok.sum()))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def delay_atp_prefix(K_max: int) -> np.ndarray:
    """delay_atp(K) for K = 1..K_max in one cumulative pass."""
    # (k/(k-1))^(k-1) with the k=1 term defined as 1 (lone user, p=1)
    k = np.arange(2, K_max + 1, dtype=float)
    terms = np.exp((k - 1.0) * np.log(k / (k - 1.0)))
    return np.cumsum(np.concatenate([[1.0], terms]))


def hoeffding_bound(epsilon: float, n: int, kind: str) -> float:
    """Concentration bound on the n-sample mean deviating by more than epsilon.

    kind='delay':  2 exp(-2 eps^2 / n)
    kind='energy': 2 exp(-2 eps^2 / (n (n-1)^2))
    """
    if epsilon < 0 or n < 1:
        raise DomainError("need epsilon >= 0 and n >= 1")
    if kind == "delay":
        return 2.0 * math.exp(-2.0 * epsilon ** 2 / n)
    if kind == "energy":
        denom = n * max(n - 1, 1) ** 2
        return 2.0 * math.exp(-2.0 * epsilon ** 2 / denom)
    raise DomainError(f"kind must be 'delay' or 'energy', got {kind!r}")


def misalignment_cdf(x: channel.ArrayLike, rho: float) -> channel.ArrayLike:
    """P(h_p <= x) = x^rho (1 - rho ln x) for x clipped to [0, 1]: 1 from
    x = 1 up, and its limit 0 at x = 0, where a draw that underflows lands."""
    xs = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore"):      # x = 0: ln x = -inf, F = 0
        out = channel.misalignment_cdf_log(np.log(xs), rho)
    return out if isinstance(x, np.ndarray) else float(out)


def composite_gain_cdf(y: float, k: float, z: float, rho: float,
                       a_l: float) -> float:
    """CDF of h_l * h_p at a gain y > 0 for Gamma absorption of shape
    k > 0: 1 from a_l up, else analytics.gain_cdf_log at ln(a_l/y)."""
    if y >= a_l:
        return 1.0
    return float(analytics.gain_cdf_log(np.array([math.log(a_l / y)]), k, z,
                                        rho)[0])


def exact_outage(exp: Experiment, gamma_h: float) -> float:
    """P(h <= gamma_h) for Gamma absorption of any real shape, alpha-mu
    fading and misalignment: E over the fading power G of
    composite_gain_cdf(gamma_h / h_f), h_f = r_hat G^(1/alpha),
    integrated over t = ln(mu G), whose density is e^(mu t - e^t) /
    Gamma(mu).  Below g_k = mu (gamma_h / (a_l r_hat))^alpha the gain
    h_l h_p (at most a_l) is below gamma_h / h_f, so that part is
    P(mu, g_k); the rest is split where the integrand turns, so that
    scipy's quad keeps its relative accuracy down to p of 1e-12 and below
    (it matches a 2-D quadrature over the absorption and misalignment
    draws to 1e-14 on the configs/sweep_outage.cfg cells at 100-120 dB)."""
    fp, ab, link = exp.fading, exp.absorption, exp.link
    k, z, rho = ab.k, ab.z_for(link), exp.misalignment.rho
    mu, alpha = fp.mu, fp.alpha
    t_k = math.log(mu) + alpha * math.log(gamma_h / (link.a_l * fp.r_hat))

    def density_times_cdf(t):
        h_f = fp.r_hat * math.exp((t - math.log(mu)) / alpha)
        return (composite_gain_cdf(gamma_h / h_f, k, z, rho,
                                             link.a_l)
                * math.exp(mu * t - math.exp(t) - math.lgamma(mu)))

    p, lo = float(special.gammainc(mu, math.exp(t_k))), t_k
    for hi in (t_k + 5.0, t_k + 20.0, math.log(mu) + 10.0, math.inf):
        if hi > lo:
            p += integrate.quad(density_times_cdf, lo, hi, epsabs=0,
                                epsrel=1e-11, limit=200)[0]
            lo = hi
    return p


def kappa_mu_outage(exp: Experiment, gamma_h: float) -> float:
    """P(h <= gamma_h) for Gamma absorption and kappa-mu fading (eta = 1,
    integer mu), which the package has no law for: E over the fading
    power G = (h_f / r_hat)^alpha of composite_gain_cdf(gamma_h
    / h_f), by scipy's quad.  The sampler's mu Gaussian clusters make
    2 mu (1 + kappa) G a noncentral chi-square of 2 mu degrees of freedom
    and noncentrality 2 mu kappa.  Below g_k = (gamma_h / (a_l
    r_hat))^alpha the gain h_l h_p (at most a_l) is below gamma_h / h_f,
    so that part is the fading CDF at g_k."""
    fp, ab, link = exp.fading, exp.absorption, exp.link
    power = stats.ncx2(2 * fp.mu, 2 * fp.mu * fp.kappa,
                       scale=1.0 / (2 * fp.mu * (1.0 + fp.kappa)))
    g_k = (gamma_h / (link.a_l * fp.r_hat)) ** fp.alpha

    def density_times_cdf(g):
        h_f = fp.r_hat * g ** (1.0 / fp.alpha)
        return power.pdf(g) * composite_gain_cdf(
            gamma_h / h_f, ab.k, ab.z_for(link), exp.misalignment.rho,
            link.a_l)

    p, lo = float(power.cdf(g_k)), g_k
    for hi in (g_k + 1.0, g_k + 10.0, math.inf):
        p += integrate.quad(density_times_cdf, lo, hi, epsabs=0,
                            epsrel=1e-10, limit=200)[0]
        lo = hi
    return p
