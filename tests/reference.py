"""Reference routines the tests check thzra against; no command calls them.

Crude outage counting with Wilson intervals (the estimator outage_mc's
conditional scores are compared with), the high-SNR slope fit of an
outage curve, the Hoeffding concentration bounds of the simulated means,
the ATP delay prefix, the linear misalignment CDF, the CDF of the gain
h_l h_p at one gain, the physical Gaussian-cluster construction of the
fading power, and the exact outage probability with alpha-mu, kappa-mu
and eta-mu fading, by quadrature.
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
                       re_bounded=False, stratified="none")


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


def fading_gaussian_construction(fp, rng: np.random.Generator,
                                 n: int) -> np.ndarray:
    """n draws of the fading power G = (h_f / r_hat)^alpha by the physical
    alpha-eta-kappa-mu construction (integer mu), symmetric p = q = 1: mu
    i.i.d. clusters of (in-phase, quadrature) Gaussians with variance
    ratio eta and equal-split dominant components sized so the total
    dominant-to-scattered power ratio is kappa, normalized to E[G] = 1."""
    mu = int(round(fp.mu))
    sigma_y2 = 1.0
    sigma_x2 = fp.eta * sigma_y2
    lam2 = fp.kappa * (sigma_x2 + sigma_y2) / 2.0   # lambda_x^2 = lambda_y^2
    lam = math.sqrt(lam2)
    x = rng.normal(lam, math.sqrt(sigma_x2), size=(n, mu))
    y = rng.normal(lam, math.sqrt(sigma_y2), size=(n, mu))
    g = np.sum(x * x + y * y, axis=1)
    mean_g = mu * ((sigma_x2 + sigma_y2) + 2.0 * lam2)
    return g / mean_g


def kappa_mu_outage(exp: Experiment, gamma_h: float) -> float:
    """P(h <= gamma_h) for Gamma absorption and kappa-mu fading (eta = 1):
    fading_outage over the fading power, whose mu Gaussian clusters make
    2 mu (1 + kappa) G a noncentral chi-square of 2 mu degrees of freedom
    and noncentrality 2 mu kappa."""
    fp = exp.fading
    return fading_outage(exp, gamma_h, stats.ncx2(
        2 * fp.mu, 2 * fp.mu * fp.kappa,
        scale=1.0 / (2 * fp.mu * (1.0 + fp.kappa))))


class ConvolvedPower:
    """The fading power G of eta-mu or kappa-mu fading as the Gaussian
    clusters build it: mu (1 + eta)(1 + kappa) G = eta A + B for
    independent A ~ chi'^2(mu, mu lambda^2 / eta) and B ~ chi'^2(mu,
    mu lambda^2), lambda^2 = kappa (1 + eta) / 2 (chi^2(mu) at kappa = 0),
    the clusters' in-phase and quadrature parts.  Its CDF and density at
    g are scipy quadratures over B of the convolution, with scipy.special's
    noncentral chi-square CDF (chndtr, chdtr) and the Bessel form of its
    density (ive), each a few microseconds where a frozen scipy.stats
    law takes 80."""

    def __init__(self, fp):
        lam2 = fp.kappa * (1.0 + fp.eta) / 2.0
        self.k, self.eta = fp.mu, fp.eta
        self.c = fp.mu * (1.0 + fp.eta) * (1.0 + fp.kappa)
        self.nc_a, self.nc_b = fp.mu * lam2 / fp.eta, fp.mu * lam2

    def _cdf(self, x, nc):
        return special.chndtr(x, self.k, nc) if nc else special.chdtr(self.k, x)

    def _pdf(self, x, nc):
        if not nc:
            return math.exp((self.k / 2 - 1) * math.log(x) - x / 2
                            - self.k / 2 * math.log(2.0)
                            - math.lgamma(self.k / 2))
        r = math.sqrt(nc * x)
        return 0.5 * special.ive(self.k / 2 - 1, r) * math.exp(
            r - (x + nc) / 2 + (self.k / 4 - 0.5) * math.log(x / nc))

    def _over_b(self, f, g):
        """The integral of f(b, y) over b in [0, y], y = c g, taken over
        b = y sin^2(phi / 2), whose Jacobian (y / 2) sin(phi) cancels the
        b^(-1/2) and (y - b)^(-1/2) of a chi-square density of one degree
        of freedom at either end."""
        y = self.c * g

        def over_phi(phi):
            return 0.5 * y * math.sin(phi) * f(y * math.sin(phi / 2) ** 2, y)

        return sum(integrate.quad(over_phi, lo, hi, epsabs=0, epsrel=1e-12,
                                  limit=500)[0]
                   for lo, hi in ((0.0, math.pi / 2), (math.pi / 2, math.pi)))

    def cdf(self, g: float) -> float:
        return self._over_b(lambda b, y: self._cdf((y - b) / self.eta, self.nc_a)
                            * self._pdf(b, self.nc_b), g)

    def pdf(self, g: float) -> float:
        return self.c / self.eta * self._over_b(
            lambda b, y: self._pdf((y - b) / self.eta, self.nc_a)
            * self._pdf(b, self.nc_b), g)


def eta_mu_outage(exp: Experiment, gamma_h: float) -> float:
    """P(h <= gamma_h) for Gamma absorption and any eta-mu or kappa-mu
    fading: fading_outage over ConvolvedPower."""
    return fading_outage(exp, gamma_h, ConvolvedPower(exp.fading))


def fading_outage(exp: Experiment, gamma_h: float, power) -> float:
    """E over the fading power G = (h_f / r_hat)^alpha, of law `power`
    (its cdf and pdf), of composite_gain_cdf(gamma_h / h_f), by scipy's
    quad over t = ln G.  Below g_k = (gamma_h / (a_l r_hat))^alpha the
    gain h_l h_p (at most a_l) is below gamma_h / h_f, so that part is the
    fading CDF at g_k; the rest is split at t_k + 2, 5, 10 and 20, since
    at a high SNR the mass sits within a few g_k (splits in G itself miss
    it: 2.5e-6 off at alpha = 3, 70 dB), and ends at G = e^7, past which
    a power of mean 1 has no mass a double holds."""
    fp, ab, link = exp.fading, exp.absorption, exp.link
    t_k = fp.alpha * math.log(gamma_h / (link.a_l * fp.r_hat))

    def density_times_cdf(t):
        g = math.exp(t)
        return g * power.pdf(g) * composite_gain_cdf(
            gamma_h / (fp.r_hat * g ** (1.0 / fp.alpha)), ab.k,
            ab.z_for(link), exp.misalignment.rho, link.a_l)

    p, lo = float(power.cdf(math.exp(t_k))), t_k
    for hi in (t_k + 2.0, t_k + 5.0, t_k + 10.0, t_k + 20.0, 7.0):
        if hi > lo:
            p += integrate.quad(density_times_cdf, lo, hi, epsabs=0,
                                epsrel=1e-11, limit=200)[0]
            lo = hi
    return p
