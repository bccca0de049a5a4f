"""Closed-form statistics: the SNR law, delay and energy series with
their scaling bounds, diversity order, the Binomial law of admission.

The no-fading SNR law is the law of h_l * h_p = a_l e^{-(T+W)} with
T ~ Gamma(k, 1/z) (absorption, any real k > 0) and W ~ Gamma(2, 1/rho)
(misalignment).  Conditioning on T gives a regularized upper incomplete
gamma plus two confluent hypergeometric terms (Tricomi's entire
incomplete gamma, DLMF 8.5.1), exact for every z and rho including
z = rho.  numpy and the standard library evaluate them at an array of
gains: channel.gammaincc gives the incomplete gamma, and a
Poisson-weighted series or an asymptotic sum gives each Kummer function.
Deterministic absorption has T = 0 and its one path gain in place of
a_l.  With fading on, cdf_snr averages it by Gauss-Legendre quadrature
over the fading power, a Gamma mixture for every eta, kappa and mu.

Energy is counted in transmissions (unit energy).  `stage_law` gives the
per-stage success probabilities of an FTP or ATP frame, which the closed
forms and the contention kernel are checked against; `series_table` holds
every delay/energy series with its scaling-law bracket, for all callers.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .channel import (ArrayLike, _stirling_remainder, deterministic_path_gain,
                      fading_mixture, gammainc, gammaincc,
                      misalignment_cdf_log)
from .errors import DomainError
from .params import Experiment, FadingParams, GammaAbsorption, ThzLinkParams

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# no-fading SNR law (random path gain x misalignment, impaired front end)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutageQuery:
    """Threshold/average SNR pair with the derived amplitude threshold.

    gamma_h is the composite-gain value whose impaired SNR equals
    gamma_th; when gamma_th is at or above the hardware ceiling 1/k_h^2
    (gamma_th = inf included) the outage probability is 1 and
    `above_ceiling` flags it.
    """

    gamma_th: float
    gamma_bar: float
    k_h: float = 0.0

    def __post_init__(self):
        if self.gamma_th < 0 or self.gamma_bar <= 0:
            raise DomainError("need gamma_th >= 0 and gamma_bar > 0")

    @property
    def above_ceiling(self) -> bool:
        # inf * 0 is NaN, so an infinite threshold is tested on its own
        return math.isinf(self.gamma_th) or self.gamma_th * self.k_h ** 2 >= 1.0

    @property
    def settled(self) -> Optional[float]:
        """The outage probability where no channel draw can move it: 1 at
        or above the ceiling; 0 below it at gamma_th = 0 or gamma_bar = inf,
        where every draw with h > 0 has SNR 1/k_h^2 > gamma_th; None
        otherwise."""
        if self.above_ceiling:
            return 1.0
        if self.gamma_th == 0.0 or math.isinf(self.gamma_bar):
            return 0.0
        return None

    @property
    def gamma_h(self) -> float:
        if self.above_ceiling:
            return math.inf
        return math.sqrt(self.gamma_th
                         / (self.gamma_bar * (1.0 - self.gamma_th * self.k_h ** 2)))


def _exact(f, x: np.ndarray) -> np.ndarray:
    """f (a math function) at each element of x: math's exp, log and pow
    rather than numpy's, whose SIMD exp differs from libm's in the last
    place on about 4 % of inputs, so that an array element and a scalar
    call read the same to the bit."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _kummer_terms(L: np.ndarray, k: float, z: float, rho: float):
    """(c, g_{k+1}, g_{k+2}) at each L with c g_b = (zL)^k G_b, where
    G_b = e^{-rho L} M(k, b, -(z - rho) L) / Gamma(b), for any real k > 0.

    With s = z - rho, G_{k+1} = e^{-rho L} gamma*(k, sL) and
    G_{k+2} = e^{-rho L} [gamma*(k, sL) - k gamma*(k+1, sL)] (DLMF 8.5.1,
    gamma* Tricomi's entire incomplete gamma); one Kummer function keeps
    the difference free of cancellation.  Kummer's transformation
    M(k, b, -x) = e^{-x} M(b-k, b, x) (DLMF 13.2.39) writes every G_b as
    e^{-min(z, rho) L} W(a, b, |s| L) / Gamma(b), with a = b - k in {1, 2}
    for s >= 0 and a = k for s < 0, and W(a, b, x) = e^{-x} M(a, b, x) in
    (0, 1].  c = (zL)^k and g_b = G_b where (zL)^k and Gamma(b) fit a
    double and g_b is a normal one, the more accurate form; elsewhere, as
    for a large shape k or a g_b that underflows, c = 1 and g_b =
    (zL)^k e^{-min(z, rho) L} W / Gamma(b) is one exp of the sum of their
    logarithms, ln W included, where the factors may leave the double
    range while their product does not.
    """
    s = z - rho
    m = min(z, rho) * L
    x = abs(s) * L
    ab = [(1 if s >= 0.0 else k, k + 1), (2 if s >= 0.0 else k, k + 2)]

    log_power = k * _exact(math.log, z * L)         # ln (zL)^k
    fits = (log_power < 709.7) & (k + 1 <= 170)     # 170! is the last double
    c = np.ones(L.size)
    gs = [np.zeros(L.size), np.zeros(L.size)]
    if fits.any():
        c[fits] = _exact(lambda t: t ** k, z * L[fits])
        e = _exact(math.exp, -m[fits])
        for g, (a, b) in zip(gs, ab):   # math.gamma(b) is exact to b = 23
            g[fits] = e * _poisson_kummer(a, b, x[fits]) / (
                math.factorial(int(b) - 1) if b == int(b) else math.gamma(b))
        fits &= np.minimum(gs[0], gs[1]) >= np.finfo(float).tiny
    if not fits.all():
        big = ~fits
        c[big] = 1.0
        for g, (a, b) in zip(gs, ab):
            g[big] = _exact(math.exp, log_power[big] - m[big] - math.lgamma(b)
                            + _poisson_kummer(a, b, x[big], log=True))
    return c, gs[0], gs[1]


def _poisson_kummer(a: float, b: float, x: ArrayLike,
                    log: bool = False) -> ArrayLike:
    """W(a, b, x) = e^{-x} M(a, b, x) = sum_n Pois(n; x) (a)_n / (b)_n for
    real 0 < a < b with a or b - a in {1, 2}, at each x >= 0: positive
    terms, so no cancellation.

    Up to x = 60 + 2b the sum runs from n = 0 until its terms, past the
    Poisson mode, fall below 1e-17 of it (_kummer_series); each x stops
    on its own, so an array element reads as the same x alone.  Beyond,
    the asymptotic expansion of M (DLMF 13.7.2), Gamma(b)/Gamma(a)
    x^{a-b} sum_s (b-a)_s (1-a)_s / s! x^{-s}, runs until a term falls
    below 1e-17 of the sum.  Its terms shrink by r = (b-a+s)(s+1-a) /
    ((s+1) x): with b - a <= 2, r < 2a/x < 1 while s < a and
    r < (s+2)/x < 1 after, so the rest is below 1e-17/(1 - r) of the
    sum.  At an integer a (a in {1, 2} included) the terms end at
    s = a - 1, and one that stops the sum sooner is below half an ulp of
    it.  The part of W the expansion leaves out leads with
    Gamma(a)/Gamma(b-a) x^{b-2a} e^{-x}, below 1e-23 there.
    Gamma(b)/Gamma(a) x^{a-b} is taken as the product of j/x, j = a + f,
    ..., b - 1 for f = frac(b - a), times Gamma(a + f)/Gamma(a) x^{-f}:
    no overflow.  With log, ln W, whose asymptotic form takes that
    factor's logarithm instead, so that it does not underflow; -inf where
    the series does.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    out = np.empty(flat.size)
    near = flat <= 60.0 + 2.0 * b
    out[near] = _kummer_series(a, b, flat[near])
    v = flat[~near]
    term, total = np.ones(v.size), np.ones(v.size)
    s = 0
    while term.any():           # a stopped x keeps a term of 0
        term *= (b - a + s) * (s + 1 - a) / ((s + 1) * v)
        term[np.abs(term) < 1e-17 * total] = 0.0
        total += term
        s += 1
    if log:
        out[near] = _exact(lambda w: math.log(w) if w else -math.inf,
                           out[near])
        total = (_exact(math.log, total) + (a - b) * _exact(math.log, v)
                 + (math.lgamma(b) - math.lgamma(a)))
    else:
        f = (b - a) % 1.0
        for j in np.arange(a + f, b - 0.5):
            total *= j / v
        if f:
            total *= math.gamma(a + f) / math.gamma(a) * _exact(
                lambda t: t ** -f, v)
    out[~near] = total
    return out.reshape(xs.shape) if isinstance(x, np.ndarray) else float(out[0])


def _kummer_series(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """_poisson_kummer's series at each x <= 60 + 2b, each term and sum
    rounded as a loop over one x would round them: block by block, the
    terms are the running products down a table of the ratios of
    successive terms, and the sums their running sums, read at each x's
    stop.  e^{-x} is subnormal past x = 708 (b > 320 only), so there it
    is applied as `parts` factors e^{-x/parts} (parts a power of two, so
    x/parts is exact): a block is then 32 terms, a factor is applied
    where a block's sum passes 1e200, which 32 terms cannot take past
    the double range, and the rest at the end."""
    parts = np.ones(x.size)
    while (x / parts > 700.0).any():
        parts[x / parts > 700.0] *= 2.0
    factor = _exact(math.exp, -x / parts)
    pending = parts - 1.0
    rows = 32 if pending.any() else int(
        x.max(initial=0.0) + 10.0 * math.sqrt(x.max(initial=0.0))) + 40
    out = np.empty(x.size)
    live = np.arange(x.size)        # the x that have not stopped
    term, total = factor.copy(), factor.copy()
    n = 0
    while live.size:
        v = x[live]
        j = np.arange(n, n + rows + 1)[:, None]
        table = np.empty((rows + 1, v.size))
        table[0] = term
        np.multiply(v, a + j[:-1], out=table[1:])
        table[1:] /= (j[:-1] + 1) * (b + j[:-1])    # term j + 1 / term j
        terms = np.multiply.accumulate(table, out=table)
        sums = np.concatenate((total[None], terms[1:]))
        np.add.accumulate(sums, out=sums)
        done = (j > v) & (terms <= 1e-17 * sums)
        stop = done[-1]
        out[live[stop]] = sums[np.argmax(done[:, stop], axis=0),
                               np.flatnonzero(stop)]
        keep = ~stop
        live, term, total = live[keep], terms[-1, keep], sums[-1, keep]
        rescale = (pending[live] > 0.0) & (total > 1e200)
        at = live[rescale]
        term[rescale] *= factor[at]
        total[rescale] *= factor[at]
        pending[at] -= 1.0
        n += rows
    while pending.any():
        rest = pending > 0.0
        out[rest] *= factor[rest]
        pending[rest] -= 1.0
    return out


def gain_cdf_log(L: np.ndarray, k: float, z: float, rho: float) -> np.ndarray:
    """P(h_l * h_p <= a_l e^-L) at each L > 0: F = Q(k, zL) +
    (zL)^k (G_{k+1} + rho L G_{k+2}), the absorption tail P(T >= L) plus
    P(T < L, W >= L - T)."""
    c, g1, g2 = _kummer_terms(L, k, z, rho)
    return gammaincc(k, z * L) + c * (g1 + rho * L * g2)


def cdf_snr_no_fading(query: OutageQuery, model, rho: float,
                      link: ThzLinkParams) -> float:
    """P(SNR <= gamma_th) with fading disabled (h = h_l * h_p), for either
    absorption model."""
    return _cdf_snr(query, model, FadingParams(enabled=False), rho, link)


def cdf_snr(query: OutageQuery, exp: Experiment) -> float:
    """P(SNR <= gamma_th) on exp's channel; held per process for each
    channel and query, so that the rows of a run that share them
    evaluate it once."""
    return _cdf_snr(query, exp.absorption, exp.fading, exp.misalignment.rho,
                    exp.link)


# the quadrature over ln G in _cdf_snr: equal panels, nodes each
PANELS = 8
NODES = 64
SPAN = 32.0     # a mixture's panels split in steps of SPAN / 2 in e^(t/2)


@functools.lru_cache(maxsize=64)
def _cdf_snr(query: OutageQuery, model, fp: FadingParams, rho: float,
             link: ThzLinkParams) -> float:
    """cdf_snr on the channel's parts.  The gain h_l h_p is at most h_0,
    and law(L) = P(h_l h_p <= h_0 e^-L) at L > 0: gain_cdf_log with
    h_0 = a_l for Gamma absorption; for deterministic absorption (T = 0)
    the misalignment tail e^{-rho L} (1 + rho L), h_0 its one path gain.
    With fading off that is the law at L = ln(h_0 / gamma_h).

    With fading on it is averaged over the fading power G = (h_f /
    r_hat)^alpha, the Gamma mixture sum_m w_m Gamma(mu + m, rate r) of
    _power_mixture, in t = ln(r G), where Gamma(s)'s density is
    e^(s t - e^t) / Gamma(s).  Up to t_k = ln g_k, g_k = r (gamma_h /
    (h_0 r_hat))^alpha, the gain lies below gamma_h / h_f, so that part is
    sum_m w_m P(mu + m, g_k); above, the law takes L = (t - t_k) / alpha.
    The rest is PANELS equal panels of NODES Gauss-Legendre nodes from
    t_k to ln(max(g_k, mu + n - 1) + 100), n the mixture's terms (n = 1
    for alpha-mu: Q(mu, max(g_k, mu) + 100) is below e^-90 for mu <= 4,
    e^-30 at mu = 100, where the law of h_l h_p is as small).  A Gamma(s)
    term spans about 1 / v of t, v = e^(t/2) = sqrt(s), so with n > 1
    panels are split in equal steps of SPAN / 2 in v: where weights rise
    within a few sqrt(m) (a large Poisson part) 8 panels read q 0.4 % low
    at eta = 1e5, kappa = 3, and p_out 21 % low at kappa = 1e4, 70 dB.
    The integrand is entire in t, so each panel converges geometrically:
    against scipy quadrature the sum holds to 1e-14 relative from 25 to
    100 dB down to p_out = 1e-13 at integer k, to 1e-12 with eta-mu and
    kappa-mu fading, and to 1e-10 at real k down to 0.05 (L^k near t_k).
    """
    if query.settled is not None:
        return query.settled
    gamma = isinstance(model, GammaAbsorption)
    h_0 = link.a_l if gamma else deterministic_path_gain(model, link)

    def law(L):
        if gamma:
            return gain_cdf_log(L, model.k, model.z_for(link), rho)
        return misalignment_cdf_log(-L, rho)

    if not fp.enabled:
        L = math.log(h_0 / query.gamma_h)
        return float(law(np.array([L]))[0]) if L > 0.0 else 1.0
    mu, alpha = fp.mu, fp.alpha
    r, n, chunks = _power_mixture(fp)
    t_k = math.log(r) + alpha * math.log(query.gamma_h / (h_0 * fp.r_hat))
    g_k = math.exp(min(t_k, 700.0))
    t_end = math.log(max(g_k, mu + (n - 1)) + 100.0)
    x, w = _gauss_legendre(NODES)
    half = (t_end - t_k) / (2 * PANELS)
    mids = t_k + half * (2 * np.arange(PANELS) + 1)
    halves = np.full(PANELS, half)
    if n > 1 and g_k < mu + (n - 1):    # steps of SPAN / 2 in e^(t/2)
        edges = [t_k]
        for top in mids + half:
            v0, v1 = math.exp(edges[-1] / 2), math.exp(top / 2)
            v = np.linspace(v0, v1, max(1, math.ceil(2 / SPAN * (v1 - v0))) + 1)
            edges += list(2.0 * np.log(v[1:]))
        halves = np.diff(edges) / 2.0
        mids = np.array(edges[:-1]) + halves
    t = (mids[:, None] + halves[:, None] * x).reshape(-1)
    below, density = _mixture_law(mu, n, chunks, g_k, t)
    density *= np.tile(w, halves.size) * np.repeat(halves / half, NODES)
    return below + half * sum(  # law in blocks: its tables grow with size
        float(np.dot(density[i:i + 4096], law((t[i:i + 4096] - t_k) / alpha)))
        for i in range(0, t.size, 4096))


MIXTURE_CHUNK = 1024        # the mixture's weights stream in chunks of this many


def _power_mixture(fp: FadingParams) -> Tuple[float, int, Iterator]:
    """The fading power G = (h_f / r_hat)^alpha as a Gamma mixture,
    G ~ sum_m w_m Gamma(mu + m, rate r) for m < n: (r, n, the weights).

    w is the law of channel.fading_mixture's index M = J_s + J_b + K, by
    (m + 1) w_(m+1) = a_s w_m + (mu/2) q U_m + a_b p V_m, U_m = w_m +
    q U_(m-1), V_m = U_m + q V_(m-1), q = 1 - p: positive terms only.  It
    runs from w_0 = 1, the weights read relative to their sum, times
    2^-500 past 2^500: a chunk of MIXTURE_CHUNK weights is (e, w), weights
    w 2^e.  n is the least Chernoff bound P(M >= n) <= P(z) z^-n <= 1e-17
    over a few z.  alpha-mu fading is the one term w = [1], r = mu.
    """
    mu = fp.mu
    r, a_s, a_b, p = fading_mixture(fp)
    q = 1.0 - p
    top = -math.log(q) if q else math.inf           # P(e^x) is finite below

    def chernoff(x):
        z = math.exp(x)
        return math.ceil((a_s * (z - 1.0) + a_b * (p * z / (1.0 - q * z) - 1.0)
                          + 0.5 * mu * (math.log(p) - math.log1p(-q * z))
                          + 17.0 * math.log(10.0)) / x)
    zs = (0.25, 0.5, 1.0, 2.0, 0.5 * top, 0.75 * top, 0.9 * top, 0.97 * top)
    n = min(chernoff(x) for x in zs if x < top) if q or a_s else 1

    def chunks():
        w, u, v, e, k = 1.0, 0.0, 0.0, 0, 2.0 ** -500
        for lo in range(0, n, MIXTURE_CHUNK):
            out = np.empty(min(MIXTURE_CHUNK, n - lo))
            for i in range(out.size):
                if w > 2.0 ** 500:
                    out[:i] *= k
                    w, u, v, e = w * k, u * k, v * k, e + 500
                out[i] = w
                u = w + q * u
                v = u + q * v
                w = (a_s * w + 0.5 * mu * q * u + a_b * p * v) / (lo + i + 1)
            yield e, out
    return r, n, chunks()


def _mixture_law(mu: float, n: int, chunks: Iterator, x: float,
                 t: np.ndarray) -> Tuple[float, np.ndarray]:
    """(P(r G <= x), the density of ln(r G) at each t) of _power_mixture's
    (n, chunks), chunk by chunk, over the weights' sum.  The density is
    sum_m w_m e^(s t - e^t - ln Gamma(s)), s = mu + m; the CDF sum_m w_m
    P(mu + m, x) = sum_(j < n-1) d_j C_j + C_(n-1) P(mu + n - 1, x), C_j
    = w_0 + ... + w_j, d_j = P(mu + j, x) - P(mu + j + 1, x): no
    cancellation.  Both exponents are concave in s, peaking near e^t and
    x, so off that band a chunk's largest term is at an end: it skips the
    t, and the d_j, where both ends' exponents are below -746 (exp 0).
    One term (alpha-mu) reads P(mu, x) and its density to the bit."""

    def log_d(s):   # ln d_j, s = mu + j + 1: s ln(x/s) - (x - s) - ln x +
        gap = x - s # Stirling's remainder, no digits lost to ln Gamma(s)
        return (s * np.where(np.abs(gap) < 0.5 * s, np.log1p(gap / s),
                             np.log(x / s))
                - gap + _exact(_stirling_remainder, s) - math.log(x))

    e_t, density = np.exp(t), np.zeros(t.size)
    below, total, at = 0.0, 0.0, 0  # sums of d_j C_j and of w_m, times 2^-at
    for lo, (e, w) in zip(range(0, n, MIXTURE_CHUNK), chunks):
        f, at = 2.0 ** (at - e), e
        density, below, total = density * f, below * f, total * f
        s = mu + np.arange(lo, lo + w.size)
        ends = (np.multiply.outer(s[[0, -1]], t) - e_t
                - _exact(math.lgamma, s[[0, -1]])[:, None]).max(axis=0)
        on = (ends > -746.0) | ((e_t > s[0] - 1.0) & (e_t < s[-1] + 1.0))
        if on.any():
            terms = np.multiply.outer(s, t[on])
            terms -= e_t[on]
            terms -= _exact(math.lgamma, s)[:, None]
            density[on] += np.einsum("i,ij->j", w, np.exp(terms, out=terms))
        cum = total + np.cumsum(w)
        total = float(cum[-1])
        s, cum = s[:n - 1 - lo] + 1.0, cum[:n - 1 - lo]     # the d_j
        if x > 0.0 and s.size and (max(log_d(s[[0, -1]])) > -746.0
                                   or s[0] - 1.0 < x < s[-1] + 1.0):
            below += float(np.dot(np.exp(log_d(s)), cum))
    below += total * float(gammainc(mu + (n - 1), x))
    return below / total, density / total


@functools.lru_cache(maxsize=1)
def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], read-only.
    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch,
    Math. Comp. 23, 1969), through np.linalg, which numpy loads anyway
    (numpy.polynomial costs an import), polished by one Newton step on
    P_n; the weights are 2 / ((1 - x^2) P_n'(x)^2), from the same
    three-term recurrence."""
    j = np.arange(1.0, n)
    beta = j / np.sqrt(4.0 * j * j - 1.0)
    x = np.linalg.eigvalsh(np.diag(beta, 1) + np.diag(beta, -1))
    for newton in (True, False):    # the step, then P_n' at its result
        p0, p1 = np.ones(n), x
        for m in range(2, n + 1):   # m P_m = (2m - 1) x P_(m-1) - (m-1) P_(m-2)
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        dp = n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))
        if newton:
            x = x - p1 / dp
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def binomial_pmf(n: int, q: float) -> np.ndarray:
    """P(K = k) for k = 0..n of K ~ Binomial(n, q), taken from its
    logarithm, ln C(n, k) + k ln q + (n - k) ln(1 - q) with ln C(n, k) from
    math.lgamma, and scaled to sum to 1; q = 0 and q = 1 put all mass on 0
    and n."""
    if q <= 0.0 or q >= 1.0:
        pmf = np.zeros(n + 1)
        pmf[n if q >= 1.0 else 0] = 1.0
        return pmf
    k = np.arange(n + 1.0)
    log_fact = _exact(math.lgamma, k + 1.0)
    pmf = log_fact[n] - log_fact - log_fact[::-1]
    pmf += k * math.log(q) + (n - k) * math.log1p(-q)
    np.exp(pmf, out=pmf)
    pmf /= pmf.sum()        # ln n!'s rounding, common to every k
    return pmf


@dataclass(frozen=True)
class DiversityOrder:
    exponents: Tuple[float, float, float]   # (alpha*mu/2, rho/2, z/2)
    effective: float


def diversity_order(alpha: float, mu: float, rho: float, z: float) -> DiversityOrder:
    """High-SNR outage exponents and their minimum (the log-log slope)."""
    if min(alpha, mu, rho, z) <= 0:
        raise DomainError("diversity order needs positive parameters")
    exps = (alpha * mu / 2.0, rho / 2.0, z / 2.0)
    return DiversityOrder(exponents=exps, effective=min(exps))


# ---------------------------------------------------------------------------
# delay series and bounds
# ---------------------------------------------------------------------------

def stage_law(scheme: str, K: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-stage arrays (k, p, P_s) of a K-user frame, k = K down to 1.

    A stage with k packets left ends at its first slot with a lone
    transmitter, P_s = k p (1-p)^(k-1), with p = 1/K throughout under FTP
    and p = 1/k under ATP.  Its slots are Geometric(P_s), and each of them
    carries k p transmissions and k - k p idle holders on average, so the
    frame's expected delay is sum 1/P_s and its energy sum k p / P_s.
    delay_ftp, delay_atp and energy_ftp give those two sums in closed
    forms, more accurate than the direct sums.
    """
    if K < 1:
        raise DomainError("K >= 1")
    k = np.arange(K, 0, -1)
    if scheme == "ftp":
        p = np.full(K, 1.0 / K)
    elif scheme == "atp":
        p = 1.0 / k
    else:
        raise DomainError(f"no stage law for scheme {scheme!r}")
    return k, p, k * p * (1.0 - p) ** (k - 1)


def delay_ftp(K: int) -> float:
    """Expected slots under the fixed-probability scheme (p = 1/K throughout)."""
    if K < 1:
        raise DomainError("K >= 1")
    if K == 1:
        return 1.0
    log_r = math.log1p(-1.0 / K)
    k = np.arange(1, K + 1, dtype=float)
    return float((K - 1) * np.sum(1.0 / (k * np.exp(k * log_r))))


def delay_atp(K: int) -> float:
    """Expected slots under the adaptive scheme (p reset to 1/k after success)."""
    if K < 1:
        raise DomainError("K >= 1")
    # (k/(k-1))^(k-1) with the k=1 term defined as 1 (lone user, p=1)
    k = np.arange(2, K + 1, dtype=float)
    terms = np.exp((k - 1.0) * np.log(k / (k - 1.0)))
    return float(np.concatenate([[1.0], terms]).sum())


def delay_bounds_ftp(K: int) -> Tuple[float, float]:
    """Bracket for the fixed-probability delay, valid for K >= 3."""
    if K < 3:
        raise DomainError("FTP delay bounds need K >= 3")
    lower = (K - 1) * (math.log(K) + 1.0 / (1 + 2 * K) + EULER_GAMMA + 1.0)
    upper = (K - 1) * (math.log(K) + 1.0 / (K * (K - 1))
                       + K / (K - 1) * math.e + 1.0)
    return lower, upper


def delay_bounds_atp(K: int) -> Tuple[float, float]:
    """Harmonic-number bracket around the adaptive delay (= energy), K >= 2."""
    if K < 2:
        raise DomainError("ATP delay bounds need K >= 2")
    lower = K * math.e - math.e * (EULER_GAMMA + math.log(K) + 0.5 / K)
    return lower, K * math.e


# ---------------------------------------------------------------------------
# energy series and bounds
# ---------------------------------------------------------------------------

def energy_ftp(K: int) -> float:
    """Expected transmissions under the fixed-probability scheme (p = 1/K).

    The geometric series sum_{k=1..K} r^{-(k-1)}, r = 1 - 1/K, in closed
    form (K-1)(r^{-K} - 1).
    """
    if K < 1:
        raise DomainError("K >= 1")
    if K == 1:
        return 1.0
    return (K - 1) * math.expm1(-K * math.log1p(-1.0 / K))


def energy_bounds_ftp(K: int) -> Tuple[float, float]:
    """Bracket for the fixed-probability energy, valid for K >= 3.

    The upper bound is the series-consistent form (K-1)(e(K-1)/(K-2) - 1);
    simpler constant-per-user bounds sometimes quoted for this scheme do
    not actually bracket the exact series.
    """
    if K < 3:
        raise DomainError("FTP energy bounds need K >= 3")
    lower = 1.5 * K - 0.5 / K - 1.0
    upper = (K - 1) * (math.e * (K - 1) / (K - 2) - 1.0)
    return lower, upper


def energy_gap_bounds(K: int) -> Tuple[float, float]:
    """Interval for the energy gap delay_atp(K) - energy_ftp(K), K >= 3."""
    if K < 3:
        raise DomainError("energy gap bounds need K >= 3")
    h_k = float(np.sum(1.0 / np.arange(1, K + 1, dtype=float)))   # H_K
    lower = (math.e - 1.0) * h_k + K - math.e * (K - 1) ** 2 / (K - 2) - 1.0
    upper = K * math.e - 1.5 * K + 0.5 / K + 1.0
    return lower, upper


SERIES = ("ftp_delay", "atp_delay", "ftp_energy", "atp_energy")


def series_table(K: int) -> Dict[str, Tuple[float, float, float]]:
    """(exact, lower, upper) of each series in SERIES at K users, plus
    energy_gap, atp_energy - ftp_energy, from K = 3 on.

    The FTP brackets hold from K = 3 and ATP's from K = 2; below, the
    bracket is NaN.  ATP's energy is its delay (one transmission per slot
    on average), so the two series share one entry.
    """
    nan = (math.nan, math.nan)
    atp = (delay_atp(K),) + (delay_bounds_atp(K) if K >= 2 else nan)
    table = {
        "ftp_delay": (delay_ftp(K),) + (delay_bounds_ftp(K) if K >= 3 else nan),
        "atp_delay": atp,
        "ftp_energy": (energy_ftp(K),) + (energy_bounds_ftp(K) if K >= 3 else nan),
        "atp_energy": atp}
    if K >= 3:
        table["energy_gap"] = ((atp[0] - table["ftp_energy"][0],)
                               + energy_gap_bounds(K))
    return table
