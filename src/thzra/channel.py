"""Channel sampling: absorption, path gain, misalignment, fading, SNR.

Samplers are pure given their Generator and return an array of `size`
draws; each law's one closed form is its CDF, which maps a float to a
float and an array to an array and takes every value its sampler
returns.  The composite draw follows h = h_l * h_f * h_p and the impaired
SNR

    gamma = avg_snr * h^2 / (k_h^2 * avg_snr * h^2 + 1)

which saturates at 1/k_h^2 for k_h > 0.  The outage score (outage_score:
the outage probability given all components but one, which outage Monte
Carlo averages) composes the same laws in log form, a sum of log-losses
scored by one exp.  Outage is T + W + F >= c for the absorption,
misalignment and fading log-losses, each with an exponential tail;
outage_rule picks the one of least rate among those with a CDF to
integrate out (gammaincc, misalignment_cdf_log, alpha_mu_cdf_log) and
tilts the others within their Gamma families.  stratified_neg_log draws
the misalignment's -ln(U V), or where misalignment is integrated the
alpha-mu fading's -ln(r G), by stratified quantiles of its own law, and
StratifiedMean reads the strata back.  Every fading power, the
sampler's, the score's and analytics' law, is one Gamma mixture
(fading_mixture): a Gamma draw given the mixture's drawn index
(fading_index), which the score tilts as it tilts any Gamma draw.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from . import streams
from .errors import UnsupportedParams
from .params import (DB_PER_NEPER, DeterministicAbsorption, Experiment,
                     FadingParams, GammaAbsorption, ThzLinkParams)

ArrayLike = Union[float, np.ndarray]


def buck_saturation_pressure(temperature_k: float, pressure_hpa: float) -> float:
    """Saturated water-vapor partial pressure (hPa) by Buck's equation.

    Valid over 200 K < T < 350 K, the range ThzLinkParams admits; strictly
    increasing in temperature.
    """
    t_c = temperature_k - 273.15
    enhancement = 1.0007 + 3.46e-6 * pressure_hpa
    return 6.1121 * enhancement * math.exp(17.502 * t_c / (240.97 + t_c))


def water_vapor_mixing_ratio(link: ThzLinkParams) -> float:
    """v = (humidity/100) * p_w(T, p) / p."""
    p_w = buck_saturation_pressure(link.temperature_k, link.pressure_hpa)
    return (link.humidity_pct / 100.0) * p_w / link.pressure_hpa


def absorption_deterministic(link: ThzLinkParams,
                             model: DeterministicAbsorption) -> float:
    """Molecular absorption coefficient zeta in 1/m of a deterministic model.

    Two water-vapor resonance terms plus a cubic polynomial tail; the
    resonance positions p1, p2 are wavenumbers in 1/cm and f/(100 c)
    converts Hz to the same unit.
    """
    m = model
    v = water_vapor_mixing_ratio(link)
    wn = link.f_hz / (100.0 * 299_792_458.0)
    y1 = m.q1 * v * (m.q2 * v + m.q3) / ((m.q4 * v + m.q5) ** 2 + (wn - m.p1) ** 2)
    y2 = m.q6 * v * (m.q7 * v + m.q8) / ((m.q9 * v + m.q10) ** 2 + (wn - m.p2) ** 2)
    f = link.f_hz
    return y1 + y2 + m.c1 * f ** 3 + m.c2 * f ** 2 + m.c3 * f + m.c4


def zeta_db_per_km_from_natural(zeta_per_m: float) -> float:
    """Convert a 1/m absorption coefficient to power dB/km."""
    return zeta_per_m * 1000.0 * (DB_PER_NEPER / 2.0)


def sample_absorption_db(model: GammaAbsorption, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    """Draw zeta_dB ~ Gamma(k, beta) in dB/km."""
    # rng.gamma(k, beta) to the bit, without its per-draw scale argument
    return model.beta * rng.standard_gamma(model.k, size)


def path_loss_nepers(zeta_db: ArrayLike, link: ThzLinkParams) -> ArrayLike:
    """ln(a_l / h_l) = zeta_dB * d_km / 8.686, the absorption loss of the
    amplitude in nepers."""
    return np.asarray(zeta_db, dtype=float) * (link.d_km / DB_PER_NEPER)


def path_gain_from_absorption(zeta_db: ArrayLike, link: ThzLinkParams) -> ArrayLike:
    """h_l = a_l * exp(-zeta_dB * d_km / 8.686)."""
    return link.a_l * np.exp(-path_loss_nepers(zeta_db, link))


def path_gain_cdf(h_l: ArrayLike, model: GammaAbsorption,
                  link: ThzLinkParams) -> ArrayLike:
    """P(path gain <= h); ln(a_l/h_l) is Gamma(k, 1/z) so this is its tail.
    h is clipped to [0, a_l]: 0 at and below h = 0, 1 from a_l up."""
    h = np.clip(h_l, 0.0, link.a_l)
    with np.errstate(divide="ignore"):      # h = 0: ln(a_l/h) = inf, Q = 0
        out = gammaincc(model.k, model.z_for(link) * np.log(link.a_l / h))
    return out if isinstance(h_l, np.ndarray) else float(out)


def deterministic_path_gain(model: DeterministicAbsorption,
                            link: ThzLinkParams) -> float:
    """The one path gain h_l of deterministic absorption."""
    zeta = absorption_deterministic(link, model)
    return path_gain_from_absorption(zeta_db_per_km_from_natural(zeta), link)


def sample_path_gain(model: Union[GammaAbsorption, DeterministicAbsorption],
                     link: ThzLinkParams, rng: np.random.Generator,
                     size: int) -> np.ndarray:
    """`size` draws of the path gain h_l; deterministic absorption gives
    one constant and draws nothing."""
    if isinstance(model, GammaAbsorption):
        zeta_db = sample_absorption_db(model, rng, size)
        return path_gain_from_absorption(zeta_db, link)
    return np.full(size, deterministic_path_gain(model, link))


def uniform_product(rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` draws of U V for independent uniforms on [0, 1), the
    misalignment gain to the power rho; its density is -ln(w) on (0, 1)."""
    w = rng.random(size)
    w *= rng.random(size)
    return w


# From 2^15 strata (a chunk of validation.OUTAGE_CHUNK draws) the Hermite
# error stays below 0.65 of the 4e-15 (1 + y) gate but in the _EDGE strata
# at either end; below 2^15 strata it nears the gate in the middle too
_HERMITE_STRATA = 2 ** 15
_EDGE = 1024


@dataclass(frozen=True)
class NegLogProduct:
    """The law of Y = -ln(U V), the misalignment's log-loss times rho:
    Gamma(2), P(Y >= y) = P(U V <= e^-y) = (1 + y) e^-y; each stratified
    draw is within 4e-15 (1 + y) of the root for its w."""

    def quantile(self, w: np.ndarray) -> np.ndarray:
        return _upper_gamma2_quantile(w)

    def slopes(self, y: np.ndarray, t: np.ndarray, cells: int) -> np.ndarray:
        """dy/du at the stratum bounds y of h = -t: -(1 + y) / (h y)."""
        m = np.divide(1.0, y)
        m += 1.0
        m /= t
        return m


@dataclass(frozen=True)
class NegLogGamma:
    """The law of Y = -ln X for X ~ Gamma(shape), the alpha-mu fading's
    -ln(r G): P(Y >= y) = P(shape, e^-y) = w."""

    shape: float

    def quantile(self, w: np.ndarray) -> np.ndarray:
        return _neg_log_gamma_quantile(self.shape, w)

    def slopes(self, y: np.ndarray, t: np.ndarray, cells: int) -> np.ndarray:
        """dy/du at the stratum bounds y: -1 / (cells f(y)), f = e^(-s y
        - e^-y) / Gamma(s) the density of Y."""
        m = np.negative(_log_gamma_series_prefactor(self.shape, y)[0])
        m -= math.log(self.shape)           # -ln f
        np.exp(m, out=m)
        m /= -cells
        return m


NegLogLaw = Union[NegLogProduct, NegLogGamma]
NEG_LOG_PRODUCT = NegLogProduct()


def stratified_neg_log(law: NegLogLaw, rng: np.random.Generator,
                       size: int) -> np.ndarray:
    """`size` draws of a law's Y = -ln X (NegLogProduct, NegLogGamma),
    stratified along its own level sets: draw k < 2P takes the quantile
    of Y at upper tail w = (h + u) / P, the y with P(X <= e^-y) = w, for
    the stratified uniform of stratified_uniform (stratum h = k mod P of
    P = size // 2, the stream's k-th uniform u), so draws k and k + P
    share stratum h; an odd size's last draw takes w = u, iid.  w = 0
    gives inf (X = 0).  Y rather than X, so that a small Gamma shape's X
    cannot underflow to 0.

    From _HERMITE_STRATA strata on, the inner strata interpolate y in u
    by a cubic Hermite between the quantiles at the stratum bounds, with
    slopes dy/du from the law's density (_hermite_knots, cached); the
    _EDGE strata at each end, where the quantile's derivatives grow
    without bound, and every stratum of a smaller P solve for y
    (law.quantile).  Temporaries: three arrays of P doubles.
    """
    cells = size // 2
    if cells < _HERMITE_STRATA:
        return law.quantile(stratified_uniform(rng, size))
    u = rng.random(size)
    strata = u[:2 * cells].reshape(2, -1)   # a view: column h holds h, h + P
    lo, hi = _EDGE, cells - _EDGE
    edges = np.concatenate((strata[:, :lo], strata[:, hi:]), axis=1)
    y, m = _hermite_knots(law, cells)
    t = np.empty(hi - lo)
    c2 = np.subtract(y[1:], y[:-1])
    c3 = np.add(m[:-1], m[1:])
    c3 -= c2
    c3 -= c2                                # m0 + m1 - 2 (y1 - y0)
    c2 -= m[:-1]
    c2 -= c3                                # 3 (y1 - y0) - 2 m0 - m1
    # Horner in each row, into t and then into c3, which it last reads
    for x, acc in zip(strata[:, lo:hi], (t, c3)):
        np.multiply(x, c3, out=acc)
        acc += c2
        acc *= x
        acc += m[:-1]
        acc *= x
        np.add(acc, y[:-1], out=x)
    edges[:, :lo] += np.arange(lo)
    edges[:, lo:] += np.arange(hi, cells)
    edges /= cells
    law.quantile(edges)
    strata[:, :lo], strata[:, hi:] = edges[:, :lo], edges[:, lo:]
    if size % 2:
        law.quantile(u[-1:])
    return u


# A table and its slopes take 0.5 MB at 2^15 strata.  A run draws one law
# per outage_mc call, and NEG_LOG_PRODUCT in every call that draws the
# misalignment, so the last few laws hold every table the run reuses
@functools.lru_cache(maxsize=4)
def _hermite_knots(law: NegLogLaw, cells: int) -> Tuple[np.ndarray, np.ndarray]:
    """The quantiles y_h of a law at the stratum bounds w = h / cells of
    the inner strata, h = _EDGE .. cells - _EDGE, and their slopes dy/du
    (law.slopes), read-only; one pair is held per law and cells."""
    y = np.arange(cells + 1) / cells
    law.quantile(y)
    y = y[_EDGE:cells - _EDGE + 1].copy()
    m = law.slopes(y, np.arange(-_EDGE, _EDGE - cells - 1, -1.0), cells)
    y.flags.writeable = m.flags.writeable = False
    return y, m


def _upper_gamma2_quantile(w: np.ndarray) -> np.ndarray:
    """In place: each w in [0, 1] becomes the y >= 0 with (1 + y) e^-y =
    w, i.e. ln(1 + y) - y = -s for s = -ln w; w = 0 gives inf.

    Newton's method from y = s + ln(1 + sqrt(2 s) + 3 s / 4), which is
    within 0.8 % of the root for every s (its sqrt(2 s) + 2 s / 3 is the
    root's expansion at s = 0, its s + ln s at s = inf).  Each step takes
    a relative error e to about e^2 / 2, so three reach rounding.  s is
    kept in [1e-300, 1e3]: s = 0 (w = 1) then gives y about 1e-150, no
    0 / 0, and w = 0 is set to inf at the end.
    """
    zero = w == 0.0
    with np.errstate(divide="ignore"):      # w = 0: s = inf, clipped
        s = np.log(w)
    np.negative(s, out=s)
    np.clip(s, 1e-300, 1e3, out=s)
    y = np.multiply(s, 2.0, out=w)
    np.sqrt(y, out=y)
    f = np.multiply(s, 0.75)
    y += f
    np.log1p(y, out=y)
    y += s
    g = np.empty_like(y)
    for _ in range(3):              # y += F (1 + y) / y, F the residual
        np.log1p(y, out=f)
        f += s
        f -= y
        np.divide(f, y, out=g)
        y += f
        y += g
    y[zero] = np.inf
    return y


def _neg_log_gamma_quantile(s: float, w: np.ndarray) -> np.ndarray:
    """In place: each w in [0, 1] of a contiguous array becomes the y
    with P(s, e^-y) = w, so that e^-y is Gamma(s)'s w-quantile; w = 0
    gives inf, and w = 1, where (h + u) / P rounds up, is taken at
    1 - 2^-53.

    Halley's method in y, on ln P(s, e^-y) = ln w for w <= 1/2 and on
    ln Q(s, e^-y) = ln(1 - w) above (1 - w is exact there).  The lower
    side takes ln P in log form, _log_gamma_series_prefactor plus ln S(x)
    by _series_sum, so that neither a small s's e^-y (0 past y = 745)
    nor a large s's P underflows; it starts at x <= s, and its root lies
    below the median, within the bands' s + 10.  The upper side takes ln
    Q in log form too (_log_upper_gamma), x capped at e^690.  Halley's
    factor on Newton's step is kept within [1/2, 2] wherever an iterate
    starts far off.

    The start is that of Numerical Recipes (Press et al., 3rd ed., 2007,
    section 6.2.1), in y: Wilson-Hilferty above s = 1, on the lower side
    no further than x = (w Gamma(s+1))^(1/s), which lies below the root;
    at s <= 1 that power law up to w = 1 - s (0.253 + 0.12 s), an
    exponential tail above.  Each y stops once its step is below 1e-10
    (1 + |y|), the next one at rounding, so that a y depends on its own w
    alone.
    """
    out, w = w, w.reshape(-1)               # a view of a contiguous w
    zero = w == 0.0
    w[zero] = 0.5                           # set to inf at the end
    np.minimum(w, 1.0 - 2.0 ** -53, out=w)
    up = w > 0.5
    log_w = np.log(w)
    log_q = np.log1p(-w)
    ln_s = math.log(s)
    y = np.divide(log_w + math.lgamma(s + 1.0), -s, out=w)
    if s > 1.0:
        t = np.sqrt(-2.0 * np.minimum(log_w, log_q))
        z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
        np.negative(z, out=z, where=~up)
        z *= 1.0 / (3.0 * math.sqrt(s))
        z += 1.0 - 1.0 / (9.0 * s)
        ok = z > 0.0
        wh = -3.0 * np.log(z, where=ok, out=np.full_like(z, -np.inf)) - ln_s
        np.minimum(y, wh, out=y, where=~up)
        y[up] = wh[up]
    else:
        t = 1.0 - s * (0.253 + 0.12 * s)
        y += math.log(t) / s
        tail = log_q <= math.log1p(-t)      # w >= t; y is w's buffer
        y[tail] = -np.log(1.0 - log_q[tail] + math.log(1.0 - t))
    np.maximum(y, -ln_s, out=y, where=~up)
    for side, target in ((~up & ~zero, log_w), (up, log_q)):
        live = np.flatnonzero(side)
        for _ in range(50):
            if not live.size:
                break
            at = y[live]
            np.maximum(at, -690.0, out=at)          # x <= e^690
            log_pre, x = _log_gamma_series_prefactor(s, at)
            if target is log_w:
                series = _series_sum(s, x)
                g = np.log(series)          # ln P = ln pre + ln S
                g += log_pre
                g -= target[live]
                # g' = -s / S and, as x S' = s (1 - S) + x S, g'' =
                # -s (s (1 - S) + x S) / S^2: the step -g / g' over
                # 1 - g g'' / (2 g'^2)
                x *= series
                x -= series * s
                x += s
                x *= g / (2.0 * s)
                x += 1.0
                step = np.multiply(g, series)
                step /= s
            else:
                g = _log_upper_gamma(s, x, log_pre)
                g -= target[live]           # ln Q - ln(1 - w)
                # g' = f / Q = r, f = s pre, and g'' = r (x - s - r)
                r = np.exp(log_pre + ln_s - g - target[live])
                x -= s
                x -= r
                x *= g / (-2.0 * r)
                x += 1.0
                step = np.divide(g, -r)
            np.maximum(x, 0.5, out=x)       # at most twice Newton's step
            step /= x                       # Halley's
            at += step
            y[live] = at
            live = live[np.abs(step) > 1e-10 * (1.0 + np.abs(at))]
    y[zero] = np.inf
    return out


def _log_gamma_series_prefactor(s: float, y: np.ndarray
                                ) -> Tuple[np.ndarray, np.ndarray]:
    """(ln(x^s e^-x / Gamma(s+1)), x) at x = e^-y, the series' prefactor
    of P(s, x) in log form, finite where x underflows to 0; s times it is
    the density of -ln X for X ~ Gamma(s).  Up to s = 10 as -s y - x -
    ln Gamma(s+1), whose terms stay small; above, as _gamma_prefactor's
    s ln(x/s) + (s - x) + s(s), less ln s, with ln(x/s) = -y - ln s, or
    log1p((x - s) / s) where |x - s| < s / 2."""
    x = np.exp(-y)
    if s <= 10.0:
        lead = np.multiply(y, -s)
        lead -= x + math.lgamma(s + 1.0)
        return lead, x
    lead = -y - math.log(s)
    near = np.abs(x - s) < 0.5 * s
    lead[near] = np.log1p((x[near] - s) / s)
    lead *= s
    lead += s + _stirling_remainder(s) - math.log(s)
    lead -= x
    return lead, x


def _log_upper_gamma(s: float, x: np.ndarray, log_pre: np.ndarray
                     ) -> np.ndarray:
    """ln Q(s, x) from log_pre = ln(x^s e^-x / Gamma(s+1)): ln(s pre)
    less the log of the continued fraction's denominator from x = s + 1
    on, as gammaincc takes Q there, and ln(1 - P), P = pre S(x), below;
    never underflows."""
    out = np.empty_like(x)
    far = x >= s + 1.0
    out[far] = (log_pre[far] + math.log(s)
                - np.log(_fraction_denominator(s, x[far])))
    near = ~far
    p = np.log(_series_sum(s, x[near]))
    p += log_pre[near]
    out[near] = np.log1p(-np.exp(p, out=p))
    return out


def _series_sum(a: float, x: np.ndarray) -> np.ndarray:
    """S(x) = 1F1(1; a+1; x) at each 0 <= x <= a + 10, on the bands of
    _series_bands."""
    out = np.empty_like(x)
    for x_max, band in _series_bands(a, x):
        if band.any():
            out[band] = _horner(_economized_series(a, x_max), x[band] / x_max)
    return out


def _series_bands(a: float, x: np.ndarray
                  ) -> Iterator[Tuple[float, np.ndarray]]:
    """(x_max, mask) of each band on which the economized series of S
    takes an x <= a + 10: x <= 1 on [0, 1], 1 < x <= 4 on [0, 4] and the
    rest on [0, a + 10].  The bands are fixed per a, so that an x reads
    the same bits alone as in any array."""
    below = -math.inf
    for x_max in (1.0, 4.0, a + 10.0):
        yield x_max, (x > below) & (x <= x_max)
        below = x_max


def _horner(coef: Sequence[float], y: np.ndarray) -> np.ndarray:
    """sum_n coef[n] y^n by Horner's rule, into a new array."""
    s = y * coef[-1]
    s += coef[-2]
    for c in reversed(coef[:-2]):
        s *= y
        s += c
    return s


def stratified_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` uniforms on [0, 1) stratified on one axis: draw k < 2P lies
    in stratum h = k mod P of P = size // 2 equal strata, as (h + u) / P
    for the stream's k-th uniform u; an odd size's last draw is that
    uniform itself."""
    cells = size // 2
    w = rng.random(size)
    pairs = w[:2 * cells].reshape(2, -1)    # a view, (2, P)
    pairs += np.arange(cells)
    pairs /= max(cells, 1)
    return w


class StratifiedMean:
    """Mean and se of stratified values fed chunk by chunk (add), in the
    layout of stratified_uniform and stratified_neg_log: a chunk
    of m values pairs values h and h + P, P = m // 2, one stratum each,
    and an odd m's last value is iid, merged as a chunk of one.

    Values are centred on the first.  A chunk's mean is that of its
    stratum means and its variance sum_h (d_h - d_(h+P))^2 / 4 / P^2; a
    chunk of one takes (d - before)^2, before the mean of the values before
    it: in expectation the value's variance plus that mean's, 0 for the
    first.
    Chunks merge as mean = sum (m/n) mean_c, se^2 = sum (m/n)^2 var_c.
    The pairs stay unbiased on iid values, which need no other estimator.
    """

    def __init__(self) -> None:
        self.centre = 0.0
        self.n = 0
        self.total = self.var = 0.0         # sums of m mean_c, m^2 var_c

    def add(self, x: np.ndarray) -> None:
        """Take the chunk x; a writable x (float) is written into."""
        if not self.n:
            self.centre = float(x[0])
        d = np.subtract(x, self.centre, out=x if x.flags.writeable else None)
        cells = d.size // 2
        if cells:
            m = 2 * cells
            self.total += m * (float(np.sum(d[:m])) / m)    # m mean_c
            pairs = np.subtract(d[:cells], d[cells:m], out=d[:cells])
            pair_sum = float(np.sum(np.square(pairs, out=pairs)))
            self.var += m * m * (pair_sum / 4.0 / (cells * cells))
            self.n += m
        if d.size % 2:
            last = float(d[-1])
            self.var += (last - self.total / max(self.n, 1)) ** 2
            self.total += last
            self.n += 1

    def estimate(self) -> Tuple[float, float]:
        """(mean, se) of every value added."""
        return self.centre + self.total / self.n, math.sqrt(self.var) / self.n


def sample_misalignment(rho: float, rng: np.random.Generator,
                        size: int) -> np.ndarray:
    """Exact misalignment-gain sampler h_p = (U V)^(1/rho): raising U V to
    1/rho gives the pointing-error law -rho^2 ln(x) x^(rho-1) exactly."""
    w = uniform_product(rng, size)
    return np.power(w, 1.0 / rho, out=w)


def misalignment_cdf_log(log_x: ArrayLike, rho: float,
                         weight: Optional[Tuple[float, float]] = None
                         ) -> ArrayLike:
    """P(h_p <= x) = x^rho (1 - rho ln x) at x = e^l for l = min(L, 0),
    L = log_x: e^(rho l) (1 - rho l), the form the outage score takes, its
    gain built as a sum of logs.  L = -inf (x = 0) gives 0: rho l is
    floored at -1000, where e^(rho l) is already 0, so no 0 * inf is
    taken.  weight = (theta, c) multiplies it by e^(c - theta L), a tilted
    draw's likelihood ratio, in the same exp: e^(rho l - theta L + c)
    (1 - rho l), with log_x, a float array of L > -inf (a tilted draw's
    log-loss is finite or +inf), written into.  Two temporaries of
    log_x's size, log_x unchanged unweighted."""
    t = np.asarray(np.minimum(log_x, 0.0))
    np.multiply(t, rho, out=t)
    np.maximum(t, -1e3, out=t)
    if weight is None:
        out = np.exp(t)
    else:
        log_x *= -weight[0]
        log_x += weight[1]
        log_x += t
        out = np.exp(log_x)
    out *= np.subtract(1.0, t, out=t)
    return out


def fading_mixture(fp: FadingParams) -> Tuple[float, float, float, float]:
    """(r, a_s, a_b, p) of the fading power G = (h_f / r_hat)^alpha as a
    Gamma mixture (Moschopoulos, Ann. Inst. Stat. Math. 37, 1985; README
    Model notes): G ~ Gamma(mu + M, rate r) given the index M = J_s +
    J_b + K, J_s ~ Poisson(a_s), J_b ~ Poisson(a_b) and K ~ NegBin(mu/2 +
    J_b, p), for every eta, kappa and real mu.  mu (1 + eta)(1 + kappa) G
    = eta A + B, A and B the in-phase and quadrature noncentral
    chi-squares; a_s and a_b are the halved noncentralities of the part of
    smaller and of bigger scale, p = min(eta, 1/eta) their scales' ratio.
    alpha-mu fading has M = 0 and r = mu exactly."""
    eta, kappa, mu = fp.eta, fp.kappa, fp.mu
    a_one = mu * kappa * (1.0 + eta) / 4.0          # mu lambda^2 / 2
    a_s, a_b = (a_one, a_one / eta) if eta >= 1.0 else (a_one / eta, a_one)
    r = mu * (1.0 + eta) * (1.0 + kappa) / (2.0 * min(eta, 1.0))
    return r, a_s, a_b, min(eta, 1.0 / eta)


def fading_index(fp: FadingParams, rng: np.random.Generator,
                 size: int) -> Tuple[float, Union[int, np.ndarray]]:
    """(r, M): fading_mixture's rate and `size` draws of its index M, each
    part drawn only where its rate is positive (J_s, J_b where kappa > 0,
    K where p < 1), so that alpha-mu draws nothing and M is 0."""
    r, a_s, a_b, p = fading_mixture(fp)
    index = j_b = 0
    if a_s > 0.0:
        index = rng.poisson(a_s, size)
    if a_b > 0.0:
        j_b = rng.poisson(a_b, size)
        index = index + j_b
    if p < 1.0:
        index = index + rng.negative_binomial(0.5 * fp.mu + j_b, p, size)
    return r, index


def fading_power(fp: FadingParams, rng: np.random.Generator,
                 size: int) -> np.ndarray:
    """`size` draws of the normalized fading power G = (h_f / r_hat)^alpha,
    E[G] = 1: r G ~ Gamma(mu + M) given fading_index's M, one Gamma draw
    each.  alpha-mu fading draws rng.gamma(mu, 1 / mu) to the bit."""
    if not fp.enabled:
        raise UnsupportedParams("fading disabled; composite draw uses h_f = 1")
    r, index = fading_index(fp, rng, size)
    return (1.0 / r) * rng.standard_gamma(fp.mu + index, size)


def sample_fading(fp: FadingParams, rng: np.random.Generator,
                  size: int) -> np.ndarray:
    """Draw the short-term fading envelope h_f = r_hat G^(1/alpha), so that
    E[h_f^alpha] = r_hat^alpha."""
    return fp.r_hat * np.power(fading_power(fp, rng, size), 1.0 / fp.alpha)


def alpha_mu_cdf(u: ArrayLike, fp: FadingParams) -> ArrayLike:
    """P(h_f <= u) for alpha-mu fading: mu (h_f / r_hat)^alpha is
    Gamma(mu, 1), so the CDF is gammainc(mu, mu (u / r_hat)^alpha)."""
    with np.errstate(divide="ignore"):      # u = 0: ln u = -inf, P = 0
        return alpha_mu_cdf_log(np.log(u), fp)


def alpha_mu_cdf_log(log_u: ArrayLike, fp: FadingParams,
                     overwrite_input: bool = False,
                     weight: Optional[Tuple[float, float]] = None
                     ) -> ArrayLike:
    """alpha_mu_cdf at u = e^(log_u): gammainc(mu, x) with
    ln x = ln mu + alpha (log_u - ln r_hat), so that a gain built as a sum
    of logs takes one exp; ln x also feeds the series' prefactor.  With
    overwrite_input, ln x is built in log_u, a float array the caller
    no longer needs (outage_score's per-point buffer): one array of its
    size fewer at the score's peak.  weight = (theta, c) multiplies the
    CDF by e^(c - theta log_u), a tilted draw's likelihood ratio, folded
    into the series' prefactor."""
    if not fp.is_alpha_mu:
        raise UnsupportedParams(
            "the outage score integrates only alpha-mu fading (eta=1, "
            f"kappa=0), got eta={fp.eta}, kappa={fp.kappa}")
    log_x = np.multiply(log_u, fp.alpha,
                        out=log_u if overwrite_input else None)
    shift = math.log(fp.mu) - fp.alpha * math.log(fp.r_hat)
    log_x += shift
    if weight is not None:      # theta log_u = (theta / alpha)(ln x - shift)
        b = weight[0] / fp.alpha
        weight = (b, weight[1] + b * shift)
    return _regularized_gamma(fp.mu, np.exp(log_x), False, log_x, weight)


def gammainc(a: float, x: ArrayLike) -> ArrayLike:
    """Regularized lower incomplete gamma P(a, x) for a scalar a > 0 and
    x >= 0 (x = inf gives 1), in numpy alone: scipy.special costs 0.2 s of
    import, and no command loads it."""
    return _regularized_gamma(a, x, upper=False)


def gammaincc(a: float, x: ArrayLike) -> ArrayLike:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x), same
    domain as gammainc (x = inf gives 0).  At x >= a + 1 the continued
    fraction gives Q itself, so a deep tail keeps its relative accuracy
    instead of cancelling in 1 - P."""
    return _regularized_gamma(a, x, upper=True)


def _regularized_gamma(a: float, x: ArrayLike, upper: bool,
                       log_x: Optional[ArrayLike] = None,
                       weight: Optional[Tuple[float, float]] = None
                       ) -> ArrayLike:
    """P(a, x), or Q(a, x) if upper, by Numerical Recipes section 6.2: the
    power series for P and the continued fraction for Q, each
    complemented where the other one is asked for (_gamma_above_one).

    Every x is taken through the economized series on [0, 1], clipped to
    x <= 1; the x > 1 are done first, on their own.  log_x is ln x where
    the caller has it (alpha_mu_cdf_log, which passes x = e^log_x): the
    series prefactor then comes from it, and x and log_x are the caller's
    scratch arrays, written into here.  The results at x > 1 then wait in
    x itself, negated, while the series takes the rest, and the sign bit
    finds them again: no array of their own at the peak, which holds x,
    ln x and the result.  With log_x, weight = (b, c) returns
    P(a, x) x^-b e^c (not with upper), folded into the series' prefactor.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    big = flat > 1.0
    log_head = None if log_x is None else np.asarray(log_x).reshape(-1)
    p_big = _gamma_above_one(a, flat[big], None if log_head is None
                             else log_head[big], upper, weight)
    if log_head is None:
        out = _gammainc_series(a, np.minimum(flat, 1.0), None)
    else:
        flat[big], log_head[big] = np.negative(p_big, out=p_big), 0.0
        del big, p_big
        out = _gammainc_series(a, flat, log_head, weight=weight)
    if upper:
        np.subtract(1.0, out, out=out)
    if log_head is None:
        out[big] = p_big
    else:                   # the mask in ln x's spent buffer
        held = np.signbit(flat, out=log_head.view(bool)[:flat.size])
        np.negative(flat, out=out, where=held)
    return out.reshape(xs.shape) if isinstance(x, np.ndarray) else float(out[0])


def _gamma_above_one(a: float, x: np.ndarray, log_x: Optional[np.ndarray],
                     upper: bool, weight: Optional[Tuple[float, float]]
                     ) -> np.ndarray:
    """_regularized_gamma at x > 1, x and log_x gathered copies.  Q takes
    the fraction from x = a + 1 on, so that a deep tail keeps its relative
    accuracy.  P keeps the series up to x = a + 10: below that, the
    fraction's depth costs more, and P near 1 loses nothing.  The series
    runs on _series_bands, so that an x reads the same bits alone as in
    any array.  From _lower_cut(a) on, Q < 2^-55 and 1 - Q rounds to 1.0,
    so P is 1.0 there without the fraction, bit for bit the same."""
    out = np.empty(x.size)
    far = x >= (a + 1.0 if upper else a + 10.0)
    for x_max, band in _series_bands(a, x):
        band[far] = False
        if np.any(band):
            p = _gammainc_series(a, x[band], None if log_x is None
                                 else log_x[band], x_max, weight)
            out[band] = 1.0 - p if upper else p
        del band
    if upper:
        out[far] = _gammaincc_fraction(a, x[far])
        return out
    x_far = x[far]
    near = x_far < _lower_cut(a)
    p = np.ones(x_far.size)
    p[near] = 1.0 - _gammaincc_fraction(a, x_far[near])
    if weight is not None:
        log_far = log_x[far]
        log_far *= -weight[0]
        log_far += weight[1]
        p *= np.exp(log_far, out=log_far)
    out[far] = p
    return out


@functools.lru_cache()
def _lower_cut(a: float) -> float:
    """An x >= a + 10 from which Q(a, x) <= 2^-56 < 2^-55, so that 1 - Q
    rounds to 1.0 (within the fraction's 4e-16 relative error, as 2^-54
    would): the root of the bound Q(a, x) <= x^(a-1) e^-x / Gamma(a) *
    max(1, x / (x - a + 1)), by a fixed-point iteration from above, whose
    step shrinks its error by a / x or less."""
    target = 56.0 * math.log(2.0)
    x = 2.0 * a + 60.0
    for _ in range(200):
        nxt = (target + (a - 1.0) * math.log(x) - math.lgamma(a)
               + math.log(max(1.0, x / (x - a + 1.0))))
        if abs(nxt - x) < 1e-9 * x:
            break
        x = nxt
    return max(x, a + 10.0)


def _gammainc_series(a: float, x: np.ndarray, log_x: Optional[np.ndarray],
                     x_max: float = 1.0,
                     weight: Optional[Tuple[float, float]] = None
                     ) -> np.ndarray:
    """P(a, x) = x^a e^-x / Gamma(a+1) * S(x) for 0 <= x <= x_max, with
    S(x) = sum_n x^n / ((a+1)...(a+n)) = 1F1(1; a+1; x) >= 1 by Horner in
    y = x / x_max, on the coefficients _economized_series fixes per (a,
    x_max): x_max = 1 is the pass every x takes, 4 and a + 10 the
    bands of _series_bands above it.

    The prefactor takes one of three forms.  From x alone with a <= 100
    (gammainc, gammaincc): np.power(x, a) e^-x / Gamma(a+1), since
    exp(a ln x) would carry ln x's rounding, times a, into P (2e-13
    relative at a = 20, x = 1e-5, against a 1e-14 gate).  From the
    caller's ln x (log_x, written into) with a <= 100:
    exp(a ln x - x) / Gamma(a+1), one exp in place of np.power and a
    second exp; ln x's rounding is then the input's own, and the error is
    a |ln x| ulps plus a few.  Above a = 100, where x^a and Gamma(a+1)
    near overflow: from x, _gamma_prefactor / a, whose exponent a ln(x/a)
    + (a - x) + s(a) keeps the digits that a ln x - x - ln Gamma(a+1)
    loses to cancellation (6e-13 relative at a = 1000.5, x = 990); from
    ln x, exp(a ln x - x - ln Gamma(a+1)), whose error is again a |ln x|
    ulps plus those of ln Gamma(a+1).  weight = (b, c), with log_x, takes
    exp((a - b) ln x - x + c) instead: P x^-b e^c at no extra pass.
    """
    power = log_x is None and a <= 100.0
    if log_x is None and not power:
        t = _gamma_prefactor(a, x)
        t /= a
    elif power:
        t = np.power(x, a)
    else:
        b, c0 = weight or (0.0, 0.0)
        t = np.multiply(log_x, a - b, out=log_x)
        t -= x
        t += c0 - (math.lgamma(a + 1.0) if a > 100.0 else 0.0)
    coef = _economized_series(a, x_max)
    # above 1, x is the caller's scratch: y in place past the prefactor
    y = x if x_max == 1.0 else np.divide(x, x_max, out=None if power else x)
    s = _horner(coef, y)
    if power:
        s *= t
        np.negative(x, out=t)                       # e^-x in x^a's buffer
    elif log_x is None:
        s *= t
        return s
    s *= np.exp(t, out=t)
    if a <= 100.0:
        s /= math.gamma(a + 1.0)
    return s


def _series_terms(a: float, x_max: float, stop: float) -> list:
    """The terms x_max^n / ((a+1)...(a+n)) of S(x_max) from n = 0 until
    the first at or below stop; 1e-17 is below half an ulp of S >= 1."""
    coef = [1.0]
    while coef[-1] > stop:
        coef.append(coef[-1] * x_max / (a + len(coef)))
    return coef


@functools.lru_cache()
def _economized_series(a: float, x_max: float = 1.0) -> Tuple[float, ...]:
    """Power-series coefficients of S(x_max y) on y in [0, 1], economized:
    the Taylor terms down to 1e-20, less each top Chebyshev term on
    [0, 1] whose coefficient is below 1e-17, converted back to powers of
    y, while the coefficients' absolute sum stays within twice S(x_max).

    Taking a term c T*_n off, with T*_n(y) = T_n(2y - 1) leading with
    2^(2n-1) y^n, cancels the top power and moves S by at most |c|; the
    coefficients below 1e-17 fall off fast (about 4^-n times the Taylor
    term), so S moves by about 1e-17 in all, and a = 1.5 needs 13 terms
    on [0, 1] where the Taylor sum needed 19, 19 on [0, 4] and 34 on
    [0, 11.5] for 60.  T*_n's coefficients alternate and grow as 5.8^n,
    so on a wide band the economized powers would cancel: the sum bound
    keeps Horner's rounding within twice that of the Taylor sum, and a
    series beyond 100 terms (a in the hundreds on [0, a + 10]) keeps its
    Taylor terms.  Computed once per (a, x_max), on first use.
    """
    coef = _series_terms(a, x_max, 1e-20)
    if len(coef) > 100:
        return tuple(coef)
    bound = 2.0 * sum(coef)
    shifted = [[1], [-1, 2]]    # T*_n's integer coefficients, y^0 first
    while len(shifted) < len(coef):     # T*_(n+1) = (4y - 2) T*_n - T*_(n-1)
        p, q = shifted[-1], shifted[-2] + [0, 0]
        shifted.append([4 * u - 2 * v - w
                        for u, v, w in zip([0] + p, p + [0], q)])
    while len(coef) > 2:
        n = len(coef) - 1
        c = coef[n] / 2.0 ** (2 * n - 1)
        lower = [u - c * t for u, t in zip(coef[:n], shifted[n])]
        if abs(c) >= 1e-17 or sum(map(abs, lower)) > bound:
            break
        coef = lower
    return tuple(coef)


# the bands of x - a over which _gammaincc_fraction keeps one depth
_FRACTION_BANDS = (1.0, 4.0, 10.0, 40.0, math.inf)


def _gammaincc_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """Q(a, x) = 1 - P(a, x) for x >= a + 1 by the continued fraction
    1 / (b_0 + a_1 / (b_1 + a_2 / (b_2 + ...))), b_i = x + 1 - a + 2i,
    a_i = -i (i - a), evaluated backward from the depth _fraction_depth
    fixes for x's band of x - a (_FRACTION_BANDS): one depth per band, so
    that an x reads the same bits alone as in any array, and far fewer
    terms where the fraction converges fast.  x is capped at 1e300,
    where Q is 0, so that x = inf gives 0 rather than inf - inf.  With
    b_i >= 2i + 2 and |a_i| <= i^2 no denominator nears zero.
    """
    x = np.minimum(x, 1e300)
    t = _fraction_denominator(a, x)
    return np.divide(_gamma_prefactor(a, x), t, out=t)


def _fraction_denominator(a: float, x: np.ndarray) -> np.ndarray:
    """b_0 + a_1 / (b_1 + a_2 / (b_2 + ...)) of _gammaincc_fraction at
    each x >= a + 1, so that Q = x^a e^-x / Gamma(a) over it."""
    out = np.empty_like(x)
    for lo, hi in zip(_FRACTION_BANDS, _FRACTION_BANDS[1:]):
        band = x < a + hi
        if lo > 1.0:            # the first band takes any x below a + 4
            band &= x >= a + lo
        if not band.any():
            continue
        u = x[band]
        u += 1.0 - a
        t = np.zeros_like(u)
        for i in range(_fraction_depth(a, lo), 0, -1):  # t = a_i / (b_i + t)
            t += u
            t += 2.0 * i
            np.divide(-i * (i - a), t, out=t)
        t += u
        out[band] = t
    return out


@functools.lru_cache()
def _fraction_depth(a: float, lo: float) -> int:
    """The depth of _gammaincc_fraction from x = a + lo on: the steps
    Lentz's forward method takes at that x, where the band converges
    slowest, until one moves it by under 4e-16, and a quarter more plus
    4.  Against 40-digit mpmath the fraction is then within 4e-16
    relative from x = a + 1 on, at a from 0.3 to 5e4."""
    b = lo + 1.0
    c, d = 1e300, 1.0 / b
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        if abs(d * c - 1.0) < 4e-16:
            break
    return i + i // 4 + 4


def _gamma_prefactor(a: float, x: np.ndarray) -> np.ndarray:
    """x^a e^-x / Gamma(a), the continued fraction's prefactor, as
    exp(a ln(x/a) + s(a) + (a - x)) with s(a) = a ln a - a - ln Gamma(a).

    The exponent nears -700 before Q underflows, and its terms near x = a
    cancel, so rounding it to one double would cost up to 1e-13 relative:
    the rounding errors of its two sums are carried beside it (Knuth's
    two-sum), ln(x/a) is log1p((x - a) / a) where |x - a| < a / 2 (x - a
    exact there), and s(a) comes from Stirling's series rather than a
    difference of large logarithms.  x = 0 gives 0.
    """
    t = a - x
    t_err = (a - (t - (t - a))) + (-x - (t - a))
    with np.errstate(divide="ignore"):          # x = 0: ln x = -inf
        lead = np.log(x / a)
    near = np.abs(t) < 0.5 * a
    lead[near] = np.log1p(t[near] / -a)
    np.maximum(lead, -1e4, out=lead)    # x = 0: e^(-1e4 a), 0, and no NaN
    lead *= a
    lead += _stirling_remainder(a)
    hi = lead + t
    err = (lead - (hi - (hi - lead))) + (t - (hi - lead)) + t_err
    return np.exp(hi) * (1.0 + err)


def _stirling_remainder(a: float) -> float:
    """a ln a - a - ln Gamma(a); from a = 10 on, Stirling's series, whose
    first omitted term is below 1e-16 there."""
    if a < 10.0:
        return a * math.log(a) - a - math.lgamma(a)
    r = 1.0 / (a * a)
    tail = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r * (
        1 / 1188 - r * (691 / 360360 - r / 156)))))) / a
    return 0.5 * math.log(a / (2.0 * math.pi)) - tail


def snr_from_gain(h: ArrayLike, avg_snr: float, k_h: float) -> ArrayLike:
    """Impaired instantaneous SNR for composite amplitude gain h: the
    ceiling 1/k_h^2 (inf for k_h = 0) where gamma_bar h^2 is infinite."""
    h2 = np.square(np.asarray(h, dtype=float)) * avg_snr
    with np.errstate(invalid="ignore"):     # inf / inf, replaced below
        out = h2 / (k_h ** 2 * h2 + 1.0)
    ceiling = np.isinf(h2)
    if ceiling.any():
        out = np.where(ceiling, 1.0 / k_h ** 2 if k_h else math.inf, out)
    return out if isinstance(h, np.ndarray) else float(out)


def draw_snr_batch(exp: Experiment, n: int,
                   rng_absorption: np.random.Generator,
                   rng_fading: np.random.Generator,
                   rng_misalignment: np.random.Generator) -> np.ndarray:
    """Vectorized SNR draws at exp.link.avg_snr: h = h_l h_f h_p from
    per-component streams, h_f = 1 with fading off."""
    h = sample_path_gain(exp.absorption, exp.link, rng_absorption, n)
    if exp.fading.enabled:
        h *= sample_fading(exp.fading, rng_fading, n)
    h *= sample_misalignment(exp.misalignment.rho, rng_misalignment, n)
    return snr_from_gain(h, exp.link.avg_snr, exp.link.k_h)


# theta = TILT_FRACTION times the least rate, r_1 on configs/sweep_outage.cfg,
# whose 40-50 dB cells (1 M draws, seeds 1-4, (rho, mu) = (2, 2.5) drawing
# its fading stratified) sum (95 % half-width / 1 % of p)^2 to 0.0036 at
# 0.5 r_1, 0.0007 here and 0.0014 at r_1, where (2, 2.5)'s variance
# reduction at 40 dB falls from about 5 000 here to about 950
TILT_FRACTION = 0.75


@dataclass(frozen=True)
class OutageRule:
    """How outage_score estimates P(T + W + F >= c) for the absorption,
    misalignment and fading log-losses, with tail rates z, rho and
    alpha mu (twice analytics.diversity_order's exponents)."""

    integrated: str         # absorption | misalignment | fading
    tilt: float             # theta of the drawn components; 0 if none
    re_bounded: bool        # the relative error stays bounded as p -> 0
    stratified: str         # misalignment | fading | none: the drawn
                            # component stratified_neg_log draws


def outage_rule(exp: Experiment) -> OutageRule:
    """The component of least rate r_1 among those with a CDF in the score
    (Gamma absorption, misalignment, alpha-mu fading; misalignment, then
    fading, on a tie) is integrated out, a conditional Monte Carlo
    (Asmussen & Kroese, Adv. Appl. Probab. 38, 2006).  The others are
    drawn, each from its law tilted by e^(theta L), theta = TILT_FRACTION
    times the least rate of every random component, which stays in its
    Gamma family (Siegmund, Ann. Statist. 4, 1976); that is r_1 where
    fading is alpha-mu or off, and below every drawn rate where eta-mu or
    kappa-mu fading has the least.  The second moment of a weighted score
    then decays as p^2 iff every drawn rate exceeds 2 r_1 - theta:
    re_bounded.  theta does not depend on gamma_bar, so every point of a
    grid scores the same draws.  The drawn misalignment is stratified;
    where it is integrated out, the drawn fading is, if alpha-mu (eta-mu
    and kappa-mu shapes vary by draw, and stay iid)."""
    from .analytics import diversity_order  # it imports channel
    fp, ab = exp.fading, exp.absorption
    gamma = isinstance(ab, GammaAbsorption)
    order = diversity_order(fp.alpha if fp.enabled else math.inf, fp.mu,
                            exp.misalignment.rho,
                            ab.z_for(exp.link) if gamma else math.inf)
    r_fading, r_misalignment, r_absorption = (2.0 * e for e in order.exponents)
    rates = {"misalignment": r_misalignment}    # the random components
    if fp.enabled:
        rates["fading"] = r_fading
    if gamma:
        rates["absorption"] = r_absorption
    theta = TILT_FRACTION * min(rates.values()) if len(rates) > 1 else 0.0
    with_cdf = [c for c in rates if c != "fading" or fp.is_alpha_mu]
    integrated = min(with_cdf, key=rates.__getitem__)
    r_1 = rates.pop(integrated)
    stratified = ("misalignment" if integrated != "misalignment" else
                  "fading" if "fading" in rates and fp.is_alpha_mu else "none")
    return OutageRule(integrated, theta,
                      all(r > 2.0 * r_1 - theta for r in rates.values()),
                      stratified)


def outage_score(exp: Experiment, gamma_hs: Sequence[float], m: int,
                 rng) -> Iterator[np.ndarray]:
    """m draws of the outage probability P(h <= gamma_h) given every
    channel component but the one outage_rule integrates out, at each
    gamma_h of gamma_hs in turn, all from one draw of those components.

    rng(component) is that component's substream.  The drawn log-loss D
    is built once per call, a sum over the drawn components, h =
    h_0 e^-D, each drawn from its law tilted by theta = outage_rule's
    tilt, each score weighted by the likelihood ratio e^(c - theta D),
    c = ln M(theta):
    - absorption: the same standard_gamma(k) over z - theta, Gamma(k,
      z - theta), c += k ln(z / (z - theta));
    - misalignment: stratified_neg_log's -ln(U V) / (rho - theta), draws k
      and k + m // 2 in one stratum of its quantile, c += 2 ln(rho /
      (rho - theta));
    - fading: given fading_index's M, r G ~ Gamma(mu + M - theta / alpha),
      D takes -ln(r G) / alpha (h_0 has r_hat r^(-1/alpha)), c += c_M =
      ln Gamma(mu + M - theta / alpha) - ln Gamma(mu + M) per draw, a
      float where M is 0 (alpha-mu) and an array of math.lgamma over M's
      distinct values otherwise.  With misalignment integrated out and
      alpha-mu fading (outage_rule's stratified), -ln(r G) comes from
      stratified_neg_log of NegLogGamma(mu - theta / alpha), draws k and
      k + m // 2 in one stratum of its quantile; else from one iid
      standard_gamma.
    Deterministic absorption is its one path gain in h_0.  Each gamma_h
    adds ln(gamma_h / h_0) into one reused buffer, log_x = ln(gamma_h /
    h_0) + D, and the integrated component's CDF takes it whole: Q(k,
    z max(-log_x, 0)) on absorption; F_p(e^min(log_x, 0)) on
    misalignment; the alpha-mu CDF at e^log_x on fading.  The weight
    e^(c_p - theta log_x), c_p = c + theta ln(gamma_h / h_0), is folded
    into the exp each score already takes.  So a point's scores do not
    depend on the other points, and each weighted score lies in [0, its
    likelihood ratio].  A misalignment stratum at w = 0 or a fading power
    of 0 (a Gamma draw can return 0) gives D = inf: h = 0, scored 0 tilted
    (e^(-theta D) is 0), and 1 at theta = 0.  Each yielded array is new;
    deterministic absorption with fading off yields a read-only broadcast
    constant.
    """
    fp, ab, rho = exp.fading, exp.absorption, exp.misalignment.rho
    rule = outage_rule(exp)
    theta = rule.tilt
    c = 0.0                                 # ln M(theta)
    if rule.integrated == "absorption":
        h_0, log_loss = exp.link.a_l, 0.0
    elif isinstance(ab, GammaAbsorption):
        z = ab.z_for(exp.link)
        h_0 = exp.link.a_l
        log_loss = rng(streams.ABSORPTION).standard_gamma(ab.k, m)
        log_loss *= 1.0 / (z - theta)
        c += ab.k * math.log(z / (z - theta))
    else:
        h_0, log_loss = deterministic_path_gain(ab, exp.link), 0.0
    with np.errstate(divide="ignore"):      # U V = 0 or G = 0: D = inf
        if rule.integrated != "misalignment":   # -ln h_p
            drawn = stratified_neg_log(NEG_LOG_PRODUCT,
                                       rng(streams.MISALIGNMENT), m)
            drawn *= 1.0 / (rho - theta)
            c += 2.0 * math.log(rho / (rho - theta))
            drawn += log_loss
            log_loss = drawn
        if rule.integrated != "fading" and fp.enabled:  # -ln(r G) / alpha
            fading = rng(streams.FADING)
            r, index = fading_index(fp, fading, m)
            shape, b = fp.mu + index, theta / fp.alpha
            if rule.stratified == "fading":
                drawn = stratified_neg_log(NegLogGamma(shape - b), fading, m)
                sign = 1.0
            else:
                drawn = fading.standard_gamma(shape - b, m)
                np.log(drawn, out=drawn)
                sign = -1.0
            c = c + _tilted_gamma_log_ratio(shape, b)
            h_0 *= fp.r_hat * r ** (-1.0 / fp.alpha)
            drawn *= sign / fp.alpha
            drawn += log_loss
            log_loss = drawn
    shift = np.empty(m) if isinstance(log_loss, np.ndarray) else None
    for gamma_h in gamma_hs:
        s = math.log(gamma_h / h_0)
        log_x = np.add(log_loss, s, out=shift)
        weight = (theta, c + theta * s) if theta else None
        if rule.integrated == "fading":
            yield alpha_mu_cdf_log(log_x, fp, overwrite_input=True,
                                   weight=weight)
        elif rule.integrated == "absorption":
            yield _absorption_score(log_x, ab.k, ab.z_for(exp.link), weight)
        else:
            score = misalignment_cdf_log(log_x, rho, weight)
            yield score if shift is not None else np.broadcast_to(score, m)


def _tilted_gamma_log_ratio(shape: ArrayLike, b: float) -> ArrayLike:
    """ln Gamma(shape - b) - ln Gamma(shape), by math.lgamma: at a float
    shape a float, at an array one value per distinct shape, spread back
    over the array."""
    if not isinstance(shape, np.ndarray):
        return math.lgamma(shape - b) - math.lgamma(shape)
    distinct, at = np.unique(shape, return_inverse=True)
    return np.array([math.lgamma(s - b) - math.lgamma(s)
                     for s in distinct.tolist()])[at]


def _absorption_score(log_x: np.ndarray, k: float, z: float,
                      weight: Optional[Tuple[float, float]]) -> np.ndarray:
    """P(T >= -log_x) = Q(k, z max(-log_x, 0)) for the absorption loss T ~
    Gamma(k, rate z); times e^(c - theta log_x) for weight = (theta, c),
    log_x written into."""
    y = np.negative(log_x)
    np.maximum(y, 0.0, out=y)
    y *= z
    out = gammaincc(k, y)
    if weight is not None:
        log_x *= -weight[0]
        log_x += weight[1]
        out *= np.exp(log_x, out=log_x)
    return out
