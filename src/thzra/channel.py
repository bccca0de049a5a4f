"""Channel sampling: absorption, path gain, misalignment, fading, SNR.

Samplers are pure given their Generator and return an array of `size`
draws; each law's one closed form is its CDF, which maps a float to a
float and an array to an array and takes every value its sampler
returns.  The composite draw follows h = h_l * h_f * h_p and the impaired
SNR

    gamma = avg_snr * h^2 / (k_h^2 * avg_snr * h^2 + 1)

which saturates at 1/k_h^2 for k_h > 0.  The outage score (outage_score:
the outage probability given all components but one, which outage Monte
Carlo averages and QoS admission takes as its survival function)
composes the same laws in log form, a sum of log-gains scored by one exp:
path_loss_nepers, uniform_product and fading_power give each component's
log-gain from the draws the linear samplers use
(stratified_neg_log_product draws -ln(U V) by stratified quantiles of its
own law, stratified_log_gamma adds it into an alpha-mu fading power with
mu >= 2, StratifiedMean reads the strata back), and misalignment_cdf_log
is the misalignment CDF in that form and alpha_mu_cdf_log the one
alpha_mu_cdf calls.
"""
from __future__ import annotations

import functools
import math
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


def sample_path_loss(model: Union[GammaAbsorption, DeterministicAbsorption],
                     link: ThzLinkParams, rng: np.random.Generator,
                     size: int) -> Tuple[float, ArrayLike]:
    """(h_0, loss) with path gain h_l = h_0 exp(-loss): for Gamma absorption
    h_0 = a_l and `size` drawn losses in nepers; deterministic absorption
    gives its one path gain and loss 0.0, and draws nothing."""
    if isinstance(model, GammaAbsorption):
        return link.a_l, path_loss_nepers(sample_absorption_db(model, rng, size),
                                          link)
    zeta = absorption_deterministic(link, model)
    return path_gain_from_absorption(zeta_db_per_km_from_natural(zeta),
                                     link), 0.0


def sample_path_gain(model: Union[GammaAbsorption, DeterministicAbsorption],
                     link: ThzLinkParams, rng: np.random.Generator,
                     size: int) -> np.ndarray:
    """`size` draws of the path gain h_l; deterministic absorption gives
    one constant and draws nothing."""
    h_0, loss = sample_path_loss(model, link, rng, size)
    return h_0 * np.exp(-np.broadcast_to(loss, size))


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


def stratified_neg_log_product(rng: np.random.Generator,
                               size: int) -> np.ndarray:
    """`size` draws of Y = -ln(U V), the law of -ln uniform_product
    (Gamma(2)), stratified along its own level sets: draw k < 2P takes
    the quantile of Y at upper tail w = (h + u) / P, the y with
    P(U V <= e^-y) = (1 + y) e^-y = w, for the stratified uniform of
    stratified_uniform (stratum h = k mod P of P = size // 2, the stream's
    k-th uniform u), so draws k and k + P share stratum h; an odd size's
    last draw takes w = u, iid.  w = 0 gives inf.

    From _HERMITE_STRATA strata on, the inner strata interpolate y in u
    by a cubic Hermite between the quantiles at the stratum bounds
    (_bound_quantiles, cached), with slopes dy/du = -(1 + y) / (h y); the
    _EDGE strata at each end, where the quantile's derivatives grow
    without bound, and every stratum of a smaller P solve for y
    (_upper_gamma2_quantile).  Either way y is within 4e-15 (1 + y) of
    the root for its w.  Temporaries: four arrays of P doubles.
    """
    cells = size // 2
    if cells < _HERMITE_STRATA:
        return _upper_gamma2_quantile(stratified_uniform(rng, size))
    u = rng.random(size)
    strata = u[:2 * cells].reshape(2, -1)   # a view: column h holds h, h + P
    lo, hi = _EDGE, cells - _EDGE
    edges = np.concatenate((strata[:, :lo], strata[:, hi:]), axis=1)
    y = _bound_quantiles(cells)[lo:hi + 1]
    t = np.arange(-lo, -hi - 1, -1.0)
    m = np.divide(1.0, y)
    m += 1.0
    m /= t                                  # dy/du = -(1 + y) / (h y)
    c2 = np.subtract(y[1:], y[:-1])
    c3 = np.add(m[:-1], m[1:])
    c3 -= c2
    c3 -= c2                                # m0 + m1 - 2 (y1 - y0)
    c2 -= m[:-1]
    c2 -= c3                                # 3 (y1 - y0) - 2 m0 - m1
    # Horner in each row, into t and then into c3, which it last reads
    for x, acc in zip(strata[:, lo:hi], (t[:-1], c3)):
        np.multiply(x, c3, out=acc)
        acc += c2
        acc *= x
        acc += m[:-1]
        acc *= x
        np.add(acc, y[:-1], out=x)
    edges[:, :lo] += np.arange(lo)
    edges[:, lo:] += np.arange(hi, cells)
    edges /= cells
    _upper_gamma2_quantile(edges)
    strata[:, :lo], strata[:, hi:] = edges[:, :lo], edges[:, lo:]
    if size % 2:
        _upper_gamma2_quantile(u[-1:])
    return u


@functools.lru_cache(maxsize=1)
def _bound_quantiles(cells: int) -> np.ndarray:
    """The cells + 1 stratum bounds' quantiles y_h, (1 + y_h) e^-y_h =
    h / cells, read-only; one table is held, that of the last cells."""
    y = np.arange(cells + 1) / cells
    _upper_gamma2_quantile(y)
    y.flags.writeable = False
    return y


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
    layout of stratified_uniform and stratified_neg_log_product: a chunk
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


def misalignment_cdf_log(log_x: ArrayLike, rho: float) -> ArrayLike:
    """P(h_p <= x) = x^rho (1 - rho ln x) at x = e^L for L = log_x <= 0,
    e^(rho L) (1 - rho L): the form the outage score takes, its gain built
    as a sum of logs.  L = -inf (x = 0) gives 0: rho L is floored at
    -1000, where e^(rho L) is already 0, so no 0 * inf is taken.  Two
    temporaries of log_x's size, log_x itself unchanged."""
    t = np.asarray(np.multiply(log_x, rho))
    np.maximum(t, -1e3, out=t)
    out = np.exp(t)
    out *= np.subtract(1.0, t, out=t)
    return out


def _fading_gaussian_construction(fp: FadingParams, rng: np.random.Generator,
                                  n: int) -> np.ndarray:
    """Physical alpha-eta-kappa-mu construction, symmetric p = q = 1.

    mu i.i.d. clusters of (in-phase, quadrature) Gaussians with variance
    ratio eta and equal-split dominant components sized so the total
    dominant-to-scattered power ratio is kappa.
    """
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


def fading_power(fp: FadingParams, rng: np.random.Generator,
                 size: int) -> np.ndarray:
    """`size` draws of the normalized fading power G = (h_f / r_hat)^alpha,
    E[G] = 1.

    The alpha-mu subfamily (eta=1, kappa=0), integer mu or not, samples
    through its exact Gamma representation, one Gamma draw where the
    Gaussian cluster construction takes 2 mu normals; any other
    (eta, kappa), whose mu FadingParams holds to an integer, uses the
    cluster construction.
    """
    if not fp.enabled:
        raise UnsupportedParams("fading disabled; composite draw uses h_f = 1")
    if not fp.is_alpha_mu:
        return _fading_gaussian_construction(fp, rng, size)
    # mu G ~ Gamma(mu); rng.gamma(mu, 1 / mu) to the bit
    return (1.0 / fp.mu) * rng.standard_gamma(fp.mu, size)


def stratified_log_gamma(shape: float, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    """`size` draws of ln X for X ~ Gamma(shape), shape >= 2, as the exact
    sum X = -ln(U V) + R: -ln(U V) from stratified_neg_log_product (draws
    k and k + size // 2 share a stratum, an odd size's last draw is iid),
    then R ~ Gamma(shape - 2) iid from the same stream, after the
    uniforms: Z^2 / 2 for a standard normal Z at shape 2.5 (chi-square(1)
    / 2 is Gamma(1/2), and cheaper than standard_gamma there), 0 at shape
    2.  -ln(U V) = inf gives ln X = inf."""
    x = stratified_neg_log_product(rng, size)
    if shape == 2.5:
        r = rng.standard_normal(size)
        np.square(r, out=r)
        r *= 0.5
    elif shape > 2.0:
        r = rng.standard_gamma(shape - 2.0, size)
    else:
        r = 0.0
    x += r
    return np.log(x, out=x)


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
                     upper: bool = False,
                     overwrite_input: bool = False) -> ArrayLike:
    """alpha_mu_cdf at u = e^(log_u): gammainc(mu, x) with
    ln x = ln mu + alpha (log_u - ln r_hat), so that a gain built as a sum
    of logs takes one exp; ln x also feeds the series' prefactor.  With
    upper, the survival function P(h_f > u) = Q(mu, x).  With
    overwrite_input, ln x is built in log_u, a float array the caller
    no longer needs (outage_score's per-point buffer): one array of its
    size fewer at the score's peak."""
    if not fp.is_alpha_mu:
        raise UnsupportedParams(
            "fading CDF is exact only for alpha-mu (eta=1, kappa=0), "
            f"got eta={fp.eta}, kappa={fp.kappa}")
    log_x = np.multiply(log_u, fp.alpha,
                        out=log_u if overwrite_input else None)
    log_x += math.log(fp.mu) - fp.alpha * math.log(fp.r_hat)
    return _regularized_gamma(fp.mu, np.exp(log_x), upper, log_x)


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
                       log_x: Optional[ArrayLike] = None) -> ArrayLike:
    """P(a, x), or Q(a, x) if upper, by Numerical Recipes section 6.2: the
    power series for P and Lentz's continued fraction for Q, each
    complemented where the other one is asked for.  Q takes the fraction
    from x = a + 1 on, so that a deep tail keeps its relative accuracy.
    P keeps the series up to x = a + 10: on the few x there, the
    fraction's loop of small-array steps costs more, and P near 1 loses
    nothing.

    Every x is first taken through the economized series on [0, 1],
    clipped to x <= 1; the few x > 1 are then redone in place.  log_x is
    ln x where the caller has it (alpha_mu_cdf_log, which passes
    x = e^log_x): the series prefactor then comes from it, and x and
    log_x are the caller's scratch arrays, written into here.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    big = np.flatnonzero(flat > 1.0)
    x_big = flat[big]
    if log_x is None:
        head, log_head, log_big = np.minimum(flat, 1.0), None, None
    else:
        head, log_head = flat, np.asarray(log_x, dtype=float).reshape(-1)
        log_big = log_head[big]
        head[big], log_head[big] = 1.0, 0.0
    out = _gammainc_series(a, head, log_head)
    if upper:
        np.subtract(1.0, out, out=out)
    if big.size:
        ser = x_big < (a + 1.0 if upper else a + 10.0)
        p = _gammainc_series(a, x_big[ser],
                             None if log_big is None else log_big[ser],
                             float(np.max(x_big[ser], initial=1.0)))
        q = _gammaincc_fraction(a, x_big[~ser])
        out[big[ser]] = 1.0 - p if upper else p
        out[big[~ser]] = q if upper else 1.0 - q
    return out.reshape(xs.shape) if isinstance(x, np.ndarray) else float(out[0])


def _gammainc_series(a: float, x: np.ndarray, log_x: Optional[np.ndarray],
                     x_max: float = 1.0) -> np.ndarray:
    """P(a, x) = x^a e^-x / Gamma(a+1) * S(x) for 0 <= x <= x_max, with
    S(x) = sum_n x^n / ((a+1)...(a+n)) = 1F1(1; a+1; x) >= 1 by Horner.

    On [0, 1] (x_max = 1, the pass every x takes) the coefficients are
    the economized ones of _economized_series, fixed per a.  Above 1 they
    are the Taylor terms at x_max and Horner runs in y = x / x_max: the
    terms the largest x needs, none of them underflowing once a is in the
    hundreds.

    The prefactor takes one of three forms.  From x alone with a <= 100
    (gammainc, gammaincc): np.power(x, a) e^-x / Gamma(a+1), since
    exp(a ln x) would carry ln x's rounding, times a, into P (2e-13
    relative at a = 20, x = 1e-5, against a 1e-14 gate).  From the
    caller's ln x (log_x, written into) with a <= 100:
    exp(a ln x - x) / Gamma(a+1), one exp in place of np.power and a
    second exp; ln x's rounding is then the input's own, and the error is
    a |ln x| ulps plus a few.  Above a = 100, where x^a and Gamma(a+1)
    near overflow: exp(a ln x - x - ln Gamma(a+1)), with ln x from x
    where it is not given.
    """
    if x_max == 1.0:
        coef, y = _economized_series(a), x
    else:
        coef, y = _series_terms(a, x_max, 1e-17), x / x_max
    s = y * coef[-1]
    s += coef[-2]
    for c in reversed(coef[:-2]):
        s *= y
        s += c
    if log_x is None and a <= 100.0:
        t = np.power(x, a)
        s *= t
        np.negative(x, out=t)                       # e^-x in x^a's buffer
    else:
        if log_x is None:
            with np.errstate(divide="ignore"):      # x = 0: ln x = -inf
                log_x = np.log(x)
        t = np.multiply(log_x, a, out=log_x)
        t -= x
    if a > 100.0:
        t -= math.lgamma(a + 1.0)
        s *= np.exp(t, out=t)
        return s
    s *= np.exp(t, out=t)
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
def _economized_series(a: float) -> Tuple[float, ...]:
    """Power-series coefficients of S(x) on [0, 1], economized: the Taylor
    terms down to 1e-20, less each top Chebyshev term on [0, 1] whose
    coefficient is below 1e-17, converted back to powers of x.

    Taking a term c T*_n off, with T*_n(x) = T_n(2x - 1) leading with
    2^(2n-1) x^n, cancels the top power and moves S by at most |c|; the
    coefficients below 1e-17 fall off fast (about 4^-n times the Taylor
    term), so S moves by about 1e-17 in all, and a = 1.5 needs 13 terms
    where the Taylor sum needed 19.  Computed once per a, on first use.
    """
    coef = _series_terms(a, 1.0, 1e-20)
    shifted = [[1], [-1, 2]]    # T*_n's integer coefficients, x^0 first
    while len(shifted) < len(coef):     # T*_(n+1) = (4x - 2) T*_n - T*_(n-1)
        p, q = shifted[-1], shifted[-2] + [0, 0]
        shifted.append([4 * u - 2 * v - w
                        for u, v, w in zip([0] + p, p + [0], q)])
    while len(coef) > 2:
        n = len(coef) - 1
        c = coef[n] / 2.0 ** (2 * n - 1)
        if abs(c) >= 1e-17:
            break
        coef = [u - c * t for u, t in zip(coef[:n], shifted[n])]
    return tuple(coef)


def _gammaincc_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """Q(a, x) = 1 - P(a, x) for x >= a + 1 by Lentz's method on the
    continued fraction; x is capped at 1e300, where Q is 0, so that
    x = inf gives 0 rather than inf - inf.

    With b_i = x + 1 - a + 2i >= 2i + 2 and |a_i| = i |i - a| <= i^2,
    induction gives both Lentz denominators >= i + 2: none needs the
    usual guard against zero.
    """
    x = np.minimum(x, 1e300)
    b = x + 1.0 - a
    c = np.full_like(x, 1e300)
    d = 1.0 / b
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        # 4e-16 is within an ulp of 1; a tighter stop may never be met.
        # Each x stops counting once it has met it: past that, delta is
        # rounding noise of 1 +- 2 ulps, and waiting for every x to meet
        # it at one step never ended for 65536 x at a = 1.5
        done |= np.abs(delta - 1.0) < 4e-16
        if done.all():
            break
    return _gamma_prefactor(a, x) * h


def _gamma_prefactor(a: float, x: np.ndarray) -> np.ndarray:
    """x^a e^-x / Gamma(a), the continued fraction's prefactor, as
    exp(a ln(x/a) + s(a) + (a - x)) with s(a) = a ln a - a - ln Gamma(a).

    The exponent nears -700 before Q underflows, and rounding it to one
    double would cost up to 1e-13 relative; the rounding errors of its
    two sums are carried beside it (Knuth's two-sum), and s(a) comes from
    Stirling's series rather than a difference of large logarithms.
    """
    t = a - x
    t_err = (a - (t - (t - a))) + (-x - (t - a))
    lead = a * np.log(x / a) + _stirling_remainder(a)
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


def conditioned_on_fading(exp: Experiment) -> bool:
    """Whether the outage score integrates fading out (else misalignment):
    alpha-mu fading (FadingParams.is_alpha_mu) with alpha mu < rho, i.e.
    fading's exponent in the high-SNR slope min(alpha mu, rho, z) / 2 is
    below misalignment's and fading drives the outage tail."""
    fp = exp.fading
    return fp.enabled and fp.is_alpha_mu and fp.alpha * fp.mu < exp.misalignment.rho


def outage_score(exp: Experiment, gamma_hs: Sequence[float], m: int, rng,
                 stratified: bool = True, upper: bool = False
                 ) -> Iterator[np.ndarray]:
    """m draws of the outage probability P(h <= gamma_h) given every
    channel component but the one conditioned_on_fading integrates out,
    at each gamma_h of gamma_hs in turn, all from one draw of those
    components; with upper, P(h > gamma_h) instead.

    rng(component) is that component's substream.  The drawn log-loss
    ln(h_0 / h) is built once per call, a sum of log-gains: -ln(U V)/rho
    plus the absorption loss on fading, with -ln(U V) stratified
    (stratified_neg_log_product: draws k and k + m // 2 share a stratum
    of its quantile) or, unless stratified, from iid (U, V)
    (uniform_product); -ln G/alpha plus the loss on misalignment
    (h / r_hat there), G iid (fading_power) but for alpha-mu fading with
    mu >= 2 when stratified, where -ln(mu G)/alpha comes from
    stratified_log_gamma, the same stratified -ln(U V) plus an iid
    Gamma(mu - 2) (h / (r_hat mu^(-1/alpha))); the loss alone with fading
    off.  Each gamma_h adds its constant ln(gamma_h / h_0) into one
    reused buffer and the CDF of the integrated-out component takes it
    whole: on fading,
    ln u = ln(gamma_h / (h_l h_p)) and the alpha-mu CDF (its survival
    function with upper); on misalignment, L = min(ln(gamma_h / (h_l h_f)),
    0) and F_p(e^L).  So a point's scores do not depend on the other
    points.  U V = 0 or an iid G = 0 (Generator.random and a Gamma draw
    can return 0) gives ln = -inf and scores 1, as h = 0 does; a
    stratified -ln(U V) = inf in stratified_log_gamma gives G = inf,
    L = -inf and scores 0.  Each yielded array is new; deterministic
    absorption with fading off yields a read-only broadcast constant.
    """
    fp, rho = exp.fading, exp.misalignment.rho
    on_fading = conditioned_on_fading(exp)
    h_0, log_loss = sample_path_loss(exp.absorption, exp.link,
                                     rng(streams.ABSORPTION), m)
    if on_fading or fp.enabled:
        with np.errstate(divide="ignore"):
            if on_fading and stratified:    # -ln h_p
                drawn = stratified_neg_log_product(rng(streams.MISALIGNMENT),
                                                   m)
                drawn *= 1.0 / rho
            elif on_fading:
                drawn = uniform_product(rng(streams.MISALIGNMENT), m)
                np.log(drawn, out=drawn)
                drawn *= -1.0 / rho
            elif stratified and fp.is_alpha_mu and fp.mu >= 2.0:
                # -ln(h_f / (r_hat mu^(-1/alpha))) = -ln(mu G) / alpha
                drawn = stratified_log_gamma(fp.mu, rng(streams.FADING), m)
                drawn *= -1.0 / fp.alpha
                h_0 *= fp.r_hat * fp.mu ** (-1.0 / fp.alpha)
            else:                       # -ln(h_f / r_hat)
                drawn = np.log(fading_power(fp, rng(streams.FADING), m))
                drawn *= -1.0 / fp.alpha
                h_0 *= fp.r_hat
        drawn += log_loss
        log_loss = drawn
    shift = np.empty(m) if isinstance(log_loss, np.ndarray) else None
    for gamma_h in gamma_hs:
        log_x = np.add(log_loss, math.log(gamma_h / h_0), out=shift)
        if on_fading:
            yield alpha_mu_cdf_log(log_x, fp, upper, overwrite_input=True)
            continue
        score = misalignment_cdf_log(np.minimum(log_x, 0.0, out=shift), rho)
        if upper:
            score = 1.0 - score
        yield score if shift is not None else np.broadcast_to(score, m)
