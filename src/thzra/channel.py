"""Channel sampling: absorption, path gain, misalignment, fading, SNR.

Samplers are pure given their Generator and return an array of `size`
draws; the densities and CDFs map a float to a float and an array to an
array.  The composite draw follows h = h_l * h_f * h_p and the impaired
SNR

    gamma = avg_snr * h^2 / (k_h^2 * avg_snr * h^2 + 1)

which saturates at 1/k_h^2 for k_h > 0.
"""
from __future__ import annotations

import math
from importlib import resources
from typing import Optional, Union

import numpy as np

from .errors import DomainError, OutOfRange, ProfileMissing, UnsupportedParams
from .params import (DB_PER_NEPER, DeterministicAbsorption, Experiment,
                     FadingParams, GammaAbsorption, ThzLinkParams)

ArrayLike = Union[float, np.ndarray]

BUCK_T_MIN_K = 200.0
BUCK_T_MAX_K = 350.0


def buck_saturation_pressure(temperature_k: float, pressure_hpa: float) -> float:
    """Saturated water-vapor partial pressure (hPa) by Buck's equation.

    Valid over 200 K < T < 350 K; strictly increasing in temperature.
    """
    if not (BUCK_T_MIN_K < temperature_k < BUCK_T_MAX_K):
        raise OutOfRange("link.temperature_k", temperature_k,
                         f"{BUCK_T_MIN_K} K < T < {BUCK_T_MAX_K} K")
    t_c = temperature_k - 273.15
    enhancement = 1.0007 + 3.46e-6 * pressure_hpa
    return 6.1121 * enhancement * math.exp(17.502 * t_c / (240.97 + t_c))


def water_vapor_mixing_ratio(link: ThzLinkParams) -> float:
    """v = (humidity/100) * p_w(T, p) / p."""
    p_w = buck_saturation_pressure(link.temperature_k, link.pressure_hpa)
    return (link.humidity_pct / 100.0) * p_w / link.pressure_hpa


def absorption_deterministic(link: ThzLinkParams,
                             profile: DeterministicAbsorption) -> float:
    """Molecular absorption coefficient zeta in 1/m from a coefficient profile.

    Two water-vapor resonance terms plus a cubic polynomial tail; the
    resonance positions p1, p2 are wavenumbers in 1/cm and f/(100 c)
    converts Hz to the same unit.
    """
    if profile is None:
        raise ProfileMissing("deterministic absorption requires a profile")
    v = water_vapor_mixing_ratio(link)
    q = profile.q
    wn = link.f_hz / (100.0 * 299_792_458.0)
    y1 = q[0] * v * (q[1] * v + q[2]) / ((q[3] * v + q[4]) ** 2 + (wn - profile.p1) ** 2)
    y2 = q[5] * v * (q[6] * v + q[7]) / ((q[8] * v + q[9]) ** 2 + (wn - profile.p2) ** 2)
    f = link.f_hz
    c1, c2, c3, c4 = profile.c
    return y1 + y2 + c1 * f ** 3 + c2 * f ** 2 + c3 * f + c4


def load_absorption_profile(path=None) -> DeterministicAbsorption:
    """Parse a flat key=value coefficient profile (shipped default if no path)."""
    if path is None:
        ref = resources.files("thzra").joinpath("data/absorption_default.profile")
        try:
            text = ref.read_text()
        except FileNotFoundError as exc:
            raise ProfileMissing("packaged default profile not found") from exc
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ProfileMissing(f"cannot read absorption profile {path!r}") from exc
    vals = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        vals[key.strip()] = float(val)
    try:
        return DeterministicAbsorption(
            q=tuple(vals[f"q{i}"] for i in range(1, 11)),
            p1=vals["p1"], p2=vals["p2"],
            c=tuple(vals[f"c{i}"] for i in range(1, 5)))
    except KeyError as exc:
        raise ProfileMissing(f"profile key missing: {exc}") from exc


def zeta_db_per_km_from_natural(zeta_per_m: float) -> float:
    """Convert a 1/m absorption coefficient to power dB/km."""
    return zeta_per_m * 1000.0 * (DB_PER_NEPER / 2.0)


def sample_absorption_db(model: GammaAbsorption, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    """Draw zeta_dB ~ Gamma(k, beta) in dB/km."""
    return rng.gamma(model.k, model.beta, size=size)


def path_gain_from_absorption(zeta_db: ArrayLike, link: ThzLinkParams) -> ArrayLike:
    """h_l = a_l * exp(-zeta_dB * d_km / (2 * 4.343))."""
    return link.a_l * np.exp(-0.5 * np.asarray(zeta_db, dtype=float)
                             * link.d_km / (DB_PER_NEPER / 2.0))


def path_gain_pdf(h_l: ArrayLike, model: GammaAbsorption,
                  link: ThzLinkParams) -> ArrayLike:
    """Density of the random path gain for Gamma-distributed absorption.

    f(h) = z^k a_l^{-z} / Gamma(k) * ln(a_l/h)^{k-1} * h^{z-1} on (0, a_l].
    """
    h = np.asarray(h_l, dtype=float)
    a_l = link.a_l
    if np.any(h <= 0) or np.any(h > a_l * (1 + 1e-12)):
        raise DomainError(f"path gain must lie in (0, a_l={a_l:g}]")
    z = model.z_for(link)
    k = model.k
    lg = np.log(a_l / np.minimum(h, a_l))
    out = (z ** k * a_l ** (-z) / math.gamma(k)
           * np.power(lg, k - 1.0) * np.power(h, z - 1.0))
    return out if isinstance(h_l, np.ndarray) else float(out)


def path_gain_cdf(h_l: ArrayLike, model: GammaAbsorption,
                  link: ThzLinkParams) -> ArrayLike:
    """P(path gain <= h); ln(a_l/h_l) is Gamma(k, 1/z) so this is its tail."""
    h = np.asarray(h_l, dtype=float)
    if np.any(h <= 0) or np.any(h > link.a_l * (1 + 1e-12)):
        raise DomainError(f"path gain must lie in (0, a_l={link.a_l:g}]")
    z = model.z_for(link)
    out = gammaincc(model.k, z * np.log(link.a_l / np.minimum(h, link.a_l)))
    return out if isinstance(h_l, np.ndarray) else float(out)


def sample_path_gain(model: Union[GammaAbsorption, DeterministicAbsorption],
                     link: ThzLinkParams, rng: np.random.Generator,
                     size: int) -> np.ndarray:
    """`size` draws of the path gain h_l; deterministic absorption gives
    one constant and draws nothing."""
    if isinstance(model, GammaAbsorption):
        return path_gain_from_absorption(sample_absorption_db(model, rng, size),
                                         link)
    zeta = absorption_deterministic(link, model)
    return np.full(size, path_gain_from_absorption(
        zeta_db_per_km_from_natural(zeta), link))


def sample_misalignment(rho: float, rng: np.random.Generator,
                        size: int) -> np.ndarray:
    """Exact misalignment-gain sampler h_p = (U V)^(1/rho).

    U*V for independent uniforms has density -ln(w) on (0,1); raising to
    1/rho gives the pointing-error law -rho^2 ln(x) x^(rho-1) exactly.
    """
    u = rng.random(size)
    v = rng.random(size)
    return np.power(u * v, 1.0 / rho)


def misalignment_pdf(x: ArrayLike, rho: float) -> ArrayLike:
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0) or np.any(xs > 1):
        raise DomainError("misalignment gain support is (0, 1]")
    out = -rho ** 2 * np.log(xs) * np.power(xs, rho - 1.0)
    return out if isinstance(x, np.ndarray) else float(out)


def misalignment_cdf(x: ArrayLike, rho: float) -> ArrayLike:
    """Antiderivative of the misalignment density: x^rho (1 - rho ln x)."""
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0) or np.any(xs > 1):
        raise DomainError("misalignment gain support is (0, 1]")
    out = np.power(xs, rho) * (1.0 - rho * np.log(xs))
    return out if isinstance(x, np.ndarray) else float(out)


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


def sample_fading(fp: FadingParams, rng: np.random.Generator,
                  size: int) -> np.ndarray:
    """Draw the short-term fading envelope h_f with E[h_f^alpha] = r_hat^alpha.

    Integer mu uses the Gaussian cluster construction for any (eta, kappa);
    the alpha-mu subfamily (eta=1, kappa=0), the only place FadingParams
    admits a non-integer mu, samples through its exact Gamma representation.
    """
    if not fp.enabled:
        raise UnsupportedParams("fading disabled; composite draw uses h_f = 1")
    if fp.mu_is_integer:
        g_norm = _fading_gaussian_construction(fp, rng, size)
    else:
        # alpha-mu subfamily: h_f^alpha * (mu / r_hat^alpha) ~ Gamma(mu)
        g_norm = rng.gamma(fp.mu, 1.0 / fp.mu, size=size)
    return fp.r_hat * np.power(g_norm, 1.0 / fp.alpha)


def alpha_mu_cdf(u: ArrayLike, fp: FadingParams) -> ArrayLike:
    """P(h_f <= u) for alpha-mu fading: mu (h_f / r_hat)^alpha is
    Gamma(mu, 1), so the CDF is gammainc(mu, mu (u / r_hat)^alpha)."""
    if not fp.is_alpha_mu:
        raise UnsupportedParams(
            "fading CDF is exact only for alpha-mu (eta=1, kappa=0), "
            f"got eta={fp.eta}, kappa={fp.kappa}")
    x = np.array(u, dtype=float)     # one copy, powered in place
    x /= fp.r_hat
    np.power(x, fp.alpha, out=x)
    x *= fp.mu
    return gammainc(fp.mu, x if isinstance(u, np.ndarray) else float(x))


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


def _regularized_gamma(a: float, x: ArrayLike, upper: bool) -> ArrayLike:
    """P(a, x), or Q(a, x) if upper, by Numerical Recipes section 6.2: the
    power series for P below x = a + 1 and Lentz's continued fraction for
    Q above it, each complemented where the other one is asked for.
    Every x is first taken through the series clipped to x <= 1, one pass
    with the term count the largest of them needs; the few x > 1 are then
    redone in place.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    out = _gammainc_series(a, np.minimum(flat, 1.0))
    if upper:
        np.subtract(1.0, out, out=out)
    big = np.flatnonzero(flat > 1.0)
    if big.size:
        ser, cf = big[flat[big] < a + 1.0], big[flat[big] >= a + 1.0]
        p = _gammainc_series(a, flat[ser])
        q = _gammaincc_fraction(a, flat[cf])
        out[ser] = 1.0 - p if upper else p
        out[cf] = q if upper else 1.0 - q
    return out.reshape(xs.shape) if isinstance(x, np.ndarray) else float(out[0])


def _gammainc_series(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) = x^a e^-x / Gamma(a+1) * sum_n x^n / ((a+1)...(a+n)), the
    sum by Horner in y = x / x_max over the terms the largest x needs.

    The coefficients are the terms at x_max, none above 1 for
    x_max <= a + 1; unscaled ones would underflow long before the terms
    do once a is in the hundreds.
    """
    x_max = float(np.max(x, initial=0.0)) or 1.0
    coef = [1.0]
    while coef[-1] > 1e-17:      # the sum is >= 1: below half an ulp
        coef.append(coef[-1] * x_max / (a + len(coef)))
    y = x if x_max == 1.0 else x / x_max
    s = np.full_like(x, coef[-1])
    for c in reversed(coef[:-1]):
        s *= y
        s += c
    if a <= 100.0:
        # x^a directly: exp(a ln x) would carry ln x's rounding, times a,
        # into P (2e-13 relative at a = 20, x = 1e-5)
        s *= np.power(x, a)
        e = np.negative(x)
        s *= np.exp(e, out=e)
        s /= math.gamma(a + 1.0)
        return s
    with np.errstate(divide="ignore"):    # x^a and Gamma(a+1) near overflow
        return s * np.exp(a * np.log(x) - x - math.lgamma(a + 1.0))


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
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        # 4e-16 is within an ulp of 1; a tighter stop may never be met
        if np.all(np.abs(delta - 1.0) < 4e-16):
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
                   rng_misalignment: np.random.Generator,
                   avg_snr: Optional[float] = None) -> np.ndarray:
    """Vectorized SNR draws (admission, crude outage counting)."""
    h = (sample_path_fading_gain(exp, rng_absorption, rng_fading, n)
         * sample_misalignment(exp.misalignment.rho, rng_misalignment, n))
    gbar = exp.link.avg_snr if avg_snr is None else avg_snr
    return snr_from_gain(h, gbar, exp.link.k_h)


def sample_path_fading_gain(exp: Experiment, rng_absorption: np.random.Generator,
                            rng_fading: np.random.Generator,
                            size: int) -> np.ndarray:
    """`size` draws of h_l * h_f from per-component streams (h_f = 1 with
    fading off): the composite gain short of misalignment, whose CDF the
    conditional outage estimator averages over."""
    h_l = sample_path_gain(exp.absorption, exp.link, rng_absorption, size)
    if not exp.fading.enabled:
        return h_l
    return h_l * sample_fading(exp.fading, rng_fading, size)
