"""Closed-form statistics: no-fading SNR law, delay and energy series with
their scaling bounds, concentration bounds, diversity order.

The no-fading SNR law is the law of h_l * h_p = a_l e^{-(T+W)} with
T ~ Gamma(k, 1/z) (absorption, integer k) and W ~ Gamma(2, 1/rho)
(misalignment).  Conditioning on T gives a regularized upper incomplete
gamma plus two confluent hypergeometric terms (Tricomi's entire
incomplete gamma, DLMF 8.5.1), exact for every z and rho including
z = rho.  numpy and the standard library evaluate them: channel.gammaincc
gives the incomplete gamma, and a Poisson-weighted series or a terminating
asymptotic sum gives each Kummer function.

Energy is counted in transmissions (unit energy).  ATP's expected energy
therefore equals its expected delay, so `delay_atp`, `delay_atp_prefix`
and `delay_bounds_atp` serve both; FTP's energy has the geometric closed
form in `energy_ftp`.  `expected_delay_exact` and `energy_exact` are the
general-p series the scheme-specific forms are checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .channel import gammaincc
from .errors import DomainError
from .params import GammaAbsorption, ThzLinkParams

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


def _kummer_terms(L: float, k: int, z: float, rho: float):
    """(c, [g_{k+1}, g_{k+2}]) with c g_b = (zL)^k G_b, where
    G_b = e^{-rho L} M(k, b, -(z - rho) L) / (b-1)!.

    With s = z - rho, G_{k+1} = e^{-rho L} gamma*(k, sL) and
    G_{k+2} = e^{-rho L} [gamma*(k, sL) - k gamma*(k+1, sL)] (DLMF 8.5.1,
    gamma* Tricomi's entire incomplete gamma); one Kummer function keeps
    the difference free of cancellation.  Kummer's transformation
    M(k, b, -x) = e^{-x} M(b-k, b, x) (DLMF 13.2.39) writes every G_b as
    e^{-min(z, rho) L} W(a, b, |s| L) / (b-1)!, with a = b - k for s >= 0
    and a = k for s < 0, and W(a, b, x) = e^{-x} M(a, b, x) in (0, 1].
    c = (zL)^k and g_b = G_b while (zL)^k and (b-1)! fit a double, the
    more accurate form; beyond, as for a large shape k, c = 1 and
    (zL)^k e^{-min(z, rho) L} / (b-1)! is carried as one logarithm.
    """
    s = z - rho
    m = min(z, rho) * L
    bs = (k + 1, k + 2)
    ws = [_poisson_kummer(b - k if s >= 0.0 else k, b, abs(s) * L) for b in bs]
    try:
        return (z * L) ** k, [math.exp(-m) * w / math.factorial(b - 1)
                              for w, b in zip(ws, bs)]
    except OverflowError:
        log_c = k * math.log(z * L) - m
        return 1.0, [math.exp(log_c - math.lgamma(b)) * w
                     for w, b in zip(ws, bs)]


def _poisson_kummer(a: int, b: int, x: float) -> float:
    """W(a, b, x) = e^{-x} M(a, b, x) = sum_n Pois(n; x) (a)_n / (b)_n for
    integers 0 < a < b and x >= 0: positive terms, so no cancellation.

    Up to x = 60 + 2b the sum runs from n = 0 until its terms, past the
    Poisson mode, fall below 1e-17 of it.  e^{-x} is subnormal past
    x = 708, so it is applied as `parts` factors e^{-x/parts} (parts a
    power of two, so x/parts is exact), each as soon as the running sum
    exceeds 1e200 and the rest at the end.  Beyond, the asymptotic
    expansion of M (DLMF 13.7.2), Gamma(b)/Gamma(a) x^{a-b}
    sum_s (b-a)_s (1-a)_s / s! x^{-s}, ends at s = a - 1 because a is a
    positive integer.  The part it leaves out leads with
    Gamma(a)/Gamma(b-a) x^{b-2a} e^{-x} of W, below 1e-23 there for any b.
    """
    if x <= 60.0 + 2.0 * b:
        parts = 1
        while x / parts > 700.0:
            parts *= 2
        factor = math.exp(-x / parts)
        term = total = factor
        pending = parts - 1
        n = 0
        while n <= x or term > 1e-17 * total:
            term *= x * (a + n) / ((n + 1) * (b + n))
            total += term
            n += 1
            if pending and total > 1e200:
                term *= factor
                total *= factor
                pending -= 1
        for _ in range(pending):
            total *= factor
        return total
    term = total = 1.0
    for s in range(a - 1):
        term *= (b - a + s) * (s + 1 - a) / ((s + 1) * x)
        total += term
    for j in range(a, b):       # Gamma(b)/Gamma(a) x^{a-b}, no overflow
        total *= j / x
    return total


def composite_gain_cdf(y: float, k: int, z: float, rho: float, a_l: float) -> float:
    """CDF of h_l * h_p at y, for integer absorption shape k.

    With L = ln(a_l/y): F = Q(k, zL) + (zL)^k (G_{k+1} + rho L G_{k+2}),
    the absorption tail P(T >= L) plus P(T < L, W >= L - T).
    """
    if y <= 0.0:
        return 0.0
    if y >= a_l:
        return 1.0
    L = math.log(a_l / y)
    c, (g1, g2) = _kummer_terms(L, k, z, rho)
    return gammaincc(k, z * L) + c * (g1 + rho * L * g2)


def composite_gain_pdf(y: float, k: int, z: float, rho: float, a_l: float) -> float:
    """Density of h_l * h_p at y on (0, a_l): rho^2 L (zL)^k G_{k+2} / y,
    the density of T + W at L = ln(a_l/y) over the Jacobian y."""
    if y <= 0.0 or y >= a_l:
        return 0.0
    L = math.log(a_l / y)
    c, (_, g2) = _kummer_terms(L, k, z, rho)
    return rho ** 2 * L * (c * g2) / y


def cdf_snr_no_fading(query: OutageQuery, model: GammaAbsorption,
                      rho: float, link: ThzLinkParams) -> float:
    """P(SNR <= gamma_th) with fading disabled (h = h_l * h_p)."""
    k = model.integer_shape()
    z = model.z_for(link)
    if query.settled is not None:
        return query.settled
    return composite_gain_cdf(query.gamma_h, k, z, rho, link.a_l)


def pdf_snr_no_fading(query: OutageQuery, model: GammaAbsorption,
                      rho: float, link: ThzLinkParams) -> float:
    """SNR density with fading disabled; change of variables from the gain law."""
    k = model.integer_shape()
    z = model.z_for(link)
    if query.settled is not None:
        return 0.0
    gh = query.gamma_h
    shrink = 1.0 - query.gamma_th * query.k_h ** 2
    jac = 1.0 / (2.0 * query.gamma_bar * gh * shrink ** 2)
    return composite_gain_pdf(gh, k, z, rho, link.a_l) * jac


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

@dataclass(frozen=True)
class DelayEnergyReport:
    """Exact series value with its bracket and the scaling-law reference."""

    exact: float
    lower: float
    upper: float
    scaling_reference: float     # K log K, K e or (e-1) K at this K

    @property
    def bracketed(self) -> bool:
        return self.lower <= self.exact <= self.upper


def delay_report_ftp(K: int) -> DelayEnergyReport:
    lo, up = delay_bounds_ftp(K)
    return DelayEnergyReport(delay_ftp(K), lo, up, K * math.log(K))


def delay_report_atp(K: int) -> DelayEnergyReport:
    lo, up = delay_bounds_atp(K)
    return DelayEnergyReport(delay_atp(K), lo, up, K * math.e)


def energy_report_ftp(K: int) -> DelayEnergyReport:
    lo, up = energy_bounds_ftp(K)
    return DelayEnergyReport(energy_ftp(K), lo, up, (math.e - 1.0) * K)


def expected_delay_exact(K: int, p: float) -> float:
    """Expected slots to collect K packets with fixed per-user probability p.

    Stage with k packets left succeeds per slot w.p. k p (1-p)^(k-1); the
    stage lengths are geometric, so the total is the sum of their means.
    Returns inf for p = 1 with K >= 2 (permanent collision).
    """
    _check_kp(K, p)
    if p == 1.0:
        return 1.0 if K == 1 else math.inf
    k = np.arange(1, K + 1, dtype=float)
    return float(np.sum(1.0 / (k * p * (1.0 - p) ** (k - 1.0))))


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
    """Expected slots under the adaptive scheme (p reset to 1/k after success).

    Every ATP slot carries one transmission on average, so this is also
    the scheme's expected energy in transmissions.
    """
    if K < 1:
        raise DomainError("K >= 1")
    return float(_atp_terms(K).sum())


def _atp_terms(K: int) -> np.ndarray:
    # (k/(k-1))^(k-1) with the k=1 term defined as 1 (lone user, p=1)
    k = np.arange(2, K + 1, dtype=float)
    terms = np.exp((k - 1.0) * np.log(k / (k - 1.0)))
    return np.concatenate([[1.0], terms])


def delay_atp_prefix(K_max: int) -> np.ndarray:
    """delay_atp(K) for K = 1..K_max in one cumulative pass."""
    return np.cumsum(_atp_terms(K_max))


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

def expected_collisions_given_failure(k: int, p: float) -> float:
    """Expected colliding packets per failed slot: k p - k p (1-p)^(k-1)."""
    _check_kp(k, p, allow_zero_p=True)
    return k * p - k * p * (1.0 - p) ** (k - 1)


def expected_attempts_between_successes(k: int, p: float) -> float:
    """Expected slots between consecutive successes, 1/P_s; inf when P_s = 0."""
    _check_kp(k, p, allow_zero_p=True)
    ps = k * p * (1.0 - p) ** (k - 1)
    return math.inf if ps == 0.0 else 1.0 / ps


def energy_exact(K: int, p: float) -> float:
    """Expected transmissions (unit energy) to drain K packets at fixed p."""
    _check_kp(K, p)
    if p == 1.0:
        return 1.0 if K == 1 else math.inf
    k = np.arange(1, K + 1, dtype=float)
    return float(np.sum((1.0 - p) ** (-(k - 1.0))))


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


def harmonic(K: int) -> float:
    """K-th harmonic number, exact partial sum."""
    return float(np.sum(1.0 / np.arange(1, K + 1, dtype=float)))


def energy_gap_bounds(K: int) -> Tuple[float, float]:
    """Interval for the energy gap delay_atp(K) - energy_ftp(K), K >= 3."""
    if K < 3:
        raise DomainError("energy gap bounds need K >= 3")
    h_k = harmonic(K)
    lower = (math.e - 1.0) * h_k + K - math.e * (K - 1) ** 2 / (K - 2) - 1.0
    upper = K * math.e - 1.5 * K + 0.5 / K + 1.0
    return lower, upper


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


def _check_kp(K, p, allow_zero_p=False):
    if K < 1 or int(K) != K:
        raise DomainError("user count must be a positive integer")
    lo_ok = (p >= 0.0) if allow_zero_p else (p > 0.0)
    if not (lo_ok and p <= 1.0):
        raise DomainError(f"transmission probability out of range: {p!r}")
