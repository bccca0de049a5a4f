"""Parameter types, invariants, and derived constants.

Everything is validated once and frozen; derived constants (k_h, a_l, z)
are recomputed from the raw fields, never stored by the caller.  All
angles/gains/SNRs are linear internally; dB only appears in the config,
which run_config parses and checks in full before any command runs.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import List, Mapping

from .errors import ConfigError, MissingField, NonIntegerShape, OutOfRange

C_LIGHT = 299_792_458.0          # m/s
HPA_PER_ATM = 1013.25
DB_PER_NEPER = 8.686             # 2 * 4.343, power-dB per amplitude-neper
K_IMPAIRMENT_MAX = 0.4           # typical transceiver impairment ceiling


@dataclass(frozen=True)
class ThzLinkParams:
    """Deployment physics of a single THz link."""

    f_hz: float                  # carrier frequency
    d_m: float                   # link distance
    gain_tx: float               # linear antenna gain
    gain_rx: float               # linear antenna gain
    temperature_k: float = 296.0
    humidity_pct: float = 50.0   # relative humidity, 0..100
    pressure_hpa: float = HPA_PER_ATM
    k_t: float = 0.0             # transmit hardware impairment level
    k_r: float = 0.0             # receive hardware impairment level
    avg_snr: float = 1.0         # mean SNR gamma_bar, linear

    def __post_init__(self):
        _require_pos("link.f_hz", self.f_hz)
        _require_pos("link.d_m", self.d_m)
        _require_pos("link.gain_tx", self.gain_tx)
        _require_pos("link.gain_rx", self.gain_rx)
        _require_range("link.k_t", self.k_t, 0.0, K_IMPAIRMENT_MAX)
        _require_range("link.k_r", self.k_r, 0.0, K_IMPAIRMENT_MAX)
        _require_range("link.humidity_pct", self.humidity_pct, 0.0, 100.0)
        _require_nonneg("link.avg_snr", self.avg_snr)
        _require_pos("link.pressure", self.pressure_hpa)

    @property
    def k_h(self) -> float:
        """Aggregate impairment sqrt(k_t^2 + k_r^2); imposes SNR ceiling 1/k_h^2."""
        return math.sqrt(self.k_t ** 2 + self.k_r ** 2)

    @property
    def a_l(self) -> float:
        """Antenna/spreading amplitude c*sqrt(Gt*Gr)/(4 pi f d)."""
        return (C_LIGHT * math.sqrt(self.gain_tx * self.gain_rx)
                / (4.0 * math.pi * self.f_hz * self.d_m))

    @property
    def d_km(self) -> float:
        return self.d_m / 1000.0

    @property
    def snr_ceiling(self) -> float:
        """Largest attainable instantaneous SNR, 1/k_h^2 (inf when ideal)."""
        kh = self.k_h
        return math.inf if kh == 0.0 else 1.0 / kh ** 2


@dataclass(frozen=True)
class GammaAbsorption:
    """Random molecular absorption: zeta_dB ~ Gamma(k, beta), in dB/km."""

    k: float                     # shape (integer required by closed forms only)
    beta: float                  # scale, dB/km per unit shape

    def __post_init__(self):
        _require_pos("absorption.k_shape", self.k)
        _require_pos("absorption.beta", self.beta)

    def z_for(self, link: ThzLinkParams) -> float:
        """Path-gain exponent z = 8.686/(beta * d_km) for a given link."""
        return DB_PER_NEPER / (self.beta * link.d_km)

    def integer_shape(self) -> int:
        """Shape as int, rejecting non-integer k (closed-form paths only)."""
        k_int = round(self.k)
        if abs(self.k - k_int) > 1e-12 or k_int < 1:
            raise NonIntegerShape(self.k)
        return int(k_int)


@dataclass(frozen=True)
class DeterministicAbsorption:
    """Fixed coefficient profile for the two-resonance + cubic-tail model."""

    q: tuple                     # q1..q10
    p1: float                    # resonance wavenumber, 1/cm
    p2: float
    c: tuple                     # c1..c4 polynomial tail, powers of f descending

    def __post_init__(self):
        if len(self.q) != 10:
            raise OutOfRange("absorption.profile", len(self.q), "10 q-coefficients")
        if len(self.c) != 4:
            raise OutOfRange("absorption.profile", len(self.c), "4 c-coefficients")


@dataclass(frozen=True)
class FadingParams:
    """alpha-eta-kappa-mu short-term fading parameters."""

    alpha: float = 2.0           # medium nonlinearity
    eta: float = 1.0             # in-phase/quadrature scattered power ratio
    kappa: float = 0.0           # dominant-to-scattered power ratio
    mu: float = 1.0              # multipath cluster count
    r_hat: float = 1.0           # rms envelope, E[hf^alpha] = r_hat^alpha
    enabled: bool = True

    def __post_init__(self):
        if self.enabled:
            _require_pos("fading.alpha", self.alpha)
            _require_pos("fading.eta", self.eta)
            _require_nonneg("fading.kappa", self.kappa)
            _require_pos("fading.mu", self.mu)
            _require_pos("fading.r_hat", self.r_hat)
            if not (self.mu_is_integer or self.is_alpha_mu):
                raise OutOfRange("fading.mu", self.mu,
                                 "an integer mu unless eta = 1 and kappa = 0")

    @property
    def mu_is_integer(self) -> bool:
        return abs(self.mu - round(self.mu)) <= 1e-12 and self.mu >= 1

    @property
    def is_alpha_mu(self) -> bool:
        """The alpha-mu subfamily (eta = 1, kappa = 0): the normalized
        fading power mu h_f^alpha / r_hat^alpha is Gamma(mu) for any real
        mu."""
        return self.eta == 1.0 and self.kappa == 0.0


@dataclass(frozen=True)
class MisalignmentParams:
    """Pointing-error severity; rho = sqrt(beamwidth^2 / angle-variance)."""

    rho: float

    def __post_init__(self):
        _require_pos("misalignment.rho", self.rho)


SCHEMES = ("ftp", "atp", "optimal")


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy in uJ; unit energy is the transmission count."""

    e_tx_uj: float = 1200.0      # per data-packet transmission
    e_ack_uj: float = 120.0      # per successful (ACK'd) slot
    e_idle_uj: float = 40.0      # per holder idling in a slot

    def __post_init__(self):
        for name in ("e_tx_uj", "e_ack_uj", "e_idle_uj"):
            _require_nonneg(f"protocol.{name}", getattr(self, name))


@dataclass(frozen=True)
class ProtocolConfig:
    scheme: str = "atp"          # ftp | atp | optimal
    n_total: int = 10            # provisioned users N
    gamma_qos: float = 0.0       # admission SNR threshold, linear
    energy: EnergyModel = field(default_factory=EnergyModel)
    trials: int = 5000
    seed: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise OutOfRange("protocol.scheme", self.scheme, f"one of {SCHEMES}")
        if self.n_total < 1:
            raise OutOfRange("protocol.n_users", self.n_total, "n_users >= 1")
        if self.trials < 1:
            raise OutOfRange("protocol.trials", self.trials, "trials >= 1")
        _require_nonneg("protocol.gamma_qos", self.gamma_qos)


@dataclass(frozen=True)
class Experiment:
    """Validated bundle of one experiment's parameters."""

    link: ThzLinkParams
    absorption: object           # GammaAbsorption | DeterministicAbsorption
    fading: FadingParams
    misalignment: MisalignmentParams
    protocol: ProtocolConfig

    def with_protocol(self, **kw) -> "Experiment":
        return replace(self, protocol=replace(self.protocol, **kw))


def _require_pos(name, value):
    if not (value > 0):
        raise OutOfRange(name, value, f"{name.split('.')[-1]} > 0")


def _require_nonneg(name, value):
    if not (value >= 0):
        raise OutOfRange(name, value, f"{name.split('.')[-1]} >= 0")


def _require_range(name, value, lo, hi):
    if not (lo <= value <= hi):
        raise OutOfRange(name, value, f"{lo} <= {name.split('.')[-1]} <= {hi}")


def _get(raw: Mapping[str, str], key: str, default=None, required=False):
    if key in raw and str(raw[key]).strip() != "":
        return str(raw[key]).strip()
    if required:
        raise MissingField(key)
    return default


def parse_count(text: str) -> int:
    """Integer that may be written as a float literal: '5000' or '1e5'."""
    return int(float(text))


def parse_int_list(text: str) -> List[int]:
    """Comma list with optional a:b inclusive ranges: '2,5,10' or '1:10'."""
    out: List[int] = []
    for tok in str(text).split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok:
            a, b = tok.split(":", 1)
            out.extend(range(int(float(a)), int(float(b)) + 1))
        else:
            out.append(int(float(tok)))
    return _nonempty(out)


def parse_float_list(text: str) -> List[float]:
    return _nonempty([float(t) for t in str(text).split(",") if t.strip()])


def parse_str_list(text: str) -> List[str]:
    return _nonempty([t.strip().lower() for t in str(text).split(",")
                      if t.strip()])


def _nonempty(items: list) -> list:
    if not items:
        raise ValueError("empty list")
    return items


_EXPECTED = {float: "a number", int: "an integer", parse_count: "a count",
             parse_int_list: "a comma list of integers or a:b ranges",
             parse_float_list: "a comma list of numbers",
             parse_str_list: "a comma list of names"}


def read_value(raw: Mapping[str, str], key: str, parse, default=None):
    """raw[key] through parse, or default when the key is absent or blank.

    A value that parse rejects raises OutOfRange naming the key, so a
    malformed input ends in a config error (CLI exit 2), not a traceback.
    """
    s = _get(raw, key)
    if s is None:
        return default
    try:
        return parse(s)
    except (ValueError, OverflowError) as exc:
        raise OutOfRange(key, s, _EXPECTED[parse]) from exc


def _get_float(raw, key, default=None, required=False):
    _get(raw, key, required=required)
    return read_value(raw, key, float, default)


def _float_fields(raw, section: str, cls, *skip: str) -> dict:
    """section.<name> for each float field of cls not in skip; a field
    without a default is required, the others default as in cls."""
    return {f.name: _get_float(raw, f"{section}.{f.name}",
                               None if f.default is MISSING else f.default,
                               required=f.default is MISSING)
            for f in fields(cls) if f.type == "float" and f.name not in skip}


def _get_bool(raw, key, default=False):
    s = _get(raw, key)
    if s is None:
        return default
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise OutOfRange(key, s, "a boolean")


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _experiment(raw: Mapping[str, str], scheme: str, n_total: int) -> Experiment:
    """Build a validated Experiment from a flat 'section.key' -> string map.

    Pressure is in hPa.  SNRs come in as dB and leave as linear.
    """
    link = ThzLinkParams(
        pressure_hpa=_get_float(raw, "link.pressure", HPA_PER_ATM),
        avg_snr=_db_to_linear(_get_float(raw, "link.avg_snr_db", 0.0)),
        **_float_fields(raw, "link", ThzLinkParams, "pressure_hpa", "avg_snr"))

    model = _get(raw, "absorption.model", "gamma").lower()
    if model == "gamma":
        k_shape = _get_float(raw, "absorption.k_shape", required=True)
        kbeta = _get_float(raw, "absorption.kbeta_db_per_km", required=True)
        _require_pos("absorption.k_shape", k_shape)
        _require_pos("absorption.kbeta_db_per_km", kbeta)
        absorption = GammaAbsorption(k=k_shape, beta=kbeta / k_shape)
    elif model == "deterministic":
        q = tuple(_get_float(raw, f"absorption.q{i}", required=True)
                  for i in range(1, 11))
        c = tuple(_get_float(raw, f"absorption.c{i}", required=True)
                  for i in range(1, 5))
        absorption = DeterministicAbsorption(
            q=q, c=c,
            p1=_get_float(raw, "absorption.p1", required=True),
            p2=_get_float(raw, "absorption.p2", required=True))
    else:
        raise OutOfRange("absorption.model", model, "gamma | deterministic")

    fading = FadingParams(enabled=_get_bool(raw, "fading.enabled", True),
                          **_float_fields(raw, "fading", FadingParams))
    mis = MisalignmentParams(
        rho=_get_float(raw, "misalignment.rho", required=True))
    protocol = ProtocolConfig(
        scheme=scheme, n_total=n_total,
        gamma_qos=_db_to_linear(_get_float(raw, "protocol.gamma_qos_db",
                                           -math.inf)),
        energy=EnergyModel(**_float_fields(raw, "protocol", EnergyModel)),
        trials=read_value(raw, "protocol.trials", parse_count, 5000),
        seed=read_value(raw, "protocol.seed", parse_count, 1))

    return Experiment(link=link, absorption=absorption, fading=fading,
                      misalignment=mis, protocol=protocol)


MIN_GOF_SAMPLES = 1000           # smallest sample a goodness-of-fit test accepts
SWEEP_METRICS = ("protocol", "outage")
SWEEP_AXES = {"k_users": parse_int_list, "gamma_bar_db": parse_float_list,
              "kbeta_db_per_km": parse_float_list, "rho": parse_float_list,
              "alpha": parse_float_list, "mu": parse_float_list,
              "k_h": parse_float_list}


def apply_cell(exp: Experiment, cell: Mapping[str, float]) -> Experiment:
    """The experiment with the sweep axis values of one cell applied."""
    link, fading, mis = exp.link, exp.fading, exp.misalignment
    absorption, prot = exp.absorption, exp.protocol
    if "gamma_bar_db" in cell:
        link = replace(link, avg_snr=_db_to_linear(cell["gamma_bar_db"]))
    if "k_h" in cell:
        kh = cell["k_h"]
        link = replace(link, k_t=kh / math.sqrt(2.0), k_r=kh / math.sqrt(2.0))
    if "kbeta_db_per_km" in cell:
        if not isinstance(absorption, GammaAbsorption):
            raise OutOfRange("sweep.kbeta_db_per_km", cell["kbeta_db_per_km"],
                             "absorption.model = gamma")
        absorption = replace(absorption, beta=cell["kbeta_db_per_km"] / absorption.k)
    if "rho" in cell:
        mis = replace(mis, rho=cell["rho"])
    fading = replace(fading, **{k: cell[k] for k in ("alpha", "mu") if k in cell})
    if "k_users" in cell:
        prot = replace(prot, n_total=int(cell["k_users"]))
    return Experiment(link=link, absorption=absorption, fading=fading,
                      misalignment=mis, protocol=prot)


@dataclass(frozen=True)
class RunConfig:
    """Every value the commands use, parsed and checked once by run_config."""

    exp: Experiment              # protocol holds the first scheme and K
    schemes: tuple               # protocol.scheme
    k_users: tuple               # protocol.n_users (simulate)
    analyze_k: tuple             # analyze.k_users, else protocol.n_users
    outage_grid_db: tuple        # outage.gamma_bar_db (analyze)
    gamma_th: float              # outage.gamma_th_db, linear
    gof_samples: int             # validation.n_samples
    val_trials: int              # validation.trials
    val_k_users: tuple           # validation.k_users
    val_grid_db: tuple           # validation.gamma_bar_db
    val_outage_draws: int        # validation.outage_draws
    sweep_axes: dict             # axis name -> values, for the axes given
    sweep_metrics: tuple         # sweep.metrics
    sweep_outage_draws: int      # sweep.outage_draws


def _checked(key: str, value, check):
    """check(key, v) for each entry of value; a failed check names key."""
    for v in value if isinstance(value, list) else [value]:
        try:
            if check is not None:
                check(key, v)
        except OutOfRange as exc:
            raise OutOfRange(key, v, exc.bound) from exc
    return tuple(value) if isinstance(value, list) else value


def _metric(key, name):
    if name not in SWEEP_METRICS:
        raise OutOfRange(key, name, " | ".join(SWEEP_METRICS))


# Read by no code since both energy units became always written, yet
# accepted: the README promises that configs still setting it run
# unchanged, and perfbench's admission workload writes it, so rejecting
# it would make that workload exit 2.
UNREAD_BUT_ACCEPTED = frozenset({"protocol.energy_model"})


class _LookedUp(dict):
    """A copy of a config map that notes every key looked up in it."""

    def __init__(self, raw: Mapping[str, str]):
        super().__init__(raw)
        self.keys_read = set()

    def __contains__(self, key):
        self.keys_read.add(key)
        return super().__contains__(key)


def run_config(raw: Mapping[str, str]) -> RunConfig:
    """Parse and check every config key, before any command runs.

    Each list entry and sweep axis value is checked by building the
    Experiment it would run; a failure names the key it was written under.
    A key that nothing read (a misspelling, an unknown section, a key of
    an absorption model not in use) is an error too.
    """
    raw = _LookedUp(raw)
    schemes = read_value(raw, "protocol.scheme", parse_str_list, ["atp"])
    n_users = read_value(raw, "protocol.n_users", parse_int_list)
    exp = _experiment(raw, schemes[0], (n_users or [10])[0])

    def read(key, parse, default, check=None):
        value = read_value(raw, key, parse, default)
        return None if value is None else _checked(key, value, check)

    def users(key, k):
        exp.with_protocol(n_total=k)

    def axis(key, v):
        apply_cell(exp, {key.split(".", 1)[1]: v})

    def gamma_bar(key, db):     # an average SNR in dB: NaN and -inf fail
        _require_pos("gamma_bar", _db_to_linear(db))

    axes = {name: read(f"sweep.{name}", parse, None, axis)
            for name, parse in SWEEP_AXES.items()}
    cfg = RunConfig(
        exp=exp,
        schemes=_checked("protocol.scheme", schemes,
                         lambda key, s: exp.with_protocol(scheme=s)),
        k_users=_checked("protocol.n_users", n_users or [10], users),
        analyze_k=read("analyze.k_users", parse_int_list,
                       n_users or [2, 5, 10, 20, 40], users),
        outage_grid_db=read("outage.gamma_bar_db", parse_float_list,
                            [25.0, 27.0, 29.0, 31.0, 33.0, 35.0, 37.0, 39.0,
                             41.0, 43.0], gamma_bar),
        gamma_th=_db_to_linear(read(
            "outage.gamma_th_db", float, 5.0,
            lambda key, db: _require_nonneg("outage.gamma_th", _db_to_linear(db)))),
        gof_samples=read("validation.n_samples", parse_count, 100000,
                         lambda key, n: _require_range(key, n, MIN_GOF_SAMPLES,
                                                       math.inf)),
        val_trials=read("validation.trials", parse_count, 5000,
                        lambda key, t: exp.with_protocol(trials=t)),
        val_k_users=read("validation.k_users", parse_int_list,
                         [2, 5, 10, 20, 40], users),
        val_grid_db=read("validation.gamma_bar_db", parse_float_list,
                         [25.0, 29.0, 33.0, 37.0, 41.0], gamma_bar),
        val_outage_draws=read("validation.outage_draws", parse_count, 200000,
                              _require_pos),
        sweep_axes={name: v for name, v in axes.items() if v is not None},
        sweep_metrics=read("sweep.metrics", parse_str_list, ["protocol"], _metric),
        sweep_outage_draws=read("sweep.outage_draws", parse_count, 200000,
                                _require_pos))
    unread = raw.keys() - raw.keys_read - UNREAD_BUT_ACCEPTED
    if unread:
        key = next(key for key in raw if key in unread)
        raise ConfigError(f"config field '{key}' is read by no command with "
                          "this config: misspelled, or not in use")
    return cfg


def validate_config(raw: Mapping[str, str]) -> Experiment:
    """The validated Experiment of a flat 'section.key' -> string map."""
    return run_config(raw).exp
