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

from .errors import ConfigError, MissingField, OutOfRange

C_LIGHT = 299_792_458.0          # m/s
HPA_PER_ATM = 1013.25
DB_PER_NEPER = 8.686             # 2 * 4.343, power-dB per amplitude-neper
K_IMPAIRMENT_MAX = 0.4           # typical transceiver impairment ceiling
BUCK_T_MIN_K = 200.0             # validity range of Buck's equation
BUCK_T_MAX_K = 350.0


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
        _require_pos("link.avg_snr", self.avg_snr)
        _require_pos("link.pressure", self.pressure_hpa)
        if not (BUCK_T_MIN_K < self.temperature_k < BUCK_T_MAX_K):
            raise OutOfRange("link.temperature_k", self.temperature_k,
                             f"{BUCK_T_MIN_K} K < T < {BUCK_T_MAX_K} K")

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

    k: float                     # shape, any real k > 0
    beta: float                  # scale, dB/km per unit shape

    def __post_init__(self):
        _require_pos("absorption.k_shape", self.k)
        _require_pos("absorption.beta", self.beta)

    def z_for(self, link: ThzLinkParams) -> float:
        """Path-gain exponent z = 8.686/(beta * d_km) for a given link."""
        return DB_PER_NEPER / (self.beta * link.d_km)


@dataclass(frozen=True)
class DeterministicAbsorption:
    """Two water-vapor resonances plus a cubic tail in f; the defaults are a
    simplified 275-400 GHz profile, configuration rather than ground truth.

    p1, p2 are resonance wavenumbers in 1/cm; q1..q10 shape the resonance
    terms in the mixing ratio v; c1..c4 are the tail's coefficients of
    f^3..f^0 with f in Hz.  The coefficient it yields is in 1/m.
    """

    q1: float = 0.2205
    q2: float = 0.1303
    q3: float = 0.0294
    q4: float = 0.4093
    q5: float = 0.0925
    q6: float = 2.014
    q7: float = 0.1702
    q8: float = 0.0303
    q9: float = 0.537
    q10: float = 0.0956
    p1: float = 10.835
    p2: float = 12.664
    c1: float = 5.54e-37
    c2: float = -3.94e-25
    c3: float = 9.06e-14
    c4: float = -6.36e-3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise OutOfRange(f"absorption.{f.name}", value,
                                 "a finite coefficient")


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
        # checked when disabled too: validate's alpha-mu suite enables them
        _require_pos("fading.alpha", self.alpha)
        _require_pos("fading.eta", self.eta)
        _require_nonneg("fading.kappa", self.kappa)
        _require_pos("fading.mu", self.mu)
        _require_pos("fading.r_hat", self.r_hat)

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
        _require_nonneg("protocol.seed", self.seed)
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


def parse_count(text: str) -> int:
    """Whole number, possibly written as a float literal: '5000' or '1e5'."""
    value = float(text)
    if not value.is_integer():
        raise ValueError(f"{text!r} is not a whole number")
    return int(value)


def parse_int_list(text: str) -> List[int]:
    """Comma list with optional a:b inclusive ranges: '2,5,10' or '1:10'."""
    out: List[int] = []
    for tok in str(text).split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok:
            a, b = tok.split(":", 1)
            out.extend(range(parse_count(a), parse_count(b) + 1))
        else:
            out.append(parse_count(tok))
    return _nonempty(out)


def parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{text!r} is not a boolean")


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
             parse_bool: "a boolean",
             parse_int_list: "a comma list of integers or a:b ranges",
             parse_float_list: "a comma list of numbers",
             parse_str_list: "a comma list of names"}


def read_value(raw: Mapping[str, str], key: str, parse, default=None,
               required=False):
    """raw[key] through parse, or default when the key is absent or blank
    (MissingField if it is required).

    A value that parse rejects raises OutOfRange naming the key, so a
    malformed input ends in a config error (CLI exit 2), not a traceback.
    """
    text = str(raw[key]).strip() if key in raw else ""
    if not text:
        if required:
            raise MissingField(key)
        return default
    try:
        return parse(text)
    except (ValueError, OverflowError) as exc:
        raise OutOfRange(key, text, _EXPECTED[parse]) from exc


def _float_fields(raw, section: str, cls, *skip: str) -> dict:
    """section.<name> for each float field of cls not in skip; a field
    without a default is required, the others default as in cls."""
    return {f.name: read_value(raw, f"{section}.{f.name}", float,
                               None if f.default is MISSING else f.default,
                               required=f.default is MISSING)
            for f in fields(cls) if f.type == "float" and f.name not in skip}


def db_to_linear(db: float) -> float:
    """Decibels to a linear power ratio."""
    return 10.0 ** (db / 10.0)


def _as_key(key: str, value, build):
    """build(value); a check that fails in it names key and value instead."""
    try:
        return build(value)
    except OutOfRange as exc:
        raise OutOfRange(key, value, exc.bound) from exc


def _experiment(raw: Mapping[str, str], scheme: str, n_total: int) -> Experiment:
    """Build a validated Experiment from a flat 'section.key' -> string map.

    Pressure is in hPa.  SNRs come in as dB and leave as linear; a check
    of the linear value names the dB key and the dB value.
    """
    link = ThzLinkParams(
        pressure_hpa=read_value(raw, "link.pressure", float, HPA_PER_ATM),
        **_float_fields(raw, "link", ThzLinkParams, "pressure_hpa", "avg_snr"))
    link = _as_key("link.avg_snr_db",
                   read_value(raw, "link.avg_snr_db", float, 0.0),
                   lambda db: replace(link, avg_snr=db_to_linear(db)))

    model = read_value(raw, "absorption.model", str.lower, "gamma")
    if model == "gamma":
        k_shape = read_value(raw, "absorption.k_shape", float, required=True)
        kbeta = read_value(raw, "absorption.kbeta_db_per_km", float,
                           required=True)
        _require_pos("absorption.k_shape", k_shape)
        _require_pos("absorption.kbeta_db_per_km", kbeta)
        absorption = GammaAbsorption(k=k_shape, beta=kbeta / k_shape)
    elif model == "deterministic":
        absorption = DeterministicAbsorption(
            **_float_fields(raw, "absorption", DeterministicAbsorption))
    else:
        raise OutOfRange("absorption.model", model, "gamma | deterministic")

    fading = FadingParams(
        enabled=read_value(raw, "fading.enabled", parse_bool, True),
        **_float_fields(raw, "fading", FadingParams))
    mis = MisalignmentParams(**_float_fields(raw, "misalignment",
                                             MisalignmentParams))
    protocol = ProtocolConfig(
        scheme=scheme, n_total=n_total,
        energy=EnergyModel(**_float_fields(raw, "protocol", EnergyModel)),
        trials=read_value(raw, "protocol.trials", parse_count, 5000),
        seed=read_value(raw, "protocol.seed", parse_count, 1))
    protocol = _as_key(
        "protocol.gamma_qos_db",
        read_value(raw, "protocol.gamma_qos_db", float, -math.inf),
        lambda db: replace(protocol, gamma_qos=db_to_linear(db)))

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
        link = replace(link, avg_snr=db_to_linear(cell["gamma_bar_db"]))
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
    k_users: tuple               # protocol.n_users (simulate, analyze)
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
        _as_key(key, v, lambda v: check(key, v))
    return tuple(value) if isinstance(value, list) else value


def _distinct(values) -> tuple:
    """values without repeats, each first occurrence kept in place: a
    repeated grid point or sweep axis value is one point, one cell."""
    return tuple(dict.fromkeys(values))


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
    n_users = read_value(raw, "protocol.n_users", parse_int_list, [10])
    exp = _experiment(raw, schemes[0], n_users[0])

    def read(key, parse, default, check):
        value = read_value(raw, key, parse, default)
        return None if value is None else _checked(key, value, check)

    def users(key, k):
        exp.with_protocol(n_total=k)

    def cell(key, v):           # a sweep axis value or a gamma_bar_db entry
        apply_cell(exp, {key.split(".", 1)[1]: v})

    axes = {name: read(f"sweep.{name}", parse, None, cell)
            for name, parse in SWEEP_AXES.items()}
    cfg = RunConfig(
        exp=exp,
        schemes=_distinct(_checked("protocol.scheme", schemes,
                                   lambda key, s: exp.with_protocol(scheme=s))),
        k_users=_distinct(_checked("protocol.n_users", n_users, users)),
        outage_grid_db=_distinct(read(
            "outage.gamma_bar_db", parse_float_list,
            [25.0, 27.0, 29.0, 31.0, 33.0, 35.0, 37.0, 39.0, 41.0, 43.0], cell)),
        gamma_th=db_to_linear(read(
            "outage.gamma_th_db", float, 5.0,
            lambda key, db: _require_nonneg("outage.gamma_th", db_to_linear(db)))),
        gof_samples=read("validation.n_samples", parse_count, 100000,
                         lambda key, n: _require_range(key, n, MIN_GOF_SAMPLES,
                                                       math.inf)),
        val_trials=read("validation.trials", parse_count, 5000,
                        lambda key, t: exp.with_protocol(trials=t)),
        val_k_users=_distinct(read("validation.k_users", parse_int_list,
                                   [2, 5, 10, 20, 40], users)),
        val_grid_db=_distinct(read("validation.gamma_bar_db", parse_float_list,
                                   [25.0, 29.0, 33.0, 37.0, 41.0], cell)),
        val_outage_draws=read("validation.outage_draws", parse_count, 200000,
                              _require_pos),
        sweep_axes={name: _distinct(v) for name, v in axes.items()
                    if v is not None},
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
