"""Parameter validation, derived constants, and the config digest."""
import math

import pytest

from thzra import cli
from thzra.errors import MissingField, NonIntegerShape, OutOfRange
from thzra.params import (EnergyModel, FadingParams, GammaAbsorption,
                          MisalignmentParams, ProtocolConfig, ThzLinkParams,
                          run_config, validate_config)

BASE = {
    "link.f_hz": "300e9",
    "link.d_m": "100",
    "link.gain_tx": "316227.766",
    "link.gain_rx": "316227.766",
    "link.k_t": "0.1",
    "link.k_r": "0.1",
    "link.avg_snr_db": "45",
    "absorption.model": "gamma",
    "absorption.k_shape": "3",
    "absorption.kbeta_db_per_km": "30",
    "misalignment.rho": "4.0",
}


def make_link(**kw):
    args = dict(f_hz=300e9, d_m=100.0, gain_tx=1e5, gain_rx=1e5)
    args.update(kw)
    return ThzLinkParams(**args)


def test_k_h_definition():
    link = make_link(k_t=0.1, k_r=0.1)
    assert link.k_h == pytest.approx(math.sqrt(0.02), rel=1e-15)
    assert link.k_h == pytest.approx(0.1414, abs=5e-5)


def test_impairment_out_of_range():
    with pytest.raises(OutOfRange):
        make_link(k_t=0.5)
    with pytest.raises(OutOfRange):
        make_link(k_r=-0.01)


def test_z_derivation():
    model = GammaAbsorption(k=2, beta=1)
    link = make_link(d_m=1000.0)
    assert model.z_for(link) == pytest.approx(8.686, rel=1e-12)


def test_non_integer_shape_rejected():
    with pytest.raises(NonIntegerShape):
        GammaAbsorption(k=2.5, beta=1).integer_shape()
    assert GammaAbsorption(k=3.0, beta=1).integer_shape() == 3


def test_a_l_monotone_and_exact_halving():
    base = make_link()
    for f_mult in (1.5, 2.0, 5.0):
        assert make_link(f_hz=300e9 * f_mult).a_l < base.a_l
    for d in (50.0, 100.0, 173.3):
        one = make_link(d_m=d)
        two = make_link(d_m=2 * d)
        assert two.a_l == one.a_l / 2  # doubling d halves a_l exactly


def test_snr_ceiling():
    assert make_link(k_t=0.0, k_r=0.0).snr_ceiling == math.inf
    link = make_link(k_t=0.1, k_r=0.1)
    assert link.snr_ceiling == pytest.approx(1.0 / 0.02)


def test_validate_config_happy_path():
    exp = validate_config(BASE)
    assert exp.link.k_h == pytest.approx(math.sqrt(0.02))
    assert exp.absorption.beta == pytest.approx(10.0)
    assert exp.absorption.z_for(exp.link) == pytest.approx(8.686)
    assert exp.link.avg_snr == pytest.approx(10 ** 4.5)
    assert exp.protocol.scheme == "atp"


def test_missing_field_names_the_key():
    raw = dict(BASE)
    del raw["link.f_hz"]
    with pytest.raises(MissingField) as exc:
        validate_config(raw)
    assert "link.f_hz" in str(exc.value)


def test_out_of_range_names_field_and_bound():
    raw = dict(BASE, **{"link.k_t": "0.5"})
    with pytest.raises(OutOfRange) as exc:
        validate_config(raw)
    assert "k_t" in str(exc.value)
    assert "0.4" in str(exc.value)


def test_humidity_bounds():
    with pytest.raises(OutOfRange):
        validate_config(dict(BASE, **{"link.humidity_pct": "120"}))


def test_config_digest_keys_resolved_values_not_spelling():
    def digest(**kw):
        raw = {k: v for k, v in dict(BASE, **kw).items() if v is not None}
        return cli._digest(run_config(raw))

    base = digest()
    for key, value in [("absorption.kbeta_db_per_km", "30.0"),
                       ("link.avg_snr_db", "4.5e1"),
                       ("protocol.seed", "1"),
                       ("protocol.gamma_qos_db", "-inf")]:
        assert digest(**{key: value}) == base, key
    for key, value in [("protocol.seed", "2"), ("protocol.trials", "4999"),
                       ("outage.gamma_th_db", "15")]:
        assert digest(**{key: value}) != base, key


def test_misalignment_rho_must_be_positive():
    assert MisalignmentParams(rho=0.5).rho == 0.5
    with pytest.raises(OutOfRange):
        MisalignmentParams(rho=0.0)


def test_protocol_invariants():
    with pytest.raises(OutOfRange):
        ProtocolConfig(n_total=0)
    with pytest.raises(OutOfRange):
        ProtocolConfig(trials=0)
    with pytest.raises(OutOfRange):
        ProtocolConfig(scheme="csma")
    with pytest.raises(OutOfRange):
        EnergyModel(e_tx_uj=-1.0)


def test_qos_threshold_in_db_maps_infinities():
    # +inf dB is a threshold no SNR reaches (nobody admitted), -inf dB is 0
    for db, linear in (("inf", math.inf), ("-inf", 0.0)):
        exp = validate_config(dict(BASE, **{"protocol.gamma_qos_db": db}))
        assert exp.protocol.gamma_qos == linear


def test_fading_invariants():
    with pytest.raises(OutOfRange):
        FadingParams(alpha=0.0)
    with pytest.raises(OutOfRange):
        FadingParams(kappa=-0.1)
    # a non-integer mu is samplable only in the alpha-mu subfamily
    FadingParams(mu=1.5)
    for kw in ({"eta": 2.0}, {"kappa": 0.5}):
        with pytest.raises(OutOfRange) as exc:
            FadingParams(mu=1.5, **kw)
        assert exc.value.field == "fading.mu"
    # disabled fading skips numeric checks entirely
    FadingParams(alpha=0.0, enabled=False)
    FadingParams(mu=1.5, eta=2.0, enabled=False)


def test_deterministic_absorption_config():
    # the gamma model's keys are not read under this model, so they go
    raw = {k: v for k, v in BASE.items()
           if k not in ("absorption.k_shape", "absorption.kbeta_db_per_km")}
    raw["absorption.model"] = "deterministic"
    for i, v in enumerate([0.2205, 0.1303, 0.0294, 0.4093, 0.0925,
                           2.014, 0.1702, 0.0303, 0.537, 0.0956], 1):
        raw[f"absorption.q{i}"] = str(v)
    raw.update({"absorption.p1": "10.835", "absorption.p2": "12.664",
                "absorption.c1": "5.54e-37", "absorption.c2": "-3.94e-25",
                "absorption.c3": "9.06e-14", "absorption.c4": "-6.36e-3"})
    exp = validate_config(raw)
    assert exp.absorption.p1 == 10.835
    assert len(exp.absorption.q) == 10
