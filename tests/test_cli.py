"""End-to-end command tests: exit codes, CSV schemas, determinism, resume."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thzra import analytics, channel, cli, params, protocol, validation

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
DEFAULT_CFG = CONFIG_DIR / "default.cfg"
SWEEP_CFG = CONFIG_DIR / "sweep_outage.cfg"


def write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# the deterministic absorption coefficients as the package ships them
SHIPPED_COEFFICIENTS = (
    "q1 = 0.2205\nq2 = 0.1303\nq3 = 0.0294\nq4 = 0.4093\nq5 = 0.0925\n"
    "q6 = 2.014\nq7 = 0.1702\nq8 = 0.0303\nq9 = 0.537\nq10 = 0.0956\n"
    "p1 = 10.835\np2 = 12.664\n"
    "c1 = 5.54e-37\nc2 = -3.94e-25\nc3 = 9.06e-14\nc4 = -6.36e-3\n")


def deterministic_text(coefficients=""):
    """default.cfg with deterministic absorption and the given keys."""
    text = DEFAULT_CFG.read_text()
    gamma = text[text.index("model = gamma"):text.index("[fading]")]
    return text.replace(gamma, f"model = deterministic\n{coefficients}\n")


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("#schema: ")
    header = lines[1].split(",")
    return lines[0], header, [ln.split(",") for ln in lines[2:]]


def test_missing_config_exit_2(tmp_path):
    code = cli.main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
    assert code == 2


def test_bad_field_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "bad.cfg", "[link]\nf_hz = 300e9\n")
    code = cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("command,base,old,new,key", [
    ("analyze", DEFAULT_CFG, "gamma_th_db = 5", "gamma_th_db = five",
     "outage.gamma_th_db"),
    ("simulate", DEFAULT_CFG, "n_users = 2,5,10,20,40", "n_users = 2,abc",
     "protocol.n_users"),
    ("analyze", DEFAULT_CFG, "n_users = 2,5,10,20,40", "n_users = 2,abc",
     "protocol.n_users"),
    ("simulate", DEFAULT_CFG, "scheme = ftp,atp,optimal", "scheme = ,",
     "protocol.scheme"),
    ("validate", DEFAULT_CFG, "n_samples = 100000", "n_samples = many",
     "validation.n_samples"),
    ("sweep", SWEEP_CFG, "rho = 2,4.1", "rho = 2,x", "sweep.rho"),
    ("sweep", SWEEP_CFG, "outage_draws = 2000000", "outage_draws = lots",
     "sweep.outage_draws"),
    ("simulate", DEFAULT_CFG, None, "x", cli.ENV_PARALLEL),
    ("sweep", SWEEP_CFG, "rho = 2,4.1", "rho = -1,4.1", "sweep.rho"),
    ("sweep", SWEEP_CFG, "metrics = outage", "metrics = outgae",
     "sweep.metrics"),
    ("sweep", SWEEP_CFG, "scheme = atp", "scheme = atp,bogus",
     "protocol.scheme"),
    ("simulate", DEFAULT_CFG, "n_users = 2,5,10,20,40", "n_users = 5,0",
     "protocol.n_users"),
    ("validate", DEFAULT_CFG, "n_samples = 100000", "n_samples = 10",
     "validation.n_samples"),
    ("validate", DEFAULT_CFG, "n_samples = 100000\ntrials = 5000",
     "n_samples = 100000\ntrials = 0", "validation.trials"),
    # NaN fails every range check (or, under a key no longer read, the
    # unread-key check); a dB value is named by the field it sets
    ("simulate", DEFAULT_CFG, "e_tx_uj = 1200", "e_tx_uj = 1200\ngamma_qos = nan",
     "protocol.gamma_qos"),
    ("simulate", DEFAULT_CFG, "e_tx_uj = 1200",
     "e_tx_uj = 1200\ngamma_qos_db = nan", "protocol.gamma_qos_db"),
    ("simulate", DEFAULT_CFG, "avg_snr_db = 45", "avg_snr_db = nan",
     "link.avg_snr_db"),
    ("simulate", DEFAULT_CFG, "e_tx_uj = 1200", "e_tx_uj = nan",
     "protocol.e_tx_uj"),
    ("simulate", DEFAULT_CFG, "kappa = 0.0", "kappa = nan", "fading.kappa"),
    ("simulate", DEFAULT_CFG, "pressure = 1013.25", "pressure = nan",
     "link.pressure"),
    ("analyze", DEFAULT_CFG, "gamma_th_db = 5", "gamma_th_db = nan",
     "outage.gamma_th_db"),
    ("analyze", DEFAULT_CFG, "gamma_bar_db = 25,27", "gamma_bar_db = nan,27",
     "outage.gamma_bar_db"),
    ("validate", DEFAULT_CFG, "gamma_bar_db = 25,29", "gamma_bar_db = -inf,29",
     "validation.gamma_bar_db"),
    ("analyze", DEFAULT_CFG, "k_shape = 3", "k_shape = 0", "absorption.k_shape"),
    # a key no command reads: misspelled, in an unknown section, a removed
    # second spelling, or a key of an absorption model not in use
    ("simulate", DEFAULT_CFG, "trials = 5000\nseed = 1", "trail = 50\nseed = 1",
     "protocol.trail"),
    ("simulate", DEFAULT_CFG, "[outage]", "[protocl]\nseed = 3\n\n[outage]",
     "protocl.seed"),
    ("simulate", DEFAULT_CFG, "avg_snr_db = 45", "avg_snr = 31622.8",
     "link.avg_snr"),
    ("simulate", DEFAULT_CFG, "e_tx_uj = 1200", "e_tx_uj = 1200\ngamma_qos = 3",
     "protocol.gamma_qos"),
    ("analyze", DEFAULT_CFG, "kbeta_db_per_km = 30",
     "kbeta_db_per_km = 30\nbeta_db_per_km = 10", "absorption.beta_db_per_km"),
    ("analyze", DEFAULT_CFG, "rho = 4.0", "rho = 4.0\nbeamwidth = 2.0",
     "misalignment.beamwidth"),
    ("analyze", DEFAULT_CFG, "rho = 4.0", "rho = 4.0\nangle_sigma2 = 0.25",
     "misalignment.angle_sigma2"),
    ("simulate", DEFAULT_CFG, "pressure = 1013.25",
     "pressure = 1013.25\npressure_unit = hPa", "link.pressure_unit"),
    ("simulate", DEFAULT_CFG, "r_hat = 1.0", "r_hat = 1.0\np_ext = 1",
     "fading.p_ext"),
    ("simulate", DEFAULT_CFG, "r_hat = 1.0", "r_hat = 1.0\nq_ext = 1",
     "fading.q_ext"),
    ("simulate", DEFAULT_CFG, "e_tx_uj = 1200",
     "e_tx_uj = 1200\nadmission = average", "protocol.admission"),
    ("validate", DEFAULT_CFG, "outage_draws = 200000",
     "outage_draws = 200000\nrho_sample_scale = 1.1",
     "validation.rho_sample_scale"),
    ("analyze", DEFAULT_CFG, "model = gamma", "model = gamma\nq1 = 0.2205",
     "absorption.q1"),
    ("validate", DEFAULT_CFG, "seed = 1", "seed = -3", "protocol.seed"),
    ("sweep", SWEEP_CFG, "seed = 7", "seed = -3", "protocol.seed"),
    # a count is a whole number, never truncated
    ("simulate", DEFAULT_CFG, "seed = 1", "seed = 1.9", "protocol.seed"),
    ("simulate", DEFAULT_CFG, "n_users = 2,5,10,20,40", "n_users = 2.5,5",
     "protocol.n_users"),
    ("simulate", DEFAULT_CFG, "n_users = 2,5,10,20,40", "n_users = 1:4.5",
     "protocol.n_users"),
    ("validate", DEFAULT_CFG, "n_samples = 100000\ntrials = 5000",
     "n_samples = 100000\ntrials = 10.7", "validation.trials"),
    ("validate", DEFAULT_CFG, "n_samples = 100000", "n_samples = 100000.5",
     "validation.n_samples"),
    ("sweep", SWEEP_CFG, "outage_draws = 2000000", "outage_draws = 2e6\n"
     "k_users = 2:3.5", "sweep.k_users"),
    # checked with the config, not when a run first reads the value
    ("simulate", deterministic_text, "model = deterministic",
     "model = deterministic\nq1 = nan", "absorption.q1"),
    ("simulate", DEFAULT_CFG, "temperature_k = 296.0", "temperature_k = 100",
     "link.temperature_k"),
    ("sweep", SWEEP_CFG, "temperature_k = 296.0", "temperature_k = 100",
     "link.temperature_k"),
    # an average SNR of -inf dB is zero, which no link has
    ("simulate", DEFAULT_CFG, "avg_snr_db = 45", "avg_snr_db = -inf",
     "link.avg_snr_db"),
    ("sweep", SWEEP_CFG, "mu = 1.5,2.5", "mu = 1.5,2.5\ngamma_bar_db = -inf,40",
     "sweep.gamma_bar_db"),
    # a flag takes the spelling of the key it overrides
    ("simulate", DEFAULT_CFG, "--trials", "2.5", "protocol.trials"),
    ("simulate", DEFAULT_CFG, "--seed", "1.5", "protocol.seed"),
    ("sweep", SWEEP_CFG, "rho = 2,4.1\nmu = 1.5,2.5\n", "", "sweep"),
    # fading values are checked with fading off too
    ("validate", DEFAULT_CFG, "enabled = true\nalpha = 2.0",
     "enabled = false\nalpha = -1", "fading.alpha"),
    ("simulate", DEFAULT_CFG, "enabled = true\nalpha = 2.0",
     "enabled = false\nalpha = -1", "fading.alpha"),
    ("simulate", DEFAULT_CFG, "enabled = true", "enabled = maybe",
     "fading.enabled"),
    # analyze reads protocol.n_users; there is no second list
    ("analyze", DEFAULT_CFG, "[outage]", "[analyze]\nk_users = 2\n\n[outage]",
     "analyze.k_users"),
    # a protocol sweep runs one K unless sweep.k_users lists them
    ("sweep", lambda: SWEEP_CFG.read_text().replace("n_users = 10",
                                                    "n_users = 2,5,40"),
     "metrics = outage", "metrics = protocol", "protocol.n_users"),
], ids=["gamma_th_db", "n_users-simulate", "n_users-analyze", "scheme",
        "n_samples", "sweep_axis", "outage_draws", "env_parallel",
        "sweep_axis_range", "sweep_metric", "scheme-sweep", "n_users_range",
        "n_samples_floor", "validation_trials", "gamma_qos-nan",
        "gamma_qos_db-nan", "avg_snr_db-nan", "e_tx_uj-nan", "kappa-nan",
        "pressure-nan", "gamma_th_db-nan", "outage_grid-nan",
        "validation_grid-inf", "k_shape-zero", "misspelled_key", "unknown_section",
        "removed-avg_snr", "removed-gamma_qos", "removed-beta_db_per_km",
        "removed-beamwidth", "removed-angle_sigma2", "removed-pressure_unit",
        "removed-p_ext", "removed-q_ext", "removed-admission",
        "removed-rho_sample_scale", "unused_model_key", "seed-negative",
        "seed-negative-sweep", "seed-fraction",
        "n_users-fraction", "n_users-range-fraction", "validation_trials-fraction",
        "n_samples-fraction", "sweep_k_users-fraction", "q1-nan",
        "temperature-simulate", "temperature-sweep", "avg_snr_db-minus_inf",
        "sweep_gamma_bar-minus_inf", "trials_flag-fraction",
        "seed_flag-fraction", "sweep_without_axis", "fading_off-alpha-validate",
        "fading_off-alpha-simulate", "fading_enabled-word", "removed-analyze_k_users",
        "sweep-protocol-n_users"])
def test_malformed_input_exits_2_naming_the_key(tmp_path, monkeypatch, capsys,
                                                command, base, old, new, key):
    text = base() if callable(base) else base.read_text()
    flags = ["--trials", "10"]
    if old is None:                 # the environment variable, not the file
        monkeypatch.setenv(cli.ENV_PARALLEL, new)
    elif old.startswith("--"):      # a flag, not the file
        flags = [old, new]
    else:
        assert old in text
        text = text.replace(old, new)
    cfg = write_cfg(tmp_path, "bad.cfg", text)
    code = cli.main([command, "--config", str(cfg), *flags,
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()    # rejected before any work


def test_eta_mu_fading_at_a_real_mu_runs(tmp_path):
    # eta-mu fading at a real mu is a valid config: simulate admits at the
    # law's q, and a sweep over mu at eta = 2 tilts its drawn fading
    text = DEFAULT_CFG.read_text().replace(
        "eta = 1.0\nkappa = 0.0\nmu = 1\n", "eta = 2\nkappa = 0.0\nmu = 1.5\n"
    ).replace("n_users = 2,5,10,20,40", "n_users = 3\ngamma_qos_db = 10")
    cfg = write_cfg(tmp_path, "s.cfg", text)
    assert cli.main(["simulate", "--config", str(cfg), "--trials", "20",
                     "--out", str(tmp_path / "s")]) == 0
    manifest = json.loads((tmp_path / "s" / "run_manifest.json").read_text())
    exp = params.run_config(cli.read_config(cfg)).exp.with_protocol(
        gamma_qos=params.db_to_linear(10.0))
    query = analytics.OutageQuery(exp.protocol.gamma_qos, exp.link.avg_snr,
                                  exp.link.k_h)
    assert manifest["admission"] == {
        "q": 1.0 - analytics.cdf_snr(query, exp)}
    text = SWEEP_CFG.read_text().replace(
        "eta = 1.0\nkappa = 0.0\nmu = 1.5", "eta = 2\nkappa = 0.0\nmu = 1"
    ).replace("outage_draws = 2000000", "outage_draws = 20000")
    cfg = write_cfg(tmp_path, "w.cfg", text)
    assert cli.main(["sweep", "--config", str(cfg), "--out",
                     str(tmp_path / "w")]) == 0
    cells = sorted((tmp_path / "w" / "sweep").glob("cell_*.csv"))
    assert len(cells) == 4
    for cell in cells:
        schema, header, rows = read_rows(cell)
        assert schema.startswith("#schema: thzra.sweep.cell.v18 ")
        assert all(float(r[header.index("tilt")]) > 0.0 for r in rows)
        # eta-mu fading stays iid; a drawn misalignment is stratified
        for r in rows:
            conditioned = r[header.index("conditioned")]
            assert r[header.index("stratified")] == (
                "none" if conditioned == "misalignment" else "misalignment")


def test_flags_take_the_key_spelling(tmp_path):
    # 1e2 is a whole number as a flag, as it is under protocol.trials
    text = DEFAULT_CFG.read_text().replace("n_users = 2,5,10,20,40", "n_users = 2")
    cfg = write_cfg(tmp_path, "small.cfg", text)
    for name, trials, seed in [("a", "1e2", "7e0"), ("b", "100", "7")]:
        assert cli.main(["simulate", "--config", str(cfg), "--trials", trials,
                         "--seed", seed, "--out", str(tmp_path / name)]) == 0
    agg = [(tmp_path / name / "simulate_aggregate.csv").read_bytes()
           for name in "ab"]
    assert agg[0] == agg[1]
    _, header, rows = read_rows(tmp_path / "a" / "simulate_aggregate.csv")
    assert {r[header.index("n_trials")] for r in rows} == {"100"}


def test_deterministic_absorption_defaults_to_the_shipped_coefficients(tmp_path):
    # no coefficient key reads the same model as the 16 shipped values
    sweep = ("\n[sweep]\nrho = 2,4\ngamma_bar_db = 30\nk_users = 5\n"
             "metrics = protocol,outage\noutage_draws = 2000\n")
    small = {"n_users = 2,5,10,20,40": "n_users = 2,5",
             "n_samples = 100000": "n_samples = 1000",
             "k_users = 2,5,10,20,40": "k_users = 2"}
    outs = []
    for name, coefficients in [("listed", SHIPPED_COEFFICIENTS), ("default", "")]:
        text = deterministic_text(coefficients) + sweep
        for old, new in small.items():
            text = text.replace(old, new)
        cfg = write_cfg(tmp_path, f"{name}.cfg", text)
        files = {}
        for command in ("simulate", "validate", "sweep"):
            out = tmp_path / name / command
            assert cli.main([command, "--config", str(cfg), "--trials", "50",
                             "--out", str(out)]) in (0, 1)
            manifest = json.loads((out / "run_manifest.json").read_text())
            files[command, "digest"] = manifest["config_digest"]
            for path in sorted(out.rglob("*")):
                if path.is_file() and path.name != "run_manifest.json":
                    files[path.relative_to(out)] = path.read_bytes()
        outs.append(files)
    assert len(outs[0]) == 3 + 1 + 1 + 2     # digests, CSV, report, cells
    assert outs[0] == outs[1]


def test_real_absorption_shape_runs_under_simulate_and_sweep(tmp_path):
    # the samplers take any real shape, and so does the law
    text = DEFAULT_CFG.read_text().replace("k_shape = 3", "k_shape = 2.5")
    cfg = write_cfg(tmp_path, "real.cfg", text)
    assert cli.main(["simulate", "--config", str(cfg), "--trials", "10",
                     "--out", str(tmp_path / "sim")]) == 0
    text = SWEEP_CFG.read_text().replace("k_shape = 1", "k_shape = 1.5").replace(
        "outage_draws = 2000000", "outage_draws = 2000")
    cfg = write_cfg(tmp_path, "real_sweep.cfg", text)
    assert cli.main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "sweep")]) == 0


def _outage_grid_is_written(out):
    _, _, rows = read_rows(out / "analyze_outage.csv")
    assert len(rows) == 10 and all(0.0 < float(r[1]) < 1.0 for r in rows)


def _no_fading_suite_passes(out):
    report = json.loads((out / "validation_report.json").read_text())
    suite = next(s for s in report["suites"] if s["suite"] == "no_fading_outage")
    assert suite["passed"] and len(suite["detail"]["points"]) == 5


@pytest.mark.parametrize("command,flags,check", [
    ("analyze", [], _outage_grid_is_written),
    ("validate", ["--trials", "10"], _no_fading_suite_passes),
], ids=["analyze", "validate"])
def test_real_absorption_shape_has_the_law(tmp_path, command, flags, check):
    # the law is defined for every k > 0: analyze writes its outage grid
    # at k_shape = 2.5, and validate's no_fading_outage suite holds the
    # Monte Carlo to it
    text = DEFAULT_CFG.read_text().replace("k_shape = 3", "k_shape = 2.5")
    cfg = write_cfg(tmp_path, "real.cfg", text)
    assert cli.main([command, "--config", str(cfg), *flags,
                     "--out", str(tmp_path / "out")]) == 0
    check(tmp_path / "out")


def test_energy_model_key_still_loads(tmp_path):
    # no code reads it, but configs written for older releases set it
    text = DEFAULT_CFG.read_text().replace(
        "e_tx_uj = 1200", "e_tx_uj = 1200\nenergy_model = realistic")
    cfg = write_cfg(tmp_path, "energy.cfg", text)
    assert cli.main(["simulate", "--config", str(cfg), "--trials", "10",
                     "--out", str(tmp_path / "o")]) == 0


def test_benchmark_workload_configs_load(tmp_path, monkeypatch):
    # a change that makes a benchmark workload's config exit 2 fails here
    root = CONFIG_DIR.parent
    monkeypatch.setattr(sys, "path", [str(root / "perfbench")] + sys.path)
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, 1, root, tmp_path)
        params.run_config(cli.read_config(wl.config))


def test_simulate_row_cardinality_and_schema(tmp_path):
    cfg = DEFAULT_CFG
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(cfg), "--seed", "4",
                     "--trials", "100", "--out", str(out)])
    assert code == 0
    schema, header, rows = read_rows(out / "simulate_aggregate.csv")
    assert schema == "#schema: thzra.simulate.v2"
    assert header == ["K", "scheme", "mean_delay", "stderr_delay",
                      "mean_energy_uj", "stderr_energy_uj",
                      "mean_transmissions", "stderr_transmissions",
                      "mean_k_admitted", "n_trials"]
    # 5 K values x 3 schemes from the shipped config
    assert len(rows) == 15
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "simulate_aggregate.csv" in manifest["outputs"]
    assert manifest["partial_run"] is False


def test_simulate_k_sweep_cardinality(tmp_path):
    text = DEFAULT_CFG.read_text().replace("n_users = 2,5,10,20,40",
                                           "n_users = 1:10")
    cfg = write_cfg(tmp_path, "sweep10.cfg", text)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--seed", "4",
                     "--trials", "50", "--out", str(out)]) == 0
    _, _, rows = read_rows(out / "simulate_aggregate.csv")
    assert len(rows) == 30          # K = 1..10, three schemes


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = DEFAULT_CFG
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["simulate", "--config", str(cfg), "--seed", "11",
                         "--trials", "200", "--out", str(out),
                         "--dump-trials"]) == 0
        outs.append(out)
    for fname in ("simulate_aggregate.csv", "simulate_trials.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_simulate_seed_changes_output(tmp_path):
    cfg = DEFAULT_CFG
    a = tmp_path / "a"
    b = tmp_path / "b"
    cli.main(["simulate", "--config", str(cfg), "--seed", "1", "--trials", "200",
              "--out", str(a)])
    cli.main(["simulate", "--config", str(cfg), "--seed", "2", "--trials", "200",
              "--out", str(b)])
    assert (a / "simulate_aggregate.csv").read_bytes() != \
        (b / "simulate_aggregate.csv").read_bytes()


def test_simulate_delay_ratio_and_optimal_energy(tmp_path):
    text = DEFAULT_CFG.read_text().replace("n_users = 2,5,10,20,40",
                                           "n_users = 10")
    cfg = write_cfg(tmp_path, "r.cfg", text)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--seed", "5",
                     "--trials", "2000", "--out", str(out)]) == 0
    _, header, rows = read_rows(out / "simulate_aggregate.csv")
    col = {name: i for i, name in enumerate(header)}
    by_scheme = {r[col["scheme"]]: r for r in rows}
    ratio = (float(by_scheme["ftp"][col["mean_delay"]])
             / float(by_scheme["atp"][col["mean_delay"]]))
    assert 1.6 < ratio < 2.0
    # centralized baseline: exactly K slots, K transmissions, K*(1200+120) uJ
    opt = by_scheme["optimal"]
    assert float(opt[col["mean_delay"]]) == 10.0
    assert float(opt[col["stderr_delay"]]) == 0.0
    assert float(opt[col["mean_energy_uj"]]) == 10 * 1320.0
    assert float(opt[col["stderr_energy_uj"]]) == 0.0


def test_analyze_hand_row_and_bracketing(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", str(DEFAULT_CFG), "--seed", "1",
                     "--out", str(out)]) == 0
    _, header, rows = read_rows(out / "analyze_delay_energy.csv")
    col = {name: i for i, name in enumerate(header)}
    first = rows[0]
    assert first[col["K"]] == "2"
    assert float(first[col["d_ftp"]]) == 4.0
    assert float(first[col["d_atp"]]) == 3.0
    assert float(first[col["e_ftp"]]) == 3.0
    assert float(first[col["e_atp"]]) == 3.0
    for row in rows:
        for name in ("d_ftp", "d_atp", "e_ftp", "e_atp"):
            lo_s, hi_s = row[col[name + "_lo"]], row[col[name + "_hi"]]
            if lo_s == "" or hi_s == "":
                continue
            assert float(lo_s) <= float(row[col[name]]) <= float(hi_s)
    # outage CSV monotone nonincreasing in gamma_bar_db
    _, oh, orows = read_rows(out / "analyze_outage.csv")
    pouts = [float(r[1]) for r in orows]
    assert all(b <= a for a, b in zip(pouts, pouts[1:]))


def test_analyze_at_z_equals_rho(tmp_path):
    # kbeta = 65.145 dB/km puts z = 8.686 / (21.715 * 0.1) = 4 = rho, where
    # h_l * h_p has the Gamma(5, 1/4) log-law: p_out = Q(5, 4 ln(a_l/gamma_h))
    cfg = write_cfg(tmp_path, "zr.cfg", DEFAULT_CFG.read_text().replace(
        "kbeta_db_per_km = 30", "kbeta_db_per_km = 65.145"))
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "analyze_outage.csv" in manifest["outputs"]
    _, _, rows = read_rows(out / "analyze_outage.csv")
    assert rows[0][0] == "25.0"
    assert abs(float(rows[0][1]) - 0.714454685724963) <= 1e-13


def test_analyze_diversity_follows_fading_switch(tmp_path):
    # rho = 4, z = 8.686 / (10 dB/km * 0.1 km) = 8.686, alpha mu = 2
    rows = {}
    for enabled in ("true", "false"):
        cfg = write_cfg(tmp_path, f"{enabled}.cfg", DEFAULT_CFG.read_text()
                        .replace("enabled = true", f"enabled = {enabled}"))
        out = tmp_path / enabled
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows[enabled] = read_rows(out / "analyze_diversity.csv")
    assert header == ["exp_fading", "exp_misalignment", "exp_pathloss",
                      "effective"]
    assert rows["true"] == [["1.0", "2.0", "4.343", "1.0"]]
    # without fading its exponent is infinite: min(rho, z) / 2 remains
    assert rows["false"] == [["inf", "2.0", "4.343", "2.0"]]


def test_analyze_with_deterministic_absorption(tmp_path):
    # the no-fading law of deterministic absorption at every grid point,
    # and an infinite path-loss exponent (no random absorption)
    cfg = write_cfg(tmp_path, "det.cfg", deterministic_text())
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    run = params.run_config(cli.read_config(cfg))
    exp = run.exp
    _, _, rows = read_rows(out / "analyze_outage.csv")
    assert len(rows) == 10
    for db, p_out in rows:
        query = analytics.OutageQuery(run.gamma_th, params.db_to_linear(
            float(db)), exp.link.k_h)
        assert float(p_out) == analytics.cdf_snr_no_fading(
            query, exp.absorption, exp.misalignment.rho, exp.link)
    _, header, rows = read_rows(out / "analyze_diversity.csv")
    assert dict(zip(header, rows[0])) == {
        "exp_fading": "1.0", "exp_misalignment": "2.0",
        "exp_pathloss": "inf", "effective": "1.0"}


def test_analyze_rows_are_the_protocol_user_counts(tmp_path):
    cfg = write_cfg(tmp_path, "k.cfg", DEFAULT_CFG.read_text().replace(
        "n_users = 2,5,10,20,40", "n_users = 7,3,7"))
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = read_rows(out / "analyze_delay_energy.csv")
    assert [r[0] for r in rows] == ["3", "7"]


def test_analyze_infinite_threshold_is_certain_outage(tmp_path):
    # ideal front end (k_h = 0): P(SNR <= inf) = 1 at every average SNR
    text = DEFAULT_CFG.read_text().replace("k_t = 0.1", "k_t = 0.0").replace(
        "k_r = 0.1", "k_r = 0.0").replace("gamma_th_db = 5", "gamma_th_db = inf")
    cfg = write_cfg(tmp_path, "inf.cfg", text)
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = read_rows(out / "analyze_outage.csv")
    assert len(rows) == 10
    assert all(row[1] == "1.0" for row in rows)


@pytest.mark.parametrize("k_shape", [150, 200])
def test_analyze_at_large_absorption_shape(tmp_path, k_shape):
    # (zL)^k overflows a double here, and from k = 170 on (k+1)! does too
    cfg = write_cfg(tmp_path, "k.cfg", DEFAULT_CFG.read_text().replace(
        "k_shape = 3", f"k_shape = {k_shape}").replace(
        "n_users = 2,5,10,20,40", "n_users = 2"))
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = read_rows(out / "analyze_outage.csv")
    pouts = [float(r[1]) for r in rows]
    assert len(pouts) == 10
    assert all(0.0 <= p <= 1.0 for p in pouts)
    assert all(b <= a for a, b in zip(pouts, pouts[1:]))


def fast_validate_text():
    """Default config with validate's sample and trial counts cut down."""
    return DEFAULT_CFG.read_text().replace(
        "n_samples = 100000", "n_samples = 20000").replace(
        "trials = 5000", "trials = 2500").replace(
        "k_users = 2,5,10,20,40", "k_users = 2,5").replace(
        "outage_draws = 200000", "outage_draws = 50000")


def test_validate_exit_codes(tmp_path, monkeypatch):
    fast = fast_validate_text()
    cfg = write_cfg(tmp_path, "fast.cfg", fast)
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["all_passed"] is True
    assert {s["suite"] for s in report["suites"]} >= {
        "misalignment_ks", "absorption_gamma_ks", "path_gain_chi2",
        "fading_alpha_mu_ks", "no_fading_outage", "bound_sweep",
        "simulator_vs_series"}

    # misalignment drawn at 1.1 rho must fail its goodness-of-fit suite:
    # (U V)^(1/1.1) is h_p^rho for h_p drawn at 1.1 rho
    draw = channel.uniform_product
    monkeypatch.setattr(channel, "uniform_product",
                        lambda rng, size: draw(rng, size) ** (1 / 1.1))
    out = tmp_path / "out2"
    assert cli.main(["validate", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 1
    report = json.loads((out / "validation_report.json").read_text())
    assert "misalignment_ks" in {s["suite"] for s in report["suites"]
                                 if not s["passed"]}


@pytest.mark.parametrize("far", [False, True], ids=["rho_0.01", "rho_0.01_far"])
def test_validate_gof_on_every_draw(tmp_path, far):
    # rho = 0.01 underflows 0.45 % of the h_p draws to 0, which KS at the
    # default 100 000 samples would see if h_p were tested instead of
    # ln h_p; 100 dB/km over 1 km puts every path-gain bin edge below 1e-12
    edits = [("rho = 4.0", "rho = 0.01"),
             ("n_samples = 20000", "n_samples = 100000")]
    if far:
        edits += [("d_m = 100\n", "d_m = 1000\n"),
                  ("kbeta_db_per_km = 30 ", "kbeta_db_per_km = 100 ")]
    text = fast_validate_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = write_cfg(tmp_path, "small_rho.cfg", text)
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
    assert (out / "run_manifest.json").exists()
    report = json.loads((out / "validation_report.json").read_text())
    assert report["all_passed"] is True


def test_validate_catches_biased_simulator(tmp_path, monkeypatch):
    # a 5 % bias against the series must fail simulator_vs_series
    cfg = write_cfg(tmp_path, "fast.cfg", fast_validate_text())
    exact = validation.exact_delay_energy
    monkeypatch.setattr(validation, "exact_delay_energy",
                        lambda scheme, k: tuple(1.05 * v for v in exact(scheme, k)))
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 1
    report = json.loads((out / "validation_report.json").read_text())
    failed = {s["suite"] for s in report["suites"] if not s["passed"]}
    assert failed == {"simulator_vs_series"}
    detail = next(s["detail"] for s in report["suites"]
                  if s["suite"] == "simulator_vs_series")
    assert len(detail["rows"]) == 8
    for row in detail["rows"]:
        assert row["se"] > 0 and row["z"] > 3.0
    assert detail["worst_rel_err"] == max(r["rel_err"] for r in detail["rows"])


def test_validate_catches_biased_misalignment_cdf(tmp_path, monkeypatch):
    # rho off by 5 % in the CDF the outage estimator averages (the log
    # form, which misalignment_cdf also calls) must fail no_fading_outage,
    # judged by the estimator's own standard error
    cfg = write_cfg(tmp_path, "fast.cfg", fast_validate_text())
    cdf = channel.misalignment_cdf_log
    monkeypatch.setattr(channel, "misalignment_cdf_log",
                        lambda log_x, rho, weight=None:
                        cdf(log_x, 1.05 * rho, weight))
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 1
    report = json.loads((out / "validation_report.json").read_text())
    suite = next(s for s in report["suites"] if s["suite"] == "no_fading_outage")
    assert suite["passed"] is False
    assert suite["detail"]["z"] > 3.0
    for pt in suite["detail"]["points"]:
        assert pt["se"] > 0 and pt["vrf"] > 1.0
        assert {"mc", "closed_form", "ok"} <= set(pt)


def test_validate_at_infinite_average_snr(tmp_path):
    # below the ceiling no draw is in outage at gamma_bar = inf: Monte
    # Carlo and closed form agree on 0 exactly
    cfg = write_cfg(tmp_path, "inf.cfg", fast_validate_text().replace(
        "gamma_bar_db = 25,29,33,37,41", "gamma_bar_db = 25,inf"))
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    suite = next(s for s in report["suites"] if s["suite"] == "no_fading_outage")
    last = suite["detail"]["points"][-1]
    assert last["gamma_bar_db"] == float("inf")
    assert (last["mc"], last["closed_form"], last["se"], last["ok"]) == \
        (0.0, 0.0, 0.0, True)


def run_python(*args, timeout, env=None):
    """Exit code of `python args...` in a fresh interpreter on src/, in
    `env` (default: this process's environment)."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          timeout=timeout).returncode


def test_cli_import_leaves_scipy_stats_unloaded():
    # no scipy module at all: scipy.special alone costs ~0.3 s of start-up
    code = ("import sys, thzra.cli; "
            "sys.exit(any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
    assert run_python("-c", code, timeout=120) == 0


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


def env_without_blas_threads(**given):
    """This process's environment with no BLAS thread variable but `given`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return {**env, **given}


@pytest.mark.parametrize("given,expected", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
    ({"OMP_NUM_THREADS": "3"}, None),
    ({"GOTO_NUM_THREADS": "3"}, None),
], ids=["unset", "openblas", "omp", "goto"])
def test_cli_starts_numpy_with_one_blas_thread_unless_chosen(given, expected):
    # starting OpenBLAS's thread pool is about half of numpy's import; cli
    # sets one thread before it loads numpy, which `import thzra` must not
    # load first, and keeps a count the user chose by any of the variables
    code = ("import os, sys, thzra\n"
            "if 'numpy' in sys.modules: sys.exit('import thzra loaded numpy')\n"
            "import thzra.cli\n"
            "got = os.environ.get('OPENBLAS_NUM_THREADS')\n"
            f"sys.exit(None if got == {expected!r} else "
            "f'OPENBLAS_NUM_THREADS = {got!r}')")
    env = env_without_blas_threads(**given)
    assert run_python("-c", code, timeout=120, env=env) == 0


@pytest.mark.parametrize("command,base,old,new", [
    ("analyze", DEFAULT_CFG, "n_users = 2,5,10,20,40", "n_users = 2,40"),
    ("simulate", DEFAULT_CFG, "n_users = 2,5,10,20,40", "n_users = 2,10"),
    ("sweep", SWEEP_CFG, "outage_draws = 2000000", "outage_draws = 70000"),
    ("validate", fast_validate_text, "k_users = 2,5", "k_users = 2"),
])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, command,
                                                        base, old, new):
    # the determinism contract: np.dot and eigvalsh must give the same
    # bytes whether OpenBLAS runs one thread or several
    text = base() if callable(base) else base.read_text()
    assert old in text
    cfg = write_cfg(tmp_path, "small.cfg", text.replace(old, new))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert run_python("-m", "thzra.cli", command, "--config", str(cfg),
                          "--trials", "100", "--out", str(out), timeout=300,
                          env=env_without_blas_threads(
                              OPENBLAS_NUM_THREADS=threads)) == 0
        outs.append({p.relative_to(out): p.read_bytes()
                     for p in out.rglob("*")
                     if p.is_file() and p.name != "run_manifest.json"})
    assert outs[0] == outs[1] and outs[0]


@pytest.mark.parametrize("command,base,old,new,counters", [
    ("simulate", DEFAULT_CFG, "n_users = 2,5,10,20,40",
     "n_users = 2\ngamma_qos_db = 16.2", ("slots", "admitted")),
    ("validate", fast_validate_text, "k_users = 2,5", "k_users = 2",
     ("slots", "outage_draws")),
    ("sweep", SWEEP_CFG, "outage_draws = 2000000", "outage_draws = 2000",
     ("outage_draws",)),
], ids=["simulate", "validate", "sweep"])
def test_traced_benchmark_path_runs(tmp_path, command, base, old, new, counters):
    # perfbench's tracer wraps the package's functions and reads counters
    # from their arguments and results: an API change it depends on fails
    # here rather than in a benchmark run
    text = base() if callable(base) else base.read_text()
    assert old in text
    cfg = write_cfg(tmp_path, "small.cfg", text.replace(old, new))
    spans = tmp_path / "spans.json"
    tracer = SRC_DIR.parent / "perfbench" / "tracer.py"
    assert run_python(str(tracer), str(spans), "--", command, "--config",
                      str(cfg), "--trials", "20", "--out", str(tmp_path / "out"),
                      timeout=300) == 0
    traced = json.loads(spans.read_text())
    assert traced["exit"] == 0
    assert all(traced["counters"][name] > 0 for name in counters), \
        traced["counters"]


@pytest.mark.parametrize("command,base,old,new", [
    ("simulate", DEFAULT_CFG, "n_users = 2,5,10,20,40", "n_users = 2"),
    ("sweep", SWEEP_CFG, "outage_draws = 2000000", "outage_draws = 2000"),
    ("validate", fast_validate_text, "k_users = 2,5", "k_users = 2"),
    ("analyze", DEFAULT_CFG, "n_users = 2,5,10,20,40", "n_users = 2"),
    ("validate", lambda: fast_validate_text().replace("k_shape = 3",
                                                      "k_shape = 2.5"),
     "k_users = 2,5", "k_users = 2"),
    ("analyze", DEFAULT_CFG, "k_shape = 3", "k_shape = 2.5"),
    ("simulate", deterministic_text, "n_users = 2,5,10,20,40", "n_users = 2"),
    ("simulate", lambda: DEFAULT_CFG.read_text().replace(
        "eta = 1.0", "eta = 2.0").replace("mu = 1\n", "mu = 2\n"),
     "n_users = 2,5,10,20,40", "n_users = 2"),
])
def test_command_leaves_scipy_unloaded(tmp_path, command, base, old, new):
    # no command needs a scipy module: importing scipy.special alone would
    # add about 0.3 s to every run
    text = base() if callable(base) else base.read_text()
    if command == "simulate":   # a threshold that admission evaluates
        new += "\ngamma_qos_db = 16.2"
    cfg = write_cfg(tmp_path, "small.cfg", text.replace(old, new))
    code = ("import sys; from thzra import cli; "
            f"code = cli.main([{command!r}, '--config', {str(cfg)!r}, "
            f"'--trials', '20', '--out', {str(tmp_path / 'out')!r}]); "
            "sys.exit(code or any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
    assert run_python("-c", code, timeout=300) == 0
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    if command == "simulate":
        # admission at a drawn threshold took the exact law: the fading
        # quadrature ran
        assert list(manifest["admission"]) == ["q"]
        assert 0.0 < manifest["admission"]["q"] < 1.0
    if command == "sweep":
        # the fading-conditioned estimator (numpy incomplete gamma) ran
        conditioned = []
        for cell in (tmp_path / "out" / "sweep").glob("cell_*.csv"):
            _, header, rows = read_rows(cell)
            conditioned.append(rows[0][header.index("conditioned")])
        assert "fading" in conditioned
    if command == "validate":
        # every suite ran, the chi-square and the exact outage law included
        report = json.loads((tmp_path / "out" / "validation_report.json")
                            .read_text())
        assert {"path_gain_chi2", "no_fading_outage"} <= {
            s["suite"] for s in report["suites"]}
    if command == "analyze":
        _, _, rows = read_rows(tmp_path / "out" / "analyze_outage.csv")
        assert len(rows) == 10 and all(0.0 < float(r[1]) < 1.0 for r in rows)


def test_sweep_grid_and_resume(tmp_path):
    text = SWEEP_CFG.read_text().replace(
        "rho = 2,4.1", "rho = 2,3,4").replace(
        "mu = 1.5,2.5", "mu = 1,2,3").replace(
        "outage_draws = 2000000", "outage_draws = 20000")
    cfg = write_cfg(tmp_path, "s.cfg", text)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
    cells = sorted((out / "sweep").glob("cell_*.csv"))
    assert len(cells) == 9
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert len(manifest["outputs"]) == 9
    assert manifest["counters"] == sweep_counters(9, 0, 0, 20000)
    before = {p.name: p.read_bytes() for p in cells}

    # interrupt emulation: drop some cells, rerun, everything byte-identical
    cells[1].unlink()
    cells[5].unlink()
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
    after = {p.name: p.read_bytes()
             for p in sorted((out / "sweep").glob("cell_*.csv"))}
    assert after == before
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["counters"] == sweep_counters(2, 7, 0, 20000)

    # a cell written under an older schema is recomputed, not reused
    cells[3].write_text("#schema: thzra.sweep.cell.v1\nmu,p_out\n1,0.5\n")
    # a v2 cell (crude counting), a v3 cell (misalignment conditioning
    # only), a v4 cell (draws per cell), a v5 cell (iid misalignment
    # draws), a v6 cell (admission by SNR counts), a v7 cell (an odd
    # chunk's last draw in cell 0), a v8 cell (iid fading draws on
    # misalignment) or a v9 cell (strata on a grid of (U, V)) with the
    # current digest is recomputed too, and so are a v10 cell (untilted
    # draws), a v11 cell (protocol admission drawn where the channel has
    # a law), a v12 cell (protocol admission drawn at a real shape or
    # with deterministic absorption), a v13 cell (protocol admission
    # drawn with eta-mu or kappa-mu fading), a v14 cell (eta-mu and
    # kappa-mu fading drawn untilted), a v15 cell (alpha-mu fading drawn
    # iid where misalignment is integrated out), a v16 cell (protocol
    # admission by a stratified Binomial quantile) and a v17 cell
    # (protocol frames in blocks of 1024, the fading index's K drawn
    # negative binomial) below
    schema = before[cells[4].name].decode().splitlines()[0]
    assert schema.startswith("#schema: thzra.sweep.cell.v18 digest=")
    for i, old in ((0, ".v6 "), (1, ".v8 "), (2, ".v7 "), (5, ".v9 ")):
        cells[i].write_text(schema.replace(".v18 ", old) + "\n"
                            + before[cells[i].name].decode().split("\n", 1)[1])
    cells[4].write_text(schema.replace(".v18 ", ".v2 ")
                        + "\nmu,rho,p_out,p_out_ci_lo,p_out_ci_hi,outage_draws"
                        "\n2,3,0.5,0.4,0.6,20000\n")
    cells[6].write_text(schema.replace(".v18 ", ".v3 ")
                        + "\nmu,rho,p_out,p_out_ci_lo,p_out_ci_hi,p_out_se,vrf,"
                        "outage_draws\n3,2,0.5,0.4,0.6,0.05,2.0,20000\n")
    cells[7].write_text(schema.replace(".v18 ", ".v4 ")
                        + "\nmu,rho,p_out,p_out_ci_lo,p_out_ci_hi,p_out_se,vrf,"
                        "conditioned,outage_draws\n3,3,0.5,0.4,0.6,0.05,2.0,"
                        "misalignment,20000\n")
    cells[8].write_text(schema.replace(".v18 ", ".v5 ")
                        + "\nmu,rho,p_out,p_out_ci_lo,p_out_ci_hi,p_out_se,vrf,"
                        "conditioned,outage_draws\n3,4,0.5,0.4,0.6,0.05,2.0,"
                        "fading,20000\n")
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
    after = {p.name: p.read_bytes()
             for p in sorted((out / "sweep").glob("cell_*.csv"))}
    assert after == before
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert len(manifest["outputs"]) == 9
    for i, old in ((0, ".v10 "), (1, ".v11 "), (2, ".v12 "), (3, ".v13 "),
                   (5, ".v14 "), (6, ".v15 "), (7, ".v16 "), (8, ".v17 ")):
        cells[i].write_text(schema.replace(".v18 ", old) + "\n"
                            + before[cells[i].name].decode().split("\n", 1)[1])
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
    assert cell_bytes(out) == before
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["counters"] == sweep_counters(8, 1, 0, 20000)

    # an unchanged rerun reuses every cell: no file is rewritten
    stamps = cell_stamps(out)
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
    assert cell_stamps(out) == stamps
    assert cell_bytes(out) == before
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["counters"] == sweep_counters(0, 9, 0, 20000)

    # one more axis value: only its cells are computed, the old ones untouched
    longer = text.replace("rho = 2,3,4", "rho = 2,3,4,5")
    cfg_long = write_cfg(tmp_path, "long.cfg", longer)
    assert cli.main(["sweep", "--config", str(cfg_long), "--seed", "9",
                     "--out", str(out)]) == 0
    grown = cell_stamps(out)
    assert len(grown) == 12
    assert {name: grown[name] for name in stamps} == stamps
    assert len(json.loads((out / "run_manifest.json").read_text())["outputs"]) == 12

    # another threshold: every cell is recomputed, as in a fresh directory
    th15 = write_cfg(tmp_path, "th15.cfg", longer.replace("gamma_th_db = 5",
                                                          "gamma_th_db = 15"))
    assert cli.main(["sweep", "--config", str(th15), "--seed", "9",
                     "--out", str(out)]) == 0
    fresh = tmp_path / "fresh"
    assert cli.main(["sweep", "--config", str(th15), "--seed", "9",
                     "--out", str(fresh)]) == 0
    rerun = cell_bytes(out)
    assert rerun == cell_bytes(fresh)
    assert all(rerun[name] != body for name, body in before.items())

    # the outage metric reads neither the trial count nor the schemes
    stamps = cell_stamps(out)
    other = write_cfg(tmp_path, "ftp.cfg", th15.read_text().replace(
        "scheme = atp", "scheme = ftp,optimal"))
    assert cli.main(["sweep", "--config", str(other), "--seed", "9",
                     "--trials", "999", "--out", str(out)]) == 0
    assert cell_stamps(out) == stamps

    # the protocol metric reads neither the threshold nor the outage draws,
    # but does read the trial count
    proto = text.replace("rho = 2,3,4", "rho = 2").replace(
        "metrics = outage", "metrics = protocol")
    runs = [(proto, "20"),
            (proto.replace("gamma_th_db = 5", "gamma_th_db = 15").replace(
                "outage_draws = 20000", "outage_draws = 30000"), "20"),
            (proto, "21")]
    proto_out = tmp_path / "proto"
    stamps = []
    for i, (body, trials) in enumerate(runs):
        cfg_i = write_cfg(tmp_path, f"p{i}.cfg", body)
        assert cli.main(["sweep", "--config", str(cfg_i), "--seed", "9",
                         "--trials", trials, "--out", str(proto_out)]) == 0
        stamps.append(cell_stamps(proto_out))
    assert len(stamps[0]) == 3
    assert stamps[1] == stamps[0]
    assert all(stamps[2][name] != stamp for name, stamp in stamps[0].items())


def sweep_counters(done, skipped, failed, draws_per_cell):
    """The manifest counters of a sweep of one outage point per cell."""
    return {"cells_done": done, "cells_skipped": skipped,
            "cells_failed": failed, "outage_draws": done * draws_per_cell}


def cell_bytes(out):
    return {p.name: p.read_bytes() for p in (out / "sweep").glob("cell_*.csv")}


def cell_stamps(out):
    """Inode and mtime per cell: an atomic rewrite changes both."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in (out / "sweep").glob("cell_*.csv")}


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    text = SWEEP_CFG.read_text().replace(
        "outage_draws = 2000000", "outage_draws = 20000")
    cfg = write_cfg(tmp_path, "p.cfg", text)
    serial = tmp_path / "serial"
    par = tmp_path / "par"
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "2",
                     "--out", str(serial)]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "2",
                     "--out", str(par), "--parallel", "3"]) == 0
    s_files = sorted((serial / "sweep").glob("*.csv"))
    p_files = sorted((par / "sweep").glob("*.csv"))
    assert [f.name for f in s_files] == [f.name for f in p_files]
    _, header, _ = read_rows(s_files[0])
    assert header[-10:] == ["p_out", "p_out_ci_lo", "p_out_ci_hi",
                            "p_out_se", "vrf", "conditioned", "stratified",
                            "tilt", "re_bounded", "outage_draws"]
    for a, b in zip(s_files, p_files):
        assert a.read_bytes() == b.read_bytes()
    for out in (serial, par):
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["counters"] == sweep_counters(4, 0, 0, 20000)
    # env var caps the worker count without changing results
    monkeypatch.setenv(cli.ENV_PARALLEL, "1")
    capped = tmp_path / "capped"
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "2",
                     "--out", str(capped), "--parallel", "8"]) == 0
    for a, b in zip(s_files, sorted((capped / "sweep").glob("*.csv"))):
        assert a.read_bytes() == b.read_bytes()


def gamma_bar_sweep(tmp_path, gamma_bar_db):
    """configs/sweep_outage.cfg at 2000 draws with mu = 1.5, rho = 2, 4.1
    and the given gamma_bar_db axis."""
    text = SWEEP_CFG.read_text().replace(
        "outage_draws = 2000000", "outage_draws = 2000").replace(
        "mu = 1.5,2.5", f"mu = 1.5\ngamma_bar_db = {gamma_bar_db}")
    return write_cfg(tmp_path, f"g{len(list(tmp_path.iterdir()))}.cfg", text)


def test_sweep_cells_along_gamma_bar_share_draws(tmp_path):
    # the cells of one (mu, rho) come from one outage_mc call over their
    # average SNRs: any worker count gives the same bytes, and a resumed
    # group recomputes only its missing cell, bit-identically
    cfg = gamma_bar_sweep(tmp_path, "40,45,50")
    runs = {}
    for parallel in ("1", "2", "3"):
        out = tmp_path / f"par{parallel}"
        assert cli.main(["sweep", "--config", str(cfg), "--seed", "4",
                         "--out", str(out), "--parallel", parallel]) == 0
        runs[parallel] = cell_bytes(out)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["counters"] == sweep_counters(6, 0, 0, 2000)
    assert len(runs["1"]) == 6
    assert runs["2"] == runs["1"] and runs["3"] == runs["1"]

    out = tmp_path / "par1"
    (out / "sweep" / "cell_gamma_bar_db=45.0_mu=1.5_rho=4.1.csv").unlink()
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "4",
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["counters"] == sweep_counters(1, 5, 0, 2000)
    assert cell_bytes(out) == runs["1"]

    # a point's bytes do not depend on the other points of its group
    alone = tmp_path / "alone"
    assert cli.main(["sweep", "--config", str(gamma_bar_sweep(tmp_path, "45")),
                     "--seed", "4", "--out", str(alone)]) == 0
    assert cell_bytes(alone) == {name: body for name, body in runs["1"].items()
                                 if "gamma_bar_db=45.0" in name}


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_sweep_repeated_axis_value_is_one_cell(tmp_path, parallel):
    # 40,40,45 is the grid 40,45: the same files, counters and digest
    runs = []
    for axis in ("40,40,45", "40,45"):
        out = tmp_path / f"out{len(runs)}"
        assert cli.main(["sweep", "--config", str(gamma_bar_sweep(tmp_path, axis)),
                         "--seed", "4", "--out", str(out),
                         "--parallel", parallel]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        runs.append((cell_bytes(out), manifest["counters"],
                     manifest["config_digest"]))
        assert not list((out / "sweep").glob("*.tmp"))
    assert runs[0] == runs[1]
    assert runs[0][1] == sweep_counters(4, 0, 0, 2000)


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_sweep_counts_failed_cells(tmp_path, monkeypatch, parallel):
    # a cell that raises is counted as failed, serially and in worker
    # processes alike (they fork from this one, patch included), and the
    # rerun computes it alone
    text = SWEEP_CFG.read_text().replace(
        "outage_draws = 2000000", "outage_draws = 2000")
    cfg = write_cfg(tmp_path, "p.cfg", text)
    out = tmp_path / "out"
    outage_mc = validation.outage_mc

    def failing(exp, *args, **kwargs):
        if exp.misalignment.rho == 2.0 and exp.fading.mu == 1.5:
            raise RuntimeError("cell failed on purpose")
        return outage_mc(exp, *args, **kwargs)

    monkeypatch.setattr(validation, "outage_mc", failing)
    argv = ["sweep", "--config", str(cfg), "--seed", "2", "--out", str(out),
            "--parallel", parallel]
    assert cli.main(argv) == 1
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["partial_run"] is True
    assert manifest["counters"] == sweep_counters(3, 0, 1, 2000)
    monkeypatch.setattr(validation, "outage_mc", outage_mc)
    assert cli.main(argv) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["counters"] == sweep_counters(1, 3, 0, 2000)


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_sweep_directory_at_a_cell_path_fails_that_cell(tmp_path, parallel):
    # a directory where a cell file belongs is no finished cell: the cell
    # is attempted and fails, the others run, and the manifest says so
    text = SWEEP_CFG.read_text().replace(
        "outage_draws = 2000000", "outage_draws = 2000")
    cfg = write_cfg(tmp_path, "p.cfg", text)
    out = tmp_path / "out"
    blocked = out / "sweep" / "cell_mu=1.5_rho=2.0.csv"
    blocked.mkdir(parents=True)
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--parallel", parallel]) == 1
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["partial_run"] is True
    assert manifest["counters"] == sweep_counters(3, 0, 1, 2000)
    assert os.path.relpath(blocked, out) not in manifest["outputs"]
    assert len(manifest["outputs"]) == 3
    assert blocked.is_dir()
    assert not list((out / "sweep").glob("*.tmp"))


def test_validate_counts_outage_draws(tmp_path):
    # no_fading_outage draws validation.outage_draws per grid point
    cfg = write_cfg(tmp_path, "fast.cfg", fast_validate_text())
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
    run = params.run_config(cli.read_config(cfg))
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["counters"] == {
        "outage_draws": run.val_outage_draws * len(run.val_grid_db)}


def test_repeated_grid_point_is_one_point(tmp_path):
    # 25,25,29 is the grid 25,29 in validate (report, Bonferroni z,
    # counters) and in analyze (outage rows), as for the sweep axes
    runs = []
    for grid in ("25,25,29", "25,29"):
        text = fast_validate_text().replace(
            "gamma_bar_db = 25,29,33,37,41", f"gamma_bar_db = {grid}").replace(
            "gamma_bar_db = 25,27,29,31,33,35,37,39,41,43",
            f"gamma_bar_db = {grid}")
        cfg = write_cfg(tmp_path, f"g{len(runs)}.cfg", text)
        out = tmp_path / f"out{len(runs)}"
        assert cli.main(["validate", "--config", str(cfg), "--seed", "3",
                         "--out", str(out / "v")]) == 0
        assert cli.main(["analyze", "--config", str(cfg),
                         "--out", str(out / "a")]) == 0
        report = json.loads((out / "v" / "validation_report.json").read_text())
        manifest = json.loads((out / "v" / "run_manifest.json").read_text())
        runs.append((report, manifest["counters"],
                     (out / "a" / "analyze_outage.csv").read_bytes()))
    assert runs[0] == runs[1]
    [outage] = [s for s in runs[0][0]["suites"]
                if s["suite"] == "no_fading_outage"]
    assert [pt["gamma_bar_db"] for pt in outage["detail"]["points"]] == [25, 29]
    assert runs[0][1] == {"outage_draws": 2 * 50000}


def test_repeated_validation_user_count_is_one(tmp_path):
    # k_users = 2,2,5 is 2,5: simulator_agreement runs K = 2 once, and its
    # Bonferroni z is taken over 8 rows, not 12
    reports = []
    for users in ("2,2,5", "2,5"):
        text = fast_validate_text().replace("k_users = 2,5",
                                            f"k_users = {users}")
        cfg = write_cfg(tmp_path, f"k{len(reports)}.cfg", text)
        out = tmp_path / f"out{len(reports)}"
        assert cli.main(["validate", "--config", str(cfg), "--seed", "3",
                         "--out", str(out)]) == 0
        reports.append(json.loads((out / "validation_report.json").read_text()))
    assert reports[0] == reports[1]
    [agree] = [s["detail"] for s in reports[0]["suites"]
               if s["suite"] == "simulator_vs_series"]
    assert len(agree["rows"]) == 8
    assert {row["z"] for row in agree["rows"]} == {validation.bonferroni_z(8)}


def test_repeated_scheme_and_user_count_are_one_row(tmp_path):
    # scheme = ftp,ftp with n_users = 2,2,5 is ftp with 2,5: two rows,
    # byte-identical to the run that lists each once
    outs = []
    for schemes, users in (("ftp,ftp", "2,2,5"), ("ftp", "2,5")):
        text = DEFAULT_CFG.read_text().replace(
            "scheme = ftp,atp,optimal", f"scheme = {schemes}").replace(
            "n_users = 2,5,10,20,40", f"n_users = {users}\ngamma_qos_db = 16.2")
        cfg = write_cfg(tmp_path, f"r{len(outs)}.cfg", text)
        out = tmp_path / f"out{len(outs)}"
        assert cli.main(["simulate", "--config", str(cfg), "--trials", "30",
                         "--out", str(out)]) == 0
        outs.append((out / "simulate_aggregate.csv").read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].decode().splitlines()) == 2 + 2


@pytest.mark.parametrize("fading", ["eta = 1.0", "eta = 2.0"])
def test_simulate_manifest_counts_its_work(tmp_path, fading):
    # frames, slots and admitted users are the sums of the per-frame
    # arrays --dump-trials writes; the admission record is the law's q,
    # with alpha-mu and with eta-mu fading
    text = DEFAULT_CFG.read_text().replace("eta = 1.0", fading).replace(
        "mu = 1\n", "mu = 2\n").replace(
        "n_users = 2,5,10,20,40", "n_users = 3,7\ngamma_qos_db = 16.2")
    cfg = write_cfg(tmp_path, "m.cfg", text)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--trials", "40",
                     "--out", str(out), "--dump-trials"]) == 0
    _, header, rows = read_rows(out / "simulate_trials.csv")
    col = {name: i for i, name in enumerate(header)}
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["counters"] == {
        "frames": len(rows),
        "slots": sum(int(r[col["total_slots"]]) for r in rows),
        "admitted": sum(int(r[col["K_admitted"]]) for r in rows)}
    exp = params.run_config(cli.read_config(cfg)).exp.with_protocol(
        gamma_qos=params.db_to_linear(16.2))
    assert manifest["admission"] == {"q": protocol.pass_probability(exp)}


def test_trials_dump_schema(tmp_path):
    text = DEFAULT_CFG.read_text().replace("n_users = 2,5,10,20,40",
                                           "n_users = 3")
    cfg = write_cfg(tmp_path, "d.cfg", text)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--seed", "1",
                     "--trials", "40", "--out", str(out), "--dump-trials"]) == 0
    schema, header, rows = read_rows(out / "simulate_trials.csv")
    assert schema == "#schema: thzra.trials.v2"
    assert header == ["trial_id", "scheme", "K_admitted", "total_slots",
                      "total_transmissions", "energy_uJ", "K_provisioned"]
    assert len(rows) == 40 * 3
    # numeric cells parse as plain floats (no stray scalar reprs)
    for row in rows[:5]:
        float(row[5])
        assert "(" not in row[5]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["simulate_aggregate.csv",
                                           "simulate_trials.csv"]


def test_int_list_parsing():
    assert params.parse_int_list("2,5,10") == [2, 5, 10]
    assert params.parse_int_list("1:4") == [1, 2, 3, 4]
    assert params.parse_int_list("1:3,7") == [1, 2, 3, 7]
    assert params.parse_int_list("1e1,2.0:3") == [10, 2, 3]
    assert params.parse_count("1e5") == 100000
    for bad in ("10.7", "2.5", "1e-1", "inf", "nan"):
        with pytest.raises((ValueError, OverflowError)):
            params.parse_count(bad)
        with pytest.raises((ValueError, OverflowError)):
            params.parse_int_list(f"2,{bad}")
        with pytest.raises((ValueError, OverflowError)):
            params.parse_int_list(f"1:{bad}")


def test_sweep_cluster_count_outage_ratio(tmp_path):
    # outage improves roughly 30x at 60 dB when the cluster count goes
    # 1.5 -> 2.5 at rho = 4.1; desk-scale band is a factor of two
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(SWEEP_CFG), "--seed", "7",
                     "--out", str(out)]) == 0
    pouts = {}
    for cell in (out / "sweep").glob("cell_*.csv"):
        _, header, rows = read_rows(cell)
        col = {name: i for i, name in enumerate(header)}
        row = rows[0]
        pouts[(float(row[col["mu"]]), float(row[col["rho"]]))] = \
            float(row[col["p_out"]])
    ratio = pouts[(1.5, 4.1)] / pouts[(2.5, 4.1)]
    assert 15.0 < ratio < 60.0


def test_sweep_cell_at_infinite_average_snr(tmp_path):
    # both conditioned estimators (rho = 2 with mu = 2.5 conditions on
    # misalignment) settle p_out = 0 at gamma_bar = inf
    text = SWEEP_CFG.read_text().replace(
        "outage_draws = 2000000", "outage_draws = 2000") + "gamma_bar_db = inf\n"
    cfg = write_cfg(tmp_path, "inf.cfg", text)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["partial_run"] is False
    conditioned = set()
    for cell in (out / "sweep").glob("cell_*.csv"):
        _, header, rows = read_rows(cell)
        row = dict(zip(header, rows[0]))
        assert (row["gamma_bar_db"], row["p_out"], row["p_out_se"]) == \
            ("inf", "0.0", "0.0")
        conditioned.add((row["conditioned"], row["stratified"]))
    # the misalignment-conditioned cell stratifies its alpha-mu fading
    assert conditioned == {("fading", "misalignment"),
                           ("misalignment", "fading")}


def test_simulate_at_infinite_average_snr_admits_everyone(tmp_path):
    # k_h = 0.1: every SNR sits at the ceiling 1/k_h^2 = 20 dB, above the
    # 10 dB threshold, so every provisioned user is admitted
    assert channel.snr_from_gain(0.5, float("inf"), 0.1) == pytest.approx(100.0)
    cfg = write_cfg(tmp_path, "inf.cfg", DEFAULT_CFG.read_text().replace(
        "avg_snr_db = 45", "avg_snr_db = inf").replace(
        "n_users = 2,5,10,20,40", "n_users = 5\ngamma_qos_db = 10"))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--trials", "50",
                     "--out", str(out)]) == 0
    _, header, rows = read_rows(out / "simulate_aggregate.csv")
    assert len(rows) == 3
    assert all(r[header.index("mean_k_admitted")] == "5.0" for r in rows)
