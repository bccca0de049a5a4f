"""End-to-end command tests: exit codes, CSV schemas, determinism, resume."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thzra import cli, params, validation

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
DEFAULT_CFG = CONFIG_DIR / "default.cfg"
SWEEP_CFG = CONFIG_DIR / "sweep_outage.cfg"


def write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


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
], ids=["gamma_th_db", "n_users-simulate", "n_users-analyze", "scheme",
        "n_samples", "sweep_axis", "outage_draws", "env_parallel",
        "sweep_axis_range", "sweep_metric", "scheme-sweep", "n_users_range",
        "n_samples_floor", "validation_trials"])
def test_malformed_input_exits_2_naming_the_key(tmp_path, monkeypatch, capsys,
                                                command, base, old, new, key):
    text = base.read_text()
    if old is None:                 # the environment variable, not the file
        monkeypatch.setenv(cli.ENV_PARALLEL, new)
    else:
        assert old in text
        text = text.replace(old, new)
    cfg = write_cfg(tmp_path, "bad.cfg", text)
    code = cli.main([command, "--config", str(cfg), "--trials", "10",
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()    # rejected before any work


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


def fast_validate_text():
    """Default config with validate's sample and trial counts cut down."""
    return DEFAULT_CFG.read_text().replace(
        "n_samples = 100000", "n_samples = 20000").replace(
        "trials = 5000", "trials = 2500").replace(
        "k_users = 2,5,10,20,40", "k_users = 2,5").replace(
        "outage_draws = 200000", "outage_draws = 50000")


def test_validate_exit_codes(tmp_path):
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

    sabotage = fast.replace("[validation]", "[validation]\nrho_sample_scale = 1.1")
    cfg_bad = write_cfg(tmp_path, "sab.cfg", sabotage)
    assert cli.main(["validate", "--config", str(cfg_bad), "--seed", "3",
                     "--out", str(tmp_path / "out2")]) == 1


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


def run_python(code, timeout):
    """Exit code of `python -c code` in a fresh interpreter on src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=timeout).returncode


def test_cli_import_leaves_scipy_stats_unloaded():
    # no scipy module at all: scipy.special alone costs ~0.3 s of start-up
    code = ("import sys, thzra.cli; "
            "sys.exit(any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
    assert run_python(code, timeout=120) == 0


def test_validate_leaves_scipy_stats_unloaded(tmp_path):
    cfg = write_cfg(tmp_path, "fast.cfg", fast_validate_text().replace(
        "k_users = 2,5", "k_users = 2"))
    code = ("import sys; from thzra import cli; "
            f"cli.main(['validate', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "sys.exit('scipy.stats' in sys.modules)")
    assert run_python(code, timeout=300) == 0
    assert (tmp_path / "out" / "validation_report.json").is_file()


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
    before = {p.name: p.read_bytes() for p in cells}

    # interrupt emulation: drop some cells, rerun, everything byte-identical
    cells[1].unlink()
    cells[5].unlink()
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
    after = {p.name: p.read_bytes()
             for p in sorted((out / "sweep").glob("cell_*.csv"))}
    assert after == before

    # a cell written under an older schema is recomputed, not reused
    cells[3].write_text("#schema: thzra.sweep.cell.v1\nmu,p_out\n1,0.5\n")
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
    after = {p.name: p.read_bytes()
             for p in sorted((out / "sweep").glob("cell_*.csv"))}
    assert after == before
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert len(manifest["outputs"]) == 9

    # an unchanged rerun reuses every cell: no file is rewritten
    stamps = cell_stamps(out)
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
    assert cell_stamps(out) == stamps
    assert cell_bytes(out) == before

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
    for a, b in zip(s_files, p_files):
        assert a.read_bytes() == b.read_bytes()
    # env var caps the worker count without changing results
    monkeypatch.setenv(cli.ENV_PARALLEL, "1")
    capped = tmp_path / "capped"
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "2",
                     "--out", str(capped), "--parallel", "8"]) == 0
    for a, b in zip(s_files, sorted((capped / "sweep").glob("*.csv"))):
        assert a.read_bytes() == b.read_bytes()


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
