"""The benchmark's workloads: configs made from a seed, and the checks that
decide whether one CLI run of a workload produced correct output.

Every workload is a closed loop of one CLI process at a time with
``--parallel 1``.  Configs derive from the shipped ``configs/*.cfg``; the
seed only sets the config's random seed, so the amount of work is the same
for every seed.  Reference values are computed here from the paper's
series, not taken from the package under test.
"""
from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

Z95 = 1.959964
N_SE = 4.0                     # tolerance of a simulated mean, in standard errors

SIM_K = (2, 5, 10, 20, 40)
SIM_TRIALS = 400
# The median instantaneous SNR of configs/default.cfg is about 16.2 dB, so
# about half the users pass admission; the SNR ceiling 1/k_h^2 is 17.0 dB.
ADMISSION_QOS_DB = 16.2
ADMISSION_RATIO_RANGE = (0.1, 0.9)
GOF_K = (2, 5)
GOF_SAMPLES = 50_000
GOF_GAMMA_BAR_DB = (25, 29, 33)
GOF_TRIALS = 5000
GOF_OUTAGE_DRAWS = 200_000
# validate runs statistical tests at the 1-5 % level, so a correct program
# fails one of its suites for about one config seed in three.  check_gof
# rechecks every suite at a tolerance that a correct program misses with a
# probability below 1e-5, whatever the seed:
GOF_KS_FACTOR = 2.0           # KS statistic <= 2 x its 5 % threshold
GOF_CHI2_P_FLOOR = 1e-6       # chi-square p-value, against 0.01
GOF_OUTAGE_N_SE = 5.0         # |mc - closed form| <= 5 SE, against 3
GOF_AGREEMENT_TOL = 0.06      # simulator vs series, against 2 %: 7 SE at
                              # the noisiest row (ftp K=2 energy, SE 0.82 %)
OUTAGE_RHO = (2, 4.1)
OUTAGE_MU = (1.5, 2.5)
OUTAGE_GAMMA_BAR_DB = (40, 45, 50)
OUTAGE_DRAWS = 1_000_000


class CheckFailed(Exception):
    """The output of one CLI run is missing or wrong."""


class WorkloadError(Exception):
    """The generated workload would not load the layer it is meant to."""


@dataclass
class Outcome:
    """What one correct CLI run did: units of work, and each Monte Carlo
    estimate it printed with its 95 % CI half-width."""

    work: int
    estimates: List[Tuple[float, float]] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    command: str                        # thzra subcommand
    work_unit: str                      # what Outcome.work counts
    config: Path
    check: Callable[[Path], Outcome]    # output dir -> Outcome, or CheckFailed
    exit_codes: Tuple[int, ...] = (0,)  # validate exits 1 if a suite fails


def write_config(base: Path, dest: Path, values: Dict[str, object]) -> None:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(base.read_text())
    for key, value in values.items():
        section, option = key.split(".")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, option, str(value))
    with open(dest, "w") as fh:
        cp.write(fh)


def csv_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*.csv")):
        h.update(str(path.relative_to(out_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> List[dict]:
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("#schema: "):
        raise CheckFailed(f"{path.name}: no #schema line")
    return list(csv.DictReader(lines[1:]))


def _read_json(path: Path) -> dict:
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# reference series: expected slots and transmissions to drain k packets
# ---------------------------------------------------------------------------

def series_delay(scheme: str, k: int) -> float:
    if k <= 1 or scheme == "optimal":
        return float(k)
    if scheme == "ftp":        # p = 1/k: sum_j 1 / (j p (1-p)^(j-1))
        r = 1.0 - 1.0 / k
        return sum(k / (j * r ** (j - 1)) for j in range(1, k + 1))
    return 1.0 + sum((j / (j - 1)) ** (j - 1) for j in range(2, k + 1))


def series_transmissions(scheme: str, k: int) -> float:
    if k <= 1 or scheme == "optimal":
        return float(k)
    if scheme == "ftp":        # sum_j (1-p)^-(j-1)
        r = 1.0 - 1.0 / k
        return sum(r ** -(j - 1) for j in range(1, k + 1))
    return series_delay("atp", k)


def binomial_mixture(f: Callable[[str, int], float], scheme: str, n: int,
                     q: float) -> float:
    """E[f(scheme, K_admitted)] for K_admitted ~ Binomial(n, q)."""
    return sum(math.comb(n, k) * q ** k * (1 - q) ** (n - k) * f(scheme, k)
               for k in range(n + 1))


def _within(row: dict, col: str, se_col: str, expected: float) -> None:
    value, se = float(row[col]), float(row[se_col])
    if abs(value - expected) > N_SE * se + 1e-12 * expected:
        raise CheckFailed(
            f"{row['scheme']} K={row['K']}: {col} {value:.6g} vs expected "
            f"{expected:.6g}, SE {se:.3g}")


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def check_admission(out_dir: Path) -> Outcome:
    rows = _read_csv(out_dir / "simulate_aggregate.csv")
    expected = {(s, k) for s in ("ftp", "atp", "optimal") for k in SIM_K}
    if {(r["scheme"], int(r["K"])) for r in rows} != expected or \
            len(rows) != len(expected):
        raise CheckFailed("simulate_aggregate.csv rows != schemes x K")
    lo, hi = ADMISSION_RATIO_RANGE
    for r in rows:
        k, scheme = int(r["K"]), r["scheme"]
        q = float(r["mean_k_admitted"]) / k
        if not lo <= q <= hi:
            raise CheckFailed(f"{scheme} K={k}: admission ratio {q:.3f}")
        if scheme == "optimal":
            if float(r["mean_delay"]) != float(r["mean_k_admitted"]):
                raise CheckFailed(f"optimal K={k}: mean_delay != mean_k_admitted")
            continue
        _within(r, "mean_delay", "stderr_delay",
                binomial_mixture(series_delay, scheme, k, q))
        _within(r, "mean_transmissions", "stderr_transmissions",
                binomial_mixture(series_transmissions, scheme, k, q))
    return Outcome(
        work=sum(int(r["n_trials"]) for r in rows),
        estimates=[(float(r["mean_delay"]), Z95 * float(r["stderr_delay"]))
                   for r in rows])


def check_outage_tail(out_dir: Path) -> Outcome:
    manifest = _read_json(out_dir / "run_manifest.json")
    if manifest.get("partial_run") is not False:
        raise CheckFailed(f"partial sweep: {manifest.get('partial_notes')}")
    cells = sorted(p for p in manifest["outputs"] if p.startswith("sweep/"))
    n_cells = len(OUTAGE_RHO) * len(OUTAGE_MU) * len(OUTAGE_GAMMA_BAR_DB)
    if len(cells) != n_cells:
        raise CheckFailed(f"manifest lists {len(cells)} of {n_cells} cells")
    outcome = Outcome(work=0)
    for rel in cells:
        [row] = _read_csv(out_dir / rel)
        p, lo, hi = (float(row[c]) for c in ("p_out", "p_out_ci_lo",
                                             "p_out_ci_hi"))
        if not (0.0 < p and lo <= p <= hi):
            raise CheckFailed(f"{rel}: p_out {p} outside [{lo}, {hi}]")
        outcome.work += int(row["outage_draws"])
        outcome.estimates.append((p, (hi - lo) / 2.0))
    return outcome


def check_gof(out_dir: Path) -> Outcome:
    report = _read_json(out_dir / "validation_report.json")
    suites = {s["suite"]: s["detail"] for s in report["suites"]}
    expected = {"misalignment_ks", "absorption_gamma_ks", "path_gain_chi2",
                "fading_alpha_mu_ks", "no_fading_outage", "bound_sweep",
                "simulator_vs_series"}
    if set(suites) != expected:
        raise CheckFailed(f"validation suites {sorted(suites)}")
    for name in ("misalignment_ks", "absorption_gamma_ks",
                 "fading_alpha_mu_ks"):
        d = suites[name]
        if not d["statistic"] <= GOF_KS_FACTOR * d["threshold"]:
            raise CheckFailed(f"{name}: statistic {d['statistic']:.4g}, "
                              f"threshold {d['threshold']:.4g}")
    if not suites["path_gain_chi2"]["p_value"] >= GOF_CHI2_P_FLOOR:
        raise CheckFailed(f"path_gain_chi2: p-value "
                          f"{suites['path_gain_chi2']['p_value']:.3g}")
    if suites["bound_sweep"]["failures"]:
        raise CheckFailed(f"bound_sweep: {suites['bound_sweep']['failures']}")
    worst = suites["simulator_vs_series"]["worst_rel_err"]
    if not worst <= GOF_AGREEMENT_TOL:
        raise CheckFailed(f"simulator_vs_series: relative error {worst:.4g}")
    n = GOF_OUTAGE_DRAWS
    points = suites["no_fading_outage"]["points"]
    if [pt["gamma_bar_db"] for pt in points] != list(GOF_GAMMA_BAR_DB):
        raise CheckFailed("no_fading_outage: wrong grid")
    for pt in points:
        se = math.sqrt(pt["closed_form"] * (1 - pt["closed_form"]) / n)
        if not abs(pt["mc"] - pt["closed_form"]) <= GOF_OUTAGE_N_SE * se:
            raise CheckFailed(f"no_fading_outage at {pt['gamma_bar_db']} dB: "
                              f"mc {pt['mc']:.4g}, closed form "
                              f"{pt['closed_form']:.4g}")
    # validate reports no interval, so the half-width is the binomial one
    estimates = [(pt["mc"], Z95 * math.sqrt(pt["mc"] * (1 - pt["mc"]) / n))
                 for pt in points]
    return Outcome(work=2 * len(GOF_K) * GOF_TRIALS, estimates=estimates)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def admission_guard(root: Path, config: Path) -> float:
    """Estimated share of users the admission config lets in.

    A threshold at or above the impairment ceiling 1/k_h^2 admits nobody and
    turns every row into zeros without an error, so the generator refuses
    any config whose share is not well inside (0, 1).
    """
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    from thzra import channel, cli

    exp = cli.validate_config(cli.read_config(config))
    qos_db = 10.0 * math.log10(exp.protocol.gamma_qos)
    if exp.link.k_h > 0 and qos_db >= -20.0 * math.log10(exp.link.k_h):
        raise WorkloadError(
            f"gamma_qos_db {qos_db:.2f} is at or above the SNR ceiling "
            f"{-20.0 * math.log10(exp.link.k_h):.2f} dB: nobody is admitted")
    rngs = [np.random.default_rng([0, i]) for i in range(3)]
    gammas = channel.draw_snr_batch(exp, 200_000, *rngs)
    ratio = float(np.mean(gammas > exp.protocol.gamma_qos))
    lo, hi = ADMISSION_RATIO_RANGE
    if not lo <= ratio <= hi:
        raise WorkloadError(f"admission ratio {ratio:.3f} at gamma_qos_db "
                            f"{qos_db:.2f} is outside [{lo}, {hi}]")
    return ratio


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def make(name: str, seed: int, root: Path, work_dir: Path) -> Workload:
    """Write the workload's config under work_dir and describe how to run it."""
    default = root / "configs" / "default.cfg"
    sweep = root / "configs" / "sweep_outage.cfg"
    config = work_dir / f"{name}.cfg"
    simulate = {"protocol.scheme": "ftp,atp,optimal",
                "protocol.n_users": _join(SIM_K),
                "protocol.trials": SIM_TRIALS, "protocol.seed": seed}
    if name == "admission":
        write_config(default, config, {**simulate,
                                       "protocol.energy_model": "realistic",
                                       "protocol.gamma_qos_db": ADMISSION_QOS_DB})
        admission_guard(root, config)
        return Workload(name, "simulate", "frames", config, check_admission)
    if name == "outage_tail":
        write_config(sweep, config, {
            "sweep.rho": _join(OUTAGE_RHO), "sweep.mu": _join(OUTAGE_MU),
            "sweep.gamma_bar_db": _join(OUTAGE_GAMMA_BAR_DB),
            "sweep.metrics": "outage", "sweep.outage_draws": OUTAGE_DRAWS,
            "protocol.seed": seed})
        return Workload(name, "sweep", "draws", config, check_outage_tail)
    if name == "gof":
        write_config(default, config, {
            "validation.k_users": _join(GOF_K),
            "validation.n_samples": GOF_SAMPLES,
            "validation.gamma_bar_db": _join(GOF_GAMMA_BAR_DB),
            "validation.trials": GOF_TRIALS,
            "validation.outage_draws": GOF_OUTAGE_DRAWS,
            "protocol.seed": seed})
        return Workload(name, "validate", "frames", config, check_gof,
                        exit_codes=(0, 1))
    raise WorkloadError(f"unknown workload {name!r}")


WORKLOADS = ("admission", "outage_tail", "gof")
