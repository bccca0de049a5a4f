"""Command line: config ingestion, experiment orchestration, CSV/JSON output.

Subcommands: simulate | analyze | validate | sweep, each taking
--config/--seed/--out.  Every run writes a manifest last (atomic
completion marker) listing all files it produced; CSVs start with a
#schema: comment line and are byte-identical across reruns with the same
config and seed.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

# One BLAS thread unless the user chose a count: no command does BLAS work
# large enough for OpenBLAS to thread (np.dot on <= 4096 elements, a 64-node
# eigvalsh), and starting its pool is about half of numpy's import.  Runs in
# parallel only through --parallel's processes.  Set before numpy loads, which
# nothing in the package does ahead of this module.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
        "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__, analytics, channel, protocol, validation
from .errors import ConfigError
from .params import (SWEEP_AXES, Experiment, GammaAbsorption, ProtocolConfig,
                     RunConfig, apply_cell, db_to_linear, read_value,
                     run_config)
from .params import validate_config  # noqa: F401  (re-exported)

ENV_PARALLEL = "THZRA_MAX_PARALLEL"


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

def read_config(path) -> Dict[str, str]:
    """Read an INI-style config into the flat 'section.key' string map."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(p.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    raw = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            raw[f"{section}.{key}"] = value.strip()
    return raw


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return repr(float(v))   # plain-float repr even for numpy scalars
    return str(v)


def _write_atomic(path: Path, text: str) -> None:
    """Write-temp-then-rename, so no reader sees a half-written file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, newline="")
    try:
        os.replace(tmp, path)
    except OSError:
        tmp.unlink()
        raise


def write_csv_atomic(path: Path, schema: str, header: Sequence[str],
                     rows: Sequence[Sequence]) -> None:
    """CSV with a #schema: first line, written atomically."""
    lines = [f"#schema: {schema}", ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def write_json_atomic(path: Path, data) -> None:
    """JSON with sorted keys and numpy scalars as floats, written atomically."""
    _write_atomic(path, json.dumps(data, indent=2, sort_keys=True, default=float)
                  + "\n")


def _version_string() -> str:
    try:
        desc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=5,
                              cwd=Path(__file__).parent)
        if desc.returncode == 0 and desc.stdout.strip():
            return f"{__version__}+g{desc.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


def _digest(obj) -> str:
    """sha256 of a dataclass's resolved values, whatever their spelling."""
    text = json.dumps(asdict(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class Manifest:
    """Run manifest: written last, lists every output file of the run, its
    timings and its work counters (neither ever reaches a CSV)."""

    def __init__(self, command: str, config_path, cfg: RunConfig, out_dir: Path):
        self.data = {
            "command": command,
            "config": str(config_path),
            "config_digest": _digest(cfg),
            "resolved_config": asdict(cfg),
            "seed": int(cfg.exp.protocol.seed),
            "version": _version_string(),
            "out_dir": str(out_dir),
            "outputs": [],
            "timings_s": {},
            "counters": {},
            "partial_run": False,
        }
        self._t0 = time.monotonic()
        self.out_dir = out_dir

    def add(self, path: Path):
        rel = os.path.relpath(path, self.out_dir)
        if rel not in self.data["outputs"]:
            self.data["outputs"].append(rel)

    def count(self, name: str, amount: int = 1):
        counters = self.data["counters"]
        counters[name] = counters.get(name, 0) + int(amount)

    def mark_partial(self, note: str):
        self.data["partial_run"] = True
        self.data.setdefault("partial_notes", []).append(note)

    def write(self) -> None:
        self.data["timings_s"]["total"] = round(time.monotonic() - self._t0, 3)
        write_json_atomic(self.out_dir / "run_manifest.json", self.data)


def _outage_closed_form(exp: Experiment, gamma_th: float, gamma_bar_db) -> float:
    """No-fading outage probability at one average SNR, in closed form."""
    q = analytics.OutageQuery(gamma_th=gamma_th,
                              gamma_bar=db_to_linear(gamma_bar_db),
                              k_h=exp.link.k_h)
    return analytics.cdf_snr_no_fading(q, exp.absorption, exp.misalignment.rho,
                                       exp.link)


def _row_seed(seed: int, *parts) -> int:
    """Stable per-row seed derived from the run seed and row identity."""
    text = "|".join([str(seed)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_HEADER = ["K", "scheme", "mean_delay", "stderr_delay",
              "mean_energy_uj", "stderr_energy_uj",
              "mean_transmissions", "stderr_transmissions",
              "mean_k_admitted", "n_trials"]


def cmd_simulate(cfg: RunConfig, out_dir: Path, manifest: Manifest,
                 dump_trials: bool = False) -> int:
    exp = cfg.exp
    rows = []
    trial_rows = []
    for scheme in cfg.schemes:
        for k in cfg.k_users:
            e = exp.with_protocol(scheme=scheme, n_total=k,
                                  seed=_row_seed(exp.protocol.seed, scheme, k))
            stats, frames = protocol.run_batch(e)
            manifest.count("frames", stats.n_trials)
            manifest.count("slots", int(frames[1].sum()))
            manifest.count("admitted", int(frames[0].sum()))
            rows.append([k, scheme, stats.mean_delay, stats.se_delay,
                         stats.mean_energy_uj, stats.se_energy_uj,
                         stats.mean_transmissions, stats.se_transmissions,
                         stats.mean_k_admitted, stats.n_trials])
            if dump_trials:
                trial_rows += [[t, scheme, *frame, k] for t, frame in
                               enumerate(zip(*(a.tolist() for a in frames)))]
    manifest.data["admission"] = {"q": protocol.pass_probability(exp)}
    agg_path = out_dir / "simulate_aggregate.csv"
    write_csv_atomic(agg_path, "thzra.simulate.v2", SIM_HEADER, rows)
    manifest.add(agg_path)
    if dump_trials:
        tpath = out_dir / "simulate_trials.csv"
        write_csv_atomic(tpath, "thzra.trials.v2",
                         ["trial_id", "scheme", "K_admitted", "total_slots",
                          "total_transmissions", "energy_uJ", "K_provisioned"],
                         trial_rows)
        manifest.add(tpath)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

ANALYZE_HEADER = ["K", "d_ftp", "d_ftp_lo", "d_ftp_hi",
                  "d_atp", "d_atp_lo", "d_atp_hi",
                  "e_ftp", "e_ftp_lo", "e_ftp_hi",
                  "e_atp", "e_atp_lo", "e_atp_hi"]


def cmd_analyze(cfg: RunConfig, out_dir: Path, manifest: Manifest) -> int:
    exp = cfg.exp
    rows = []
    for k in sorted(set(cfg.k_users)):
        table = analytics.series_table(k)
        rows.append([k] + [v for name in analytics.SERIES for v in table[name]])
    de_path = out_dir / "analyze_delay_energy.csv"
    write_csv_atomic(de_path, "thzra.analyze.delay_energy.v1", ANALYZE_HEADER, rows)
    manifest.add(de_path)

    # closed-form outage grid (no-fading law)
    out_rows = [[db, _outage_closed_form(exp, cfg.gamma_th, db)]
                for db in cfg.outage_grid_db]
    o_path = out_dir / "analyze_outage.csv"
    write_csv_atomic(o_path, "thzra.analyze.outage.v1",
                     ["gamma_bar_db", "p_out"], out_rows)
    manifest.add(o_path)

    # a component off or not random has an infinite exponent
    alpha = exp.fading.alpha if exp.fading.enabled else math.inf
    z = (exp.absorption.z_for(exp.link)
         if isinstance(exp.absorption, GammaAbsorption) else math.inf)
    do = analytics.diversity_order(alpha, exp.fading.mu,
                                   exp.misalignment.rho, z)
    d_path = out_dir / "analyze_diversity.csv"
    write_csv_atomic(d_path, "thzra.analyze.diversity.v1",
                     ["exp_fading", "exp_misalignment", "exp_pathloss",
                      "effective"],
                     [[do.exponents[0], do.exponents[1], do.exponents[2],
                       do.effective]])
    manifest.add(d_path)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _suite_results(cfg: RunConfig, manifest: Manifest) -> List[dict]:
    exp, gamma_th, seed = cfg.exp, cfg.gamma_th, cfg.exp.protocol.seed
    n_gof, n_mc = cfg.gof_samples, cfg.val_outage_draws
    results: List[dict] = []

    def record(suite, passed, detail):
        results.append({"suite": suite, "passed": bool(passed), "detail": detail})

    from . import streams as st
    rho = exp.misalignment.rho
    # ln h_p = ln(U V) / rho against the CDF in L, the draws and law the
    # outage score uses: h_p itself underflows to 0 for a small rho
    log_hp = np.log(channel.uniform_product(st.substream(seed, 901), n_gof)) / rho
    rep = validation.ks_compare(log_hp,
                                lambda L: channel.misalignment_cdf_log(L, rho))
    record("misalignment_ks", rep.passed,
           {"statistic": rep.statistic, "threshold": rep.threshold})

    if isinstance(exp.absorption, GammaAbsorption):
        model = exp.absorption
        zeta = channel.sample_absorption_db(model, st.substream(seed, 902), n_gof)
        rep = validation.ks_compare(
            zeta, lambda x: channel.gammainc(model.k, x / model.beta))
        record("absorption_gamma_ks", rep.passed,
               {"statistic": rep.statistic, "threshold": rep.threshold})

        hl = channel.sample_path_gain(model, exp.link, st.substream(seed, 903),
                                      n_gof)
        rep = validation.chi_square_compare(
            hl, lambda x: channel.path_gain_cdf(x, model, exp.link))
        record("path_gain_chi2", rep.passed,
               {"statistic": rep.statistic, "threshold": rep.threshold,
                "p_value": rep.p_value})

    fp = replace(exp.fading, eta=1.0, kappa=0.0, enabled=True)
    hf = channel.sample_fading(fp, st.substream(seed, 904), n_gof)
    rep = validation.ks_compare(hf, lambda u: channel.alpha_mu_cdf(u, fp))
    record("fading_alpha_mu_ks", rep.passed,
           {"statistic": rep.statistic, "threshold": rep.threshold})

    if isinstance(exp.absorption, GammaAbsorption):
        exp_nf = replace(exp, fading=replace(exp.fading, enabled=False))
        curve = validation.outage_mc(exp_nf, gamma_th, cfg.val_grid_db, n_mc,
                                     seed=_row_seed(seed, "no_fading_outage"))
        manifest.count("outage_draws", n_mc * curve.gamma_bar_db.size)
        z = validation.bonferroni_z(curve.gamma_bar_db.size)
        pts = []
        for db, phat, se, vrf in zip(curve.gamma_bar_db, curve.p_out,
                                     curve.se, curve.vrf):
            p = _outage_closed_form(exp, gamma_th, db)
            pts.append({"gamma_bar_db": db, "mc": phat, "closed_form": p,
                        "se": se, "vrf": vrf,
                        "ok": bool(abs(phat - p) <= z * se)})
        record("no_fading_outage", all(pt["ok"] for pt in pts),
               {"z": z, "points": pts, "conditioned": curve.conditioned,
                "tilt": curve.tilt, "re_bounded": curve.re_bounded,
                "stratified": curve.stratified})

    k_sweep = [3, 10, 40, 100, 1000, 10000]
    rows = validation.bound_sweep(k_sweep)
    record("bound_sweep", all(r.passed for r in rows),
           {"K": k_sweep, "failures": [r.metric for r in rows if not r.passed]})

    agree = validation.simulator_agreement(exp, ["ftp", "atp"], cfg.val_k_users,
                                           cfg.val_trials)
    record("simulator_vs_series", all(r.passed for r in agree),
           {"worst_rel_err": max(r.rel_err for r in agree),
            "rows": [asdict(r) for r in agree]})
    return results


def cmd_validate(cfg: RunConfig, out_dir: Path, manifest: Manifest) -> int:
    manifest.count("outage_draws", 0)
    results = _suite_results(cfg, manifest)
    report_path = out_dir / "validation_report.json"
    write_json_atomic(report_path, {"suites": results, "all_passed":
                                    all(r["passed"] for r in results)})
    manifest.add(report_path)
    width = max(len(r["suite"]) for r in results)
    for r in results:
        print(f"{r['suite']:<{width}}  {'PASS' if r['passed'] else 'FAIL'}")
    return 0 if all(r["passed"] for r in results) else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

CELL_SCHEMA = "thzra.sweep.cell.v18"


@dataclass(frozen=True)
class SweepCell:
    """What one sweep cell is computed from and nothing else; its digest
    keys the file, so an input no chosen metric reads never forces a
    recompute."""

    coords: Dict[str, float]     # axis name -> value
    exp: Experiment              # the base experiment with coords applied
    schemes: tuple               # empty unless the protocol metric is chosen
    metrics: tuple
    gamma_th: Optional[float]    # None unless the outage metric is chosen
    outage_draws: Optional[int]


def _sweep_cell(cfg: RunConfig, coords: Dict[str, float]) -> SweepCell:
    exp = apply_cell(cfg.exp, coords)
    protocol_metric = "protocol" in cfg.sweep_metrics
    outage = "outage" in cfg.sweep_metrics
    if not protocol_metric:     # the outage draws read the channel and seed only
        exp = replace(exp, protocol=ProtocolConfig(seed=exp.protocol.seed))
    return SweepCell(coords, exp, cfg.schemes if protocol_metric else (),
                     cfg.sweep_metrics, cfg.gamma_th if outage else None,
                     cfg.sweep_outage_draws if outage else None)


def _cell_slug(cell: Dict[str, float]) -> str:
    parts = [f"{k}={_fmt(v)}" for k, v in sorted(cell.items())]
    return "_".join(parts).replace("/", "-")


def _run_group(group: Sequence[tuple]) -> list:
    """Compute and write the pending cells of one group, (cell, path,
    schema) triples whose cells differ only in gamma_bar_db; returns per
    cell the outage draws it made, or the exception that failed it.

    The group's outage points come from one outage_mc call over their
    average SNRs, seeded by the cell slug without gamma_bar_db, so they
    share their channel draws; each point is bit-identical whichever of
    the group's cells are pending.  If that call raises, so does this.
    """
    cell = group[0][0]
    curve = None
    if "outage" in cell.metrics:
        axes = {k: v for k, v in cell.coords.items() if k != "gamma_bar_db"}
        curve = validation.outage_mc(
            cell.exp, cell.gamma_th,
            [10.0 * math.log10(c.exp.link.avg_snr) for c, _, _ in group],
            cell.outage_draws,
            seed=_row_seed(cell.exp.protocol.seed, _cell_slug(axes), "outage"))
    return [_attempt(_write_cell, c, path, schema, curve, j)
            for j, (c, path, schema) in enumerate(group)]


def _write_cell(cell: SweepCell, path: Path, schema: str,
                curve: Optional[validation.OutageCurve], j: int) -> int:
    """Run the cell's protocol metric, if chosen, and write the cell with
    point j of its group's outage curve; returns the outage draws made."""
    e = cell.exp
    slug = _cell_slug(cell.coords)
    cols = sorted(cell.coords)
    row = [cell.coords[k] for k in cols]
    if "protocol" in cell.metrics:
        for scheme in cell.schemes:
            ee = e.with_protocol(scheme=scheme,
                                 seed=_row_seed(e.protocol.seed, slug, scheme))
            stats, _ = protocol.run_batch(ee)
            cols += [f"{scheme}_mean_delay", f"{scheme}_mean_transmissions",
                     f"{scheme}_mean_energy_uj"]
            row += [stats.mean_delay, stats.mean_transmissions,
                    stats.mean_energy_uj]
    if curve is not None:
        cols += ["p_out", "p_out_ci_lo", "p_out_ci_hi", "p_out_se", "vrf",
                 "conditioned", "stratified", "tilt", "re_bounded",
                 "outage_draws"]
        row += [float(curve.p_out[j]), float(curve.ci_lo[j]),
                float(curve.ci_hi[j]), float(curve.se[j]),
                float(curve.vrf[j]), curve.conditioned, curve.stratified,
                curve.tilt, int(curve.re_bounded), cell.outage_draws]
    write_csv_atomic(path, schema, cols, [row])
    return cell.outage_draws or 0


def _attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _is_current_cell(path: Path, schema: str) -> bool:
    """True for a cell file an earlier run finished under this schema line."""
    try:
        with open(path) as fh:
            return fh.readline() == f"#schema: {schema}\n"
    except OSError:             # missing, or not a readable file
        return False


def _check_sweep(cfg: RunConfig) -> None:
    """The sweep checks run_config cannot make, as it knows no command."""
    if not cfg.sweep_axes:
        raise ConfigError("config section 'sweep' sets no axis: give one "
                          f"of {', '.join(SWEEP_AXES)}")
    if ("protocol" in cfg.sweep_metrics and "k_users" not in cfg.sweep_axes
            and len(cfg.k_users) > 1):
        raise ConfigError(
            f"config field 'protocol.n_users' lists {len(cfg.k_users)} user "
            "counts, but a protocol sweep runs one: give them as the "
            "sweep.k_users axis")


def cmd_sweep(cfg: RunConfig, out_dir: Path, manifest: Manifest,
              parallel: int) -> int:
    axes = cfg.sweep_axes
    names = sorted(axes)
    for name in ("cells_done", "cells_skipped", "cells_failed", "outage_draws"):
        manifest.count(name, 0)
    cell_dir = out_dir / "sweep"
    cell_dir.mkdir(parents=True, exist_ok=True)

    # cells that differ only in gamma_bar_db share their outage draws
    shared = "outage" in cfg.sweep_metrics
    groups: Dict[tuple, list] = {}
    for combo in itertools.product(*(axes[n] for n in names)):
        coords = dict(zip(names, combo))
        cell = _sweep_cell(cfg, coords)
        path = cell_dir / f"cell_{_cell_slug(coords)}.csv"
        schema = f"{CELL_SCHEMA} digest={_digest(cell)}"
        if _is_current_cell(path, schema):
            manifest.add(path)          # completed by an earlier run
            manifest.count("cells_skipped")
        else:                           # missing, or from another config/schema
            key = tuple((k, v) for k, v in coords.items()
                        if not (shared and k == "gamma_bar_db"))
            groups.setdefault(key, []).append((cell, path, schema))

    todo = list(groups.values())
    if parallel > 1 and todo:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            futures = [pool.submit(_run_group, group) for group in todo]
            results = [fut.exception() or fut.result() for fut in futures]
    else:
        results = [_attempt(_run_group, group) for group in todo]
    for group, result in zip(todo, results):
        if isinstance(result, BaseException):   # failed before writing a cell
            result = [result] * len(group)
        for (cell, path, _), outcome in zip(group, result):
            if isinstance(outcome, BaseException):  # a failed cell: partial run
                manifest.mark_partial(f"cell {cell.coords} failed: {outcome}")
                manifest.count("cells_failed")
            else:
                manifest.add(path)
                manifest.count("cells_done")
                manifest.count("outage_draws", outcome)
    return 1 if manifest.data["partial_run"] else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="thzra",
        description="THz multiuser random-access lab: simulate, analyze, "
                    "validate, sweep")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("simulate", "run protocol Monte Carlo and write aggregate CSV"),
            ("analyze", "evaluate closed-form delay/energy/outage curves"),
            ("validate", "run the statistical validation suites"),
            ("sweep", "cartesian parameter sweep with resumable cells")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--seed", default=None, help="override protocol.seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--trials", default=None,
                       help="override protocol.trials")
        p.add_argument("--parallel", type=int, default=1,
                       help="worker processes for sweep cells")
        p.add_argument("--dump-trials", action="store_true",
                       help="also write per-trial rows (simulate)")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = read_config(args.config)
        if args.seed is not None:
            raw["protocol.seed"] = args.seed
        if args.trials is not None:
            raw["protocol.trials"] = args.trials
        cfg = run_config(raw)
        if args.command == "sweep":
            _check_sweep(cfg)
        cap = read_value(os.environ, ENV_PARALLEL, int)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    parallel = max(1, args.parallel)
    if cap is not None:
        parallel = min(parallel, max(1, cap))

    manifest = Manifest(args.command, args.config, cfg, out_dir)
    if args.command == "simulate":
        code = cmd_simulate(cfg, out_dir, manifest, dump_trials=args.dump_trials)
    elif args.command == "analyze":
        code = cmd_analyze(cfg, out_dir, manifest)
    elif args.command == "validate":
        code = cmd_validate(cfg, out_dir, manifest)
    else:
        code = cmd_sweep(cfg, out_dir, manifest, parallel)
    manifest.write()
    return code


if __name__ == "__main__":
    sys.exit(main())
