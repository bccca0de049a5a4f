"""thzra benchmark: drive the CLI as users run it and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the CLI runs from ``src/`` with nothing
installed.  The workload's config is written from the seed, then CLI runs
(one process at a time, ``--parallel 1``) repeat until the next one would
end after S seconds, at least MIN_RUNS times; untraced, set-up probes run
between the first CLI runs, within the S seconds.  Every CLI run is an
operation: it fails on an unexpected exit code, a missing output, a failed
correctness check or CSVs that differ from the first run of the same seed.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced runs
with runs under perfbench/tracer.py and prints the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Exit status is 0 once a result is printed (``correct`` carries failures)
and 2 when no result can be produced.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_RUNS = 3
SETUP_REPEATS = 5
SETUP_CODE = ("import sys\nfrom thzra import cli\n"
              "cli.validate_config(cli.read_config(sys.argv[1]))")
# A shared VM can change speed by up to 40 % over minutes (seen on a 2-vCPU
# VM), and CLI wall times follow it.  A fixed task of about 1 s that uses
# none of thzra, but starts Python, imports numpy, and does array and
# interpreter work as the CLI does, follows the same swings (correlation
# 0.83-0.86 between medians of 6 to 10 consecutive runs).  It runs before
# every untraced CLI run, and every time metric is scaled by
# REFERENCE_S / (its median over the run): seconds on a host where the task
# takes REFERENCE_S.  The task is the same on every commit, so a change to
# the program moves the scaled times as it moves the raw ones.
REFERENCE_CODE = """
import numpy
rng = numpy.random.default_rng(0)
for _ in range(3):
    x = rng.standard_normal(4_000_000)
    y = numpy.sort(x)
    float((numpy.exp(-y * y) * x).sum())
d = {}
for i in range(300_000):
    d[i % 1000] = d.get(i % 1000, 0) + i * 3 // 7
"""
REFERENCE_S = 1.0
# Functions whose spans are reported; each gets .s, .self_s and .calls.
# A function missing from the program is reported as ABSENT, not as 0.
FUNCTIONS = (
    "cli.main", "cli.read_config", "params.validate_config",
    "cli.write_csv_atomic", "streams.substream",
    "protocol.run_batch", "protocol.admit_users", "protocol.run_frame",
    "protocol.account_energy",
    "channel.draw_snr_batch", "channel.sample_absorption_db",
    "channel.sample_path_gain", "channel.sample_fading",
    "channel.sample_misalignment", "channel.path_gain_cdf",
    "analytics.gamma_lower_regularized", "analytics.cdf_snr_no_fading",
    "validation.ks_compare", "validation.chi_square_compare",
    "validation.outage_mc", "validation.simulator_agreement",
    "validation.bound_sweep",
)
LAYERS = ("params", "cli", "streams", "channel", "protocol", "analytics",
          "validation")
ABSENT = -1.0     # no value: the function is gone, or a ratio has no base


@dataclass
class Run:
    wall: float
    rss_mb: float
    traced: bool
    outcome: Optional[workloads.Outcome] = None
    spans: Optional[dict] = None
    output_bytes: int = 0
    cells: int = 0
    cells_failed: int = 0


def spawn(argv: List[str], env: dict, log: Path):
    """Run argv to completion; return (wall seconds, peak RSS MB, exit code)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=fh,
                                cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_once(wl: workloads.Workload, env: dict, work_dir: Path, i: int,
             traced: bool, digests: List[str]) -> Run:
    out = work_dir / f"run{i}"
    spans_path = work_dir / f"spans{i}.json"
    cli_args = [wl.command, "--config", str(wl.config), "--out", str(out),
                "--parallel", "1"]
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                "--"] + cli_args
    else:
        argv = [sys.executable, "-m", "thzra.cli"] + cli_args
    wall, rss, code = spawn(argv, env, work_dir / f"run{i}.log")
    run = Run(wall, rss, traced)
    try:
        if code not in wl.exit_codes:
            tail = (work_dir / f"run{i}.log").read_text()[-400:]
            raise workloads.CheckFailed(f"exit code {code}: {tail}")
        run.outcome = wl.check(out)
        digest = workloads.csv_digest(out)
        digests.append(digest)
        if digest != digests[0]:
            raise workloads.CheckFailed("CSVs differ from the first run")
        if traced:
            run.spans = json.loads(spans_path.read_text())
        run.output_bytes = sum(p.stat().st_size for p in out.rglob("*")
                               if p.is_file())
        manifest = json.loads((out / "run_manifest.json").read_text())
        run.cells = sum(1 for p in manifest["outputs"] if p.startswith("sweep/"))
        run.cells_failed = len(manifest.get("partial_notes", []))
    except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
        run.outcome = None
        print(f"run {i}: FAILED: {exc}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    return run


def probe(argv, env, work_dir) -> float:
    """Wall seconds of a helper process that must succeed."""
    wall, _, code = spawn([sys.executable, "-c"] + argv, env,
                          work_dir / "probe.log")
    if code != 0:
        raise workloads.WorkloadError(
            "probe failed:\n" + (work_dir / "probe.log").read_text())
    return wall


def measure(wl, env, work_dir, seconds, trace):
    """Closed loop: start a run while it is expected to end in the budget.

    Untraced, every CLI run is preceded by a reference probe, and each of
    the first SETUP_REPEATS also by a set-up probe, so the probes are spread
    over the run; their time counts against the budget.  Returns (runs,
    set-up seconds, reference seconds).
    """
    runs: List[Run] = []
    setups: List[float] = []
    refs: List[float] = []
    digests: List[str] = []
    min_runs = 4 if trace else MIN_RUNS     # traced: two of each kind
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(runs) >= min_runs:
            step = statistics.median(r.wall for r in runs)
            if refs:
                step += statistics.median(refs)
            if elapsed + step > seconds:
                return runs, setups, refs
        if not trace:
            if len(setups) < SETUP_REPEATS:
                setups.append(probe([SETUP_CODE, str(wl.config)], env,
                                    work_dir))
            refs.append(probe([REFERENCE_CODE], env, work_dir))
        traced = trace and len(runs) % 2 == 1
        runs.append(run_once(wl, env, work_dir, len(runs), traced, digests))


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(runs: List[Run], setups: List[float], scale: float) -> dict:
    """Samples of each end-to-end metric, times multiplied by scale."""
    walls = [r.wall * scale for r in runs]
    ok = [r for r in runs if r.outcome]
    if ok:
        work = [r.outcome.work / (r.wall * scale) for r in ok]
        # CLT: each estimate's share of the run costs (hw / 1%)^2 times more
        # to bring its 95 % CI half-width down to 1 % of the estimate.
        to_1pct = [r.wall * scale * statistics.fmean(
            (hw / (0.01 * est)) ** 2 for est, hw in r.outcome.estimates)
            for r in ok]
    else:
        work = to_1pct = [0.0]
    return {
        "wall_s": (walls, "s"),
        "setup_s": ([x * scale for x in setups], "s"),
        "peak_rss_mb": ([r.rss_mb for r in runs], "MB"),
        "work_per_s": (work, "1/s"),
        "s_to_1pct": (to_1pct, "s"),
    }


def _median_or_absent(values):
    return statistics.median(values) if values else ABSENT


def per_layer(runs: List[Run]) -> dict:
    traced = [r for r in runs if r.traced and r.spans]
    plain = [r.wall for r in runs if not r.traced]
    out = {}
    funcs = [r.spans["functions"] for r in traced]
    for name in FUNCTIONS:
        present = [f[name] for f in funcs if name in f]
        out[f"{name}.s"] = (_median_or_absent([p[1] for p in present]), "s")
        out[f"{name}.self_s"] = (_median_or_absent([p[2] for p in present]),
                                 "s")
        out[f"{name}.calls"] = (present[-1][0] if present else ABSENT,
                                "count")
    for layer in LAYERS:
        selfs = [sum(v[2] for k, v in f.items()
                     if k.split(".")[0] == layer) for f in funcs]
        out[f"layer.{layer}.self_s"] = (_median_or_absent(selfs), "s")
    c = traced[-1].spans["counters"] if traced else {}
    last = traced[-1] if traced else None

    def ratio(a, b):
        return a / b if b else ABSENT

    batch_s = max(out["protocol.run_batch.s"][0], 0.0)
    out.update({
        "protocol.slots": (c.get("slots", ABSENT), "count"),
        "protocol.slots_per_s": (ratio(c.get("slots", 0), batch_s), "1/s"),
        "protocol.admission_ratio": (ratio(c.get("admitted", 0),
                                           c.get("provisioned", 0)), "ratio"),
        "channel.draw_snr_batch.draws": (c.get("snr_draws", ABSENT), "count"),
        "channel.draw_snr_batch.draws_per_call": (
            ratio(c.get("snr_draws", 0), c.get("snr_batches", 0)), "count"),
        "validation.outage_mc.draws": (c.get("outage_draws", ABSENT), "count"),
        "cli.output_bytes": (last.output_bytes if last else ABSENT, "B"),
        "cli.sweep.cells_done": (last.cells if last else ABSENT, "count"),
        # every run writes into a fresh directory, so no cell is resumed
        "cli.sweep.cells_skipped": (0 if last else ABSENT, "count"),
        "cli.sweep.cells_failed": (last.cells_failed if last else ABSENT,
                                   "count"),
        "trace.overhead_s": (
            statistics.median(r.wall for r in traced) - statistics.median(plain)
            if traced and plain else ABSENT, "s"),
    })
    return out


def run_metadata() -> dict:
    try:
        desc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        desc = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "thzra").glob("*.py")))
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"git_describe": desc, "python": sys.version.split()[0],
            **versions, "nproc": os.cpu_count(), "src_lines": src_lines}


def print_layer_shares(metrics: dict) -> None:
    wall = metrics["cli.main.s"][0]
    if wall <= 0:
        return
    print(f"layer self time as share of cli.main ({wall:.3f} s):")
    for layer in LAYERS:
        share = metrics[f"layer.{layer}.self_s"][0] / wall
        print(f"  {layer:<11} {100 * share:5.1f} %")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in ("src/thzra/cli.py", "configs/default.cfg",
                 "configs/sweep_outage.cfg"):
        if not (ROOT / need).is_file():
            print(f"perfbench: {need} not found under {ROOT}; run from a "
                  "thzra source checkout", file=sys.stderr)
            return 2

    work_dir = ROOT / ".bench_out" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    work_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    try:
        wl = workloads.make(args.workload, args.seed, ROOT, work_dir)
        runs, setups, refs = measure(wl, env, work_dir, args.seconds,
                                     args.trace)
    except workloads.WorkloadError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for r in runs if r.outcome is None)
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} CLI runs "
          f"({sum(r.traced for r in runs)} traced), fail_ratio "
          f"{failed}/{len(runs)}")
    print("metadata " + json.dumps(run_metadata(), sort_keys=True))
    if args.trace:
        metrics = per_layer(runs)
        for name, (value, unit) in metrics.items():
            shown = "absent" if value == ABSENT else f"{value:.6g}"
            print(f"  {name:<44} {shown:>12} {unit}")
        print_layer_shares(metrics)
    else:
        ref = statistics.median(refs)
        samples = end_to_end(runs, setups, REFERENCE_S / ref)
        metrics = {}
        for name, (values, unit) in samples.items():
            metrics[name] = (statistics.median(values), unit)
            tail = tail_percentile(values)
            tail_text = (f", p{tail[0]} {tail[1]:.6g}" if tail
                         else ", no tail percentile (n < 20)")
            print(f"  {name:<12} {metrics[name][0]:.6g} {unit} "
                  f"(median of n={len(values)}{tail_text})")
        print(f"  work unit: {wl.work_unit}; times scaled by {REFERENCE_S} s "
              f"/ reference median {ref:.4f} s (n={len(refs)})")
        print("  unscaled wall_s samples: "
              + " ".join(f"{r.wall:.3f}" for r in runs)
              + "; setup_s: " + " ".join(f"{x:.3f}" for x in setups))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
