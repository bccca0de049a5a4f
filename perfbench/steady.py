"""Steadiness self-check and baseline recorder for the thzra benchmark.

    python3 perfbench/steady.py [--sets 2] [--seeds 10] [--workloads a,b]
                                [--out FILE]

Runs the command of BENCHMARK.json on every workload once per seed, in
--sets independent sets with different seeds, then one traced run per
workload.  For each end-to-end metric it prints, per set, the median, the
quartiles and the spread (Q3 - Q1) / median against the metric's bound, and
the drift |last median - first median| / first median, in either direction.
A spread above bound/3 is marked "wide"; a spread or a drift above the
bound is marked "FAIL" and makes the check fail.  Every metric, setup_s
included, is held to both tests.  --out writes the numbers, the run metadata and each workload's
layer shares from the traced run as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(spec, workload, seed, trace):
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} of "
              f"{result['attempted']} CLI runs failed\n{proc.stderr}")
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def shares(metrics):
    """Layer self times and function inclusive times as shares of cli.main."""
    total = metrics["cli.main.s"]["value"]
    layers = {layer: metrics[f"layer.{layer}.self_s"]["value"] / total
              for layer in run.LAYERS}
    functions = {fn: metrics[f"{fn}.s"]["value"] / total
                 for fn in run.FUNCTIONS if metrics[f"{fn}.s"]["value"] > 0}
    return layers, functions


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    report = {"metadata": run.run_metadata(),
              "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        report["workloads"][name] = {"sets": []}
    for s in range(args.sets):
        samples = {name: {m["name"]: [] for m in metrics} for name in names}
        failures = {name: 0 for name in names}
        for i in range(args.seeds):
            for name in names:
                result = bench(spec, name, 1000 * (s + 1) + i, 0)
                failures[name] += result["failed"]
                for m in metrics:
                    samples[name][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
        for name in names:
            stats = {m: summarize(v) for m, v in samples[name].items()}
            report["workloads"][name]["sets"].append(
                {"failed_cli_runs": failures[name], "metrics": stats})
            ok &= failures[name] == 0
    for name in names:
        sets = report["workloads"][name]["sets"]
        print(f"{name}: failed CLI runs per set "
              f"{[st['failed_cli_runs'] for st in sets]}")
        for m in metrics:
            bound = m["bound"]
            first = sets[0]["metrics"][m["name"]]
            last = sets[-1]["metrics"][m["name"]]
            drift = abs(last["median"] - first["median"]) / first["median"]
            line = [f"  {m['name']:<12} bound {bound:<5}"]
            for st in sets:
                x = st["metrics"][m["name"]]
                mark = (" FAIL" if x["spread"] > bound else
                        " wide" if x["spread"] > bound / 3 else "")
                ok &= x["spread"] <= bound
                line.append(f"med {x['median']:.5g} [{x['q1']:.5g}, "
                            f"{x['q3']:.5g}] spread {x['spread']:.3f}{mark}")
            ok &= drift <= bound
            line.append(f"drift {drift:.3f}{' FAIL' if drift > bound else ''}")
            print(" | ".join(line))
    for name in names:
        traced = bench(spec, name, 1, 1)
        layers, functions = shares(traced["metrics"])
        report["workloads"][name].update({
            "layer_self_shares": layers, "function_shares": functions,
            "trace_overhead_s": traced["metrics"]["trace.overhead_s"]["value"]})
        print(f"{name} layer self-time shares: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in layers.items()))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
