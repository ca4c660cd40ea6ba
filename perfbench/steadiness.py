#!/usr/bin/env python3
"""Runs every benchmark workload as two sets of runs and compares the sets.

    python3 perfbench/steadiness.py [--runs 10]

Run from the root of a checkout that holds BENCHMARK.json. Every workload of
BENCHMARK.json runs at its `run_seconds`, with its command, metrics and
bounds; each run uses its own seed (set 1: 1..N, set 2: 1001..1000+N). For
every workload and end-to-end metric it prints each set's median and
quartiles, the spread (third minus first quartile, as a share of the
median), and whether:

  * each set's spread is within the metric's bound (not required of setup_s,
    which times one cold set-up per run and is judged by its median),
  * the two sets' medians differ by at most the bound, in either direction,
  * both sets fail the same share of the operations they attempted.

Around each run it also reads the host's CPU steal time from /proc/stat, so
that a slow set can be traced to a busy host from data; each set's median
steal share is printed and every run's is kept. All results are written to
.bench_out/steadiness.json. Exits 1 if any run fails, returns an incorrect
result, or a comparison does not hold.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path.cwd()


def cpu_ticks():
    """(steal, total) ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user and nice.
    return (fields[7], sum(fields[:8])) if len(fields) >= 8 else None


def run_once(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    before = cpu_ticks()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    after = cpu_ticks()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    result["steal_share"] = None
    if before and after and after[1] > before[1]:
        result["steal_share"] = (after[0] - before[0]) / (after[1] - before[1])
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(metric, first, second):
    """Share by which the second median is worse than the first (negative:
    better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    report, ok = {}, True
    for workload in workloads:
        sets = []
        for base in (1, 1001):
            runs = []
            for i in range(args.runs):
                runs.append(run_once(spec, workload, base + i))
                print(f"{workload} seed {base + i}: done", file=sys.stderr, flush=True)
            sets.append(runs)
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        steal = [statistics.median([r["steal_share"] or 0.0 for r in runs]) for runs in sets]
        rows = {}
        print(f"\n{workload}: failed share {shares[0]:.6g} / {shares[1]:.6g};"
              f" median host steal {steal[0]:.2%} / {steal[1]:.2%} of CPU time")
        if shares[0] != shares[1]:
            ok = False
        print(f"  {'metric':16s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'bound':>6s}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            drift = worse_by(metric, stats[0]["median"], stats[1]["median"])
            spread_ok = name == "setup_s" or all(s["spread"] <= bound for s in stats)
            agree = spread_ok and abs(drift) <= bound
            ok &= agree
            rows[name] = {"sets": stats, "worse_by": drift, "agree": agree}
            for i, s in enumerate(stats):
                verdict = (f"drift {drift:+.3f}: {'agree' if agree else 'DISAGREE'}"
                           if i == 1 else "")
                print(f"  {name:16s} {i + 1:3d} {s['median']:12.5g} {s['q1']:12.5g}"
                      f" {s['q3']:12.5g} {s['spread']:7.3f} {bound:6.2f}  {verdict}")
        report[workload] = {"failed_share": shares, "median_steal_share": steal,
                            "metrics": rows,
                            "runs": [[{"seed": base + i, "steal_share": r["steal_share"],
                                       "metrics": r["metrics"]} for i, r in enumerate(runs)]
                                     for base, runs in zip((1, 1001), sets)]}

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=1))
    print("\nall sets agree" if ok else "\nSETS DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
