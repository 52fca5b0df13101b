#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py collect DIR [--workloads W,...] [--seeds 1-10]
        Runs perfbench/run.py once per workload and seed (untraced, the
        run length from BENCHMARK.json) and saves each run's stdout as
        DIR/<workload>.seed<N>.out.

    python3 perfbench/compare.py report SET_A [SET_B]
        For every end-to-end metric of BENCHMARK.json prints, per workload,
        each set's median and quartiles, the spread (interquartile distance
        as a share of the median) against the metric's bound, and with two
        sets the change of the median in the metric's worse direction
        against the bound. A spread above a third of the bound is flagged,
        as is any change beyond the bound. Also compares the share of failed
        operations, which must match exactly.

Run it from the root of a checkout. Quartiles are those of Python's
statistics.quantiles(values, n=4).
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def collect(args):
    bench = load_benchmark()
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for name in names:
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            (out / f"{name}.seed{seed}.out").write_text(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "(no output)"
            print(f"{name} seed={seed} exit={proc.returncode} {last}", flush=True)


def load_set(path):
    """{workload: [result dict, ...]} from the last stdout line of each run."""
    runs = {}
    for f in sorted(Path(path).glob("*.out")):
        lines = f.read_text().strip().splitlines()
        if not lines:
            continue
        runs.setdefault(f.name.split(".seed")[0], []).append(json.loads(lines[-1]))
    return runs


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(args):
    bench = load_benchmark()
    sets = [load_set(p) for p in args.sets]
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        if not all(name in s for s in sets):
            continue
        print(f"== {name}")
        fails = []
        for s in sets:
            att = sum(r["attempted"] for r in s[name])
            fl = sum(r["failed"] for r in s[name])
            fails.append((fl, att))
            if not all(r["correct"] for r in s[name]):
                print("   INCORRECT output in some run")
                ok = False
        print("   failed/attempted: " + "  ".join(f"{f}/{a}" for f, a in fails))
        if len(fails) == 2 and fails[0][0] * fails[1][1] != fails[1][0] * fails[0][1]:
            print("   FAILED SHARE DIFFERS")
            ok = False
        for m in bench["end_to_end"]:
            cols = []
            meds = []
            for s in sets:
                vals = [r["metrics"][m["name"]]["value"] for r in s[name]]
                med, q1, q3, spread = stats(vals)
                meds.append(med)
                flag = ""
                if spread > m["bound"] / 3:
                    flag = " (spread > bound/3)"
                    ok = ok and spread <= m["bound"]
                cols.append(f"med={med:.4g} q1={q1:.4g} q3={q3:.4g} n={len(vals)} "
                            f"spread={spread:.3f}{flag}")
            line = f"   {m['name']:<14} bound={m['bound']:<5} " + " | ".join(cols)
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                verdict = "WORSE BEYOND BOUND" if worse > m["bound"] else "ok"
                ok = ok and worse <= m["bound"]
                line += f" | change(worse)={worse:+.3f} {verdict}"
            print(line)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    r = sub.add_parser("report")
    r.add_argument("sets", nargs="+")
    args = ap.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    if len(args.sets) > 2:
        ap.error("report takes one or two sets")
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
