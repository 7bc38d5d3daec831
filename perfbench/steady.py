#!/usr/bin/env python3
"""Steadiness check: run each workload k times in two sets and compare.

Usage (from the repository root):

    python3 perfbench/steady.py

Each workload in BENCHMARK.json runs RUNS times in each of two sets, for
BENCHMARK.json's run_seconds each time. The two sets are interleaved run by
run (set A, set B, set A, ...) and the workload order alternates between
rounds, so drift in the machine's load lands on both sets alike. Set A uses
seeds 1..RUNS, set B the next RUNS seeds. For every end-to-end metric of
every workload it prints each set's median and quartiles, and checks the
rules a regression gate relies on, with the bounds from BENCHMARK.json:

  * spread: (Q3 - Q1) / median of each set within the metric's bound, and
    below a third of it to call the metric steady;
  * agreement: set B's median not worse than set A's by more than the
    bound, in the metric's "better" direction;
  * failures: the share of failed operations identical in both sets.

Figures printed on "extra" lines (delay_p99_ms, and the workload-specific
capacity_subs, join_p99_ms, sim_s, solve_s) are summarized the same way
against EXTRA_BOUND; the gate does not read them. Exit status is 0 when every
end-to-end check passes.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # runs per workload per set
EXTRA_BOUND = 0.25
EXTRAS = {"delay_p99_ms": "lower", "capacity_subs": "higher", "join_p99_ms": "lower",
          "sim_s": "lower", "solve_s": "lower"}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result\n{proc.stdout}\n{proc.stderr}")
    for line in lines:
        if line.startswith("CHECK FAILED"):
            print(line, flush=True)
    extras = {}
    for line in lines:
        f = line.split()
        if len(f) == 5 and f[0] == "extra" and f[2] in EXTRAS:
            extras[f[2]] = float(f[3])
    return res, extras


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    data = {(s, w): [] for s in "AB" for w in names}
    for i in range(RUNS):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            for s in "AB":
                seed = 1 + i + (RUNS if s == "B" else 0)
                res, extras = run_once(w, seed, seconds)
                data[(s, w)].append((res, extras))
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
                print(f"run {i + 1}/{RUNS} set {s} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)

    ok = True
    print()
    print(f"{'workload':8} {'metric':18} {'set':3} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for w in names:
        for s in "AB":
            runs = data[(s, w)]
            if not all(r["correct"] for r, _ in runs):
                ok = False
                print(f"{w}: set {s} has a run with correct=false")
        shares = {s: sorted({r["failed"] / r["attempted"] for r, _ in data[(s, w)]}) for s in "AB"}
        if shares["A"] != shares["B"] or len(shares["A"]) != 1:
            ok = False
            print(f"{w}: failed share differs: A {shares['A']} B {shares['B']}")
        rows = [(name, m["better"], m["bound"], lambda r, e, n=name: r["metrics"][n]["value"]) for name, m in e2e.items()]
        rows += [(name, better, EXTRA_BOUND, lambda r, e, n=name: e.get(n)) for name, better in EXTRAS.items()]
        for name, better, bound, get in rows:
            vals = {s: [get(r, e) for r, e in data[(s, w)]] for s in "AB"}
            if any(v is None for s in "AB" for v in vals[s]):
                continue
            gated = name in e2e
            meds = {}
            for s in "AB":
                q1, med, q3 = statistics.quantiles(vals[s], n=4)
                meds[s] = med
                spread = (q3 - q1) / med if med else float("inf")
                verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
                if gated and spread > bound:
                    ok = False
                tag = name if gated else name + "*"
                print(f"{w:8} {tag:18} {s:3} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bound:6.2f}  {verdict}")
            worse = (meds["B"] - meds["A"]) / meds["A"] if better == "lower" else (meds["A"] - meds["B"]) / meds["A"]
            agree = worse <= bound
            if gated and not agree:
                ok = False
            print(f"{w:8} {'':18} B vs A: {worse:+.3f} worse ({'agree' if agree else 'DISAGREE'})")
    print("* not gated: workload-specific figure, summarized with bound", EXTRA_BOUND)
    print("RESULT", "steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
