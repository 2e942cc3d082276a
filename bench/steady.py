"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 bench/steady.py

Runs `run.py --trace 0` on every workload of BENCHMARK.json, for its
`run_seconds`, with seeds 1..10 (set A) and then 11..20 (set B),
interleaving the workloads so both sets span the same host conditions,
followed by two traced runs per workload. For each end-to-end
metric and workload it prints the median and quartiles of each set, the
interquartile range as a share of the median, and how far set B's median
lies above set A's. These figures set the bounds in BENCHMARK.json. It also
checks that the share of failed analyses is the same in every run and that
every count metric repeats exactly between the two traced runs. Everything
is also written to `bench/out/steady.json`.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUNS = 10  # per set and workload


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    print(f"  {workload} seed {seed} trace {trace}: {result['wall_s']:.1f} s, "
          f"correct={result['correct']} "
          f"failed {result['failed']}/{result['attempted']} "
          + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                     if trace == 0),
          flush=True)
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    # Unwind on SIGTERM too, so that subprocess.run stops the current run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    names = [w["name"] for w in config["workloads"]]
    results: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in names}
    for label, first_seed in (("A", 1), ("B", RUNS + 1)):
        print(f"set {label}", flush=True)
        for seed in range(first_seed, first_seed + RUNS):
            for w in names:
                results[w][label].append(run(w, seed, seconds, 0))
    traced = {w: [run(w, seed, seconds, 1) for seed in (1, 2)] for w in names}

    summary: dict[str, dict] = {}
    ok = True
    for w in names:
        summary[w] = {}
        runs = results[w]["A"] + results[w]["B"]
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            ok = False
            print(f"{w}: failed shares {sorted(shares)}, all correct: "
                  f"{all(r['correct'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            a = spread([r["metrics"][metric]["value"] for r in results[w]["A"]])
            b = spread([r["metrics"][metric]["value"] for r in results[w]["B"]])
            summary[w][metric] = {"A": a, "B": b, "b_over_a": b["median"] / a["median"] - 1}
            print(f"{w:<11} {metric:<13} A {a['median']:.5g} [{a['q1']:.5g}, {a['q3']:.5g}] "
                  f"iqr {a['iqr_share']:.3f} | B {b['median']:.5g} [{b['q1']:.5g}, "
                  f"{b['q3']:.5g}] iqr {b['iqr_share']:.3f} | B/A-1 "
                  f"{summary[w][metric]['b_over_a']:+.3f}")
        first, second = (t["metrics"] for t in traced[w])
        moved = [k for k, m in first.items() if m["unit"] != "s"
                 and m["value"] != second[k]["value"]]
        print(f"{w:<11} traced counts repeat: {not moved} {moved or ''}")
        ok = ok and not moved
        summary[w]["failed_share"] = sorted(shares)
        summary[w]["traced"] = traced[w]
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(
        {"runs": RUNS, "seconds": seconds, "summary": summary, "results": results},
        indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
