#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's median,
quartiles and spread (interquartile distance over the median), next to
the bound BENCHMARK.json gives it.

    python3 perfbench/spread.py --workload push_fanout --seeds 1-10 [--seconds 16] [--trace 0]

Run it from the repository root. Every run's JSON line is appended to
--log (default perfbench/out/spread.jsonl) so two sets can be compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log", default=os.path.join(HERE, "out", "spread.jsonl"))
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    os.makedirs(os.path.dirname(args.log), exist_ok=True)
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(last)
        with open(args.log, "a") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))

    print(f"\n{'metric':<36}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:<36}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
              f"{'' if bound is None else bound:>7}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
