#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print one table.

    python3 bench/report.py [--seed 1] [--seconds 20] [--out FILE]

Each run is its own process (so peak memory is the workload's own), the
same as ``bench/run.py`` would be run alone. The table lists every
end-to-end metric by name and unit per workload, the result digest, and
the busy-time share of each layer from the traced run. ``--out`` also
writes the figures with the machine's description as JSON.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent


def run_one(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].removeprefix("info "))
    return info, json.loads(lines[-1])


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "system": platform.system()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--out", default=None, help="write the figures as JSON here")
    args = p.parse_args(argv)

    report = {"machine": machine(), "seed": args.seed,
              "seconds": args.seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        info, plain = run_one(workload, args.seed, args.seconds, 0)
        _, traced = run_one(workload, args.seed, args.seconds, 1)
        report["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"], "failed": plain["failed"],
            "failed_frac": plain["failed"] / plain["attempted"],
            "latency_samples": info["samples"], "digest": info["digest"],
            "end_to_end": plain["metrics"], "per_layer": traced["metrics"]}

    m = report["machine"]
    print(f"{m['cpu']}, {m['nproc']} CPUs, Python {m['python']}; "
          f"seed {args.seed}, {args.seconds:g} s per run")
    for workload, r in report["workloads"].items():
        print(f"\n{workload}: correct {r['correct']}, {r['attempted']} jobs, "
              f"failed_frac {r['failed_frac']:.4g}, "
              f"{r['latency_samples']} latency samples, digest {r['digest'][:16]}")
        for name, v in r["end_to_end"].items():
            print(f"  {name:14s} {v['value']:>12.5g} {v['unit']}")
        layers = r["per_layer"]
        shares = [f"{layer} {layers[layer + '.share']['value']:.3f}"
                  for layer in tracing.LAYERS]
        shares.append(f"cli self {layers['cli.self_share']['value']:.3f}")
        print("  busy share: " + ", ".join(shares))
        print(f"  trace.overhead_frac {layers['trace.overhead_frac']['value']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["correct"] for r in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
