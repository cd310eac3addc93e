#!/usr/bin/env python3
"""Closed-loop benchmark of the fullrank command line.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports ``fullrank`` from ``src/``.
One process, one thread and one client: each job is a short sequence of
``fullrank.cli.run([..., "--json"])`` calls on inputs generated from the
seed, and the next job starts when the previous one has finished. The
job list is run in whole passes until ``--seconds`` have passed and at
least MIN_SAMPLES latencies are in, so every job runs at least once and
all equally often. Every run of a job is checked independently of the
program (see workloads.py) and must reproduce the result digest of that
job's first run.

With ``--trace 0`` the metrics are end to end: throughput, job latency
median and 90th percentile, set-up time and peak memory. With
``--trace 1`` every job runs twice in turn, untraced and traced, and the
metrics are per layer (see tracing.py and NOTES.md), plus the tracing
overhead measured on those pairs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
starts with ``info`` and carries the result and input digests.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_BASE = ROOT / ".bench_work"

# Every untraced run has at least MIN_SAMPLES job latencies, so that the
# 90th percentile has at least ten samples above it.
MIN_SAMPLES = 100

# Set-up is repeated at least MIN_SETUPS times and, while the total stays
# under SETUP_BUDGET_S, up to MAX_SETUPS times; its median is reported.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 40, 2.0

# Result fields that enter the digest. Counters, timings, the arithmetic
# used and stderr are left out, so that a faster kernel with the same
# answers keeps the digest.
RESULT_FIELDS = ("entries", "scalings", "failures", "certificate",
                 "minimizers", "residual", "ambiguous", "accepted",
                 "uncovered", "upper_bound", "lower_bound", "regime", "b")

# Flags whose file the serialize layer reads or writes.
FILE_FLAGS = ("--in", "--signal", "--measurement", "--out")

# Shares of the answers, printed with a traced run: (name, numerator,
# denominator) of the work counters. They describe the inputs and the
# right answers, not speed, and the checks already fail a job whose
# answer changes, so they are not metrics.
ANSWER_RATIOS = (("failure_ratio", "verify.failures", "verify.minors"),
                 ("hit_ratio", "attack.hits", "attack.runs"),
                 ("unique_ratio", "recover.unique", "recover.decodes"),
                 ("reject_ratio", "cover.rejects", "cover.runs"))

MODULES = ("cli", "construct", "verify", "attack", "recover", "cover",
           "serialize")

# The host's speed drifts by tens of percent within seconds when other
# work shares its cores. Every timed interval is therefore divided by the
# mean time of a fixed calibration loop run just before and just after
# it, and reported in calibrated seconds: CALIBRATION_S per loop. The loop
# is sized to take about 1 ms on a quiet 2-CPU Xeon host, so calibrated
# figures read close to wall-clock ones there.
CALIBRATION_S = 1e-3
CALIBRATION_REPS = 160


def calibration() -> float:
    """Seconds taken by a fixed pure-Python integer loop."""
    t0 = time.perf_counter()
    acc, row = 0, list(range(1, 33))
    for _ in range(CALIBRATION_REPS):
        for i in range(32):
            acc = (acc * 31 + row[i] * row[-i - 1]) % 1000003
        row = [x + 1 for x in row]
    return time.perf_counter() - t0


def load_program() -> SimpleNamespace:
    """Import fullrank afresh from this checkout's src/."""
    if not (SRC / "fullrank" / "__init__.py").is_file():
        raise SystemExit(f"error: no fullrank package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "fullrank" or n.startswith("fullrank.")]:
        del sys.modules[name]
    pkg = importlib.import_module("fullrank")
    if Path(pkg.__file__).resolve().parent != (SRC / "fullrank").resolve():
        raise SystemExit(f"error: fullrank imported from {pkg.__file__}, not {SRC}")
    modules = {n: importlib.import_module(f"fullrank.{n}") for n in MODULES}
    return SimpleNamespace(pkg=pkg, cli=modules["cli"], modules=modules)


def inputs_digest(jobs) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(".")):
        h.update(name.encode())
        with open(name, "rb") as fh:
            h.update(fh.read())
    h.update(json.dumps([[s.argv for s in j.steps] for j in jobs]).encode())
    return h.hexdigest()


def evaluate(job, results):
    """Check one run of a job; return its digest and work counters."""
    parts, work = [], Counter()
    for step, (code, out, err) in zip(job.steps, results):
        workloads.need(code in step.expect,
                       f"{step.argv[:2]} exited {code}, expected {step.expect}: "
                       + err.strip())
        doc = json.loads(out)
        if step.check:
            step.check(code, doc)
        if step.work:
            work.update(step.work(code, doc))
        for flag in FILE_FLAGS:
            if flag in step.argv:
                work["serialize.bytes"] += os.path.getsize(
                    step.argv[step.argv.index(flag) + 1])
        parts.append([code, {k: doc[k] for k in RESULT_FIELDS if k in doc}])
    blob = json.dumps(parts, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest(), work


def p90(xs) -> float:
    """90th percentile of xs; the sample itself when there is one."""
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


class Bench:
    """One workload at one seed, in its own scratch directory."""

    def __init__(self, workload: str, seed: int, size: str = "full"):
        self.workload, self.seed, self.size = workload, seed, size
        WORK_BASE.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_BASE)
        self._cwd = os.getcwd()
        os.chdir(self.workdir)

    def close(self) -> None:
        os.chdir(self._cwd)
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_BASE.rmdir()

    def setup(self) -> None:
        """Import the program, build the inputs, write the files; timed and
        repeated, and every repetition must produce the same inputs."""
        times, raw, digests = [], [], set()
        make = workloads.WORKLOADS[self.workload]
        before = calibration()
        while len(times) < MIN_SETUPS or (
                sum(raw) < SETUP_BUDGET_S and len(times) < MAX_SETUPS):
            t0 = time.perf_counter()
            prog = load_program()
            jobs = make(prog, random.Random(f"{self.workload}/{self.seed}"),
                        self.size)
            raw.append(time.perf_counter() - t0)
            after = calibration()
            times.append(raw[-1] * 2 * CALIBRATION_S / (before + after))
            before = after
            digests.add(inputs_digest(jobs))
        if len(digests) != 1:
            raise RuntimeError("set-up produced different inputs on repetition")
        self.prog, self.jobs = prog, jobs
        self.inputs_digest = digests.pop()
        self.setup_s = statistics.median(times)
        self.setup_wall_s = statistics.median(raw)

    def execute(self, job, tracer=None):
        """Run a job's calls; return the seconds spent inside cli.run and
        each call's (exit code, stdout, stderr)."""
        run = self.prog.cli.run
        elapsed, results = 0.0, []
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.install()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                for step in job.steps:
                    for buf in (out, err):
                        buf.seek(0)
                        buf.truncate()
                    t0 = time.perf_counter()
                    if tracer:
                        tracer.begin("cli")
                    try:
                        code = run(step.argv)
                    except Exception as exc:  # a traceback fails the job
                        code = None
                        err.write(repr(exc))
                    if tracer:
                        tracer.end()
                    elapsed += time.perf_counter() - t0
                    results.append((code, out.getvalue(), err.getvalue()))
                    if code is None:
                        break
        finally:
            if tracer:
                tracer.restore()
        return elapsed, results

    def measure(self, seconds: float, trace: bool) -> dict:
        n = len(self.jobs)
        first = [None] * n
        errors, work = [], Counter()
        attempted = failed = 0
        # untraced runs: latencies of the jobs that passed and time spent
        # on all of them, calibrated and wall clock
        latencies, wall_latencies = [], []
        spent = wall_spent = 0.0
        paired = {False: 0.0, True: 0.0}
        tracer = tracing.Tracer(self.prog.modules) if trace else None
        before = calibration()
        deadline = time.perf_counter() + seconds
        # Whole passes only, so every job runs equally often and the mix of
        # job sizes is the same in every run.
        passes = 0
        while (passes == 0 or time.perf_counter() < deadline
               or passes * n < MIN_SAMPLES):
            for idx, job in enumerate(self.jobs):
                # traced and untraced runs of a job take turns going first
                order = (idx + passes) % 2 == 0
                for traced in ((order, not order) if trace else (False,)):
                    attempted += 1
                    mark = len(tracer.spans) if traced else 0
                    wall, results = self.execute(job, tracer if traced else None)
                    after = calibration()
                    scale = 2 * CALIBRATION_S / (before + after)
                    before = after
                    if not traced:
                        spent += wall * scale
                        wall_spent += wall
                    try:
                        digest, counts = evaluate(job, results)
                        if first[idx] is None:
                            first[idx] = digest
                        workloads.need(digest == first[idx],
                                       "result digest differs from the job's first run")
                    except Exception as exc:  # a failed job is counted; the run goes on
                        failed += 1
                        if len(errors) < 5:
                            errors.append(f"{job.name}: {exc!r}")
                        continue
                    paired[traced] += wall * scale
                    if traced:
                        tracer.scale(mark, scale)
                        work.update(counts)
                    else:
                        latencies.append(wall * scale)
                        wall_latencies.append(wall)
            passes += 1
        digest = hashlib.sha256("".join(map(str, first)).encode()).hexdigest()
        result = {"attempted": attempted, "failed": failed, "errors": errors,
                  "digest": digest, "inputs_digest": self.inputs_digest,
                  "distinct_jobs": n, "samples": len(latencies), "notes": []}
        if trace:
            result["metrics"], sane = layer_metrics(tracer, work, paired)
            if not sane:
                result["notes"].append("layer busy time exceeds cli busy time")
            if tracer.missing:
                result["notes"].append("not traced: " + ", ".join(tracer.missing))
            result["notes"].append("answers (pinned by the checks): " + ", ".join(
                f"{name} {ratio(work[a], work[b]):.4g}"
                for name, a, b in ANSWER_RATIOS))
        else:
            sane = True
            result["metrics"] = end_to_end_metrics(
                latencies, spent, self.setup_s)
            uncalibrated = end_to_end_metrics(
                wall_latencies, wall_spent, self.setup_wall_s)
            result["notes"].append("wall clock, uncalibrated: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in uncalibrated.items()
                if k != "peak_rss_mb"))
        result["correct"] = failed == 0 and sane and bool(latencies)
        return result


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(latencies, spent, setup_s) -> dict:
    """Throughput counts only jobs that passed, over the time spent on all
    of them; latency quantiles are over the jobs that passed (0 if none)."""
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = latencies or [0.0]
    return {
        "jobs_per_s": metric(ratio(len(latencies), spent), "1/s"),
        "job_p50_ms": metric(1000 * statistics.median(lat), "ms"),
        "job_p90_ms": metric(1000 * p90(lat), "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_kib / 1024, "MB"),
    }


def ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, work, paired):
    """Per-layer metrics from the traced runs; also whether the layers'
    busy time fits inside the cli busy time."""
    totals = tracer.totals()
    cli_calls, cli_busy, cli_self = totals["cli"]
    out = {}
    for layer in tracing.LAYERS:
        calls, busy, _ = totals[layer]
        out[f"{layer}.calls"] = metric(calls, "count")
        out[f"{layer}.busy_s"] = metric(busy, "s")
        out[f"{layer}.share"] = metric(ratio(busy, cli_busy), "frac")

    def rate(name, layer, counter, unit="1/s"):
        out[name] = metric(ratio(work[counter], totals[layer][1]), unit)

    out["construct.columns"] = metric(work["construct.columns"], "count")
    rate("construct.columns_per_s", "construct", "construct.columns")
    out["verify.minors"] = metric(work["verify.minors"], "count")
    rate("verify.minors_per_s", "verify", "verify.minors")
    out["attack.search_vectors"] = metric(work["attack.search_vectors"], "count")
    rate("attack.search_vectors_per_s", "attack", "attack.search_vectors")
    out["recover.candidates"] = metric(work["recover.candidates"], "count")
    rate("recover.candidates_per_s", "recover", "recover.candidates")
    out["cover.points"] = metric(work["cover.points"], "count")
    rate("cover.points_per_s", "cover", "cover.points")
    out["serialize.bytes"] = metric(work["serialize.bytes"], "B")
    rate("serialize.bytes_per_s", "serialize", "serialize.bytes", "B/s")
    out["cli.calls"] = metric(cli_calls, "count")
    out["cli.busy_s"] = metric(cli_busy, "s")
    out["cli.self_s"] = metric(cli_self, "s")
    out["cli.self_share"] = metric(ratio(cli_self, cli_busy), "frac")
    out["trace.overhead_frac"] = metric(
        ratio(paired[True] - paired[False], paired[False]), "frac")
    layer_busy = sum(totals[layer][1] for layer in tracing.LAYERS)
    return out, layer_busy <= cli_busy * (1 + 1e-9)


def summary(args, res) -> list:
    lines = [
        f"workload {args.workload} seed {args.seed} size {args.size} "
        f"trace {args.trace}: {res['attempted']} job runs over "
        f"{res['distinct_jobs']} distinct jobs, {res['failed']} failed "
        f"(failed_frac {ratio(res['failed'], res['attempted']):.4g}), "
        f"{res['samples']} latency samples",
    ]
    lines += [f"  error: {e}" for e in res["errors"]]
    lines += [f"  note: {n}" for n in res["notes"]]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:30s} {m['value']:>16.6g} {m['unit']}")
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs in seconds, as a smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = Bench(args.workload, args.seed, args.size)
    try:
        bench.setup()
        res = bench.measure(args.seconds, bool(args.trace))
    finally:
        bench.close()
    print("\n".join(summary(args, res)))
    print("info " + json.dumps({"digest": res["digest"],
                                "inputs_digest": res["inputs_digest"],
                                "samples": res["samples"]}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
