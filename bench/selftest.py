#!/usr/bin/env python3
"""Self-tests of the benchmark, at the tiny size.

    python3 bench/selftest.py

Checks that a seed fixes the inputs and the result digest, that the
digest matches the committed one, that another seed changes the inputs,
that a layer returning a wrong result shows up as failed jobs on the
workload that uses it, and that a tiny run of every workload finishes
within a few seconds as a separate process.
"""

import dataclasses
import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

import run

TINY_SECONDS = 0.3

# Result digests of the tiny workloads at seed 7 on the seed program. A
# change to the program that changes any answer the digest covers changes
# these; update them only when that change of answer is intended.
EXPECTED_DIGESTS = {
    "build": "6e05ab6dd34ced13cc668bd14daf246ff261a9f0e8f6d6675fc41b08bff727af",
    "certify": "7548e4af0404090f4cd56c4befce6fed3d024ab1f6ba1d0cf077dcf6951f0a55",
    "refute": "004db6017fbf9b3c6650d72a7602a9f1c2f8120ae810a38a429d0ca8eacc3ae6",
    "recover": "b8c30ba84d304e91b6167136bd4237f04035defa7f6de97da6753dbf050726bf",
}


def tiny(workload, seed, patch=None, trace=False):
    """Set up and measure one tiny workload in process; ``patch(prog)`` may
    replace program functions after set-up."""
    bench = run.Bench(workload, seed, "tiny")
    try:
        bench.setup()
        if patch:
            patch(bench.prog)
        return bench.measure(TINY_SECONDS, trace)
    finally:
        bench.close()


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_digest(self):
        for workload in run.workloads.WORKLOADS:
            a, b = tiny(workload, 7), tiny(workload, 7)
            self.assertTrue(a["correct"] and b["correct"], workload)
            self.assertEqual(a["inputs_digest"], b["inputs_digest"], workload)
            self.assertEqual(a["digest"], b["digest"], workload)
            self.assertEqual(a["digest"], EXPECTED_DIGESTS[workload], workload)

    def test_other_seed_other_inputs(self):
        for workload in run.workloads.WORKLOADS:
            self.assertNotEqual(tiny(workload, 7)["inputs_digest"],
                                tiny(workload, 8)["inputs_digest"], workload)

    def test_traced_run_keeps_results(self):
        for workload in run.workloads.WORKLOADS:
            res = tiny(workload, 7, trace=True)
            self.assertTrue(res["correct"], res["errors"] + res["notes"])
            self.assertEqual(res["digest"], tiny(workload, 7)["digest"])
            self.assertGreater(res["metrics"]["cli.calls"]["value"], 0)


def wrong_verify(prog):
    mod = prog.modules["verify"]
    real = mod.verify_exhaustive

    def lose_failures(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), failures=[])
    mod.verify_exhaustive = lose_failures


def lose_one_failure(prog):
    mod = prog.modules["verify"]
    real = mod.verify_exhaustive

    def keep_first(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, failures=res.failures[:1])
    mod.verify_exhaustive = keep_first


def no_collision(prog):
    prog.modules["attack"].find_collision = lambda *args, **kwargs: None


def drop_ties(prog):
    mod = prog.modules["recover"]
    real = mod.decode

    def first_minimizer(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, minimizers=res.minimizers[:1])
    mod.decode = first_minimizer


def wrong_decode(prog):
    mod = prog.modules["recover"]
    real = mod.decode

    def shift_support(A, b, s, amp_bound, budget=mod.DEFAULT_BUDGET):
        res = real(A, b, s, amp_bound, budget)
        moved = tuple(mod.SparseSignal(x.dimension,
                                       tuple((i + 1) % x.dimension
                                             for i in x.support[-1:]),
                                       x.values[-1:])
                      for x in res.minimizers)
        return dataclasses.replace(res, minimizers=moved)
    mod.decode = shift_support


def wrong_cover(prog):
    mod = prog.modules["cover"]
    real = mod.verify_cover

    def first_point(inst, budget=mod.DEFAULT_BUDGET):
        res = real(inst, budget)
        if res.accepted:
            return res
        return dataclasses.replace(res, uncovered=(0, 0))  # on every line
    mod.verify_cover = first_point


def wrong_construct(prog):
    mod = prog.modules["construct"]
    real = mod.construct_scaled

    def off_by_one(m, k):
        matrix, params = real(m, k)
        return matrix, dataclasses.replace(
            params, scalings=tuple(s % (params.d - 1) + 1 for s in params.scalings),
            scale_reports=None)
    mod.construct_scaled = off_by_one


class WrongLayerTest(unittest.TestCase):
    def assert_caught(self, workload, patch):
        clean = tiny(workload, 7)
        self.assertEqual(clean["failed"], 0, clean["errors"])
        bad = tiny(workload, 7, patch)
        self.assertGreater(bad["failed"], 0)
        self.assertFalse(bad["correct"])

    def test_lost_failures(self):
        self.assert_caught("refute", wrong_verify)

    def test_one_lost_failure(self):
        self.assert_caught("refute", lose_one_failure)

    def test_collision_never_found(self):
        self.assert_caught("refute", no_collision)

    def test_dropped_tied_minimizers(self):
        self.assert_caught("recover", drop_ties)

    def test_wrong_decode(self):
        self.assert_caught("recover", wrong_decode)

    def test_wrong_uncovered_point(self):
        self.assert_caught("refute", wrong_cover)

    def test_wrong_scalings(self):
        self.assert_caught("build", wrong_construct)


class SmokeTest(unittest.TestCase):
    def test_tiny_run_of_each_workload(self):
        script = Path(run.__file__).resolve()
        for workload in run.workloads.WORKLOADS:
            for trace in ("0", "1"):
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(script), "--workload", workload,
                     "--seed", "3", "--seconds", "1", "--trace", trace,
                     "--size", "tiny"],
                    cwd=run.ROOT, capture_output=True, text=True, timeout=60)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertLess(time.monotonic() - t0, 10, workload)
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(sorted(last),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(last["correct"], proc.stdout)


if __name__ == "__main__":
    unittest.main()
