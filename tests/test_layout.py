"""Checks on the shape of the package: module boundaries, the exported
names, runnable demos and the exact-number contract every entry point
keeps."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fullrank
from fullrank import (
    AttackConfig,
    BudgetExceededError,
    ConstructionParams,
    CoverInstance,
    DegeneracyCertificate,
    IntMatrix,
    Measurement,
    SparseSignal,
    centered_residue,
    columns_on_hyperplane,
    combination_vector,
    construct,
    construct_scaled,
    construct_vandermonde,
    construct_width,
    cover_lower_bound,
    decode,
    det_exact,
    encode,
    find_collision,
    find_prime_in,
    guarantee_holds,
    max_width,
    min_cover_bruteforce,
    scale_matrix,
    select_columns,
    verify_certificate,
    verify_cover,
    verify_exhaustive,
    verify_sampled,
)
from fullrank.construct import width_regime
from fullrank.intmath import primitive_vector

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fullrank"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """Names starting with '_' that the module imports from a sibling."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not node.module.startswith("fullrank"):
            continue
        found += [f"{node.module or '.'}.{a.name}" for a in node.names
                  if a.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    assert private_imports(path) == []


def test_exports_resolve_and_are_listed():
    # a deleted function must not leave a stale name in __all__, and a
    # name imported for export must not be missing from it
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for a in node.names if not a.name.startswith("_")}
    assert [n for n in fullrank.__all__ if not hasattr(fullrank, n)] == []
    assert sorted(imported - set(fullrank.__all__)) == []


def test_default_budget_assigned_once():
    # one work budget: every module that has a default budget imports it
    assigned = [path.name for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Assign)
                for target in node.targets
                if getattr(target, "id", None) == "DEFAULT_BUDGET"]
    assert assigned == ["errors.py"]
    from fullrank import attack, cover, errors, recover, verify
    construct = sys.modules["fullrank.construct"]  # the package rebinds the name
    for module in (attack, construct, cover, recover, verify):
        assert module.DEFAULT_BUDGET is errors.DEFAULT_BUDGET


def test_budget_refused_only_by_check_budget():
    # one refusal rule: every search passes its count to errors.check_budget
    raising = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if "BudgetExceededError(" in path.read_text()]
    assert raising == ["errors.py"]


def src_env() -> dict:
    """The environment with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point():
    # python -m fullrank runs the same command line as the console script
    proc = subprocess.run(
        [sys.executable, "-m", "fullrank", "bounds", "--m", "2", "--k", "10", "--json"],
        cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["lower_bound"] == 50


A = construct_vandermonde(2, 3)[0]  # 2 x 5
X = SparseSignal(5, (1,), (2,))

# (entry point and field, a valid int for that field, the call with x there)
INT_FIELDS = [
    ("IntMatrix.rows", 1, lambda x: IntMatrix(x, 2, (1, 2))),
    ("IntMatrix.cols", 1, lambda x: IntMatrix(1, x, (1,))),
    ("IntMatrix.entries", 1, lambda x: IntMatrix(1, 2, (x, 2))),
    ("IntMatrix.modulus", 3, lambda x: IntMatrix(1, 2, (1, -1), modulus=x)),
    ("IntMatrix.entry_bound", 1, lambda x: IntMatrix(1, 2, (1, -1), entry_bound=x)),
    ("det_exact", 1, lambda x: det_exact([(x, 0), (0, 1)])),
    ("combination_vector", 1, lambda x: combination_vector(A, (x,))),
    ("select_columns", 1, lambda x: select_columns(A, (x,))),
    ("centered_residue.x", 1, lambda x: centered_residue(x, 3)),
    ("centered_residue.p", 3, lambda x: centered_residue(1, x)),
    ("SparseSignal.dimension", 1, lambda x: SparseSignal(x, (0,), (1,))),
    ("SparseSignal.support", 1, lambda x: SparseSignal(5, (x,), (2,))),
    ("SparseSignal.values", 1, lambda x: SparseSignal(5, (1,), (x,))),
    ("SparseSignal.from_dense", 1, lambda x: SparseSignal.from_dense([0, x])),
    ("decode.s", 1, lambda x: decode(A, (0, 0), x, 1)),
    ("decode.amp_bound", 1, lambda x: decode(A, (0, 0), 1, x)),
    ("decode.budget", 11, lambda x: decode(A, (0, 0), 1, 1, x)),
    ("guarantee_holds.m", 2, lambda x: guarantee_holds(x, 1, ())),
    ("guarantee_holds.s", 1, lambda x: guarantee_holds(2, x, ())),
    ("CoverInstance.m", 2, lambda x: CoverInstance(x, 1, ((1, 0),))),
    ("CoverInstance.k", 1, lambda x: CoverInstance(2, x, ((1, 0),))),
    ("CoverInstance.normals", 1, lambda x: CoverInstance(2, 1, ((x, 0),))),
    ("verify_cover.budget", 9,
     lambda x: verify_cover(CoverInstance(2, 1, ((1, 0),)), x)),
    ("columns_on_hyperplane", 1, lambda x: columns_on_hyperplane(A, (x, 0))),
    ("primitive_vector", 1, lambda x: primitive_vector((x, 2))),
    ("find_prime_in.lo", 2, lambda x: find_prime_in(x, 10)),
    ("find_prime_in.hi", 3, lambda x: find_prime_in(2, x)),
    ("AttackConfig.t", 1, lambda x: find_collision(A, AttackConfig(x, 1, 2))),
    ("AttackConfig.lam", 1, lambda x: find_collision(A, AttackConfig(1, x, 2))),
    ("AttackConfig.min_agree", 2, lambda x: find_collision(A, AttackConfig(1, 1, x))),
    ("find_collision.budget", 1, lambda x: find_collision(A, AttackConfig(1, 1, 2), x)),
    ("verify_sampled.trials", 10, lambda x: verify_sampled(A, x, 1)),
    ("verify_sampled.seed", 1, lambda x: verify_sampled(A, 5, x)),
    ("verify_sampled.budget", 5, lambda x: verify_sampled(A, 5, 1, x)),
    ("verify_exhaustive.budget", 10, lambda x: verify_exhaustive(A, x)),
    ("min_cover_bruteforce.m", 2, lambda x: min_cover_bruteforce(x, 1)),
    ("min_cover_bruteforce.k", 1, lambda x: min_cover_bruteforce(2, x)),
    ("construct.d", 4, lambda x: construct(2, 3, x)),
    ("construct_vandermonde.m", 2, lambda x: construct_vandermonde(x, 3)),
    ("construct_vandermonde.k", 3, lambda x: construct_vandermonde(2, x)),
    ("construct_scaled.m", 2, lambda x: construct_scaled(x, 8)),
    ("construct_scaled.k", 8, lambda x: construct_scaled(2, x)),
    ("max_width.m", 2, lambda x: max_width(x, 3)),
    ("max_width.k", 1, lambda x: max_width(2, x)),
    ("width_regime.m", 2, lambda x: width_regime(x, 10)),
    ("width_regime.k", 2, lambda x: width_regime(3, x)),
    ("ConstructionParams.d", 7,
     lambda x: ConstructionParams(m=2, k=6, d=x, variant="vandermonde")),
    ("ConstructionParams.scalings", 1,
     lambda x: ConstructionParams(m=2, k=8, d=37, variant="scaled",
                                  scalings=(x,) + (1,) * 36)),
]

# (entry point and field, the call with the rational x there)
RATIONAL_FIELDS = [
    ("Measurement.b", lambda x: Measurement((x,), ())),
    ("Measurement.noise", lambda x: Measurement((0,), (x,))),
    ("Measurement.noise_bound", lambda x: Measurement((0,), (), x)),
    ("encode.e", lambda x: encode(A, X, (x, 0))),
    ("encode.noise_bound", lambda x: encode(A, X, None, x)),
    ("decode.b", lambda x: decode(A, (x, 0), 1, 1)),
    ("guarantee_holds.e", lambda x: guarantee_holds(2, 1, (x,))),
]


class TestExactNumberContract:
    """Library calls refuse what the JSON readers refuse: a float, a bool
    or a numeric string where an integer belongs, and a float, a bool or a
    zero denominator where a rational belongs. Nothing is coerced."""

    @pytest.mark.parametrize("call,valid", [(c, v) for _, v, c in INT_FIELDS],
                             ids=[name for name, _, _ in INT_FIELDS])
    def test_integer_field(self, call, valid):
        call(valid)
        for bad in (float(valid), True, str(valid)):
            with pytest.raises(ValueError):
                call(bad)

    @pytest.mark.parametrize("call", [c for _, c in RATIONAL_FIELDS],
                             ids=[name for name, _ in RATIONAL_FIELDS])
    def test_rational_field(self, call):
        for good in (3, Fraction(3, 10), "3/10", "0.3"):
            call(good)
        for bad in (0.1, True, "1/0"):
            with pytest.raises(ValueError):
                call(bad)

    def test_scale_matrix_c(self):
        # 2c must be a positive integer, so the accepted forms are of 3/2
        for good in (3, Fraction(3, 2), "3/2", "1.5"):
            assert scale_matrix(A, good).entries == tuple(
                2 * Fraction(good) * e for e in A.entries)
        for bad in (1.5, True, "1/0"):
            with pytest.raises(ValueError):
                scale_matrix(A, bad)

    def test_float_signal_not_truncated(self):
        # was support (1,) and value 2, silently
        with pytest.raises(ValueError):
            SparseSignal(5, (1.7,), (2.9,))

    def test_float_noise_not_taken_at_its_binary_value(self):
        # was b_0 = 75660473739824333/36028797018963968
        with pytest.raises(ValueError):
            encode(A, X, [0.1, 0])
        assert encode(A, X, ["0.1", 0]).b[0] == Fraction(21, 10)


@pytest.mark.parametrize("call,required,text", [
    (lambda: verify_cover(CoverInstance(3, 10 ** 2000, ((1, 0, 0),))),
     (2 * 10 ** 2000 + 1) ** 3, "needs at least 10^6000 steps"),
    (lambda: find_collision(A, AttackConfig(2, 10 ** 2200, 2)),
     ((2 * 10 ** 2200 + 1) ** 2 - 1) // 2, "needs at least 10^4400 steps"),
    (lambda: decode(A, (0, 0), 2, 10 ** 2200),
     1 + 5 * 2 * 10 ** 2200 + 10 * (2 * 10 ** 2200) ** 2,
     "needs at least 10^4401 steps"),
    (lambda: construct_vandermonde(2, 10 ** 5000), 2 * (10 ** 5000 + 1),
     "rows of more than 10000000 entries"),
    (lambda: construct_scaled(2, 10 ** 2200), 2 * ((10 ** 4400 + 1) // 2),
     "rows of more than 10000000 entries"),
], ids=["cover", "attack", "decode", "vandermonde", "scaled"])
def test_refusal_of_count_past_int_str_limit(call, required, text):
    # past Python's 4,300-digit int-to-str limit the refusal still carries
    # the exact count and writes it as the power of ten it reaches
    with pytest.raises(BudgetExceededError) as exc:
        call()
    assert exc.value.required == required
    message = str(exc.value)
    assert text in message and "10000000" in message and "\n" not in message
    assert "set_int_max_str_digits" not in message


BIG = 10 ** 5000  # past Python's 4,300-digit int-to-str limit


# one row per refusal site that writes an argument: each is refused with
# its own range message, the argument written as the power of ten it reaches
@pytest.mark.parametrize("call,text", [
    (lambda: decode(A, (0, 0), BIG, 1), "sparsity s=at least 10^5000 outside [0, 5]"),
    (lambda: encode(A, SparseSignal(BIG, (), ())),
     "signal dimension at least 10^5000 != matrix columns 5"),
    (lambda: construct_width(2, 3, BIG), "d=at least 10^5000 exceeds"),
    (lambda: construct_width(2, 3, -BIG), "need d > m (got d=at most -10^5000, m=2)"),
    (lambda: find_collision(A, AttackConfig(BIG, 1, 2)),
     "t=at least 10^5000 exceeds row count 2"),
    (lambda: find_collision(A, AttackConfig(1, 1, BIG)),
     "min_agree=at least 10^5000 outside [2, 5]"),
    (lambda: ConstructionParams(m=2, k=BIG, d=3, variant="vandermonde"),
     "vandermonde prime must be odd in [at least 10^5000, at least 10^5000], got d=3"),
    (lambda: find_prime_in(BIG, BIG), "no prime in [at least 10^5000, at least 10^5000]"),
    (lambda: max_width(-BIG, 3), "(got m=at most -10^5000, k=3)"),
    (lambda: construct_vandermonde(BIG, 3), "needs k >= m (got m=at least 10^5000, k=3)"),
    (lambda: cover_lower_bound(BIG, 3), "(got m=at least 10^5000, k=3)"),
    (lambda: min_cover_bruteforce(2, BIG), "(got m=2, k=at least 10^5000)"),
    # a normal is named by its index, so a long one is not written out
    (lambda: CoverInstance(2, 1, ((1, 0), (BIG,))), "normal 1 has length 1, expected 2"),
    (lambda: CoverInstance(BIG, 1, ((1,),)),
     "normal 0 has length 1, expected at least 10^5000"),
    (lambda: select_columns(A, (BIG,)), "column index at least 10^5000 out of range [0, 5)"),
    (lambda: IntMatrix(1, 2, (BIG, 1), entry_bound=1),
     "entry bound 1 violated (found |at least 10^5000|)"),
    (lambda: IntMatrix(BIG, 1, ()), "expected at least 10^5000 entries, got 0"),
], ids=["decode-s", "encode-dimension", "width-d-above", "width-d-below", "attack-t",
        "attack-min-agree", "params-window", "prime-window", "window-m",
        "vandermonde-m", "cover-bound-m", "cover-min-k",
        "cover-normal", "cover-m", "select-column", "entry-bound", "entry-count"])
def test_range_refusal_of_argument_past_int_str_limit(call, text):
    with pytest.raises(ValueError) as exc:
        call()
    assert not isinstance(exc.value, BudgetExceededError)
    assert text in str(exc.value) and "\n" not in str(exc.value)


# CoverInstance reports the first fault of its normals: every entry is
# checked before any length or zero, and a normal that is not a sequence
# of numbers is written whole
@pytest.mark.parametrize("normals,message", [
    (((1, 0.5), (1,)), "normal: 0.5 is not an integer"),
    (((1,), (1, 0.5)), "normal: 0.5 is not an integer"),
    (((0, 0), (1, 0.5)), "normal: 0.5 is not an integer"),
    (((1, 0), (True, 0)), "normal: True is not an integer"),
    (((1, 0), (0, 0), (1,)), "normal 1 is zero"),
    (((1, 0), (1,), (0, 0)), "normal 1 has length 1, expected 2"),
    (((1, 0), 5), "normal: expected a sequence of numbers, got 5"),
    (((1, 0), "ab"), "normal: expected a sequence of numbers, got 'ab'"),
    # int keys of the right count, so only the type of the normal refuses it
    (((1, 0), {1: 0, 2: 0}), "normal: expected a sequence of numbers, got {1: 0, 2: 0}"),
], ids=["float-before-short", "short-before-float", "zero-before-float", "bool",
        "zero-before-short", "short-before-zero", "int-normal", "str-normal",
        "dict-normal"])
def test_cover_instance_reports_the_first_fault(normals, message):
    with pytest.raises(ValueError) as exc:
        CoverInstance(2, 1, normals)
    assert str(exc.value) == message


def test_cover_instance_keeps_each_normal_as_a_tuple():
    # lists, ranges and a one-shot iterator of normals all pass, as tuples
    normals = iter([[1, 0], (0, 1), range(1, 3)])
    assert CoverInstance(2, 1, normals).normals == ((1, 0), (0, 1), (1, 2))


# a certificate past the limit is rejected with its own reason, the
# integer written as the power of ten it reaches
@pytest.mark.parametrize("cert,text", [
    (DegeneracyCertificate(BIG, (1,), (0, 1)), "t=at least 10^5000 outside [1, 2]"),
    (DegeneracyCertificate(1, (BIG,), (0, 1)),
     "combination does not vanish at column 0 (value at least 10^5000)"),
], ids=["certificate-t", "certificate-value"])
def test_certificate_rejection_past_int_str_limit(cert, text):
    check = verify_certificate(A, cert)
    assert not check.accepted and check.reason == text
