"""The CLI's exit contract as a property: every subcommand, with option
values drawn from a catalogue of numeric strings and input files from a
catalogue of documents good and bad, exits 0, 1 or 2 through cli.run in
process, within a deadline and without a traceback; exit 2 writes nothing
to stdout and ends stderr with one error line, and exits 0 and 1 write
nothing to stderr."""

import contextlib
import io
import json
import re
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fullrank.cli import run

# Far above any call drawn here, most of which take milliseconds; trial
# division of the 2^61 - 1 modulus took minutes.
SECONDS = 10


class Deadline(BaseException):
    """The alarm's exception. Not an Exception: TimeoutError is an
    OSError, which run reports as a clean exit 2, so with it a call that
    hangs would pass as a refusal."""


def _expire(signum, frame):
    raise Deadline


HUGE = "9" * 4301  # past Python's 4,300-digit limit on int strings
NUMBERS = ["1", "2", "3", "5", "12", "0", "-1", "-7", HUGE, "2.5", "nan", "1e9999"]
# bounds and cover bound leave the huge number out of their m and k: their
# closed forms build k^m, and before those are decided without it (ROADMAP
# item 3) a huge m and k they parse would run unbounded
SMALL_NUMBERS = [n for n in NUMBERS if n != HUGE]


def matrix(modulus=None, entries=(1, 2, 3, 4, 5, 7)):
    """The 2 x 3 matrix [[1, 2, 3], [4, 5, 7]] as a document."""
    return {"m": 2, "d": 3, "modulus": modulus, "entries": list(entries)}


# the input files, written to the working directory of each test; every
# file option draws from all of them, a directory and /dev/null
CATALOGUE = {
    "matrix.json": json.dumps(matrix()),
    "modulus-2^61-1.json": json.dumps(matrix(2 ** 61 - 1)),  # a prime, proved
    "modulus-2^89-1.json": json.dumps(matrix(2 ** 89 - 1)),  # a prime, past the limit
    "modulus-composite.json": json.dumps(matrix(1000003 * 1000033)),
    "signal.json": json.dumps({"d": 3, "support": [1], "values": [2]}),
    "measurement.json": json.dumps({"b": ["2", "5"], "noise": ["0", "0"],
                                    "noise_bound": "1/2"}),
    "normals.json": json.dumps([[1, 0], [0, 1], [1, 1], [1, -1]]),
    "nested.json": "[" * 100_000,
    "nan.json": json.dumps(matrix(entries=(float("nan"), 2, 3, 4, 5, 7))),
    "non-utf8.json": b"\xff\xfe{\x00}",
    "short-entries.json": json.dumps(matrix(entries=(1, 2, 3))),
    "ragged-normals.json": json.dumps([[1, 0], [0, 1, 1]]),
    "list-of-matrix.json": json.dumps([matrix()]),
    "5000-digits.json": json.dumps(matrix()).replace("7]", "7" * 5000 + "]"),
    "empty.json": "",
}
FILES = sorted(CATALOGUE) + ["dir", "/dev/null"]
OUT = ["out.json", "dir", "/dev/null"]


def write_catalogue(path):
    for name, text in CATALOGUE.items():
        data = text if isinstance(text, bytes) else text.encode()
        (path / name).write_bytes(data)
    (path / "dir").mkdir()


def option(flag, values, required=False):
    """--flag=value with value drawn from values, or (unless required)
    nothing; the = form lets a value start with '-'."""
    given_ = st.sampled_from(values).map(lambda v: [f"{flag}={v}"])
    return given_ if required else st.one_of(st.just([]), given_)


def command(words, *options):
    """argv: the subcommand's words, then the drawn options in order, and
    maybe --json."""
    flag = st.sampled_from([[], ["--json"]])
    return st.tuples(*options, flag).map(lambda parts: words.split() + sum(parts, []))


NOISE = st.lists(st.sampled_from(NUMBERS), max_size=3).map(",".join)
COMMANDS = {
    "construct": command(
        "construct", option("--m", NUMBERS, True), option("--k", NUMBERS, True),
        option("--d", NUMBERS), option("--variant", ["vandermonde", "scaled", "other"]),
        option("--out", OUT), option("--csv-out", OUT)),
    "verify": command(
        "verify", option("--in", FILES, True), option("--seed", NUMBERS),
        option("--budget", NUMBERS)),
    "verify --trials": command(
        "verify", option("--in", FILES, True), option("--trials", NUMBERS, True),
        option("--seed", NUMBERS), option("--budget", NUMBERS)),
    "attack": command(
        "attack", option("--in", FILES, True), option("--t", NUMBERS),
        option("--lambda", NUMBERS), option("--min-agree", NUMBERS),
        option("--budget", NUMBERS), option("--out", OUT)),
    "recover encode": command(
        "recover encode", option("--in", FILES, True),
        option("--signal", FILES, True), st.one_of(st.just([]), NOISE.map(
            lambda v: [f"--noise={v}"])),
        option("--noise-bound", NUMBERS), option("--out", OUT)),
    "recover decode": command(
        "recover decode", option("--in", FILES, True),
        option("--measurement", FILES, True), option("--s", NUMBERS, True),
        option("--amp-bound", NUMBERS, True), option("--budget", NUMBERS),
        option("--out", OUT)),
    "cover verify": command(
        "cover verify", option("--in", FILES, True), option("--k", NUMBERS, True),
        option("--m", NUMBERS), option("--budget", NUMBERS)),
    "cover bound": command(
        "cover bound", option("--m", SMALL_NUMBERS, True),
        option("--k", SMALL_NUMBERS, True)),
    "cover min": command(
        "cover min", option("--m", NUMBERS, True), option("--k", NUMBERS, True),
        option("--out", OUT)),
    "bounds": command(
        "bounds", option("--m", SMALL_NUMBERS, True),
        option("--k", SMALL_NUMBERS, True)),
}

# every command that reads a matrix also takes each modulus file, drawn or not
MODULI = [f for f in CATALOGUE if f.startswith("modulus-")]
MATRIX_ARGV = {
    "verify": ["verify"],
    "verify --trials": ["verify", "--trials=3"],
    "attack": ["attack"],
    "recover encode": ["recover", "encode", "--signal=signal.json"],
    "recover decode": ["recover", "decode", "--measurement=measurement.json",
                       "--s=1", "--amp-bound=1"],
}

ARGPARSE_ERROR = re.compile(r"fullrank( [a-z]+)*: error: ")


def call(argv):
    """run(argv) in process with stdout and stderr captured, under the
    alarm: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except Deadline:
        raise AssertionError(f"{argv}: no exit within {SECONDS} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_exit_contract(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_catalogue(tmp_path)

    @settings(max_examples=60, deadline=None)
    @given(COMMANDS[name])
    def check(argv):
        code, out, err = call(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in out + err, (argv, err)
        if code != 2:
            assert err == "" and out.endswith("\n"), (argv, err)
            return
        *usage, last = err.splitlines() or [""]
        assert out == "", (argv, out)
        assert (not usage and last.startswith("error: ")
                or usage and usage[0].startswith("usage: fullrank")
                and ARGPARSE_ERROR.match(last)), (argv, err)

    for path in MODULI if name in MATRIX_ARGV else ():
        check = example(MATRIX_ARGV[name] + [f"--in={path}"])(check)
    check()
