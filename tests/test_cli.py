import contextlib
import io
import itertools
import json
import math
import os
import random
import stat
import subprocess
import sys
import tempfile
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fullrank import serialize
from fullrank.attack import attack_params
from fullrank.cli import _all_digits, build_parser, run
from fullrank.construct import bounds_report, construct_scaled, construct_vandermonde
from fullrank.cover import CoverCheck, cover_lower_bound
from fullrank.intmath import primitive_vector
from fullrank.linalg import IntMatrix, select_columns
from fullrank.recover import decode
from fullrank.serialize import (
    cover_check_to_dict,
    cover_from_obj,
    decode_to_dict,
    matrix_from_dict,
    matrix_to_csv,
    matrix_to_dict,
    rational_from_str,
    rational_to_str,
    save_json,
    save_text,
)
from oracles import all_minors_nonzero, floor_exp, floor_sqrt_ln


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


@pytest.fixture
def mat_path(tmp_path):
    path = tmp_path / "mat.json"
    assert run(["construct", "--m", "2", "--k", "3", "--out", str(path)]) == 0
    return str(path)


class TestBoundsReport:
    def test_small_m_spot(self):
        rep = bounds_report(2, 100)
        assert rep.regime == "small_m"
        assert rep.upper_bound == 11313708
        assert rep.lower_bound == 5000
        assert rep.gap_factor == Fraction(11313708, 5000)

    def test_large_m_spot(self):
        rep = bounds_report(2, 7)
        assert rep.regime == "large_m"
        assert rep.lower_bound == 24  # floor(49/2)
        assert rep.upper_bound == math.floor(100 * 7 * 2 * math.sqrt(math.log(7)))

    def test_lower_never_exceeds_upper_sampled(self):
        for m in range(2, 11):
            for k in (2, 3, 10, 55, 100, 999, 10_000):
                rep = bounds_report(m, k)
                assert rep.lower_bound <= rep.upper_bound

    def test_regime_matches_attack_params(self):
        for m in range(2, 8):
            for k in range(2, 60):
                rep = bounds_report(m, k)
                cfg = attack_params(m, k)
                large = rep.regime == "large_m"
                # large regime <=> default coefficient cap is the constant 9
                assert large == (m >= math.log(k))
                if large:
                    assert cfg.lam == 9
                else:
                    assert cfg.t == m

    @pytest.mark.parametrize("m", [2, 10, 33, 40])
    def test_regime_split_exact_near_powers_of_e(self, m):
        # ln k just below m is the large regime with t = m - 1 rows; just
        # above m it is the small one. From m = 33 on, math.log rounds
        # ln(floor(e^m)) up to exactly m.
        below = floor_exp(m)
        rep, cfg = bounds_report(m, below), attack_params(m, below)
        assert rep.regime == "large_m" and (cfg.t, cfg.lam) == (m - 1, 9)
        rep, cfg = bounds_report(m, below + 1), attack_params(m, below + 1)
        assert rep.regime == "small_m" and cfg.t == m

    def test_small_k_caveat(self):
        assert bounds_report(2, 5).small_k_caveat
        assert not bounds_report(2, 100).small_k_caveat

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bounds_report(1, 10)
        with pytest.raises(ValueError):
            bounds_report(2, 1)


class TestRationalStrings:
    def test_round_trip(self):
        for s in ["3/10", "-21/5", "0/1", "7/1"]:
            assert rational_to_str(rational_from_str(s)) == s

    def test_decimal_accepted(self):
        assert rational_from_str("0.3") == Fraction(3, 10)
        assert rational_from_str("-2") == Fraction(-2)

    @pytest.mark.parametrize("bad", ["1/0", "0/0", "abc", 1.5, None, True, [1]])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            rational_from_str(bad)

    @pytest.mark.parametrize("bad", [0.5, True, None])
    def test_to_str_checks_all_but_a_fraction(self, bad):
        # a Fraction is written as it is; anything else keeps the check
        assert [rational_to_str(x) for x in (Fraction(-3, 6), 2, "0.25")] == [
            "-1/2", "2/1", "1/4"]
        with pytest.raises(ValueError, match=f"^rational: {bad!r} is not an exact rational$"):
            rational_to_str(bad)


def test_save_json_writes_what_json_dump_writes(tmp_path):
    # one string and one write, byte for byte what json.dump(indent=2) and
    # a newline make
    A, params = construct_scaled(3, 20)
    doc = matrix_to_dict(A, params)
    path = tmp_path / "A.json"
    save_json(str(path), doc)
    text = io.StringIO()
    json.dump(doc, text, indent=2)
    assert path.read_bytes() == (text.getvalue() + "\n").encode()


INTS = st.integers()
INT_LISTS = st.lists(INTS)
RATIONALS = st.lists(st.fractions().map(rational_to_str))
# every document the CLI writes with --out: a matrix with and without
# scalings, a measurement, a signal, a certificate and cover min's normals
OUT_DOCS = st.one_of(
    st.fixed_dictionaries({"m": INTS, "d": INTS, "k": st.none() | INTS,
                           "modulus": st.none() | INTS, "entries": INT_LISTS,
                           "scalings": st.none() | INT_LISTS}),
    st.fixed_dictionaries({"b": RATIONALS, "noise": RATIONALS,
                           "noise_bound": st.fractions().map(rational_to_str)}),
    st.fixed_dictionaries({"d": INTS, "support": INT_LISTS, "values": INT_LISTS}),
    st.fixed_dictionaries({"t": INTS, "coeffs": INT_LISTS, "columns": INT_LISTS}),
    st.lists(INT_LISTS),
)
TEXT = st.text() | st.sampled_from(["a, b", ", ", ",\n  ", "\u00e9t\u00e9", "\u2603", '"q"'])
SCALARS = st.none() | st.booleans() | INTS | st.floats() | TEXT
ANY_DOC = st.recursive(SCALARS, lambda inner: st.lists(inner) | st.tuples(inner, inner)
                       | st.dictionaries(TEXT, inner))


def written(doc) -> tuple[bytes, str]:
    """The bytes save_json writes for doc, and the text it returns."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        compact = save_json(str(path), doc)
        return path.read_bytes(), compact


def dumped(doc) -> tuple[bytes, str]:
    """What written(doc) must be: json.dumps(doc, indent=2)'s text and a
    newline, and json.dumps(doc)'s text."""
    return (json.dumps(doc, indent=2) + "\n").encode(), json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(OUT_DOCS | ANY_DOC)
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[], {}], "d": [[]]})
@example(True)
@example(None)
@example([True, 1, False, 0])
@example({"\u00e9": ["x, y", 1, None], ", ": 2})
@example(["x, y", "\u00e9t\u00e9", ", ", '"q"', "\u2603", "", ",\n  "])
@example({"b": ["1/2", "-\u00e9, 3"], "noise": ["a", 1], "c": [["\u2603"]]})
def test_save_json_is_json_dumps_indent_2(doc):
    # the writer's bytes are json.dumps(doc, indent=2)'s and a newline, and
    # the text it returns from the same pass is json.dumps(doc)'s
    assert written(doc) == dumped(doc)


def test_save_json_writes_an_int_past_the_digit_limit():
    # Python's int-to-str limit is 4,300 digits; the CLI writes its files
    # with that limit lifted, and the joined int lists follow it there
    doc = {"k": 10 ** 4999, "entries": [1, -(10 ** 4999), 2], "rows": [[10 ** 4999]]}
    with _all_digits():
        assert written(doc) == dumped(doc)


class TestMatrixJson:
    def test_round_trip_bit_exact(self):
        A, params = construct_scaled(2, 5)
        doc = json.loads(json.dumps(matrix_to_dict(A, params)))
        B, scalings = matrix_from_dict(doc)
        assert B == A
        assert tuple(scalings) == params.scalings

    def test_round_trip_without_annotations(self):
        from fullrank.linalg import IntMatrix
        A = IntMatrix.from_rows([[1, -7], [0, 2]])
        B, scalings = matrix_from_dict(matrix_to_dict(A))
        assert B == A and scalings is None

    def test_missing_field_is_value_error(self):
        with pytest.raises(ValueError):
            matrix_from_dict({"m": 2, "d": 2})

    @pytest.mark.parametrize("scalings", [[], [1], [1] * 6])
    def test_scalings_length_must_be_d(self, scalings):
        # a 2 x 5 matrix with one multiplier was read without complaint
        doc = matrix_to_dict(construct_vandermonde(2, 3)[0])
        with pytest.raises(ValueError, match="matrix scalings"):
            matrix_from_dict({**doc, "scalings": scalings})

    def test_csv_export(self):
        A, _ = construct_vandermonde(2, 3)
        assert matrix_to_csv(A) == "1,1,1,1,1\n1,2,-2,-1,0\n"


class TestResultDocuments:
    def test_decode_document(self):
        A = IntMatrix.from_rows([[2, 2]])
        doc = decode_to_dict(decode(A, [Fraction(2)], s=1, amp_bound=1))
        assert doc == {
            "minimizers": [{"d": 2, "support": [0], "values": [1]},
                           {"d": 2, "support": [1], "values": [1]}],
            "residual": "0/1", "ambiguous": True,
            "sparsity_in_guarantee": False}

    def test_cover_check_documents(self):
        assert cover_check_to_dict(CoverCheck(True, None, 9)) == {
            "accepted": True, "uncovered": None, "points_checked": 9}
        assert cover_check_to_dict(CoverCheck(False, (-1, 0), 1)) == {
            "accepted": False, "uncovered": [-1, 0], "points_checked": 1}

    def test_cover_dimension_from_first_normal(self):
        inst = cover_from_obj([[2, 0], [1, -1]], k=3)
        assert (inst.m, inst.k, inst.normals) == (2, 3, ((2, 0), (1, -1)))
        assert cover_from_obj([], k=1, m=3).normals == ()

    def test_empty_cover_needs_dimension(self):
        with pytest.raises(ValueError, match="explicit --m"):
            cover_from_obj([], k=1)


class TestConstructCommand:
    def test_writes_expected_matrix(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        csv = tmp_path / "m.csv"
        code = run(["construct", "--m", "2", "--k", "3",
                    "--out", str(out), "--csv-out", str(csv)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["entries"] == [1, 1, 1, 1, 1, 1, 2, -2, -1, 0]
        assert (doc["m"], doc["d"], doc["k"], doc["modulus"]) == (2, 5, 3, 5)
        assert csv.read_text() == "1,1,1,1,1\n1,2,-2,-1,0\n"

    def test_scaled_variant_records_scalings(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = run(["construct", "--m", "2", "--k", "5",
                    "--variant", "scaled", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["modulus"] == 13
        assert doc["scalings"][4] == 2

    def test_truncated_request(self, capsys):
        code, doc = run_json(capsys, ["construct", "--m", "2", "--k", "5",
                                      "--d", "12", "--json"])
        assert code == 0
        assert doc["d"] == 12
        # the first 12 columns of the scaled family mod 13 keep their multipliers
        assert doc["scalings"] == list(construct_scaled(2, 5)[1].scalings[:12])
        assert run(["construct", "--m", "2", "--k", "5", "--d", "12"]) == 0
        assert "(variant=scaled, modulus=13," in capsys.readouterr().out

    def test_invalid_parameters_exit_2(self, capsys):
        assert run(["construct", "--m", "2", "--k", "1"]) == 2
        assert run(["construct", "--m", "3", "--k", "2", "--d", "10"]) == 2

    @pytest.mark.parametrize("k,variant", [
        ("100000", "scaled"), ("1000000000000", "scaled"),
        ("1000000000000", "vandermonde")])
    def test_oversize_family_exit_2(self, capsys, k, variant):
        assert run(["construct", "--m", "2", "--k", k, "--variant", variant]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "entries, above the fixed limit of 10000000" in err

    @pytest.mark.parametrize("variant", ["scaled", "vandermonde"])
    def test_width_excludes_variant(self, capsys, variant):
        # --d picks the family itself; naming one as well is a usage error
        assert run(["construct", "--m", "2", "--k", "5", "--d", "4",
                    "--variant", variant]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with argument --d" in err

    def test_out_written_before_csv(self, tmp_path, capsys):
        # both options name one file: the CSV, written second, is what stays
        path = tmp_path / "m.txt"
        assert run(["construct", "--m", "2", "--k", "3", "--out", str(path),
                    "--csv-out", str(path)]) == 0
        assert path.read_text() == "1,1,1,1,1\n1,2,-2,-1,0\n"
        assert capsys.readouterr().out.endswith(f" -> {path}\n")


def out_argv(*argv):
    """The argv of a command that writes one file, whose path follows."""
    return lambda path: [*argv, str(path)]


CONSTRUCT_3_523 = out_argv("construct", "--variant", "scaled", "--m", "3",
                           "--k", "103", "--out")
CONSTRUCT_2_313 = out_argv("construct", "--variant", "scaled", "--m", "2",
                           "--k", "25", "--out")


def with_write(monkeypatch, write):
    """serialize's os module with os.write replaced by write."""
    monkeypatch.setattr(serialize, "os", types.SimpleNamespace(**{**vars(os), "write": write}))


class TestFileWriter:
    """Every file the CLI writes holds exactly a fresh file's bytes, also
    over an existing file, longer or shorter; a failed write leaves none of
    the old bytes behind."""

    @pytest.fixture
    def encode_files(self, mat_path, tmp_path):
        (tmp_path / "sig.json").write_text(json.dumps(SIGNAL))
        return ["recover", "encode", "--in", mat_path,
                "--signal", str(tmp_path / "sig.json")]

    @pytest.mark.parametrize("shorter_second", [True, False])
    @pytest.mark.parametrize("kind", ["construct", "encode", "csv"])
    def test_overwrite_is_a_fresh_write(self, tmp_path, capsys, encode_files,
                                        kind, shorter_second):
        long, short = {
            "construct": (CONSTRUCT_3_523, CONSTRUCT_2_313),
            "encode": (out_argv(*encode_files, "--noise",
                                "123456789/987654321,-1/5", "--out"),
                       out_argv(*encode_files, "--out")),
            "csv": (out_argv("construct", "--m", "3", "--k", "30", "--csv-out"),
                    out_argv("construct", "--m", "2", "--k", "3", "--csv-out")),
        }[kind]
        first, second = (long, short) if shorter_second else (short, long)
        path, fresh = tmp_path / "target", tmp_path / "fresh"
        assert run(first(path)) == 0
        old = path.stat().st_size
        assert run(second(path)) == 0 and run(second(fresh)) == 0
        assert path.read_bytes() == fresh.read_bytes()
        assert (fresh.stat().st_size < old) == shorter_second

    @pytest.mark.parametrize("kind", ["3x523", "2x313", "encode", "encode noise"])
    def test_json_line_is_the_same_with_out(self, tmp_path, capsys, encode_files, kind):
        # with --out, construct and recover encode print the rendering of
        # the document they wrote, which is the line printed without it
        argv = {"3x523": CONSTRUCT_3_523(tmp_path / "A.json")[:-2],
                "2x313": CONSTRUCT_2_313(tmp_path / "A.json")[:-2],
                "encode": encode_files,
                "encode noise": [*encode_files, "--noise", "123456789/987654321,-1/5"],
                }[kind] + ["--json"]
        capsys.readouterr()  # the fixture's construct line
        assert run(argv) == 0
        alone = capsys.readouterr()
        assert run([*argv, "--out", str(tmp_path / "doc.json")]) == 0
        assert capsys.readouterr() == alone
        assert (tmp_path / "doc.json").read_text() == json.dumps(
            json.loads(alone.out), indent=2) + "\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    @pytest.mark.parametrize("option,fd", [("--csv-out", 1), ("--out", 1), ("--out", 2)])
    def test_out_to_a_redirected_std_stream(self, tmp_path, option, fd):
        # the stream's file, named as /dev/stdout or /dev/stderr, holds what
        # the shell wrote before, the file, what the command printed there
        # after it, and what the shell wrote next; none is overwritten
        path, name = tmp_path / "f.txt", ("/dev/stdout", "/dev/stderr")[fd - 1]
        argv = ["construct", "--m", "2", "--k", "3", option, name, "--json"]
        script = f'{{ echo header-line >&{fd}; "$@"; echo tail >&{fd}; }} {fd}> "$0"'
        proc = subprocess.run(["sh", "-c", script, str(path), sys.executable,
                               "-m", "fullrank", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        doc = matrix_to_dict(*construct_vandermonde(2, 3))
        text = ("1,1,1,1,1\n1,2,-2,-1,0\n" if option == "--csv-out"
                else json.dumps(doc, indent=2) + "\n")
        printed = json.dumps(doc) + "\n"
        if fd == 1:
            text += printed
        else:
            assert proc.stdout == printed
        assert path.read_text() == "header-line\n" + text + "tail\n"

    @pytest.mark.parametrize("closed", [(1,), (2,), (1, 2)])
    def test_target_on_a_closed_std_descriptor(self, tmp_path, closed):
        # with fd 1 or fd 2 closed, the target opens on it; it is then the
        # target, not the stream's file, and is rewritten as any file is,
        # with nothing in it of stdout's unflushed text (which os._exit
        # drops, as its descriptor is closed)
        path = tmp_path / "A.json"
        path.write_text("x" * 100)
        code = ("import os, sys\n"
                "sys.stdout.write('unflushed')\n"
                f"for fd in {closed}:\n"
                "    os.close(fd)\n"
                "from fullrank.serialize import save_text\n"
                "save_text(sys.argv[1], 'new\\n')\n"
                "os._exit(0)\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run([sys.executable, "-c", code, str(path)],
                              capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert path.read_text() == "new\n"

    def test_partial_writes_are_completed(self, tmp_path, capsys, monkeypatch):
        # os.write may write fewer bytes than asked; the rest follows
        real = os.write
        with_write(monkeypatch, lambda fd, data: real(fd, data[:1000]))
        assert run(CONSTRUCT_3_523(tmp_path / "A.json")) == 0
        monkeypatch.undo()
        assert run(CONSTRUCT_3_523(tmp_path / "fresh.json")) == 0
        assert (tmp_path / "A.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no /dev/null")
    def test_out_dev_null(self, capsys):
        # a target that is not a regular file is written without a truncate
        assert run(CONSTRUCT_2_313(os.devnull)) == 0
        assert capsys.readouterr().out == (
            "constructed 2x313 matrix (variant=scaled, modulus=313, "
            f"entry_bound=25) -> {os.devnull}\n")

    @pytest.mark.parametrize("written_before_failure", [0, 2])
    def test_failed_write_leaves_an_empty_file(self, tmp_path, capsys,
                                               monkeypatch, written_before_failure):
        # without the cut, the new text's prefix over the old file's tail
        # could still parse as JSON
        path = tmp_path / "A.json"
        assert run(CONSTRUCT_3_523(path)) == 0
        capsys.readouterr()
        real, calls = os.write, []

        def write(fd, data):
            calls.append(fd)
            if len(calls) > written_before_failure:
                raise OSError(28, "No space left on device")
            return real(fd, data[:100])

        with_write(monkeypatch, write)
        assert run(CONSTRUCT_2_313(path)) == 2
        assert len(calls) == written_before_failure + 1
        assert path.read_bytes() == b""
        assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o002, 0o077])
    def test_new_file_mode_is_opens(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "by_open", "w"):
                pass
            save_text(str(tmp_path / "by_writer"), "x\n")
        finally:
            os.umask(old)
        modes = {stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("by_open", "by_writer")}
        assert len(modes) == 1

    def test_open_errors_name_the_path(self, tmp_path, capsys):
        missing = tmp_path / "no" / "A.json"
        assert run(CONSTRUCT_2_313(missing)) == 2
        assert run(CONSTRUCT_2_313(tmp_path)) == 2
        assert capsys.readouterr() == ("", (
            f"error: [Errno 2] No such file or directory: '{missing}'\n"
            f"error: [Errno 21] Is a directory: '{tmp_path}'\n"))


class TestVerifyCommand:
    def test_clean_matrix_exit_0(self, mat_path, capsys):
        code, doc = run_json(capsys, ["verify", "--in", mat_path, "--json"])
        assert code == 0
        assert (doc["total_checked"], doc["failures"]) == (10, [])

    def test_exhaustive_flag_is_usage_error(self, mat_path, capsys):
        # every minor is checked without --trials; no flag selects that
        assert run(["verify", "--in", mat_path, "--exhaustive"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1
        assert "unrecognized arguments: --exhaustive" in err

    @pytest.mark.parametrize("extra", [[], ["--trials", "5"]],
                             ids=["exhaustive", "sampled"])
    def test_thin_matrix_exit_2(self, tmp_path, capsys, extra):
        thin = tmp_path / "thin.json"
        thin.write_text(json.dumps(matrix_to_dict(
            IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]]))))
        assert run(["verify", "--in", str(thin)] + extra) == 2
        assert capsys.readouterr() == (
            "", "error: matrix has fewer columns (2) than rows (3)\n")

    def test_degenerate_matrix_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "m": 2, "d": 3, "k": None, "modulus": None,
            "entries": [1, 1, 1, 1, 1, 2], "scalings": None}))
        code, doc = run_json(capsys, ["verify", "--in", str(bad), "--json"])
        assert code == 1
        assert doc["failures"] == [[0, 1]]

    def test_human_output_lists_twenty_failures(self, tmp_path, capsys):
        ones = tmp_path / "ones.json"
        ones.write_text(json.dumps(matrix_to_dict(
            IntMatrix.from_rows([[1] * 8, [1] * 8]))))
        assert run(["verify", "--in", str(ones)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "checked 28 minors (exhaustive): 28 failures"
        assert lines[1] == "  degenerate columns: [0, 1]"
        assert len(lines) == 22 and lines[-1] == "  ... and 8 more"

    def test_sampled_mode_deterministic(self, mat_path, capsys):
        code1, doc1 = run_json(capsys, ["verify", "--in", mat_path,
                                        "--trials", "30", "--seed", "7", "--json"])
        code2, doc2 = run_json(capsys, ["verify", "--in", mat_path,
                                        "--trials", "30", "--seed", "7", "--json"])
        assert code1 == code2 == 0
        assert doc1 == doc2
        assert doc1["seed"] == 7

    def test_budget_refusal_exit_2(self, mat_path):
        assert run(["verify", "--in", mat_path, "--budget", "5"]) == 2

    def test_square_matrix_laplace_plan_refused(self, tmp_path, capsys):
        # C(24, 24) = 1 minor, but the sweep's Laplace plan has
        # 24 * 2^23 terms: refused before any is built
        rng = random.Random(24)
        square = tmp_path / "square.json"
        square.write_text(json.dumps(matrix_to_dict(IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(24)] for _ in range(24)]))))
        assert run(["verify", "--in", str(square)]) == 2
        assert capsys.readouterr() == ("", (
            "error: the Laplace plan of the exhaustive minor sweep needs 201326592 "
            "steps, exceeding the budget of 10000000; pass a larger budget to override\n"))

    def test_proved_24_row_construction_accepted(self, tmp_path, capsys):
        # proved from its columns' algebra, so no Laplace plan is built
        A, _ = construct_vandermonde(24, 24)
        path = tmp_path / "v24.json"
        path.write_text(json.dumps(matrix_to_dict(A)))
        code, doc = run_json(capsys, ["verify", "--in", str(path), "--json"])
        assert code == 0
        assert (doc["total_checked"], doc["failures"]) == (math.comb(A.cols, 24), [])

    @staticmethod
    def vandermonde_subset():
        """18 of the 19 columns of the 4-row power-residue family mod 19."""
        A, _ = construct_vandermonde(4, 17)
        return select_columns(A, [j for j in range(19) if j != 6])

    @pytest.mark.parametrize("mode", [[], ["--trials", "200", "--seed", "5"]],
                             ids=["exhaustive", "sampled"])
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["human", "json"])
    def test_proof_output_is_the_sweeps(self, tmp_path, capsys, mode, fmt):
        # with its modulus the file is proved from its columns' algebra;
        # with "modulus": null it is swept (or drawn): the same bytes out
        doc = matrix_to_dict(self.vandermonde_subset())
        results = []
        for modulus in (doc["modulus"], None):
            path = tmp_path / f"v{modulus}.json"
            path.write_text(json.dumps({**doc, "modulus": modulus}))
            code = run(["verify", "--in", str(path)] + mode + fmt)
            results.append((code, capsys.readouterr().out))
        assert results[0] == results[1]
        assert results[0][0] == 0 and "failures" in results[0][1]

    def test_copied_column_with_modulus_lists_failures(self, tmp_path, capsys):
        rows = self.vandermonde_subset().to_rows()
        for r in rows:
            r[1] = r[0]
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(matrix_to_dict(IntMatrix.from_rows(rows, modulus=19))))
        code, doc = run_json(capsys, ["verify", "--in", str(path), "--json"])
        assert code == 1
        assert doc["failures"] == [list(f) for f in all_minors_nonzero(rows)]
        assert doc["failures"][0] == [0, 1, 2, 3]

    def test_seed_without_trials_exit_2(self, mat_path, capsys):
        assert run(["verify", "--in", mat_path, "--seed", "5", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --seed applies only to sampled mode (--trials)\n"

    def test_missing_file_exit_2(self):
        assert run(["verify", "--in", "/nonexistent/mat.json"]) == 2

    @pytest.mark.parametrize("change", [
        {"entries": [1.5, 2, 3, 1, 2, 4]},
        {"entries": [True, 2, 3, 1, 2, 4]},
        {"entries": ["1", 2, 3, 1, 2, 4]},
        {"entries": 7},
        {"modulus": "7"},
        {"modulus": 7.0},
        {"k": 5.0},
        {"k": True},
        {"m": 2.0},
        {"d": "3"},
        {"scalings": [1, 2.5, 3]},
        {"scalings": [1]},  # was exit 0: never counted against d
    ])
    def test_non_integer_fields_exit_2(self, tmp_path, capsys, change):
        doc = {"m": 2, "d": 3, "k": None, "modulus": None,
               "entries": [1, 2, 3, 1, 2, 4], "scalings": None}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, **change}))
        assert run(["verify", "--in", str(path), "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_object_document_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        assert run(["verify", "--in", str(path)]) == 2
        assert capsys.readouterr().out == ""


class TestAttackCommand:
    def test_planted_zeros_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "m": 2, "d": 3, "k": None, "modulus": None,
            "entries": [0, 0, 1, 1, 2, 3], "scalings": None}))
        cert_path = tmp_path / "cert.json"
        code, doc = run_json(capsys, ["attack", "--in", str(bad), "--t", "1",
                                      "--lambda", "1", "--out", str(cert_path),
                                      "--json"])
        assert code == 1
        assert doc["certificate"]["coeffs"] == [1]
        assert doc["certificate"]["columns"] == [0, 1]
        assert json.loads(cert_path.read_text())["t"] == 1

    def test_sound_matrix_exit_0(self, mat_path, capsys):
        code, doc = run_json(capsys, ["attack", "--in", mat_path, "--t", "2",
                                      "--lambda", "2", "--json"])
        assert code == 0
        assert doc["certificate"] is None

    def test_defaults_from_matrix_annotations(self, mat_path):
        # t/lambda omitted: derived from (m, entry_bound)
        assert run(["attack", "--in", mat_path]) == 0


class TestRecoverCommands:
    def test_encode_decode_round_trip(self, mat_path, tmp_path, capsys):
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps({"d": 5, "support": [2], "values": [2]}))
        meas = tmp_path / "meas.json"
        code, doc = run_json(capsys, [
            "recover", "encode", "--in", mat_path, "--signal", str(sig),
            "--noise", "3/10,-1/5", "--out", str(meas), "--json"])
        assert code == 0
        assert doc["b"] == ["23/10", "-21/5"]

        out_sig = tmp_path / "decoded.json"
        code, doc = run_json(capsys, [
            "recover", "decode", "--in", mat_path, "--measurement", str(meas),
            "--s", "1", "--amp-bound", "3", "--out", str(out_sig), "--json"])
        assert code == 0
        assert doc["residual"] == "3/10"
        assert json.loads(out_sig.read_text()) == {
            "d": 5, "support": [2], "values": [2]}

    def test_ambiguous_decode_exit_1(self, tmp_path, capsys):
        mat = tmp_path / "dup.json"
        mat.write_text(json.dumps({
            "m": 1, "d": 2, "k": None, "modulus": None,
            "entries": [2, 2], "scalings": None}))
        meas = tmp_path / "meas.json"
        meas.write_text(json.dumps({"b": ["2/1"], "noise": ["0/1"]}))
        code, doc = run_json(capsys, [
            "recover", "decode", "--in", str(mat), "--measurement", str(meas),
            "--s", "1", "--amp-bound", "1", "--json"])
        assert code == 1
        assert doc["ambiguous"] and len(doc["minimizers"]) == 2

    def test_ambiguous_decode_writes_no_file(self, tmp_path, capsys):
        mat = tmp_path / "dup.json"
        mat.write_text(json.dumps(matrix_to_dict(IntMatrix.from_rows([[2, 2]]))))
        meas = tmp_path / "meas.json"
        meas.write_text(json.dumps({"b": ["2"]}))
        out = tmp_path / "x.json"
        assert run(["recover", "decode", "--in", str(mat), "--measurement",
                    str(meas), "--s", "1", "--amp-bound", "1",
                    "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().out == (
            "ambiguous: 2 minimizers at residual 0/1\n")

    def test_ambiguous_tie_decode_exit_1(self, tmp_path, capsys):
        # noise -1/2 on every row of construct(6, 12, 11), whose column 0 is
        # all ones: x ties with x moved one step toward zero there, and the
        # same answer comes from the roundings' syndromes and, on the file
        # without its modulus, from the search
        mat = tmp_path / "r.json"
        assert run(["construct", "--m", "6", "--k", "12", "--d", "11",
                    "--out", str(mat)]) == 0
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({**json.loads(mat.read_text()), "modulus": None}))
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps({"d": 11, "support": [0, 4, 9], "values": [2, -2, 1]}))
        meas = tmp_path / "meas.json"
        assert run(["recover", "encode", "--in", str(mat), "--signal", str(sig),
                    "--noise=" + ",".join(["-1/2"] * 6), "--out", str(meas)]) == 0
        capsys.readouterr()
        for path in (mat, plain):
            assert run(["recover", "decode", "--in", str(path), "--measurement",
                        str(meas), "--s", "3", "--amp-bound", "3", "--json"]) == 1
            assert capsys.readouterr().out == (
                '{"minimizers": [{"d": 11, "support": [0, 4, 9], "values": [1, -2, 1]}, '
                '{"d": 11, "support": [0, 4, 9], "values": [2, -2, 1]}], '
                '"residual": "1/2", "ambiguous": true, "sparsity_in_guarantee": true}\n')

    def test_encode_without_noise_is_exact(self, mat_path, tmp_path, capsys):
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps({"d": 5, "support": [2], "values": [2]}))
        code, doc = run_json(capsys, ["recover", "encode", "--in", mat_path,
                                      "--signal", str(sig), "--json"])
        assert code == 0
        assert doc == {"b": ["2/1", "-4/1"], "noise": ["0/1", "0/1"],
                       "noise_bound": "1/2"}

    def test_out_of_guarantee_noise_flagged(self, mat_path, tmp_path, capsys):
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps({"d": 5, "support": [0], "values": [1]}))
        code, doc = run_json(capsys, [
            "recover", "encode", "--in", mat_path, "--signal", str(sig),
            "--noise", "1/2,0", "--json"])
        assert code == 0  # encoding permits any noise; the flag reports it
        out = json.dumps(doc)
        assert doc["noise"] == ["1/2", "0/1"] and "1/2" in out


class TestCoverCommands:
    def test_accept_and_reject(self, tmp_path, capsys):
        normals = tmp_path / "n.json"
        normals.write_text(json.dumps([[1, 0], [0, 1], [1, 1], [1, -1]]))
        assert run(["cover", "verify", "--in", str(normals), "--k", "1"]) == 0
        capsys.readouterr()
        partial = tmp_path / "p.json"
        partial.write_text(json.dumps([[1, 0], [0, 1]]))
        code, doc = run_json(capsys, ["cover", "verify", "--in", str(partial),
                                      "--k", "1", "--json"])
        assert code == 1
        assert doc["uncovered"] == [-1, -1]

    def test_verify_full_direction_cover(self, tmp_path, capsys):
        # the benchmark's cover shape at its largest k: every primitive
        # direction of the m = 2 grid, accepted; without (0, 1) the first
        # uncovered point is (-12, 0), the 13th scanned
        grid = itertools.product(range(-12, 13), repeat=2)
        full = sorted({primitive_vector(x) for x in grid if any(x)})
        assert len(full) == 184
        for normals, code, doc in [
            (full, 0, {"accepted": True, "uncovered": None, "points_checked": 625}),
            ([n for n in full if n != (0, 1)], 1,
             {"accepted": False, "uncovered": [-12, 0], "points_checked": 13}),
        ]:
            path = tmp_path / "normals.json"
            path.write_text(json.dumps(normals))
            argv = ["cover", "verify", "--in", str(path), "--k", "12", "--json"]
            assert run(argv) == code
            assert capsys.readouterr().out == json.dumps(doc) + "\n"

    def test_bound_command(self, capsys):
        code, doc = run_json(capsys, ["cover", "bound", "--m", "2", "--k", "4",
                                      "--json"])
        assert code == 0 and doc["lower_bound"] == 8

    def test_bound_out_of_range_exit_2(self):
        assert run(["cover", "bound", "--m", "2", "--k", "1"]) == 2

    def test_min_command_with_witness(self, tmp_path, capsys):
        wit = tmp_path / "wit.json"
        code, doc = run_json(capsys, ["cover", "min", "--m", "2", "--k", "1",
                                      "--out", str(wit), "--json"])
        assert code == 0 and doc["minimum"] == 4
        normals = json.loads(wit.read_text())
        assert run(["cover", "verify", "--in", str(wit), "--k", "1"]) == 0
        assert len(normals) == 4

    # every instance the search supports: which witness is printed is part
    # of the output, not only that it covers
    @pytest.mark.parametrize("m,k,size,witness", [
        (2, 0, 1, [[1, 0]]),
        (2, 1, 4, [[0, 1], [1, -1], [1, 0], [1, 1]]),
        (2, 2, 8, [[0, 1], [1, -2], [1, -1], [1, 0], [1, 1], [1, 2], [2, -1],
                   [2, 1]]),
        (2, 3, 16, [[0, 1], [1, -3], [1, -2], [1, -1], [1, 0], [1, 1], [1, 2],
                    [1, 3], [2, -3], [2, -1], [2, 1], [2, 3], [3, -2],
                    [3, -1], [3, 1], [3, 2]]),
        (2, 4, 24, [[0, 1], [1, -4], [1, -3], [1, -2], [1, -1], [1, 0],
                    [1, 1], [1, 2], [1, 3], [1, 4], [2, -3], [2, -1], [2, 1],
                    [2, 3], [3, -4], [3, -2], [3, -1], [3, 1], [3, 2],
                    [3, 4], [4, -3], [4, -1], [4, 1], [4, 3]]),
        (3, 0, 1, [[1, 0, 0]]),
        (3, 1, 4, [[0, 0, 1], [0, 1, -1], [0, 1, 0], [0, 1, 1]]),
        (5, 0, 1, [[1, 0, 0, 0, 0]]),
    ])
    def test_min_witness_pinned(self, capsys, m, k, size, witness):
        code, doc = run_json(capsys, ["cover", "min", "--m", str(m),
                                      "--k", str(k), "--json"])
        assert code == 0
        assert doc == {"m": m, "k": k, "minimum": size, "witness": witness}

    def test_min_budget_exit_2(self):
        assert run(["cover", "min", "--m", "3", "--k", "2"]) == 2

    def test_min_refusal_names_supported_range(self, capsys):
        assert run(["cover", "min", "--m", "4", "--k", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "m = 2 with k <= 4 and m = 3 with k <= 1" in err
        assert "budget" not in err

    @pytest.mark.parametrize("argv,message", [
        (["cover", "min", "--m", str(10 ** 30), "--k", "0"],
         f"error: the k = 0 witness normal has {10 ** 30} entries, above the fixed "
         f"limit of 10000000"),
        (["cover", "verify", "--in", "[]", "--m", "30000000", "--k", "0"],
         "error: grid enumeration needs 30000000 steps, exceeding the budget of "
         "10000000; pass a larger budget to override"),
    ], ids=["min", "verify"])
    def test_origin_grid_of_many_coordinates_exits_2(self, tmp_path, capsys, argv, message):
        # one grid point, but a point of m coordinates: refused before the
        # witness or the scan's lists are built
        path = tmp_path / "empty.json"
        path.write_text("[]")
        argv = [str(path) if a == "[]" else a for a in argv]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", message + "\n")

    def test_grid_of_many_coordinates_exits_2(self, tmp_path, capsys):
        # k = 1 and m = 10^8: 3^m is refused from m alone, named as the
        # power, before the count or the scan is built
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert run(["cover", "verify", "--in", str(path), "--m", "100000000", "--k", "1"]) == 2
        assert capsys.readouterr() == ("", (
            "error: grid enumeration needs 3^100000000 steps, exceeding the budget of "
            "10000000; pass a larger budget to override\n"))

    def test_min_origin_grid(self, capsys):
        code, doc = run_json(capsys, ["cover", "min", "--m", "4", "--k", "0",
                                      "--json"])
        assert code == 0
        assert doc == {"m": 4, "k": 0, "minimum": 1, "witness": [[1, 0, 0, 0]]}

    def test_verify_empty_cover_needs_dimension(self, tmp_path, capsys):
        path = tmp_path / "n.json"
        path.write_text("[]")
        assert run(["cover", "verify", "--in", str(path), "--k", "1"]) == 2
        assert "explicit --m" in capsys.readouterr().err
        assert run(["cover", "verify", "--in", str(path), "--k", "1",
                    "--m", "2"]) == 1


class TestBoundsCommand:
    def test_spot_values_json(self, capsys):
        code, doc = run_json(capsys, ["bounds", "--m", "2", "--k", "100",
                                      "--json"])
        assert code == 0
        assert doc["upper_bound"] == 11313708
        assert doc["lower_bound"] == 5000
        assert doc["regime"] == "small_m"

    def test_small_k_note(self, capsys):
        assert run(["bounds", "--m", "2", "--k", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "note: the upper bound is asymptotic and proves nothing at entry "
            "bounds this small")

    def test_huge_k_exit_0(self, capsys):
        # the float formula raised OverflowError here
        k = 10 ** 400
        code, doc = run_json(capsys, ["bounds", "--m", "1000", "--k", str(k),
                                      "--json"])
        assert code == 0 and doc["regime"] == "large_m"
        assert doc["upper_bound"] == floor_sqrt_ln(k, 100 * k * 1000)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("command,value", [
        (["bounds"], lambda k: bounds_report(2, k).lower_bound),
        (["cover", "bound"], lambda k: cover_lower_bound(2, k)),
    ])
    def test_answer_above_int_str_limit(self, capsys, command, value, as_json):
        # a 2,501-digit k parses under Python's 4,300-digit limit, but the
        # answer ~k^2 was refused when printed
        k = 10 ** 2500
        digits = sys.get_int_max_str_digits()
        code = run(command + ["--m", "2", "--k", str(k)] + ["--json"] * as_json)
        out, err = capsys.readouterr()
        assert (code, err, sys.get_int_max_str_digits()) == (0, "", digits)
        sys.set_int_max_str_digits(0)
        try:
            assert str(value(k)) in (
                [str(json.loads(out)["lower_bound"])] if as_json else out.split())
        finally:
            sys.set_int_max_str_digits(digits)

    def test_failed_stdout_write_exit_2(self):
        # the print sat outside run's error handling: a traceback and exit 1
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        err = io.StringIO()
        with contextlib.redirect_stdout(Full()), contextlib.redirect_stderr(err):
            code = run(["bounds", "--m", "2", "--k", "10"])
        assert (code, err.getvalue()) == (
            2, "error: [Errno 28] No space left on device\n")


SIGNAL = {"d": 5, "support": [2], "values": [2]}
ENCODE = ["recover", "encode", "--in", "mat.json", "--signal", "sig.json"]
DECODE = ["recover", "decode", "--in", "mat.json", "--measurement",
          "meas.json", "--s", "1", "--amp-bound", "1"]
COVER = ["cover", "verify", "--in", "normals.json", "--k", "1"]


class TestStrictInputs:
    """Malformed signal, measurement, normals and rational inputs, and
    attack or decode options no matrix could satisfy, exit 2 with a
    one-line error instead of being coerced, raising or answering."""

    @pytest.mark.parametrize("files,argv", [
        ({"normals.json": [[1.5, 2]]}, COVER),
        ({"normals.json": [1, 2]}, COVER),
        ({"normals.json": [[1, True]]}, COVER),
        ({"normals.json": [["1", 0]]}, COVER),
        ({"sig.json": {**SIGNAL, "values": [1.5]}}, ENCODE),
        ({"sig.json": {**SIGNAL, "support": ["2"]}}, ENCODE),
        ({"sig.json": {**SIGNAL, "d": 5.0}}, ENCODE),
        ({"sig.json": [SIGNAL]}, ENCODE),
        ({}, ENCODE + ["--noise=1/0,0"]),
        ({}, ENCODE + ["--noise-bound", "1/0"]),
        ({}, ENCODE + ["--noise="]),  # was zero noise, silently
        ({"meas.json": {"b": ["1/0", "0"]}}, DECODE),
        ({"meas.json": {"b": [1.5, 0]}}, DECODE),
        ({"meas.json": {"b": "12"}}, DECODE),
        ({"meas.json": {"b": ["1", "0"], "noise": ["0", "1/0"]}}, DECODE),
        ({"meas.json": {"b": ["1", "0"], "noise_bound": "1/0"}}, DECODE),
        ({"meas.json": ["1", "0"]}, DECODE),
        ({"meas.json": {"b": ["1", "0"], "noise": ["0"]}}, DECODE),
        ({}, DECODE[:-1] + ["0"]),
        ({}, DECODE[:-3] + ["9", "--amp-bound", "1"]),
        ({}, ["attack", "--in", "mat.json", "--t", "1", "--lambda", "1",
              "--min-agree", "99"]),
        ({}, ["construct", "--m", "1", "--k", "3"]),
        ({}, ["construct", "--m", "1", "--k", "3", "--d", "2"]),
        # one agreeing column is no certificate of a 2 x 2 minor
        ({}, ["attack", "--in", "mat.json", "--t", "2", "--lambda", "1",
              "--min-agree", "1"]),
        # a 1-row matrix has no default --t or --lambda
        ({"mat.json": matrix_to_dict(IntMatrix.from_rows([[1, 2, 3]]))},
         ["attack", "--in", "mat.json"]),
        # a decimal exponent this large ran past a 30 s timeout
        ({}, ENCODE + ["--noise=1e100000000,0"]),
        ({"meas.json": {"b": ["1e100000000", "0"]}}, DECODE),
    ])
    def test_malformed_input_exit_2(self, tmp_path, monkeypatch, capsys,
                                    files, argv):
        monkeypatch.chdir(tmp_path)
        docs = {"mat.json": matrix_to_dict(construct_vandermonde(2, 3)[0]),
                "sig.json": SIGNAL, "meas.json": {"b": ["1", "0"]},
                **files}
        for name, doc in docs.items():
            (tmp_path / name).write_text(json.dumps(doc))
        assert run(argv + ["--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("empty,content,message", [
        pytest.param(name, content, message, id=name + suffix)
        for content, message, suffix in [
            ("", "Expecting value", ""),
            # was a RecursionError traceback and exit 1
            ("[" * 100_000, "maximum recursion depth exceeded", "-nested"),
        ]
        for name in ("mat.json", "meas.json")
    ])
    def test_empty_file_named(self, tmp_path, monkeypatch, capsys, empty,
                              content, message):
        # the error did not say which of the two input files was not JSON
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mat.json").write_text(
            json.dumps(matrix_to_dict(construct_vandermonde(2, 3)[0])))
        (tmp_path / "meas.json").write_text(json.dumps({"b": ["1", "0"]}))
        (tmp_path / empty).write_text(content)
        assert run(DECODE) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {empty}: {message}")

    @pytest.mark.parametrize("files,argv,line", [
        ({"mat.json": [1, 2]}, ["verify", "--in", "mat.json"],
         "matrix JSON must be an object"),
        ({"mat.json": {"m": 2, "d": 2}}, ["verify", "--in", "mat.json"],
         "matrix JSON missing field 'entries'"),
        ({"sig.json": [SIGNAL]}, ENCODE, "signal JSON must be an object"),
        ({"sig.json": {"d": 5, "support": [2]}}, ENCODE,
         "signal JSON missing field 'values'"),
        ({"meas.json": ["1", "0"]}, DECODE,
         "measurement JSON must be an object"),
        ({"meas.json": {"noise": ["0", "0"]}}, DECODE,
         "measurement JSON missing field 'b'"),
    ])
    def test_document_shape_message(self, tmp_path, monkeypatch, capsys,
                                    files, argv, line):
        # the matrix, signal and measurement readers share one shape rule
        monkeypatch.chdir(tmp_path)
        docs = {"mat.json": matrix_to_dict(construct_vandermonde(2, 3)[0]),
                "sig.json": SIGNAL, "meas.json": {"b": ["1", "0"]}, **files}
        for name, doc in docs.items():
            (tmp_path / name).write_text(json.dumps(doc))
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    @pytest.mark.parametrize("files,argv", [
        ({"big.json": '{"m": 2, "d": 2, "k": null, "modulus": null, '
                      '"entries": [1, 1, 0, HUGE], "scalings": null}'},
         ["verify", "--in", "big.json"]),
        ({"sig.json": '{"d": 5, "support": [2], "values": [HUGE]}'}, ENCODE),
        ({}, ENCODE + ["--noise=HUGE/7,0"]),
    ])
    def test_input_above_int_str_limit_exit_2(self, tmp_path, monkeypatch,
                                              capsys, files, argv):
        # input is parsed under Python's 4,300-digit limit, which refuses a
        # long decimal string before converting it costs quadratic time
        huge = "9" * 5000
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mat.json").write_text(
            json.dumps(matrix_to_dict(construct_vandermonde(2, 3)[0])))
        (tmp_path / "sig.json").write_text(json.dumps(SIGNAL))
        for name, text in files.items():
            (tmp_path / name).write_text(text.replace("HUGE", huge))
        assert run([a.replace("HUGE", huge) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("option,field", [
        ("--noise=1e4300,0", "noise"),
        ("--noise=1e-4300,0", "noise"),
        ("--noise-bound=1e4300", "noise bound"),
    ])
    def test_encode_past_int_str_limit_exit_2(self, mat_path, tmp_path, capsys,
                                              option, field):
        # b = Ax + e could be neither written nor read back: the error was
        # Python's own "Exceeds the limit (4300 digits)" text
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps(SIGNAL))
        assert run(["recover", "encode", "--in", mat_path, "--signal", str(sig),
                    option]) == 2
        assert capsys.readouterr() == ("", f"error: {field}: an entry has a numerator "
                                           f"or denominator of more than 4300 digits\n")

    def test_encode_at_int_str_limit_reads_back(self, mat_path, tmp_path, capsys):
        sig, meas = tmp_path / "sig.json", tmp_path / "meas.json"
        sig.write_text(json.dumps(SIGNAL))
        assert run(["recover", "encode", "--in", mat_path, "--signal", str(sig),
                    "--noise=1e4299,0", "--out", str(meas)]) == 0
        assert run(["recover", "decode", "--in", mat_path, "--measurement", str(meas),
                    "--s", "1", "--amp-bound", "1"]) in (0, 1)
        assert capsys.readouterr().err == ""


class TestBudgetRefusals:
    """Every --budget refuses a count above it with exit 2 and one stderr
    line before any work, and runs normally at exactly that count."""

    @pytest.mark.parametrize("argv,count", [
        (["verify", "--in", "mat.json"], 10),  # C(5, 2) minors
        (["verify", "--in", "mat.json", "--trials", "10"], 10),
        (["attack", "--in", "mat.json", "--t", "2", "--lambda", "1"],
         4),  # ((2*1+1)^2 - 1)/2 coefficient differences
        (DECODE, 11),  # 1 + C(5,1)*2 candidates
        (COVER, 9),  # (2*1+1)^2 grid points
    ], ids=["verify", "verify-trials", "attack", "decode", "cover-verify"])
    def test_refuses_above_count(self, tmp_path, monkeypatch, capsys,
                                 argv, count):
        monkeypatch.chdir(tmp_path)
        docs = {"mat.json": matrix_to_dict(construct_vandermonde(2, 3)[0]),
                "meas.json": {"b": ["1", "0"]},
                "normals.json": [[1, 0], [0, 1], [1, 1], [1, -1]]}
        for name, doc in docs.items():
            (tmp_path / name).write_text(json.dumps(doc))
        assert run(argv + ["--budget", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"needs {count} steps" in err
        assert run(argv + ["--budget", str(count)]) in (0, 1)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv,counted", [
        (["verify"], "minors, or trials with --trials"),
        (["attack"], "coefficient differences"),
        (["recover", "decode"], "candidate vectors"),
        (["cover", "verify"], "grid points"),
    ], ids=["verify", "attack", "decode", "cover-verify"])
    def test_help_names_default_and_count(self, capsys, argv, counted):
        assert run(argv + ["--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--budget BUDGET default 10,000,000;" in text
        assert f"more than this many {counted}" in text

    @pytest.mark.parametrize("argv,count", [
        (["cover", "verify", "--in", "normals.json", "--k", "1" + "0" * 2000],
         "needs at least 10^6000 steps"),
        (["attack", "--in", "mat.json", "--t", "2", "--lambda", "1" + "0" * 2200],
         "needs at least 10^4400 steps"),
        (DECODE[:-3] + ["2", "--amp-bound", "1" + "0" * 2200],
         "needs at least 10^4401 steps"),
        (["construct", "--m", "2", "--k", "1" + "0" * 2200, "--variant", "scaled"],
         "rows of more than 10000000 entries"),
    ], ids=["cover-verify", "attack", "decode", "construct"])
    def test_count_past_int_str_limit(self, tmp_path, monkeypatch, capsys,
                                      argv, count):
        # a count too long for Python to write in decimal is refused like
        # any other, not with the interpreter's own conversion error
        monkeypatch.chdir(tmp_path)
        docs = {"mat.json": matrix_to_dict(construct_vandermonde(2, 3)[0]),
                "meas.json": {"b": ["1", "0"]}, "normals.json": [[1, 0, 0]]}
        for name, doc in docs.items():
            (tmp_path / name).write_text(json.dumps(doc))
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert count in err and "10000000" in err
        assert "set_int_max_str_digits" not in err


class TestParserReuse:
    """The parser is built once per process; no call may see another's
    arguments."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_sampled_then_exhaustive(self, mat_path, capsys):
        code, doc = run_json(capsys, ["verify", "--in", mat_path,
                                      "--trials", "5", "--json"])
        assert code == 0 and doc["mode"] == "sampled"
        code, doc = run_json(capsys, ["verify", "--in", mat_path, "--json"])
        assert code == 0 and doc["mode"] == "exhaustive"
        assert doc["trials"] is None and doc["total_checked"] == 10

    def test_requested_width_not_carried_over(self, capsys):
        code, doc = run_json(capsys, ["construct", "--m", "2", "--k", "5",
                                      "--d", "12", "--json"])
        assert code == 0 and doc["d"] == 12
        code, doc = run_json(capsys, ["construct", "--m", "2", "--k", "5",
                                      "--variant", "scaled", "--json"])
        assert code == 0 and doc["d"] == 13 and doc["scalings"] is not None

    def test_usage_error_then_valid_call(self, capsys):
        assert run(["construct", "--m", "two", "--k", "5"]) == 2
        assert run(["bounds", "--m", "2", "--k", "100"]) == 0

    def test_help_twice(self, capsys):
        assert run(["--help"]) == 0
        first = capsys.readouterr().out
        assert run(["--help"]) == 0
        assert capsys.readouterr().out == first


class TestUsageErrors:
    def test_unknown_subcommand_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_no_subcommand_exit_2(self, capsys):
        assert run([]) == 2

    def test_help_exit_0(self, capsys):
        assert run(["--help"]) == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fullrank", "bounds", "--m", "2",
             "--k", "100", "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["upper_bound"] == 11313708

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv,unbuffered", [
        (["bounds", "--m", "2", "--k", "10"], False),
        (["bounds", "--m", "2", "--k", "10"], True),
        (["bounds", "--help"], False),
        (["bounds", "--help"], True),  # argparse swallowed the failed write
    ])
    def test_full_stdout_exit_2(self, argv, unbuffered):
        # the text that could not be written stayed buffered, so the flush at
        # interpreter exit failed again: a second report and exit 120
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "fullrank", *argv],
                                  stdout=full, stderr=subprocess.PIPE,
                                  text=True, env=env)
        assert (proc.returncode, proc.stderr) == (
            2, "error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("out", [False, True], ids=["bounds", "construct-out"])
    def test_closed_stdout_exit_2(self, tmp_path, out):
        # started with fd 1 closed, Python sets sys.stdout to None and print
        # writes nothing; the command still runs and writes its --out file
        path = tmp_path / "f.json"
        argv = (["construct", "--m", "2", "--k", "3", "--out", str(path)] if out
                else ["bounds", "--m", "2", "--k", "3"])
        proc = subprocess.run(["sh", "-c", '"$@" >&-', "sh", sys.executable,
                               "-m", "fullrank", *argv],
                              stderr=subprocess.PIPE, text=True)
        assert (proc.returncode, proc.stderr) == (2, "error: standard output is closed\n")
        if out:
            doc = matrix_to_dict(*construct_vandermonde(2, 3))
            assert path.read_text() == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stderr", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
    @pytest.mark.parametrize("argv,stdout", [
        (["cover", "verify", "--in", "/nonexistent", "--k", "1"], ""),
        (["bounds", "--m", "2", "--k", "3"], ">/dev/full"),
    ], ids=["missing-input", "full-stdout"])
    def test_unwritable_stderr_exit_2(self, argv, stdout, stderr, unbuffered):
        # an error line stderr cannot take is lost and the exit stays 2:
        # with fd 2 closed sys.stderr is None, and print would have sent the
        # line to stdout; opened read-only, the write raised OSError (EBADF)
        # out of run's own handler, and Python exited 1, and once that was
        # caught, a line-buffered stderr kept the line and failed again at
        # exit, and Python exited 120
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.run(["sh", "-c", f'"$@" {stdout} {stderr}', "sh", sys.executable,
                               "-m", "fullrank", *argv],
                              stdout=subprocess.PIPE, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (2, "")


# --- fuzzing the exit-2 contract ------------------------------------------

# values that are not JSON integers; None only where a field is not nullable
NOT_INT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.integers(-99, 99).map(str),
    st.just("1/0"),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.just("x"), st.integers(), max_size=1),
)
NOT_RATIONAL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.integers(-99, 99).map(lambda n: f"{n}/0"),
    st.sampled_from(["", "abc", "1//2", "1/2/3", "0x10", "--1"]),
    st.lists(st.integers(-3, 3), max_size=2),
)
NOT_OBJECT = st.one_of(st.lists(st.integers(-3, 3), max_size=3),
                       st.integers(), st.text(max_size=3), st.none(),
                       st.booleans(), st.floats(allow_nan=False))

MATRIX = {"m": 2, "d": 3, "k": None, "modulus": None,
          "entries": [1, 2, 3, 1, 2, 4], "scalings": None}
SIGNAL3 = {"d": 3, "support": [1], "values": [2]}
MEASUREMENT = {"b": ["1", "0"], "noise": ["0", "0"], "noise_bound": "1/2"}


def with_field(doc, strategies):
    """doc with one of the given fields replaced by a drawn value."""
    return st.sampled_from(sorted(strategies)).flatmap(
        lambda f: strategies[f].map(lambda v: {**doc, f: v}))


def with_bad_item(values, bad):
    """values (a list) with one position replaced by a drawn bad value."""
    return st.tuples(st.integers(0, len(values) - 1), bad).map(
        lambda p: values[:p[0]] + [p[1]] + values[p[0] + 1:])


def without_field(doc, fields):
    return st.sampled_from(fields).map(
        lambda f: {k: v for k, v in doc.items() if k != f})


def not_len(n, item):
    return st.lists(item, max_size=n + 2).filter(lambda v: len(v) != n)


MALFORMED = {
    "matrix": st.one_of(
        NOT_OBJECT,
        without_field(MATRIX, ["m", "d", "entries"]),
        with_field(MATRIX, {
            "m": st.one_of(NOT_INT, st.none()),
            "d": st.one_of(NOT_INT, st.none()),
            "k": NOT_INT,
            "modulus": NOT_INT,
            "entries": st.one_of(
                NOT_INT.filter(lambda v: not isinstance(v, list)),
                with_bad_item(MATRIX["entries"], NOT_INT),
                not_len(6, st.integers(-5, 5))),
            "scalings": st.one_of(
                NOT_INT.filter(lambda v: not isinstance(v, list)),
                with_bad_item([1, 2, 3], NOT_INT),
                not_len(3, st.integers(1, 2))),
        })),
    "signal": st.one_of(
        NOT_OBJECT,
        without_field(SIGNAL3, ["d", "support", "values"]),
        with_field(SIGNAL3, {
            "d": st.one_of(NOT_INT, st.none()),
            "support": st.one_of(with_bad_item([1], NOT_INT),
                                 st.just([1, 2]), st.just([3])),
            "values": st.one_of(with_bad_item([2], NOT_INT),
                                st.just([]), st.just([0])),
        })),
    "measurement": st.one_of(
        NOT_OBJECT,
        without_field(MEASUREMENT, ["b"]),
        with_field(MEASUREMENT, {
            "b": st.one_of(with_bad_item(MEASUREMENT["b"], NOT_RATIONAL),
                           not_len(2, st.sampled_from(["1", "-1/3", "0"])),
                           st.text(max_size=3), st.none()),
            "noise": st.one_of(
                with_bad_item(MEASUREMENT["noise"], NOT_RATIONAL),
                st.just(["0"]), st.just(["0", "0", "0"])),
            "noise_bound": st.one_of(NOT_RATIONAL,
                                     st.sampled_from(["0", "-1/2"])),
        })),
    "normals": st.one_of(
        NOT_OBJECT.filter(lambda v: not isinstance(v, list)),
        st.just([]),
        st.just([[1, 0], [0, 1, 1]]),
        st.just([[0, 0]]),
        with_bad_item([[1, 0], [0, 1]], NOT_INT.filter(
            lambda v: not isinstance(v, list))),
        with_bad_item([[1, 0], [0, 1]], with_bad_item([1, -1], NOT_INT)),
    ),
}
ARGV = {
    "matrix": ["verify", "--in", "{matrix}"],
    "signal": ["recover", "encode", "--in", "{matrix}", "--signal", "{doc}"],
    "measurement": ["recover", "decode", "--in", "{matrix}", "--measurement",
                    "{doc}", "--s", "1", "--amp-bound", "1"],
    "normals": ["cover", "verify", "--in", "{doc}", "--k", "1"],
}


class TestMalformedDocumentsFuzz:
    """Any malformed matrix, signal, measurement or normals document makes
    the subcommand that reads it exit 2, with one line on stderr and
    nothing on stdout."""

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_exit_2_one_line(self, kind):
        @settings(max_examples=60, deadline=None)
        @given(MALFORMED[kind], st.booleans())
        def check(doc, as_json):
            with tempfile.TemporaryDirectory() as tmp:
                matrix = Path(tmp) / "matrix.json"
                path = Path(tmp) / "doc.json"
                matrix.write_text(json.dumps(doc if kind == "matrix" else MATRIX))
                path.write_text(json.dumps(doc))
                argv = [a.format(matrix=matrix, doc=path) for a in ARGV[kind]]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = run(argv + ["--json"] * as_json)
            assert (code, out.getvalue()) == (2, ""), (doc, err.getvalue())
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1

        check()
