import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from fullrank.attack import attack_params
from fullrank.cli import build_parser, run
from fullrank.construct import bounds_report, construct_scaled, construct_vandermonde
from fullrank.serialize import (
    matrix_from_dict,
    matrix_to_csv,
    matrix_to_dict,
    rational_from_str,
    rational_to_str,
)
from oracles import floor_exp


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

    def test_csv_export(self):
        A, _ = construct_vandermonde(2, 3)
        assert matrix_to_csv(A) == "1,1,1,1,1\n1,2,-2,-1,0\n"


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

    def test_invalid_parameters_exit_2(self, capsys):
        assert run(["construct", "--m", "2", "--k", "1"]) == 2
        assert run(["construct", "--m", "3", "--k", "2", "--d", "10"]) == 2


class TestVerifyCommand:
    def test_clean_matrix_exit_0(self, mat_path, capsys):
        code, doc = run_json(capsys, ["verify", "--in", mat_path,
                                      "--exhaustive", "--json"])
        assert code == 0
        assert (doc["total_checked"], doc["failures"]) == (10, [])

    def test_degenerate_matrix_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "m": 2, "d": 3, "k": None, "modulus": None,
            "entries": [1, 1, 1, 1, 1, 2], "scalings": None}))
        code, doc = run_json(capsys, ["verify", "--in", str(bad), "--json"])
        assert code == 1
        assert doc["failures"] == [[0, 1]]

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

    def test_min_budget_exit_2(self):
        assert run(["cover", "min", "--m", "3", "--k", "2"]) == 2


class TestBoundsCommand:
    def test_spot_values_json(self, capsys):
        code, doc = run_json(capsys, ["bounds", "--m", "2", "--k", "100",
                                      "--json"])
        assert code == 0
        assert doc["upper_bound"] == 11313708
        assert doc["lower_bound"] == 5000
        assert doc["regime"] == "small_m"


SIGNAL = {"d": 5, "support": [2], "values": [2]}
ENCODE = ["recover", "encode", "--in", "mat.json", "--signal", "sig.json"]
DECODE = ["recover", "decode", "--in", "mat.json", "--measurement",
          "meas.json", "--s", "1", "--amp-bound", "1"]
COVER = ["cover", "verify", "--in", "normals.json", "--k", "1"]


class TestStrictInputs:
    """Malformed signal, measurement, normals and rational inputs, and
    attack options no matrix could satisfy, exit 2 with a one-line error
    instead of being coerced, raising or answering."""

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
        ({"meas.json": {"b": ["1/0", "0"]}}, DECODE),
        ({"meas.json": {"b": [1.5, 0]}}, DECODE),
        ({"meas.json": {"b": "12"}}, DECODE),
        ({"meas.json": {"b": ["1", "0"], "noise": ["0", "1/0"]}}, DECODE),
        ({"meas.json": {"b": ["1", "0"], "noise_bound": "1/0"}}, DECODE),
        ({"meas.json": ["1", "0"]}, DECODE),
        ({"meas.json": {"b": ["1", "0"], "noise": ["0"]}}, DECODE),
        ({}, ["attack", "--in", "mat.json", "--t", "1", "--lambda", "1",
              "--min-agree", "99"]),
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
