"""JSON (de)serialization for matrices, signals, measurements and cover
normals, and the JSON documents of certificates, reports and results.

Matrix schema: {"m": int, "d": int, "k": int|null, "modulus": int|null,
"entries": [row-major ints], "scalings": [ints]|null}. Rationals are
"p/q" strings so files stay exact and diff-friendly.

The readers check only JSON shape (an object, a list of normal lists, a
missing field) and hand the raw values to the constructors, which refuse
floats, bools and quoted numbers by the one rule in intmath (exact_ints,
exact_rationals).
"""

import json
import os
import stat
import sys
from fractions import Fraction
from operator import add

from .construct import BoundsReport, ConstructionParams
from .cover import CoverCheck, CoverInstance
from .intmath import exact_ints, exact_rationals
from .linalg import IntMatrix
from .recover import HALF, DecodeResult, Measurement, SparseSignal
from .verify import DegeneracyCertificate, VerificationReport


def rational_to_str(x) -> str:
    """"p/q" for x in lowest terms; a value whose type is exactly Fraction
    (as Measurement and DecodeResult hold) is used as it is, and any other
    goes through exact_rationals."""
    f = x if type(x) is Fraction else exact_rationals((x,), "rational")[0]
    return f"{f.numerator}/{f.denominator}"


def rational_from_str(s) -> Fraction:
    """Exact rational from a "p/q", integer or decimal string ("3/10",
    "-2", "0.3") or a JSON integer; anything else, or a zero denominator,
    is a ValueError."""
    return exact_rationals((s,), "rational")[0]


def matrix_to_dict(A: IntMatrix, params: ConstructionParams | None = None) -> dict:
    scalings = list(params.scalings[:A.cols]) if params and params.scalings else None
    return {
        "m": A.rows,
        "d": A.cols,
        "k": A.entry_bound,
        "modulus": A.modulus,
        "entries": list(A.entries),
        "scalings": scalings,
    }


def _from_object(doc: str, obj, build):
    """build(obj) for a JSON object obj; a non-object or a missing field is
    a ValueError naming the document."""
    if not isinstance(obj, dict):
        raise ValueError(f"{doc} JSON must be an object")
    try:
        return build(obj)
    except KeyError as exc:
        raise ValueError(f"{doc} JSON missing field {exc}") from exc


def matrix_from_dict(obj: dict) -> tuple[IntMatrix, tuple[int, ...] | None]:
    matrix = _from_object("matrix", obj, lambda o: IntMatrix(
        rows=o["m"], cols=o["d"], entries=o["entries"],
        modulus=o.get("modulus"), entry_bound=o.get("k")))
    scalings = obj.get("scalings")
    if scalings is None:
        return matrix, None
    scalings = exact_ints(scalings, "matrix scalings")
    if len(scalings) != matrix.cols:
        raise ValueError(f"matrix scalings: expected d = {matrix.cols} "
                         f"multipliers, got {len(scalings)}")
    return matrix, scalings


def matrix_to_csv(A: IntMatrix) -> str:
    return "\n".join(",".join(str(x) for x in A.row(i)) for i in range(A.rows)) + "\n"


def signal_to_dict(x: SparseSignal) -> dict:
    return {"d": x.dimension, "support": list(x.support), "values": list(x.values)}


def signal_from_dict(obj: dict) -> SparseSignal:
    return _from_object("signal", obj, lambda o: SparseSignal(
        dimension=o["d"], support=o["support"], values=o["values"]))


def measurement_to_dict(meas: Measurement) -> dict:
    return {
        "b": [rational_to_str(x) for x in meas.b],
        "noise": [rational_to_str(x) for x in meas.noise],
        "noise_bound": rational_to_str(meas.noise_bound),
    }


def measurement_from_dict(obj: dict) -> Measurement:
    return _from_object("measurement", obj, lambda o: Measurement(
        b=o["b"], noise=o.get("noise", []),
        noise_bound=o.get("noise_bound", HALF)))


def certificate_to_dict(cert: DegeneracyCertificate) -> dict:
    return {"t": cert.t, "coeffs": list(cert.coeffs), "columns": list(cert.columns)}


def report_to_dict(rep: VerificationReport) -> dict:
    return {
        "total_checked": rep.total_checked,
        "failures": [list(f) for f in rep.failures],
        "mode": rep.mode,
        "seed": rep.seed,
        "trials": rep.trials,
        "ok": rep.ok,
    }


def decode_to_dict(result: DecodeResult) -> dict:
    return {
        "minimizers": [signal_to_dict(x) for x in result.minimizers],
        "residual": rational_to_str(result.residual),
        "ambiguous": result.ambiguous,
        "sparsity_in_guarantee": result.sparsity_in_guarantee,
    }


def cover_check_to_dict(check: CoverCheck) -> dict:
    return {
        "accepted": check.accepted,
        "uncovered": None if check.uncovered is None else list(check.uncovered),
        "points_checked": check.points_checked,
    }


def bounds_to_dict(rep: BoundsReport) -> dict:
    return {
        "m": rep.m,
        "k": rep.k,
        "regime": rep.regime,
        "upper_bound": rep.upper_bound,
        "lower_bound": rep.lower_bound,
        "gap_factor": rational_to_str(rep.gap_factor),
        "small_k_caveat": rep.small_k_caveat,
    }


def normals_from_obj(obj) -> list[list]:
    """A JSON list of normal vectors, each a list; CoverInstance checks
    their entries and lengths."""
    if not isinstance(obj, list) or not all(isinstance(n, list) for n in obj):
        raise ValueError("normals JSON must be a list of integer vectors")
    return obj


def cover_from_obj(obj, k: int, m: int | None = None) -> CoverInstance:
    """The cover of the grid of radius k by the normals in obj; the
    dimension m defaults to the length of the first normal."""
    normals = normals_from_obj(obj)
    if m is None:
        if not normals:
            raise ValueError("empty normals list needs an explicit --m")
        m = len(normals[0])
    return CoverInstance(m=m, k=k, normals=tuple(normals))


def _texts(obj, pad: str = "\n") -> tuple[str, str]:
    """json.dumps(obj)'s text and json.dumps(obj, indent=2)'s, whose line
    starts with pad, made in one pass. Any indent selects json's
    pure-Python encoder, one step per token, so dicts and non-empty lists
    recurse here. A flat list of ints is json.dumps's text, made once by
    its C encoder; no int holds ", ", so its indented text is that text
    with each ", " a line break. A flat list of strings is joined from
    each item's json.dumps. Every other value, an empty container
    included, is json.dumps's in both (dict keys are strings in every
    document)."""
    if not (obj and isinstance(obj, (dict, list, tuple))):
        text = json.dumps(obj)
        return text, text
    inner = pad + "  "
    if isinstance(obj, dict):
        keys = [json.dumps(key) + ": " for key in obj]
        compact, indented = zip(*(_texts(value, inner) for value in obj.values()))
        return ("{" + ", ".join(map(add, keys, compact)) + "}",
                "{" + inner + ("," + inner).join(map(add, keys, indented)) + pad + "}")
    kinds = set(map(type, obj))
    if kinds == {int}:  # not bool, which json writes as true
        text = json.dumps(obj)
        return text, "[" + inner + text[1:-1].replace(", ", "," + inner) + pad + "]"
    if kinds == {str}:
        compact = indented = list(map(json.dumps, obj))
    else:
        compact, indented = zip(*(_texts(x, inner) for x in obj))
    return ("[" + ", ".join(compact) + "]",
            "[" + inner + ("," + inner).join(indented) + pad + "]")


def _std_fd(fd: int, st: os.stat_result) -> int:
    """1 or 2 when the regular file st, open on fd, is the file open on
    fd 1 or fd 2, its stream (sys.stdout, sys.stderr) flushed; else fd. A
    closed fd 1 or 2 is no file, and one that fd itself now holds is not
    the stream's."""
    for std, stream in ((1, sys.stdout), (2, sys.stderr)):
        try:
            same = std != fd and os.path.samestat(st, os.fstat(std))
        except OSError:
            continue
        if same:
            if stream is not None:
                stream.flush()
            return std
    return fd


def save_text(path: str, text: str) -> None:
    """Write text, UTF-8, as the whole content of the file at path, made
    with open(path, "w")'s permissions if missing. A regular file is
    rewritten in place: its length is set to the new text's before the
    write, never to zero first, which on ext4 starts a flush of the file
    at close (nothing is fsynced either way). A target that is not a
    regular file (/dev/null, a pipe) is written without a truncate. If a
    write fails, a regular file is cut to 0 bytes, so no old tail stays
    behind a new prefix, and the error is raised.

    A regular file that is the one open on fd 1 or fd 2 (--out /dev/stdout
    with stdout redirected to a file) is that stream's next text: the
    stream is flushed and the text written through its descriptor at its
    own offset, with no truncate, so what was written there before and
    the lines printed after both stay."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        st = os.fstat(fd)
        regular = stat.S_ISREG(st.st_mode)
        out = _std_fd(fd, st) if regular else fd
        in_place = regular and out == fd
        try:
            if in_place:
                os.ftruncate(fd, len(data))
            view = memoryview(data)
            while view:
                view = view[os.write(out, view):]
        except OSError:
            if in_place:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


def save_json(path: str, obj) -> str:
    """Write json.dump(obj, indent=2)'s text and a newline as the file at
    path, in one string (json.dump writes once per token); returns
    json.dumps(obj)'s text, made in the same pass."""
    compact, indented = _texts(obj)
    save_text(path, indented + "\n")
    return compact


def load_json(path: str):
    """The JSON document in the file at path; a ValueError naming it if not."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, or nested too deep
            raise ValueError(f"{path}: {exc}") from exc
