"""JSON (de)serialization for matrices, signals, measurements,
certificates and reports.

Matrix schema: {"m": int, "d": int, "k": int|null, "modulus": int|null,
"entries": [row-major ints], "scalings": [ints]|null}. Rationals are
"p/q" strings so files stay exact and diff-friendly.
"""

import json
from fractions import Fraction

from .construct import BoundsReport, ConstructionParams
from .cover import CoverInstance
from .linalg import IntMatrix
from .recover import Measurement, SparseSignal
from .verify import DegeneracyCertificate, VerificationReport


def rational_to_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def rational_from_str(s) -> Fraction:
    # Fraction("3/10"), Fraction("-2"), Fraction("0.3") are all exact
    return Fraction(str(s).strip())


def matrix_to_dict(A: IntMatrix, params: ConstructionParams | None = None) -> dict:
    scalings = list(params.scalings) if params and params.scalings else None
    return {
        "m": A.rows,
        "d": A.cols,
        "k": A.entry_bound,
        "modulus": A.modulus,
        "entries": list(A.entries),
        "scalings": scalings,
    }


def _json_int(name: str, value, nullable: bool = False):
    """value itself when it is a JSON integer (or null, if allowed); bools,
    floats and strings are refused instead of coerced."""
    if type(value) is int or (nullable and value is None):
        return value
    raise ValueError(
        f"matrix JSON field {name!r} must be an integer, got {json.dumps(value)}")


def _json_ints(name: str, values, nullable: bool = False):
    if nullable and values is None:
        return None
    if not isinstance(values, list):
        raise ValueError(f"matrix JSON field {name!r} must be a list of integers")
    return [_json_int(name, v) for v in values]


def matrix_from_dict(obj: dict) -> tuple[IntMatrix, list[int] | None]:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        matrix = IntMatrix(
            rows=_json_int("m", obj["m"]),
            cols=_json_int("d", obj["d"]),
            entries=tuple(_json_ints("entries", obj["entries"])),
            modulus=_json_int("modulus", obj.get("modulus"), nullable=True),
            entry_bound=_json_int("k", obj.get("k"), nullable=True),
        )
    except KeyError as exc:
        raise ValueError(f"matrix JSON missing field {exc}") from exc
    return matrix, _json_ints("scalings", obj.get("scalings"), nullable=True)


def matrix_to_csv(A: IntMatrix) -> str:
    return "\n".join(",".join(str(x) for x in A.row(i)) for i in range(A.rows)) + "\n"


def signal_to_dict(x: SparseSignal) -> dict:
    return {"d": x.dimension, "support": list(x.support), "values": list(x.values)}


def signal_from_dict(obj: dict) -> SparseSignal:
    try:
        return SparseSignal(
            dimension=int(obj["d"]),
            support=tuple(int(i) for i in obj["support"]),
            values=tuple(int(v) for v in obj["values"]),
        )
    except KeyError as exc:
        raise ValueError(f"signal JSON missing field {exc}") from exc


def measurement_to_dict(meas: Measurement) -> dict:
    return {
        "b": [rational_to_str(x) for x in meas.b],
        "noise": [rational_to_str(x) for x in meas.noise],
        "noise_bound": rational_to_str(meas.noise_bound),
    }


def measurement_from_dict(obj: dict) -> Measurement:
    try:
        return Measurement(
            b=tuple(rational_from_str(x) for x in obj["b"]),
            noise=tuple(rational_from_str(x) for x in obj.get("noise", [])),
            noise_bound=rational_from_str(obj.get("noise_bound", "1/2")),
        )
    except KeyError as exc:
        raise ValueError(f"measurement JSON missing field {exc}") from exc


def certificate_to_dict(cert: DegeneracyCertificate) -> dict:
    return {"t": cert.t, "coeffs": list(cert.coeffs), "columns": list(cert.columns)}


def certificate_from_dict(obj: dict) -> DegeneracyCertificate:
    try:
        return DegeneracyCertificate(
            t=int(obj["t"]),
            coeffs=tuple(int(c) for c in obj["coeffs"]),
            columns=tuple(int(c) for c in obj["columns"]),
        )
    except KeyError as exc:
        raise ValueError(f"certificate JSON missing field {exc}") from exc


def report_to_dict(rep: VerificationReport) -> dict:
    return {
        "total_checked": rep.total_checked,
        "failures": [list(f) for f in rep.failures],
        "mode": rep.mode,
        "seed": rep.seed,
        "trials": rep.trials,
        "ok": rep.ok,
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


def normals_from_obj(obj, m: int | None = None) -> list[tuple[int, ...]]:
    """Parse a JSON list of integer normal vectors."""
    if not isinstance(obj, list):
        raise ValueError("normals JSON must be a list of integer vectors")
    normals = [tuple(int(x) for x in n) for n in obj]
    if m is not None and any(len(n) != m for n in normals):
        raise ValueError(f"every normal must have length {m}")
    return normals


def cover_to_dict(inst: CoverInstance) -> dict:
    return {"m": inst.m, "k": inst.k, "normals": [list(n) for n in inst.normals]}


def save_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
