"""Command-line surface.

Exit codes: 0 success/accept; 1 property violation (verification
failures, a found degeneracy certificate, decode ambiguity, rejected
cover); 2 invalid input, budget refusal or usage error.
"""

import argparse
import functools
import importlib
import json
import sys
from fractions import Fraction

from . import attack as attack_mod
from . import cover as cover_mod
from . import recover as recover_mod
from . import serialize as ser
from . import verify as verify_mod
from .errors import (
    BudgetExceededError,
    ConstructionInfeasibleError,
    PrimeNotFoundError,
)

# The package rebinds its attribute ``construct`` to the function of that
# name, so the module is looked up by its full name.
construct_mod = importlib.import_module(f"{__package__}.construct")

# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _load_matrix(path: str):
    return ser.matrix_from_dict(ser.load_json(path))


def _emit(args, obj: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(obj))
    else:
        print(human)


def cmd_construct(args) -> int:
    params = None
    if args.d is not None:
        matrix = construct_mod.construct(args.m, args.k, args.d)
    elif args.variant == construct_mod.SCALED:
        matrix, params = construct_mod.construct_scaled(args.m, args.k)
    else:
        matrix, params = construct_mod.construct_vandermonde(args.m, args.k)
    doc = ser.matrix_to_dict(matrix, params)
    if args.out:
        ser.save_json(args.out, doc)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as fh:
            fh.write(ser.matrix_to_csv(matrix))
    variant = params.variant if params else "auto"
    _emit(args, doc,
          f"constructed {matrix.rows}x{matrix.cols} matrix "
          f"(variant={variant}, modulus={matrix.modulus}, "
          f"entry_bound={matrix.entry_bound})"
          + (f" -> {args.out}" if args.out else ""))
    return 0


def cmd_verify(args) -> int:
    matrix, _ = _load_matrix(args.infile)
    if args.trials is not None:
        report = verify_mod.verify_sampled(
            matrix, trials=args.trials, seed=args.seed)
    else:
        report = verify_mod.verify_exhaustive(matrix, budget=args.budget)
    doc = ser.report_to_dict(report)
    lines = [
        f"checked {report.total_checked} minors "
        f"({report.mode}): {len(report.failures)} failures"
    ]
    for f in report.failures[:20]:
        lines.append(f"  degenerate columns: {list(f)}")
    if len(report.failures) > 20:
        lines.append(f"  ... and {len(report.failures) - 20} more")
    _emit(args, doc, "\n".join(lines))
    return 0 if report.ok else 1


def cmd_attack(args) -> int:
    matrix, _ = _load_matrix(args.infile)
    if args.t is None or args.lam is None:
        k_eff = matrix.entry_bound or max(matrix.max_abs_entry(), 1)
        defaults = attack_mod.attack_params(matrix.rows, max(k_eff, 2))
        t = args.t if args.t is not None else defaults.t
        lam = args.lam if args.lam is not None else defaults.lam
    else:
        t, lam = args.t, args.lam
    min_agree = args.min_agree if args.min_agree is not None else matrix.rows
    cfg = attack_mod.AttackConfig(
        t=t, lam=lam, min_agree=min_agree, budget=args.budget)
    cert = attack_mod.find_collision(matrix, cfg)
    if cert is None:
        _emit(args, {"certificate": None},
              f"no degeneracy found (t={cfg.t}, coefficient range 0..{cfg.lam})")
        return 0
    doc = ser.certificate_to_dict(cert)
    if args.out:
        ser.save_json(args.out, doc)
    _emit(args, {"certificate": doc},
          f"degeneracy certificate: coeffs={list(cert.coeffs)} on first {cert.t} "
          f"rows vanish at columns {list(cert.columns)}"
          + (f" -> {args.out}" if args.out else ""))
    return 1


def cmd_recover_encode(args) -> int:
    matrix, _ = _load_matrix(args.infile)
    signal = ser.signal_from_dict(ser.load_json(args.signal))
    if args.noise:
        noise = tuple(ser.rational_from_str(t) for t in args.noise.split(","))
    else:
        noise = tuple(Fraction(0) for _ in range(matrix.rows))
    meas = recover_mod.encode(matrix, signal, noise,
                              noise_bound=ser.rational_from_str(args.noise_bound))
    doc = ser.measurement_to_dict(meas)
    if args.out:
        ser.save_json(args.out, doc)
    flag = "inside" if meas.in_guarantee else "OUTSIDE"
    _emit(args, doc,
          f"b = {[ser.rational_to_str(x) for x in meas.b]} "
          f"(noise {flag} the <{meas.noise_bound} guarantee)"
          + (f" -> {args.out}" if args.out else ""))
    return 0


def cmd_recover_decode(args) -> int:
    matrix, _ = _load_matrix(args.infile)
    meas = ser.measurement_from_dict(ser.load_json(args.measurement))
    result = recover_mod.decode(matrix, meas, s=args.s,
                                amp_bound=args.amp_bound, budget=args.budget)
    doc = {
        "minimizers": [ser.signal_to_dict(x) for x in result.minimizers],
        "residual": ser.rational_to_str(result.residual),
        "ambiguous": result.ambiguous,
        "sparsity_in_guarantee": result.sparsity_in_guarantee,
    }
    if result.ambiguous:
        _emit(args, doc,
              f"ambiguous: {len(result.minimizers)} minimizers at residual "
              f"{ser.rational_to_str(result.residual)}")
        return 1
    if args.out:
        ser.save_json(args.out, ser.signal_to_dict(result.signal))
    _emit(args, doc,
          f"decoded signal support={list(result.signal.support)} "
          f"values={list(result.signal.values)} residual="
          f"{ser.rational_to_str(result.residual)}"
          + (f" -> {args.out}" if args.out else ""))
    return 0


def cmd_cover_verify(args) -> int:
    normals = ser.normals_from_obj(ser.load_json(args.infile), m=args.m)
    if not normals and args.m is None:
        raise ValueError("empty normals list needs an explicit --m")
    m = args.m if args.m is not None else len(normals[0])
    inst = cover_mod.CoverInstance(m=m, k=args.k, normals=tuple(normals))
    check = cover_mod.verify_cover(inst, budget=args.budget)
    doc = {
        "accepted": check.accepted,
        "uncovered": None if check.uncovered is None else list(check.uncovered),
        "points_checked": check.points_checked,
    }
    if check.accepted:
        _emit(args, doc, f"cover accepted ({check.points_checked} points)")
        return 0
    _emit(args, doc, f"cover rejected: first uncovered point {list(check.uncovered)}")
    return 1


def cmd_cover_bound(args) -> int:
    bound = cover_mod.cover_lower_bound(args.m, args.k)
    _emit(args, {"m": args.m, "k": args.k, "lower_bound": bound},
          f"any hyperplane cover of the grid needs >= {bound} hyperplanes")
    return 0


def cmd_cover_min(args) -> int:
    size, witness = cover_mod.min_cover_bruteforce(args.m, args.k)
    doc = {"m": args.m, "k": args.k, "minimum": size,
           "witness": [list(n) for n in witness]}
    if args.out:
        ser.save_json(args.out, [list(n) for n in witness])
    _emit(args, doc,
          f"minimum cover uses {size} hyperplanes; witness normals: "
          f"{[list(n) for n in witness]}"
          + (f" -> {args.out}" if args.out else ""))
    return 0


def cmd_bounds(args) -> int:
    rep = construct_mod.bounds_report(args.m, args.k)
    doc = ser.bounds_to_dict(rep)
    lines = [
        f"m={rep.m} k={rep.k} regime={rep.regime}",
        f"upper bound on width d: {rep.upper_bound}",
        f"constructible width d: {rep.lower_bound}",
        f"gap factor: {float(rep.gap_factor):.3f}",
    ]
    if rep.small_k_caveat:
        lines.append("note: the upper bound is asymptotic and proves nothing "
                     "at entry bounds this small")
    _emit(args, doc, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_json(p):
    p.add_argument("--json", action="store_true",
                   help="emit a single machine-parseable JSON document")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: parsing
    returns a fresh namespace each call, and the handlers look up the
    module functions they call at call time."""
    parser = argparse.ArgumentParser(
        prog="fullrank",
        description="Bounded integer matrices with every maximal minor "
                    "invertible: construct, verify, attack, recover, cover.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a matrix and write it as JSON")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=None,
                   help="request this many columns (validated against the "
                        "guaranteed width)")
    p.add_argument("--variant", choices=[construct_mod.VANDERMONDE,
                                         construct_mod.SCALED],
                   default=construct_mod.VANDERMONDE,
                   help="family to build when --d is not given")
    p.add_argument("--out", default=None, help="matrix JSON path")
    p.add_argument("--csv-out", default=None, help="plain rows CSV path")
    _add_json(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check maximal minors for degeneracy")
    p.add_argument("--in", dest="infile", required=True, help="matrix JSON path")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true",
                      help="check every minor (default)")
    mode.add_argument("--trials", type=int, default=None,
                      help="sampled mode: number of random minors")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled mode (default 0)")
    p.add_argument("--budget", type=int, default=verify_mod.DEFAULT_BUDGET)
    _add_json(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("attack",
                       help="search row combinations for a degeneracy certificate")
    p.add_argument("--in", dest="infile", required=True, help="matrix JSON path")
    p.add_argument("--t", type=int, default=None, help="leading rows to combine")
    p.add_argument("--lambda", dest="lam", type=int, default=None,
                   help="max coefficient")
    p.add_argument("--min-agree", type=int, default=None,
                   help="required agreements (default: row count)")
    p.add_argument("--budget", type=int, default=attack_mod.DEFAULT_BUDGET)
    p.add_argument("--out", default=None, help="certificate JSON path")
    _add_json(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("recover", help="encode/decode sparse integer signals")
    rsub = p.add_subparsers(dest="recover_command", required=True)

    pe = rsub.add_parser("encode", help="b = Ax + e with exact rationals")
    pe.add_argument("--in", dest="infile", required=True, help="matrix JSON path")
    pe.add_argument("--signal", required=True, help="signal JSON path")
    pe.add_argument("--noise", default=None,
                    help='comma-separated rationals, e.g. "3/10,-1/5"')
    pe.add_argument("--noise-bound", default="1/2")
    pe.add_argument("--out", default=None, help="measurement JSON path")
    _add_json(pe)
    pe.set_defaults(func=cmd_recover_encode)

    pd = rsub.add_parser("decode", help="exhaustive sup-norm decoder")
    pd.add_argument("--in", dest="infile", required=True, help="matrix JSON path")
    pd.add_argument("--measurement", required=True, help="measurement JSON path")
    pd.add_argument("--s", type=int, required=True, help="sparsity")
    pd.add_argument("--amp-bound", type=int, required=True,
                    help="max |value| searched")
    pd.add_argument("--budget", type=int, default=recover_mod.DEFAULT_BUDGET)
    pd.add_argument("--out", default=None, help="decoded signal JSON path")
    _add_json(pd)
    pd.set_defaults(func=cmd_recover_decode)

    p = sub.add_parser("cover", help="grid covering by hyperplanes")
    csub = p.add_subparsers(dest="cover_command", required=True)

    pv = csub.add_parser("verify", help="check a cover of the grid")
    pv.add_argument("--in", dest="infile", required=True,
                    help="JSON list of normal vectors")
    pv.add_argument("--k", type=int, required=True)
    pv.add_argument("--m", type=int, default=None,
                    help="dimension (default: length of the first normal)")
    pv.add_argument("--budget", type=int, default=cover_mod.DEFAULT_BUDGET)
    _add_json(pv)
    pv.set_defaults(func=cmd_cover_verify)

    pb = csub.add_parser("bound", help="lower bound on the cover size")
    pb.add_argument("--m", type=int, required=True)
    pb.add_argument("--k", type=int, required=True)
    _add_json(pb)
    pb.set_defaults(func=cmd_cover_bound)

    pm = csub.add_parser("min", help="exact minimum cover for tiny grids")
    pm.add_argument("--m", type=int, required=True)
    pm.add_argument("--k", type=int, required=True)
    pm.add_argument("--out", default=None, help="witness normals JSON path")
    _add_json(pm)
    pm.set_defaults(func=cmd_cover_min)

    p = sub.add_parser("bounds", help="width bounds report for (m, k)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=cmd_bounds)

    return parser


def run(argv) -> int:
    """Parse and dispatch; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, PrimeNotFoundError, ConstructionInfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
