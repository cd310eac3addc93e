"""Command-line surface: parse, call the domain modules, emit.

Exit codes: 0 success/accept; 1 property violation (verification
failures, a found degeneracy certificate, decode ambiguity, rejected
cover); 2 invalid input, budget refusal, usage error or a failed write.
"""

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import sys
from typing import NamedTuple

from . import attack as attack_mod
from . import cover as cover_mod
from . import recover as recover_mod
from . import serialize as ser
from . import verify as verify_mod
from .errors import DEFAULT_BUDGET

# The package rebinds its attribute ``construct`` to the function of that
# name, so the module is looked up by its full name.
construct_mod = importlib.import_module(f"{__package__}.construct")


class Outcome(NamedTuple):
    """A handler's result for run(): exit code, --json document, human text,
    and the --out document and --csv-out text (None writes no file)."""

    code: int
    doc: object
    human: str
    out_doc: object = None
    csv: str | None = None


@contextlib.contextmanager
def _all_digits():
    """Python's int-to-str digit limit lifted while an answer, which may
    outgrow its input, is made into text; input is parsed under the limit
    (so as a decorator, only on handlers that read nothing but options)."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def _load_matrix(path: str):
    return ser.matrix_from_dict(ser.load_json(path))[0]


def cmd_construct(args) -> Outcome:
    if args.d is not None:
        matrix, params = construct_mod.construct_width(args.m, args.k, args.d)
    elif args.variant == construct_mod.SCALED:
        matrix, params = construct_mod.construct_scaled(args.m, args.k)
    else:
        matrix, params = construct_mod.construct_vandermonde(args.m, args.k)
    doc = ser.matrix_to_dict(matrix, params)
    return Outcome(0, doc,
                   f"constructed {matrix.rows}x{matrix.cols} matrix "
                   f"(variant={params.variant}, modulus={matrix.modulus}, "
                   f"entry_bound={matrix.entry_bound})",
                   out_doc=doc,
                   csv=ser.matrix_to_csv(matrix) if args.csv_out else None)


def cmd_verify(args) -> Outcome:
    if args.trials is None and args.seed is not None:
        raise ValueError("--seed applies only to sampled mode (--trials)")
    matrix = _load_matrix(args.infile)
    if args.trials is not None:
        report = verify_mod.verify_sampled(
            matrix, trials=args.trials, seed=args.seed or 0, budget=args.budget)
    else:
        report = verify_mod.verify_exhaustive(matrix, budget=args.budget)
    lines = [f"checked {report.total_checked} minors "
             f"({report.mode}): {len(report.failures)} failures"]
    lines += [f"  degenerate columns: {list(f)}" for f in report.failures[:20]]
    if len(report.failures) > 20:
        lines.append(f"  ... and {len(report.failures) - 20} more")
    return Outcome(0 if report.ok else 1, ser.report_to_dict(report),
                   "\n".join(lines))


def cmd_attack(args) -> Outcome:
    matrix = _load_matrix(args.infile)
    cfg = attack_mod.attack_config(matrix, t=args.t, lam=args.lam,
                                   min_agree=args.min_agree)
    cert = attack_mod.find_collision(matrix, cfg, args.budget)
    if cert is None:
        return Outcome(0, {"certificate": None}, f"no degeneracy found "
                       f"(t={cfg.t}, coefficient range 0..{cfg.lam})")
    doc = ser.certificate_to_dict(cert)
    return Outcome(1, {"certificate": doc},
                   f"degeneracy certificate: coeffs={list(cert.coeffs)} on "
                   f"first {cert.t} rows vanish at columns {list(cert.columns)}",
                   out_doc=doc)


def cmd_recover_encode(args) -> Outcome:
    matrix = _load_matrix(args.infile)
    signal = ser.signal_from_dict(ser.load_json(args.signal))
    noise = None if args.noise is None else args.noise.split(",")
    meas = recover_mod.encode(matrix, signal, noise, noise_bound=args.noise_bound)
    doc = ser.measurement_to_dict(meas)
    flag = "inside" if meas.in_guarantee else "OUTSIDE"
    return Outcome(0, doc,
                   f"b = {[ser.rational_to_str(x) for x in meas.b]} "
                   f"(noise {flag} the <{meas.noise_bound} guarantee)",
                   out_doc=doc)


def cmd_recover_decode(args) -> Outcome:
    matrix = _load_matrix(args.infile)
    meas = ser.measurement_from_dict(ser.load_json(args.measurement))
    result = recover_mod.decode(matrix, meas, s=args.s,
                                amp_bound=args.amp_bound, budget=args.budget)
    doc = ser.decode_to_dict(result)
    residual = ser.rational_to_str(result.residual)
    if result.ambiguous:
        return Outcome(1, doc, f"ambiguous: {len(result.minimizers)} "
                               f"minimizers at residual {residual}")
    return Outcome(0, doc,
                   f"decoded signal support={list(result.signal.support)} "
                   f"values={list(result.signal.values)} residual={residual}",
                   out_doc=ser.signal_to_dict(result.signal))


def cmd_cover_verify(args) -> Outcome:
    inst = ser.cover_from_obj(ser.load_json(args.infile), args.k, m=args.m)
    check = cover_mod.verify_cover(inst, budget=args.budget)
    doc = ser.cover_check_to_dict(check)
    if check.accepted:
        return Outcome(0, doc, f"cover accepted ({check.points_checked} points)")
    return Outcome(1, doc,
                   f"cover rejected: first uncovered point {list(check.uncovered)}")


@_all_digits()
def cmd_cover_bound(args) -> Outcome:
    bound = cover_mod.cover_lower_bound(args.m, args.k)
    return Outcome(0, {"m": args.m, "k": args.k, "lower_bound": bound},
                   f"any hyperplane cover of the grid needs >= {bound} hyperplanes")


def cmd_cover_min(args) -> Outcome:
    size, witness = cover_mod.min_cover_bruteforce(args.m, args.k)
    normals = [list(n) for n in witness]
    return Outcome(0, {"m": args.m, "k": args.k, "minimum": size,
                       "witness": normals},
                   f"minimum cover uses {size} hyperplanes; witness normals: {normals}",
                   out_doc=normals)


@_all_digits()
def cmd_bounds(args) -> Outcome:
    rep = construct_mod.bounds_report(args.m, args.k)
    lines = [f"m={rep.m} k={rep.k} regime={rep.regime}",
             f"upper bound on width d: {rep.upper_bound}",
             f"constructible width d: {rep.lower_bound}",
             f"gap factor: {float(rep.gap_factor):.3f}"]
    if rep.small_k_caveat:
        lines.append("note: the upper bound is asymptotic and proves nothing "
                     "at entry bounds this small")
    return Outcome(0, ser.bounds_to_dict(rep), "\n".join(lines))


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
    matrix_in = argparse.ArgumentParser(add_help=False)
    matrix_in.add_argument("--in", dest="infile", required=True,
                           help="matrix JSON path")
    m_and_k = argparse.ArgumentParser(add_help=False)
    m_and_k.add_argument("--m", type=int, required=True)
    m_and_k.add_argument("--k", type=int, required=True)
    commands = []

    def command(group, name, func, text, parents=(), budget=None, out=None):
        """A subcommand whose own options go between its parents' options
        and --budget (budget names what it counts), --out (with help text
        out) and --json, which the loop at the end adds last; as parents
        they would lead every usage line."""
        p = group.add_parser(name, help=text, parents=list(parents))
        p.set_defaults(func=func)
        commands.append((p, budget, out))
        return p

    p = command(sub, "construct", cmd_construct,
                "build a matrix and write it as JSON", [m_and_k])
    width = p.add_mutually_exclusive_group()
    width.add_argument("--d", type=int, default=None,
                       help="request this many columns (validated against the "
                            "guaranteed width)")
    # default None, so that any --variant given with --d is a usage error
    width.add_argument("--variant", choices=[construct_mod.VANDERMONDE,
                                             construct_mod.SCALED],
                       help="family to build when --d is not given")
    p.add_argument("--out", default=None, help="matrix JSON path")
    p.add_argument("--csv-out", default=None, help="plain rows CSV path")

    p = command(sub, "verify", cmd_verify,
                "check maximal minors for degeneracy", [matrix_in],
                budget="minors, or trials with --trials; an unproved sweep's "
                       "m*2^(m-1) Laplace terms count too")
    p.add_argument("--trials", type=int, default=None,
                   help="sampled mode: number of random minors (without "
                        "--trials every minor is checked)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for sampled mode only (default 0)")

    p = command(sub, "attack", cmd_attack,
                "search row combinations for a degeneracy certificate",
                [matrix_in], budget="coefficient differences, ((2*lambda+1)^t - 1)/2",
                out="certificate JSON path")
    p.add_argument("--t", type=int, default=None, help="leading rows to combine")
    p.add_argument("--lambda", dest="lam", type=int, default=None,
                   help="max coefficient")
    p.add_argument("--min-agree", type=int, default=None,
                   help="required agreements, from the row count (the "
                        "default) to the column count")

    p = sub.add_parser("recover", help="encode/decode sparse integer signals")
    rsub = p.add_subparsers(dest="recover_command", required=True)

    p = command(rsub, "encode", cmd_recover_encode,
                "b = Ax + e with exact rationals", [matrix_in],
                out="measurement JSON path")
    p.add_argument("--signal", required=True, help="signal JSON path")
    p.add_argument("--noise", default=None,
                   help='comma-separated rationals, e.g. "3/10,-1/5"')
    p.add_argument("--noise-bound", default=recover_mod.HALF)

    p = command(rsub, "decode", cmd_recover_decode,
                "sup-norm decoder: every minimizer. On a proved matrix the "
                "signal is decoded from the syndromes mod p, every rounding of "
                "b at ties of 1/2 and, past 2s <= m, with s - m//2 columns "
                "enumerated (both capped, and needing 2*amp-bound < p), and "
                "kept after an exact check; an unproved matrix, a case past a "
                "cap, or a miss takes a pruned search",
                [matrix_in], budget="candidate vectors, the whole space searched",
                out="decoded signal JSON path")
    p.add_argument("--measurement", required=True, help="measurement JSON path")
    p.add_argument("--s", type=int, required=True, help="sparsity")
    p.add_argument("--amp-bound", type=int, required=True,
                   help="max |value| searched")

    p = sub.add_parser("cover", help="grid covering by hyperplanes")
    csub = p.add_subparsers(dest="cover_command", required=True)

    p = command(csub, "verify", cmd_cover_verify, "check a cover of the grid",
                budget="grid points, (2k+1)^m, or m when that is more")
    p.add_argument("--in", dest="infile", required=True,
                   help="JSON list of normal vectors")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=None,
                   help="dimension (default: length of the first normal)")

    command(csub, "bound", cmd_cover_bound, "lower bound on the cover size",
            [m_and_k])
    command(csub, "min", cmd_cover_min, "exact minimum cover for tiny grids",
            [m_and_k], out="witness normals JSON path")
    command(sub, "bounds", cmd_bounds, "width bounds report for (m, k)",
            [m_and_k])

    for p, budget, out in commands:
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help=f"default {DEFAULT_BUDGET:,}; refuses, before it "
                                f"starts, a run counting more than this many {budget}")
        if out:
            p.add_argument("--out", default=None, help=out)
        p.add_argument("--json", action="store_true",
                       help="emit a single machine-parseable JSON document")
    return parser


def _discard(stream) -> None:
    """Point stream's descriptor at /dev/null. A write that failed left
    its text in the stream's buffer, and the flush at exit would fail
    again and make Python exit 120; now it succeeds, writing nothing."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _error(message) -> None:
    """Write "error: message" to stderr. A stderr that cannot take it
    loses the line, and the exit status stays 2: with fd 2 closed at
    start-up sys.stderr is None (and print would write to stdout), and a
    descriptor that refuses writes raises OSError here, its line left in
    stderr's buffer (line-buffered, not unbuffered, without
    PYTHONUNBUFFERED) for _discard to drop."""
    if sys.stderr is None:
        return
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        _discard(sys.stderr)


def run(argv) -> int:
    """Parse, dispatch, write the requested files and print; returns the
    process exit status."""
    parser = build_parser()
    try:
        # argparse swallows a failed write of --help; it is written here instead
        with contextlib.redirect_stdout(io.StringIO()) as shown:
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        try:
            print(shown.getvalue(), end="", flush=True)
        except OSError as err:
            _error(err)
            return 2
        return int(exc.code or 0)
    try:
        res = args.func(args)
        human, written = res.human, None
        with _all_digits():
            if res.out_doc is not None and args.out:
                written = ser.save_json(args.out, res.out_doc)
                human += f" -> {args.out}"
            if not args.json:
                text = human
            elif res.out_doc is res.doc and written is not None:
                text = written  # save_json's one rendering, printed as well
            else:
                text = json.dumps(res.doc)
        if res.csv is not None:
            ser.save_text(args.csv_out, res.csv)
        # flushed here, so a failed write to stdout is an error like any other
        print(text, flush=True)
    except (OSError, ValueError) as exc:
        _error(exc)
        return 2
    return res.code


def main() -> None:
    code = run(sys.argv[1:])
    if sys.stdout is None:  # started with fd 1 closed: print wrote nothing
        if code != 2:
            _error("standard output is closed")
        sys.exit(2)
    try:
        sys.stdout.flush()
    except OSError as exc:
        # unwritten text (run() already reported its own) stays buffered
        _discard(sys.stdout)
        if code != 2:
            _error(exc)
        code = 2
    sys.exit(code)
