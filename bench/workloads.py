"""The four benchmark workloads: seeded inputs, the command-line calls that
make up each job, and the independent checks that decide whether a job's
results are right.

A workload's ``setup(prog, rng, size)`` writes its input files into the
current directory and returns the job list. A job is a short sequence of
``Step``s, each one ``fullrank`` command-line call. The checks and the
work counters run after the job, outside its timed calls. The checks use
the exact helpers below rather than the program's own kernels, so a
broken kernel cannot vouch for itself.
"""

import json
import math
from functools import cache
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable


class CheckFailed(Exception):
    """A job's result disagrees with what its inputs imply."""


def need(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Step:
    """One command-line call. ``check(code, doc)`` raises CheckFailed on a
    wrong result; ``work(code, doc)`` returns the layer work counters the
    call implies, taken from its inputs or its result fields."""

    argv: list
    expect: tuple = (0,)
    check: Callable = None
    work: Callable = None


@dataclass
class Job:
    name: str
    steps: list


# ---------------------------------------------------------------------------
# exact helpers, independent of the program under test
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def iroot(n: int, r: int) -> int:
    """floor(n ** (1/r)) by bisection on integers."""
    lo, hi = 0, 1
    while hi ** r <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** r <= n:
            lo = mid
        else:
            hi = mid
    return lo


def det(rows) -> int:
    """Exact determinant of a small integer matrix by Laplace expansion
    along the first row."""
    if len(rows) < 3:
        return (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
                if len(rows) == 2 else rows[0][0] if rows else 1)
    return sum((-1) ** j * x * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def singular_minors(entries, d, m) -> list:
    """Every m-subset of columns whose minor is singular, in lexicographic
    order. A subset is a head of m - 1 columns plus a later column j; its
    minor is the dot product of column j with the head's signed cofactors,
    so each subset costs one dot product."""
    cols = [[entries[i * d + j] for i in range(m)] for j in range(d)]
    out = []
    for head in combinations(range(d), m - 1):
        normal = [(-1) ** (i + m - 1)
                  * det([[cols[c][r] for c in head] for r in range(m) if r != i])
                  for i in range(m)]
        for j in range(head[-1] + 1, d):
            if sum(a * b for a, b in zip(normal, cols[j])) == 0:
                out.append(head + (j,))
    return out


def certificate_exists(entries, d, t, lam, min_agree) -> bool:
    """Whether a nonzero c in [-lam, lam]^t makes the combination of the
    first t rows vanish on at least min_agree columns. The attack scans
    pairs of vectors in {0..lam}^t, whose differences are exactly these c,
    so it must find a certificate exactly when one exists."""
    cols = [[entries[i * d + j] for i in range(t)] for j in range(d)]
    for c in product(range(-lam, lam + 1), repeat=t):
        if any(c) and sum(1 for col in cols
                          if sum(a * b for a, b in zip(c, col)) == 0) >= min_agree:
            return True
    return False


def decode_minimizers(entries, d, m, b, s, amp):
    """All vectors with at most s nonzero entries, each in [-amp, amp],
    that minimize ||b - Ay||_inf, as a set of (support, values), and that
    minimum. Exhaustive, in integers after clearing b's denominators."""
    scale = math.lcm(*(x.denominator for x in b))
    target = [int(x * scale) for x in b]
    cols = [[scale * entries[i * d + j] for i in range(m)] for j in range(d)]
    nonzero = [v for v in range(-amp, amp + 1) if v]
    best, found = None, set()
    for size in range(s + 1):
        for support in combinations(range(d), size):
            sup_cols = [cols[j] for j in support]
            for values in product(nonzero, repeat=size):
                resid = max(abs(target[i] - sum(c[i] * v for c, v in
                                                zip(sup_cols, values)))
                            for i in range(m))
                if best is None or resid < best:
                    best, found = resid, set()
                if resid == best:
                    found.add((support, values))
    return found, Fraction(best, scale)


def centered(x: int, p: int) -> int:
    r = x % p
    return r - p if 2 * r > p else r


def grid_normals(k: int) -> list:
    """Every primitive sign-normalized normal of the m=2 grid of radius k.
    Together they cover every grid point: point p lies on the line with
    normal (-p2, p1) reduced by its gcd."""
    out = [(0, 1)]
    for a in range(1, k + 1):
        out.extend((a, b) for b in range(-k, k + 1) if math.gcd(a, abs(b)) == 1)
    return out


def strata(rng, n: int) -> list:
    """n numbers in [0, 1), one from each of n equal slices, shuffled, so a
    job list has the same spread of sizes under every seed."""
    out = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


def stratified(rng, lo: int, hi: int, n: int) -> list:
    """n integers in [lo, hi], one from each of n equal slices, shuffled."""
    return [lo + int(u * (hi - lo + 1)) for u in strata(rng, n)]


def per_family(draw, families: int, jobs: int) -> list:
    """Job i's value when job i belongs to family i % families and each
    family gets its own stratified draw(n), so every family sees the same
    spread of sizes."""
    lists = [draw(jobs // families) for _ in range(families)]
    return [x for group in zip(*lists) for x in group]


def first_points(k: int) -> dict:
    """normal -> position of its first point in the lexicographic scan of
    the m=2 grid of radius k, which is where a cover missing only that
    normal is rejected."""
    first = {}
    for pos, (x, y) in enumerate(product(range(-k, k + 1), repeat=2)):
        if x or y:
            g = math.gcd(x, y)
            a, b = -y // g, x // g
            first.setdefault((a, b) if (a, b) > (0, 0) else (-a, -b), pos)
    return first


def combination_at(n: int, k: int, rank: int) -> list:
    """The rank-th k-subset of range(n) in lexicographic order."""
    out, start = [], 0
    for left in range(k, 0, -1):
        for j in range(start, n):
            block = math.comb(n - j - 1, left - 1)
            if rank < block:
                out.append(j)
                start = j + 1
                break
            rank -= block
    return out


def write_json(name: str, obj) -> str:
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return name


def matrix_doc(m, d, entries, k=None, modulus=None) -> dict:
    return {"m": m, "d": d, "k": k, "modulus": modulus,
            "entries": list(entries), "scalings": None}


def comb_rows(entries, d, m, cols) -> list:
    return [[entries[i * d + j] for j in cols] for i in range(m)]


# ---------------------------------------------------------------------------
# checks shared by several workloads
# ---------------------------------------------------------------------------

def check_no_failures(code, doc):
    need(doc["failures"] == [], f"{len(doc['failures'])} failures listed")


def check_failures(entries, d, m):
    """The listed failures are exactly the singular minors, worked out with
    the benchmark's own determinant on the job's first check and kept."""
    expected = cache(lambda: singular_minors(entries, d, m))

    def check(code, doc):
        fails = [tuple(f) for f in doc["failures"]]
        want = expected()
        need(fails == want, f"{len(fails)} failures listed, {len(want)} minors "
             f"are singular; first difference "
             f"{sorted(set(fails) ^ set(want))[:1] or 'in the order'}")
    return check


def check_certificate(entries, d, m, t, lam, prog):
    """A certificate is returned exactly when one exists (own exhaustive
    search, on the job's first check), exit 1 exactly then, and it
    witnesses a singular minor (own arithmetic, then verify_certificate)."""
    matrix = prog.pkg.IntMatrix(m, d, tuple(entries))
    exists = cache(lambda: certificate_exists(entries, d, t, lam, m))

    def check(code, doc):
        cert = doc["certificate"]
        need((code == 1) == (cert is not None), "exit code and certificate disagree")
        need((cert is not None) == exists(),
             "certificate missed" if exists() else "certificate where none exists")
        if cert is None:
            return
        coeffs, cols = cert["coeffs"], cert["columns"]
        need(cert["t"] == t and len(coeffs) == t and any(coeffs)
             and all(abs(c) <= lam for c in coeffs),
             "malformed certificate coefficients")
        need(len(cols) >= m and all(0 <= j < d for j in cols)
             and all(a < b for a, b in zip(cols, cols[1:])),
             "malformed certificate columns")
        for j in cols:
            need(sum(c * entries[i * d + j] for i, c in enumerate(coeffs)) == 0,
                 f"combination does not vanish at column {j}")
        need(det(comb_rows(entries, d, m, cols[:m])) == 0,
             "certificate minor is nonsingular")
        dc = prog.pkg.DegeneracyCertificate(t, tuple(coeffs), tuple(cols))
        need(prog.pkg.verify_certificate(matrix, dc).accepted,
             "verify_certificate rejects the certificate")
    return check


def check_accepted(code, doc):
    need(doc["accepted"] is True and doc["uncovered"] is None, "full cover rejected")


def check_uncovered(normals, k, first):
    """The reported point is the first uncovered one in the lexicographic
    scan: the earliest first point of a normal missing from the cover."""
    listed = set(normals)
    pos = min(p for n, p in first.items() if n not in listed)
    want = [-k + pos // (2 * k + 1), -k + pos % (2 * k + 1)]

    def check(code, doc):
        need(doc["accepted"] is False, "cover with dropped normals accepted")
        p = doc["uncovered"]
        need(p == want, f"uncovered point {p}, first uncovered point is {want}")
        need(all(n[0] * p[0] + n[1] * p[1] != 0 for n in normals),
             f"reported point {p} lies on a listed hyperplane")
    return check


def work_verify(minors):
    return lambda code, doc: {"verify.minors": minors,
                              "verify.failures": len(doc["failures"])}


def work_attack(t, lam):
    return lambda code, doc: {"attack.search_vectors": (lam + 1) ** t,
                              "attack.runs": 1,
                              "attack.hits": int(doc["certificate"] is not None)}


def work_cover(code, doc):
    return {"cover.points": doc["points_checked"], "cover.runs": 1,
            "cover.rejects": int(not doc["accepted"])}


def cover_step(name, k, expect, check):
    return Step(["cover", "verify", "--in", name, "--k", str(k), "--json"],
                expect, check, work_cover)


def write_normals(rng, name, normals):
    """Shuffle, flip signs at random (the program normalizes), write."""
    out = [list(n) if rng.random() < 0.5 else [-x for x in n] for n in normals]
    rng.shuffle(out)
    return write_json(name, out)


# ---------------------------------------------------------------------------
# build: the multiplier search dominates
# ---------------------------------------------------------------------------

BUILD = {
    "full": {"jobs": 48, "k": {2: (25, 36), 3: (80, 103)}, "trials": 500},
    "tiny": {"jobs": 4, "k": {2: (4, 6), 3: (6, 8)}, "trials": 20},
}


def check_scaled(m, k):
    def check(code, doc):
        d, e, sc = doc["d"], doc["entries"], doc["scalings"]
        need(doc["m"] == m and doc["k"] == k, "echoed m or k differs")
        need(doc["modulus"] == d and is_prime(d), f"modulus {d} is not prime")
        need((2 * d) ** (m - 1) >= k ** m > d ** (m - 1),
             f"prime {d} outside the scaled window")
        need(len(e) == m * d and max(abs(x) for x in e) <= k,
             "entries exceed k or have the wrong count")
        need(len(sc) == d and all(1 <= s < d for s in sc), "bad scalings")
        need(all(e[i * d + j] == centered(sc[j] * pow(j + 1, i, d), d)
                 for i in range(m) for j in range(d)),
             "entries are not the scaled power residues")
    return check


def check_bounds(m, k):
    lower = max(k + 1, iroot(k ** m, m - 1) // 2)
    upper = iroot(400 ** (2 * (m - 1)) * k ** (2 * m) * m ** (3 * (m - 1)),
                  2 * (m - 1))

    def check(code, doc):
        need(doc["lower_bound"] == lower, "constructible width differs")
        if doc["regime"] == "small_m":
            need(doc["upper_bound"] == upper, "small-m upper bound differs")
        need(doc["upper_bound"] >= lower, "upper bound below lower bound")
    return check


def check_cover_bound(m, k):
    km = k ** m
    root = iroot(km, m - 1)
    expected = -(-(root if root ** (m - 1) == km else root + 1) // (2 * m - 2))
    return lambda code, doc: need(doc["lower_bound"] == expected,
                                  "cover lower bound differs")


def setup_build(prog, rng, size):
    cfg = BUILD[size]
    half = cfg["jobs"] // 2
    ks = {m: stratified(rng, *cfg["k"][m], half) for m in (2, 3)}
    jobs = []
    for i in range(cfg["jobs"]):
        m = 2 + i % 2
        k = ks[m][i // 2]
        name = f"{i:03d}-scaled.json"
        mk = ["--m", str(m), "--k", str(k), "--json"]
        jobs.append(Job(f"build m={m} k={k}", [
            Step(["construct", "--variant", "scaled", "--out", name] + mk,
                 check=check_scaled(m, k),
                 work=lambda code, doc: {"construct.columns": doc["d"]}),
            Step(["verify", "--in", name, "--trials", str(cfg["trials"]),
                  "--seed", str(rng.randrange(1 << 30)), "--json"],
                 check=check_no_failures, work=work_verify(cfg["trials"])),
            Step(["bounds"] + mk, check=check_bounds(m, k)),
            Step(["cover", "bound"] + mk, check=check_cover_bound(m, k)),
        ]))
    return jobs


# ---------------------------------------------------------------------------
# certify: proving the property is worst-case work for every sweep
# ---------------------------------------------------------------------------

CERTIFY = {
    # (variant, m, k, columns kept, attack t, attack lambda)
    "full": {"jobs": 48, "cover_k": (8, 12), "families": [
        ("vandermonde", 4, 30, 18, 3, 3),
        ("vandermonde", 5, 20, 14, 3, 3),
        ("scaled", 2, 40, 120, 2, 8)]},
    "tiny": {"jobs": 3, "cover_k": (2, 3), "families": [
        ("vandermonde", 3, 8, 8, 2, 2),
        ("vandermonde", 4, 6, 6, 2, 2),
        ("scaled", 2, 8, 20, 2, 3)]},
}


def setup_certify(prog, rng, size):
    cfg = CERTIFY[size]
    built = {}
    for variant, m, k, *_ in cfg["families"]:
        make = (prog.pkg.construct_scaled if variant == "scaled"
                else prog.pkg.construct_vandermonde)
        built[variant, m, k] = make(m, k)[0]
    fams = len(cfg["families"])
    cover_ks = per_family(lambda n: stratified(rng, *cfg["cover_k"], n),
                          fams, cfg["jobs"])
    jobs = []
    for i in range(cfg["jobs"]):
        variant, m, k, keep, t, lam = cfg["families"][i % fams]
        full = built[variant, m, k]
        cols = sorted(rng.sample(range(full.cols), keep))
        entries = [full.entry(r, c) for r in range(m) for c in cols]
        name = write_json(f"{i:03d}-sub.json",
                          matrix_doc(m, keep, entries, k, full.modulus))
        ck = cover_ks[i]
        cover = write_normals(rng, f"{i:03d}-cover.json", grid_normals(ck))
        jobs.append(Job(f"certify {variant} m={m} d={keep} cover k={ck}", [
            Step(["verify", "--in", name, "--json"],
                 check=check_failures(entries, keep, m),
                 work=work_verify(math.comb(keep, m))),
            Step(["attack", "--in", name, "--t", str(t), "--lambda", str(lam),
                  "--min-agree", str(m), "--json"],
                 check=check_certificate(entries, keep, m, t, lam, prog),
                 work=work_attack(t, lam)),
            cover_step(cover, ck, (0,), check_accepted),
        ]))
    return jobs


# ---------------------------------------------------------------------------
# refute: the same layers on random matrices, exact path and early exits
# ---------------------------------------------------------------------------

REFUTE = {
    # (m, d, k)
    "full": {"jobs": 48, "families": [(3, 36, 8), (4, 18, 5), (2, 160, 10)],
             "lam": 4, "cover_k": (8, 12), "drop": 3},
    "tiny": {"jobs": 3, "families": [(3, 10, 3), (4, 8, 2), (2, 20, 3)],
             "lam": 2, "cover_k": (2, 3), "drop": 1},
}


def setup_refute(prog, rng, size):
    cfg = REFUTE[size]
    fams = len(cfg["families"])
    cover_ks = per_family(lambda n: stratified(rng, *cfg["cover_k"], n),
                          fams, cfg["jobs"])
    # A rejected cover costs in proportion to how far the scan gets. The
    # earliest dropped normal sets that; it is drawn, stratified, from the
    # distribution of the earliest of `drop` normals picked at random.
    earliest = per_family(lambda n: strata(rng, n), fams, cfg["jobs"])
    t, lam = 2, cfg["lam"]
    jobs = []
    for i in range(cfg["jobs"]):
        m, d, k = cfg["families"][i % fams]
        entries = [rng.randint(-k, k) for _ in range(m * d)]
        # a repeated column guarantees at least one degenerate minor
        a, b = sorted(rng.sample(range(d), 2))
        for r in range(m):
            entries[r * d + b] = entries[r * d + a]
        name = write_json(f"{i:03d}-rand.json", matrix_doc(m, d, entries, k))
        ck = cover_ks[i]
        first = first_points(ck)
        order = sorted(grid_normals(ck), key=first.get)
        r = int((1 - (1 - earliest[i]) ** (1 / cfg["drop"])) * len(order))
        dropped = [order[r]] + rng.sample(order[r + 1:], cfg["drop"] - 1)
        kept = [n for n in order if n not in dropped]
        cover = write_normals(rng, f"{i:03d}-cover.json", kept)
        jobs.append(Job(f"refute {m}x{d} k={k} cover k={ck}", [
            Step(["verify", "--in", name, "--json"], (1,),
                 check_failures(entries, d, m),
                 work_verify(math.comb(d, m))),
            Step(["attack", "--in", name, "--t", str(t), "--lambda", str(lam),
                  "--min-agree", str(m), "--json"], (0, 1),
                 check_certificate(entries, d, m, t, lam, prog), work_attack(t, lam)),
            cover_step(cover, ck, (1,), check_uncovered(kept, ck, first)),
        ]))
    return jobs


# ---------------------------------------------------------------------------
# recover: the decoder dominates
# ---------------------------------------------------------------------------

RECOVER = {
    # matrices are construct(m, k, d); kinds are (matrix, s, amp, noise),
    # where noise "in" stays strictly below 1/2 and "tie" is exactly 1/2
    # on every row, set so that two candidates tie (see tie_noise).
    # Three kinds in four satisfy the guarantee 2s <= m, noise < 1/2; the
    # other two break it by 2s > m and by noise 1/2. Five of the eight
    # kinds are the costliest decode inside the guarantee, so the median
    # job sits inside one cost cluster rather than in the gap between two.
    "full": {"jobs": 96, "matrices": [(6, 12, 11), (4, 20, 21)], "kinds": [
        (0, 3, 3, "in"), (1, 2, 3, "in"), (0, 3, 3, "in"), (0, 3, 3, "tie"),
        (0, 3, 3, "in"), (0, 3, 3, "in"), (1, 3, 1, "in"), (0, 3, 3, "in")]},
    "tiny": {"jobs": 4, "matrices": [(4, 6, 7), (2, 5, 6)], "kinds": [
        (0, 2, 1, "in"), (1, 1, 2, "in"), (0, 2, 1, "in"), (1, 1, 2, "tie")]},
}


def unit_column(entries, d, m) -> int:
    """A column whose entries are all +1 or -1."""
    j = next((j for j in range(d)
              if all(abs(entries[i * d + j]) == 1 for i in range(m))), None)
    need(j is not None, "no column of +-1 entries to plant a tie on")
    return j


def tie_noise(entries, d, m, j, support, values):
    """Noise of exactly 1/2 on every row that makes x and x + c e_j tie at
    residual 1/2, where column j has entries +-1 and support holds j, and c
    moves x_j toward zero (so x + c e_j is a candidate too). With 2s <= m
    every other candidate y has ||A(y - x)||_inf >= 1, so none does better."""
    c = -1 if values[support.index(j)] > 0 else 1
    return [Fraction(c * entries[i * d + j], 2) for i in range(m)]


def check_encode(entries, d, m, support, values, noise):
    want = [sum(entries[i * d + j] * v for j, v in zip(support, values)) + noise[i]
            for i in range(m)]
    return lambda code, doc: need([Fraction(x) for x in doc["b"]] == want,
                                  "measurement differs from Ax + e")


def check_decode(entries, d, m, s, amp, support, values, noise, inside):
    """Inside the guarantee the planted signal is the unique minimizer at
    the noise level. Outside it the minimizers must be exactly the set the
    benchmark's own exhaustive search finds, on the job's first check."""
    b = [sum(entries[i * d + j] * v for j, v in zip(support, values)) + noise[i]
         for i in range(m)]
    if inside:
        want = cache(lambda: ({(tuple(support), tuple(values))},
                              max(abs(e) for e in noise)))
    else:
        want = cache(lambda: decode_minimizers(entries, d, m, b, s, amp))

    def check(code, doc):
        mins, res = doc["minimizers"], Fraction(doc["residual"])
        need(doc["ambiguous"] == (len(mins) != 1), "ambiguity flag is wrong")
        need((code == 1) == doc["ambiguous"], "exit code and ambiguity disagree")
        need(all(x["d"] == d for x in mins), "minimizer of the wrong dimension")
        got = [(tuple(x["support"]), tuple(x["values"])) for x in mins]
        want_set, want_res = want()
        need(len(set(got)) == len(got), "minimizer listed twice")
        need(set(got) == want_set, f"{len(got)} minimizers returned, "
             f"{len(want_set)} exist; first difference "
             f"{sorted(set(got) ^ want_set)[:1]}")
        need(res == want_res, f"residual {res}, minimum is {want_res}")
    return check


def setup_recover(prog, rng, size):
    cfg = RECOVER[size]
    mats = []
    for idx, (m, k, d) in enumerate(cfg["matrices"]):
        a = prog.pkg.construct(m, k, d)
        mats.append((write_json(f"A{idx}.json",
                                matrix_doc(m, d, a.entries, a.entry_bound, a.modulus)),
                     m, d, a.entries))
    # The decoder prunes candidates once it has a small residual, so its
    # cost depends on where the planted support falls in lexicographic
    # order; each kind draws its supports from stratified ranks.
    # A tie kind's support always holds the matrix's unit column and draws
    # the rest of it from the other columns the same way.
    kinds = [cfg["kinds"][i % len(cfg["kinds"])] for i in range(cfg["jobs"])]
    ranks = {kind: stratified(rng, 0, math.comb(mats[kind[0]][2] - (kind[3] == "tie"),
                                                kind[1] - (kind[3] == "tie")) - 1,
                              kinds.count(kind))
             for kind in sorted(set(kinds))}
    jobs = []
    for i, kind in enumerate(kinds):
        mi, s, amp, noise_kind = kind
        mat, m, d, entries = mats[mi]
        if noise_kind == "tie":
            j = unit_column(entries, d, m)
            rest = [c for c in range(d) if c != j]
            support = sorted([j] + [rest[c] for c in
                                    combination_at(d - 1, s - 1, ranks[kind].pop())])
        else:
            support = combination_at(d, s, ranks[kind].pop())
        values = [rng.choice([-1, 1]) * rng.randint(1, amp) for _ in support]
        if noise_kind == "tie":
            noise = tie_noise(entries, d, m, j, support, values)
        else:
            noise = []
            for _ in range(m):
                q = rng.randint(2, 12)
                noise.append(Fraction(rng.randint(-((q - 1) // 2), (q - 1) // 2), q))
        inside = 2 * s <= m and noise_kind == "in"
        sig = write_json(f"{i:03d}-signal.json",
                         {"d": d, "support": support, "values": values})
        meas = f"{i:03d}-meas.json"
        jobs.append(Job(f"recover m={m} d={d} s={s} amp={amp} {noise_kind}", [
            # "--noise=" keeps a leading minus sign from reading as a flag
            Step(["recover", "encode", "--in", mat, "--signal", sig,
                  "--noise=" + ",".join(f"{e.numerator}/{e.denominator}"
                                        for e in noise),
                  "--out", meas, "--json"],
                 check=check_encode(entries, d, m, support, values, noise)),
            Step(["recover", "decode", "--in", mat, "--measurement", meas,
                  "--s", str(s), "--amp-bound", str(amp), "--json"],
                 (0,) if inside else (0, 1),
                 check_decode(entries, d, m, s, amp, support, values, noise, inside),
                 lambda code, doc, s=s, amp=amp, d=d: {
                     "recover.candidates": math.comb(d, s) * (2 * amp + 1) ** s,
                     "recover.decodes": 1,
                     "recover.unique": int(not doc["ambiguous"])}),
        ]))
    return jobs


WORKLOADS = {
    "build": setup_build,
    "certify": setup_certify,
    "refute": setup_refute,
    "recover": setup_recover,
}
