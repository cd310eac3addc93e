"""Acceptance criteria, one test per criterion.

Every tolerance is exact (integer or rational comparison); nothing is
checked through floating point. Each test prints a one-line PASS record
with the quantities it swept.
"""

import itertools
import json
import random
from fractions import Fraction

from fullrank.attack import AttackConfig, find_collision
from fullrank.cli import run
from fullrank.construct import bounds_report, construct, construct_scaled, construct_vandermonde
from fullrank.cover import columns_on_hyperplane, cover_lower_bound, min_cover_bruteforce
from fullrank.intmath import primitive_vector
from fullrank.linalg import IntMatrix
from fullrank.recover import SparseSignal, decode, encode
from fullrank.verify import verify_certificate

F = Fraction


def cli_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


def sparse_vectors(d, s, bound):
    """All integer vectors with at most s nonzeros and |values| <= bound."""
    seen = set()
    for support in itertools.combinations(range(d), s):
        for vals in itertools.product(range(-bound, bound + 1), repeat=s):
            dense = [0] * d
            for j, v in zip(support, vals):
                dense[j] = v
            seen.add(tuple(dense))
    return sorted(seen)


def primitive_normals(m, radius):
    out = set()
    for v in itertools.product(range(-radius, radius + 1), repeat=m):
        if any(v):
            out.add(primitive_vector(v))
    return sorted(out)


def test_criterion_1_construction_validity_small_variant(tmp_path, capsys):
    """construct --m --k then exhaustive verify: zero failures, all (m, k)
    with 2 <= m <= 5 and m <= k <= 12."""
    instances = 0
    for m in range(2, 6):
        for k in range(m, 13):
            path = tmp_path / f"mat_{m}_{k}.json"
            code = run(["construct", "--m", str(m), "--k", str(k),
                        "--out", str(path)])
            capsys.readouterr()
            assert code == 0, (m, k)
            code, doc = cli_json(capsys, [
                "verify", "--in", str(path), "--json"])
            assert code == 0, (m, k)
            assert doc["failures"] == [], (m, k)
            assert doc["total_checked"] > 0
            instances += 1
    print(f"\n[PASS] criterion 1: {instances} (m,k) instances, "
          f"all minors nondegenerate")


def test_criterion_2_construction_validity_scaled_variant():
    """Scaled variant for m=2, 5 <= k <= 12: prime d >= ceil(k^2/2),
    entries within k, zero failures among all C(d,2) minors."""
    from fullrank.verify import verify_exhaustive
    checked = []
    for k in range(5, 13):
        A, params = construct_scaled(2, k)
        assert params.d >= -(-k * k // 2), k
        assert A.max_abs_entry() <= k, k
        report = verify_exhaustive(A)
        assert report.failures == [], k
        checked.append((k, params.d, report.total_checked))
    total = sum(c for _, _, c in checked)
    print(f"\n[PASS] criterion 2: k=5..12, d={[d for _, d, _ in checked]}, "
          f"{total} minors, 0 failures")


def test_criterion_3_entry_bound_tightness():
    """Whenever the simultaneous-approximation flag is set, the column's
    entries satisfy |a| <= d^(1-1/m) (integer comparison |a|^m <= d^(m-1));
    exceptions to the flag, if any, are logged with their quality."""
    m = 2
    exceptions = []
    flagged = total = 0
    for k in range(5, 13):
        A, params = construct_scaled(m, k)
        d = params.d
        for j, (l, q) in enumerate(params.scale_reports):
            total += 1
            if q ** m <= d ** (m - 1):
                flagged += 1
                for a in A.column(j):
                    assert abs(a) ** m <= d ** (m - 1), (k, j, a)
            else:
                exceptions.append((k, j + 1, l, str(Fraction(q, d))))
    for exc in exceptions:
        print(f"  threshold exception (k, column, multiplier, quality): {exc}")
    print(f"\n[PASS] criterion 3: {flagged}/{total} columns met the "
          f"d^(-1/m) threshold; {len(exceptions)} exceptions logged")


def test_criterion_4_attack_soundness():
    """1000 seeded random 2x8 matrices, entries in [-2, 2], t=2, L=2: every
    certificate verifies; every None is confirmed by the pair-space oracle."""
    rng = random.Random(0)
    cfg = AttackConfig(t=2, lam=2, min_agree=2)
    found = none_cases = 0
    deltas = [dl for dl in itertools.product(range(-2, 3), repeat=2)
              if dl != (0, 0)]
    for _ in range(1000):
        rows = [[rng.randint(-2, 2) for _ in range(8)] for _ in range(2)]
        A = IntMatrix.from_rows(rows)
        cert = find_collision(A, cfg)
        if cert is not None:
            found += 1
            check = verify_certificate(A, cert)
            assert check.accepted, check.reason
        else:
            none_cases += 1
            # oracle: no coefficient vector in range annihilates any 2 columns
            cols = [A.column(j) for j in range(8)]
            for j1, j2 in itertools.combinations(range(8), 2):
                for dl in deltas:
                    z1 = dl[0] * cols[j1][0] + dl[1] * cols[j1][1]
                    z2 = dl[0] * cols[j2][0] + dl[1] * cols[j2][1]
                    assert not (z1 == 0 and z2 == 0), (rows, dl, j1, j2)
    print(f"\n[PASS] criterion 4: 1000 matrices, {found} certificates "
          f"verified, {none_cases} none-results cross-checked")


def test_criterion_5_recovery_guarantee():
    """For the 4-row construction at k=4 (prime modulus within 5..9, width
    5), every s-sparse x with |x_i| <= 2, s in {1, 2}, decodes exactly under
    20 seeded rational noises with ||e||_inf <= 49/100 each."""
    A = construct(4, 4, 5)
    assert A.modulus is not None and 5 <= A.modulus <= 9
    rng = random.Random(1)
    trials = 0
    for s in (1, 2):
        for dense in sparse_vectors(A.cols, s, 2):
            x = SparseSignal.from_dense(dense)
            for _ in range(20):
                e = tuple(F(rng.randint(-49, 49), 100) for _ in range(A.rows))
                meas = encode(A, x, e)
                assert meas.in_guarantee
                result = decode(A, meas, s=s, amp_bound=2)
                assert not result.ambiguous, (dense, e)
                assert result.signal == x, (dense, e)
                trials += 1
    print(f"\n[PASS] criterion 5: {trials} decode trials, 100% exact "
          f"recovery, zero ambiguities")


def test_criterion_6_separation_oracle():
    """Every nonzero m-sparse z with |z_i| <= 4 has ||Az||_inf >= 1,
    exhaustively (exact integer arithmetic)."""
    A = construct(4, 4, 5)
    cols = [A.column(j) for j in range(A.cols)]
    m, d = A.rows, A.cols
    count = 0
    for z in itertools.product(range(-4, 5), repeat=d):
        nonzeros = sum(1 for c in z if c)
        if nonzeros == 0 or nonzeros > m:
            continue
        count += 1
        sup = max(
            abs(sum(cols[j][i] * z[j] for j in range(d))) for i in range(m)
        )
        assert sup >= 1, z
    print(f"\n[PASS] criterion 6: {count} m-sparse integer vectors, "
          f"all images have sup-norm >= 1")


def test_criterion_7_covering_duality():
    """Criterion-1 matrices with m in {2, 3} put at most m-1 columns on any
    hyperplane with a primitive normal of sup-norm <= 2k+1; the exact
    minimum cover at (2,1) is 4; the lower bound is dominated wherever
    both are defined."""
    matrices = 0
    normals_checked = 0
    for m in (2, 3):
        for k in range(m, 13):
            # same matrices as criterion 1: the full power-residue family
            A, _ = construct_vandermonde(m, k)
            matrices += 1
            for n in primitive_normals(m, 2 * k + 1):
                count, _ = columns_on_hyperplane(A, n)
                assert count <= m - 1, (m, k, n)
                normals_checked += 1
    size, witness = min_cover_bruteforce(2, 1)
    assert size == 4
    # cover_lower_bound(2, 1) is outside its stated range k >= m
    try:
        cover_lower_bound(2, 1)
        defined = True
    except ValueError:
        defined = False
    assert not defined
    for k in (2, 3, 4):
        assert min_cover_bruteforce(2, k)[0] >= cover_lower_bound(2, k)
    print(f"\n[PASS] criterion 7: {matrices} matrices x primitive normals "
          f"({normals_checked} checks) all within m-1; min cover(2,1) = 4")


def test_criterion_8_bounds_consistency():
    """lower <= upper for all 2 <= m <= 10, 2 <= k <= 10^4, and the spot
    values at (m=2, k=100) are exactly 11,313,708 and 5,000."""
    spot = bounds_report(2, 100)
    assert spot.upper_bound == 11_313_708
    assert spot.lower_bound == 5_000
    assert spot.regime == "small_m"
    large_spot = bounds_report(2, 7)
    assert large_spot.regime == "large_m"
    assert large_spot.lower_bound == 24
    pairs = 0
    for m in range(2, 11):
        for k in range(2, 10_001):
            rep = bounds_report(m, k)
            assert rep.lower_bound <= rep.upper_bound, (m, k)
            pairs += 1
    print(f"\n[PASS] criterion 8: {pairs} (m,k) pairs, lower <= upper "
          f"everywhere; spot values exact")
