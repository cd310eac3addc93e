import dataclasses
import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fullrank.attack import (
    AttackConfig,
    _agreeing_pairs,
    attack_config,
    attack_params,
    find_collision,
)
from fullrank.construct import construct_scaled, construct_vandermonde
from fullrank.errors import BudgetExceededError
from fullrank.linalg import IntMatrix, combination_vector, packed_rows, zero_fields
from fullrank.verify import verify_certificate
from oracles import collision_difference_scan, collision_pair_scan, perm_det


class TestAttackParams:
    def test_large_m_regime(self):
        cfg = attack_params(2, 7)  # ln 7 ~ 1.946 <= 2
        assert (cfg.t, cfg.lam, cfg.min_agree) == (1, 9, 2)

    def test_small_m_regime(self):
        cfg = attack_params(2, 10)  # ln 10 ~ 2.303 > 2
        assert (cfg.t, cfg.lam) == (2, 250)

    def test_wide_matrix_large_m(self):
        cfg = attack_params(5, 3)
        assert (cfg.t, cfg.lam) == (1, 9)

    def test_tiny_k_clamped(self):
        cfg = attack_params(3, 2)  # floor(ln 2) = 0
        assert (cfg.t, cfg.lam, cfg.min_agree) == (1, 9, 3)

    def test_exact_coefficient_root(self):
        # k = 64, m = 4: floor(25 * 64^(1/3)) = 100 exactly, a value float
        # powers can round to 99.999...
        cfg = attack_params(4, 64)  # ln 64 ~ 4.16 > 4
        assert (cfg.t, cfg.lam) == (4, 100)
        # the defining inequality of the floor
        assert cfg.lam ** 3 <= 25 ** 3 * 64 < (cfg.lam + 1) ** 3

    def test_preconditions(self):
        with pytest.raises(ValueError):
            attack_params(1, 5)
        with pytest.raises(ValueError):
            attack_params(2, 1)


class TestAttackConfig:
    """Defaults for a matrix, each given field kept as is."""

    def test_defaults_from_entry_bound(self):
        A = IntMatrix.from_rows([[1, 0, 1], [0, 1, 2]], entry_bound=100)
        cfg = attack_config(A)
        ref = attack_params(2, 100)  # not attack_params(2, 2)
        assert (cfg.t, cfg.lam, cfg.min_agree) == (ref.t, ref.lam, 2) == (2, 2500, 2)
        assert dataclasses.astuple(cfg) == (2, 2500, 2)  # the search, nothing else

    def test_defaults_from_largest_entry_at_least_two(self):
        wide = IntMatrix.from_rows([[1, 0, 40], [0, 1, -3]])
        assert attack_config(wide).lam == attack_params(2, 40).lam
        flat = IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert attack_config(flat).lam == attack_params(2, 2).lam

    def test_each_field_overrides_alone(self):
        A, _ = construct_vandermonde(2, 3)
        ref = attack_params(2, 3)
        assert (attack_config(A, t=1).t, attack_config(A, t=1).lam) == (1, ref.lam)
        assert (attack_config(A, lam=7).t, attack_config(A, lam=7).lam) == (ref.t, 7)
        cfg = attack_config(A, t=2, lam=2, min_agree=3)
        assert (cfg.t, cfg.lam, cfg.min_agree) == (2, 2, 3)

    def test_one_row_needs_both_fields(self):
        A = IntMatrix.from_rows([[1, 2, 3]])
        assert attack_config(A, t=1, lam=2).min_agree == 1
        for given in ({}, {"t": 1}, {"lam": 2}):
            with pytest.raises(ValueError, match=r"t and lam \(--t and --lambda\)"):
                attack_config(A, **given)


class TestCombinationVector:
    def setup_method(self):
        self.A = IntMatrix.from_rows([[1, 1, 1, 1], [1, 1, 2, 3]])

    def test_zero_coefficients(self):
        assert combination_vector(self.A, (0, 0)) == (0, 0, 0, 0)

    def test_unit_vector_gives_row(self):
        assert combination_vector(self.A, (1, 0)) == self.A.row(0)

    def test_sum_of_rows(self):
        assert combination_vector(self.A, (1, 1)) == (2, 2, 3, 4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            combination_vector(self.A, (1, 1, 1))


class TestFindCollision:
    def test_planted_zeros(self):
        A = IntMatrix.from_rows([[0, 0, 1], [1, 2, 3]])
        cert = find_collision(A, AttackConfig(t=1, lam=1, min_agree=2))
        assert (cert.coeffs, cert.columns) == ((1,), (0, 1))

    def test_equal_row_prefix(self):
        A = IntMatrix.from_rows([[1, 1, 1, 1], [1, 1, 2, 3]])
        cert = find_collision(A, AttackConfig(t=2, lam=1, min_agree=2))
        assert (cert.coeffs, cert.columns) == ((1, -1), (0, 1))

    def test_none_on_valid_construction(self):
        A, _ = construct_vandermonde(2, 3)
        assert find_collision(A, AttackConfig(t=2, lam=2, min_agree=2)) is None

    def test_budget_refusal(self):
        A = IntMatrix.from_rows([[0, 0, 1], [1, 2, 3]])
        with pytest.raises(BudgetExceededError) as exc:
            find_collision(A, AttackConfig(t=2, lam=9, min_agree=2), budget=10)
        assert exc.value.required == (19 ** 2 - 1) // 2  # differences, c ~ -c

    def test_budget_counts_differences(self):
        # 12 = (5^2 - 1) / 2 differences fit exactly; one fewer is refused
        A = IntMatrix.from_rows([[1, 2, 3], [1, 4, 9]])
        cfg = AttackConfig(t=2, lam=2, min_agree=2)
        assert find_collision(A, cfg, 12) is None
        with pytest.raises(BudgetExceededError):
            find_collision(A, cfg, 11)

    def test_t_beyond_rows(self):
        A = IntMatrix.from_rows([[0, 0, 1], [1, 2, 3]])
        with pytest.raises(ValueError):
            find_collision(A, AttackConfig(t=3, lam=1, min_agree=2))

    def test_min_agree_beyond_columns(self):
        A = IntMatrix.from_rows([[0, 0, 1], [1, 2, 3]])
        with pytest.raises(ValueError):
            find_collision(A, AttackConfig(t=1, lam=1, min_agree=4))

    def test_certificates_verify(self):
        rng = random.Random(11)
        cfg = AttackConfig(t=2, lam=2, min_agree=2)
        found = 0
        for _ in range(200):
            rows = [[rng.randint(-2, 2) for _ in range(8)] for _ in range(2)]
            A = IntMatrix.from_rows(rows)
            cert = find_collision(A, cfg)
            if cert is not None:
                found += 1
                assert verify_certificate(A, cert).accepted
        assert found > 0  # the sweep must actually exercise the accept path

    def test_matches_oracle_exhaustively_tiny(self):
        # every 2 x d matrix with entries in [-1, 1], d in {2, 3}
        for d in (2, 3):
            for flat in itertools.product((-1, 0, 1), repeat=2 * d):
                rows = [list(flat[:d]), list(flat[d:])]
                A = IntMatrix.from_rows(rows)
                cert = find_collision(A, AttackConfig(t=2, lam=1, min_agree=2))
                expected = collision_pair_scan(rows, 2, 1, 2)
                if expected is None:
                    assert cert is None
                else:
                    assert (cert.coeffs, cert.columns) == expected

    def test_matches_oracle_sampled_wider(self):
        rng = random.Random(13)
        for _ in range(200):
            d = rng.randint(4, 6)
            rows = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(2)]
            A = IntMatrix.from_rows(rows)
            cert = find_collision(A, AttackConfig(t=2, lam=1, min_agree=2))
            expected = collision_pair_scan(rows, 2, 1, 2)
            assert (cert is None) == (expected is None)
            if cert is not None:
                assert (cert.coeffs, cert.columns) == expected

    def test_matches_oracle_random_configs(self):
        # shapes, row counts, coefficient ranges and agreement thresholds
        # (from the row count up) all vary; the first hit must be the pair
        # scan's first hit
        rng = random.Random(19)
        hits = 0
        for _ in range(300):
            m = rng.randint(1, 5)
            d = rng.randint(m, m + 12)
            t, lam = rng.randint(1, m), rng.randint(1, 3)
            min_agree = rng.randint(m, min(d, m + 2))
            rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)]
            cert = find_collision(IntMatrix.from_rows(rows),
                                  AttackConfig(t=t, lam=lam, min_agree=min_agree))
            expected = collision_pair_scan(rows, t, lam, min_agree)
            assert (None if cert is None else (cert.coeffs, cert.columns)) == expected
            hits += expected is not None
        assert 0 < hits < 300  # both outcomes exercised

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_certificate_certifies(self, data):
        # verify_certificate has no determinant check: whatever the search
        # returns must be accepted and its first m columns truly singular
        m = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(m, m + 4))
        rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=d,
                                           max_size=d), min_size=m, max_size=m))
        cfg = AttackConfig(t=data.draw(st.integers(1, m)),
                           lam=data.draw(st.integers(1, 2)),
                           min_agree=data.draw(st.integers(m, d)))
        A = IntMatrix.from_rows(rows)
        cert = find_collision(A, cfg)
        if cert is not None:
            assert verify_certificate(A, cert).accepted
            assert perm_det([[row[j] for j in cert.columns[:m]] for row in rows]) == 0

    def test_first_hit_in_pair_order(self):
        # (1, -2, -1) and (2, 1, -2) both hit; the pair (0,0,2) < (2,1,0)
        # precedes (0,2,1) < (1,0,0), so the second is returned
        rows = [[-2, -2, -1, 2], [0, -1, 0, -2], [-2, 0, -1, 1]]
        cert = find_collision(IntMatrix.from_rows(rows),
                              AttackConfig(t=3, lam=2, min_agree=3))
        assert (cert.coeffs, cert.columns) == ((2, 1, -2), (0, 2, 3))
        assert collision_pair_scan(rows, 3, 2, 3) == ((2, 1, -2), (0, 2, 3))

    def test_min_agree_below_rows_refused(self):
        # fewer than m agreeing columns witness no m x m minor: on this
        # 2 x 5 matrix, whose minors all pass, row 1 alone vanishes at column 4
        A, _ = construct_vandermonde(2, 3)
        with pytest.raises(ValueError, match="min_agree=1 outside"):
            find_collision(A, AttackConfig(t=2, lam=1, min_agree=1))


def scan_result(rows, t, lam, min_agree):
    cert = find_collision(IntMatrix.from_rows(rows), AttackConfig(t, lam, min_agree))
    return None if cert is None else (cert.coeffs, cert.columns)


@st.composite
def scan_cases(draw):
    """(rows, t, lam, min_agree) for a scan of an m x d matrix."""
    m = draw(st.integers(1, 5))
    d = draw(st.integers(m, m + 10))
    t = draw(st.integers(1, m))
    # lam <= 5, capped so that the pair scan's (lam+1)^(2t)/2 pairs stay
    # in test time: lam = 5 up to t = 3, 2 at t = 4, 1 at t = 5
    lam = draw(st.integers(1, max(l for l in range(1, 6)
                                  if (2 * l + 1) ** t <= 11 ** 3)))
    min_agree = draw(st.integers(m, d))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d),
                         min_size=m, max_size=m))
    return rows, t, lam, min_agree


@st.composite
def wide_scan_cases(draw):
    """(rows, t, lam, min_agree) with entries up to 10^6 and lam up to 9,
    so the scan's fields are 1 to 4 bytes wide. Each column is drawn
    whole or as a vector in {-1, 0, 1}^m times a factor up to 10^6, so a
    small difference often vanishes on several large columns."""
    m = draw(st.integers(1, 4))
    d = draw(st.integers(m, m + 8))
    t = draw(st.integers(1, min(m, 3)))
    # the pair scan's (lam+1)^(2t)/2 pairs stay in test time: lam = 9 up
    # to t = 2, 3 at t = 3
    lam = draw(st.integers(1, max(l for l in range(1, 10) if (2 * l + 1) ** t <= 19 ** 2)))
    min_agree = draw(st.integers(m, min(d, m + 2)))
    whole = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=m, max_size=m)
    scaled = st.builds(lambda v, g: [g * a for a in v],
                       st.lists(st.integers(-1, 1), min_size=m, max_size=m),
                       st.integers(1, 10 ** 6))
    cols = draw(st.lists(st.one_of(whole, scaled), min_size=d, max_size=d))
    return [list(r) for r in zip(*cols)], t, lam, min_agree


class TestScanAgainstReferences:
    """find_collision returns what both reference scans return: every pair
    of vectors, and every difference with its combination recomputed."""

    @settings(max_examples=150, deadline=None)
    @given(scan_cases())
    def test_matches_both_references(self, case):
        got = scan_result(*case)
        assert got == collision_difference_scan(*case)
        assert got == collision_pair_scan(*case)

    @settings(max_examples=150, deadline=None)
    @given(scan_cases())
    def test_every_pair_carries_its_combination(self, case):
        # the columns yielded with a pair are the ones its certificate is
        # read from: they must be exactly the zeros of the combination of
        # the difference, recomputed here from the matrix
        rows, t, lam, min_agree = case
        A = IntMatrix.from_rows(rows)
        for small, large, agree in _agreeing_pairs(A, t, lam, min_agree):
            coeffs = tuple(b - a for a, b in zip(small, large))
            e = combination_vector(A, coeffs)
            assert agree == [j for j, x in enumerate(e) if x == 0]
            assert len(agree) >= min_agree

    @settings(max_examples=150, deadline=None)
    @given(wide_scan_cases())
    def test_wide_fields_match_pair_scan(self, case):
        assert scan_result(*case) == collision_pair_scan(*case)

    def test_misaligned_zero_field_is_not_counted(self):
        # bound 32600 needs 2-byte fields; the biased row reads 00 80 | a8 00
        # | 80 80 | 05 80 | 07 80, so "00 80" matches twice, at byte 0 and
        # across the boundary at byte 3, while only column 0 is zero: the
        # count lets the difference through, and the listing rejects it
        rows = [[0, -32600, 128, 5, 7], [1, 2, 3, 4, 5]]
        A = IntMatrix.from_rows(rows)
        nb, zero, biased, _ = packed_rows(A, 32600, 1)
        assert (nb, zero) == (2, b"\x00\x80")
        raw = biased[0].to_bytes(10, "little")
        assert (raw.count(zero), list(zero_fields(raw, raw.find(zero), zero))) == (2, [0])
        assert find_collision(A, AttackConfig(t=1, lam=1, min_agree=2)) is None
        assert collision_pair_scan(rows, 1, 1, 2) is None

    def test_first_difference_hit_at_d_160(self):
        # the first difference visited is e_{t-1}, which vanishes where
        # row t - 1 does: five planted zeros, the first three certified
        rng = random.Random(160)
        rows = [[rng.choice((-1, 1)) * rng.randint(1, 10 ** 6) for _ in range(160)]
                for _ in range(3)]
        zeros = sorted(rng.sample(range(160), 5))
        for j in zeros:
            rows[2][j] = 0
        expected = collision_pair_scan(rows, 3, 3, 3)
        assert expected == ((0, 0, 1), tuple(zeros[:3]))
        assert scan_result(rows, 3, 3, 3) == expected

    @pytest.mark.parametrize("variant,m,k,keep,t,lam", [
        ("vandermonde", 4, 30, 18, 3, 3),
        ("vandermonde", 5, 20, 14, 3, 3),
        ("scaled", 2, 40, 120, 2, 8),
    ])
    def test_full_scans_on_family_subsets(self, variant, m, k, keep, t, lam):
        # seeded column subsets of the constructions: every minor is
        # nonzero, so each scan runs to the end and returns None
        full = (construct_scaled if variant == "scaled" else construct_vandermonde)(m, k)[0]
        rng = random.Random(m * 1000 + k)
        for _ in range(3):
            cols = sorted(rng.sample(range(full.cols), keep))
            rows = [[row[j] for j in cols] for row in full.to_rows()]
            assert scan_result(rows, t, lam, m) is None
            assert collision_difference_scan(rows, t, lam, m) is None
            assert collision_pair_scan(rows, t, lam, m) is None

    @pytest.mark.parametrize("lam,coeffs,plane", [
        # 12 x - 11 y = 0 on (11 u, 12 u)
        (12, (12, -11), [(11, 12)]),
        # 5 x - 4 y + 3 z = 0 on u (4, 5, 0) + v (0, 3, 4)
        (5, (5, -4, 3), [(4, 5, 0), (0, 3, 4)]),
    ])
    def test_late_planted_hit(self, lam, coeffs, plane):
        # the only difference that vanishes on the planted columns has
        # |c_i| near lam, so the scan meets it late; the random columns
        # are too large for a small difference to vanish on any of them
        t = len(coeffs)
        rng = random.Random(lam)
        planted = []
        for _ in range(t):
            u = [rng.randint(1, 9) for _ in plane]
            planted.append([sum(a * b[i] for a, b in zip(u, plane)) for i in range(t)])
        cols = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(t)] for _ in range(6)]
        cols[1:1] = planted[:1]
        cols[5:5] = planted[1:]
        rows = [list(r) for r in zip(*cols)]
        expected = (coeffs, tuple(j for j, c in enumerate(cols) if c in planted))
        assert collision_pair_scan(rows, t, lam, t) == expected
        assert collision_difference_scan(rows, t, lam, t) == expected
        assert scan_result(rows, t, lam, t) == expected


class TestScanMemory:
    """The scan keeps O(d) per line and tabulates only the leading t - 1
    rows, lazily: no table of lam + 1 combinations is ever built."""

    BOUND = 256 * 1024

    @pytest.mark.parametrize("t,lam,rows,min_agree,expected", [
        # t = 1: a full scan of 2*10^4 differences (49 zeros, 50 needed),
        # and a hit at the first (49 needed)
        (1, 20_000, [[0] * 49 + [7]], 50, None),
        (1, 20_000, [[0] * 49 + [7]], 49, ((1,), tuple(range(49)))),
        # t = 2 at the largest lam the default budget admits: the first
        # line's first difference (0, 1) vanishes at columns 0 and 1
        (2, 2235, [list(range(1000, 1100)), [0, 0] + list(range(1000, 1098))], 2,
         ((0, 1), (0, 1))),
    ], ids=["t1-full-scan", "t1-first-difference", "t2-first-line"])
    def test_peak_far_below_a_table_of_lam_plus_one_vectors(self, t, lam, rows,
                                                          min_agree, expected):
        A = IntMatrix.from_rows(rows)
        cfg = AttackConfig(t, lam, min_agree)
        tracemalloc.start()
        try:
            cert = find_collision(A, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (None if cert is None else (cert.coeffs, cert.columns)) == expected
        assert peak <= self.BOUND
        # the table this bound rules out: lam + 1 lists of d ints, counting
        # the lists alone
        assert (lam + 1) * sys.getsizeof([0] * A.cols) >= 4 * self.BOUND


class TestConfigValidation:
    def test_rejects_nonpositive(self):
        for bad in [dict(t=0, lam=1, min_agree=1),
                    dict(t=1, lam=0, min_agree=1),
                    dict(t=1, lam=1, min_agree=0)]:
            with pytest.raises(ValueError):
                AttackConfig(**bad)
