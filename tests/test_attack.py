import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fullrank.attack import (
    AttackConfig,
    attack_config,
    attack_params,
    combination_vector,
    find_collision,
)
from fullrank.construct import construct_vandermonde
from fullrank.errors import BudgetExceededError
from fullrank.linalg import IntMatrix
from fullrank.verify import verify_certificate
from oracles import perm_det


def collision_oracle(rows, t, lam, min_agree):
    """Scan every pair (a, b) of vectors in {0..lam}^t with a < b
    lexicographically, in that order, comparing their combinations."""
    d = len(rows[0])
    vecs = list(itertools.product(range(lam + 1), repeat=t))
    combs = [
        tuple(sum(v[i] * rows[i][j] for i in range(t)) for j in range(d))
        for v in vecs
    ]
    for ia in range(len(vecs)):
        for ib in range(ia + 1, len(vecs)):
            agree = [j for j in range(d) if combs[ia][j] == combs[ib][j]]
            if len(agree) >= min_agree:
                coeffs = tuple(b - a for a, b in zip(vecs[ia], vecs[ib]))
                return coeffs, tuple(agree[:min_agree])
    return None


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
                expected = collision_oracle(rows, 2, 1, 2)
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
            expected = collision_oracle(rows, 2, 1, 2)
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
            expected = collision_oracle(rows, t, lam, min_agree)
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
        assert collision_oracle(rows, 3, 2, 3) == ((2, 1, -2), (0, 2, 3))

    def test_min_agree_below_rows_refused(self):
        # fewer than m agreeing columns witness no m x m minor: on this
        # 2 x 5 matrix, whose minors all pass, row 1 alone vanishes at column 4
        A, _ = construct_vandermonde(2, 3)
        with pytest.raises(ValueError, match="min_agree=1 outside"):
            find_collision(A, AttackConfig(t=2, lam=1, min_agree=1))


class TestConfigValidation:
    def test_rejects_nonpositive(self):
        for bad in [dict(t=0, lam=1, min_agree=1),
                    dict(t=1, lam=0, min_agree=1),
                    dict(t=1, lam=1, min_agree=0)]:
            with pytest.raises(ValueError):
                AttackConfig(**bad)
