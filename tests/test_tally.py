"""Tally-set machinery: iterated towers with an exact bit cap, the
length padding map, padding-stability checks, density/gap validation,
and the constructive length sequence."""

from __future__ import annotations

import pytest

from streamfp.tally import (
    CAP_BITS,
    GrowthFn,
    OutOfRangeError,
    as_tally,
    construct_lengths,
    is_padding_stable_at,
    iter_exp,
    iter_log,
    pad,
    pad_preserves_validity,
    tally_from_json,
    tally_to_json,
    validate_tally,
)


def growth(family: str, depth: int = 1, **params) -> GrowthFn:
    return GrowthFn(family, depth, params)


DOUBLED_EXP = growth("iter-exp", 1, scale=2)  # 2^(2n)
DOUBLED_EXP2 = growth("iter-exp", 2, scale=2)  # 2^(2^(2n))
IDENTITY = growth("identity")
TWICE = growth("polynomial", coeff=2, exponent=1)


# ------------------------------------------------------------------- towers

def test_iter_exp_frozen():
    assert iter_exp(1, 3) == 8
    assert iter_exp(2, 2) == 16
    assert iter_exp(3, 1) == 16


def test_iter_exp_cap_is_distinct_error():
    with pytest.raises(OutOfRangeError):
        iter_exp(2, 64)
    assert issubclass(OutOfRangeError, ValueError)
    with pytest.raises(ValueError):
        iter_exp(0, 3)


def test_iter_log_frozen():
    assert iter_log(1, 8) == 3
    assert iter_log(2, 16) == 2
    assert iter_log(1, 9) == 3  # floor semantics


def test_iter_log_domain():
    with pytest.raises(ValueError):
        iter_log(1, 1)
    with pytest.raises(ValueError):
        iter_log(2, 3)  # first level gives 1, below the domain


def test_tower_partial_inverse():
    for depth in (1, 2):
        for n in range(1, 5):
            assert iter_log(depth, iter_exp(depth, n)) == n


# ---------------------------------------------------------------- growth fns

def test_growth_families_evaluate():
    assert DOUBLED_EXP.eval(2) == 16
    assert growth("iter-log", 1, scale=1).eval(8) == 3
    assert TWICE.eval(5) == 10
    assert IDENTITY.eval(7) == 7
    table = growth("custom-table", points=[(2, 5), (10, 9)])
    assert table.eval(1) == 0
    assert table.eval(2) == 5
    assert table.eval(9) == 5
    assert table.eval(100) == 9


def test_growth_fn_validation():
    with pytest.raises(ValueError):
        growth("cubic")
    with pytest.raises(ValueError):
        growth("iter-exp", 0)
    with pytest.raises(ValueError):
        growth("custom-table", points=[])
    with pytest.raises(ValueError):
        growth("custom-table", points=[(3, 5), (2, 6)])
    with pytest.raises(ValueError):
        growth("custom-table", points=[(2, 5), (3, 4)])
    with pytest.raises(ValueError):
        IDENTITY.eval(0)


def test_growth_fn_json_round_trip():
    for g in (DOUBLED_EXP, TWICE, growth("custom-table", points=[(1, 1)])):
        d = g.describe()
        assert GrowthFn.from_json(d) == g


def test_polynomial_cap_guard():
    big = growth("polynomial", coeff=1, exponent=10 ** 7)
    with pytest.raises(OutOfRangeError):
        big.eval(2)


# ---------------------------------------------------------------------- pad

def test_pad_frozen():
    assert pad([2]) == (6,)
    assert pad([1, 3]) == (3, 11)
    assert pad([]) == ()


def test_pad_monotone_injective():
    t = tuple(range(1, 18))
    image = pad(t)
    assert len(image) == len(t)
    assert list(image) == sorted(set(image))


def test_pad_cap():
    with pytest.raises(OutOfRangeError):
        pad([CAP_BITS + 1])


def test_as_tally_normalizes():
    assert as_tally([5, 1, 5, 3]) == (1, 3, 5)
    with pytest.raises(ValueError):
        as_tally([0, 2])


def test_tally_json_round_trip():
    t = (1, 6, 2 ** 80)
    assert tally_from_json(tally_to_json(t)) == t


# ------------------------------------------------------------- stability

def test_padding_stable_frozen_small():
    # 2^(2n): at n=2 both sides are tiny (4096 < 2^16+16).
    assert is_padding_stable_at(DOUBLED_EXP, 2) is True
    # At n=1 the inequality fails (64 >= 20).
    assert is_padding_stable_at(DOUBLED_EXP, 1) is False


def test_padding_stable_depth2_exact_comparison():
    # g(2^2+2) = 2^4096 against 2^65536 + 65536, both materialized exactly.
    assert is_padding_stable_at(DOUBLED_EXP2, 2) is True


def test_padding_stable_range_depth1():
    for n in range(2, 21):
        assert is_padding_stable_at(DOUBLED_EXP, n) is True, n


def test_padding_stable_uses_size_comparison_when_rhs_is_huge():
    # At n=3, depth 2: g(n) = 2^64, so 2^(g(n)) is far beyond the cap,
    # but the left side (2^(2^22), about 4M bits) is materializable and
    # its bit length settles the comparison exactly.
    assert is_padding_stable_at(DOUBLED_EXP2, 3) is True


def test_padding_stable_lhs_over_cap_raises():
    with pytest.raises(OutOfRangeError):
        is_padding_stable_at(DOUBLED_EXP2, 4)  # lhs needs ~2^38 bits


def test_padding_stable_past_the_cap_at_the_bit_length_boundaries():
    # g(1) = CAP_BITS, so 2^g(1) + g(1), of g(1) + 1 bits, is never built,
    # and g(2^1 + 1) = 2^(b - 1) has b bits: b alone decides the comparison,
    # except at b = g(1) + 1, which only the built tower could.
    gn = CAP_BITS

    def gap(b: int) -> GrowthFn:
        return growth("custom-table", points=[(1, gn), (3, 1 << (b - 1))])

    assert is_padding_stable_at(gap(gn - 1), 1) is True
    assert is_padding_stable_at(gap(gn), 1) is True
    with pytest.raises(OutOfRangeError, match="equal bit lengths"):
        is_padding_stable_at(gap(gn + 1), 1)
    assert is_padding_stable_at(gap(gn + 2), 1) is False


def test_padding_stable_builds_2_to_the_n_up_to_the_cap():
    # A custom table reads g(2^n + n) without a tower, so only 2^n + n
    # itself meets the cap: built at n = CAP_BITS - 1, refused at CAP_BITS.
    flat = growth("custom-table", points=[(1, 1)])
    assert is_padding_stable_at(flat, CAP_BITS - 1) is True
    with pytest.raises(OutOfRangeError, match=f"exceeds the {CAP_BITS}-bit cap"):
        is_padding_stable_at(flat, CAP_BITS)


def test_padding_unstable_slow_gap():
    # g(n) = 2n: g(2^n+n) = 2^(n+1)+2n >= 2^(2n)+2n for n >= 1... equality
    # region aside, at n=4: lhs 40, rhs 2^8+8 = 264 -> stable; at n=2:
    # lhs 12, rhs 2^4+4 = 20 -> stable. Identity is the unstable case:
    # g(2^n+n) = 2^n+n >= 2^n+n = rhs fails strictness.
    assert is_padding_stable_at(IDENTITY, 3) is False


# ------------------------------------------------------------- validation

def test_validate_frozen_true():
    check = validate_tally([1, 5], IDENTITY, TWICE)
    assert check.ok
    assert bool(check) is True
    assert check.violation is None


def test_validate_frozen_gap_violation():
    check = validate_tally([1, 2], IDENTITY, TWICE)
    assert not check.ok
    assert check.violation == "gap"
    assert check.witness == (1, 2)


def test_validate_empty_is_vacuous():
    assert validate_tally([], IDENTITY, TWICE).ok


def test_validate_density_violation():
    # Three members by length 4 but d(4) = 2.
    half = growth("polynomial", coeff=1, exponent=0)
    check = validate_tally([1, 2, 3], growth("custom-table", points=[(1, 5)]), TWICE)
    assert check.violation == "gap"  # 2*1 >= 2 fires before any density issue
    check2 = validate_tally([9, 40, 100], half, growth("identity"))
    assert check2.violation == "density"
    assert check2.witness == (40, 2)


# ------------------------------------------------------- padded validity

def test_pad_preserves_validity_singleton():
    assert pad_preserves_validity([2], IDENTITY, DOUBLED_EXP) is True


def test_pad_preserves_validity_empty():
    assert pad_preserves_validity([], IDENTITY, DOUBLED_EXP) is True


def test_pad_preserves_validity_precondition():
    # {2, 8} fails the base gap check (g(2) = 16 >= 8): a precondition
    # violation, not a counterexample.
    with pytest.raises(ValueError):
        pad_preserves_validity([2, 8], IDENTITY, DOUBLED_EXP)


def test_pad_preserves_validity_requires_stability():
    with pytest.raises(ValueError, match="stable"):
        pad_preserves_validity([1], IDENTITY, DOUBLED_EXP)  # unstable at n=1


# ------------------------------------------------------------ construction

def test_construct_frozen():
    assert construct_lengths(IDENTITY, TWICE, 3) == [1, 3, 7]


def test_construct_output_validates():
    cases = [
        (IDENTITY, TWICE, 5),
        # Four terms is the most a doubled-exponential gap allows under
        # the default cap: the fifth would need a 2^2051-bit tower.
        (IDENTITY, DOUBLED_EXP, 4),
        (growth("polynomial", coeff=3, exponent=2),
         growth("polynomial", coeff=1, exponent=3), 5),
    ]
    for d, g, count in cases:
        out = construct_lengths(d, g, count)
        assert out == sorted(set(out))
        assert validate_tally(out, d, g).ok


def test_construct_tower_overflow_is_reported():
    with pytest.raises(OutOfRangeError):
        construct_lengths(IDENTITY, DOUBLED_EXP, 5)


def test_construct_strictly_increasing_with_shrinking_gap():
    # A gap function that answers 4 forever would stall the recurrence
    # without the strict-increase term.
    flat = growth("custom-table", points=[(1, 4)])
    out = construct_lengths(IDENTITY, flat, 6)
    assert out[0] == 1
    assert all(b > a for a, b in zip(out, out[1:]))
    assert validate_tally(out, IDENTITY, flat).ok


def test_construct_with_a_gap_at_or_below_the_identity():
    # Neither g(f(j-1)) + 1 nor a density that steps at every length
    # pushes past f(j-1) + 1, so that term alone sets each pick.
    zero = growth("custom-table", points=[(1, 0)])
    for g in (IDENTITY, zero):
        out = construct_lengths(IDENTITY, g, 4)
        assert out == [1, 2, 3, 4]
        assert validate_tally(out, IDENTITY, g).ok


def test_construct_with_a_density_that_steps_at_consecutive_lengths():
    # d steps at 1, 2 and 3, then at 10: n_j is the next length, and the
    # search for n_{j+1} starts just past n_j.
    steps = growth("custom-table", points=[(1, 1), (2, 2), (3, 3), (10, 4)])
    zero = growth("custom-table", points=[(1, 0)])
    assert construct_lengths(steps, zero, 4) == [1, 2, 3, 10]


def test_construct_refuses_bounded_density():
    bounded = growth("custom-table", points=[(1, 3)])  # never exceeds 3
    with pytest.raises(ValueError, match="bounded"):
        construct_lengths(bounded, TWICE, 5)


def test_construct_count_validation():
    with pytest.raises(ValueError):
        construct_lengths(IDENTITY, TWICE, 0)
