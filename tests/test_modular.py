import pytest
from hypothesis import given
from hypothesis import strategies as st

from quandlekit.modular import geometric_sum, is_prime, multiplicative_order, units

PRIMES_TO_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_small_range():
    found = [n for n in range(2, 50) if is_prime(n)]
    assert found == PRIMES_TO_50
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_multiplicative_order_examples():
    assert multiplicative_order(8, 13) == 4
    assert multiplicative_order(2, 13) == 12
    assert multiplicative_order(1, 7) == 1
    assert multiplicative_order(11, 21) == 6
    assert multiplicative_order(0, 1) == 1


def test_multiplicative_order_rejects_nonunits():
    with pytest.raises(ValueError):
        multiplicative_order(6, 21)
    with pytest.raises(ValueError):
        multiplicative_order(0, 5)


def test_units_listing():
    assert units(12) == [1, 5, 7, 11]
    assert units(7) == [1, 2, 3, 4, 5, 6]
    assert units(1) == [0]


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=40))
def test_geometric_sum_matches_direct_sum(m, k):
    for t in units(m):
        direct = sum(pow(t, i, m) for i in range(k)) % m
        assert geometric_sum(t, k, m) == direct


def test_geometric_sum_matches_term_by_term_grid():
    for m in range(1, 24):
        for t in range(-3, 2 * m + 2):
            total, power = 0, 1
            for k in range(70):
                assert geometric_sum(t, k, m) == total % m, (t, k, m)
                total += power
                power *= t
    assert geometric_sum(5, 0, 7) == 0
    assert geometric_sum(5, 10**18, 1) == 0
    with pytest.raises(ValueError):
        geometric_sum(2, -1, 5)


@given(st.integers(min_value=2, max_value=200))
def test_order_divides_unit_group_order(m):
    phi = len(units(m))
    for t in units(m)[:8]:
        assert phi % multiplicative_order(t, m) == 0
