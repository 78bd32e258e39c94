"""Small exact number-theory helpers shared across the package."""

from __future__ import annotations

from math import gcd


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def multiplicative_order(t: int, m: int) -> int:
    """Least k >= 1 with t**k == 1 mod m.  Requires gcd(t, m) == 1."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return 1
    t %= m
    if gcd(t, m) != 1:
        raise ValueError(f"{t} is not a unit modulo {m}")
    k, acc = 1, t
    while acc != 1:
        acc = acc * t % m
        k += 1
    return k


def geometric_sum(t: int, k: int, m: int) -> int:
    """1 + t + ... + t**(k-1) reduced mod m, by binary splitting over the
    bits of k: S(2j) = S(j) (1 + t**j) and S(j + 1) = 1 + t S(j)."""
    if k < 0:
        raise ValueError("exponent count must be nonnegative")
    total, power = 0, 1 % m  # S(j) and t**j for the leading bits j of k
    for bit in bin(k)[2:]:
        total, power = total * (1 + power) % m, power * power % m
        if bit == "1":
            total, power = (1 + t * total) % m, power * t % m
    return total


def conjugate_orbit(p: int, u: int, k: int) -> frozenset[int]:
    """Orbit of k under multiplication by u modulo p."""
    orbit = {k % p}
    x = k * u % p
    while x not in orbit:
        orbit.add(x)
        x = x * u % p
    return frozenset(orbit)


def units(m: int) -> list[int]:
    """Multiplicative units modulo m, ascending.  units(1) == [0]."""
    if m == 1:
        return [0]
    return [t for t in range(1, m) if gcd(t, m) == 1]
