"""Small number-theoretic helpers.

Group orders here never exceed a few hundred, so trial division is all
we need.  `prime_divisors` holds the one trial-division loop; callers
that can see a huge argument check it against the order bound first.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    return prime_divisors(n) == [n]


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return q


def prime_power_base(n: int) -> int | None:
    """Return p if n is a prime power p^k with k >= 1, else None."""
    primes = prime_divisors(n)
    return primes[0] if len(primes) == 1 else None
