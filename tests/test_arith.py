"""The number-theoretic helpers against brute force.

Below 2 there are no prime divisors and no prime powers; p_part is read
only at group orders, so it is checked from 1 on.
"""

from groupcovers.arith import is_prime, p_part, prime_divisors, prime_power_base

from _oracles import _is_prime

N = range(-3, 2049)
PRIMES = [p for p in N if _is_prime(p)]
POWER_BASE = {p**k: p for p in PRIMES for k in range(1, 12) if p**k < 2049}


def test_is_prime():
    assert [n for n in N if is_prime(n)] == PRIMES


def test_prime_divisors():
    for n in N:
        assert prime_divisors(n) == [p for p in PRIMES if n > 1 and n % p == 0], n


def test_prime_power_base():
    for n in N:
        assert prime_power_base(n) == POWER_BASE.get(n), n


def test_p_part():
    for n in range(1, 2049):
        for p in PRIMES[:6] + prime_divisors(n):
            q = max(p**k for k in range(12) if n % p**k == 0)
            assert p_part(n, p) == q, (n, p)
