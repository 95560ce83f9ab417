"""Number-theoretic primitives: factor sieve, Moebius, Mertens, prime-tuple counts.

Everything is exact integer arithmetic.  The FactorSieve stores the smallest
prime factor of every integer up to a limit, which makes factorization of any
x <= limit an O(log x) division chain; all counting functions here sit on top
of that table.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import accumulate, compress, count
from operator import eq, mul

from .errors import InvalidArgumentError

# The first 15 primes: their primorial, 614889782588491410, is the largest primorial below 2^63.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_SLICE = 1 << 15
_PLUS_ONE = bytes(range(1, 256)) + b"\0"  # byte b to b + 1
_PARITY = bytes((1, 255)) * 128  # byte w to (-1)^w as a signed byte


class FactorSieve:
    """Smallest-prime-factor table covering [2, limit].

    spf is an array('l') with spf[x] the smallest prime factor of x for
    2 <= x <= limit (spf[0] = spf[1] = 0).  It starts as the identity and every
    prime p <= sqrt(limit), largest first, writes p over its multiples from p^2
    on by slice assignment, so the smallest prime factor writes last; an entry
    left equal to its index is prime.  Each slice covers at most _SLICE
    multiples, which bounds the temporary right-hand side.  omega[x], the
    number of distinct primes of x, and mu[x] = mu(x) (both array('b'),
    mu[1] = 1) are filled by slices too: every prime p adds one to
    omega[p::p], mu is (-1)^omega with mu[p*p::p*p] zeroed for each p <=
    sqrt(limit).
    """

    def __init__(self, limit: int):
        if limit < 2:
            raise InvalidArgumentError(f"sieve limit must be >= 2, got {limit}")
        self.limit = int(limit)
        spf = array("l", range(self.limit + 1))
        spf[1] = 0
        root = math.isqrt(self.limit)
        small = [p for p in range(2, root + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]
        for p in reversed(small):
            for start in range(p * p, self.limit + 1, p * _SLICE):
                stop = min(start + p * _SLICE, self.limit + 1)
                spf[start:stop:p] = array("l", [p]) * len(range(start, stop, p))
        self.spf = spf
        self._primes: list[int] | None = None
        omega = bytearray(self.limit + 1)
        for p in compress(count(), map(eq, spf, count())):  # spf[x] == x: 0 and the primes
            if p:
                omega[p::p] = omega[p::p].translate(_PLUS_ONE)
        mu = omega.translate(_PARITY)
        mu[0] = 0
        for p in small:
            mu[p * p :: p * p] = bytes(len(range(p * p, self.limit + 1, p * p)))
        self.mu, self.omega = array("b", mu), array("b", omega)

    @property
    def primes(self) -> list[int]:
        """Sorted list of all primes <= limit."""
        if self._primes is None:
            spf = self.spf
            self._primes = [x for x in range(2, self.limit + 1) if spf[x] == x]
        return self._primes

    def check_range(self, x: int) -> None:
        if not 1 <= x <= self.limit:
            raise InvalidArgumentError(f"{x} outside sieve range [1, {self.limit}]")

    def factorization(self, x: int) -> tuple[tuple[int, int], ...]:
        """(prime, exponent) pairs of x in increasing prime order, via the spf chain."""
        self.check_range(x)
        out = []
        m = x
        while m > 1:
            p = self.spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        return tuple(out)

    def is_squarefree(self, x: int) -> bool:
        self.check_range(x)
        return self.mu[x] != 0


def moebius(x: int, sieve: FactorSieve) -> int:
    """mu(x): (-1)^(number of distinct primes) on squarefree x, else 0; mu(1) = 1."""
    sieve.check_range(x)
    return sieve.mu[x]


def mertens(n: int, sieve: FactorSieve) -> int:
    """M(n): partial sum of mu over 1..n."""
    sieve.check_range(n)
    return sum(moebius(k, sieve) for k in range(1, n + 1))


def mertens_table(sieve: FactorSieve, n: int) -> array:
    """M[0..n], the Mertens values (M[0] = 0) as an array('q'), for sweep-style consumers."""
    sieve.check_range(n)
    return array("q", accumulate(sieve.mu[1 : n + 1], initial=0))


def prime_pi(x: float, sieve: FactorSieve) -> int:
    """pi(x): number of primes <= floor(x)."""
    if x < 0:
        raise InvalidArgumentError(f"prime_pi needs x >= 0, got {x}")
    if x > sieve.limit:
        raise InvalidArgumentError(f"{x} outside sieve range [0, {sieve.limit}]")
    return bisect_right(sieve.primes, int(x))


def pi_k(k: int, x: float, odd_only: bool, sieve: FactorSieve) -> int:
    """Count squarefree m <= floor(x) with exactly k distinct prime factors.

    With odd_only, every factor must be odd (equivalently m is odd).  k = 0
    returns 0 by convention: the integer 1 never appears as a graph vertex.
    """
    if x < 0:
        raise InvalidArgumentError(f"pi_k needs x >= 0, got {x}")
    if x > sieve.limit:
        raise InvalidArgumentError(f"{x} outside sieve range [0, {sieve.limit}]")
    if k <= 0:
        return 0
    fx = int(x)
    count = 0
    for m in range(2, fx + 1):
        if odd_only and m % 2 == 0:
            continue
        pairs = sieve.factorization(m)
        if len(pairs) == k and all(e == 1 for _, e in pairs):
            count += 1
    return count


def pi_k_tables(sieve: FactorSieve, n: int, k_max: int) -> dict[tuple[int, bool], array]:
    """Cumulative pi_k rows of the counting-function formulas: (1, False) and (k, True) for 2 <= k <= k_max.

    Returns {(k, odd_only): array('q') A with A[x] = pi_k(k, x, odd_only)}
    for x in [0, n], read from the sieve's omega and mu, for per-n sweeps
    where calling pi_k would be quadratic; H1 reads the primes and H3 the odd k-tuples.
    """
    sieve.check_range(n)
    every = array("b", map(mul, sieve.omega[1 : n + 1], map(abs, sieve.mu[1 : n + 1])))
    odd = array("b", every)
    odd[1::2] = array("b", bytes(len(odd) // 2))  # the even m = 2, 4, ...
    return {
        (k, k > 1): array("q", accumulate(map(k.__eq__, odd if k > 1 else every), initial=0))
        for k in range(1, k_max + 1)
    }


def kummer_number(d: int) -> int:
    """One less than the product of the first d primes."""
    if d < 1:
        raise InvalidArgumentError(f"kummer_number needs d >= 1, got {d}")
    if d > len(_SMALL_PRIMES):
        raise OverflowError(f"primorial of {d} primes exceeds the 64-bit range")
    return math.prod(_SMALL_PRIMES[:d]) - 1


def primorial(d: int) -> int:
    """Product of the first d primes (the Kummer number plus one)."""
    return kummer_number(d) + 1


def divisor_moebius_sum(n: int, sieve: FactorSieve) -> int:
    """Sum of mu(d) over divisors d of n with d != 1; equals -1 for every n >= 2."""
    if n < 2:
        raise InvalidArgumentError(f"divisor_moebius_sum needs n >= 2, got {n}")
    divisors = [1]
    for p, e in sieve.factorization(n):
        divisors = [d * p**j for d in divisors for j in range(e + 1)]
    return sum(moebius(d, sieve) for d in divisors if d != 1)
