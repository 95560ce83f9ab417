import math
from itertools import accumulate

import pytest

from primetop import (
    FactorSieve,
    InvalidArgumentError,
    divisor_moebius_sum,
    kummer_number,
    mertens,
    moebius,
    pi_k,
    prime_pi,
    primorial,
)
from primetop.arithmetic import _SLICE, mertens_table, pi_k_tables

from conftest import distinct_primes_bruteforce, moebius_bruteforce


def test_build_sieve_examples():
    s = FactorSieve(10)
    assert s.spf[9] == 3
    assert s.spf[7] == 7
    assert FactorSieve(2).spf[2] == 2
    assert FactorSieve(30).spf[30] == 2


def test_build_sieve_rejects_small_limit():
    with pytest.raises(InvalidArgumentError):
        FactorSieve(1)


def test_sieve_invariants(sieve10k):
    spf = sieve10k.spf
    for x in range(2, 10**4 + 1):
        p = int(spf[x])
        assert x % p == 0
        assert spf[p] == p  # p is prime
        factors, _ = distinct_primes_bruteforce(x)
        assert p == min(factors)


def test_prime_signature_invariants(sieve):
    # factorization(x): the distinct primes of x ascending, each with its exponent
    for x in range(2, 1200):
        pairs = sieve.factorization(x)
        assert math.prod(p**e for p, e in pairs) == x
        ref_factors, ref_sqfree = distinct_primes_bruteforce(x)
        assert [p for p, _ in pairs] == ref_factors
        assert all(e >= 1 for _, e in pairs)
        assert all(e == 1 for _, e in pairs) == ref_sqfree


def test_moebius_examples(sieve):
    assert moebius(1, sieve) == 1
    assert moebius(30, sieve) == -1
    assert moebius(12, sieve) == 0


def test_moebius_matches_bruteforce(sieve10k):
    for x in range(1, 10**4 + 1):
        assert moebius(x, sieve10k) == moebius_bruteforce(x)


def test_moebius_range_check(sieve):
    with pytest.raises(InvalidArgumentError):
        moebius(0, sieve)
    with pytest.raises(InvalidArgumentError):
        moebius(sieve.limit + 1, sieve)


def test_mertens_examples(sieve):
    assert mertens(1, sieve) == 1
    assert mertens(2, sieve) == 0
    # direct summation oracle
    assert mertens(10, sieve) == sum(moebius_bruteforce(k) for k in range(1, 11)) == -1


def test_mertens_telescopes(sieve):
    for n in range(2, 400):
        assert mertens(n, sieve) - mertens(n - 1, sieve) == moebius(n, sieve)


def test_mertens_table_agrees(sieve):
    table = mertens_table(sieve, 300)
    for n in (1, 2, 10, 137, 300):
        assert table[n] == mertens(n, sieve)


def test_prime_pi_examples(sieve):
    assert prime_pi(10, sieve) == 4
    assert prime_pi(1.5, sieve) == 0
    assert prime_pi(2, sieve) == 1


def test_prime_pi_range(sieve):
    with pytest.raises(InvalidArgumentError):
        prime_pi(-1, sieve)
    with pytest.raises(InvalidArgumentError):
        prime_pi(sieve.limit + 1, sieve)


def test_pi_k_examples(sieve):
    # enumeration oracles: {6, 10}, {30}, {15}
    assert pi_k(2, 10, False, sieve) == 2
    assert pi_k(3, 30, False, sieve) == 1
    assert pi_k(2, 15, True, sieve) == 1
    assert pi_k(0, 100, False, sieve) == 0


def test_pi_k_bruteforce(sieve):
    for x in (10, 50, 211):
        for k in (1, 2, 3):
            for odd in (False, True):
                want = 0
                for m in range(2, x + 1):
                    factors, sqfree = distinct_primes_bruteforce(m)
                    if sqfree and len(factors) == k and (not odd or m % 2):
                        want += 1
                assert pi_k(k, x, odd, sieve) == want


def test_pi_k_equals_prime_pi(sieve):
    for x in (2, 10, 97, 500):
        assert pi_k(1, x, False, sieve) == prime_pi(x, sieve)


def test_pi_k_parity_recurrence(sieve10k):
    # pi_k(k, x, odd) = pi_k(k, x, all) - pi_{k-1}(x//2, odd): split on the factor 2
    n = 10**4
    tabs = pi_k_tables(sieve10k, n, 4)
    # the tables build no row of both parities for k >= 2, nor the odd primes: count those from each m's factors
    shape = [0, 0] + [len(f) if all(e == 1 for _, e in f) else 0 for f in map(sieve10k.factorization, range(2, n + 1))]
    every = {k: list(accumulate(map(k.__eq__, shape))) for k in (2, 3, 4)}
    odd = {1: list(accumulate(s == 1 and m % 2 for m, s in enumerate(shape))), 2: tabs[(2, True)], 3: tabs[(3, True)]}
    for k in (2, 3, 4):
        for x in range(2, n + 1):
            assert tabs[(k, True)][x] == every[k][x] - odd[k - 1][x // 2]


def test_pi_k_tables_match_pi_k(sieve):
    tabs = pi_k_tables(sieve, 500, 3)
    # H1 reads the primes of both parities, H3 the odd k-tuples: no other row is built
    assert list(tabs) == [(1, False), (2, True), (3, True)]
    for x in (2, 3, 100, 499, 500):
        for (k, odd), row in tabs.items():
            assert row[x] == pi_k(k, x, odd, sieve)


def test_kummer_number():
    assert kummer_number(2) == 5
    assert kummer_number(3) == 29
    assert kummer_number(4) == 209
    assert primorial(5) == 2310
    with pytest.raises(InvalidArgumentError):
        kummer_number(0)
    with pytest.raises(OverflowError):
        kummer_number(16)


def test_divisor_moebius_sum_examples(sieve):
    assert divisor_moebius_sum(6, sieve) == -1  # mu(2)+mu(3)+mu(6)
    assert divisor_moebius_sum(4, sieve) == -1  # mu(2)+mu(4)
    assert divisor_moebius_sum(30, sieve) == -1


def test_divisor_moebius_sum_is_minus_one_everywhere(sieve):
    for n in range(2, 2001):
        assert divisor_moebius_sum(n, sieve) == -1
    with pytest.raises(InvalidArgumentError):
        divisor_moebius_sum(1, sieve)


def test_sieve_primes_listing():
    s = FactorSieve(50)
    assert list(s.primes) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def smallest_factor_by_trial_division(x: int) -> int:
    return next((p for p in range(2, math.isqrt(x) + 1) if x % p == 0), x)


SPF_300 = {x: smallest_factor_by_trial_division(x) for x in range(2, 301)}


def test_sieve_matches_trial_division_at_every_limit():
    # every p^2 slice start and every square limit falls in this range
    for limit in range(2, 301):
        s = FactorSieve(limit)
        assert [s.spf[x] for x in range(2, limit + 1)] == [SPF_300[x] for x in range(2, limit + 1)], limit
        assert s.primes == [x for x in range(2, limit + 1) if SPF_300[x] == x], limit
        assert all(type(p) is int for p in s.primes)


def test_sieve_across_slice_boundaries():
    # the multiples of 2 and of 3 are written in several slices of at most _SLICE entries
    limit = 5 * _SLICE + 7
    s = FactorSieve(limit)
    small = [p for p in range(2, math.isqrt(limit) + 1) if smallest_factor_by_trial_division(p) == p]
    for x in range(2, limit + 1):
        assert s.spf[x] == next((p for p in small if x % p == 0), x), x


def test_prime_pi_at_every_x(sieve):
    is_prime = [x >= 2 and smallest_factor_by_trial_division(x) == x for x in range(sieve.limit + 1)]
    for x in range(sieve.limit + 1):
        want = sum(is_prime[: x + 1])
        assert prime_pi(x, sieve) == want, x
        assert prime_pi(min(x + 0.5, sieve.limit), sieve) == want, x


def test_tables_hold_python_ints(sieve):
    # each table is an array('q'), read as Python ints; a value past 64 bits raises OverflowError, it does not wrap
    assert all(type(v) is int for v in mertens_table(sieve, 3000))
    for table in pi_k_tables(sieve, 3000, 5).values():
        assert len(table) == 3001 and all(type(v) is int for v in table)


def test_sieve_mu_and_omega_match_trial_division(sieve10k):
    # trial division is the oracle of mu and omega at every x
    for x in range(1, 10**4 + 1):
        factors, _ = distinct_primes_bruteforce(x)
        assert (sieve10k.mu[x], sieve10k.omega[x]) == (moebius_bruteforce(x), len(factors)), x
    table, tabs = mertens_table(sieve10k, 10**4), pi_k_tables(sieve10k, 10**4, 5)
    for n in (1, 2, 3, 30, 210, 2309, 2310, 4999, 9973, 10**4):
        assert table[n] == mertens(n, sieve10k), n
    for n in (2, 30, 2310, 10**4):
        for (k, odd), row in tabs.items():
            assert row[n] == pi_k(k, n, odd, sieve10k), (n, k, odd)


def test_sieve_mu_and_omega_match_factorization(sieve10k):
    # the slice-filled mu and omega against the spf chain, at every x up to 10^4
    for x in range(1, 10**4 + 1):
        exponents = [e for _, e in sieve10k.factorization(x)]
        mu = 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)
        assert (sieve10k.mu[x], sieve10k.omega[x]) == (mu, len(exponents)), x
    assert (sieve10k.mu[0], sieve10k.omega[0]) == (0, 0)
    # each limit ends some p::p and p*p::p*p slice at a different place
    for limit in range(2, 300):
        s = FactorSieve(limit)
        assert (s.mu, s.omega) == (sieve10k.mu[: limit + 1], sieve10k.omega[: limit + 1]), limit
