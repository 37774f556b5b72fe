"""Small exact number-theory helpers used throughout the package."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, log


# Miller-Rabin to the first 13 prime bases is deterministic below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981

_FACTORIZE_MEMO = 2048  # moduli kept by factorize's memo, least recent out first
_TRIAL_LIMIT = 1 << 10  # factorize trial-divides below this, then Pollard-Brent


def is_prime(n: int) -> bool:
    """Deterministic primality below ``_MR_BOUND``.  At or above it, a number
    with a factor up to 41 is not prime and any other raises ValueError."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def nth_prime(k: int) -> int:
    """The k-th prime, 1-based: nth_prime(1) == 2."""
    if k < 1:
        raise ValueError("prime index must be >= 1")
    if len(_PRIMES) < k:
        # Rosser's bound p_k < k (ln k + ln ln k) holds for k >= 6; the
        # doubling covers smaller k
        limit = int(k * (log(k) + log(log(k)))) + 1 if k >= 6 else 16
        while len(_PRIMES) < k:
            _PRIMES[:] = _primes_up_to(limit)
            limit *= 2
    return _PRIMES[k - 1]


def _primes_up_to(n: int) -> list[int]:
    """Every prime <= n, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return list(compress(range(n + 1), sieve))


@lru_cache(maxsize=_FACTORIZE_MEMO)
def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, primes ascending;
    {} for n == 1.  Trial division finds the primes below ``_TRIAL_LIMIT``.
    A cofactor left past it is a prime when ``is_prime`` says so, and is
    otherwise split by Pollard-Brent; at or above ``_MR_BOUND`` such a
    cofactor raises is_prime's ValueError.  Memoized, as the same few
    moduli come back on every solve: the dict is shared between callers and
    must not be mutated."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        if p >= _TRIAL_LIMIT:
            for q in sorted(_large_factors(m)):
                out[q] = out.get(q, 0) + 1
            return out
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _large_factors(m: int) -> list[int]:
    """The prime factors of m, with multiplicity, when m has none below
    ``_TRIAL_LIMIT``."""
    if is_prime(m):
        return [m]
    d = _pollard_brent(m)
    return _large_factors(d) + _large_factors(m // d)


def _pollard_brent(n: int) -> int:
    """A proper factor of the composite n, which has no factor below
    ``_TRIAL_LIMIT`` (R. P. Brent, "An improved Monte Carlo factorization
    algorithm", BIT 20 (1980)).  The walks y -> y^2 + c start at 2 and try
    c = 1, 2, ... in turn, so the factor found is always the same."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: step again one at a time from its start
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def int_valuation(n: int, p: int) -> int | None:
    """p-adic valuation of an integer; None stands for +infinity (n == 0)."""
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def residue_mod(c: Fraction | int, m: int) -> int:
    """The residue of a rational with denominator coprime to m, in [0, m).
    The numerator is reduced first, so a zero residue (c == 0 or m == 1
    among them) costs no inversion."""
    r = c.numerator % m
    return r and r * pow(c.denominator, -1, m) % m


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Residue mod m1*m2 matching r1 mod m1 and r2 mod m2 (coprime moduli)."""
    u = pow(m1, -1, m2) if m2 > 1 else 0
    return (r1 + m1 * ((r2 - r1) * u % m2)) % (m1 * m2)


def sqrt_enclosure(n: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rational interval [lo, hi] containing sqrt(n), of width 2**-bits."""
    s = isqrt(n << (2 * bits))
    return Fraction(s, 1 << bits), Fraction(s + 1, 1 << bits)


def int_above(q: Fraction | int) -> int:
    """Smallest integer strictly greater than q."""
    q = Fraction(q)
    return q.numerator // q.denominator + 1


def int_below(q: Fraction | int) -> int:
    """Largest integer strictly less than q."""
    return -int_above(-Fraction(q))
