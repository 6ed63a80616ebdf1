"""Integer-side number theory: modular inverse, and the solution set of
x^2 = 1 (mod k) together with its count law.

At run time one path solves: a direct scan over 1..k-1 up to SCAN_CAP,
CRT reconstruction above it. Either result must match the count formula
(2^l / 2^(l+1) / 2^(l+2) depending on the power of two in k); the two
paths are checked against each other only in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import NotCoprimeError, SpaceTooLargeError

MAX_MODULUS = 1 << 32
SCAN_CAP = 1 << 20


def mod_inverse(g: int, k: int) -> int:
    """The h in 0..k-1 with g*h = 1 (mod k)."""
    try:
        return pow(g, -1, k)
    except ValueError:
        raise NotCoprimeError(f"{g} is not invertible mod {k}") from None


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as (prime, exponent) pairs."""
    if n < 1 or n > MAX_MODULUS:
        raise ValueError(f"factorize expects 1 <= n <= 2^32, got {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def predicted_sqrt_one_count(k: int) -> int:
    """Number of solutions of x^2 = 1 (mod k) from the factorization of k.

    With k = 2^m * p1^m1 * ... * pl^ml (pi odd primes): 2^l when m is 0
    or 1, 2^(l+1) when m = 2, 2^(l+2) when m >= 3.
    """
    if k < 2:
        raise ValueError(f"modulus must be >= 2, got {k}")
    factors = factorize(k)
    m = next((e for p, e in factors if p == 2), 0)
    l = sum(1 for p, _ in factors if p != 2)
    if m <= 1:
        return 1 << l
    if m == 2:
        return 1 << (l + 1)
    return 1 << (l + 2)


def _scan_sqrt_one(k: int) -> list[int]:
    return [x for x in range(1, k) if x * x % k == 1]


def _prime_power_sqrt_one(p: int, e: int) -> list[int]:
    """Solutions of x^2 = 1 modulo p^e."""
    pe = p**e
    if p == 2:
        if e == 1:
            return [1]
        if e == 2:
            return [1, 3]
        half = pe >> 1
        return sorted({1, pe - 1, half - 1, half + 1})
    return [1, pe - 1]


def crt_sqrt_one_solutions(k: int) -> list[int]:
    """Solutions of x^2 = 1 (mod k) reconstructed prime power by prime power."""
    if k < 2:
        raise ValueError(f"modulus must be >= 2, got {k}")
    factors = factorize(k)
    moduli = [p**e for p, e in factors]
    residue_sets = [_prime_power_sqrt_one(p, e) for p, e in factors]
    sols = []
    for combo in product(*residue_sets):
        x = 0
        for r, pe in zip(combo, moduli):
            rest = k // pe
            x = (x + r * rest * mod_inverse(rest, pe)) % k
        sols.append(x)
    return sorted(sols)


@dataclass(frozen=True)
class SqrtOneSolutions:
    """The solution set of x^2 = 1 (mod k) with the count-law prediction."""

    k: int
    solutions: tuple[int, ...]
    predicted_count: int

    def to_json(self) -> dict:
        return {"k": self.k, "solutions": list(self.solutions), "predicted": self.predicted_count}


def sqrt_one_solutions(k: int) -> SqrtOneSolutions:
    """Solve x^2 = 1 (mod k); scanned below the cap, CRT-reconstructed above.

    The result must match the count law; a mismatch raises, since it
    would falsify the law the toolkit relies on.
    """
    if k > MAX_MODULUS:
        raise SpaceTooLargeError(f"modulus {k} exceeds the 2^32 cap")
    predicted = predicted_sqrt_one_count(k)
    sols = _scan_sqrt_one(k) if k <= SCAN_CAP else crt_sqrt_one_solutions(k)
    if len(sols) != predicted:
        raise AssertionError(
            f"count law violated at k={k}: found {len(sols)}, predicted {predicted}"
        )
    return SqrtOneSolutions(k=k, solutions=tuple(sols), predicted_count=predicted)
