"""Exact arithmetic in GF(2^m) with a runtime-configurable modulus.

An element is a plain int: bit i holds the coefficient of x^i of the
residue polynomial, so addition is xor and every element fits in one
machine word (m is capped at 16). The modulus is checked for
irreducibility by exhaustive trial division once per modulus per
process: the verdict is cached, so every later construction with the
same modulus (a reducible one still raises each time) skips the
division.

Every field multiplies, inverts and raises to powers through one pair
of log/antilog tables, kept as `array('H')` above m = 8 (0.4 MB at
m = 16, where int lists would take 5.75 MB). A context fetches them on
its first arithmetic call from a process-wide cache keyed by
(m, modulus), so construction stays cheap and each field's tables are
built once; fetching is idempotent, so contexts stay safe to share
across threads. Schoolbook multiplication only builds them. Field
blocks and element lists from outside are read by `gcirc.jsonio`.
"""

from __future__ import annotations

import re
from array import array
from functools import lru_cache
from math import gcd

from .errors import BadDegreeError, OutOfRangeError, ParseError, ReducibleModulusError

MAX_DEGREE = 16

_HEX_LITERAL = re.compile(r"0[xX][0-9A-Fa-f]+\Z")
_POLY_TERM = re.compile(r"(?:0|1|([axα])(?:\^(\d+))?)\Z")


def poly_degree(mask: int) -> int:
    """Degree of a GF(2)[x] polynomial bitmask (-1 for the zero polynomial)."""
    return mask.bit_length() - 1


def poly_rem(a: int, b: int) -> int:
    """Remainder of polynomial division a mod b over GF(2)."""
    db = poly_degree(b)
    while poly_degree(a) >= db:
        a ^= b << (poly_degree(a) - db)
    return a


@lru_cache(maxsize=None)
def is_irreducible(mask: int) -> bool:
    """Trial division by every polynomial of degree 1..deg/2, once per mask
    per process: the verdict is cached."""
    d = poly_degree(mask)
    if d < 1:
        return False
    for divisor in range(2, 1 << (d // 2 + 1)):
        if poly_degree(divisor) < 1:
            continue
        if poly_rem(mask, divisor) == 0:
            return False
    return True


def _mul_schoolbook(a: int, b: int, modulus: int) -> int:
    """Shift-and-reduce product; only builds the tables."""
    top = 1 << poly_degree(modulus)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return r


def _pow_schoolbook(a: int, e: int, modulus: int) -> int:
    """a^e by square-and-multiply over _mul_schoolbook."""
    r = 1
    while e:
        if e & 1:
            r = _mul_schoolbook(r, a, modulus)
        a = _mul_schoolbook(a, a, modulus)
        e >>= 1
    return r


@lru_cache(maxsize=None)
def _tables(m: int, modulus: int) -> tuple:
    """Antilog and log tables of GF(2^m) mod `modulus`, one pair per field
    in the process.

    exp[i] = g^i for the smallest generator g and 0 <= i < 2(q-1), so a
    sum of two logs indexes exp without reduction; log[0] is unused.
    A candidate g generates iff g^((q-1)/p) != 1 for every prime p
    dividing q-1, so only the generator's powers are walked.
    """
    q = 1 << m
    n = q - 1
    primes, rest, p = [], n, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    gen = next(
        g for g in range(1, q) if all(_pow_schoolbook(g, n // p, modulus) != 1 for p in primes)
    )
    exp = array("H", bytes(4 * n))
    log = array("H", bytes(2 * q))
    x = 1
    for i in range(n):
        exp[i] = x
        log[x] = i
        x = _mul_schoolbook(x, gen, modulus)
    exp[n:] = exp[:n]
    if m <= 8:  # entries are cached small ints: a list costs no more and indexes faster
        return exp.tolist(), log.tolist()
    return exp, log


class GF2m:
    """A field GF(2^m), 1 <= m <= 16, fixed by an irreducible modulus.

    Immutable after construction and safe to share across threads. All
    arithmetic methods are pure functions of int-encoded elements; they
    fetch the field's shared log/antilog tables on their first call, so
    constructing a context builds no tables.
    """

    def __init__(self, m: int, modulus: int):
        if not 1 <= m <= MAX_DEGREE:
            raise BadDegreeError(f"extension degree must be in 1..{MAX_DEGREE}, got {m}")
        if modulus < 0:  # no bitmask: trial division of it would never end
            raise BadDegreeError(f"modulus {modulus:#x} is negative")
        if poly_degree(modulus) != m:
            raise BadDegreeError(
                f"modulus {modulus:#x} has degree {poly_degree(modulus)}, expected {m}"
            )
        if modulus & 1 == 0:
            raise ReducibleModulusError(f"modulus {modulus:#x} is reducible: divisible by x")
        if not is_irreducible(modulus):
            raise ReducibleModulusError(f"modulus {modulus:#x} is reducible")
        self.m = m
        self.modulus = modulus
        self.q = 1 << m
        self._exp = self._log = None

    def _load_tables(self) -> None:
        exp, log = _tables(self.m, self.modulus)
        self._log = log
        self._exp = exp  # stored last: once _exp is set, _log is too

    # -- identity / hashing: contexts are equal iff they define the same field

    def __eq__(self, other):
        return isinstance(other, GF2m) and other.m == self.m and other.modulus == self.modulus

    def __hash__(self):
        return hash((self.m, self.modulus))

    def __repr__(self):
        return f"GF2m(m={self.m}, modulus={self.modulus:#x})"

    # -- arithmetic

    @staticmethod
    def add(a: int, b: int) -> int:
        """Characteristic-2 addition is xor; also serves as subtraction."""
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        """Product (a*b) mod modulus."""
        if a == 0 or b == 0:
            return 0
        if self._exp is None:
            self._load_tables()
        return self._exp[self._log[a] + self._log[b]]

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0; a^0 = 1 for every a, including 0."""
        if e < 0:
            raise ValueError("exponent must be non-negative")
        if a == 0:
            return 0 if e else 1
        if self._exp is None:
            self._load_tables()
        return self._exp[self._log[a] * e % (self.q - 1)]

    def inv(self, a: int) -> int:
        """Multiplicative inverse: g^(q-1-log a) for the table generator g."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._exp is None:
            self._load_tables()
        return self._exp[self.q - 1 - self._log[a]]

    # -- multiplicative structure

    def is_primitive(self, a: int) -> bool:
        """True iff a generates the multiplicative group: gcd(log a, q-1) = 1."""
        if a == 0:
            return False
        if self._exp is None:
            self._load_tables()
        return gcd(self._log[a], self.q - 1) == 1

    def primitive_element(self) -> int:
        """Smallest generator of the multiplicative group: the tables' base."""
        if self._exp is None:
            self._load_tables()
        return self._exp[1]

    # -- parsing and formatting

    def parse(self, text: str) -> int:
        """Read an element from hex ("0x65") or polynomial syntax ("1+a^2+a^5+a^6").

        Also accepts the combined form emitted by format(), requiring the
        two renderings to agree.
        """
        s = text.strip()
        if not s:
            raise ParseError("empty element literal")
        if "(" in s:
            head, _, tail = s.partition("(")
            if not tail.endswith(")") or "(" in tail:  # one level: no recursion to exhaust
                raise ParseError(f"unbalanced or nested parentheses in {text!r}")
            v1 = self.parse(head)
            v2 = self.parse(tail[:-1])
            if v1 != v2:
                raise ParseError(f"hex and polynomial parts of {text!r} disagree")
            return v1
        if s[:2].lower() == "0x":
            if not _HEX_LITERAL.match(s):
                raise ParseError(f"bad hex literal {s!r}")
            value = int(s, 16)
            if value >= self.q:
                raise OutOfRangeError(f"{s} does not fit in GF(2^{self.m})")
            return value
        return self._parse_poly(s)

    def _parse_poly(self, s: str) -> int:
        mask = 0
        for pos, term in enumerate(t.strip() for t in s.split("+")):
            match = _POLY_TERM.match(term)
            if match is None:
                raise ParseError(f"bad term {term!r} at position {pos}")
            if term == "0":
                continue
            if term == "1":
                mask ^= 1
                continue
            degree = int(match.group(2)) if match.group(2) is not None else 1
            if degree >= self.m:
                raise OutOfRangeError(
                    f"term {term!r} has degree {degree}, field degree is {self.m}"
                )
            mask ^= 1 << degree
        return mask

    def format_hex(self, a: int) -> str:
        return f"0x{a:0{(self.m + 3) // 4}x}"

    def format_poly(self, a: int, var: str = "a") -> str:
        if a == 0:
            return "0"
        terms = []
        for i in range(self.m):
            if a >> i & 1:
                terms.append("1" if i == 0 else var if i == 1 else f"{var}^{i}")
        return "+".join(terms)

    def format(self, a: int) -> str:
        """Both renderings at once, e.g. "0x65 (1+a^2+a^5+a^6)"; parse() round-trips it."""
        return f"{self.format_hex(a)} ({self.format_poly(a)})"
