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
m = 16, where int lists would take 5.75 MB). They are built once per
(m, modulus) per process by walking each candidate generator's powers
with schoolbook multiplication until one walk covers every unit, and a
context reads them on its first arithmetic call, so construction stays
cheap; reading is idempotent, so contexts stay safe to share across
threads. Field blocks and element lists from outside are read by
`gcirc.jsonio`.
"""

from __future__ import annotations

import re
from array import array
from functools import lru_cache

from .errors import BadDegreeError, OutOfRangeError, ParseError, ReducibleModulusError, excerpt

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


@lru_cache(maxsize=None)
def _tables(m: int, modulus: int) -> tuple:
    """Antilog and log tables of GF(2^m) mod `modulus`, one pair per field
    in the process.

    exp[i] = g^i for the smallest generator g and 0 <= i < 2(q-1), so a
    sum of two logs indexes exp without reduction; log[0] is unused.
    Each candidate's powers are written into exp and log until they
    return to 1; the first walk of q-1 steps is the generator's, and it
    overwrites every entry a shorter walk wrote.
    """
    q = 1 << m
    n = q - 1
    exp = array("H", bytes(4 * n))
    log = array("H", bytes(2 * q))
    for gen in range(1, q):
        x, i = 1, 0
        while True:
            exp[i] = x
            log[x] = i
            i += 1
            x = _mul_schoolbook(x, gen, modulus)
            if x == 1:
                break
        if i == n:
            break
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
            raise BadDegreeError(f"extension degree must be in 1..{MAX_DEGREE}, got {excerpt(str(m))}")
        if modulus < 0:  # no bitmask: trial division of it would never end
            raise BadDegreeError(f"modulus {excerpt(f'{modulus:#x}')} is negative")
        if poly_degree(modulus) != m:
            raise BadDegreeError(
                f"modulus {excerpt(f'{modulus:#x}')} has degree {poly_degree(modulus)}, expected {m}"
            )
        # trial division by degrees 1..m/2 rejects every even modulus but x itself (m = 1)
        if modulus == 0b10:
            raise ReducibleModulusError("modulus 0x2 is refused: the element a = x reduces to 0")
        if not is_irreducible(modulus):
            raise ReducibleModulusError(f"modulus {modulus:#x} is reducible")
        self.m = m
        self.modulus = modulus
        self.q = 1 << m
        # plain attributes, not cached_property: a class attribute of the same name stops
        # CPython 3.11 from specializing the instance load, and mul ran 45% slower
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

    def root_of_unity(self, n: int) -> int:
        """A primitive n-th root of unity, g^((q-1)/n) for the table generator g."""
        if n < 1 or (self.q - 1) % n:
            raise ValueError(f"GF(2^{self.m}) has primitive n-th roots of unity only for n | {self.q - 1}, got n={n}")
        if self._exp is None:
            self._load_tables()
        return self._exp[(self.q - 1) // n]

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
                raise ParseError(f"unbalanced or nested parentheses in {excerpt(repr(text))}")
            v1 = self.parse(head)
            v2 = self.parse(tail[:-1])
            if v1 != v2:
                raise ParseError(f"hex and polynomial parts of {excerpt(repr(text))} disagree")
            return v1
        if s[:2].lower() == "0x":
            if not _HEX_LITERAL.match(s):
                raise ParseError(f"bad hex literal {excerpt(repr(s))}")
            value = int(s, 16)
            if value >= self.q:
                raise OutOfRangeError(f"{excerpt(s)} does not fit in GF(2^{self.m})")
            return value
        return self._parse_poly(s)

    def _parse_poly(self, s: str) -> int:
        mask = 0
        for pos, term in enumerate(t.strip() for t in s.split("+")):
            match = _POLY_TERM.match(term)
            if match is None:
                raise ParseError(f"bad term {excerpt(repr(term))} at position {pos}")
            if term == "0":
                continue
            if term == "1":
                mask ^= 1
                continue
            digits = (match.group(2) or "1").lstrip("0") or "0"
            if len(digits) > len(str(MAX_DEGREE)):  # int() refuses thousands of digits
                raise OutOfRangeError(
                    f"term at position {pos} has a {len(digits)}-digit degree, field degree is {self.m}"
                )
            degree = int(digits)
            if degree >= self.m:
                raise OutOfRangeError(
                    f"term {excerpt(repr(term))} has degree {degree}, field degree is {self.m}"
                )
            mask ^= 1 << degree
        return mask

    def format_hex(self, a: int) -> str:
        return f"0x{a:0{(self.m + 3) // 4}x}"

    def format_poly(self, a: int) -> str:
        if a == 0:
            return "0"
        terms = []
        for i in range(self.m):
            if a >> i & 1:
                terms.append("1" if i == 0 else "a" if i == 1 else f"a^{i}")
        return "+".join(terms)

    def format(self, a: int) -> str:
        """Both renderings at once, e.g. "0x65 (1+a^2+a^5+a^6)"; parse() round-trips it."""
        return f"{self.format_hex(a)} ({self.format_poly(a)})"
