"""GF(2^m) arithmetic: construction, axioms, the log tables' generator, parsing."""

import random

import pytest

from gcirc import (
    BadDegreeError,
    GF2m,
    OutOfRangeError,
    Matrix,
    ParseError,
    ReducibleModulusError,
    factorize,
    is_irreducible,
)
from gcirc import jsonio
from gcirc.field import _tables

from conftest import schoolbook_mul, schoolbook_pow

CONTEXT_PARAMS = [(8, 0x165), (8, 0x11D), (4, 0x13), (2, 0x7)]
ORACLE_PARAMS = CONTEXT_PARAMS + [(1, 0x3), (16, 0x1002B)]


def schoolbook_order(ctx, a):
    """The multiplicative order of a != 0, walked with the schoolbook oracle."""
    x, n = a, 1
    while x != 1:
        x = schoolbook_mul(ctx, x, a)
        n += 1
    return n


class TestConstruction:
    def test_known_good_moduli(self):
        for m, poly in CONTEXT_PARAMS:
            ctx = GF2m(m, poly)
            assert ctx.q == 1 << m

    def test_reducible_modulus_rejected(self):
        # x^4 + x^3 = x^3 (x + 1)
        with pytest.raises(ReducibleModulusError):
            GF2m(4, 0x18)

    def test_missing_constant_term_rejected(self):
        with pytest.raises(ReducibleModulusError):
            GF2m(4, 0x12)
        # x itself, which trial division up to degree m/2 never tries: it is
        # irreducible, but the element a = x is 0 there
        with pytest.raises(ReducibleModulusError, match=r"^modulus 0x2 is refused: the element a = x reduces to 0$"):
            GF2m(1, 0x2)

    def test_degree_mismatch(self):
        with pytest.raises(BadDegreeError):
            GF2m(5, 0x13)
        with pytest.raises(BadDegreeError):
            GF2m(8, 0x13)
        # -5 has bit length 3, like a degree-2 modulus
        with pytest.raises(BadDegreeError):
            GF2m(2, -5)

    def test_degree_bounds(self):
        with pytest.raises(BadDegreeError):
            GF2m(0, 0x1)
        with pytest.raises(BadDegreeError):
            GF2m(17, (1 << 17) | 0x9)

    def test_reducible_modulus_rejected_every_time(self):
        # the irreducibility verdict is cached per modulus; the error is not
        is_irreducible.cache_clear()
        with pytest.raises(ReducibleModulusError):
            GF2m(8, 0x11F)
        assert GF2m(8, 0x11B).m == 8
        with pytest.raises(ReducibleModulusError):
            GF2m(8, 0x11F)

    def test_x8_x4_x3_x_1_is_reducible(self):
        # 0x11B is AES's modulus and is irreducible; flipping one bit is not
        assert is_irreducible(0x11B)
        assert not is_irreducible(0x11F)

    def test_context_equality(self):
        assert GF2m(4, 0x13) == GF2m(4, 0x13)
        assert GF2m(4, 0x13) != GF2m(4, 0x19)

    def test_json_round_trip(self, ctx165):
        assert jsonio.field_from_json(jsonio.field_to_json(ctx165)) == ctx165


class TestAddMul:
    def test_add_examples(self, ctx165):
        # addition is xor of coefficient vectors, as Matrix.__add__ does it entrywise
        assert ctx165.parse("1+a") == 0x03 and ctx165.parse("1+a+a^3+a^4") == 0x1B
        a = Matrix(ctx165, [[0x05, 0x02], [0x1B, 0x1B]])
        b = Matrix(ctx165, [[0x05, 0x01], [0x0D, 0x1B]])
        assert a + b == Matrix(ctx165, [[0x00, 0x03], [0x16, 0x00]])

    def test_mul_one_step_reduction(self, ctx165, ctx11d, gf4):
        assert ctx11d.mul(0x02, 0x80) == 0x1D
        assert ctx165.mul(0x02, 0x80) == 0x65
        assert gf4.mul(0x02, 0x02) == 0x03

    def test_mul_identities(self, gf16):
        for a in range(gf16.q):
            assert gf16.mul(a, 1) == a
            assert gf16.mul(a, 0) == 0

    def test_table_and_schoolbook_paths_agree(self):
        # the log/antilog tables against the independent schoolbook oracle
        for m, poly in ORACLE_PARAMS:
            ctx = GF2m(m, poly)
            rng = random.Random(101 + m)
            if m <= 4:
                pairs = [(a, b) for a in range(1 << m) for b in range(1 << m)]
            else:
                pairs = [(rng.randrange(1 << m), rng.randrange(1 << m)) for _ in range(10000)]
            for a, b in pairs:
                assert ctx.mul(a, b) == schoolbook_mul(ctx, a, b)
            for a, b in pairs[:2000]:
                e = b + rng.randrange(2 * ctx.q)  # exponents past q-1 wrap
                assert ctx.pow(a, e) == schoolbook_pow(ctx, a, e)
                if a:
                    assert ctx.inv(a) == schoolbook_pow(ctx, a, ctx.q - 2)

    def test_field_axioms_random_triples(self):
        rng = random.Random(7)
        for m, poly in CONTEXT_PARAMS:
            ctx = GF2m(m, poly)
            for _ in range(10000):
                a, b, c = (rng.randrange(ctx.q) for _ in range(3))
                assert ctx.mul(a, b) == ctx.mul(b, a)
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)
                if a:
                    assert ctx.mul(a, ctx.inv(a)) == 1

    def test_frobenius(self):
        rng = random.Random(8)
        for m, poly in CONTEXT_PARAMS:
            ctx = GF2m(m, poly)
            for _ in range(1000):
                a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
                assert ctx.pow(a ^ b, 2) == ctx.pow(a, 2) ^ ctx.pow(b, 2)


class TestPowInv:
    def test_pow_basics(self, gf4, gf16):
        assert gf4.pow(0x02, 1) == 0x02
        assert gf4.pow(0x02, 3) == 0x01
        assert gf16.pow(0, 0) == 1
        for e in (1, 2, gf16.q - 1, gf16.q, 10**6):
            assert gf16.pow(0, e) == 0

    def test_lagrange_exponent(self):
        for m, poly in CONTEXT_PARAMS:
            ctx = GF2m(m, poly)
            for a in range(1, ctx.q):
                assert ctx.pow(a, ctx.q - 1) == 1

    def test_inv_examples(self, gf4, gf16):
        assert gf4.inv(0x02) == 0x03
        assert gf16.inv(0x01) == 0x01
        assert gf16.inv(0x02) == 0x09

    def test_inv_exhaustive(self):
        for m, poly in CONTEXT_PARAMS:
            ctx = GF2m(m, poly)
            for a in range(1, ctx.q):
                assert ctx.mul(a, ctx.inv(a)) == 1

    def test_inv_zero(self, gf16):
        with pytest.raises(ZeroDivisionError):
            gf16.inv(0)

    def test_negative_exponent_rejected(self, gf16):
        for a in (0, 1, 2):
            with pytest.raises(ValueError):
                gf16.pow(a, -1)


class TestPrimitivity:
    def test_examples(self, gf4, gf16):
        # a = 0x02 generates GF(4)* and GF(16)*; 1 generates only itself
        assert schoolbook_order(gf4, 0x02) == 3 and schoolbook_order(gf4, 0x01) == 1
        assert schoolbook_order(gf16, 0x02) == 15
        assert _tables(2, 0x7)[0][1] == _tables(4, 0x13)[0][1] == 0x02

    def test_paper_generators_are_primitive(self, ctx165, ctx11d):
        # both paper moduli are primitive: a has order 255, so a^(255/p) != 1
        for ctx in (ctx165, ctx11d):
            assert schoolbook_order(ctx, 0x02) == 255
            assert all(ctx.pow(0x02, 255 // p) != 1 for p in (3, 5, 17))
            assert _tables(8, ctx.modulus)[0][1] == 0x02

    def test_primitive_count_matches_totient(self, gf16, ctx165):
        # phi(15) = 8 generators in GF(16)*, phi(255) = 128 in GF(256)*; the
        # prime-divisor test through ctx.pow agrees with each walked order
        for ctx, count in ((gf16, 8), (ctx165, 128)):
            n = ctx.q - 1
            primes = [p for p, _ in factorize(n)]
            generators = 0
            for a in range(1, ctx.q):
                by_pow = all(ctx.pow(a, n // p) != 1 for p in primes)
                assert by_pow == (schoolbook_order(ctx, a) == n)
                generators += by_pow
            assert generators == count

    def test_primitive_element(self, gf16, ctx165):
        # ctx.pow's powers of the tables' generator run through every unit
        for ctx in (gf16, ctx165):
            gen = _tables(ctx.m, ctx.modulus)[0][1]
            assert sorted(ctx.pow(gen, i) for i in range(ctx.q - 1)) == list(range(1, ctx.q))
            assert ctx.pow(gen, ctx.q - 1) == 1

    # a is not primitive mod 0x11B (order 51) or 0x1008D (smallest generator 6)
    @pytest.mark.parametrize("m, poly", ORACLE_PARAMS + [(8, 0x11B), (16, 0x1008D)])
    def test_tables_match_schoolbook_walk(self, m, poly):
        # the generator is the smallest element of order q-1, found by walking
        # every candidate's powers with the schoolbook oracle
        ctx = GF2m(m, poly)
        n = ctx.q - 1
        for gen in range(1, ctx.q):
            powers, x = [], 1
            while True:
                powers.append(x)
                x = schoolbook_mul(ctx, x, gen)
                if x == 1:
                    break
            if len(powers) == n:
                break
        exp, log = _tables(m, poly)
        assert list(exp) == powers + powers
        assert [log[x] for x in powers] == list(range(n))

    def test_tables_built_on_first_arithmetic(self):
        # GF(2^7) mod 0x89 is used by no other test, so its tables are not cached yet
        before = _tables.cache_info()
        ctx = GF2m(7, 0x89)
        assert _tables.cache_info() == before
        assert ctx.mul(0x02, 0x40) == 0x09  # x^7 = x^3 + 1
        after = _tables.cache_info()
        assert (after.misses, after.currsize) == (before.misses + 1, before.currsize + 1)
        for other in (ctx, GF2m(7, 0x89)):
            assert other.inv(0x02) == 0x44 and other.pow(0x02, 7) == 0x09  # x (x^6 + x^2) = 1
            assert other.root_of_unity(127) == 0x02
        assert (_tables.cache_info().misses, _tables.cache_info().currsize) == (after.misses, after.currsize)

    @pytest.mark.parametrize("m, poly", CONTEXT_PARAMS)
    def test_root_of_unity_has_order_n(self, m, poly):
        # walked with the schoolbook oracle, for every n dividing q - 1
        ctx = GF2m(m, poly)
        for n in range(1, ctx.q):
            if (ctx.q - 1) % n:
                with pytest.raises(ValueError, match="roots of unity"):
                    ctx.root_of_unity(n)
            else:
                assert schoolbook_order(ctx, ctx.root_of_unity(n)) == n
        with pytest.raises(ValueError, match="roots of unity"):
            ctx.root_of_unity(0)


class TestParseFormat:
    def test_parse_examples(self, ctx165):
        assert ctx165.parse("1+a+a^4+a^5+a^7") == 0xB3
        assert ctx165.parse("0x01") == 0x01
        assert ctx165.parse("0") == 0
        assert ctx165.parse("a") == 0x02

    def test_out_of_range(self, ctx165):
        with pytest.raises(OutOfRangeError):
            ctx165.parse("a^9")
        with pytest.raises(OutOfRangeError):
            ctx165.parse("0x100")

    def test_parse_errors(self, ctx165):
        nested = "1(" * 3000 + "1" + ")" * 3000  # deeper than the recursion limit
        for bad in ("", "a^", "b^2", "1+", "0xzz", "a**2", "0x03 (0x03 (1+a))", nested):
            with pytest.raises(ParseError):
                ctx165.parse(bad)
        # a long literal is named by its head and length, not repeated whole
        for bad in ("0x" + "f" * 5000, "0x" + "z" * 5000, "b" * 5000, "a^" + "0" * 5000 + "99", nested):
            with pytest.raises(ParseError) as exc:
                ctx165.parse(bad)
            assert len(str(exc.value)) <= 200 and " characters)" in str(exc.value)

    def test_degree_digits(self, ctx165):
        # a degree past int()'s 4300-digit limit is refused by its length
        assert ctx165.parse("a^" + "0" * 5000 + "7") == 0x80
        with pytest.raises(OutOfRangeError, match="term at position 1 has a 5000-digit degree"):
            ctx165.parse("1+a^" + "9" * 5000)
        with pytest.raises(OutOfRangeError, match="term 'a\\^99' has degree 99, field degree is 8"):
            ctx165.parse("a^99")
        with pytest.raises(OutOfRangeError, match="term at position 0 has a 3-digit degree, field degree is 8"):
            ctx165.parse("a^100")

    def test_combined_form_requires_agreement(self, ctx165):
        assert ctx165.parse("0x03 (1+a)") == 0x03
        with pytest.raises(ParseError):
            ctx165.parse("0x03 (a^2)")

    def test_round_trip_all_elements(self):
        # one context per degree up to 8
        per_degree = [(1, 0x3), (2, 0x7), (3, 0xB), (4, 0x13), (5, 0x25),
                      (6, 0x43), (7, 0x83), (8, 0x165), (8, 0x11D)]
        for m, poly in per_degree:
            ctx = GF2m(m, poly)
            for v in range(ctx.q):
                assert ctx.parse(ctx.format(v)) == v
                assert ctx.parse(ctx.format_hex(v)) == v
                assert ctx.parse(ctx.format_poly(v)) == v

    def test_duplicate_terms_cancel(self, gf16):
        # characteristic 2: a + a = 0
        assert gf16.parse("a+a") == 0
        assert gf16.parse("1+a+1") == 0x02


class TestDegreeSixteen:
    def test_cap_degree_context_works(self):
        ctx = GF2m(16, 0x1002B)
        for a in range(1, ctx.q):
            assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.pow(2, ctx.q - 1) == 1
