"""Integer number theory: modular inverse, residue systems, factorization, x^2 = 1."""

import math

import pytest

from gcirc import (
    NotCoprimeError,
    crt_sqrt_one_solutions,
    factorize,
    mod_inverse,
    predicted_sqrt_one_count,
    sqrt_one_solutions,
)


class TestGcdInverse:
    def test_examples(self):
        assert mod_inverse(3, 5) == 2
        assert mod_inverse(1, 7) == 1

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            mod_inverse(2, 4)

    def test_agrees_with_scan(self):
        for k in range(2, 50):
            for g in range(1, k):
                if math.gcd(g, k) != 1:
                    continue
                h = mod_inverse(g, k)
                assert [x for x in range(k) if g * x % k == 1] == [h]


class TestCompleteResidueSystem:
    # i -> g*i mod k permutes 0..k-1 exactly when g has an inverse mod k

    def test_examples(self):
        assert [3 * i % 5 for i in range(5)] == [0, 3, 1, 4, 2] and mod_inverse(3, 5) == 2
        assert [2 * i % 4 for i in range(4)] == [0, 2, 0, 2]
        with pytest.raises(NotCoprimeError):
            mod_inverse(2, 4)
        assert mod_inverse(1, 9) == 1

    def test_equivalent_to_coprimality(self):
        for k in range(1, 31):
            for g in range(k):
                complete = len({g * i % k for i in range(k)}) == k
                assert complete == (math.gcd(g, k) == 1)
                if complete:
                    assert g * mod_inverse(g, k) % k == 1 % k
                else:
                    with pytest.raises(NotCoprimeError):
                        mod_inverse(g, k)


class TestFactorize:
    def test_examples(self):
        assert factorize(12) == [(2, 2), (3, 1)]
        assert factorize(8) == [(2, 3)]
        assert factorize(1) == []
        assert factorize(97) == [(97, 1)]

    def test_reconstructs(self):
        for n in range(1, 500):
            prod = 1
            for p, e in factorize(n):
                prod *= p**e
            assert prod == n

    def test_bounds(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize((1 << 32) + 1)


class TestSqrtOne:
    def test_known_sets(self):
        assert sqrt_one_solutions(2).solutions == (1,)
        assert sqrt_one_solutions(4).solutions == (1, 3)
        assert sqrt_one_solutions(8).solutions == (1, 3, 5, 7)
        assert sqrt_one_solutions(12).solutions == (1, 5, 7, 11)
        assert sqrt_one_solutions(9).solutions == (1, 8)

    def test_predicted_counts(self):
        assert sqrt_one_solutions(2).predicted_count == 1
        assert sqrt_one_solutions(4).predicted_count == 2
        assert sqrt_one_solutions(8).predicted_count == 4
        assert sqrt_one_solutions(12).predicted_count == 4

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            sqrt_one_solutions(1)
        with pytest.raises(ValueError):
            predicted_sqrt_one_count(0)

    def test_every_solution_squares_to_one(self):
        for k in range(2, 300):
            sols = sqrt_one_solutions(k)
            got = set(sols.solutions)
            for x in range(1, k):
                assert (x in got) == (x * x % k == 1)

    def test_closed_under_negation(self):
        for k in range(2, 300):
            sols = set(sqrt_one_solutions(k).solutions)
            for s in sols:
                assert (k - s) % k in sols

    def test_crt_path_equals_scan(self):
        for k in range(2, 600):
            assert tuple(crt_sqrt_one_solutions(k)) == sqrt_one_solutions(k).solutions

    def test_crt_path_beyond_scan_cap(self):
        k = (1 << 20) + 4  # 4 * 262145 = 4 * 5 * 52429
        sols = sqrt_one_solutions(k)
        assert len(sols.solutions) == sols.predicted_count
        for s in sols.solutions:
            assert s * s % k == 1

    def test_json(self):
        assert sqrt_one_solutions(12).to_json() == {
            "k": 12,
            "solutions": [1, 5, 7, 11],
            "predicted": 4,
        }
