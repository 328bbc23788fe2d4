"""Polynomial arithmetic: canonical form, Frobenius twists, base-p powers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fthresh import DomainError, Ring, RingMismatchError, parse_polynomial
from fthresh.arith import INFINITY, is_prime

from helpers import naive_power, poly_strategy

R7 = Ring(7, ("x", "y"))
R5 = Ring(5, ("x", "y"))
R3 = Ring(3, ("x", "y"))
R11 = Ring(11, ("x", "y", "z"))


def P(text, ring=R7):
    return parse_polynomial(text, ring)


class TestConstruction:
    def test_prime_validation(self):
        with pytest.raises(DomainError):
            Ring(6, ("x",))
        with pytest.raises(DomainError):
            Ring(1, ("x",))
        Ring(2, ("x",))

    def test_is_prime(self):
        primes = {2, 3, 5, 7, 11, 13, 101, 7919}
        for n in range(2, 200):
            assert is_prime(n) == all(n % d for d in range(2, n)), n
        assert all(is_prime(p) for p in primes)
        # strong pseudoprime to the 12 prime bases up to 37; base 41 exposes it
        assert not is_prime(318665857834031151167461)
        assert is_prime(2**61 - 1)
        # no fixed base set is proven beyond the 13-base bound: refuse to guess
        with pytest.raises(DomainError):
            is_prime(3317044064679887385961981)

    def test_variable_names(self):
        with pytest.raises(DomainError):
            Ring(5, ("x", "x"))
        with pytest.raises(DomainError):
            Ring(5, ())

    def test_zero_coefficients_dropped(self):
        f = R5.poly({(1, 0): 5, (0, 1): 3})
        assert f == R5.variable("y").scale(3)
        assert (0, 1) in f.terms and (1, 0) not in f.terms


class TestAddMul:
    def test_additive_inverse(self):
        assert P("x + y") + P("-x") == P("y")

    def test_characteristic_kills(self):
        x5 = R5.variable("x")
        assert x5 + x5 == x5.scale(2)
        total = R5.zero()
        for _ in range(5):
            total = total + x5
        assert total.is_zero()

    def test_product_difference_of_squares(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")

    def test_mul_identity(self):
        f = P("3*x^2*y + 5")
        assert f * R7.one() == f

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            R7.variable("x") + R5.variable("x")

    @given(f=poly_strategy(R7), g=poly_strategy(R7))
    def test_add_cancel(self, f, g):
        assert f + g - g == f

    @given(f=poly_strategy(R5, max_terms=4), g=poly_strategy(R5, max_terms=4))
    def test_mul_matches_term_by_term(self, f, g):
        expected = R5.zero()
        for exps, c in f.terms.items():
            expected = expected + g.multiply_term(exps, c)
        assert f * g == expected

    @given(f=poly_strategy(R5, nonzero=True), g=poly_strategy(R5, nonzero=True))
    def test_degree_additivity(self, f, g):
        assert (f * g).degree() == f.degree() + g.degree()


class TestFrobeniusTwist:
    def test_freshman_dream(self):
        f = parse_polynomial("x + y", R3)
        assert f.frobenius(1) == parse_polynomial("x^3 + y^3", R3)

    def test_identity_level(self):
        f = P("x^2 + 3*y")
        assert f.frobenius(0) == f

    @given(f=poly_strategy(R3, max_terms=4, max_exp=3), e=st.integers(0, 2))
    def test_twist_is_pth_power(self, f, e):
        assert f.frobenius(e) == naive_power(f, 3**e)

    @given(f=poly_strategy(R5, max_terms=4, max_exp=2), e=st.integers(0, 2))
    def test_twist_is_pth_power_p5(self, f, e):
        assert f.frobenius(e) == naive_power(f, 5**e)

    def test_twist_oracle_small_primes(self):
        import random

        rng = random.Random(271828)
        for p, cases in ((2, 40), (3, 40), (5, 20), (7, 8)):
            ring = Ring(p, ("x", "y"))
            for _ in range(cases):
                terms = {
                    tuple(rng.randint(0, 3) for _ in range(2)): rng.randint(1, p - 1)
                    for _ in range(rng.randint(1, 8))
                }
                f = ring.poly(terms)
                for e in (0, 1, 2):
                    assert f.frobenius(e) == naive_power(f, p**e)


class TestPow:
    def test_power_zero(self):
        assert P("x^2 - y") ** 0 == R7.one()

    @given(f=poly_strategy(R3, max_terms=3, max_exp=2), n=st.integers(0, 50))
    @settings(max_examples=60)
    def test_pow_matches_naive(self, f, n):
        assert f ** n == naive_power(f, n)

    def test_pow_larger_exponents(self):
        import random

        rng = random.Random(314159)
        for _ in range(4):
            ring = Ring(rng.choice([2, 3, 5]), ("x", "y"))
            f = ring.poly(
                {
                    (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, ring.characteristic - 1)
                    for _ in range(rng.randint(1, 3))
                }
            )
            if f.is_zero():
                f = ring.variable(0) + 1
            for n in (97, 200):
                assert f ** n == naive_power(f, n)

    def test_binomial_power_term_count(self):
        # number of surviving terms of (A + B)^1994 = product of (digit + 1)
        # over the base-5 digits of 1994 (Lucas); digits (4,3,4,0,3) give 400
        ring = Ring(5, ("x", "y", "z"))
        f = parse_polynomial("x^2*y^6*z^10 + x^10*y^5*z^3", ring)
        g = f ** 1994
        digits = []
        n = 1994
        while n:
            digits.append(n % 5)
            n //= 5
        expected = 1
        for d in digits:
            expected *= d + 1
        assert len(g) == expected == 400

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            P("x") ** -1


class TestEvaluateDerivative:
    def test_evaluate_origin(self):
        f = parse_polynomial("x^2 - y*(z - 1)", R11)
        assert f.evaluate([0, 0, 0]) == 0

    def test_evaluate_constant(self):
        assert R11.constant(9).evaluate([1, 2, 3]) == 9

    @given(f=poly_strategy(R5))
    def test_origin_is_constant_term(self, f):
        assert f.evaluate([0, 0]) == f.constant_term()

    def test_partial_derivative(self):
        assert P("x^2 - y^2").derivative(0) == P("2*x")

    def test_derivative_kills_pth_powers(self):
        assert P("x^7").derivative(0).is_zero()

    @given(f=poly_strategy(R5, max_terms=3), g=poly_strategy(R5, max_terms=3))
    def test_product_rule(self, f, g):
        for i in range(2):
            lhs = (f * g).derivative(i)
            rhs = f.derivative(i) * g + f * g.derivative(i)
            assert lhs == rhs

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            P("x").derivative(5)


class TestCanonicalText:
    @given(f=poly_strategy(R7))
    def test_round_trip(self, f):
        assert parse_polynomial(str(f), R7) == f or f.is_zero()

    def test_zero_renders(self):
        assert str(R7.zero()) == "0"

    def test_infinity_ordering(self):
        assert 10**40 < INFINITY
        assert not INFINITY < 10**40
        assert INFINITY <= INFINITY
        assert max([3, INFINITY]) is INFINITY
