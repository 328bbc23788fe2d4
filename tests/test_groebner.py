"""Groebner engine: reduced bases, membership, colon, lengths, dimension."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fthresh import (
    DomainError,
    Ideal,
    Ring,
    buchberger,
    normal_form,
    parse_polynomial,
    poly_gcd,
)
from fthresh.arith import INFINITY, Lex
from fthresh.groebner import exact_div

from helpers import monomial_in_monomial_ideal, poly_strategy, random_ideal, random_poly

R5 = Ring(5, ("x", "y"))
R7 = Ring(7, ("x", "y", "z"))
R11 = Ring(11, ("x", "y"))


def P(text, ring):
    return parse_polynomial(text, ring)


class TestBasis:
    def test_variables_are_reduced_basis(self):
        I = Ideal(R5, [R5.variable("x"), R5.variable("y")])
        assert I.groebner() == (R5.variable("x"), R5.variable("y")) or set(I.groebner()) == {
            R5.variable("x"),
            R5.variable("y"),
        }

    def test_unit_from_constant(self):
        I = Ideal(R5, [P("x - 1", R5), P("x", R5)])
        assert I.groebner() == (R5.one(),)

    def test_self_certifying_spairs(self):
        I = Ideal(R11, [P("x^2 + y^3", R11), P("x*y", R11)])
        gb = I.groebner()
        from fthresh.groebner import _spoly

        for i in range(len(gb)):
            for j in range(i):
                assert normal_form(_spoly(gb[i], gb[j]), gb).is_zero()

    def test_lex_leading_terms(self):
        # under lex (x > y) the basis of <x^2 + y^3, x*y> has leading terms
        # containing x^2 and x*y
        ring = R11.with_order(Lex())
        I = Ideal(ring, [P("x^2 + y^3", ring), P("x*y", ring)])
        lts = {g.leading_monomial() for g in I.groebner()}
        assert (2, 0) in lts and (1, 1) in lts

    def test_uniqueness_under_shuffle(self):
        rng = random.Random(7)
        for _ in range(25):
            I = random_ideal(rng, R5)
            gens = list(I.generators)
            rng.shuffle(gens)
            assert Ideal(R5, gens).groebner() == I.groebner()

    def test_linear_combinations_leave_basis(self):
        # F_p-combinations of the inputs span nothing new, in any position
        rng = random.Random(19)
        for _ in range(25):
            ring = rng.choice([R5, R7])
            gens = list(random_ideal(rng, ring).generators)
            p = ring.characteristic
            extra = [sum((g.scale(rng.randrange(p)) for g in gens), ring.zero()) for _ in range(3)]
            mixed = gens + extra + [g.scale(rng.randrange(1, p)) for g in gens]
            rng.shuffle(mixed)
            assert buchberger(mixed) == buchberger(gens)


class TestNormalForm:
    def test_members_reduce_to_zero(self):
        gb = Ideal(R5, [R5.variable("x"), R5.variable("y")]).groebner()
        assert normal_form(R5.variable("x"), gb).is_zero()
        assert normal_form(P("x + 1", R5), gb) == R5.one()

    @given(f=poly_strategy(R5, max_terms=3), g=poly_strategy(R5, max_terms=3, nonzero=True))
    @settings(max_examples=50)
    def test_reduced_remainder_fixed(self, f, g):
        gb = Ideal(R5, [g]).groebner()
        r = normal_form(f, gb)
        # a fully reduced remainder reduces to itself, and f - r is in the ideal
        assert normal_form(r, gb) == r
        assert Ideal(R5, [g]).contains(f - r)


class TestMembershipContainment:
    def test_monomial_membership(self):
        I = Ideal(R5, [P("x^2", R5), P("x*y", R5), P("y^2", R5)])
        assert not I.contains(R5.variable("x"))
        assert I.contains(P("x^2", R5))

    def test_membership_against_divisibility_oracle(self):
        rng = random.Random(11)
        for _ in range(120):
            gens_exps = [tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(rng.randint(1, 4))]
            I = Ideal(R5, [R5.monomial(e) for e in gens_exps])
            probe = tuple(rng.randint(0, 4) for _ in range(2))
            assert I.contains(R5.monomial(probe)) == monomial_in_monomial_ideal(probe, gens_exps)

    def test_containment(self):
        m = Ideal(R5, [R5.variable("x"), R5.variable("y")])
        assert m.power(2).is_contained_in(m)
        assert not m.is_contained_in(m.power(2))

    def test_containment_transitive(self):
        rng = random.Random(3)
        for _ in range(40):
            A = random_ideal(rng, R5, max_gens=2)
            B = A + random_ideal(rng, R5, max_gens=2)
            C = B + random_ideal(rng, R5, max_gens=2)
            assert A.is_contained_in(B) and B.is_contained_in(C)
            assert A.is_contained_in(C)

    def test_unit_detection(self):
        assert Ideal(R5, [P("x - 1", R5), P("x", R5)]).is_unit()
        assert not Ideal(R5, [P("x", R5), P("y", R5)]).is_unit()

    @given(c=st.integers(0, 4), f=poly_strategy(R5, nonzero=True))
    @settings(max_examples=40)
    def test_principal_unit_iff_nonzero_constant(self, c, f):
        const = R5.constant(c)
        if not const.is_zero():
            assert Ideal(R5, [const]).is_unit()
        if not f.is_constant():
            assert not Ideal(R5, [f]).is_unit()


class TestColon:
    def test_basic(self):
        I = Ideal(R5, [P("x^2", R5)])
        assert I.colon(R5.variable("x")) == Ideal(R5, [R5.variable("x")])

    def test_colon_by_unit(self):
        J = Ideal(R5, [P("x^2 + y", R5)])
        assert J.colon(R5.one()) == J

    def test_colon_zero_rejected(self):
        with pytest.raises(DomainError):
            Ideal(R5, [R5.variable("x")]).colon(R5.zero())

    def test_against_membership_oracle(self):
        rng = random.Random(23)
        for _ in range(30):
            J = random_ideal(rng, R5, max_gens=2, max_exp=2)
            f = random_poly(rng, R5, max_terms=2, max_exp=2)
            quotient = J.colon(f)
            for g in quotient.generators:
                assert J.contains(g * f)
            probe = random_poly(rng, R5, max_terms=2, max_exp=2)
            assert quotient.contains(probe) == J.contains(probe * f)

    def test_colon_by_ideal(self):
        # (x^2 y : x) = (x y), (x^2 y : y) = (x^2); their intersection is (x^2 y)
        I = Ideal(R5, [P("x^2*y", R5)])
        J = Ideal(R5, [P("x", R5), P("y", R5)])
        assert I.colon_ideal(J) == I
        K = Ideal(R5, [P("x^2", R5), P("x*y", R5)])
        assert K.colon_ideal(J) == Ideal(R5, [P("x", R5)])


class TestLengthDimension:
    def test_frobenius_box(self):
        for (ring, e) in ((R5, 2), (R7, 1)):
            p, n = ring.characteristic, ring.arity
            q = p**e
            I = Ideal(ring, [ring.variable(i) ** q for i in range(n)])
            assert I.quotient_length() == q**n

    def test_unit_length_zero(self):
        assert Ideal(R5, [R5.one()]).quotient_length() == 0

    def test_infinite_length(self):
        assert Ideal(R5, [R5.variable("x")]).quotient_length() is INFINITY

    def test_length_finite_iff_dimension_zero(self):
        rng = random.Random(5)
        for _ in range(40):
            I = random_ideal(rng, R5, max_gens=3, max_exp=3)
            if I.is_unit():
                continue
            finite = I.quotient_length() is not INFINITY
            assert finite == (I.krull_dimension() == 0)

    def test_staircase_length(self):
        I = Ideal(R5, [P("x^3", R5), P("x*y", R5), P("y^2", R5)])
        # standard monomials: 1, x, x^2, y
        assert I.quotient_length() == 4

    def test_dimension_examples(self):
        assert Ideal(R7, [R7.variable("x")]).krull_dimension() == 2
        assert Ideal(R7).krull_dimension() == 3
        assert Ideal(R7, [P("x^2 - y*z", R7)]).krull_dimension() == 2
        with pytest.raises(DomainError):
            Ideal(R7, [R7.one()]).krull_dimension()


class TestRadicalEquality:
    def test_radical_membership(self):
        I = Ideal(R5, [P("x^2", R5)])
        assert I.radical_contains(R5.variable("x"))
        assert not I.radical_contains(R5.variable("y"))

    def test_monomial_radical_against_support_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            gens_exps = [tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(rng.randint(1, 3))]
            gens_exps = [e for e in gens_exps if any(e)] or [(1, 0)]
            I = Ideal(R5, [R5.monomial(e) for e in gens_exps])
            probe = tuple(rng.randint(0, 2) for _ in range(2))
            # monomial x^a in sqrt(monomial ideal) iff the support of some
            # generator is contained in the support of x^a
            expected = any(
                all(e == 0 or probe[i] > 0 for i, e in enumerate(gen)) for gen in gens_exps
            )
            assert I.radical_contains(R5.monomial(probe)) == expected

    def test_equality(self):
        a = Ideal(R5, [R5.variable("x"), R5.variable("y")])
        b = Ideal(R5, [R5.variable("y"), P("x + y", R5)])
        assert a == b
        assert Ideal(R5, [P("x", R5)]) != Ideal(R5, [P("x^2", R5)])

    def test_equality_iff_mutual_containment(self):
        rng = random.Random(29)
        for _ in range(40):
            A = random_ideal(rng, R5, max_gens=2, max_exp=2)
            B = random_ideal(rng, R5, max_gens=2, max_exp=2)
            mutual = A.is_contained_in(B) and B.is_contained_in(A)
            assert (A == B) == mutual


class TestGcd:
    def test_difference_of_squares(self):
        R = Ring(7, ("x", "y"))
        f = P("x^2 - y^2", R)
        g = P("x + y", R) * P("x + 3*y", R)
        assert poly_gcd(f, g) == P("x + y", R)

    def test_coprime(self):
        R = Ring(5, ("x", "y"))
        assert poly_gcd(P("x", R), P("y + 1", R)).is_constant()

    def test_exact_division(self):
        R = Ring(5, ("x", "y"))
        f = P("x^2 + y^3", R)
        g = P("x + y", R)
        assert exact_div(f * g, g) == f
        with pytest.raises(DomainError):
            exact_div(P("x + 1", R), P("x", R))

    @given(
        f=poly_strategy(R5, max_terms=3, max_exp=2, nonzero=True),
        g=poly_strategy(R5, max_terms=3, max_exp=2, nonzero=True),
    )
    @settings(max_examples=30, deadline=None)
    def test_gcd_divides_both(self, f, g):
        d = poly_gcd(f, g)
        assert exact_div(f.monic(), d) is not None
        assert exact_div(g.monic(), d) is not None
