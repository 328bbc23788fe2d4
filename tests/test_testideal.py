"""Test ideals, threshold comparison, jumping exponents, F-signature values."""

import itertools
import random
from fractions import Fraction

import pytest

import fthresh.testideal as testideal

from fthresh import (
    DomainError,
    Ideal,
    Ring,
    compare_fpt,
    f_signature_value,
    is_f_jumping_exponent,
    is_fpt,
    parameter_form,
    parse_polynomial,
    secant_intercept,
)
from fthresh import test_ideal as tau
from fthresh import test_ideal_minus_epsilon as tau_below
from fthresh.arith import Lex

from helpers import random_vanishing_poly

R5 = Ring(5, ("x", "y", "z"))
R5xy = Ring(5, ("x", "y"))
R13 = Ring(13, ("x", "y"))


def P(text, ring):
    return parse_polynomial(text, ring)


def _rank(rows, p):
    rows = [row[:] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                factor = rows[r][col] * inv % p
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestParameterForm:
    def test_pure_p_power(self):
        pf = parameter_form(Fraction(3, 5), 5)
        assert (pf.a, pf.g, pf.pure) == (3, 1, True)

    def test_half(self):
        pf = parameter_form(Fraction(1, 2), 5)
        assert (pf.a, pf.g, pf.h, pf.pure) == (2, 0, 1, False)

    def test_mixed_denominator(self):
        pf = parameter_form(Fraction(997, 6250), 5)
        assert (pf.a, pf.g, pf.h, pf.pure) == (1994, 5, 1, False)
        assert Fraction(pf.a, 5**pf.g * (5**pf.h - 1)) == Fraction(997, 6250)

    def test_reconstruction(self):
        rng = random.Random(31)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7, 13])
            t = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            pf = parameter_form(t, p)
            if pf.pure:
                assert Fraction(pf.a, p**pf.g) == t
            else:
                assert Fraction(pf.a, p**pf.g * (p**pf.h - 1)) == t

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            parameter_form(Fraction(0), 5)


class TestTestIdeal:
    def test_below_threshold_trivial(self):
        f = P("x^3 + y^3 + z^3 + x*y*z", R5)
        assert tau(Fraction(1, 2), f).is_unit()

    def test_skoda_step(self):
        f = P("x^2 + y^3", R5xy)
        tau1 = tau(1, f)
        assert tau1 == Ideal(R5xy, [f])

    def test_skoda_identity(self):
        rng = random.Random(97)
        for _ in range(12):
            ring = Ring(rng.choice([2, 3, 5]), ("x", "y"))
            f = random_vanishing_poly(rng, ring, max_terms=3, max_exp=3)
            t = Fraction(rng.randint(1, 6), rng.randint(2, 8))
            lhs = tau(t + 1, f)
            rhs = Ideal(ring, [g * f for g in tau(t, f).generators])
            assert lhs == rhs.reduced()

    def test_monomial_values(self):
        R1 = Ring(3, ("x",))
        x = R1.variable(0)
        assert tau(Fraction(1, 3), x**2).is_unit()
        assert tau(Fraction(2, 3), x**2) == Ideal(R1, [x])
        assert tau(Fraction(1, 2), x**2) == Ideal(R1, [x])
        # tau((x^3)^(1/3)) = (x): exponent 3*(1/3) hits an integer
        R1b = Ring(5, ("x",))
        xb = R1b.variable(0)
        assert tau(Fraction(1, 3), xb**3) == Ideal(R1b, [xb])

    def test_zero_exponent(self):
        f = P("x^2 + y^3", R5xy)
        assert tau(0, f).is_unit()

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            tau(Fraction(1, 2), R5xy.constant(2))

    def test_monotone_in_t(self):
        f = P("x^2*y + y^4", R5xy)
        grid = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4)]
        ideals = [tau(t, f) for t in grid]
        for small, big in zip(ideals[1:], ideals):
            assert small.is_contained_in(big)


class TestChainAgainstDirectRoots:
    def test_operator_chain_matches_deep_levels(self):
        # independent route: tau(f^t) is the stable value of
        # (f^ceil(t p^E))^[1/p^E]; compare at two deep aligned levels
        from fthresh import Ideal, root_of_product
        from fthresh.arith import ceil_fraction

        rng = random.Random(20260810)
        for _ in range(25):
            p = rng.choice([2, 3, 5])
            ring = Ring(p, ("x", "y"))
            f = random_vanishing_poly(rng, ring, max_terms=3, max_exp=3)
            t = Fraction(rng.randint(1, 8), rng.randint(2, 12))
            pf = parameter_form(t, p)
            step = max(pf.h, 1)
            E = pf.g + 4 * step
            unit = Ideal(ring, [ring.one()])
            direct = root_of_product(f, ceil_fraction(t * p**E), unit, E)
            deeper = root_of_product(f, ceil_fraction(t * p ** (E + step)), unit, E + step)
            assert direct == deeper == tau(t, f)


class TestMinusEpsilon:
    def test_snc_below_one(self):
        R1 = Ring(5, ("x",))
        assert tau_below(1, R1.variable(0)).is_unit()

    def test_explicit_delta_oracle(self):
        rng = random.Random(613)
        for _ in range(10):
            ring = Ring(rng.choice([2, 3, 5]), ("x", "y"))
            p = ring.characteristic
            f = random_vanishing_poly(rng, ring, max_terms=3, max_exp=3)
            t = Fraction(rng.randint(1, 5), rng.randint(2, 9))
            limit = tau_below(t, f)
            # a p-power nudge below t leaves the prime-to-p denominator alone
            for K in (8, 10):
                assert limit == tau(t - Fraction(1, p**K), f)

    def test_chain_that_stalls_before_dropping(self):
        # the levels (f^(ceil(t 2^k) - 1))^[1/2^k] stay put for several steps
        # before they drop: at level 7 for the first, at level 6 for the second
        R2 = Ring(2, ("x", "y"))
        f = P("x^4*y^5 + x^5*y^2 + x^5", R2)
        assert tau_below(Fraction(1, 4), f) == Ideal(R2, [P("x", R2), P("y", R2)])
        R2z = Ring(2, ("x", "y", "z"))
        g = P("x^4*y*z^5 + y^3*z + x^2*y^3", R2z)
        expected = Ideal(R2z, [P("y^2", R2z), P("x*y", R2z), P("x^2*z^3 + y*z", R2z)])
        assert tau_below(Fraction(3, 4), g) == expected

    def test_jumping_gap(self):
        f = P("x^3 + y^3 + z^3 + x*y*z", R5)
        below = tau_below(Fraction(4, 5), f)
        at = tau(Fraction(4, 5), f)
        assert below.is_unit()
        assert not at.is_unit()


class TestCompare:
    def test_trichotomy_at_golden_threshold(self):
        f = P("x^3 + y^3 + z^3 + x*y*z", R5)
        assert compare_fpt(Fraction(4, 5), f, at_origin=True) == 0
        assert compare_fpt(Fraction(1, 2), f, at_origin=True) == -1
        assert compare_fpt(Fraction(9, 10), f, at_origin=True) == 1

    def test_grid_around_threshold(self):
        f = P("x^2*(x + y)^3*(x + 3*y^2)^5", R5xy)  # threshold 22/125
        c = Fraction(22, 125)
        for t, expected in [
            (c - Fraction(1, 125), -1),
            (c - Fraction(1, 10**6), -1),
            (c, 0),
            (c + Fraction(1, 10**6), 1),
            (c + Fraction(1, 25), 1),
        ]:
            assert compare_fpt(t, f, at_origin=True) == expected, t

    def test_is_fpt_golden(self):
        f = P("x^2*y^6*z^10 + x^10*y^5*z^3", R5)
        assert is_fpt(Fraction(997, 6250), f, at_origin=True)
        g = P("x^2*y^6*(x + y)^9*(x + 3*y)^10", R5xy)
        assert is_fpt(Fraction(5787, 78125), g, at_origin=True)

    def test_is_fpt_under_lex(self):
        ring = R5.with_order(Lex())
        f = P("x^3 + y^3 + z^3 + x*y*z", ring)
        assert is_fpt(Fraction(4, 5), f, at_origin=True)

    def test_global_versus_origin(self):
        # x(y-1)^2 - y(x-1)^3 over F_7: threshold 1 at the origin, 5/6 globally
        R7 = Ring(7, ("x", "y"))
        f = P("x*(y - 1)^2 - y*(x - 1)^3", R7)
        assert compare_fpt(1, f, at_origin=True) == 0
        assert compare_fpt(Fraction(5, 6), f, at_origin=False) == 0
        assert compare_fpt(1, f, at_origin=False) == 1


class TestInvariantChecks:
    """Invariant checks raise explicitly, so they survive python -O."""

    def test_parameter_form_denominator(self, monkeypatch):
        # with the order of 5 mod 3 taken as 1, p^h - 1 = 4 leaves 1/3 fractional
        monkeypatch.setattr(testideal, "multiplicative_order", lambda p, d: 1)
        with pytest.raises(RuntimeError):
            parameter_form(Fraction(1, 3), 5)

    def test_chain_monotone(self, monkeypatch):
        # a "descending" chain R, (x), (y), ... is not monotone
        steps = itertools.cycle([Ideal(R5xy, [R5xy.variable("x")]), Ideal(R5xy, [R5xy.variable("y")])])
        monkeypatch.setattr(testideal, "root_of_product", lambda f, n, I, e: next(steps))
        with pytest.raises(RuntimeError):
            tau_below(Fraction(1, 4), P("x^2 + y^3", R5xy))

    @pytest.mark.parametrize("query", [compare_fpt, is_f_jumping_exponent])
    def test_pair_nested(self, monkeypatch, query):
        monkeypatch.setattr(testideal, "test_ideal", lambda t, f: Ideal(R5xy, [R5xy.one()]))
        monkeypatch.setattr(
            testideal, "test_ideal_minus_epsilon", lambda t, f: Ideal(R5xy, [R5xy.variable("x")])
        )
        with pytest.raises(RuntimeError):
            query(Fraction(1, 2), P("x^2 + y^3", R5xy))


class TestJumpingExponents:
    def test_golden_quartic(self):
        f = P("y*((y + 1) - (x - 1)^2)*(x - 2)*(x + y - 2)", R13)
        assert is_f_jumping_exponent(Fraction(3, 4), f)
        assert not is_fpt(Fraction(3, 4), f)

    def test_threshold_is_jumping(self):
        f = P("x^3 + y^3 + z^3 + x*y*z", R5)
        assert is_f_jumping_exponent(Fraction(4, 5), f, at_origin=True)
        assert is_f_jumping_exponent(Fraction(4, 5), f, at_origin=False)

    def test_below_threshold_no_jump(self):
        f = P("x^3 + y^3 + z^3 + x*y*z", R5)
        assert not is_f_jumping_exponent(Fraction(1, 2), f, at_origin=True)
        assert not is_f_jumping_exponent(Fraction(1, 2), f, at_origin=False)

    def test_localization_at_origin(self):
        # x(x-1): globally 1 jumps for both factors, but only the origin
        # branch contributes at the origin
        R1 = Ring(5, ("x",))
        x = R1.variable(0)
        f = x * (x - 1)
        assert is_f_jumping_exponent(1, f, at_origin=False)
        assert is_f_jumping_exponent(1, f, at_origin=True)
        g = (x - 1) ** 2 * x
        # the double point of g sits away from the origin: t = 1/2 jumps
        # globally but not at the origin
        assert is_f_jumping_exponent(Fraction(1, 2), g, at_origin=False)
        assert not is_f_jumping_exponent(Fraction(1, 2), g, at_origin=True)


class TestFSignature:
    def test_trace_values(self):
        f = P("2*x^10*y^8 + x^4*y^7 - 2*x^3*y^8", R5xy)
        assert f_signature_value(3, 16, f) == Fraction(793, 15625)
        assert f_signature_value(3, 17, f) == Fraction(342, 15625)

    def test_power_zero(self):
        f = P("x^2 + y^3", R5xy)
        assert f_signature_value(2, 0, f) == 1
        assert f_signature_value(0, 0, f) == 1

    def test_nonincreasing_in_power(self):
        f = P("x^2*y + y^4", R5xy)
        values = [f_signature_value(2, a, f) for a in range(0, 14, 2)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] == 1

    def test_sign_change_at_threshold(self):
        # x^2 + y^3 over F_5 has threshold 4/5: positive below, zero above
        f = P("x^2 + y^3", R5xy)
        e = 2
        threshold = Fraction(4, 5)
        below = int(threshold * 25) - 1
        above = int(threshold * 25) + 2
        assert f_signature_value(e, below, f) > 0
        assert f_signature_value(e, above, f) == 0

    def test_requires_vanishing(self):
        with pytest.raises(DomainError):
            f_signature_value(1, 1, P("x + 1", R5xy))

    def test_splitting_rank_oracle(self):
        # brute force: length(R/(m^[q] : f^a)) equals the rank of the
        # multiplication-by-f^a map on R/m^[q] in the monomial basis
        rng = random.Random(733)
        for _ in range(8):
            ring = Ring(rng.choice([2, 3]), ("x", "y"))
            p = ring.characteristic
            f = random_vanishing_poly(rng, ring, max_terms=3, max_exp=2)
            a = rng.randint(0, 3)
            q = p
            basis = [(i, j) for i in range(q) for j in range(q)]
            index = {b: k for k, b in enumerate(basis)}
            matrix = []
            g = f ** a
            for b in basis:
                column = [0] * len(basis)
                image = g.multiply_term(b, 1)
                for exps, c in image.terms.items():
                    if exps in index:  # truncate modulo m^[q]
                        column[index[exps]] = c
                matrix.append(column)
            rank = _rank(matrix, p)
            assert f_signature_value(1, a, f) == Fraction(rank, q**2)

    def test_colon_length_identity_small(self):
        # the implementation avoids an explicit colon; cross-check it on a
        # small instance where the elimination colon is affordable
        ring = Ring(3, ("x", "y"))
        f = parse_polynomial("x^2 + x*y^2", ring)
        q = 9
        frob = Ideal(ring, [ring.variable(0) ** q, ring.variable(1) ** q])
        colon = frob.colon(f ** 2)
        assert f_signature_value(2, 2, f) == Fraction(colon.quotient_length(), q**2)


class TestSecant:
    def test_trace_intercept(self):
        assert secant_intercept(
            3, 17, Fraction(793, 15625), Fraction(342, 15625), 5
        ) == Fraction(8009, 56375)

    def test_zero_second_value(self):
        assert secant_intercept(2, 9, Fraction(1, 625), Fraction(0), 5) == Fraction(9, 25)

    def test_line_algebra(self):
        rng = random.Random(811)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            e = rng.randint(1, 4)
            nu_value = rng.randint(1, 50)
            s2 = Fraction(rng.randint(0, 30), rng.randint(31, 60))
            s1 = s2 + Fraction(rng.randint(1, 30), rng.randint(31, 60))
            c = secant_intercept(e, nu_value, s1, s2, p)
            q = p**e
            x1, x2 = Fraction(nu_value - 1, q), Fraction(nu_value, q)
            slope = (s2 - s1) / (x2 - x1)
            # the line through both nodes vanishes at the intercept
            assert s1 + slope * (c - x1) == 0
            assert c > x1

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            secant_intercept(2, 3, Fraction(1, 5), Fraction(1, 5), 5)
