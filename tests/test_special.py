"""Shape classification, the diagonal carry algorithm, SNC detection."""

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fthresh.special as special

from fthresh import (
    DomainError,
    FactoredPoly,
    Ring,
    classify,
    diagonal_fpt,
    extract_linear_factors,
    is_fpt,
    is_simple_normal_crossing,
    nu,
    parse_polynomial,
    snc_fpt,
    snc_verdict_raw,
    squarefree_factors,
)

from helpers import brute_diagonal_nu, brute_linear_factors, poly_strategy

R5 = Ring(5, ("x", "y", "z"))
R5xy = Ring(5, ("x", "y"))
R7 = Ring(7, ("x", "y", "z"))
R7xy = Ring(7, ("x", "y"))


def P(text, ring):
    return parse_polynomial(text, ring)


class TestClassify:
    def test_diagonal(self):
        assert classify(P("x^3 + y^4 + z^5", Ring(17, ("x", "y", "z")))) == "diagonal"

    def test_binomial(self):
        assert classify(P("x^2*y^6*z^10 + x^10*y^5*z^3", R5)) == "binomial"

    def test_binary_form(self):
        f = P("x^2*y^6*(x + y)^9*(x + 3*y)^10", R5xy)
        assert classify(f) == "binary_form"

    def test_two_term_diagonal_wins(self):
        assert classify(P("x^3 + y^4", R5xy)) == "diagonal"

    def test_other(self):
        assert classify(P("x^3 + y^3 + z^3 + x*y*z", R5)) == "other"


class TestDiagonalFpt:
    def test_golden_truncation(self):
        assert diagonal_fpt([17, 20, 24], 5) == Fraction(94, 625)

    def test_golden_large_prime(self):
        c = diagonal_fpt([3, 4, 5], 17)
        assert -((-c * 17**10).numerator // (c * 17**10).denominator) - 1 == 1541642394460

    def test_no_carry_sum_one(self):
        assert diagonal_fpt([2, 2], 3) == 1

    def test_single_exponent(self):
        for p in (2, 3, 5):
            assert diagonal_fpt([4], p) == Fraction(1, 4)
            assert diagonal_fpt([1], p) == 1

    def test_p_divides_exponent(self):
        # terminating expansions must use the nonterminating convention
        assert diagonal_fpt([5, 5], 5) == Fraction(1, 5)

    def test_sum_exceeding_one_capped(self):
        assert diagonal_fpt([2, 2, 2], 3) == 1
        assert diagonal_fpt([2, 2, 2, 2], 2) == Fraction(1, 2)

    def test_cusp_values(self):
        assert diagonal_fpt([2, 3], 2) == Fraction(1, 2)
        assert diagonal_fpt([2, 3], 3) == Fraction(2, 3)
        assert diagonal_fpt([2, 3], 5) == Fraction(4, 5)
        assert diagonal_fpt([2, 3], 7) == Fraction(5, 6)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            diagonal_fpt([], 5)

    def test_against_brute_force_nu(self):
        rng = random.Random(4021)
        for _ in range(50):
            p = rng.choice([2, 3, 5, 7])
            n_vars = rng.randint(1, 3)
            exponents = [rng.randint(2, 6) for _ in range(n_vars)]
            c = diagonal_fpt(exponents, p)
            for e in (1, 2):
                expected = brute_diagonal_nu(exponents, p, e)
                got = -((-c * p**e).numerator // (c * p**e).denominator) - 1
                assert got == expected, (exponents, p, e)

    def test_interval_consistency_with_nu(self):
        # threshold sits in [nu/(p^e - 1), (nu + 1)/p^e] with nu computed
        # by the general engine
        rng = random.Random(4099)
        names = ("x", "y", "z")
        for _ in range(50):
            p = rng.choice([2, 3, 5, 7])
            n_vars = rng.randint(1, 3)
            exponents = [rng.randint(2, 5) for _ in range(n_vars)]
            ring = Ring(p, names[:n_vars])
            f = ring.zero()
            for i, a in enumerate(exponents):
                f = f + ring.variable(i) ** a
            c = diagonal_fpt(exponents, p)
            for e in (1, 2, 3):
                v = nu(e, f, use_special_algorithms=False)
                assert Fraction(v, p**e - 1) <= c <= Fraction(v + 1, p**e)

    def test_large_prime_reaches_sum(self):
        # along p = 1 mod lcm(a_i) the expansions stop carrying and the
        # threshold equals sum 1/a_i once the digit sums stay below p
        exponents = [2, 5, 20]
        lcm = 20
        p = 41
        assert (p - 1) % lcm == 0
        assert sum(Fraction(1, a) for a in exponents) < 1
        assert diagonal_fpt(exponents, p) == Fraction(3, 4)

    def test_certified_by_is_fpt(self):
        rng = random.Random(4133)
        names = ("x", "y")
        for _ in range(10):
            p = rng.choice([2, 3, 5])
            exponents = [rng.randint(2, 4) for _ in range(2)]
            ring = Ring(p, names)
            f = ring.variable(0) ** exponents[0] + ring.variable(1) ** exponents[1]
            c = diagonal_fpt(exponents, p)
            assert is_fpt(c, f, at_origin=True), (exponents, p, c)


class TestFactorExtraction:
    def test_difference_of_squares(self):
        F = extract_linear_factors(P("x^2 - y^2", R7xy))
        facs = {(str(f), m) for f, m in F.factors}
        assert facs == {("x + y", 1), ("x + 6*y", 1)}
        assert F.fully_split

    def test_monomial_content(self):
        F = extract_linear_factors(P("x^2*y^3", R7xy))
        assert {(str(f), m) for f, m in F.factors} == {("x", 2), ("y", 3)}

    def test_irreducible_quadric_kept(self):
        F = extract_linear_factors(P("x^2 - y*z", R7))
        assert len(F.factors) == 1
        fac, mult = F.factors[0]
        assert mult == 1 and fac.degree() == 2
        assert not F.fully_split

    def test_expand_round_trip(self):
        rng = random.Random(5011)
        for _ in range(25):
            ring = Ring(rng.choice([3, 5, 7]), ("x", "y"))
            f = ring.one()
            for _ in range(rng.randint(1, 3)):
                g = ring.poly(
                    {
                        tuple(rng.randint(0, 2) for _ in range(2)): rng.randint(1, ring.characteristic - 1)
                        for _ in range(rng.randint(1, 2))
                    }
                )
                if g.is_zero():
                    g = ring.variable(0)
                f = f * g
            if f.is_constant():
                continue
            F = extract_linear_factors(f)
            assert F.expand(ring).monic() == f.monic()

    def test_squarefree_multiplicities(self):
        R = Ring(5, ("x", "y"))
        f = P("(x + 3*y^2)^5", R)
        [(fac, mult)] = squarefree_factors(f)
        assert mult == 5 and fac.monic() == P("x + 3*y^2", R).monic()
        g = P("(x^2 + y^3)^2*(x + y)", R)
        got = {(str(fac.monic()), m) for fac, m in squarefree_factors(g)}
        assert got == {(str(P("x^2 + y^3", R).monic()), 2), ("x + y", 1)}

    def test_pth_power_detection(self):
        R = Ring(3, ("x", "y"))
        f = P("(x + y)^3", R)
        assert squarefree_factors(f) == [(P("x + y", R), 3)]


SMALL_RINGS = [Ring(p, ("x", "y", "z")[:n]) for p in (2, 3, 5, 7) for n in (1, 2, 3)]


@st.composite
def products(draw):
    """Products of powers of linear forms and small polynomials."""
    ring = draw(st.sampled_from(SMALL_RINGS))
    n, p = ring.arity, ring.characteristic
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n + 1)]  # x_0..x_{n-1}, 1
    linear = st.lists(st.integers(0, p - 1), min_size=n + 1, max_size=n + 1).map(
        lambda cs: ring.poly(dict(zip(unit, cs)))
    )
    other = poly_strategy(ring, max_terms=3, max_exp=3)
    f = ring.one()
    for g, m in draw(st.lists(st.tuples(linear | other, st.integers(1, 2)), min_size=1, max_size=4)):
        f = f * g**m
    assume(not f.is_constant())
    return f


def same_factoring(F, G):
    assert (F.unit, F.factors, F.fully_split) == (G.unit, G.factors, G.fully_split)


class TestLinearFactorCandidates:
    """The candidates read off root sets on lines miss no linear factor: the
    result equals trial division by every monic linear form."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(products())
    def test_matches_exhaustive_search(self, f):
        same_factoring(extract_linear_factors(f), brute_linear_factors(f))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize(
        "text",
        [
            "(x^{p} - x)*y",  # x^(p-1) - 1 vanishes at every unit
            "(z + 1)*(x^2 + y^3)",  # the cofactor lies in (x, y)
            "(y + 1)*(y + 2)*(x + y + z)",  # lines through y = -1, -2 lie in V(f)
            "(x + 2*y + 3*z + 4)^2*(x - y)",  # a form with every coefficient nonzero
            "x^{p}*y - x*y^{p} + z^{p} - z",  # vanishes on all of F_p^3
        ],
    )
    def test_degenerate_inputs(self, p, text):
        f = P(text.replace("{p}", str(p)), Ring(p, ("x", "y", "z")))
        same_factoring(extract_linear_factors(f), brute_linear_factors(f))

    @pytest.mark.parametrize(
        "text", ["x^2*y^3 + y^2*z^3 + z^2*x^3", "(x + 2*y)^2*(y + 3*z)*(z + 1)"]
    )
    def test_trial_divisions_do_not_grow_with_p(self, monkeypatch, text):
        calls = []

        original = special.try_div

        def counted(f, g):
            calls.append(g)
            return original(f, g)

        monkeypatch.setattr(special, "try_div", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            snc_verdict_raw(P(text, Ring(101, ("x", "y", "z"))))
        assert len(calls) <= 20


class TestInvariantChecks:
    """Invariant checks raise explicitly, so they survive python -O."""

    def test_pth_root_of_non_pth_power(self):
        with pytest.raises(RuntimeError):
            special._pth_root(P("x^5 + y", R5))

    def test_diagonal_sum_above_one(self, monkeypatch):
        # with every truncation equal the carry test never fires
        monkeypatch.setattr(special, "_truncate", lambda x, p, e: Fraction(0))
        with pytest.raises(RuntimeError):
            diagonal_fpt([2, 2, 2], 3)


class TestSimpleNormalCrossing:
    def test_split_quadric_true(self):
        verdict, _ = snc_verdict_raw(P("x^2 - y^2", R7), at_origin=True)
        assert verdict is True

    def test_cone_false(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            verdict, _ = snc_verdict_raw(P("x^2 - y*z", R7), at_origin=True)
        assert verdict is False

    def test_tangency_origin_vs_global(self):
        f = P("(y - (x - 1)^2)*y^2", R7xy)
        verdict_origin, _ = snc_verdict_raw(f, at_origin=True)
        assert verdict_origin is True
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            verdict_global, _ = snc_verdict_raw(f, at_origin=False)
        assert verdict_global is False

    def test_tangency_with_trusted_factors(self):
        fac = FactoredPoly(
            1, ((P("y - (x - 1)^2", R7xy), 1), (R7xy.variable("y"), 2))
        )
        assert is_simple_normal_crossing(fac, at_origin=True)
        assert not is_simple_normal_crossing(fac, at_origin=False)

    def test_too_many_factors_through_origin(self):
        fac = FactoredPoly(
            1,
            (
                (R7xy.variable("x"), 1),
                (R7xy.variable("y"), 1),
                (P("x + y", R7xy), 1),
            ),
        )
        assert not is_simple_normal_crossing(fac, at_origin=True)
        assert not is_simple_normal_crossing(fac, at_origin=False)

    def test_incomplete_cofactor_warns(self):
        with pytest.warns(UserWarning):
            verdict, _ = snc_verdict_raw(P("x^2 - y*z", R7), at_origin=True)
        assert verdict is False

    def test_constant_factor_rejected(self):
        with pytest.raises(DomainError):
            is_simple_normal_crossing(FactoredPoly(1, ((R7xy.one(), 1),)))


class TestSncFpt:
    def test_reciprocal_of_multiplicity(self):
        F = extract_linear_factors(P("x*y^2", R7xy))
        assert snc_fpt(F) == Fraction(1, 2)

    def test_split_quadric(self):
        F = extract_linear_factors(P("x^2 - y^2", R7))
        assert snc_fpt(F) == 1

    def test_only_vanishing_factors_count(self):
        F = extract_linear_factors(P("(y - (x - 1)^2)*y^2", R7xy))
        assert snc_fpt(F, at_origin=True) == Fraction(1, 2)

    def test_no_vanishing_factor_rejected(self):
        F = extract_linear_factors(P("y - 1", R7xy))
        with pytest.raises(DomainError):
            snc_fpt(F, at_origin=True)

    def test_global_uses_all_factors(self):
        F = extract_linear_factors(P("(y - (x - 1)^2)*y^2", R7xy))
        assert snc_fpt(F, at_origin=False) == Fraction(1, 2)

    def test_snc_agrees_with_driver(self):
        from fthresh import fpt

        cases = [
            (P("x*y^2", R7xy), Fraction(1, 2)),
            (P("x^2*y^3", R7xy), Fraction(1, 3)),
            (P("x*(x + y)", R7xy), 1),
        ]
        for f, expected in cases:
            result = fpt(f, use_special_algorithms=False, attempts=3, depth_of_search=2)
            got = result.value if result.is_exact() else None
            if got is not None:
                assert got == expected
            else:
                assert result.lower <= expected <= result.upper
            assert snc_fpt(extract_linear_factors(f), at_origin=True) == expected
