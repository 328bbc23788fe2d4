"""The nu/mu engine: golden values, recurrence windows, mode independence."""

import random
import sys

import pytest
from fractions import Fraction

from fthresh import (
    DomainError,
    Ideal,
    Ring,
    nu,
    nu_via_fpt,
    parse_polynomial,
)
from fthresh.arith import INFINITY, Lex

from helpers import random_vanishing_poly

R11 = Ring(11, ("x", "y"))
R11z = Ring(11, ("x", "y", "z"))
R5 = Ring(5, ("x", "y", "z"))
R3 = Ring(3, ("x", "y"))
R7 = Ring(7, ("x", "y"))


def P(text, ring):
    return parse_polynomial(text, ring)


class TestGolden:
    def test_ideal_pair(self):
        I = Ideal(R11, [P("x^2 + y^3", R11), P("x*y", R11)])
        J = Ideal(R11, [P("x^2", R11), P("y^3", R11)])
        assert nu(2, I, J) == 281

    def test_polynomial_with_ideal(self):
        J = Ideal(R11, [P("x^2", R11), P("y^3", R11)])
        assert nu(2, P("x*y*(x^2 + y^2)", R11), J) == 120

    def test_maximal_power_both_searches(self):
        m = Ideal(R5, [R5.variable(i) for i in range(3)])
        m2 = m.power(2)
        assert nu(2, m, m2) == 97
        assert nu(2, m, m2, search="linear") == 97

    def test_return_list(self):
        f = P("x^2*y^4 + y^2*z^7 + z^2*x^8", R5)
        assert nu(5, f, return_list=True) == [0, 1, 8, 44, 224, 1124]

    def test_frobenius_root_mode(self):
        f = P("x^3 + y^3 + z^3 + x*y*z", R11z)
        assert nu(3, f, use_special_algorithms=False) == 1209

    @pytest.mark.slow
    def test_standard_power_mode_slow(self):
        f = P("x^3 + y^3 + z^3 + x*y*z", R11z)
        assert nu(3, f, containment="standard", use_special_algorithms=False) == 1209

    def test_generalized_frobenius_power(self):
        m = Ideal(R3, [R3.variable("x"), R3.variable("y")])
        m5 = m.power(5)
        assert nu(4, m5) == 32
        assert nu(4, m5, containment="power") == 26

    def test_not_vanishing_at_origin(self):
        f = P("(x - 1)^3 - (y - 2)^2", R7)
        assert nu(3, f) is INFINITY
        assert nu(3, f, at_origin=False) == 285

    def test_diagonal_fast_path(self):
        R17 = Ring(17, ("x", "y", "z"))
        f = P("x^3 + y^4 + z^5", R17)
        assert nu(10, f) == 1541642394460

    def test_fast_path_agrees_with_general(self):
        R17 = Ring(17, ("x", "y", "z"))
        f = P("x^3 + y^4 + z^5", R17)
        assert nu(2, f) == nu(2, f, use_special_algorithms=False)
        # the full-depth value is also reachable without the fast path
        assert nu(10, f, use_special_algorithms=False) == 1541642394460

    def test_golden_under_lex(self):
        # outputs are independent of the monomial order
        ring = R11.with_order(Lex())
        I = Ideal(ring, [P("x^2 + y^3", ring), P("x*y", ring)])
        J = Ideal(ring, [P("x^2", ring), P("y^3", ring)])
        assert nu(2, I, J) == 281
        ring3 = R3.with_order(Lex())
        m5 = Ideal(ring3, [ring3.variable("x"), ring3.variable("y")]).power(5)
        assert nu(4, m5, containment="power") == 26


class TestRecovery:
    def test_simple_ceiling(self):
        assert nu_via_fpt(1, Fraction(4, 5), 5) == 3

    def test_diagonal_recovery(self):
        assert nu_via_fpt(4, Fraction(94, 625), 5) == 93

    def test_large_level(self):
        assert nu_via_fpt(10, Fraction(13, 17), 17) == 1541642394460

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            nu_via_fpt(2, Fraction(3, 2), 5)


class TestValidation:
    def test_zero_polynomial(self):
        with pytest.raises(DomainError):
            nu(1, R5.zero())

    def test_zero_ideal(self):
        with pytest.raises(DomainError):
            nu(1, Ideal(R5))

    def test_unit_J(self):
        with pytest.raises(DomainError):
            nu(1, R5.variable("x"), Ideal(R5, [R5.one()]))

    def test_verbose_prints_levels(self, capsys):
        nu(2, P("x^2 + y^3", R3), verbose=True)
        out = capsys.readouterr().out
        assert "nu(0) = " in out and "nu(2) = " in out

    def test_ring_mismatch(self):
        with pytest.raises(DomainError):
            nu(1, R3.variable("x"), Ideal(R5, [R5.variable("x")]))


class TestInvariantChecks:
    def test_recurrence_lower_bound(self, monkeypatch):
        # a root inside J from level 2 on puts nu_2 below p * nu_1; the check
        # raises explicitly, so it survives python -O
        nu_module = sys.modules["fthresh.nu"]
        real = nu_module.root_of_product
        x = R5.variable("x")
        monkeypatch.setattr(
            nu_module,
            "root_of_product",
            lambda f, n, I, e: real(f, n, I, e) if e < 2 else Ideal(R5, [x]),
        )
        with pytest.raises(RuntimeError):
            nu(2, P("x^3 + y^4 + x*y*z", R5), use_special_algorithms=False)


class TestProperties:
    def test_sandwich_and_mode_independence(self):
        rng = random.Random(1009)
        for _ in range(60):
            ring = rng.choice([R3, Ring(5, ("x", "y")), R7])
            p = ring.characteristic
            f = random_vanishing_poly(rng, ring, max_terms=3, max_exp=4)
            e = rng.randint(1, 2)
            seq = nu(e, f, return_list=True, use_special_algorithms=False)
            for s in range(1, len(seq)):
                assert p * seq[s - 1] <= seq[s] <= p * seq[s - 1] + p - 1
            assert nu(e, f, containment="standard", use_special_algorithms=False) == seq[-1]
            assert nu(e, f, containment="power", use_special_algorithms=False) == seq[-1]

    def test_search_mode_independence(self):
        rng = random.Random(1013)
        for _ in range(30):
            ring = rng.choice([R3, Ring(5, ("x", "y"))])
            f = random_vanishing_poly(rng, ring, max_terms=3, max_exp=3)
            e = rng.randint(1, 2)
            assert nu(e, f, search="binary") == nu(e, f, search="linear")

    def test_mu_window_against_exhaustive(self):
        # exhaustive linear search reproduces the windowed answer for p=3
        from fthresh.frobenius import frobenius_power, generalized_frobenius_power

        m = Ideal(R3, [R3.variable("x"), R3.variable("y")])
        m5 = m.power(5)
        for e in range(0, 4):
            target = frobenius_power(m, e)
            n = 0
            while generalized_frobenius_power(m5, n + 1).is_contained_in(target) is False:
                n += 1
            assert nu(e, m5, containment="power") == n
