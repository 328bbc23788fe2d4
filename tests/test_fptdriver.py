"""The fpt driver: golden sessions, interval discipline, trace rendering."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fthresh import (
    DENOMINATOR_POWER,
    DomainError,
    Ring,
    Trace,
    compare_fpt,
    fpt,
    is_fpt,
    nu,
    parse_polynomial,
    parse_result_json,
    render_trace,
    simplest_rational_between,
)
import fthresh.fptdriver as driver
from fthresh.fptdriver import denominator_power_candidate, threshold_is_one

from helpers import interval_of, poly_strategy, random_vanishing_poly

R5 = Ring(5, ("x", "y", "z"))
R5xy = Ring(5, ("x", "y"))
R7 = Ring(7, ("x", "y"))


def P(text, ring):
    return parse_polynomial(text, ring)


class TestGoldenExact:
    def test_tetrahedral_cubic(self):
        assert fpt(P("x^3 + y^3 + z^3 + x*y*z", R5)).value == Fraction(4, 5)

    def test_interval_case(self):
        r = fpt(P("x^5 + y^6 + z^7 + (x*y*z)^3", R5))
        assert r.kind == "interval"
        assert Fraction(1, 4) <= r.lower < r.upper <= Fraction(2, 5)

    def test_diagonal(self):
        assert fpt(P("x^17 + y^20 + z^24", R5)).value == Fraction(94, 625)

    def test_right_endpoint(self):
        f = P("x^2*(x + y)^3*(x + 3*y^2)^5", R5xy)
        r0 = fpt(f, attempts=0)
        assert (r0.lower, r0.upper) == (0, Fraction(1, 5))
        assert r0.lower_closed and r0.upper_closed
        r1 = fpt(f, attempts=0, depth_of_search=3)
        assert (r1.lower, r1.upper) == (Fraction(21, 124), Fraction(22, 125))
        r2 = fpt(f, attempts=1, depth_of_search=3)
        assert r2.value == Fraction(22, 125)

    def test_left_endpoint(self):
        f = P("x^6*y^4 + x^4*y^9 + (x^2 + y^3)^3", R5xy)
        r1 = fpt(f, attempts=1, depth_of_search=3)
        assert (r1.lower, r1.upper) == (Fraction(17, 62), Fraction(7, 25))
        assert r1.lower_closed and not r1.upper_closed
        r2 = fpt(f, attempts=2, depth_of_search=3)
        assert r2.value == Fraction(17, 62)

    def test_deep_guessing(self):
        f = P("x^3*y^11*(x + y)^8*(x^2 + y^3)^8", R5xy)
        assert fpt(f, attempts=8, depth_of_search=3).value == Fraction(1, 19)

    def test_depth_four(self):
        f = P("2*x^10*y^8 + x^4*y^7 - 2*x^3*y^8", R5xy)
        assert fpt(f, depth_of_search=4).value == Fraction(1, 7)

    def test_global_variant(self):
        f = P("x*(y - 1)^2 - y*(x - 1)^3", R7)
        assert fpt(f).value == 1
        assert fpt(f, at_origin=False).value == Fraction(5, 6)

    def test_not_in_maximal_ideal(self):
        r = fpt(P("(x - 1)^3 - (y - 2)^2", R7))
        assert r.kind == "undefined"

    def test_binomial_falls_through_to_interval(self):
        # no closed form for binomials here: the driver must still produce an
        # enclosure of the true threshold 997/6250
        f = P("x^2*y^6*z^10 + x^10*y^5*z^3", R5)
        r = fpt(f, depth_of_search=2, attempts=2)
        truth = Fraction(997, 6250)
        if r.is_exact():
            assert r.value == truth
        else:
            assert r.lower <= truth <= r.upper

    def test_stalled_chain_is_not_exact(self):
        # nu(7, f) = 30 < 31 puts the threshold below 1/4; depth 8 certifies 61/256
        f = P("x^4*y^5 + x^5*y^2 + x^5", Ring(2, ("x", "y")))
        r = fpt(f, depth_of_search=6, attempts=5)
        assert not (r.is_exact() and r.value == Fraction(1, 4))
        lo, hi = interval_of(r)
        assert lo <= Fraction(61, 256) <= hi
        assert fpt(f, depth_of_search=8, attempts=5).value == Fraction(61, 256)

    def test_rejects_constants(self):
        with pytest.raises(DomainError):
            fpt(R5.constant(3))
        with pytest.raises(DomainError):
            fpt(R5.zero())


XY = [Ring(p, ("x", "y")) for p in (2, 3, 5)]


def _vanishing(f):
    return f.ring.poly({e: c for e, c in f.terms.items() if any(e)})


class TestThresholdOne:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from(XY).flatmap(lambda R: poly_strategy(R, max_terms=4, max_exp=3)))
    @example(P("x", XY[0]))
    @example(P("x*y", XY[1]))
    @example(P("y^2 + x", XY[2]))
    @example(P("x*y + x^3 + y^3", XY[2]))
    @example(P("x^2 + y^3", XY[2]))
    def test_fedder_matches_nu(self, f):
        f = _vanishing(f)
        if f.is_zero():
            return
        p = f.ring.characteristic
        for at_origin in (True, False):
            expected = nu(1, f, at_origin=at_origin, use_special_algorithms=False) == p - 1
            assert threshold_is_one(f, at_origin) == expected

    def test_no_comparison_spent_on_one(self, monkeypatch):
        calls = []
        original = driver.compare_fpt

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(driver, "compare_fpt", counted)
        assert fpt(P("x*y", R5xy)).value == 1
        assert calls == []
        # the right endpoint is the threshold: its check is the only comparison
        f = P("x^2*(x + y)^3*(x + 3*y^2)^5", R5xy)
        assert fpt(f, attempts=1, depth_of_search=3).value == Fraction(22, 125)
        assert len(calls) == 1


class TestBounds:
    def test_bounds_respected(self):
        f = P("x^7*y^5*(x + y)^5*(x^2 + y^3)^4", R5xy)
        first = fpt(f, attempts=5, depth_of_search=3)
        assert first.kind == "interval"
        again = fpt(f, attempts=5, depth_of_search=3, bounds=(first.lower, first.upper))
        lo2, hi2 = interval_of(again)
        assert first.lower <= lo2 and hi2 <= first.upper

    def test_incompatible_bounds_rejected(self):
        f = P("x^2*(x + y)^3*(x + 3*y^2)^5", R5xy)
        with pytest.raises(DomainError):
            fpt(f, depth_of_search=3, bounds=(Fraction(1, 2), Fraction(3, 4)))


class TestFinalAttempt:
    def test_trace_reproduction(self):
        f = P("2*x^10*y^8 + x^4*y^7 - 2*x^3*y^8", R5xy)
        r = fpt(f, depth_of_search=3, final_attempt=True, guess_strategy=DENOMINATOR_POWER)
        assert r.kind == "interval"
        assert (r.lower, r.upper) == (Fraction(8009, 56375), Fraction(18, 125))
        assert not r.lower_closed and not r.upper_closed
        text = render_trace(r.trace, r)
        for line in [
            "Starting fpt ...",
            "fpt is not 1 ...",
            "Verifying if special algorithms apply...",
            "Special fpt algorithms were not used ...",
            "ν = nu(3,f) = 17",
            "[17/124,18/125]",
            "Starting guessFPT ...",
            "The right-hand endpoint is not the fpt ...",
            "The left-hand endpoint is not the fpt ...",
            "guessFPT narrowed the interval down to (7/50,18/125) ...",
            "Beginning F-signature computation ...",
            "First F-signature computed: s(f,(ν-1)/p^e) = 793/15625 ...",
            "Second F-signature computed: s(f,ν/p^e) = 342/15625 ...",
            "Computed F-signature secant line intercept: 8009/56375 ...",
            "The new lower bound is not the fpt ...",
            "fpt lies in the interval (8009/56375,18/125).",
        ]:
            assert line in text, line

    def test_upper_coincidence_returns_exact(self):
        from fthresh.fptdriver import _final_attempt

        state = {"lo": Fraction(1, 5), "hi": Fraction(16, 75), "lo_closed": False, "hi_closed": False}
        # synthetic signature values forcing the intercept onto the upper bound:
        # intercept = (nu-1)/p^e + s1/(p^e (s1 - s2)) with e=1, p=5, nu=1
        # equals 16/75 when s1/(s1-s2) = 16/15
        import fthresh.fptdriver as drv

        calls = []

        def fake_sig(e, a, f):
            return {0: Fraction(16, 25), 1: Fraction(1, 25)}[a]

        original = drv.f_signature_value
        drv.f_signature_value = fake_sig
        try:
            result = _final_attempt(None, state, 1, 1, 5, Trace())
        finally:
            drv.f_signature_value = original
        assert result == Fraction(16, 75)

    def test_numeric_rendering_of_narrowed_interval(self):
        f = P("2*x^10*y^8 + x^4*y^7 - 2*x^3*y^8", R5xy)
        r = fpt(f, depth_of_search=3, guess_strategy=DENOMINATOR_POWER)
        assert r.numeric_str() == "{0.14, 0.144}"

    def test_ignored_globally(self):
        f = P("x^3*y^11*(x + y)^8*(x^2 + y^3)^8", R5xy)
        r = fpt(f, attempts=0, depth_of_search=2, final_attempt=True, at_origin=False)
        assert r.kind == "interval"
        stages = {ev.stage for ev in r.trace.events}
        assert "fsig_start" not in stages


class TestStrategies:
    def test_stern_brocot_simplest(self):
        assert simplest_rational_between(Fraction(1, 3), Fraction(2, 3)) == Fraction(1, 2)
        assert simplest_rational_between(Fraction(17, 124), Fraction(18, 125)) == Fraction(1, 7)
        assert simplest_rational_between(Fraction(3, 62), Fraction(7, 125)) == Fraction(1, 18)

    def test_stern_brocot_minimality(self):
        rng = random.Random(271)
        for _ in range(150):
            a = Fraction(rng.randint(0, 400), rng.randint(401, 800))
            b = a + Fraction(1, rng.randint(2, 500))
            best = simplest_rational_between(a, b)
            assert a < best < b
            for q in range(1, best.denominator):
                k = a.numerator * q // a.denominator + 1
                assert not a < Fraction(k, q) < b, (a, b, best, q)

    def test_denominator_power_candidate(self):
        # the first usable denominator of shape p^g(p^h - 1) in the i29
        # interval is 100, giving the guess 7/50
        got = denominator_power_candidate(Fraction(17, 124), Fraction(18, 125), 5)
        assert got == Fraction(7, 50)

    def test_denominator_power_in_interval(self):
        rng = random.Random(277)
        for _ in range(60):
            a = Fraction(rng.randint(0, 60), rng.randint(61, 200))
            b = a + Fraction(1, rng.randint(2, 60))
            c = denominator_power_candidate(a, b, rng.choice([2, 3, 5, 7]))
            assert a < c < b


class TestInvariants:
    def test_exact_results_certify(self):
        rng = random.Random(911)
        for _ in range(8):
            ring = Ring(rng.choice([2, 3, 5]), ("x", "y"))
            f = random_vanishing_poly(rng, ring, max_terms=3, max_exp=3)
            r = fpt(f, depth_of_search=2, attempts=3)
            if r.kind == "exact":
                assert is_fpt(r.value, f, at_origin=True)
            elif r.kind == "interval":
                lo, hi = r.lower, r.upper
                if lo > 0:
                    assert compare_fpt(lo, f, at_origin=True) <= 0
                assert compare_fpt(hi, f, at_origin=True) >= 0

    def test_recovery_consistency(self):
        f = P("x^2*(x + y)^3*(x + 3*y^2)^5", R5xy)
        r = fpt(f, attempts=1, depth_of_search=3)
        e = 3
        v = r.value
        assert -((-v * 5**e).numerator // (v * 5**e).denominator) - 1 == nu(
            e, f, use_special_algorithms=False
        )

    def test_monotone_narrowing(self):
        f = P("x^3*y^11*(x + y)^8*(x^2 + y^3)^8", R5xy)
        previous = None
        for attempts in (0, 2, 4, 6):
            r = fpt(f, attempts=attempts, depth_of_search=3)
            lo, hi = interval_of(r)
            if previous is not None:
                assert previous[0] <= lo and hi <= previous[1]
            previous = (lo, hi)
            assert lo <= Fraction(1, 19) <= hi

    def test_interval_within_unit_range(self):
        rng = random.Random(929)
        for _ in range(6):
            ring = Ring(rng.choice([3, 5]), ("x", "y"))
            f = random_vanishing_poly(rng, ring, max_terms=3, max_exp=3)
            r = fpt(f, depth_of_search=1, attempts=2)
            if r.kind == "exact":
                assert 0 < r.value <= 1
            elif r.kind == "interval":
                assert 0 <= r.lower < r.upper <= 1


class TestSerialization:
    def test_result_json_round_trip(self):
        f = P("x^5 + y^6 + z^7 + (x*y*z)^3", R5)
        r = fpt(f)
        back = parse_result_json(r.to_json())
        assert (back.lower, back.upper) == (r.lower, r.upper)
        assert (back.lower_closed, back.upper_closed) == (r.lower_closed, r.upper_closed)

        exact = fpt(P("x^3 + y^3 + z^3 + x*y*z", R5))
        assert parse_result_json(exact.to_json()).value == exact.value

    def test_trace_json_round_trip(self):
        f = P("x^5 + y^6 + z^7 + (x*y*z)^3", R5)
        r = fpt(f)
        back = Trace.from_json(r.trace.to_json())
        assert [ev.stage for ev in back.events] == [ev.stage for ev in r.trace.events]

    def test_empty_options_trace_starts(self):
        r = fpt(P("x^3 + y^3 + z^3 + x*y*z", R5))
        assert render_trace(r.trace, r).startswith("Starting fpt ...")

    def test_verbose_prints(self, capsys):
        fpt(P("x^3 + y^3 + z^3 + x*y*z", R5), verbose=True)
        out = capsys.readouterr().out
        assert "Starting fpt ..." in out
