"""Tests of the benchmark's own oracles: they must reproduce the values the
paper prints and agree with small cases worked by hand.

    python3 -m pytest perfbench/test_oracles.py
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as O  # noqa: E402
import workloads  # noqa: E402

XY = ("x", "y")
XYZ = ("x", "y", "z")
M2 = O.maximal_ideal(2)


def P(text, names, p):
    return O.parse(text, names, p)


# ---------------------------------------------------------------------------
# arithmetic


def test_parse_expands_with_coefficients_mod_p():
    assert P("2*(3*x)^2*(y + 1) - x*y", XY, 5) == {(2, 1): 3, (2, 0): 3, (1, 1): 4}


def test_freshman_dream():
    assert O.power(P("x + y", XY, 7), 7, 7) == {(7, 0): 1, (0, 7): 1}


def test_truncated_product_drops_the_ideal():
    K = O.MonomialIdeal([(2, 0), (0, 2)])
    assert O.mul(P("x + y", XY, 5), P("x + y", XY, 5), 5, K) == {(1, 1): 2}


def test_power_mod_frobenius_matches_plain_expansion():
    f = P("x^2 + 3*x*y + y^3", XY, 5)
    K = M2.frobenius(25)
    for n in (7, 13, 24, 31):
        assert O.power_mod_frobenius(f, n, 5, M2, 2) == K.reduce(O.power(f, n, 5))


# ---------------------------------------------------------------------------
# hand-worked cases


def test_cusp_at_five_by_hand():
    # (x^2 + y^3)^3 keeps 3 x^4 y^3 outside (x^5, y^5); every term of the
    # fourth power x^(2a) y^(3b), a + b = 4, has x^8, y^12 or a factor x^6 / y^6 / y^9
    f = P("x^2 + y^3", XY, 5)
    assert O.principal_outside(f, 3, 5, 1, M2)
    assert not O.principal_outside(f, 4, 5, 1, M2)
    assert O.nu_principal(f, 5, 1) == 3


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_monomials(p):
    # nu_e(x^a) = ceil(p^e / a) - 1 and nu_e(x*y) = p^e - 1
    for a in (1, 2, 3):
        for e in (1, 2):
            assert O.nu_principal(P(f"x^{a}", XY, p), p, e) == -(-(p**e) // a) - 1
    assert O.nu_principal(P("x*y", XY, p), p, 2) == p**2 - 1


def test_maximal_ideal_nu_and_mu_by_hand():
    # (x, y)^n leaves x^(p-1) y^(p-1) outside m^[p] up to n = 2p - 2; the
    # generalized power (x, y)^[p] = (x^p, y^p) is already inside
    m = [P("x", XY, 5), P("y", XY, 5)]
    assert O.ideal_power_outside(m, 8, 5, 1, M2) == (True, False)
    assert O.frobenius_power_outside(m, 4, 5, 1, M2) == (True, False)


def test_two_by_two_diagonal():
    # x^2 + y^2 at p = 3: digits of 1/2 = 0.111..._3 add without carry, fpt 1
    assert [O.nu_diagonal([2, 2], 3, e) for e in (1, 2, 3)] == [2, 8, 26]
    f = P("x^2 + y^2", XY, 3)
    assert [O.nu_principal(f, 3, e) for e in (1, 2, 3)] == [2, 8, 26]


def test_diagonal_count_agrees_with_expansion():
    for p, exps in [(5, [2, 3]), (7, [3, 4]), (3, [2, 5]), (5, [2, 3, 4])]:
        names = XYZ[: len(exps)]
        f = P(" + ".join(f"{v}^{a}" for v, a in zip(names, exps)), names, p)
        for e in (1, 2):
            assert O.nu_diagonal(exps, p, e) == O.nu_principal(f, p, e)


def test_snc_threshold():
    factors = [([1, 2, 0], 0, 2), ([0, 1, 3], 0, 1), ([0, 0, 1], 1, 5)]
    assert O.snc_threshold(factors, 7) == Fraction(1, 2)
    with pytest.raises(ValueError):
        O.snc_threshold([([1, 1, 0], 0, 1), ([2, 2, 0], 0, 1)], 7)


def test_snc_threshold_agrees_with_expansion():
    factors = (((1, 2, 0), 0, 2), ((0, 1, 3), 0, 1), ((0, 0, 1), 1, 1))
    f = P(workloads.linear_product(factors), XYZ, 5)
    c = O.snc_threshold(list(factors), 5)
    assert [O.nu_principal(f, 5, e) for e in (1, 2)] == [O.nu_from_threshold(c, 5, e) for e in (1, 2)]


def test_sandwich():
    assert O.sandwich_holds([0, 1, 8, 44, 224, 1124], 5)
    assert not O.sandwich_holds([0, 1, 10], 5)
    assert O.sandwich_holds([0, 1, 10], 5, slack=2 * 4)


# ---------------------------------------------------------------------------
# golden values printed in the paper


def test_golden_nu_of_ideals():
    I = [P("x^2 + y^3", XY, 11), P("x*y", XY, 11)]
    J = O.MonomialIdeal([(2, 0), (0, 3)])
    assert O.ideal_power_outside(I, 281, 11, 2, J) == (True, False)
    assert O.nu_principal(P("x*y*(x^2 + y^2)", XY, 11), 11, 2, J) == 120

    m = [P(v, XYZ, 5) for v in XYZ]
    m_squared = O.MonomialIdeal([(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)])
    assert O.ideal_power_outside(m, 97, 5, 2, m_squared) == (True, False)

    m5 = [P(f"x^{5 - i}*y^{i}", XY, 3) for i in range(6)]
    assert O.ideal_power_outside(m5, 32, 3, 4, M2) == (True, False)
    assert O.frobenius_power_outside(m5, 26, 3, 4, M2) == (True, False)


def test_golden_nu_list():
    f = P("x^2*y^4 + y^2*z^7 + z^2*x^8", XYZ, 5)
    assert [O.nu_principal(f, 5, e) for e in range(6)] == [0, 1, 8, 44, 224, 1124]


def test_golden_diagonal_values():
    assert O.diagonal_threshold_consistent(Fraction(94, 625), [17, 20, 24], 5, 5)
    assert not O.diagonal_threshold_consistent(Fraction(95, 625), [17, 20, 24], 5, 5)
    assert O.nu_diagonal([3, 4, 5], 17, 10) == 1541642394460


@pytest.mark.parametrize("text, c, depth", [
    ("x^6*y^4 + x^4*y^9 + (x^2 + y^3)^3", Fraction(17, 62), 3),
    ("x^2*(x + y)^3*(x + 3*y^2)^5", Fraction(22, 125), 3),
    ("x^3*y^11*(x + y)^8*(x^2 + y^3)^8", Fraction(1, 19), 3),
    ("2*x^10*y^8 + x^4*y^7 - 2*x^3*y^8", Fraction(1, 7), 4),
])
def test_golden_thresholds_fit_every_level(text, c, depth):
    f = P(text, XY, 5)
    for e in range(1, depth + 1):
        assert O.nu_from_threshold(c, 5, e) == O.nu_principal(f, 5, e)


def test_golden_cubic():
    f = P("x^3 + y^3 + z^3 + x*y*z", XYZ, 5)
    expected = [O.nu_from_threshold(Fraction(4, 5), 5, e) for e in (1, 2)]
    assert [O.nu_principal(f, 5, e) for e in (1, 2)] == expected
    cubic = P("x^3 + y^3 + z^3 + x*y*z", XYZ, 11)
    assert O.principal_outside(cubic, 1209, 11, 3, O.maximal_ideal(3))
    assert not O.principal_outside(cubic, 1210, 11, 3, O.maximal_ideal(3))


# ---------------------------------------------------------------------------
# seeded inputs


def test_seeded_inputs_repeat_and_keep_their_shape():
    for name in workloads.WORKLOADS:
        assert workloads.instances(name, 7) == workloads.instances(name, 7)
    a, b = workloads.instances("fpt_search", 1)[1], workloads.instances("fpt_search", 2)[1]
    fa, fb = P(a.text, XY, 5), P(b.text, XY, 5)
    assert a.text != b.text and fa.keys() == fb.keys()


# ---------------------------------------------------------------------------
# the checks reject wrong answers


def test_checks_reject_wrong_answers():
    from types import SimpleNamespace

    import checks

    f13, family = workloads.instances("fpt_search", 1)[1], workloads.instances("fpt_search", 1)[4]
    exact = lambda c: SimpleNamespace(kind="exact", value=c)  # noqa: E731
    assert checks.check(f13, exact(Fraction(17, 62))) == []
    assert checks.check(f13, exact(Fraction(17, 63)))
    interval = lambda lo, hi: SimpleNamespace(kind="interval", lower=lo, upper=hi)  # noqa: E731
    assert checks.check(family, interval(Fraction(6, 17), Fraction(5, 14))) == []
    assert checks.check(family, interval(Fraction(1, 4), Fraction(5, 14)))

    golden = workloads.instances("nu_ideals", 1)[0]
    assert checks.check(golden, [1, 24, 281]) == []
    assert checks.check(golden, [1, 24, 280])
    assert checks.check(golden, [1, 25, 281])

    snc = [i for i in workloads.instances("special_dispatch", 1) if i.case.factors][1]
    assert snc.case.op == "nu" and checks.check(snc, 84) == [] and checks.check(snc, 85)
    pair = [i for i in workloads.instances("nu_ideals", 1) if i.case.pair == "cusp"]
    assert checks.check_pairs(list(zip(pair, [[0, 5, 40], [0, 5, 40]]))) == []
    assert checks.check_pairs(list(zip(pair, [[0, 5, 40], [0, 5, 41]])))
