"""Test ideals of principal polynomials in a polynomial ring, threshold
certification, F-jumping exponents, and finite-level F-signature values.

tau(f^t) and tau(f^(t-epsilon)) come from one Frobenius-operator iteration
with two starting points.  For t = a/(p^g (p^h - 1)) write
a = b (p^h - 1) + a0 and phi(I) = (f^a0 * I)^[1/p^h] (Blickle-Mustata-Smith,
Michigan Math. J. 57, 2008).  phi is monotone, so a chain that starts with
one step in some direction keeps that direction, and its first repeat is its
limit: an exact stopping rule.

* Skoda's theorem peels off integer parts: tau(f^(t+1)) = f * tau(f^t).
* For t = a/(p^h - 1) < 1 the chain ascends from (f); its k-th value is
  (f^(ceil(t p^(kh))))^[1/p^(kh)], so its limit is tau(f^t).
* From R it descends; its k-th value is (f^(ceil(t p^(kh)) - 1))^[1/p^(kh)],
  so its limit is tau(f^(t-epsilon)).  Here a0 is taken in [1, p^h - 1],
  and t = a/p^g counts as a(p-1)/(p^g (p-1)).
* A p-power part of the denominator folds in as one more Frobenius root:
  tau(f^(s/p^g)) = (tau(f^s))^[1/p^g], and f^b rides along inside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    DomainError,
    MultiPoly,
    Rational,
    floor_fraction,
    multiplicative_order,
    p_adic_split,
)
from .frobenius import root_of_product
from .groebner import Ideal


@dataclass(frozen=True)
class ParameterForm:
    """t = a / (p^g (p^h - 1)), or t = a / p^g when ``pure`` (h stored as 0)."""

    a: int
    g: int
    h: int
    pure: bool


def parameter_form(t: Rational, p: int) -> ParameterForm:
    """Canonical presentation of a positive rational: g is the p-adic
    valuation of the denominator and h the multiplicative order of p modulo
    its prime-to-p part."""
    t = Fraction(t)
    if t <= 0:
        raise DomainError("parameter must be positive")
    g, d = p_adic_split(t.denominator, p)
    if d == 1:
        return ParameterForm(int(t * p**g), g, 0, True)
    h = multiplicative_order(p, d)
    a = t * p**g * (p**h - 1)
    assert a.denominator == 1
    return ParameterForm(int(a), g, h, False)


def _unit_ideal(ring) -> Ideal:
    return Ideal(ring, [ring.one()])


def _maximal_ideal(ring) -> Ideal:
    return Ideal(ring, [ring.variable(i) for i in range(ring.arity)])


def _check_poly(f: MultiPoly):
    if f.is_zero() or f.is_constant():
        raise DomainError("test ideals require a nonzero nonconstant polynomial")


def test_ideal(t: Rational, f: MultiPoly) -> Ideal:
    """tau(f^t) for a rational t >= 0."""
    _check_poly(f)
    t = Fraction(t)
    if t < 0:
        raise DomainError("negative exponent")
    ring = f.ring
    p = ring.characteristic
    whole = floor_fraction(t)
    t0 = t - whole
    if t0 == 0:
        core = _unit_ideal(ring)
    else:
        pf = parameter_form(t0, p)
        if pf.pure:
            # t0 = a / p^g with integer a: one root of the Skoda power
            core = root_of_product(f, pf.a, _unit_ideal(ring), pf.g)
        else:
            # s = t0 p^g = a/(p^h - 1); Skoda again at the s level
            b, a0 = divmod(pf.a, p**pf.h - 1)
            chain = _first_repeat(f, a0, pf.h, Ideal(ring, [f]).reduced())
            core = root_of_product(f, b, chain, pf.g)
    if whole:
        core = (core * f**whole).reduced()
    return core


def test_ideal_minus_epsilon(t: Rational, f: MultiPoly) -> Ideal:
    """The common value of tau(f^(t - delta)) for all small delta > 0."""
    _check_poly(f)
    t = Fraction(t)
    if t <= 0:
        raise DomainError("parameter must be positive")
    ring = f.ring
    p = ring.characteristic
    pf = parameter_form(t, p)
    a, h = (pf.a * (p - 1), 1) if pf.pure else (pf.a, pf.h)
    a0 = (a - 1) % (p**h - 1) + 1
    limit = _first_repeat(f, a0, h, _unit_ideal(ring))
    return root_of_product(f, (a - a0) // (p**h - 1), limit, pf.g)


def _first_repeat(f: MultiPoly, a0: int, h: int, start: Ideal) -> Ideal:
    """First repeat of start, phi(start), phi^2(start), ... for
    phi(I) = (f^a0 * I)^[1/p^h]: the chain descends from the unit ideal and
    ascends from anything phi enlarges."""
    descending = start.is_unit()
    chain = start
    while True:
        nxt = root_of_product(f, a0, chain, h)
        if nxt == chain:
            return chain
        smaller, larger = (nxt, chain) if descending else (chain, nxt)
        assert smaller.is_contained_in(larger), "test-ideal chain must be monotone"
        chain = nxt


# ---------------------------------------------------------------------------
# threshold comparison


def compare_fpt(t: Rational, f: MultiPoly, at_origin: bool = False) -> int:
    """-1, 0, or 1 according to whether t is below, equal to, or above the
    F-pure threshold of f (at the origin, or the global minimum)."""
    _check_poly(f)
    t = Fraction(t)
    if t <= 0:
        raise DomainError("parameter must be positive")
    tau_t = test_ideal(t, f)
    tau_below = test_ideal_minus_epsilon(t, f)
    assert tau_t.is_contained_in(tau_below), "test ideals must shrink as t grows"
    if at_origin:
        m = _maximal_ideal(f.ring)
        if not tau_t.is_contained_in(m):
            return -1
        if tau_below.is_contained_in(m):
            return 1
        return 0
    if tau_t.is_unit():
        return -1
    if not tau_below.is_unit():
        return 1
    return 0


def is_fpt(t: Rational, f: MultiPoly, at_origin: bool = False) -> bool:
    return compare_fpt(t, f, at_origin=at_origin) == 0


def is_f_jumping_exponent(t: Rational, f: MultiPoly, at_origin: bool = False) -> bool:
    """Does tau(f^t) differ from tau(f^(t-epsilon))?

    With ``at_origin`` the jump must survive localization at the irrelevant
    maximal ideal m: the quotient tau(f^(t-eps))/tau(f^t) is supported at m
    exactly when its annihilator (tau(f^t) : tau(f^(t-eps))) sits inside m.
    """
    _check_poly(f)
    t = Fraction(t)
    if t <= 0:
        raise DomainError("parameter must be positive")
    tau_t = test_ideal(t, f)
    tau_below = test_ideal_minus_epsilon(t, f)
    if not at_origin:
        return tau_t != tau_below
    if tau_t == tau_below:
        return False
    annihilator = tau_t.colon_ideal(tau_below)
    return annihilator.is_contained_in(_maximal_ideal(f.ring))


# ---------------------------------------------------------------------------
# F-signature values


def f_signature_value(e: int, a: int, f: MultiPoly) -> Fraction:
    """s(f, a/p^e) = length(R / (m^[p^e] : f^a)) / p^(e n).

    Adjointness identifies (m^[p^e] : f^a) with the non-splitting ideal of
    the pair at level e.  The length is taken through the Artinian identity
    length(R/(J : g)) = length(R/J) - length(R/(J + g)), which needs one
    Groebner basis instead of a colon elimination.
    """
    if e < 0 or a < 0:
        raise DomainError("nonnegative level and power required")
    _check_poly(f)
    ring = f.ring
    if f.evaluate([0] * ring.arity) != 0:
        raise DomainError("F-signature values need f in the maximal ideal")
    p, n = ring.characteristic, ring.arity
    q = p**e
    total = q**n
    frob = [ring.variable(i) ** q for i in range(n)]
    joined = Ideal(ring, frob + [f**a]).quotient_length()
    return Fraction(total - joined, total)


def secant_intercept(e: int, nu_value: int, s1: Fraction, s2: Fraction, p: int) -> Fraction:
    """x-intercept of the secant line through ((nu-1)/p^e, s1), (nu/p^e, s2).

    Convexity of the F-signature function makes this a valid lower bound for
    the F-pure threshold when s1 > s2.
    """
    s1, s2 = Fraction(s1), Fraction(s2)
    if not s1 > s2 >= 0:
        raise DomainError("degenerate secant: need s1 > s2 >= 0")
    q = p**e
    return Fraction(nu_value - 1, q) + s1 / (q * (s1 - s2))
