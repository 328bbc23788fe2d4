"""Test ideals of principal polynomials in a polynomial ring, threshold
certification, F-jumping exponents, and finite-level F-signature values.

tau(f^t) and tau(f^(t-epsilon)) come from one Frobenius-operator iteration
with two starting points.  For t = a/(p^g (p^h - 1)), where t = a/p^g counts
as a(p-1)/(p^g (p-1)), write a = b (p^h - 1) + a0 and
phi(I) = (f^a0 * I)^[1/p^h] (Blickle-Mustata-Smith, Michigan Math. J. 57,
2008).  phi is monotone, so a chain that starts with one step in some
direction keeps that direction, and its first repeat is its limit: an exact
stopping rule.

* For tau(f^t), a0 is a mod (p^h - 1) and the chain ascends from (f); its
  k-th value is (f^(ceil(s p^(kh))))^[1/p^(kh)] for s = a0/(p^h - 1), so
  its limit is tau(f^s).  When a0 = 0 that limit is R.
* For tau(f^(t-epsilon)), a0 is taken in [1, p^h - 1] and the chain descends
  from R; its k-th value is (f^(ceil(s p^(kh)) - 1))^[1/p^(kh)], so its
  limit is tau(f^(s-epsilon)).
* Both then end in one ``root_of_product`` call, (f^b * limit)^[1/p^g]:
  tau(f^t) = (f^b * tau(f^s))^[1/p^g], and likewise below t.  The p-power
  part of the denominator is g more Frobenius roots, and the factor
  f^(b // p^g) multiplied in at the end is Skoda's theorem
  tau(f^(t+1)) = f * tau(f^t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    DomainError,
    MultiPoly,
    Rational,
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
    if a.denominator != 1:
        raise RuntimeError("p^h - 1 must clear the prime-to-p denominator")
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
    if Fraction(t) == 0:
        _check_poly(f)
        return _unit_ideal(f.ring)
    return _tau(t, f, below=False)


def test_ideal_minus_epsilon(t: Rational, f: MultiPoly) -> Ideal:
    """The common value of tau(f^(t - delta)) for all small delta > 0."""
    return _tau(t, f, below=True)


def _tau(t: Rational, f: MultiPoly, below: bool) -> Ideal:
    """tau(f^(t - epsilon)) when ``below``, else tau(f^t), for t > 0."""
    _check_poly(f)
    t = Fraction(t)
    if t <= 0:
        raise DomainError("parameter must be positive" if below else "negative exponent")
    ring = f.ring
    p = ring.characteristic
    pf = parameter_form(t, p)
    a, h = (pf.a * (p - 1), 1) if pf.pure else (pf.a, pf.h)
    a0 = (a - 1) % (p**h - 1) + 1 if below else a % (p**h - 1)
    # a0 = 0 only for tau(f^t) with t p^g an integer: then the limit is R
    start = _unit_ideal(ring) if below or a0 == 0 else Ideal(ring, [f]).reduced()
    limit = _first_repeat(f, a0, h, start) if a0 else start
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
        if not smaller.is_contained_in(larger):
            raise RuntimeError("test-ideal chain must be monotone")
        chain = nxt


# ---------------------------------------------------------------------------
# threshold comparison


def _tau_pair(t: Rational, f: MultiPoly) -> tuple[Ideal, Ideal]:
    """tau(f^t) and tau(f^(t-epsilon)), checked to be nested."""
    # tau(f^0) is R, so the minus-epsilon call goes first to refuse t <= 0
    tau_below = test_ideal_minus_epsilon(t, f)
    tau_t = test_ideal(t, f)
    if not tau_t.is_contained_in(tau_below):
        raise RuntimeError("test ideals must shrink as t grows")
    return tau_t, tau_below


def compare_fpt(t: Rational, f: MultiPoly, at_origin: bool = False) -> int:
    """-1, 0, or 1 according to whether t is below, equal to, or above the
    F-pure threshold of f (at the origin, or the global minimum)."""
    tau_t, tau_below = _tau_pair(t, f)
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
    tau_t, tau_below = _tau_pair(t, f)
    if tau_t == tau_below:
        return False
    if not at_origin:
        return True
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
