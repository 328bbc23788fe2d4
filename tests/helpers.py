"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from fthresh import FactoredPoly, Ideal, MultiPoly, Ring, squarefree_factors
from fthresh.groebner import try_div


def poly_strategy(ring: Ring, max_terms: int = 6, max_exp: int = 4, nonzero: bool = False):
    terms = st.dictionaries(
        keys=st.tuples(*([st.integers(0, max_exp)] * ring.arity)),
        values=st.integers(1, ring.characteristic - 1),
        min_size=1 if nonzero else 0,
        max_size=max_terms,
    )
    strat = terms.map(ring.poly)
    if nonzero:
        strat = strat.filter(lambda f: not f.is_zero())
    return strat


def random_poly(rng: random.Random, ring: Ring, max_terms: int = 5, max_exp: int = 4,
                nonzero: bool = True) -> MultiPoly:
    p = ring.characteristic
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(rng.randint(0, max_exp) for _ in range(ring.arity))
            terms[exps] = rng.randint(1, p - 1)
        f = ring.poly(terms)
        if not nonzero or not f.is_zero():
            return f


def random_ideal(rng: random.Random, ring: Ring, max_gens: int = 3, max_terms: int = 3,
                 max_exp: int = 3) -> Ideal:
    while True:
        gens = [random_poly(rng, ring, max_terms, max_exp) for _ in range(rng.randint(1, max_gens))]
        ideal = Ideal(ring, gens)
        if not ideal.is_zero():
            return ideal


def random_vanishing_poly(rng: random.Random, ring: Ring, max_terms: int = 4,
                          max_exp: int = 4) -> MultiPoly:
    """Random nonconstant polynomial with zero constant term."""
    while True:
        f = random_poly(rng, ring, max_terms, max_exp)
        zero = (0,) * ring.arity
        f = ring.poly({e: c for e, c in f.terms.items() if e != zero})
        if not f.is_zero() and not f.is_constant():
            return f


def naive_power(f: MultiPoly, n: int) -> MultiPoly:
    out = f.ring.one()
    for _ in range(n):
        out = out * f
    return out


def brute_linear_factors(f: MultiPoly) -> FactoredPoly:
    """``extract_linear_factors`` by exhaustive search: split off the monomial
    content, then trial-divide by every one of the (p^n - 1)/(p - 1) * p monic
    linear forms, ordered by lead variable and then by the tuple
    (c_{lead+1}, ..., c_{n-1}, constant); squarefree-decompose the rest."""
    ring = f.ring
    p, n = ring.characteristic, ring.arity
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    factors = []
    for i in range(n):
        m = min(exps[i] for exps in f.terms)
        if m:
            factors.append((ring.variable(i), m))
            f = ring.poly({tuple(e - m * u for e, u in zip(exps, unit[i])): c for exps, c in f.terms.items()})
    for lead in range(n):
        for *cs, c0 in itertools.product(range(p), repeat=n - lead):
            if f.is_constant():
                break
            ell = ring.poly({unit[lead]: 1, **dict(zip(unit[lead + 1:], cs)), (0,) * n: c0})
            mult = 0
            while (q := try_div(f, ell)) is not None:
                f, mult = q, mult + 1
            if mult:
                factors.append((ell, mult))
    if f.is_constant():
        return FactoredPoly(f.constant_term(), tuple(factors), True)
    rest = squarefree_factors(f)
    return FactoredPoly(f.leading_coefficient(), tuple(factors + rest), all(q.degree() < 2 for q, _ in rest))


def monomial_in_monomial_ideal(exps, gens_exps) -> bool:
    return any(all(g <= e for g, e in zip(gen, exps)) for gen in gens_exps)


def base_p_digits(n: int, p: int) -> list[int]:
    out = []
    while n:
        out.append(n % p)
        n //= p
    return out or [0]


def carry_free_sum(parts: list[int], p: int) -> bool:
    """Is sum(parts) computed without base-p carries (multinomial nonzero mod p)?"""
    total = base_p_digits(sum(parts), p)
    digit_sums = [0] * len(total)
    for part in parts:
        for i, d in enumerate(base_p_digits(part, p)):
            digit_sums[i] += d
    return digit_sums == total


def brute_diagonal_nu(exponents: list[int], p: int, e: int) -> int:
    """Largest n with (sum_i x_i^(a_i))^n outside m^[p^e]: search over all
    exponent splittings with nonvanishing multinomial coefficient."""
    q = p**e
    caps = [(q - 1) // a for a in exponents]
    best = 0

    def rec(i, chosen):
        nonlocal best
        if i == len(caps):
            if carry_free_sum(chosen, p):
                best = max(best, sum(chosen))
            return
        for k in range(caps[i] + 1):
            rec(i + 1, chosen + [k])

    rec(0, [])
    return best


def interval_of(result):
    """(lower, upper) for either an exact or interval FptResult."""
    if result.is_exact():
        return result.value, result.value
    return result.lower, result.upper
