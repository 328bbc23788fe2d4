"""Immutability and concurrent use: shared handles, lazy basis caching."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from fthresh import Ideal, Ring, fpt, nu, parse_polynomial


def test_concurrent_groebner_readers_see_one_basis():
    ring = Ring(5, ("x", "y"))
    I = Ideal(ring, [parse_polynomial("x^2 + y^3", ring), parse_polynomial("x*y", ring)])
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: I.groebner(), range(32)))
    assert all(r == results[0] for r in results)


def test_concurrent_nu_and_fpt_calls():
    ring = Ring(5, ("x", "y", "z"))
    f = parse_polynomial("x^3 + y^3 + z^3 + x*y*z", ring)
    with ThreadPoolExecutor(max_workers=4) as pool:
        nus = list(pool.map(lambda e: nu(e, f, use_special_algorithms=False), [1, 2] * 3))
        fpts = list(pool.map(lambda _: fpt(f).value, range(4)))
    assert nus == [3, 19] * 3
    assert fpts == [Fraction(4, 5)] * 4


def test_polynomials_are_shared_safely():
    ring = Ring(3, ("x", "y"))
    f = parse_polynomial("x^2 + y", ring)
    before = dict(f.terms)
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(lambda n: f**n, range(16)))
        list(pool.map(lambda _: f.frobenius(2), range(8)))
    assert f.terms == before


def test_concurrent_monomial_powers_agree():
    # the Minkowski chain behind monomial powers is cached on the handle;
    # threads extending it at once must never see a half-built chain
    ring = Ring(5, ("x", "y", "z"))
    gens = [ring.variable(i) for i in range(3)]
    expected = Ideal(ring, gens).power(40).generators
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for _ in range(4):
            shared = Ideal(ring, gens)
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda _: shared.power(40).generators, range(8)))
            assert all(r == expected for r in results)
    finally:
        sys.setswitchinterval(interval)
