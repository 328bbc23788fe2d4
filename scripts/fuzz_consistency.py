#!/usr/bin/env python3
"""Extended randomized cross-checking beyond the test suite's fixed budget.

Usage:  python3 scripts/fuzz_consistency.py [--cases N] [--seed S]

Draws random polynomials and ideals over F_2, F_3, F_5 and checks, per case:
root/power adjointness, the nu recurrence sandwich, mode independence,
Skoda's identity, certification of exact driver outputs (by test ideals and,
independently of them, by nu), Fedder's threshold-one shortcut against nu,
tau(f^(t-eps)) against one direct Frobenius root past the chain's limit, and
the linear factors found from root sets on lines against trial division by
every monic linear form (in one to three variables).
Exits nonzero on the first violation with a reproduction recipe.
"""

import argparse
import importlib
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from fthresh import (  # noqa: E402
    Ideal,
    Ring,
    compare_fpt,
    extract_linear_factors,
    fpt,
    frobenius_power,
    frobenius_root,
    is_fpt,
    nu,
    parameter_form,
    root_of_product,
    test_ideal,
    test_ideal_minus_epsilon,
)
from fthresh.arith import ceil_fraction  # noqa: E402
from fthresh.fptdriver import threshold_is_one  # noqa: E402
from helpers import brute_linear_factors  # noqa: E402

RINGS = [Ring(2, ("x", "y")), Ring(3, ("x", "y")), Ring(5, ("x", "y"))]


def random_poly(rng, ring, max_terms=3, max_exp=3, vanishing=False):
    p = ring.characteristic
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(rng.randint(0, max_exp) for _ in range(ring.arity))
            if vanishing and not any(exps):
                continue
            terms[exps] = rng.randint(1, p - 1)
        f = ring.poly(terms)
        if not f.is_zero() and (not vanishing or not f.is_constant()):
            return f


def random_ideal(rng, ring, max_gens=2):
    while True:
        I = Ideal(ring, [random_poly(rng, ring) for _ in range(rng.randint(1, max_gens))])
        if not I.is_zero():
            return I


CHECKS = {}


def check(fn):
    CHECKS[fn.__name__] = fn
    return fn


@check
def adjointness(rng, ring):
    e = rng.randint(0, 2)
    I = random_ideal(rng, ring)
    J = random_ideal(rng, ring)
    assert I.is_contained_in(frobenius_power(J, e)) == frobenius_root(I, e).is_contained_in(J)


@check
def sandwich(rng, ring):
    p = ring.characteristic
    f = random_poly(rng, ring, vanishing=True)
    seq = nu(2, f, return_list=True, use_special_algorithms=False)
    for s in range(1, len(seq)):
        assert p * seq[s - 1] <= seq[s] <= p * seq[s - 1] + p - 1, (f, seq)


@check
def mode_independence(rng, ring):
    f = random_poly(rng, ring, vanishing=True)
    e = rng.randint(1, 2)
    values = {
        nu(e, f, containment=mode, use_special_algorithms=False)
        for mode in ("standard", "root", "power")
    }
    assert len(values) == 1, (f, values)


@check
def skoda(rng, ring):
    f = random_poly(rng, ring, max_terms=2, vanishing=True)
    t = Fraction(rng.randint(1, 5), rng.randint(2, 7))
    lhs = test_ideal(t + 1, f)
    rhs = Ideal(ring, [g * f for g in test_ideal(t, f).generators])
    assert lhs == rhs.reduced(), (f, t)


@check
def driver_certification(rng, ring):
    p = ring.characteristic
    f = random_poly(rng, ring, vanishing=True)
    depth = rng.randint(1, 2)
    result = fpt(f, depth_of_search=depth, attempts=3)
    if result.kind == "exact":
        assert is_fpt(result.value, f, at_origin=True), (f, result)
        # nu never calls the test-ideal code: ceil(c p^e) - 1 = nu_e at every level
        levels = nu(depth + 6, f, return_list=True, use_special_algorithms=False)
        for e, value in enumerate(levels):
            assert ceil_fraction(result.value * p**e) - 1 == value, (f, result, e, value)
    elif result.kind == "interval":
        if result.lower > 0:
            assert compare_fpt(result.lower, f, at_origin=True) <= 0, (f, result)
        assert compare_fpt(result.upper, f, at_origin=True) >= 0, (f, result)


@check
def fedder_threshold_one(rng, ring):
    p = ring.characteristic
    f = random_poly(rng, ring, vanishing=True)
    for at_origin in (True, False):
        expected = nu(1, f, at_origin=at_origin, use_special_algorithms=False) == p - 1
        assert threshold_is_one(f, at_origin) == expected, (f, at_origin)


@check
def minus_epsilon_direct_root(rng, ring):
    # the chain's k-th value is the direct root at level g + k h, so a level
    # past its step count must equal its limit; degrees up to 6 reach chains
    # that stall for several steps before they drop
    p = ring.characteristic
    f = random_poly(rng, ring, max_exp=6, vanishing=True)
    t = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    module = importlib.import_module("fthresh.testideal")
    original, calls = module.root_of_product, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    module.root_of_product = counted
    try:
        limit = test_ideal_minus_epsilon(t, f)
    finally:
        module.root_of_product = original
    steps = len(calls) - 1  # every call but the final p^g root applies phi once
    pf = parameter_form(t, p)
    k = pf.g + (steps + rng.randint(1, 2)) * max(pf.h, 1)
    unit = Ideal(ring, [ring.one()])
    direct = root_of_product(f, ceil_fraction(t * p**k) - 1, unit, k)
    assert limit == direct, (f, t, k)


@check
def linear_factors_vs_enumeration(rng, ring):
    p = ring.characteristic
    small = Ring(p, ("x", "y", "z")[: rng.randint(1, 3)])
    n = small.arity
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n + 1)]
    f = small.one()
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.6:
            g = small.poly({u: rng.randrange(p) for u in unit})
        else:
            g = random_poly(rng, small)
        f = f * g ** rng.randint(1, 2)
    if f.is_zero() or f.is_constant():
        return
    got, want = extract_linear_factors(f), brute_linear_factors(f)
    assert (got.unit, got.factors, got.fully_split) == (want.unit, want.factors, want.fully_split), (f, got, want)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cases", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    names = sorted(CHECKS)
    t0 = time.time()
    for case in range(args.cases):
        name = names[case % len(names)]
        ring = rng.choice(RINGS)
        try:
            CHECKS[name](rng, ring)
        except AssertionError as exc:
            print(f"FAIL {name} at case {case} (seed {args.seed}): {exc}")
            return 1
        if case and case % 500 == 0:
            rate = case / (time.time() - t0)
            print(f"... {case} cases ({rate:.0f}/s)")
    print(f"{args.cases} cases passed in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
