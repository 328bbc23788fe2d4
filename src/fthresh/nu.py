"""The nu/mu search engine.

nu(e, I, J) is the largest n with I^n not contained in J^[p^e] (infinity when
some generator of I misses the radical of J; 0 when I itself is already
inside).  The computation walks levels s = 0..e: each level's value nu_s sits
in the window [p*nu_{s-1}, U_s], where U_s = p*(nu_{s-1}+1) - 1 for principal
I (and for generalized Frobenius powers), and
U_s = p*(nu_{s-1}+1) + g*(p-1) - 1 for a g-generated I, from the pigeonhole
containment I^(p*n + g*(p-1)) within (I^n)^[p].

Containment tests come in three flavours: direct power comparison, the
adjoint Frobenius-root test (I^n)^[1/p^s] within J, and generalized Frobenius
powers I^[n] (which computes the invariant mu instead of nu).  With
``at_origin`` false the predicate becomes "the Frobenius root of the power is
the unit ideal", the minimum of nu over all maximal ideals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

from .arith import INFINITY, DomainError, MultiPoly, Rational, ceil_fraction
from .frobenius import (
    frobenius_power,
    frobenius_root,
    generalized_frobenius_power,
    root_of_product,
)
from .groebner import Ideal

STANDARD_POWER = "standard"
FROBENIUS_ROOT = "root"
FROBENIUS_POWER = "power"

BINARY = "binary"
LINEAR = "linear"


@dataclass(frozen=True)
class NuOptions:
    containment: str | None = None  # default: root for polynomials, standard for ideals
    search: str = BINARY
    return_list: bool = False
    use_special_algorithms: bool = True
    at_origin: bool = True
    verbose: bool = False


def nu_via_fpt(e: int, c: Rational, p: int) -> int:
    """Recover nu(p^e) from a known F-pure threshold: ceil(p^e c) - 1."""
    if not 0 < c <= 1:
        raise DomainError("threshold must lie in (0, 1]")
    return ceil_fraction(Fraction(c) * p**e) - 1


def nu(e: int, target: MultiPoly | Ideal, J: Ideal | None = None, opts: NuOptions | None = None, **overrides):
    """nu(e, I, J) or nu(e, f, J); J defaults to the irrelevant maximal ideal.

    Returns an integer, ``INFINITY``, or (with ``return_list``) the list of
    values at p^0, ..., p^e.
    """
    opts = replace(opts or NuOptions(), **overrides)
    if e < 0:
        raise DomainError("negative Frobenius exponent")

    if isinstance(target, MultiPoly):
        f: MultiPoly | None = target
        if f.is_zero():
            raise DomainError("nu of the zero polynomial")
        ring = f.ring
        I = Ideal(ring, [f])
    else:
        I = target
        ring = I.ring
        if I.is_zero():
            raise DomainError("nu of the zero ideal")
        f = I.generators[0] if len(I.generators) == 1 else None

    m = Ideal(ring, [ring.variable(i) for i in range(ring.arity)])
    if J is None:
        J = m
    if J.ring != ring:
        raise DomainError("I and J live in different rings")
    if J.is_zero():
        raise DomainError("nu against the zero ideal")
    if J.is_unit():
        raise DomainError("nu against the unit ideal")

    mode = opts.containment or (FROBENIUS_ROOT if isinstance(target, MultiPoly) else STANDARD_POWER)
    if mode not in (STANDARD_POWER, FROBENIUS_ROOT, FROBENIUS_POWER):
        raise DomainError(f"unknown containment mode {mode!r}")
    if opts.search not in (BINARY, LINEAR):
        raise DomainError(f"unknown search mode {opts.search!r}")

    def finish(values):
        return list(values) if opts.return_list else values[-1]

    if I.is_unit():
        return finish([INFINITY] * (e + 1))

    if opts.at_origin and any(not J.radical_contains(g) for g in I.generators):
        return finish([INFINITY] * (e + 1))

    # fast path: recover every level from a closed-form F-pure threshold
    if (
        opts.use_special_algorithms
        and opts.at_origin
        and f is not None
        and J == m
    ):
        c = _special_threshold(f)
        if c is not None:
            p = ring.characteristic
            values = [nu_via_fpt(s, c, p) for s in range(e + 1)]
            if opts.verbose:
                for s, v in enumerate(values):
                    print(f"nu({s}) = {v}")
            return finish(values)

    values = _nu_levels(e, I, f, J, mode, opts)
    return finish(values)


def _special_threshold(f: MultiPoly) -> Fraction | None:
    from .special import special_fpt_at_origin

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return special_fpt_at_origin(f)


def _nu_levels(e: int, I: Ideal, f: MultiPoly | None, J: Ideal, mode: str, opts: NuOptions) -> list[int]:
    ring = I.ring
    p = ring.characteristic
    unit = Ideal(ring, [ring.one()])
    principal_window = f is not None or mode == FROBENIUS_POWER
    gen_count = len(I.generators)
    frob_powers: dict[int, Ideal] = {}

    def J_frob(s: int) -> Ideal:
        if s not in frob_powers:
            frob_powers[s] = frobenius_power(J, s).reduced()
        return frob_powers[s]

    def outside(n: int, s: int) -> bool:
        """True while n is still below the level-s cutoff."""
        if n == 0:
            return True
        peel = f is not None and mode != FROBENIUS_POWER
        if opts.at_origin:
            if peel and mode == FROBENIUS_ROOT:
                return not root_of_product(f, n, unit, s).is_contained_in(J)
            power = generalized_frobenius_power(I, n) if mode == FROBENIUS_POWER else I.power(n)
            if mode == FROBENIUS_ROOT:
                return not frobenius_root(power, s).is_contained_in(J)
            return not power.is_contained_in(J_frob(s))
        if peel:
            return root_of_product(f, n, unit, s).is_unit()
        power = generalized_frobenius_power(I, n) if mode == FROBENIUS_POWER else I.power(n)
        return frobenius_root(power, s).is_unit()

    values: list[int] = []
    prev = 0
    for s in range(e + 1):
        if s == 0:
            v = 0
            while outside(v + 1, 0):
                v += 1
        else:
            lo = p * prev
            if principal_window:
                hi = p * (prev + 1) - 1
            else:
                hi = p * (prev + 1) + gen_count * (p - 1) - 1
            if not outside(lo, s):
                raise RuntimeError("recurrence lower bound violated")
            if opts.search == LINEAR:
                v = lo
                while v < hi and outside(v + 1, s):
                    v += 1
            else:
                if outside(hi, s):
                    v = hi
                else:
                    a, b = lo, hi  # invariant: outside(a), not outside(b)
                    while b - a > 1:
                        mid = (a + b) // 2
                        if outside(mid, s):
                            a = mid
                        else:
                            b = mid
                    v = a
        if opts.verbose:
            print(f"nu({s}) = {v}")
        values.append(v)
        prev = v
    return values
