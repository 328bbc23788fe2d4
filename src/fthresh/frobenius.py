"""Frobenius powers J^[p^e], Frobenius roots I^[1/p^e], and generalized
Frobenius powers I^[n].

The one-step root exploits that F_p coefficients are their own p-th roots:
each generator g decomposes uniquely as g = sum_mu (g_mu)^p x^mu over the
monomials x^mu with exponents < p, and g_mu is read off by grouping the terms
of g by exponent residues mod p and dividing exponents by p.  The root is
generated by all of the pieces g_mu; roots for e > 1 iterate the one-step
root, which keeps intermediate supports small.

``root_of_product`` computes ((f^n) * I)^[1/p^e] by peeling one base-p digit
of n per root level, using (A^[p] * B)^[1/p] = A * B^[1/p]; the huge power
f^n is never expanded.  This is the workhorse behind the fast containment
tests and the test-ideal chains.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import DomainError, MultiPoly, _raw
from .groebner import Ideal


@lru_cache(maxsize=1024)
def _small_power(f: MultiPoly, d: int) -> MultiPoly:
    # digit powers f^d (d < p) recur across root levels and chain steps
    return f ** d


def frobenius_power(J: Ideal, e: int) -> Ideal:
    """Ideal generated by g^(p^e) over the generators g of J."""
    if e < 0:
        raise DomainError("negative Frobenius exponent")
    if e == 0:
        return J
    return Ideal(J.ring, [g.frobenius(e) for g in J.generators])


def _root_pieces(g: MultiPoly) -> list[MultiPoly]:
    p = g.ring.characteristic
    buckets: dict[tuple, dict] = {}
    for exps, c in g.terms.items():
        residue = tuple(e % p for e in exps)
        quotient = tuple(e // p for e in exps)
        buckets.setdefault(residue, {})[quotient] = c
    return [_raw(g.ring, terms) for terms in buckets.values()]


def frobenius_root_step(I: Ideal) -> Ideal:
    """One-step (e = 1) Frobenius root."""
    gens = []
    for g in I.generators:
        gens.extend(_root_pieces(g))
    return Ideal(I.ring, gens)


def frobenius_root(I: Ideal, e: int) -> Ideal:
    """Smallest ideal K with I contained in K^[p^e]."""
    return root_of_product(I.ring.one(), 0, I, e)


def root_of_product(f: MultiPoly, n: int, I: Ideal, e: int) -> Ideal:
    """((f^n) * I)^[1/p^e] without expanding f^n.

    Writes n = d + p*m and uses ((f^m)^[p] * (f^d * I))^[1/p] =
    f^m * (f^d * I)^[1/p], one digit per level.  The leftover factor
    f^(n // p^e) is multiplied in at the end (it is small in every use here).
    """
    if n < 0:
        raise DomainError("negative exponent")
    if e < 0:
        raise DomainError("negative Frobenius exponent")
    p = f.ring.characteristic
    current = I
    for _ in range(e):
        d = n % p
        n //= p
        if d:
            current = current * _small_power(f, d)
        current = frobenius_root_step(current).reduced()
    if n:
        current = (current * _small_power(f, n)).reduced()
    return current.reduced()


def generalized_frobenius_power(I: Ideal, n: int) -> Ideal:
    """I^[n]: with base-p digits n = sum n_i p^i, the product of the
    Frobenius powers (I^(n_i))^[p^i]."""
    if n < 0:
        raise DomainError("negative generalized Frobenius power")
    if n == 0:
        return Ideal(I.ring, [I.ring.one()])
    p = I.ring.characteristic
    result = None
    level = 0
    while n:
        d = n % p
        n //= p
        if d:
            piece = frobenius_power(I.power(d), level)
            result = piece if result is None else result * piece
        level += 1
    return result
