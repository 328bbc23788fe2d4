"""Buchberger-based Groebner engine over F_p.

Supplies reduced bases, ideal membership/containment/equality, unit tests,
colon ideals, ideal intersection, quotient lengths, Krull dimension, radical
membership, and multivariate gcd (via intersection of principal ideals).

Inputs are first row-reduced over F_p on their leading monomials.  Pair
selection is the normal strategy (minimal lcm degree, deterministic
tie-breaks), with the Buchberger product and chain criteria.  Reduced bases
are unique for a fixed monomial order and are cached on the (immutable)
ideal handle.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from .arith import (
    INFINITY,
    BlockOrder,
    DomainError,
    ExtendedNatural,
    Exponents,
    MultiPoly,
    Ring,
    RingMismatchError,
    _raw,
    add_exps,
)

# ---------------------------------------------------------------------------
# monomial helpers


def monomial_divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _minimalize(exps: Iterable[Exponents]) -> frozenset[Exponents]:
    """Minimal elements under componentwise divisibility."""
    items = sorted(set(exps), key=sum)
    kept: list[Exponents] = []
    for e in items:
        if not any(monomial_divides(k, e) for k in kept):
            kept.append(e)
    return frozenset(kept)


# ---------------------------------------------------------------------------
# division


def normal_form(f: MultiPoly, basis: Sequence[MultiPoly]) -> MultiPoly:
    """Remainder of multivariate division of f by ``basis`` (full reduction).

    Zero iff f lies in the ideal generated by a Groebner basis ``basis``.
    """
    if f.is_zero():
        return f
    divisors = []
    for g in basis:
        if g.is_zero():
            continue
        if f.ring != g.ring:
            raise RingMismatchError("normal_form operands in different rings")
        divisors.append((g.leading_monomial(), g.leading_coefficient(), g.terms))
    if not divisors:
        return f
    p = f.ring.characteristic
    key = f.ring.order.key
    work = dict(f.terms)
    remainder: dict[Exponents, int] = {}
    while work:
        u = max(work, key=key)
        c = work[u]
        for lm, lc, gterms in divisors:
            if monomial_divides(lm, u):
                factor = c * pow(lc, -1, p) % p
                shift = monomial_div(u, lm)
                for e2, c2 in gterms.items():
                    e = add_exps(shift, e2)
                    v = (work.get(e, 0) - factor * c2) % p
                    if v:
                        work[e] = v
                    else:
                        work.pop(e, None)
                break
        else:
            remainder[u] = c
            del work[u]
    return _raw(f.ring, remainder)


def divide_by(f: MultiPoly, g: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Single-divisor division: f = q*g + r with no term of r divisible by lm(g)."""
    if g.is_zero():
        raise DomainError("division by zero polynomial")
    p = f.ring.characteristic
    key = f.ring.order.key
    lm, lc = g.leading_monomial(), g.leading_coefficient()
    lc_inv = pow(lc, -1, p)
    work = dict(f.terms)
    quotient: dict[Exponents, int] = {}
    remainder: dict[Exponents, int] = {}
    while work:
        u = max(work, key=key)
        c = work[u]
        if monomial_divides(lm, u):
            factor = c * lc_inv % p
            shift = monomial_div(u, lm)
            quotient[shift] = factor
            for e2, c2 in g.terms.items():
                e = add_exps(shift, e2)
                v = (work.get(e, 0) - factor * c2) % p
                if v:
                    work[e] = v
                else:
                    work.pop(e, None)
        else:
            remainder[u] = c
            del work[u]
    return _raw(f.ring, quotient), _raw(f.ring, remainder)


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f / g when g divides f; raises otherwise."""
    q, r = divide_by(f, g)
    if not r.is_zero():
        raise DomainError("inexact polynomial division")
    return q


def try_div(f: MultiPoly, g: MultiPoly) -> MultiPoly | None:
    q, r = divide_by(f, g)
    return q if r.is_zero() else None


# ---------------------------------------------------------------------------
# Buchberger


def _spoly(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    # both monic
    lf, lg = f.leading_monomial(), g.leading_monomial()
    L = monomial_lcm(lf, lg)
    return f.multiply_term(monomial_div(L, lf), 1) - g.multiply_term(monomial_div(L, lg), 1)


def buchberger(gens: Sequence[MultiPoly]) -> tuple[MultiPoly, ...]:
    """Reduced Groebner basis of the ideal generated by ``gens``."""
    # row-reduce over F_p on leading monomials: the span, hence the ideal,
    # is unchanged, and no two inputs share a leading monomial
    pivots: dict[Exponents, MultiPoly] = {}
    for g in gens:
        while not g.is_zero():
            lm = g.leading_monomial()
            if lm not in pivots:
                pivots[lm] = g.monic()
                break
            g = g - pivots[lm].scale(g.leading_coefficient())
    polys = list(pivots.values())
    if not polys:
        return ()
    ring = polys[0].ring
    if any(g.is_constant() for g in polys):
        return (ring.one(),)
    key = ring.order.key
    if all(g.is_monomial() for g in polys):
        # a monomial ideal is its own Groebner basis; reduced = minimal
        minimal = _minimalize(g.leading_monomial() for g in polys)
        return tuple(_raw(ring, {e: 1}) for e in sorted(minimal, key=key))

    import heapq

    G = list(polys)
    lms = [g.leading_monomial() for g in G]
    heap: list = []
    in_queue: set[tuple[int, int]] = set()

    def push_pair(i: int, j: int):
        L = monomial_lcm(lms[i], lms[j])
        heapq.heappush(heap, (sum(L), key(L), i, j))
        in_queue.add((i, j))

    for j in range(len(G)):
        for i in range(j):
            push_pair(i, j)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        in_queue.discard((i, j))
        lmi, lmj = lms[i], lms[j]
        L = monomial_lcm(lmi, lmj)
        # product criterion: disjoint leading supports
        if L == add_exps(lmi, lmj):
            continue
        # chain criterion
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if monomial_divides(lms[k], L):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in in_queue and b not in in_queue:
                    skip = True
                    break
        if skip:
            continue
        r = normal_form(_spoly(G[i], G[j]), G)
        if r.is_zero():
            continue
        r = r.monic()
        if r.is_constant():
            return (ring.one(),)
        G.append(r)
        lms.append(r.leading_monomial())
        new = len(G) - 1
        for k in range(new):
            push_pair(k, new)

    return _reduce_basis(G)


def _reduce_basis(G: Sequence[MultiPoly]) -> tuple[MultiPoly, ...]:
    ring = G[0].ring
    key = ring.order.key
    # minimal: drop any element whose leading monomial another leading monomial divides
    lms = [(g.leading_monomial(), g) for g in G]
    minimal = []
    for lm, g in sorted(lms, key=lambda t: key(t[0])):
        if not any(monomial_divides(other, lm) for other, _ in minimal):
            minimal.append((lm, g))
    # autoreduce tails
    reduced = [g for _, g in minimal]
    for idx in range(len(reduced)):
        others = reduced[:idx] + reduced[idx + 1 :]
        reduced[idx] = normal_form(reduced[idx], others).monic()
    reduced.sort(key=lambda g: key(g.leading_monomial()))
    return tuple(reduced)


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """Finitely generated ideal of F_p[x]; immutable, with a cached reduced GB."""

    __slots__ = ("ring", "generators", "_gb", "_power_sets")

    def __init__(self, ring: Ring, generators: Iterable[MultiPoly] = (), _gb=None):
        gens = []
        seen = set()
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator in wrong ring")
            if g.is_zero() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb = _gb
        self._power_sets = None  # Minkowski chain cache for monomial ideals

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"ideal({inside})"

    def is_zero(self) -> bool:
        return not self.generators

    def groebner(self) -> tuple[MultiPoly, ...]:
        if self._gb is None:
            self._gb = buchberger(self.generators)
        return self._gb

    def reduced(self) -> "Ideal":
        """The same ideal presented by its reduced Groebner basis."""
        gb = self.groebner()
        return Ideal(self.ring, gb, _gb=gb)

    # membership and comparisons -------------------------------------------

    def contains(self, f: MultiPoly) -> bool:
        if f.is_zero():
            return True
        if self.is_zero():
            return False
        gb = self.groebner()
        if all(g.is_monomial() for g in gb):
            # membership in a monomial ideal: every term divisible by some generator
            lms = [g.leading_monomial() for g in gb]
            return all(any(monomial_divides(lm, e) for lm in lms) for e in f.terms)
        return normal_form(f, gb).is_zero()

    def is_contained_in(self, other: "Ideal") -> bool:
        return all(other.contains(g) for g in self.generators)

    def is_unit(self) -> bool:
        if any(g.is_constant() and not g.is_zero() for g in self.generators):
            return True
        return self.groebner() == (self.ring.one(),)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.groebner() == other.groebner()

    def __hash__(self):
        return hash((self.ring, self.groebner()))

    # construction ----------------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatchError("ideal sum over different rings")
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return Ideal(self.ring, [other * g for g in self.generators])
        if self.ring != other.ring:
            raise RingMismatchError("ideal product over different rings")
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring)
        return Ideal(self.ring, [a * b for a in self.generators for b in other.generators])

    __rmul__ = __mul__

    def power(self, n: int) -> "Ideal":
        """Ordinary ideal power I**n (products of n generators)."""
        if n < 0:
            raise DomainError("negative ideal power")
        if n == 0:
            return Ideal(self.ring, [self.ring.one()])
        if n == 1 or self.is_zero():
            return self
        gens = self.generators
        if all(g.is_monomial() for g in gens):
            # iterated Minkowski sums, cached so repeated probes share work;
            # duplicates collapse, so the sets stay small.  A local copy is
            # extended and published as one tuple: no half-built chain shows.
            chain = self._power_sets or ({next(iter(g.terms)) for g in gens},)
            if len(chain) < n:
                grown = list(chain)
                while len(grown) < n:
                    grown.append({add_exps(e, b) for e in grown[-1] for b in chain[0]})
                chain = self._power_sets = tuple(grown)
            return Ideal(self.ring, [_raw(self.ring, {e: 1}) for e in sorted(chain[n - 1])])
        powers: dict[tuple[int, int], MultiPoly] = {}

        def gen_power(i: int, k: int) -> MultiPoly:
            if (i, k) not in powers:
                powers[(i, k)] = gens[i] ** k
            return powers[(i, k)]

        out = []
        for counts in _compositions(n, len(gens)):
            prod = None
            for i, k in enumerate(counts):
                if k:
                    piece = gen_power(i, k)
                    prod = piece if prod is None else prod * piece
            out.append(prod)
        return Ideal(self.ring, out)

    # derived operations ----------------------------------------------------

    def intersect(self, other: "Ideal") -> "Ideal":
        """I ∩ J by eliminating t from t*I + (1-t)*J."""
        if self.ring != other.ring:
            raise RingMismatchError("intersection over different rings")
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring)
        ext, lift, drop = _extension(self.ring, 1)
        t = ext.variable(0)
        one = ext.one()
        gens = [t * lift(g) for g in self.generators]
        gens += [(one - t) * lift(g) for g in other.generators]
        eliminated = _eliminate(Ideal(ext, gens), 1)
        return Ideal(self.ring, [drop(g) for g in eliminated])

    def colon(self, f: MultiPoly) -> "Ideal":
        """(I : f) = {r : r*f in I}."""
        if f.is_zero():
            raise DomainError("colon by the zero polynomial")
        if self.is_zero():
            return Ideal(self.ring)
        if f.is_constant():
            return self
        inter = self.intersect(Ideal(self.ring, [f]))
        return Ideal(self.ring, [exact_div(g, f) for g in inter.generators])

    def colon_ideal(self, other: "Ideal") -> "Ideal":
        """(I : J) = intersection of (I : g) over generators g of J."""
        if other.is_zero():
            return Ideal(self.ring, [self.ring.one()])
        result = None
        for g in other.generators:
            piece = self.colon(g)
            result = piece if result is None else result.intersect(piece)
        return result

    def radical_contains(self, f: MultiPoly) -> bool:
        """f in sqrt(I), by the auxiliary-variable trick: 1 in I + (1 - w f)."""
        if f.is_zero():
            return True
        if self.is_zero():
            return False
        ext, lift, _ = _extension(self.ring, 1)
        w = ext.variable(0)
        gens = [lift(g) for g in self.generators]
        gens.append(ext.one() - w * lift(f))
        return Ideal(ext, gens).is_unit()

    def leading_term_exponents(self) -> frozenset[Exponents]:
        return _minimalize(g.leading_monomial() for g in self.groebner())

    def krull_dimension(self) -> int:
        """Krull dimension of R/I, from the leading-term monomial ideal."""
        if self.is_unit():
            raise DomainError("Krull dimension of the unit ideal quotient")
        if self.is_zero():
            return self.ring.arity
        lts = self.leading_term_exponents()
        supports = [frozenset(i for i, e in enumerate(exps) if e) for exps in lts]
        n = self.ring.arity
        best = 0
        for size in range(n, 0, -1):
            for combo in itertools.combinations(range(n), size):
                S = set(combo)
                if all(not sup <= S for sup in supports):
                    return size
        return best

    def quotient_length(self) -> ExtendedNatural:
        """dim_{F_p} R/I as a vector space: the number of standard monomials."""
        if self.is_zero():
            return INFINITY
        if self.is_unit():
            return 0
        lts = self.leading_term_exponents()
        n = self.ring.arity
        # finite iff every variable admits a pure power among leading terms
        for i in range(n):
            if not any(e[i] and all(x == 0 for j, x in enumerate(e) if j != i) for e in lts):
                return INFINITY
        return _count_standard(lts, n)


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=65536)
def _count_standard(lts: frozenset[Exponents], nvars: int) -> int:
    """Count monomials outside the monomial ideal generated by ``lts``
    (finitely many: every variable has a pure power in ``lts``)."""
    if any(not any(e) for e in lts):
        return 0
    if nvars == 0:
        return 1
    bound = min(e[-1] for e in lts if all(x == 0 for x in e[:-1]))
    total = 0
    for a in range(bound):
        sliced = _minimalize(e[:-1] for e in lts if e[-1] <= a)
        total += _count_standard(sliced, nvars - 1)
    return total


# ---------------------------------------------------------------------------
# elimination helpers


def _extension(ring: Ring, extra: int) -> tuple[Ring, callable, callable]:
    """Ring with ``extra`` fresh variables prepended and a block elimination
    order; returns (ext_ring, lift, drop)."""
    fresh = tuple(f"@t{i}" for i in range(extra))
    ext = Ring(ring.characteristic, fresh + ring.variables, BlockOrder(extra))
    pad = (0,) * extra

    def lift(f: MultiPoly) -> MultiPoly:
        return _raw(ext, {pad + exps: c for exps, c in f.terms.items()})

    def drop(f: MultiPoly) -> MultiPoly:
        return _raw(ring, {exps[extra:]: c for exps, c in f.terms.items()})

    return ext, lift, drop


def _eliminate(ideal: Ideal, head: int) -> list[MultiPoly]:
    """Groebner basis elements free of the first ``head`` variables."""
    out = []
    for g in ideal.groebner():
        if all(all(e == 0 for e in exps[:head]) for exps in g.terms):
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# gcd / lcm via intersections of principal ideals


def poly_lcm(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    if f.is_zero() or g.is_zero():
        return f.ring.zero()
    inter = Ideal(f.ring, [f]).intersect(Ideal(f.ring, [g])).groebner()
    if len(inter) != 1:
        raise DomainError("intersection of principal ideals is not principal")
    return inter[0].monic()


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic gcd in the UFD F_p[x]: f*g / lcm(f, g)."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    lcm = poly_lcm(f, g)
    return exact_div((f * g).monic(), lcm).monic()
