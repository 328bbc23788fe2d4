"""Exact arithmetic over prime fields F_p and sparse multivariate polynomials.

Coefficients are least nonnegative residues modulo a prime p; inverses come
from the extended Euclidean algorithm (``pow(c, -1, p)``).  Exponents are
arbitrary-precision integers.  A polynomial is a map from exponent vectors to
nonzero coefficients, so two polynomials are equal exactly when their term
maps are, and every operation returns this canonical form.  No floating point
is ever introduced.

Values (rings, polynomials) are immutable after construction and may be
shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _add
from typing import Iterable, Iterator, Mapping, Sequence

Rational = Fraction


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


class RingMismatchError(DomainError):
    """Operands live in different polynomial rings."""


# ---------------------------------------------------------------------------
# small number theory helpers

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the first 13 prime bases decide every n below this (Sorenson-Webster 2015)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below _MR_BOUND; larger n raise
    DomainError rather than get a guess."""
    if n >= _MR_BOUND:
        raise DomainError(f"cannot decide whether {n} is prime (too large)")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def p_adic_split(n: int, p: int) -> tuple[int, int]:
    """Return (g, d) with n = p**g * d and gcd(d, p) = 1."""
    if n <= 0:
        raise DomainError("p-adic split needs a positive integer")
    g = 0
    while n % p == 0:
        n //= p
        g += 1
    return g, n


def multiplicative_order(a: int, m: int) -> int:
    """Least h >= 1 with a**h == 1 mod m (m >= 1, gcd(a, m) = 1)."""
    if m == 1:
        return 1
    a %= m
    x, h = a, 1
    while x != 1:
        x = x * a % m
        h += 1
        if h > m:
            raise DomainError(f"{a} is not a unit modulo {m}")
    return h


def ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def floor_fraction(x: Fraction) -> int:
    return x.numerator // x.denominator


# ---------------------------------------------------------------------------
# extended naturals


class _Infinity:
    """The greatest element of the extended naturals (compares above any int)."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INFINITY

    def __gt__(self, other):
        return other is not INFINITY

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "infinity"

    def __str__(self):
        return "infinity"


INFINITY = _Infinity()

ExtendedNatural = int | _Infinity


# ---------------------------------------------------------------------------
# monomial orders

Exponents = tuple[int, ...]


class TermOrder:
    """A total order on exponent vectors refining divisibility.

    ``key(exps)`` returns a sort key; larger key = larger monomial.
    """

    name: str = "?"

    def key(self, exps: Exponents):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class GrevLex(TermOrder):
    """Graded reverse lexicographic order (the default)."""

    name = "grevlex"

    def key(self, exps: Exponents):
        return (sum(exps), tuple(-e for e in reversed(exps)))


class Lex(TermOrder):
    """Pure lexicographic order, first variable largest."""

    name = "lex"

    def key(self, exps: Exponents):
        return exps


class BlockOrder(TermOrder):
    """Product order eliminating the first ``head`` variables.

    Head and tail blocks are each compared by grevlex; the head block
    dominates, which gives the elimination property for the head variables.
    """

    def __init__(self, head: int):
        self.head = head
        self.name = f"elim{head}"

    def key(self, exps: Exponents):
        h, t = exps[: self.head], exps[self.head :]
        return (
            (sum(h), tuple(-e for e in reversed(h))),
            (sum(t), tuple(-e for e in reversed(t))),
        )


GREVLEX = GrevLex()
LEX = Lex()

ORDERS = {"grevlex": GREVLEX, "lex": LEX}


# ---------------------------------------------------------------------------
# rings and polynomials


def add_exps(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(_add, a, b))


class Ring:
    """F_p[x_1, ..., x_n] with a fixed monomial order."""

    __slots__ = ("characteristic", "variables", "order", "_zero_exps", "_hash")

    def __init__(self, characteristic: int, variables: Sequence[str], order: TermOrder = GREVLEX):
        if not is_prime(characteristic):
            raise DomainError(f"characteristic {characteristic} is not prime")
        variables = tuple(variables)
        if not variables:
            raise DomainError("a polynomial ring needs at least one variable")
        if len(set(variables)) != len(variables) or any(not v for v in variables):
            raise DomainError("variable names must be nonempty and distinct")
        object.__setattr__(self, "characteristic", characteristic)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_zero_exps", (0,) * len(variables))
        object.__setattr__(self, "_hash", hash((characteristic, variables, order.name)))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Ring is immutable")

    @property
    def arity(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.characteristic == other.characteristic
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ZZ/{self.characteristic}[{','.join(self.variables)}]"

    def with_order(self, order: TermOrder) -> "Ring":
        return Ring(self.characteristic, self.variables, order)

    # constructors ---------------------------------------------------------

    def zero(self) -> "MultiPoly":
        return _raw(self, {})

    def one(self) -> "MultiPoly":
        return _raw(self, {self._zero_exps: 1})

    def constant(self, c: int) -> "MultiPoly":
        c %= self.characteristic
        return _raw(self, {self._zero_exps: c} if c else {})

    def variable(self, which: int | str) -> "MultiPoly":
        i = which if isinstance(which, int) else self.variables.index(which)
        exps = [0] * self.arity
        exps[i] = 1
        return _raw(self, {tuple(exps): 1})

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "MultiPoly":
        return self.poly({tuple(exps): coeff})

    def poly(self, terms: Mapping[Exponents, int] | Iterable[tuple[Exponents, int]]) -> "MultiPoly":
        items = terms.items() if isinstance(terms, Mapping) else terms
        p = self.characteristic
        out: dict[Exponents, int] = {}
        for exps, c in items:
            exps = tuple(exps)
            if len(exps) != self.arity:
                raise DomainError("exponent vector length does not match ring arity")
            if any(e < 0 for e in exps):
                raise DomainError("negative exponent")
            c = (out.get(exps, 0) + c) % p
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
        return _raw(self, out)


def _raw(ring: Ring, terms: dict) -> "MultiPoly":
    """Trusted constructor: ``terms`` is already canonical and is adopted."""
    poly = object.__new__(MultiPoly)
    poly.ring = ring
    poly.terms = terms
    poly._lead = None
    poly._hash = None
    return poly


class MultiPoly:
    """Sparse multivariate polynomial over F_p.

    ``terms`` maps exponent tuples to nonzero residues and is treated as
    immutable.  Iteration is in decreasing monomial order, so rendering and
    reduction are deterministic.
    """

    __slots__ = ("ring", "terms", "_lead", "_hash")

    def __init__(self, ring: Ring, terms: Mapping[Exponents, int]):
        built = ring.poly(terms)
        self.ring = ring
        self.terms = built.terms
        self._lead = None
        self._hash = None

    # basic queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_term(self) -> int:
        return self.terms.get(self.ring._zero_exps, 0)

    def degree(self) -> int | None:
        """Total degree; ``None`` for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def support_variables(self) -> tuple[int, ...]:
        """Indices of variables that actually occur."""
        seen = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    seen.add(i)
        return tuple(sorted(seen))

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        key = self.ring.order.key
        return [(e, self.terms[e]) for e in sorted(self.terms, key=key, reverse=True)]

    def __iter__(self) -> Iterator[tuple[Exponents, int]]:
        return iter(self.sorted_terms())

    def __len__(self) -> int:
        return len(self.terms)

    def leading_monomial(self) -> Exponents:
        if not self.terms:
            raise DomainError("the zero polynomial has no leading monomial")
        if self._lead is None:
            self._lead = max(self.terms, key=self.ring.order.key)
        return self._lead

    def leading_coefficient(self) -> int:
        return self.terms[self.leading_monomial()]

    # arithmetic -----------------------------------------------------------

    def _check_ring(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check_ring(other)
        p = self.ring.characteristic
        out = dict(self.terms)
        for exps, c in other.terms.items():
            v = (out.get(exps, 0) + c) % p
            if v:
                out[exps] = v
            else:
                out.pop(exps, None)
        return _raw(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.characteristic
        return _raw(self.ring, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: int) -> "MultiPoly":
        p = self.ring.characteristic
        c %= p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return _raw(self.ring, {e: c * v % p for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_ring(other)
        p = self.ring.characteristic
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Exponents, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(_add, e1, e2))
                v = (out.get(e, 0) + c1 * c2) % p
                if v:
                    out[e] = v
                else:
                    del out[e]
        return _raw(self.ring, out)

    __rmul__ = __mul__

    def multiply_term(self, exps: Exponents, coeff: int) -> "MultiPoly":
        """Multiply by the single term coeff * x^exps."""
        p = self.ring.characteristic
        coeff %= p
        if coeff == 0:
            return self.ring.zero()
        return _raw(
            self.ring,
            {tuple(map(_add, e, exps)): c * coeff % p for e, c in self.terms.items()},
        )

    def monic(self) -> "MultiPoly":
        if self.is_zero():
            return self
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        return self.scale(pow(lc, -1, self.ring.characteristic))

    def _pow_small(self, n: int) -> "MultiPoly":
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __pow__(self, n: int) -> "MultiPoly":
        """f**n via the base-p digits of n: products of Frobenius twists of
        small powers.  Equals the naive power but avoids huge intermediate
        expansions."""
        if n < 0:
            raise DomainError("negative exponent")
        if n == 0:
            return self.ring.one()
        p = self.ring.characteristic
        result = None
        level = 0
        while n:
            d = n % p
            n //= p
            if d:
                piece = self._pow_small(d).frobenius(level)
                result = piece if result is None else result * piece
            level += 1
        return result if result is not None else self.ring.one()

    def frobenius(self, e: int) -> "MultiPoly":
        """f**(p**e): exponents scale by p**e, coefficients are Frobenius-fixed."""
        if e < 0:
            raise DomainError("negative Frobenius exponent")
        if e == 0 or self.is_zero():
            return self
        q = self.ring.characteristic**e
        return _raw(self.ring, {tuple(x * q for x in exps): c for exps, c in self.terms.items()})

    def derivative(self, var_index: int) -> "MultiPoly":
        """Formal partial derivative; exponent multiples reduce mod p."""
        if not 0 <= var_index < self.ring.arity:
            raise DomainError("variable index out of range")
        p = self.ring.characteristic
        out: dict[Exponents, int] = {}
        for exps, c in self.terms.items():
            e = exps[var_index]
            if e == 0:
                continue
            v = c * (e % p) % p
            if not v:
                continue
            ne = list(exps)
            ne[var_index] = e - 1
            ne = tuple(ne)
            v = (out.get(ne, 0) + v) % p
            if v:
                out[ne] = v
            else:
                del out[ne]
        return _raw(self.ring, out)

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.ring.arity:
            raise DomainError("point length does not match ring arity")
        p = self.ring.characteristic
        point = [v % p for v in point]
        total = 0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v = v * pow(x, e, p) % p
                    if v == 0:
                        break
            total = (total + v) % p
        return total

    __call__ = evaluate

    # structure ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.variables
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            if c != 1 or not any(exps):
                factors.append(str(c))
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over {self.ring}>"
