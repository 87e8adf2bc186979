"""Exact arithmetic on integral lattices presented by Gram matrices.

Everything here runs on arbitrary-precision Python integers; no floating
point is used anywhere.  All values are immutable records and all
functions are pure, so the module is safe to use from concurrent
callers.  Inputs are not re-checked: `jsonio.parse_gram` checks each Gram
and `jsonio.parse_form` each binary form from outside, so
`BinaryEvenForm.from_gram` and `reduce_binary` check nothing.  The two
kernels only search: the `lattice` commands refuse input outside their
contracts.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import attrgetter, mul
from typing import Iterable, Iterator, Sequence


class FrozenRecord:
    """Immutable record over __slots__, as @dataclass(frozen=True) makes one.

    Instances are equal field by field, and only to instances of the same
    class: a plain tuple never equals a record.  The hash is that of the
    field tuple, the repr is `Name(field=value, ...)`, and assigning or
    deleting an attribute raises AttributeError.

    A subclass lists its fields in __slots__; __init__ here stores them
    in that order, passed by position or by keyword.  It calls each slot
    descriptor's own __set__, cached per class, which gets past the
    raising __setattr__ without looking a name up per field; a call by
    position skips matching names to fields.  A record only stores:
    `jsonio` checks every record built from outside input, once.
    The one record with its own __init__ is `GramLattice`, which converts
    its rows to tuples and ends in super().__init__(...).

    Written out because @dataclass builds its methods through exec and
    importing dataclasses loads inspect: no command loads either, and a
    command's run takes milliseconds.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        values = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:
            # attrgetter of a single name returns the bare value.
            cls._values = property(lambda self: (values(self),))
        else:
            cls._values = property(values)  # the field tuple
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values, **fields) -> None:
        setters = self._setters
        if fields or len(values) != len(setters):
            values = self._arguments(values, fields)
        for set_field, value in zip(setters, values):
            set_field(self, value)

    @classmethod
    def _arguments(cls, values: tuple, fields: dict) -> tuple:
        """The field tuple from positional and keyword arguments, with the
        TypeError a hand-written signature would raise for a bad call."""
        names, name = cls.__slots__, cls.__qualname__
        if len(values) > len(names):
            raise TypeError(f"{name}() takes {len(names)} arguments but {len(values)} were given")
        for field in names[:len(values)]:
            if field in fields:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
        for field in fields:
            if field not in names:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
        rest = names[len(values):]
        for field in rest:
            if field not in fields:
                raise TypeError(f"{name}() missing argument {field!r}")
        return values + tuple(fields[field] for field in rest)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values


class GramLattice(FrozenRecord):
    """An integral lattice in a fixed basis, held as its Gram matrix.

    The rows are stored as given, as tuples; `jsonio.parse_gram` checks
    a Gram from outside.  Rank 0 (the empty lattice) is allowed: it has
    determinant 1 by the empty-product convention.
    """

    __slots__ = ("gram",)

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        super().__init__(tuple(map(tuple, rows)))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return _det_bareiss([list(row) for row in self.gram])

    def disc(self) -> int:
        """Absolute value of the determinant."""
        return abs(self.det())

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))


def _det_bareiss(m: list[list[int]]) -> int:
    # Fraction-free Gaussian elimination; exact over the integers.
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # Returns (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g.
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Smith normal form over Z.

    Returns (D, U, V) with U * matrix * V = D, U and V unimodular, D
    diagonal with nonnegative entries satisfying d1 | d2 | ... (zeros,
    if any, at the end).
    """
    d = [list(row) for row in matrix]
    r = len(d)
    c = len(d[0]) if r else 0
    for row in d:
        if len(row) != c:
            raise ValueError("matrix rows must have equal length")
    u = _identity(r)
    v = _identity(c)

    def row_combine(i: int, j: int, a: int, b: int, a2: int, b2: int) -> None:
        # rows i, j <- (a*row_i + b*row_j, a2*row_i + b2*row_j) in d and u
        for mat in (d, u):
            ri, rj = mat[i], mat[j]
            for k in range(len(ri)):
                ri[k], rj[k] = a * ri[k] + b * rj[k], a2 * ri[k] + b2 * rj[k]

    def col_combine(i: int, j: int, a: int, b: int, a2: int, b2: int) -> None:
        for mat in (d, v):
            for row in mat:
                row[i], row[j] = a * row[i] + b * row[j], a2 * row[i] + b2 * row[j]

    t = 0
    while t < min(r, c):
        piv = None
        for i in range(t, r):
            for j in range(t, c):
                if d[i][j] != 0 and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            d[t], d[piv[0]] = d[piv[0]], d[t]
            u[t], u[piv[0]] = u[piv[0]], u[t]
        if piv[1] != t:
            for mat in (d, v):
                for row in mat:
                    row[t], row[piv[1]] = row[piv[1]], row[t]
        while True:
            for i in range(t + 1, r):
                if d[i][t] == 0:
                    continue
                a, b = d[t][t], d[i][t]
                if b % a == 0:
                    q = b // a
                    row_combine(t, i, 1, 0, -q, 1)
                else:
                    g, x, y = _xgcd(a, b)
                    row_combine(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, c):
                if d[t][j] == 0:
                    continue
                a, b = d[t][t], d[t][j]
                if b % a == 0:
                    q = b // a
                    col_combine(t, j, 1, 0, -q, 1)
                else:
                    g, x, y = _xgcd(a, b)
                    col_combine(t, j, x, y, -(b // g), a // g)
            if any(d[i][t] for i in range(t + 1, r)):
                continue  # column ops disturbed the cleared column
            off = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if d[i][j] % d[t][t] != 0:
                        off = i
                        break
                if off is not None:
                    break
            if off is None:
                break
            # Absorb the offending row so the pivot divides the whole block.
            row_combine(t, off, 1, 1, 0, 1)
        t += 1
    for i in range(min(r, c)):
        if d[i][i] < 0:
            for k in range(c):
                d[i][k] = -d[i][k]
            for k in range(r):
                u[i][k] = -u[i][k]
    freeze = lambda m: tuple(tuple(row) for row in m)  # noqa: E731
    return freeze(d), freeze(u), freeze(v)


class BinaryEvenForm(FrozenRecord):
    """Even binary form with Gram matrix [[2a, b], [b, 2c]].

    Forms compare for equality only: nothing in the package sorts them.
    The coefficients are stored as given, unchecked.
    """

    __slots__ = ("a", "b", "c")

    @property
    def disc(self) -> int:
        return 4 * self.a * self.c - self.b * self.b

    def gram(self) -> GramLattice:
        return GramLattice([[2 * self.a, self.b], [self.b, 2 * self.c]])

    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.disc > 0

    @classmethod
    def from_gram(cls, lattice: GramLattice) -> "BinaryEvenForm":
        """The form of an even rank-2 lattice, unchecked: `jsonio.parse_form`
        checks a Gram from outside, and an even overlattice of a binary form
        is one."""
        g = lattice.gram
        return cls(g[0][0] // 2, g[0][1], g[1][1] // 2)


def reduce_binary(form: BinaryEvenForm) -> BinaryEvenForm:
    """Gauss-reduced representative with 0 <= b <= a <= c.

    Equivalence is taken up to lattice isometry, so the sign of b is
    normalized away; ties a = c or b = a keep b >= 0.  The form must be
    positive definite, which `jsonio.parse_form` checks for outside input.
    """
    a, b, c = form.a, form.b, form.c
    while True:
        if b > a or b <= -a:
            k = (a - b) // (2 * a)  # unique shift with -a < b + 2ak <= a
            c = a * k * k + b * k + c
            b = b + 2 * a * k
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if b < 0:
        b = -b
    return BinaryEvenForm(a, b, c)


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[k] is the smallest prime factor of k, for 2 <= k <= n."""
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for k in range(p * p, n + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def _sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo an odd prime p (Tonelli-Shanks), or None."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t = pow(z, q, p), pow(n, (q + 1) // 2, p), pow(n, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        r, c, s = r * b % p, b * b % p, i
        t = t * c % p
    return r


def _lift_roots(roots: list[int], n: int, p: int, q: int) -> list[int]:
    """Roots of x^2 = n modulo q * p from the roots modulo q, a power of p.

    Each root modulo q has p candidate lifts; the true roots are kept.
    Unlike Hensel's lemma this also covers p | n and p = 2, where a root
    may have no lift or several.
    """
    qp = q * p
    return [x for r in roots for x in range(r, qp, q) if (x * x - n) % qp == 0]


# Largest discriminant enumerate_even_posdef_binary is run on.  Its time
# and memory grow as sqrt(disc), as does the class list it returns: at
# this limit about 1 s and 70 MiB on a 2-vCPU x86-64 VM.
MAX_CLASS_DISC = 10**12


def enumerate_even_posdef_binary(disc: int) -> list[tuple[int, int, int]]:
    """All reduced even positive-definite binary forms of discriminant disc,
    as (a, b, c) tuples: a class list is built, bisected and rendered
    without a `BinaryEvenForm` per class.

    Sorted lexicographically; empty when none exist.

    A reduced form has 3a^2 <= disc and 0 <= b <= a, and c = (disc + b^2)
    / 4a is integral exactly when b^2 = -disc (mod 4a).  So for each a
    the candidate b are the square roots of -disc modulo 4a in [0, a]:
    roots modulo each prime power of 4a, from a smallest-prime-factor
    table, joined by the Chinese remainder theorem (Cohen, GTM 138,
    5.3).  A prime power with no root rules out all its multiples at
    once.  The cost is about sqrt(disc) times small factors, not the
    disc / 6 steps of a scan over every (a, b).  disc is unchecked: the
    `lattice enumerate` command and `jsonio` keep 1 <= disc <= MAX_CLASS_DISC.
    """
    if disc % 4 in (1, 2):
        return []  # b^2 = -disc (mod 4) has no solution
    a_max = math.isqrt(disc // 3)
    spf = _smallest_prime_factors(a_max)
    # Roots of x^2 = -disc modulo every prime power q that divides some
    # 4a; a power q of 2 divides 4a when q / 4 divides a.
    roots_of: dict[int, list[int]] = {}
    alive = bytearray([0]) + bytearray([1]) * a_max  # alive[a]: a may still carry forms
    odd_primes = [p for p in range(3, a_max + 1) if spf[p] == p]
    for p in [2] + odd_primes:
        if p == 2:
            q, step, roots = 4, 1, _lift_roots([disc % 2], -disc, 2, 2)
        else:
            r = _sqrt_mod_prime(-disc, p)
            q, step, roots = p, p, [] if r is None else sorted({r, -r % p})
        while True:
            roots_of[q] = roots
            if not roots:  # then no multiple of step is a valid a
                alive[step::step] = bytes(len(range(step, a_max + 1, step)))
                break
            step *= p
            if step > a_max:
                break
            q, roots = q * p, _lift_roots(roots, -disc, p, q)
    out = []
    for a in compress(range(a_max + 1), alive):
        v = (a & -a).bit_length() - 1  # a = 2^v * k with k odd
        k, modulus = a >> v, 4 << v
        bs = roots_of[modulus]
        while k > 1:
            p = q = spf[k]
            k //= p
            while k % p == 0:
                k, q = k // p, q * p
            inv = pow(modulus, -1, q)
            bs = [b + modulus * ((r - b) * inv % q) for b in bs for r in roots_of[q]]
            modulus *= q
        for b in sorted(bs):
            if b > a:
                break
            c = (disc + b * b) // (4 * a)
            if c >= a:
                out.append((a, b, c))
    return out


def sublattice_index_from_discs(d_sub: int, d_sup: int) -> int | None:
    """Index of a finite-index sublattice from the two discriminants.

    d_sub = index^2 * d_sup, so the index is the square root of the ratio,
    or None when that is no integer's square.  Both are discs of
    positive-definite forms.
    """
    ratio, rest = divmod(d_sub, d_sup)
    root = math.isqrt(ratio)
    return root if rest == 0 and root * root == ratio else None


# Largest m^(rank - 1) that enumerate_even_overlattices is run on for
# index m: the index in Z^rank of the lattices its search walks, whose
# number grows with it.  The search also scans 1..m for the divisors of m,
# so at rank 0 and 1 the limit bounds m.  At this limit the slowest input
# without an overlattice that a random search found took 0.16 s on a
# 2-vCPU x86-64 VM; inputs with thousands of overlattices take time per
# overlattice returned.
MAX_OVERLATTICE_SEARCH = 10**4


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _hermite_offsets(
    basis: list[list[int]], c: int, j: int, rest: list[int], x: list[int],
) -> Iterator[list[int]]:
    """Every x with 0 <= x[j] < basis[j][j] and c * x in the row span of basis.

    basis is lower-triangular with positive pivots, so membership is
    settled column by column from the last: what is left of column j
    must be a multiple of its pivot, a linear congruence in x[j] with
    gcd(c, pivot) solutions or none.  The search starts at the last
    column j with rest all zero and x empty; x holds the entries chosen
    past column j, last first, and column k of c * x minus the rows
    after j taken off it is c * x[k] + rest[k].
    """
    if j < 0:
        yield x[::-1]
        return
    pivot = basis[j][j]
    g = math.gcd(c, pivot)
    if rest[j] % g:
        return
    step = pivot // g
    first = -(rest[j] // g) * pow(c // g, -1, step) % step
    for xj in range(first, pivot, step):
        q = (c * xj + rest[j]) // pivot
        rest_left = [r - q * b for r, b in zip(rest, basis[j][:j])]
        yield from _hermite_offsets(basis, c, j - 1, rest_left, x + [xj])


def _even_hermite_grams(gram: tuple[tuple[int, ...], ...], m: int) -> list[GramLattice]:
    """The Grams over m^2 of the Hermite bases that survive the search."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    grams: list[GramLattice] = []
    _extend_hermite(gram, m, divisors, [], [], 1, grams)
    return grams


def _extend_hermite(
    gram: tuple[tuple[int, ...], ...], m: int, divisors: list[int],
    basis: list[list[int]], images: list[list[int]], index: int, grams: list[GramLattice],
) -> None:
    """Append to grams the Gram over m^2 of each surviving completion of
    basis, whose pivots multiply to index; images holds gram times each
    row of basis.  A module-level recursion: a nested closure that calls
    itself is a reference cycle, left for the cyclic collector per call."""
    n, i, mm = len(gram), len(basis), m * m
    if i == n:
        grams.append(GramLattice([[_dot(u, image) // mm for u in basis] for image in images]))
        return
    room = m ** (n - 1 - i)  # the largest product the later pivots can reach
    for d in divisors:
        left, r = divmod(m ** (n - 1), index * d)  # the product the later pivots must reach
        if r or room % left:
            continue
        for x in _hermite_offsets(basis, m // d, i - 1, [0] * i, []):
            row = x + [d] + [0] * (n - 1 - i)
            image = [_dot(g, row) for g in gram]
            if _dot(row, image) % (2 * mm) or any(_dot(u, image) % mm for u in basis):
                continue
            _extend_hermite(gram, m, divisors, basis + [row], images + [image], index * d, grams)


def enumerate_even_overlattices(lattice: GramLattice, m: int) -> list[GramLattice]:
    """Even integral overlattices of index m, up to the ambient embedding.

    An overlattice M of index m has m * M inside the input lattice L, so
    in L's coordinates M is (1/m) * Λ for a lattice Λ with m * Z^n ⊆ Λ ⊆
    Z^n and [Z^n : Λ] = m^(n-1).  M is even exactly when M/L is an
    isotropic subgroup of the discriminant form (Nikulin 1979, §1.4):
    the Gram of Λ is 0 mod m^2 with diagonal 0 mod 2m^2.  The search
    walks the lower-triangular Hermite bases of these Λ (Cohen, GTM 138,
    §2.4) one row at a time.  Each pivot divides m and the entries below
    a pivot lie in [0, pivot).  A partial basis is dropped as soon as its
    new row's norm is not 0 mod 2m^2, its pairing with an earlier row is
    not 0 mod m^2, or m * e_i is not in the span of its rows.

    Each result is returned in that canonical basis: its rows are the
    Hermite basis over (1/m) times the input basis.  Results are sorted
    by Gram matrix; det(result) = det(input) / m^2.  The input is
    unchecked: the lattice is even and nondegenerate, 2 <= m, m^2 | det
    (else there is no overlattice) and m^max(rank-1, 1) is at most
    MAX_OVERLATTICE_SEARCH, as the `lattice overlattices` command and
    `rigidity_transfer` ensure.
    """
    return sorted(_even_hermite_grams(lattice.gram, m), key=attrgetter("gram"))
