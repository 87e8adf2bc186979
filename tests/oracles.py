"""Independent brute-force oracles used to validate the fast implementations.

Each oracle recomputes a result by a different route than the library:
theta-fingerprint class separation instead of Gauss reduction, dual-coset
and closure-grown isotropic subgroups instead of a Hermite-form search,
permutation-expansion determinants instead of fraction-free elimination.
Tests freeze oracle outputs or compare them directly against library
results.  `root_gram` builds the root-lattice Gram matrices that the
`kodaira` catalog's closed forms are checked against.
"""

from __future__ import annotations

import itertools
import math

from invcycle.lattice import GramLattice


def det_permutation_expansion(matrix):
    """Exact determinant by signed permutation sum; fine for n <= 5."""
    n = len(matrix)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


def theta_fingerprint(a, b, c, bound):
    """Multiset of values Q(x,y) = a x^2 + b x y + c y^2 <= bound.

    Q(x,y) <= t forces x^2 <= 4 c t / disc and y^2 <= 4 a t / disc, so the
    search box is finite.  The fingerprint is an isometry invariant of the
    lattice with Gram [[2a, b], [b, 2c]].
    """
    disc = 4 * a * c - b * b
    if disc <= 0:
        raise ValueError("form must be positive definite")
    xmax = math.isqrt(4 * c * bound // disc) + 1
    ymax = math.isqrt(4 * a * bound // disc) + 1
    values = []
    for x in range(-xmax, xmax + 1):
        for y in range(-ymax, ymax + 1):
            q = a * x * x + b * x * y + c * y * y
            if 0 < q <= bound:
                values.append(q)
    return tuple(sorted(values))


def binary_classes_by_theta(disc):
    """All isometry classes of even positive definite binary forms of a
    given discriminant, separated by theta fingerprints.

    Candidate triples sweep b over the full signed range so the class
    separation does not depend on any particular reduction convention.
    Returns the sorted list of fingerprints, one per class.
    """
    if disc <= 0:
        return []
    bound = 2 * disc
    fingerprints = set()
    amax = math.isqrt(disc // 3)
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            num = disc + b * b
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            fingerprints.add(theta_fingerprint(a, b, c, bound))
    return sorted(fingerprints)


def dual_quotient_elements(gram):
    """All elements of L*/L for a rank-2 positive definite Gram matrix.

    Elements are integer pairs (e0, e1) taken mod det, standing for the
    class of (e0/det, e1/det) in L-coordinates; computed from the adjugate
    so the route shares nothing with the Smith-form code.
    """
    (g00, g01), (g10, g11) = gram
    det = g00 * g11 - g01 * g10
    if det <= 0:
        raise ValueError("oracle expects positive definite input")
    adj = ((g11, -g01), (-g10, g00))
    elements = set()
    for k0 in range(det):
        for k1 in range(det):
            e0 = (adj[0][0] * k0 + adj[0][1] * k1) % det
            e1 = (adj[1][0] * k0 + adj[1][1] * k1) % det
            elements.add((e0, e1))
    return sorted(elements)


def _closure(generators, det):
    zero = (0, 0)
    group = {zero}
    frontier = [zero]
    while frontier:
        c0, c1 = frontier.pop()
        for g0, g1 in generators:
            nxt = ((c0 + g0) % det, (c1 + g1) % det)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return frozenset(group)


def even_overlattices_bruteforce(gram, index):
    """Even overlattices of a rank-2 lattice with the given index, found by
    enumerating order-`index` subgroups of L*/L from one- and two-element
    generating sets and rebuilding each candidate lattice from scratch.

    Returns the sorted list of reduced coefficient triples (a, b, c), one
    entry per distinct overlattice (not per isometry class).
    """
    det = det_permutation_expansion(gram)
    if det <= 0:
        raise ValueError("oracle expects positive definite input")
    if (det % (index * index)) != 0:
        return []
    # Lagrange: every element of an order-`index` subgroup is index-torsion.
    torsion = [
        e
        for e in dual_quotient_elements(gram)
        if (e[0] * index) % det == 0 and (e[1] * index) % det == 0
    ]
    subgroups = set()
    for p in torsion:
        group = _closure([p], det)
        if len(group) == index:
            subgroups.add(group)
    for p, q in itertools.combinations(torsion, 2):
        group = _closure([p, q], det)
        if len(group) == index:
            subgroups.add(group)
    results = []
    for group in sorted(subgroups, key=sorted):
        triple = _lattice_from_subgroup(gram, det, group, index)
        if triple is not None:
            results.append(triple)
    return sorted(results)


def _lattice_from_subgroup(gram, det, group, index):
    """Return the reduced (a, b, c) of M = L + <group> if it is even integral.

    Rows over Z^2 generate det * M; the Gram of M is rebuilt directly and
    rescaled by det^2.
    """
    rows = [[det, 0], [0, det]]
    for e0, e1 in group:
        rows.append([e0, e1])
    basis = _row_basis(rows)
    if basis is None:
        return None
    g = [
        [
            sum(basis[i][r] * gram[r][s] * basis[j][s] for r in range(2) for s in range(2))
            for j in range(2)
        ]
        for i in range(2)
    ]
    if any(g[i][j] % (det * det) for i in range(2) for j in range(2)):
        return None
    g = [[g[i][j] // (det * det) for j in range(2)] for i in range(2)]
    if g[0][0] % 2 or g[1][1] % 2:
        return None
    if det_permutation_expansion(g) * index * index != det:
        return None
    return reduce_triple(g[0][0] // 2, g[0][1], g[1][1] // 2)


def _row_basis(rows):
    """Two independent rows spanning the same row lattice, via repeated gcd
    elimination in the first column; independent of the library's HNF."""
    rows = [list(r) for r in rows if any(r)]
    while True:
        nonzero = [r for r in rows if r[0]]
        if len(nonzero) <= 1:
            break
        nonzero.sort(key=lambda r: abs(r[0]))
        pivot = nonzero[0]
        for r in nonzero[1:]:
            q = r[0] // pivot[0]
            r[0] -= q * pivot[0]
            r[1] -= q * pivot[1]
        rows = [r for r in rows if any(r)]
    first = next((r for r in rows if r[0]), None)
    rest = [r for r in rows if not r[0] and r[1]]
    if first is None or not rest:
        return None
    g = 0
    for r in rest:
        g = math.gcd(g, r[1])
    return [first, [0, g]]


def even_overlattices_by_closure(gram, index):
    """Even overlattices of index m = `index` of a nondegenerate even
    lattice L of any rank and signature, as sorted Gram matrices.

    An element k of (Z/m)^n stands for k/m in L's coordinates.  The ones
    that can lie in an even overlattice are dual (gram k = 0 mod m) and
    isotropic (k gram k = 0 mod 2m^2); a subgroup of order m made of such
    elements only is an isotropic subgroup of (1/m)L/L, and L + S/m is the
    overlattice.  Subgroups are grown from generating sets, one element at
    a time, by closure.  Each result's basis is read off its element set
    by minimality: row i is the element with zeros after place i, the
    least positive entry there (m when none is below m), and entries before
    it below the pivots of their rows.  That is the basis the library
    returns, found without any row reduction.
    """
    n, m = len(gram), index
    mm = m * m

    def pair(u, v):
        return sum(u[p] * gram[p][q] * v[q] for p in range(n) for q in range(n))

    isotropic = {
        k
        for k in itertools.product(range(m), repeat=n)
        if all(sum(g[q] * k[q] for q in range(n)) % m == 0 for g in gram)
        and pair(k, k) % (2 * mm) == 0
    }
    zero = (0,) * n

    def grow(group, g):
        # group + <g>: the cosets of group by the multiples of g until one lands in it.
        grown, step = set(group), g
        while step not in group:
            grown |= {tuple((h + s) % m for h, s in zip(member, step)) for member in group}
            step = tuple((s + x) % m for s, x in zip(step, g))
        return frozenset(grown)

    seen = {frozenset({zero})}
    frontier = list(seen)
    found = set()
    while frontier:
        group = frontier.pop()
        if len(group) == m:
            found.add(group)
            continue
        for g in isotropic - group:
            grown = grow(group, g)
            if m % len(grown) == 0 and grown <= isotropic and grown not in seen:
                seen.add(grown)
                frontier.append(grown)
    results = []
    for group in found:
        basis = []
        for i in range(n):
            tail = [k for k in group if k[i] > 0 and not any(k[i + 1:])]
            pivot = min((k[i] for k in tail), default=m)
            if pivot == m:
                basis.append([m if j == i else 0 for j in range(n)])
                continue
            (row,) = [k for k in tail if k[i] == pivot and all(k[j] < basis[j][j] for j in range(i))]
            basis.append(list(row))
        results.append(tuple(tuple(pair(u, v) // mm for v in basis) for u in basis))
    return sorted(results)


def reduce_triple(a, b, c):
    """Gauss reduction to 0 <= b <= a <= c, textbook loop, kept separate
    from the library implementation."""
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            k = (a - b) // (2 * a)
            c = c + a * k * k + b * k
            b = b + 2 * a * k
            continue
        break
    if b < 0:
        b = -b
    return (a, b, c)


def random_even_posdef_gram(rng, max_entry=10, max_det=100):
    """One random even positive definite rank-2 Gram with det <= max_det."""
    while True:
        a = rng.randint(1, max_entry)
        c = rng.randint(1, max_entry)
        b = rng.randint(-max_entry, max_entry)
        det = 4 * a * c - b * b
        if 0 < det <= max_det:
            return [[2 * a, b], [b, 2 * c]]


def even_posdef_binary_scan(disc):
    """Reduced even positive definite binary forms of discriminant `disc`,
    as sorted (a, b, c) triples with 0 <= b <= a <= c.

    Scans every a with 3a^2 <= disc and every b in [0, a] for an integral
    c = (disc + b^2) / 4a: about disc / 6 steps, with none of the modular
    square-root arithmetic of the library's enumeration.
    """
    out = []
    a = 1
    while 3 * a * a <= disc:
        four_a = 4 * a
        for b in range(a + 1):
            num = disc + b * b
            if num % four_a == 0 and num // four_a >= a:
                out.append((a, b, num // four_a))
        a += 1
    return out


def max_square_divisor_root_scan(disc):
    """The largest m with m^2 | disc, trying every m up to isqrt(disc):
    O(sqrt(disc)) steps and no factoring, the reference for
    `transcendental.square_divisor_primes`."""
    return max((m for m in range(2, math.isqrt(disc) + 1) if disc % (m * m) == 0), default=1)


def resolve_by_classes(candidates, classes, facts, context_tokens, bound_failure):
    """Discriminant resolution by one pass over every class of every
    candidate, the reference for `transcendental.resolve_disc`.

    `classes` maps each candidate disc to its reduced (a, b, c) triples.
    `facts` are records with `kind`, `form` (with `a`, `b`, `c`), `fibers`
    and `provenance`; the first fact whose form reduces to a class
    excludes it, and a fibration fact counts only when its sorted fibers
    are `context_tokens`.  `bound_failure(disc)` is the height-bound
    failure text for disc, or None.  Returns the certificate as
    (alpha, disc, excluded, reason, [(triple, provenance, kind), ...])
    per candidate, the surviving (alpha, disc) pairs, and the one class
    left overall as a triple, or None.
    """
    excluding = {}
    for fact in facts:
        if fact.kind == "denominator_bound":
            continue
        if fact.kind == "no_fibration_with_fibers" and tuple(sorted(fact.fibers)) != tuple(context_tokens):
            continue
        excluding.setdefault(reduce_triple(fact.form.a, fact.form.b, fact.form.c), fact)
    certificate, surviving, live = [], [], []
    for alpha, disc in candidates:
        verdicts = []
        for triple in classes[disc]:
            hit = excluding.get(triple)
            verdicts.append((triple, hit and hit.provenance, hit and hit.kind))
        reason = None if verdicts else "no even positive-definite binary form has this discriminant"
        for fact in facts:
            if fact.kind == "denominator_bound" and reason is None:
                failure = bound_failure(disc)
                if failure is not None:
                    reason = f"{failure} [{fact.provenance}]"
        excluded = reason is not None or all(provenance is not None for _t, provenance, _k in verdicts)
        certificate.append((alpha, disc, excluded, reason, verdicts))
        if not excluded:
            surviving.append((alpha, disc))
            live += [triple for triple, provenance, _k in verdicts if provenance is None]
    return certificate, surviving, live[0] if len(live) == 1 else None


def root_gram(kind: str, rank: int) -> GramLattice:
    """Positive-definite root lattice Gram matrix of Dynkin type A, D or E.

    No command builds it: the closed forms for rank and determinant (A_n
    has n + 1, D_n has 4, E6/E7/E8 have 3/2/1) live in the `kodaira`
    catalog, and this matrix is the reference the tests check them against.
    """
    if kind == "A":
        if rank < 1:
            raise ValueError("A_n needs n >= 1")
        edges = [(i, i + 1) for i in range(rank - 1)]
    elif kind == "D":
        if rank < 4:
            raise ValueError("D_n needs n >= 4")
        edges = [(i, i + 1) for i in range(rank - 3)]
        edges += [(rank - 3, rank - 2), (rank - 3, rank - 1)]
    elif kind == "E":
        if rank not in (6, 7, 8):
            raise ValueError("E_n needs n in {6, 7, 8}")
        edges = [(i, i + 1) for i in range(rank - 2)]
        edges.append((2, rank - 1))
    else:
        raise ValueError(f"unknown root lattice kind {kind!r}")
    rows = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        rows[i][i] = 2
    for i, j in edges:
        rows[i][j] = -1
        rows[j][i] = -1
    return GramLattice(rows)
