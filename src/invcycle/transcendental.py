"""Transcendental-lattice discriminant analysis for double covers.

Every transcendental lattice here is a rank-2, even, positive-definite
binary form, a `BinaryEvenForm`; `jsonio` checks that once when it parses
the ledger.  A degree-2 cover leaves the covered surface's discriminant
determined only up to a power of 4; candidates are cut down by
externally supplied exclusion facts and the pipeline's height checks,
never by geometry recomputed here.  Rigidity certificates and
specialization indices turn the surviving discriminants into a verdict
about integral invariant cycle lifting.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .lattice import (
    BinaryEvenForm,
    FrozenRecord,
    enumerate_even_overlattices,
    enumerate_even_posdef_binary,
    reduce_binary,
    sublattice_index_from_discs,
)

VERDICT_FAILS = "LICT_fails"
VERDICT_HOLDS_POSSIBLE = "LICT_holds_possible"

FACT_KINDS = ("not_isomorphic_to", "no_fibration_with_fibers", "denominator_bound")


class ExclusionFact(FrozenRecord):
    """An externally certified exclusion, quoted with its provenance.

    kind 'not_isomorphic_to': the lattice cannot be isometric to `form`.
    kind 'no_fibration_with_fibers': no elliptic fibration with the given
    fiber multiset exists on the surface whose lattice is `form`.
    kind 'denominator_bound': candidates are tested against the height
    denominator bound (no payload beyond the provenance).
    """

    __slots__ = ("kind", "form", "fibers", "provenance")


def double_cover_disc_candidates(disc_tx: int) -> list[tuple[int, int]]:
    """Candidate discriminants disc_tx * 2^(2a - 2) for a = 0, 1, 2.

    Covers the possible positions of the rank-2 covered lattice between
    the pushforward and the pullback of the covering one.  `jsonio`
    keeps disc_tx divisible by 4, so every candidate is an integer.
    """
    return [(alpha, disc_tx * 4**alpha // 4) for alpha in range(3)]


class ClassVerdict(FrozenRecord):
    """excluded_by is the provenance of the matching fact."""

    __slots__ = ("form", "excluded_by", "fact_kind")


class CandidateVerdict(FrozenRecord):
    """forms is the disc's sorted tuple of reduced classes as (a, b, c)
    coefficient tuples, shared by the stages; excluded_by maps a position
    in it to the fact that excludes that class.  reason states a
    candidate-level exclusion (bounds, empty genus).  A `BinaryEvenForm`
    is built only when `classes` or `surviving_form` is asked for."""

    __slots__ = ("alpha", "disc", "excluded", "reason", "forms", "excluded_by")

    @property
    def classes(self) -> tuple[ClassVerdict, ...]:
        """One verdict per class, built on demand; a run builds none."""
        hits = self.excluded_by
        return tuple(
            ClassVerdict(BinaryEvenForm(*abc), hits[i].provenance, hits[i].kind) if i in hits
            else ClassVerdict(BinaryEvenForm(*abc), None, None)
            for i, abc in enumerate(self.forms)
        )


class DiscResolution(FrozenRecord):
    """surviving holds the (alpha, disc) pairs of the surviving candidates."""

    __slots__ = ("certificate", "surviving")

    @property
    def resolved(self) -> bool:
        return len(self.surviving) == 1

    @property
    def resolved_disc(self) -> int | None:
        return self.surviving[0][1] if self.resolved else None

    @property
    def alpha(self) -> int | None:
        return self.surviving[0][0] if self.resolved else None

    @property
    def surviving_form(self) -> BinaryEvenForm | None:
        """The isometry class, when exactly one class survives overall
        (a candidate that is not excluded keeps a class)."""
        live = [cand for cand in self.certificate if not cand.excluded]
        if len(live) == 1 and len(live[0].forms) == len(live[0].excluded_by) + 1:
            hits = live[0].excluded_by
            return BinaryEvenForm(*next(abc for i, abc in enumerate(live[0].forms) if i not in hits))
        return None


def candidate_classes(candidates: list[tuple[int, int]]) -> dict[int, tuple[tuple[int, int, int], ...]]:
    """The reduced classes of each candidate discriminant, as sorted
    (a, b, c) tuples.

    Built once per run and shared by every stage that resolve_disc runs on.
    """
    return {disc: tuple(enumerate_even_posdef_binary(disc)) for _alpha, disc in candidates}


def resolve_disc(
    candidates: list[tuple[int, int]],
    classes: dict[int, tuple[tuple[int, int, int], ...]],
    facts: list[ExclusionFact],
    context_tokens: tuple[str, ...],
    height: dict | None,
) -> DiscResolution:
    """Cross off candidates whose every isometry class is excluded.

    `classes` maps each candidate discriminant to its reduced classes as
    (a, b, c) tuples (see candidate_classes).  A class-level fact kills
    one reduced form, given the stage's sorted `context_tokens`; the
    denominator-bound fact kills a candidate whose check in `height` (the
    stage's `DiscConsistency` by disc, None without a torsion order) fails.
    The certificate records the outcome for every candidate and, by
    position in its class tuple, every excluded class.  More than one
    survivor is a valid ambiguous state; none leaves `surviving` empty,
    an inconsistent fact set that the pipeline reports as a contradiction.
    """
    # The first fact that applies here to each reduced form, found among
    # its disc's classes by bisection on (a, b, c); a fibration fact
    # applies only to a surface with its fiber multiset.
    excluding: dict[int, dict[int, ExclusionFact]] = {disc: {} for _alpha, disc in candidates}
    for fact in facts:
        if fact.kind == "denominator_bound":
            continue
        form = reduce_binary(fact.form)
        hits = excluding.get(form.disc)
        if hits is not None and (
            fact.kind == "not_isomorphic_to" or tuple(sorted(fact.fibers)) == context_tokens
        ):
            forms, abc = classes[form.disc], (form.a, form.b, form.c)
            i = bisect_left(forms, abc)
            if i < len(forms) and forms[i] == abc:
                hits.setdefault(i, fact)
    # The first bound fact applies, given height checks; a later one would repeat it.
    bound = height and next((fact for fact in facts if fact.kind == "denominator_bound"), None)
    certificate = []
    surviving = []
    for alpha, disc in candidates:
        forms, hits = classes[disc], excluding[disc]
        reason = None if forms else "no even positive-definite binary form has this discriminant"
        if reason is None and bound and not height[disc].consistent:
            reason = f"{height[disc].reason} [{bound.provenance}]"
        excluded = reason is not None or len(hits) == len(forms)
        certificate.append(CandidateVerdict(alpha, disc, excluded, reason, forms, hits))
        if not excluded:
            surviving.append((alpha, disc))
    return DiscResolution(tuple(certificate), tuple(surviving))


def square_divisor_primes(n: int) -> dict[int, int]:
    """The largest m with m^2 | n, as its prime factorization {p: k}.

    The keys are the primes p with p^2 | n.  Trial division stops once
    p^3 exceeds what is left of n, so it runs up to n^(1/3); the cofactor
    then has at most two prime factors, and contributes q exactly when
    it equals q^2.  n is the disc of a positive-definite form.
    """
    factors = {}
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e > 1:
                factors[p] = e // 2
        p += 1 if p == 2 else 2
    q = math.isqrt(n)
    if q > 1 and q * q == n:
        factors[q] = 1
    return factors


class RigidityCheck(FrozenRecord):
    """status is 'determinant-excluded', 'enumerated-empty' or 'found'."""

    __slots__ = ("index", "status", "detail")


class RigidityCertificate(FrozenRecord):
    __slots__ = ("lattice", "index_bound", "rigid", "checks", "witness", "witness_reduced", "conclusion")


# Largest overlattice index rigidity_transfer enumerates.
RIGIDITY_INDEX_BOUND = 10


def rigidity_transfer(form: BinaryEvenForm) -> RigidityCertificate:
    """Certify that a positive-definite even binary form admits no proper
    even overlattice.

    Index m is impossible unless m^2 divides the discriminant, so that
    arithmetic disposes of most indices and exhaustive enumeration of
    the form's Gram lattice handles the rest, up to RIGIDITY_INDEX_BOUND.
    The certificate holds the form and, when one is found, the first
    overlattice as a form.  Finding an overlattice is a refutation
    result, not an error.  The form is positive definite: the pipeline
    passes the halved seed, which `jsonio` checked.
    """
    disc = form.disc
    lattice = form.gram()
    checks = []
    witness = None
    for m in range(2, RIGIDITY_INDEX_BOUND + 1):
        if disc % (m * m) != 0:
            checks.append(
                RigidityCheck(m, "determinant-excluded", f"{m}^2 does not divide {disc}")
            )
            continue
        found = enumerate_even_overlattices(lattice, m)
        if found:
            checks.append(
                RigidityCheck(m, "found", f"{len(found)} even overlattice(s) at index {m}")
            )
            if witness is None:
                witness = BinaryEvenForm.from_gram(found[0])
        else:
            checks.append(
                RigidityCheck(m, "enumerated-empty", f"no even overlattice of index {m}")
            )
    rigid = witness is None
    if rigid:
        max_possible = math.prod(p**k for p, k in square_divisor_primes(disc).items())
        if max_possible > RIGIDITY_INDEX_BOUND:
            raise ValueError(
                f"index bound {RIGIDITY_INDEX_BOUND} does not cover all determinant-admissible "
                f"indices up to {max_possible}"
            )
    conclusion = (
        "no proper even overlattice exists; any even finite-index overlattice is the lattice itself"
        if rigid
        else "a proper even overlattice exists; rigidity fails"
    )
    return RigidityCertificate(
        form,
        RIGIDITY_INDEX_BOUND,
        rigid,
        tuple(checks),
        witness,
        reduce_binary(witness) if witness else None,
        conclusion,
    )


def shioda_inose_unscale(form: BinaryEvenForm) -> BinaryEvenForm:
    """Transcendental form of the degree-2 quotient: halve the pairing.

    The halved pairing is an even form exactly when a, b and c are even.
    With a cover declared, `jsonio` requires a and c even; then 4 divides
    disc = 4ac - b^2, so b is even too.
    """
    return BinaryEvenForm(form.a // 2, form.b // 2, form.c // 2)


class SpecializationResult(FrozenRecord):
    __slots__ = ("index", "verdict")


def specialization_index(disc_central: int, disc_nearby: int) -> SpecializationResult | None:
    """Index of the specialized lattice inside the nearby one.

    An index above 1 certifies that integral invariant cycles fail to
    lift: the verdict is VERDICT_FAILS.  Index 1 leaves lifting possible.
    None when disc_central / disc_nearby is not the square of an integer:
    no finite-index embedding relates the two lattices.
    """
    index = sublattice_index_from_discs(disc_central, disc_nearby)
    if index is not None:
        return SpecializationResult(index, VERDICT_FAILS if index > 1 else VERDICT_HOLDS_POSSIBLE)
