"""Transcendental-lattice discriminant analysis for double covers.

A degree-2 cover with rank-2 transcendental lattices leaves the covered
surface's discriminant determined only up to a power of 4; candidates
are cut down by externally supplied exclusion facts, never by geometry
recomputed here.  Rigidity certificates and specialization indices turn
the surviving discriminants into a verdict about integral invariant
cycle lifting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import (
    BinaryEvenForm,
    GramLattice,
    NotDivisibleError,
    NotEvenError,
    NotPositiveDefiniteError,
    enumerate_even_overlattices,
    enumerate_even_posdef_binary,
    reduce_binary,
    sublattice_index_from_discs,
)
from .mordell_weil import check_disc_consistency
from .surfaces import SurfaceConfig

VERDICT_FAILS = "LICT_fails"
VERDICT_HOLDS_POSSIBLE = "LICT_holds_possible"

FACT_KINDS = ("not_isomorphic_to", "no_fibration_with_fibers", "denominator_bound")


class UnsupportedRankError(ValueError):
    """The analysis is implemented for rank-2 transcendental lattices only."""


class NothingSurvivesError(ValueError):
    """Every discriminant candidate was excluded; the fact set is inconsistent."""


@dataclass(frozen=True)
class ExclusionFact:
    """An externally certified exclusion, quoted with its provenance.

    kind 'not_isomorphic_to': the lattice cannot be isometric to `form`.
    kind 'no_fibration_with_fibers': no elliptic fibration with the given
    fiber multiset exists on the surface whose lattice is `form`.
    kind 'denominator_bound': candidates are tested against the height
    denominator bound (no payload beyond the provenance).
    """

    kind: str
    form: BinaryEvenForm | None
    fibers: tuple[str, ...] | None
    provenance: str

    def __post_init__(self) -> None:
        if self.kind not in FACT_KINDS:
            raise ValueError(f"unknown exclusion fact kind {self.kind!r}")
        if not self.provenance or not self.provenance.strip():
            raise ValueError("exclusion facts require a nonempty provenance string")
        if self.kind in ("not_isomorphic_to", "no_fibration_with_fibers"):
            if self.form is None:
                raise ValueError(f"{self.kind} fact requires a form")
        if self.kind == "no_fibration_with_fibers" and self.fibers is None:
            raise ValueError("no_fibration_with_fibers fact requires a fiber list")


def double_cover_disc_candidates(disc_tx: int, rank: int) -> list[tuple[int, int]]:
    """Candidate discriminants disc_tx * 2^(2a - rank) for a = 0..rank.

    Covers the possible positions of the covered lattice between the
    pushforward and the pullback of the covering one.
    """
    if rank != 2:
        raise UnsupportedRankError(f"rank {rank} is not supported; only rank 2")
    if not isinstance(disc_tx, int) or disc_tx < 1:
        raise ValueError("disc_tx must be a positive integer")
    if disc_tx % 4 != 0:
        raise NotDivisibleError(
            f"disc_tx = {disc_tx} must be divisible by 2^rank for the a = 0 candidate"
        )
    return [(alpha, disc_tx * 4**alpha // 4) for alpha in range(rank + 1)]


@dataclass(frozen=True)
class ClassVerdict:
    form: BinaryEvenForm
    excluded_by: str | None  # provenance of the matching fact
    fact_kind: str | None


@dataclass(frozen=True)
class CandidateVerdict:
    alpha: int
    disc: int
    excluded: bool
    reason: str | None  # candidate-level exclusions (bounds, empty genus)
    classes: tuple[ClassVerdict, ...]


@dataclass(frozen=True)
class DiscResolution:
    certificate: tuple[CandidateVerdict, ...]
    surviving: tuple[tuple[int, int], ...]  # (alpha, disc) pairs

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
        """The isometry class, when exactly one class survives overall."""
        live = [
            cv.form
            for cand in self.certificate
            if not cand.excluded
            for cv in cand.classes
            if cv.excluded_by is None
        ]
        return live[0] if len(live) == 1 else None


def candidate_classes(candidates: list[tuple[int, int]]) -> dict[int, list[BinaryEvenForm]]:
    """The reduced isometry classes of each candidate discriminant.

    Built once per run and shared by every stage that resolve_disc runs on.
    """
    return {disc: enumerate_even_posdef_binary(disc) for _alpha, disc in candidates}


def resolve_disc(
    candidates: list[tuple[int, int]],
    classes: dict[int, list[BinaryEvenForm]],
    facts: list[ExclusionFact],
    context: SurfaceConfig,
    rho: int,
    torsion_order: int | None,
) -> DiscResolution:
    """Cross off candidates whose every isometry class is excluded.

    `classes` maps each candidate discriminant to its reduced classes
    (see candidate_classes).  A class-level fact kills one reduced form;
    the denominator-bound fact kills a whole candidate.  The certificate
    records the outcome for every candidate and every class.  All
    candidates excluded is an error; more than one survivor is a valid
    ambiguous state.
    """
    context_tokens = context.fiber_tokens()
    # The first fact that applies here to each reduced form; a
    # fibration fact applies only to a surface with its fiber multiset.
    excluding: dict[BinaryEvenForm, ExclusionFact] = {}
    for fact in facts:
        if fact.kind in ("not_isomorphic_to", "no_fibration_with_fibers"):
            form = reduce_binary(fact.form)
            if fact.kind == "not_isomorphic_to" or tuple(sorted(fact.fibers)) == context_tokens:
                excluding.setdefault(form, fact)
    certificate = []
    surviving = []
    for alpha, disc in candidates:
        reason = None
        class_verdicts = []
        for cls in classes[disc]:
            hit = excluding.get(cls)
            class_verdicts.append(
                ClassVerdict(
                    form=cls,
                    excluded_by=hit.provenance if hit else None,
                    fact_kind=hit.kind if hit else None,
                )
            )
        if not class_verdicts:
            reason = "no even positive-definite binary form has this discriminant"
        for fact in facts:
            if fact.kind != "denominator_bound" or reason is not None:
                continue
            if torsion_order is None:
                continue  # no torsion assumption: the bound cannot be applied
            check = check_disc_consistency(context, disc, rho, torsion_order)
            if not check.consistent:
                reason = f"{check.reason} [{fact.provenance}]"
        excluded = reason is not None or (
            bool(class_verdicts) and all(cv.excluded_by is not None for cv in class_verdicts)
        )
        certificate.append(
            CandidateVerdict(
                alpha=alpha,
                disc=disc,
                excluded=excluded,
                reason=reason,
                classes=tuple(class_verdicts),
            )
        )
        if not excluded:
            surviving.append((alpha, disc))
    if not surviving:
        raise NothingSurvivesError("every discriminant candidate was excluded")
    return DiscResolution(certificate=tuple(certificate), surviving=tuple(surviving))


@dataclass(frozen=True)
class RigidityCheck:
    index: int
    status: str  # 'determinant-excluded' | 'enumerated-empty' | 'found'
    detail: str


@dataclass(frozen=True)
class RigidityCertificate:
    lattice: GramLattice
    index_bound: int
    rigid: bool
    checks: tuple[RigidityCheck, ...]
    witness: GramLattice | None
    witness_reduced: BinaryEvenForm | None
    conclusion: str


def rigidity_transfer(lattice: GramLattice, index_bound: int = 10) -> RigidityCertificate:
    """Certify that an even lattice admits no proper even overlattice.

    Index m is impossible unless m^2 divides |det|, so the determinant
    arithmetic disposes of most indices and exhaustive enumeration
    handles the rest.  Finding an overlattice is a refutation result,
    not an error.
    """
    if lattice.rank != 2:
        raise UnsupportedRankError("rigidity transfer is implemented for rank 2 only")
    if not lattice.is_even():
        raise NotEvenError("rigidity transfer needs an even lattice")
    if not lattice.is_positive_definite():
        raise NotPositiveDefiniteError("rigidity transfer needs a positive-definite lattice")
    if index_bound < 2:
        raise ValueError("index bound must be at least 2")
    disc = lattice.disc()
    checks = []
    witness = None
    for m in range(2, index_bound + 1):
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
                witness = found[0]
        else:
            checks.append(
                RigidityCheck(m, "enumerated-empty", f"no even overlattice of index {m}")
            )
    rigid = witness is None
    max_possible = max(
        (m for m in range(2, math.isqrt(disc) + 1) if disc % (m * m) == 0), default=1
    )
    if rigid and max_possible > index_bound:
        raise ValueError(
            f"index bound {index_bound} does not cover all determinant-admissible "
            f"indices up to {max_possible}"
        )
    conclusion = (
        "no proper even overlattice exists; any even finite-index overlattice is the lattice itself"
        if rigid
        else "a proper even overlattice exists; rigidity fails"
    )
    return RigidityCertificate(
        lattice=lattice,
        index_bound=index_bound,
        rigid=rigid,
        checks=tuple(checks),
        witness=witness,
        witness_reduced=reduce_binary(BinaryEvenForm.from_gram(witness)) if witness else None,
        conclusion=conclusion,
    )


def shioda_inose_unscale(lattice: GramLattice) -> GramLattice:
    """Transcendental lattice of the degree-2 quotient: halve the pairing."""
    return lattice.unscale(2)


@dataclass(frozen=True)
class SpecializationResult:
    index: int
    verdict: str


def specialization_index(disc_central: int, disc_nearby: int) -> SpecializationResult:
    """Index of the specialized lattice inside the nearby one.

    An index above 1 certifies that integral invariant cycles fail to
    lift: the verdict is VERDICT_FAILS.  Index 1 leaves lifting possible.
    """
    index = sublattice_index_from_discs(disc_central, disc_nearby)
    verdict = VERDICT_FAILS if index > 1 else VERDICT_HOLDS_POSSIBLE
    return SpecializationResult(index=index, verdict=verdict)
