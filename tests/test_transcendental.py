"""Discriminant candidates, exclusion facts, rigidity, specialization."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcycle.jsonio import SchemaError, parse_exclusion_fact
from invcycle.kodaira import fiber
from invcycle.lattice import (
    BinaryEvenForm,
    GramLattice,
    reduce_binary,
)
from invcycle.mordell_weil import check_disc_consistency, shioda_tate
from invcycle.surfaces import SurfaceConfig
from invcycle.transcendental import (
    FACT_KINDS,
    VERDICT_FAILS,
    VERDICT_HOLDS_POSSIBLE,
    ExclusionFact,
    candidate_classes,
    double_cover_disc_candidates,
    resolve_disc,
    rigidity_transfer,
    shioda_inose_unscale,
    specialization_index,
    square_divisor_primes,
)
from oracles import even_posdef_binary_scan, max_square_divisor_root_scan, resolve_by_classes, root_gram


def config(tokens, genus=0):
    return SurfaceConfig(
        name="t",
        base_genus=genus,
        fibers=tuple((str(i), fiber(tok)) for i, tok in enumerate(tokens)),
    )


EX1_Y2 = config(["I0*", "I0*", "IV", "IV*"])


def height_checks(context, candidates, torsion):
    """What the pipeline passes resolve_disc for a stage at rho = 20: the
    height check of each candidate disc."""
    record = shioda_tate(context, 20)
    return {disc: check_disc_consistency(record, disc, torsion) for _alpha, disc in candidates}


class TestCandidates:
    def test_disc_12(self):
        assert double_cover_disc_candidates(12) == [(0, 3), (1, 12), (2, 48)]

    def test_disc_16(self):
        assert double_cover_disc_candidates(16) == [(0, 4), (1, 16), (2, 64)]


def a2_fact():
    return ExclusionFact(
        kind="not_isomorphic_to",
        form=BinaryEvenForm(1, 1, 1),
        fibers=None,
        provenance="transcendental lattice of a fixed reference surface",
    )


def fibration_fact(a, b, c, fibers):
    return ExclusionFact(
        kind="no_fibration_with_fibers",
        form=BinaryEvenForm(a, b, c),
        fibers=tuple(fibers),
        provenance="fibration table lookup",
    )


def bound_fact():
    return ExclusionFact(
        kind="denominator_bound",
        form=None,
        fibers=None,
        provenance="height pairing denominator bound",
    )


class TestExclusionFactValidation:
    """`jsonio.parse_exclusion_fact` is the one place a fact is checked."""

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match=r"^f\.kind: unknown exclusion fact kind 'rumor'$"):
            parse_exclusion_fact({"kind": "rumor", "provenance": "p"}, "f")

    def test_empty_provenance(self):
        with pytest.raises(SchemaError, match=r"^f\.provenance: exclusion facts require"):
            parse_exclusion_fact(
                {"kind": "not_isomorphic_to", "form": [[2, 1], [1, 2]], "provenance": "  "}, "f"
            )

    def test_missing_form(self):
        with pytest.raises(SchemaError, match="^f: not_isomorphic_to fact requires a form$"):
            parse_exclusion_fact({"kind": "not_isomorphic_to", "provenance": "p"}, "f")

    def test_missing_fibers(self):
        with pytest.raises(SchemaError, match="^f: no_fibration_with_fibers fact requires a fiber list$"):
            parse_exclusion_fact(
                {"kind": "no_fibration_with_fibers", "form": [[2, 1], [1, 2]], "provenance": "p"}, "f"
            )


class TestResolveDisc:
    EX1_FACTS = [
        a2_fact(),
        fibration_fact(1, 0, 3, ["I0*", "I0*", "IV", "IV*"]),
        fibration_fact(2, 2, 2, ["I0*", "I0*", "IV", "IV*"]),
        bound_fact(),
    ]

    def test_example1_resolves_to_48(self):
        candidates = double_cover_disc_candidates(12)
        res = resolve_disc(
            candidates, candidate_classes(candidates),
            self.EX1_FACTS, EX1_Y2.fiber_tokens(), height_checks(EX1_Y2, candidates, 1)
        )
        assert res.resolved
        assert res.resolved_disc == 48
        assert res.alpha == 2
        assert res.surviving == ((2, 48),)

    def test_example1_certificate_details(self):
        candidates = double_cover_disc_candidates(12)
        res = resolve_disc(
            candidates, candidate_classes(candidates),
            self.EX1_FACTS, EX1_Y2.fiber_tokens(), height_checks(EX1_Y2, candidates, 1)
        )
        by_disc = {c.disc: c for c in res.certificate}
        # Candidate 3: the single class (1,1,1) is killed by the isomorphism fact,
        # and the height bound also rules the candidate out independently.
        assert by_disc[3].excluded
        assert by_disc[3].classes[0].fact_kind == "not_isomorphic_to"
        assert by_disc[3].reason is not None and "does not divide" in by_disc[3].reason
        # Candidate 12: both classes killed by fibration facts.
        assert by_disc[12].excluded
        assert by_disc[12].reason is None
        assert len(by_disc[12].classes) == 2
        assert all(cv.fact_kind == "no_fibration_with_fibers" for cv in by_disc[12].classes)
        # Candidate 48: four classes, none excluded.
        assert not by_disc[48].excluded
        assert len(by_disc[48].classes) == 4
        assert all(cv.excluded_by is None for cv in by_disc[48].classes)

    def test_fibration_fact_requires_matching_context(self):
        # Same facts, but a context with different fibers: the fibration
        # facts no longer apply, so candidate 12 survives too.
        other = config(["IV*", "IV*", "IV*"])
        candidates = double_cover_disc_candidates(12)
        res = resolve_disc(
            candidates, candidate_classes(candidates),
            self.EX1_FACTS[:3], other.fiber_tokens(), height_checks(other, candidates, 1)
        )
        assert not res.resolved
        assert {d for _, d in res.surviving} == {12, 48}

    def test_ambiguous_without_facts(self):
        candidates = double_cover_disc_candidates(16)
        ex2 = config(["IV*", "I1*", "I1*", "I2"])
        facts = [
            ExclusionFact(
                kind="not_isomorphic_to",
                form=BinaryEvenForm(1, 0, 1),
                fibers=None,
                provenance="reference transcendental lattice",
            ),
            bound_fact(),
        ]
        res = resolve_disc(
            candidates, candidate_classes(candidates), facts, ex2.fiber_tokens(),
            height_checks(ex2, candidates, 1),
        )
        assert not res.resolved
        assert {d for _, d in res.surviving} == {16, 64}
        assert res.resolved_disc is None
        assert res.surviving_form is None

    def test_bound_skipped_without_torsion(self):
        candidates = double_cover_disc_candidates(12)
        res = resolve_disc(
            candidates, candidate_classes(candidates),
            [bound_fact()], EX1_Y2.fiber_tokens(), None
        )
        assert {d for _, d in res.surviving} == {3, 12, 48}

    def test_nothing_survives(self):
        # Exclude every class of every candidate for disc_tx = 4 over a
        # context whose bound kills nothing.
        candidates = [(0, 1), (1, 4)]
        facts = [
            ExclusionFact(
                kind="not_isomorphic_to",
                form=BinaryEvenForm(1, 0, 1),
                fibers=None,
                provenance="p1",
            ),
        ]
        res = resolve_disc(
            candidates, candidate_classes(candidates), facts, EX1_Y2.fiber_tokens(),
            height_checks(EX1_Y2, candidates, 1),
        )
        assert res.surviving == ()
        assert all(cand.excluded for cand in res.certificate)

    def test_empty_genus_candidate_excluded(self):
        # disc 1 and 2 have no even positive-definite binary forms.
        candidates = [(0, 1), (1, 4)]
        res = resolve_disc(
            candidates, candidate_classes(candidates), [], EX1_Y2.fiber_tokens(),
            height_checks(EX1_Y2, candidates, 1),
        )
        by_disc = {c.disc: c for c in res.certificate}
        assert by_disc[1].excluded
        assert "no even positive-definite binary form" in by_disc[1].reason
        assert res.surviving == ((1, 4),)

    def test_first_applicable_fact_names_the_exclusion(self):
        # Two facts exclude (1, 0, 3), given unreduced; the first one that
        # applies to this surface is the one the certificate quotes.
        def fact(kind, form, provenance, fibers=None):
            return ExclusionFact(kind=kind, form=form, fibers=fibers, provenance=provenance)

        unreduced = BinaryEvenForm(3, 0, 1)
        facts = [
            fact("no_fibration_with_fibers", unreduced, "other surface", ("II*", "II*")),
            fact("not_isomorphic_to", unreduced, "first"),
            fact("no_fibration_with_fibers", unreduced, "second", tuple(EX1_Y2.fiber_tokens())),
        ]
        candidates = [(1, 12)]
        res = resolve_disc(
            candidates, candidate_classes(candidates), facts, EX1_Y2.fiber_tokens(), None
        )
        (cv,) = [cv for cv in res.certificate[0].classes if cv.form == BinaryEvenForm(1, 0, 3)]
        assert (cv.excluded_by, cv.fact_kind) == ("first", "not_isomorphic_to")
        res = resolve_disc(
            candidates, candidate_classes(candidates), [facts[0], facts[2]], EX1_Y2.fiber_tokens(), None
        )
        (cv,) = [cv for cv in res.certificate[0].classes if cv.form == BinaryEvenForm(1, 0, 3)]
        assert (cv.excluded_by, cv.fact_kind) == ("second", "no_fibration_with_fibers")

    def test_surviving_form_unique_class(self):
        # A2(2) is the only class of disc 12 left after killing diag(2,6);
        # candidates restricted to disc 12 only.
        facts = [
            ExclusionFact(
                kind="not_isomorphic_to",
                form=BinaryEvenForm(1, 0, 3),
                fibers=None,
                provenance="p",
            )
        ]
        res = resolve_disc(
            [(1, 12)], candidate_classes([(1, 12)]), facts, EX1_Y2.fiber_tokens(), None
        )
        assert res.resolved
        assert res.surviving_form == BinaryEvenForm(2, 2, 2)


# Stage contexts for the resolution property: rank-0 (E8, E6, D4) and
# rank-2 (example 1's Y2) Mordell-Weil lattices at rho = 20.
CONTEXTS = (config(["II*", "IV*", "I0*"]), EX1_Y2)


def unreduce(draw, a, b, c):
    """(a, b, c) moved by a few random GL2(Z) steps: the same class, mostly unreduced."""
    for _ in range(draw(st.integers(0, 3))):
        step = draw(st.sampled_from(["shift", "swap", "flip"]))
        if step == "shift":
            k = draw(st.integers(-3, 3))
            a, b, c = a, b + 2 * a * k, a * k * k + b * k + c
        elif step == "swap":
            a, b, c = c, -b, a
        else:
            b = -b
    return BinaryEvenForm(a, b, c)


@st.composite
def resolution_inputs(draw):
    """Candidates of a seed disc 4k, a stage context, a torsion order, and
    facts naming classes of the candidates (unreduced, repeated with other
    provenances), unrelated forms, matching and other fiber lists, and
    denominator bounds."""
    candidates = double_cover_disc_candidates(4 * draw(st.integers(1, 150)))
    context = draw(st.sampled_from(CONTEXTS))
    pool = [form for _alpha, disc in candidates for form in even_posdef_binary_scan(disc)]
    facts = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(FACT_KINDS))
        provenance = draw(st.sampled_from(["p0", "p1", "p2"]))
        if kind == "denominator_bound":
            facts.append(ExclusionFact(kind, None, None, provenance))
            continue
        if pool and draw(st.booleans()):
            form = unreduce(draw, *draw(st.sampled_from(pool)))
        else:
            a, c = draw(st.integers(1, 30)), draw(st.integers(1, 30))
            form = BinaryEvenForm(a, draw(st.integers(-1, 1)) * min(a, c), c)
        fibers = None
        if kind == "no_fibration_with_fibers":
            fibers = draw(st.sampled_from([
                tuple(reversed(context.fiber_tokens())), context.fiber_tokens(), ("II*", "II*", "IV"),
            ]))
        facts.append(ExclusionFact(kind, form, fibers, provenance))
    return candidates, context, draw(st.sampled_from([None, 1, 2])), facts


class TestResolveDiscOracle:
    @settings(max_examples=300, deadline=None)
    @given(resolution_inputs())
    def test_matches_the_per_class_loop(self, inputs):
        candidates, context, torsion, facts = inputs
        record = shioda_tate(context, 20)

        def bound_failure(disc):
            if torsion is None:
                return None
            check = check_disc_consistency(record, disc, torsion)
            return None if check.consistent else check.reason

        classes = {disc: even_posdef_binary_scan(disc) for _alpha, disc in candidates}
        certificate, surviving, form = resolve_by_classes(
            candidates, classes, facts, context.fiber_tokens(), bound_failure
        )
        height = None if torsion is None else height_checks(context, candidates, torsion)
        res = resolve_disc(candidates, candidate_classes(candidates), facts, context.fiber_tokens(), height)
        assert [
            (cand.alpha, cand.disc, cand.excluded, cand.reason,
             [((cv.form.a, cv.form.b, cv.form.c), cv.excluded_by, cv.fact_kind) for cv in cand.classes])
            for cand in res.certificate
        ] == certificate
        assert list(res.surviving) == surviving
        found = res.surviving_form
        assert (found and (found.a, found.b, found.c)) == form


class TestRigidity:
    def test_a2_is_rigid(self):
        cert = rigidity_transfer(BinaryEvenForm.from_gram(root_gram("A", 2)))
        assert cert.rigid
        assert cert.witness is None
        statuses = {c.index: c.status for c in cert.checks}
        assert statuses[2] == "determinant-excluded"
        assert all(s == "determinant-excluded" for s in statuses.values())

    def test_diag22_is_rigid(self):
        cert = rigidity_transfer(BinaryEvenForm(1, 0, 1))
        assert cert.rigid
        assert {c.index: c.status for c in cert.checks} == {
            m: ("enumerated-empty" if m == 2 else "determinant-excluded")
            for m in range(2, 11)
        }

    def test_diag44_is_not_rigid(self):
        cert = rigidity_transfer(BinaryEvenForm(2, 0, 2))
        assert not cert.rigid
        assert cert.witness is not None
        assert cert.witness_reduced == BinaryEvenForm(1, 0, 1)
        found = [c for c in cert.checks if c.status == "found"]
        assert [c.index for c in found] == [2]

    def test_a2_scaled_3_not_rigid(self):
        cert = rigidity_transfer(BinaryEvenForm(3, 3, 3))
        assert not cert.rigid
        assert reduce_binary(cert.witness) == BinaryEvenForm(1, 1, 1)

    def test_bound_must_cover_admissible_indices(self):
        big = BinaryEvenForm(1, 0, 11 * 11)
        with pytest.raises(ValueError):
            rigidity_transfer(big)

    @pytest.mark.parametrize(
        "gram, largest",
        [
            ([[2, 1], [1, 182]], 11),  # disc 363 = 3 * 11^2
            ([[2, 1], [1, 1527122]], 1009),  # disc 3054243 = 3 * 1009^2, 1009 prime
            ([[2, 0], [0, 242]], 22),  # disc 484 = 22^2: the scan must reach isqrt(disc)
        ],
    )
    def test_uncovered_index_message(self, gram, largest):
        with pytest.raises(ValueError) as excinfo:
            rigidity_transfer(BinaryEvenForm.from_gram(GramLattice(gram)))
        assert str(excinfo.value) == (
            "index bound 10 does not cover all determinant-admissible indices "
            f"up to {largest}"
        )


def largest_square_root(n):
    return math.prod(p**k for p, k in square_divisor_primes(n).items())


# Small primes, primes on both sides of 10^(14/3) = 46415.9, and primes
# whose squares come close to 10^10, 10^12 and 10^14.
PRIME_POOL = (2, 3, 5, 7, 11, 13, 46399, 46411, 46439, 46441, 99991, 999983, 9999991)


@st.composite
def factored(draw, limit=10**14):
    """(n, its prime factorization) with n <= limit, half the time p^2 * k."""
    picks = draw(st.lists(st.sampled_from(PRIME_POOL), max_size=8))
    if draw(st.booleans()):
        square = draw(st.sampled_from(PRIME_POOL))
        picks = [square, square, *picks]
    n, exponents = 1, Counter()
    for p in picks:
        if n * p <= limit:
            n *= p
            exponents[p] += 1
    return n, exponents


class TestSquareDivisors:
    """The largest index m with m^2 | disc, which rigidity must cover."""

    def test_every_disc_up_to_1e5_matches_the_scan(self):
        for n in range(1, 10**5 + 1):
            assert largest_square_root(n) == max_square_divisor_root_scan(n), n

    @settings(max_examples=200, deadline=None)
    @given(factored())
    def test_matches_the_factorization_up_to_1e14(self, case):
        n, exponents = case
        got = square_divisor_primes(n)
        assert got == {p: e // 2 for p, e in sorted(exponents.items()) if e > 1}
        if n <= 10**9:
            assert largest_square_root(n) == max_square_divisor_root_scan(n)

    @pytest.mark.parametrize("n, expected", [
        (1, {}),
        (46441**2, {46441: 1}),  # cofactor q^2 with q just above n^(1/3)
        (46439 * 46441, {}),  # two distinct primes left over
        (2 * 46441**2, {46441: 1}),
        (46441**3, {46441: 1}),  # found by trial division, not as the cofactor
        (9999991**2, {9999991: 1}),
        (2**46, {2: 23}),
        (2 * 10**14 - 1, {}),  # disc of [[2, 1], [1, 10**14]]
    ])
    def test_cofactor_cases(self, n, expected):
        assert square_divisor_primes(n) == expected

    def test_large_disc_rigidity(self):
        # 2 s with the scan up to isqrt(disc); now a trial division to disc^(1/3).
        assert rigidity_transfer(BinaryEvenForm(1, 1, 10**14 // 2)).rigid
        with pytest.raises(ValueError, match="indices up to 9999991$"):
            rigidity_transfer(BinaryEvenForm(1, 1, (3 * 9999991**2 + 1) // 4))


class TestShiodaInose:
    def test_unscale(self):
        doubled = BinaryEvenForm(2, 2, 2)
        assert shioda_inose_unscale(doubled).gram().gram == ((2, 1), (1, 2))


class TestSpecialization:
    def test_index_4_fails(self):
        result = specialization_index(48, 3)
        assert result.index == 4
        assert result.verdict == VERDICT_FAILS

    def test_index_2_fails(self):
        result = specialization_index(16, 4)
        assert result.index == 2
        assert result.verdict == VERDICT_FAILS

    def test_index_1_possible(self):
        result = specialization_index(3, 3)
        assert result.index == 1
        assert result.verdict == VERDICT_HOLDS_POSSIBLE

    def test_non_square_ratio(self):
        assert specialization_index(24, 3) is None
        assert specialization_index(3, 48) is None
