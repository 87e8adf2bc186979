"""Acceptance gate: ten criteria, each printing one visible pass/fail line.

Every comparison is exact integer or rational equality.  The property
suites in criterion 9 are time-boxed; everything else is instant.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import oracles
from invcycle.kodaira import (
    delta,
    euler_number,
    fiber,
    is_star,
    quadratic_base_change_fiber,
)
from invcycle.lattice import (
    BinaryEvenForm,
    GramLattice,
    enumerate_even_overlattices,
    enumerate_even_posdef_binary,
    reduce_binary,
    smith_normal_form,
)
from invcycle.mordell_weil import check_disc_consistency, shioda_tate
from invcycle.pipeline import run_example
from invcycle.surfaces import BranchSpec, SurfaceConfig, invariants, quadratic_base_change
from invcycle.transcendental import (
    VERDICT_FAILS,
    VERDICT_HOLDS_POSSIBLE,
    ExclusionFact,
    candidate_classes,
    double_cover_disc_candidates,
    resolve_disc,
    rigidity_transfer,
    shioda_inose_unscale,
    specialization_index,
)


@contextmanager
def criterion(number, label):
    # The gate line must stay visible under pytest capture, pass or fail.
    try:
        yield
    except BaseException:
        sys.__stdout__.write(f"criterion {number:02d} FAIL  {label}\n")
        sys.__stdout__.flush()
        raise
    sys.__stdout__.write(f"criterion {number:02d} PASS  {label}\n")
    sys.__stdout__.flush()


def config(tokens, genus=0, name="acceptance"):
    return SurfaceConfig(
        name=name,
        base_genus=genus,
        fibers=tuple((str(i), fiber(tok)) for i, tok in enumerate(tokens)),
    )


def multiset(cfg):
    return sorted(f.token for _, f in cfg.fibers)


KUMMER_SEED = config(["II*", "IV*", "I0*"], name="seed1")


def test_criterion_01_euler_table():
    with criterion(1, "fiber Euler numbers and star defects"):
        assert euler_number(fiber("II")) == 2
        assert euler_number(fiber("III")) == 3
        assert euler_number(fiber("IV")) == 4
        assert euler_number(fiber("IV*")) == 8
        assert euler_number(fiber("III*")) == 9
        assert euler_number(fiber("II*")) == 10
        for n in range(0, 21):
            assert euler_number(fiber(f"I{n}")) == n
            assert euler_number(fiber(f"I{n}*")) == 6 + n
            assert delta(fiber(f"I{n}*")) == 1
            assert delta(fiber(f"I{n}")) == 0
        for tok in ("II", "III", "IV"):
            assert delta(fiber(tok)) == 0
            assert delta(fiber(tok + "*")) == 1


def test_criterion_02_star_base_change_rows():
    with criterion(2, "star-fiber base-change images"):
        assert quadratic_base_change_fiber(fiber("II*")).token == "IV*"
        assert quadratic_base_change_fiber(fiber("III*")).token == "I0*"
        assert quadratic_base_change_fiber(fiber("IV*")).token == "IV"
        for n in range(0, 21):
            assert quadratic_base_change_fiber(fiber(f"I{n}*")).token == f"I{2 * n}"


def test_criterion_03_base_change_configurations():
    with criterion(3, "covering-stage fiber multisets from the reference seed"):
        stages = {
            "Y0": (frozenset({"1", "2"}), ["II*", "II*", "IV"], 2, 0),
            "Y1": (frozenset({"0", "2"}), ["IV*", "IV*", "IV*"], 2, 0),
            "Y2": (frozenset({"0", "1"}), ["I0*", "I0*", "IV", "IV*"], 2, 0),
            "S_t": (frozenset({"0", "1", "2", "t"}), ["IV*", "IV"], 3, 1),
        }
        for _name, (branch, expected, want_delta, want_genus) in stages.items():
            result = quadratic_base_change(KUMMER_SEED, BranchSpec(branch))
            assert multiset(result.config) == sorted(expected)
            assert result.delta == want_delta
            assert result.config.base_genus == want_genus
            assert result.euler_after % 12 == 0
            assert result.d_after == 2 * result.d_before - result.delta


def test_criterion_04_trichotomy():
    with criterion(4, "base-change trichotomy by Euler defect"):
        two = quadratic_base_change(KUMMER_SEED, BranchSpec(frozenset({"1", "2"})))
        assert two.delta == 2
        assert invariants(two.config).kind == "K3"

        three = quadratic_base_change(
            KUMMER_SEED, BranchSpec(frozenset({"0", "1", "2", "t"}))
        )
        assert three.delta == 3
        inv3 = invariants(three.config)
        assert inv3.kind == "elliptic-elliptic"
        assert (inv3.p_g, inv3.q, inv3.h11) == (1, 1, 12)

        quad = config(["I0*", "I0*", "I0*", "I0*"], name="quad")
        four = quadratic_base_change(quad, BranchSpec(frozenset({"0", "1", "2", "3"})))
        assert four.delta == 4
        assert four.d_after == 0
        inv4 = invariants(four.config)
        assert inv4.kind == "trivial-family-abelian"


def test_criterion_05_shioda_tate_ranks():
    with criterion(5, "Mordell-Weil ranks from the Shioda-Tate formula"):
        y2 = config(["I0*", "I0*", "IV", "IV*"])
        y1 = config(["IV*", "IV*", "IV*"])
        st1 = config(["IV*", "IV"], genus=1)
        st2 = config(["IV*", "I2", "I2"], genus=1)
        assert shioda_tate(y2, 20).mw_rank == 2
        assert shioda_tate(y1, 20).mw_rank == 0
        assert shioda_tate(st1, 12).mw_rank == 2
        assert shioda_tate(st2, 12).mw_rank == 2


def test_criterion_06_discriminant_resolution_end_to_end():
    with criterion(6, "discriminant 48 resolved and candidate 3 double-excluded"):
        candidates = double_cover_disc_candidates(12)
        assert [d for _a, d in candidates] == [3, 12, 48]

        classes = enumerate_even_posdef_binary(12)
        assert classes == [(1, 0, 3), (2, 2, 2)]

        y2 = config(["I0*", "I0*", "IV", "IV*"])
        facts = [
            ExclusionFact(
                kind="not_isomorphic_to",
                form=BinaryEvenForm(1, 1, 1),
                fibers=None,
                provenance="reference transcendental lattice",
            ),
            ExclusionFact(
                kind="no_fibration_with_fibers",
                form=BinaryEvenForm(1, 0, 3),
                fibers=("I0*", "I0*", "IV", "IV*"),
                provenance="fibration table",
            ),
            ExclusionFact(
                kind="no_fibration_with_fibers",
                form=BinaryEvenForm(2, 2, 2),
                fibers=("I0*", "I0*", "IV", "IV*"),
                provenance="fibration table",
            ),
            ExclusionFact(
                kind="denominator_bound",
                form=None,
                fibers=None,
                provenance="height pairing bound",
            ),
        ]
        st = shioda_tate(y2, 20)
        height = {disc: check_disc_consistency(st, disc, 1) for _alpha, disc in candidates}
        resolution = resolve_disc(
            candidates, candidate_classes(candidates), facts, y2.fiber_tokens(), height
        )
        assert resolution.resolved
        assert resolution.resolved_disc == 48

        assert check_disc_consistency(st, 48, 1).mwl_disc == Fraction(1, 3)

        bound_check = check_disc_consistency(st, 3, 1)
        assert not bound_check.consistent
        assert bound_check.mwl_disc == Fraction(1, 48)
        assert bound_check.denominator_bound == 36


def test_criterion_07_rigidity_and_specialization():
    with criterion(7, "rigidity certificate and specialization indices"):
        assert rigidity_transfer(BinaryEvenForm.from_gram(oracles.root_gram("A", 2))).rigid
        jump = specialization_index(48, 3)
        assert jump.index == 4
        assert jump.verdict == VERDICT_FAILS
        flat = specialization_index(3, 3)
        assert flat.index == 1
        assert flat.verdict == VERDICT_HOLDS_POSSIBLE


def test_criterion_08_second_pipeline():
    with criterion(8, "second pipeline: ambiguity reported, failure certified"):
        seed = config(["II*", "I1*", "I1*"], name="seed2")
        assert invariants(seed).e == 24

        y0 = quadratic_base_change(seed, BranchSpec(frozenset({"1", "2"})))
        assert multiset(y0.config) == ["I2", "I2", "II*", "II*"]
        y1 = quadratic_base_change(seed, BranchSpec(frozenset({"0", "2"})))
        assert multiset(y1.config) == ["I1*", "I1*", "I2", "IV*"]
        st = quadratic_base_change(seed, BranchSpec(frozenset({"0", "1", "2", "t"})))
        assert multiset(st.config) == ["I2", "I2", "IV*"]
        assert st.config.base_genus == 1

        quotient = shioda_inose_unscale(BinaryEvenForm(2, 0, 2))
        assert quotient.gram().gram == ((2, 0), (0, 2))  # A1 + A1
        assert rigidity_transfer(quotient).rigid

        report = run_example(2)
        assert report["verdict"] == "LICT_fails"
        assert (
            "stage Y1: discriminant not uniquely resolved, surviving candidates {16, 64}"
            in report["notes"]
        )
        per = {p["stage"]: p for p in report["specialization"]["per_stage"]}
        for stage in ("Y1", "Y2"):
            indices = {i["index"]["value"] for i in per[stage]["indices"]}
            assert indices == {2, 4}
            assert per[stage]["verdict"] == "LICT_fails"

        # Hodge-theoretic inputs are consumed as assumptions only; the
        # ledger must carry a provenance string for every one of them.
        assert report["status"] == "conditional"
        assert all(e["provenance"].strip() for e in report["assumption_ledger"])


def test_criterion_09_property_suites():
    with criterion(9, "randomized property suites against brute-force oracles"):
        started = time.monotonic()

        # (a) binary-form enumeration vs theta-series oracle, disc <= 200
        for disc in range(1, 201):
            mine = enumerate_even_posdef_binary(disc)
            fingerprints = sorted(
                oracles.theta_fingerprint(a, b, c, 2 * disc) for a, b, c in mine
            )
            assert fingerprints == oracles.binary_classes_by_theta(disc), disc

        # (b) overlattice enumeration vs half-coset brute force, 200 random
        rng = random.Random(20240819)
        indices = [2, 2, 2, 3, 3, 4, 5]
        for trial in range(200):
            gram = oracles.random_even_posdef_gram(rng, max_entry=10, max_det=100)
            m = indices[trial % len(indices)]
            lattice = GramLattice(gram)
            mine = sorted(
                (f.a, f.b, f.c)
                for f in (
                    reduce_binary(BinaryEvenForm.from_gram(o))
                    for o in enumerate_even_overlattices(lattice, m)
                )
            )
            theirs = sorted(oracles.even_overlattices_bruteforce(gram, m))
            assert mine == theirs, (gram, m)

        # (c) base-change Euler defect law on 1000 random configurations
        rng = random.Random(907)
        runs = 0
        while runs < 1000:
            genus = rng.randint(0, 2)
            tokens = []
            for _ in range(rng.randint(0, 6)):
                kind = rng.choice(["II", "III", "IV", "II*", "III*", "IV*", "I", "I*"])
                if kind in ("I", "I*"):
                    tokens.append(f"I{rng.randint(0, 9)}{'*' if kind == 'I*' else ''}")
                else:
                    tokens.append(kind)
            cfg = SurfaceConfig(
                name="rand",
                base_genus=genus,
                fibers=tuple((str(i), fiber(t)) for i, t in enumerate(tokens)),
            )
            pool = [lab for lab, _ in cfg.fibers] + ["u", "v"]
            chosen = set(rng.sample(pool, rng.randint(0, len(pool))))
            if len(chosen) % 2 or (genus == 0 and not chosen):
                continue
            result = quadratic_base_change(cfg, BranchSpec(frozenset(chosen)))
            assert 2 * result.euler_before - result.euler_after == 12 * result.delta
            stars = sum(1 for lab, f in cfg.fibers if lab in chosen and is_star(f))
            assert result.delta == stars
            runs += 1

        # (d) Smith normal form on 500 random small integer matrices
        rng = random.Random(5150)
        for _ in range(500):
            n = rng.randint(2, 4)
            m = rng.randint(2, 4)
            matrix = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
            D, U, V = smith_normal_form(matrix)
            assert abs(oracles.det_permutation_expansion([list(r) for r in U])) == 1
            assert abs(oracles.det_permutation_expansion([list(r) for r in V])) == 1
            product = [
                [
                    sum(U[i][k] * matrix[k][l] * V[l][j] for k in range(n) for l in range(m))
                    for j in range(m)
                ]
                for i in range(n)
            ]
            assert [list(r) for r in D] == product
            diag = [D[i][i] for i in range(min(n, m))]
            for a, b in zip(diag, diag[1:]):
                assert a >= 0 and b >= 0
                if a == 0:
                    assert b == 0
                elif b:
                    assert b % a == 0

        elapsed = time.monotonic() - started
        assert elapsed < 20.0, f"property suites took {elapsed:.1f}s"


def test_criterion_10_json_determinism():
    with criterion(10, "byte-identical JSON across repeated CLI runs"):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "invcycle", "example", "1", "--json"],
                capture_output=True,
                text=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.endswith("\n")
        json.loads(runs[0].stdout)
