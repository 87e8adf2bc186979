"""End-to-end pipeline reports: frozen values, tampering, failure paths."""

import contextlib
import importlib.util
import io
import itertools
import json
import random
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcycle import cli, jsonio, lattice, mordell_weil, pipeline, transcendental
from invcycle.jsonio import SchemaError, parse_branch_spec, parse_surface_config
from invcycle.kodaira import euler_number, fiber
from invcycle.mordell_weil import shioda_tate
from invcycle.pipeline import (
    PipelineContradictionError,
    _Run,
    _specialization_stage,
    build_pipeline_spec,
    report_exit_code,
    report_to_json,
    render_text,
    run_custom,
    run_example,
    run_pipeline,
)
from invcycle.surfaces import BranchSpec, SurfaceConfig, invariants


def bundled_doc(example, name):
    text = resources.files("invcycle").joinpath("data", example, name).read_text(
        encoding="utf-8"
    )
    return json.loads(text)


def write_docs(tmp_path, config, branch, assumptions):
    out = []
    for name, doc in (
        ("config.json", config),
        ("branch.json", branch),
        ("assumptions.json", assumptions),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        out.append(path)
    return out


def docs(example):
    return (
        bundled_doc(example, "config.json"),
        bundled_doc(example, "branch.json"),
        bundled_doc(example, "assumptions.json"),
    )


@pytest.fixture(scope="module")
def report1():
    return run_example(1)


@pytest.fixture(scope="module")
def report2():
    return run_example(2)


class TestExample1:
    @pytest.fixture
    def report(self, report1):
        return report1

    def test_header(self, report):
        assert report["schema"] == "invcycle-report/1"
        assert report["pipeline"] == {"name": "K3-E8-E6-D4"}
        assert report["status"] == "verified"
        assert report["verdict"] == "LICT_fails"
        assert report["notes"] == []

    def test_seed_record(self, report):
        seed = report["seed"]
        assert seed["name"] == "X"
        inv = seed["invariants"]
        assert inv["e"] == {"tag": "derived", "value": 24}
        assert inv["h11"] == {"tag": "derived", "value": 20}
        assert inv["kind"] == "K3"
        st = seed["shioda_tate"]
        assert st["rho"] == {"tag": "assumed", "value": 20}
        assert st["mw_rank"] == {"tag": "derived", "value": 0}
        assert st["trivial_disc"] == {"tag": "derived", "value": "12"}
        assert seed["transcendental"]["gram"] == [["4", "2"], ["2", "4"]]
        assert seed["transcendental"]["disc"] == {"tag": "assumed", "value": 12}

    def test_stage_roster(self, report):
        assert [s["name"] for s in report["stages"]] == ["S_t", "Y0", "Y1", "Y2"]
        by_name = {s["name"]: s for s in report["stages"]}
        assert by_name["S_t"]["family_gate"] == {"ok": True, "detail": "elliptic-elliptic"}
        tokens = lambda s: sorted(f["type"] for f in s["config"]["fibers"])
        assert tokens(by_name["S_t"]) == ["IV", "IV*"]
        assert tokens(by_name["Y0"]) == ["II*", "II*", "IV"]
        assert tokens(by_name["Y1"]) == ["IV*", "IV*", "IV*"]
        assert tokens(by_name["Y2"]) == ["I0*", "I0*", "IV", "IV*"]
        assert by_name["S_t"]["base_change"]["delta"] == {"tag": "derived", "value": 3}
        assert by_name["Y0"]["base_change"]["delta"] == {"tag": "derived", "value": 2}
        assert by_name["S_t"]["config"]["base_genus"] == 1
        assert by_name["S_t"]["invariants"]["kind"] == "elliptic-elliptic"

    def test_candidates(self, report):
        cands = report["analysis"]["candidates"]
        assert cands["disc_seed"] == {"tag": "assumed", "value": 12}
        assert [(c["alpha"], c["disc"]["value"]) for c in cands["list"]] == [
            (0, 3), (1, 12), (2, 48),
        ]

    def test_shioda_inose_and_rigidity(self, report):
        si = report["analysis"]["shioda_inose"]
        assert si["stage"] == "Y0"
        assert si["gram"] == [["2", "1"], ["1", "2"]]
        assert si["disc"] == {"tag": "derived", "value": 3}
        rig = report["analysis"]["rigidity"]
        assert rig["rigid"] is True
        assert rig["index_bound"]["value"] == 10
        assert len(rig["checks"]) == 9

    def test_nearby_lattice(self, report):
        nearby = report["analysis"]["nearby_lattice"]
        assert nearby["disc"] == {"tag": "derived", "value": 3}
        assert nearby["conditional_on"] == [
            "constant_transcendental_vhs",
            "picard_maximal",
            "specialization_injective",
            "shioda_inose_cover",
        ]

    def test_resolution(self, report):
        (item,) = report["analysis"]["resolutions"]
        assert item["stage"] == "Y2"
        res = item["resolution"]
        assert res["resolved"] is True
        assert res["resolved_disc"] == {"tag": "derived", "value": 48}
        assert res["surviving"] == [{"alpha": 2, "disc": 48}]
        cert = {c["disc"]["value"]: c for c in res["certificate"]}
        assert cert[3]["excluded"] and cert[12]["excluded"] and not cert[48]["excluded"]

    def test_denominator_checks(self, report):
        checks = report["analysis"]["denominator_checks"]
        key = lambda c: (c["stage"], c["candidate_disc"]["value"])
        by_key = {key(c): c for c in checks}
        assert by_key[("X", 12)]["mwl_disc"]["value"] == "1"
        assert by_key[("X", 12)]["certified"] and by_key[("X", 12)]["consistent"]
        assert by_key[("S_t", 3)]["mwl_disc"]["value"] == "1/3"
        assert by_key[("S_t", 3)]["denominator_bound"]["value"] == 9
        assert by_key[("Y1", 3)]["torsion_order"]["value"] == 3
        # The excluded candidate 3 fails the bound on Y2; the checker
        # reports it as uncertified rather than as a contradiction.
        y2_small = by_key[("Y2", 3)]
        assert not y2_small["consistent"] and not y2_small["certified"]
        assert y2_small["mwl_disc"]["value"] == "1/48"
        assert y2_small["denominator_bound"]["value"] == 36
        assert by_key[("Y2", 12)]["consistent"] and not by_key[("Y2", 12)]["certified"]
        y2_final = by_key[("Y2", 48)]
        assert y2_final["consistent"] and y2_final["certified"]
        assert y2_final["mwl_disc"]["value"] == "1/3"

    def test_specialization(self, report):
        spec = report["specialization"]
        per = {p["stage"]: p for p in spec["per_stage"]}
        assert per["Y0"]["source"] == "shioda_inose"
        assert per["Y1"]["source"] == "assumption"
        assert per["Y2"]["source"] == "resolution"
        assert [i["index"]["value"] for i in per["Y0"]["indices"]] == [1]
        assert [i["index"]["value"] for i in per["Y2"]["indices"]] == [4]
        assert per["Y2"]["verdict"] == "LICT_fails"
        assert spec["failing_stages"] == ["Y2"]
        assert spec["verdict"] == "LICT_fails"

    def test_exit_code(self, report):
        assert report_exit_code(report) == 0
        assert report_exit_code(report, strict=True) == 0

    def test_ledger(self, report):
        ledger = report["assumption_ledger"]
        assert len(ledger) == 14
        assert all(e["provenance"].strip() for e in ledger)
        fact_entries = [e for e in ledger if e["name"] == "exclusion_fact"]
        assert len(fact_entries) == 3
        assert all("kind" in e["payload"] for e in fact_entries)

    def test_render_text(self, report):
        text = render_text(report)
        assert "pipeline: K3-E8-E6-D4" in text
        assert "status: verified" in text
        assert "verdict: LICT_fails" in text
        assert "excluded by height bound" in text
        assert "CONTRADICTION" not in text


class TestExample2:
    @pytest.fixture
    def report(self, report2):
        return report2

    def test_header(self, report):
        assert report["pipeline"] == {"name": "K3-E8-D5-D5"}
        assert report["status"] == "conditional"
        assert report["verdict"] == "LICT_fails"
        assert report["notes"] == [
            "stage Y1: discriminant not uniquely resolved, surviving candidates {16, 64}",
            "stage Y2: discriminant not uniquely resolved, surviving candidates {16, 64}",
        ]

    def test_candidates(self, report):
        cands = report["analysis"]["candidates"]
        assert cands["disc_seed"]["value"] == 16
        assert [(c["alpha"], c["disc"]["value"]) for c in cands["list"]] == [
            (0, 4), (1, 16), (2, 64),
        ]

    def test_shioda_inose(self, report):
        si = report["analysis"]["shioda_inose"]
        assert si["stage"] == "Y0"
        assert si["gram"] == [["2", "0"], ["0", "2"]]
        assert report["analysis"]["rigidity"]["rigid"] is True
        assert report["analysis"]["nearby_lattice"]["disc"]["value"] == 4

    def test_stage_roster(self, report):
        by_name = {s["name"]: s for s in report["stages"]}
        tokens = lambda s: sorted(f["type"] for f in s["config"]["fibers"])
        assert tokens(by_name["Y0"]) == ["I2", "I2", "II*", "II*"]
        assert tokens(by_name["Y1"]) == ["I1*", "I1*", "I2", "IV*"]
        assert tokens(by_name["Y2"]) == ["I1*", "I1*", "I2", "IV*"]
        assert tokens(by_name["S_t"]) == ["I2", "I2", "IV*"]

    def test_ambiguity_survives_to_specialization(self, report):
        per = {p["stage"]: p for p in report["specialization"]["per_stage"]}
        for stage in ("Y1", "Y2"):
            assert per[stage]["source"] == "resolution"
            pairs = [
                (i["central_disc"]["value"], i["index"]["value"])
                for i in per[stage]["indices"]
            ]
            assert pairs == [(16, 2), (64, 4)]
            assert per[stage]["verdict"] == "LICT_fails"
        assert per["Y0"]["verdict"] == "LICT_holds_possible"
        assert report["specialization"]["failing_stages"] == ["Y1", "Y2"]

    def test_exit_code(self, report):
        assert report_exit_code(report) == 2
        assert report_exit_code(report, strict=True) == 1

    def test_conditional_stages_have_provenance(self, report):
        # Every stage named in a note ties back to ledger entries with
        # nonempty provenance strings.
        assert all(e["provenance"].strip() for e in report["assumption_ledger"])
        noted = {n.split(":")[0].removeprefix("stage ") for n in report["notes"]}
        assert noted == {"Y1", "Y2"}


class TestDeterminism:
    @pytest.mark.parametrize("example", [1, 2])
    def test_repeated_runs_identical(self, example):
        first = run_example(example)
        second = run_example(example)
        assert first == second
        assert report_to_json(first) == report_to_json(second)

    def test_custom_run_matches_bundled(self, tmp_path):
        paths = write_docs(tmp_path, *docs("example1"))
        assert run_custom(*paths) == run_example(1)


class TestTampering:
    def test_wrong_torsion_is_a_contradiction(self, tmp_path):
        config, branch, assumptions = docs("example1")
        for entry in assumptions["assumptions"]:
            if entry["name"] == "torsion_order" and entry["payload"]["stage"] == "Y0":
                entry["payload"]["order"] = 2
        paths = write_docs(tmp_path, config, branch, assumptions)
        with pytest.raises(PipelineContradictionError) as exc:
            run_custom(*paths)
        # The error names the torsion entry of the ledger that fails.
        assert str(exc.value) == (
            "assumptions[8].payload.order: stage Y0: certified discriminant 3 fails the "
            "height-denominator check: rank-0 Mordell-Weil lattice must have discriminant 1, got 4"
        )

    def test_excluding_every_candidate_is_a_contradiction(self, tmp_path):
        config, branch, assumptions = docs("example1")
        # The seed [[4, 2], [2, 4]] has disc 12: candidates 3, 12 and 48.
        for disc in (3, 12, 48):
            for abc in lattice.enumerate_even_posdef_binary(disc):
                fact = {"kind": "not_isomorphic_to", "form": jsonio.binary_gram_to_json(*abc), "provenance": "p"}
                assumptions["assumptions"].append(
                    {"name": "exclusion_fact", "payload": fact, "provenance": "p"}
                )
        paths = write_docs(tmp_path, config, branch, assumptions)
        with pytest.raises(PipelineContradictionError) as exc:
            run_custom(*paths)
        assert str(exc.value) == "assumptions: stage Y2: every discriminant candidate was excluded"

    def test_missing_picard_flag_degrades_to_conditional(self, tmp_path):
        config, branch, assumptions = docs("example1")
        assumptions["assumptions"] = [
            a for a in assumptions["assumptions"] if a["name"] != "picard_maximal"
        ]
        report = run_custom(*write_docs(tmp_path, config, branch, assumptions))
        assert report["status"] == "conditional"
        assert any("Picard" in note for note in report["notes"])
        assert "shioda_tate" not in report["seed"]
        assert report_exit_code(report) == 2

    def test_missing_seed_lattice_skips_analysis(self, tmp_path):
        config, branch, assumptions = docs("example1")
        assumptions["assumptions"] = [
            a
            for a in assumptions["assumptions"]
            if a["name"] != "seed_transcendental_lattice"
        ]
        report = run_custom(*write_docs(tmp_path, config, branch, assumptions))
        assert report["status"] == "conditional"
        assert report["analysis"] == {}
        assert "verdict" not in report
        assert any("lattice analysis skipped" in n for n in report["notes"])

    def test_missing_facts_leave_ambiguity_and_mixed_indices(self, tmp_path):
        config, branch, assumptions = docs("example1")
        assumptions["assumptions"] = [
            a for a in assumptions["assumptions"] if a["name"] != "exclusion_fact"
        ]
        report = run_custom(*write_docs(tmp_path, config, branch, assumptions))
        assert report["status"] == "conditional"
        (item,) = report["analysis"]["resolutions"]
        surviving = {s["disc"] for s in item["resolution"]["surviving"]}
        assert surviving == {3, 12, 48}
        per = {p["stage"]: p for p in report["specialization"]["per_stage"]}
        pairs = [
            (i["central_disc"]["value"], i["index"]["value"])
            for i in per["Y2"]["indices"]
        ]
        assert pairs == [(3, 1), (12, 2), (48, 4)]
        assert per["Y2"]["verdict"] == "undetermined"
        assert report["verdict"] == "undetermined"

    def test_missing_si_cover_blocks_specialization(self, tmp_path):
        config, branch, assumptions = docs("example1")
        assumptions["assumptions"] = [
            a for a in assumptions["assumptions"] if a["name"] != "shioda_inose_cover"
        ]
        report = run_custom(*write_docs(tmp_path, config, branch, assumptions))
        assert report["status"] == "conditional"
        assert "shioda_inose" not in report["analysis"]
        assert "per_stage" not in report["specialization"]
        assert any("nearby lattice" in n.lower() for n in report["notes"])


class TestGatesAndErrors:
    def test_family_gate_failure_skips_k3_stages(self, tmp_path):
        config, _branch, assumptions = docs("example1")
        branch = {"branch": ["0", "1", "2", "t", "u", "v"]}
        report = run_custom(*write_docs(tmp_path, config, branch, assumptions))
        assert report["status"] == "conditional"
        gate = report["stages"][0]["family_gate"]
        assert gate["ok"] is False
        assert [s["name"] for s in report["stages"]] == ["S_t"]
        skipped = [n for n in report["notes"] if "skipped" in n]
        assert any("Y0" in n for n in skipped)
        assert any("Y2" in n for n in skipped)

    def test_two_star_branch_fails_family_gate(self, tmp_path):
        # From a K3 seed the family stage can only be elliptic-elliptic
        # when exactly three branched stars absorb the Euler number, so
        # a two-star branch must stop at the gate with no K3 stages.
        config, _branch, assumptions = docs("example1")
        branch = {"branch": ["0", "1"]}
        report = run_custom(*write_docs(tmp_path, config, branch, assumptions))
        assert [s["name"] for s in report["stages"]] == ["S_t"]
        assert report["status"] == "conditional"
        assert report["stages"][0]["family_gate"]["ok"] is False
        assert report["stages"][0]["invariants"]["kind"] == "K3"

    def test_non_k3_seed_rejected(self):
        config = SurfaceConfig(
            name="rational",
            base_genus=0,
            fibers=(("0", fiber("II*")), ("1", fiber("II"))),
        )
        spec = build_pipeline_spec(config, BranchSpec(frozenset({"0", "1"})), ())
        with pytest.raises(SchemaError):
            run_pipeline(spec)

    def test_unknown_example_id(self):
        with pytest.raises(SchemaError):
            run_example(3)


class TestStageDerivation:
    def test_y_stages_are_star_pairs(self):
        config = SurfaceConfig(
            name="seed",
            base_genus=0,
            fibers=(
                ("a", fiber("II*")),
                ("b", fiber("IV")),
                ("c", fiber("IV*")),
                ("d", fiber("I0*")),
            ),
        )
        spec = build_pipeline_spec(
            config, BranchSpec(frozenset({"a", "c", "d", "t"})), ()
        )
        names = dict(spec.stages)
        assert set(names) == {"S_t", "Y0", "Y1", "Y2"}
        assert names["Y0"].labels == frozenset({"c", "d"})
        assert names["Y1"].labels == frozenset({"a", "d"})
        assert names["Y2"].labels == frozenset({"a", "c"})

    def test_no_y_stages_without_three_stars(self):
        config = SurfaceConfig(
            name="seed", base_genus=0, fibers=(("a", fiber("II*")),)
        )
        spec = build_pipeline_spec(config, BranchSpec(frozenset({"a", "t"})), ())
        assert [name for name, _ in spec.stages] == ["S_t"]


STARS = ("I0*", "I1*", "I2*", "I3*", "IV*", "III*", "II*")
NON_STARS = ("I1", "I2", "I3", "I4", "I5", "II", "III", "IV")


@st.composite
def k3_seeds_with_branches(draw):
    """A seed with Euler number 24 and an even branch set of a few labels.

    Up to four star fibers are drawn first and the rest is filled with
    non-star fibers.  Three stars, and three branched stars, are drawn
    more often than the rest, so that the family gate often passes.
    """
    tokens, left = [], 24
    for _ in range(draw(st.sampled_from((0, 1, 2, 3, 3, 3, 4)))):
        fitting = [t for t in STARS if euler_number(fiber(t)) <= left]
        if fitting:
            tokens.append(draw(st.sampled_from(fitting)))
            left -= euler_number(fiber(tokens[-1]))
    while left:
        token = draw(st.sampled_from([t for t in NON_STARS if euler_number(fiber(t)) <= left]))
        tokens.append(token)
        left -= euler_number(fiber(token))
    labels = [str(i) for i in range(len(tokens))]
    stars = [lab for lab, t in zip(labels, tokens) if t in STARS]
    others = [lab for lab in labels if lab not in stars]

    def some(pool, sizes):
        return draw(st.permutations(pool))[: draw(st.sampled_from(sizes))]

    chosen = some(stars, (0, 1, 2, 3, 3, 3, 4)) + some(others, (0, 0, 1, 2))
    fresh = draw(st.sampled_from((0, 2) if len(chosen) % 2 == 0 else (1, 3)))
    branch = chosen + ["t", "u", "v"][:fresh] or ["t", "u"]
    config = SurfaceConfig(
        name="seed", base_genus=0, fibers=tuple((lab, fiber(t)) for lab, t in zip(labels, tokens))
    )
    return config, BranchSpec(frozenset(branch))


class TestFamilyGateProperty:
    @settings(max_examples=300, deadline=None)
    @given(k3_seeds_with_branches())
    def test_passing_family_gate_implies_three_k3_stages(self, seed_and_branch):
        # e(S_t) = 48 - 12 * (branched stars), so S_t is elliptic-elliptic
        # only with three branched stars, which define Y0, Y1 and Y2.
        config, branch = seed_and_branch
        report = run_pipeline(build_pipeline_spec(config, branch, ()))
        if report["stages"][0]["family_gate"]["ok"]:
            assert [s["name"] for s in report["stages"]] == ["S_t", "Y0", "Y1", "Y2"]


class TestReasons:
    @pytest.fixture
    def spec(self):
        config, branch, _assumptions = docs("example1")
        return build_pipeline_spec(parse_surface_config(config), parse_branch_spec(branch), ())

    @staticmethod
    def specialize(spec, pinned, nearby_disc):
        run = _Run(spec, invariants(spec.seed))
        run.pinned, run.nearby_disc = pinned, nearby_disc
        _specialization_stage(run)
        return run.specialization, run.reasons

    def test_incompatible_disc_is_a_note_that_is_not_conditional(self, spec):
        pinned = {"Y0": ([12], "shioda_inose"), "Y1": ([8], "assumption")}
        record, reasons = self.specialize(spec, pinned, 3)
        assert record["verdict"] == "LICT_fails"
        assert record["per_stage"][1]["incompatible_discs"] == [8]
        (reason,) = reasons
        assert "[8] are not related" in reason.note
        assert not reason.conditional

    def test_undetermined_verdict_is_conditional_without_a_note(self, spec):
        record, reasons = self.specialize(spec, {"Y1": ([8], "assumption")}, 3)
        assert record["verdict"] == "undetermined"
        assert [(r.note is None, r.conditional) for r in reasons] == [(False, False), (True, True)]


class TestParseOnce:
    def test_run_example_parses_each_gram_and_fact_once(self, monkeypatch):
        calls = {"parse_gram": 0, "parse_exclusion_fact": 0}
        for name in calls:
            original = getattr(jsonio, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(jsonio, name, counted)
        run_example(1)
        # example 1 declares 5 Gram matrices, 3 of them inside its 3 facts
        assert calls == {"parse_gram": 5, "parse_exclusion_fact": 3}

    def test_second_seed_lattice_is_an_input_error(self, tmp_path):
        config, branch, assumptions = docs("example1")
        entries = assumptions["assumptions"]
        entries.append({
            "name": "seed_transcendental_lattice",
            "payload": {"gram": [[2, 0], [0, 6]]},
            "provenance": "a second, conflicting seed lattice",
        })
        with pytest.raises(SchemaError) as exc:
            run_custom(*write_docs(tmp_path, config, branch, assumptions))
        assert str(exc.value).startswith(f"assumptions[{len(entries) - 1}]: ")


class TestParseBoundary:
    """A Gram may be written with JSON integers, decimal strings or
    "+"-signed strings; past the parser only its binary form is left."""

    @pytest.mark.parametrize(
        "name, report_gram",
        [
            ("seed_transcendental_lattice", lambda r: r["seed"]["transcendental"]["gram"]),
            ("stage_transcendental_lattice", lambda r: r["analysis"]["assumed_stage_lattices"][0]["gram"]),
        ],
        ids=["seed", "stage"],
    )
    def test_every_spelling_gives_one_form_and_one_report(self, name, report_gram):
        config, branch, assumptions = docs("example1")
        at = next(i for i, a in enumerate(assumptions["assumptions"]) if a["name"] == name)
        gram = assumptions["assumptions"][at]["payload"]["gram"]
        spellings = [
            gram,
            [[str(x) for x in row] for row in gram],
            [[f"+{x}" for x in row] for row in gram],
        ]
        forms, reports = [], []
        for spelling in spellings:
            assumptions["assumptions"][at]["payload"]["gram"] = spelling
            parsed = jsonio.parse_assumptions(assumptions)
            forms.append(parsed[at].value)
            report = run_pipeline(build_pipeline_spec(
                parse_surface_config(config), parse_branch_spec(branch), parsed
            ))
            assert report["assumption_ledger"][at]["payload"]["gram"] == spelling
            reports.append(report)
        assert all(isinstance(form, lattice.BinaryEvenForm) for form in forms)
        assert forms[0] == forms[1] == forms[2]
        assert report_gram(reports[0]) == [[str(x) for x in row] for row in gram]
        assert report_gram(reports[0]) == report_gram(reports[1]) == report_gram(reports[2])
        for report in reports:
            del report["assumption_ledger"]
        assert reports[0] == reports[1] == reports[2]


class TestRenderingBuildsNoLattice:
    """Each class in a resolution certificate is enumerated and rendered
    as its (a, b, c) coefficients, so the number of Gram lattices and of
    binary forms a run builds does not grow with the number of classes it
    lists."""

    @staticmethod
    def spec(c):
        # The quotient lattice [[2, 1], [1, 2c]] has the squarefree disc
        # 4c - 1 for both values of c below, so rigidity enumerates nothing.
        config, branch, _assumptions = docs("example1")
        entries = [
            {"name": "picard_maximal", "provenance": "p"},
            {"name": "seed_transcendental_lattice", "payload": {"gram": [[4, 2], [2, 4 * c]]}, "provenance": "p"},
            {"name": "shioda_inose_cover", "payload": {"stage": "Y0"}, "provenance": "p"},
        ]
        return build_pipeline_spec(
            parse_surface_config(config),
            parse_branch_spec(branch),
            jsonio.parse_assumptions({"assumptions": entries}),
        )

    @staticmethod
    def class_count(report):
        return sum(
            len(cand["classes"])
            for item in report["analysis"]["resolutions"]
            for cand in item["resolution"]["certificate"]
        )

    def test_constructions_do_not_grow_with_the_class_count(self, monkeypatch):
        built = []
        build_lattice = lattice.GramLattice.__init__
        build_form = lattice.BinaryEvenForm.__init__

        def lattice_counted(self, rows):
            built.append("lattice")
            build_lattice(self, rows)

        def form_counted(self, *values):
            built.append("form")
            build_form(self, *values)

        runs = {}
        for c in (1, 1000):
            spec = self.spec(c)
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(lattice.GramLattice, "__init__", lattice_counted)
                patch.setattr(lattice.BinaryEvenForm, "__init__", form_counted)
                report = run_pipeline(spec)
                report_to_json(report)
            runs[c] = (self.class_count(report), built.count("lattice"), built.count("form"))
        (few, *small_built), (many, *large_built) = runs[1], runs[1000]
        assert many > 10 * few
        assert large_built == small_built, runs
        assert all(small_built), runs


def perfbench_workloads():
    """The benchmark's input generators, `perfbench/workloads.py`."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads_for_pipeline", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up here
    spec.loader.exec_module(workloads)
    return workloads


def generated_certificate(seed, disc):
    """One certificate of the benchmark's `certificates` generator, parsed."""
    workloads = perfbench_workloads()
    rng = random.Random(seed)
    config, branch, assumptions, _params = workloads.certificate_files(
        rng, workloads.CertificateDecks(rng), disc, "work-count"
    )
    return build_pipeline_spec(
        parse_surface_config(config), parse_branch_spec(branch), jsonio.parse_assumptions(assumptions)
    )


class TestClassWorkOncePerRun:
    """Counts, not times: a run with two resolved stages enumerates each
    candidate's classes once, builds no per-class record, and hands both
    stages one `ClassEntries` where neither excludes a class."""

    def test_two_stages_share_the_class_work(self, monkeypatch):
        # Seed 36 draws disc(T') = 10000, so the candidates are 10000, 40000
        # and 160000.  Two Y stages are resolved, and facts exclude classes
        # of the first and last candidates, none of the middle one.
        spec = generated_certificate(36, 10**4)
        enumerated, verdicts = [], []
        enumerate_classes = transcendental.enumerate_even_posdef_binary
        build_verdict = transcendental.ClassVerdict.__init__

        def enumerate_counted(disc):
            enumerated.append(disc)
            return enumerate_classes(disc)

        def verdict_counted(self, *args):
            verdicts.append(args)
            build_verdict(self, *args)

        monkeypatch.setattr(transcendental, "enumerate_even_posdef_binary", enumerate_counted)
        monkeypatch.setattr(transcendental.ClassVerdict, "__init__", verdict_counted)
        report = run_pipeline(spec)
        report_to_json(report)
        candidates = [item["disc"]["value"] for item in report["analysis"]["candidates"]["list"]]
        assert candidates[0] == 10000
        assert sorted(enumerated) == candidates
        assert verdicts == []

        first, second = (item["resolution"]["certificate"] for item in report["analysis"]["resolutions"])
        untouched = [
            j for j in range(3)
            if not any("excluded_by" in entry for entry in [*first[j]["classes"], *second[j]["classes"]])
        ]
        assert untouched == [1]
        assert first[1]["classes"] is second[1]["classes"]
        # Stages that mark the same classes alike share one marked record
        # too; here that is the last candidate.
        shared = [j for j in range(3) if first[j]["classes"] is second[j]["classes"]]
        assert shared == [j for j in range(3) if first[j]["classes"] == second[j]["classes"]] == [1, 2]

        # The property builds the records on demand, and only there.
        pairs = list(enumerate(candidates))
        resolution = transcendental.resolve_disc(
            pairs, transcendental.candidate_classes(pairs), [], spec.seed.fiber_tokens(), None
        )
        assert verdicts == []
        assert len(resolution.certificate[1].classes) == len(verdicts) > 0


class TestAccountingOncePerStage:
    """Counts, not times: each stage with a report record walks its fibers
    once, in shioda_tate, and the discriminant resolution and the height
    checks read that stage's record.  The pipeline makes each height
    check once, and the report renders every check it makes."""

    @staticmethod
    def counted_profiles(monkeypatch):
        calls = []
        profile = mordell_weil.fiber_profile

        def counted(f):
            calls.append(f)
            return profile(f)

        monkeypatch.setattr(mordell_weil, "fiber_profile", counted)
        return calls

    @pytest.mark.parametrize("example, fibers", [(1, 15), (2, 18)])
    def test_one_walk_per_stage(self, monkeypatch, example, fibers):
        calls = self.counted_profiles(monkeypatch)
        report = run_example(example)
        records = [report["seed"], *report["stages"]]
        assert all("shioda_tate" in record for record in records)
        assert report["analysis"]["resolutions"] and report["analysis"]["denominator_checks"]
        assert len(calls) == sum(len(record["config"]["fibers"]) for record in records) == fibers

    def test_resolution_walks_no_fiber(self, monkeypatch):
        tokens = ["I0*", "I0*", "IV", "IV*"]
        y2 = SurfaceConfig("y2", 0, tuple((str(i), fiber(t)) for i, t in enumerate(tokens)))
        record = shioda_tate(y2, 20)
        calls = self.counted_profiles(monkeypatch)
        candidates = transcendental.double_cover_disc_candidates(12)
        bound = transcendental.ExclusionFact("denominator_bound", None, None, "height bound")
        height = {disc: mordell_weil.check_disc_consistency(record, disc, 1) for _a, disc in candidates}
        resolution = transcendental.resolve_disc(
            candidates, transcendental.candidate_classes(candidates), [bound], y2.fiber_tokens(), height
        )
        assert calls == []
        # The bound applied: disc(MWL) = 1/48 for candidate 3 does not divide 6^2.
        assert "does not divide the bound 36" in resolution.certificate[0].reason
        assert resolution.surviving == ((1, 12), (2, 48))

    @staticmethod
    def counted_checks(monkeypatch):
        """Every height check a run makes, as (stage record, disc, torsion),
        whichever module makes it."""
        calls = []
        check = mordell_weil.check_disc_consistency

        def counted(st, disc, torsion):
            calls.append((id(st), disc, torsion))
            return check(st, disc, torsion)

        for module in (mordell_weil, pipeline, transcendental):
            if getattr(module, "check_disc_consistency", None) is check:
                monkeypatch.setattr(module, "check_disc_consistency", counted)
        return calls

    @pytest.mark.parametrize("example, bound, checks", [
        ("example1", False, 7), ("example2", False, 9), ("example1", True, 7), ("example2", True, 9),
    ])
    def test_one_check_per_reported_disc(self, monkeypatch, example, bound, checks):
        config, branch, assumptions = docs(example)
        if bound:
            fact = {"kind": "denominator_bound", "provenance": "height pairing bound"}
            assumptions["assumptions"].append(
                {"name": "exclusion_fact", "payload": fact, "provenance": fact["provenance"]}
            )
        spec = build_pipeline_spec(
            parse_surface_config(config), parse_branch_spec(branch), jsonio.parse_assumptions(assumptions)
        )
        calls = self.counted_checks(monkeypatch)
        report = run_pipeline(spec)
        assert len(calls) == len(report["analysis"]["denominator_checks"]) == checks
        reasons = " ".join(cand.get("reason", "") for item in report["analysis"]["resolutions"]
                           for cand in item["resolution"]["certificate"])
        assert ("[height pairing bound]" in reasons) == bound

    def test_no_disc_checked_twice_on_benchmark_certificates(self, monkeypatch, tmp_path):
        calls = self.counted_checks(monkeypatch)
        for op in itertools.islice(perfbench_workloads().stream("certificates", 1, tmp_path), 32):
            calls.clear()
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(op.argv))
            assert len(set(calls)) == len(calls), op.argv
            if code != 1:
                checks = json.loads(out.getvalue())["analysis"].get("denominator_checks", [])
                assert len(calls) == len(checks), op.argv
