"""End-to-end verification pipeline and report construction.

A pipeline takes a seed fibration, one even branch specification for the
family base change, and a ledger of assumptions (Picard numbers, torsion
orders, externally certified exclusion facts) that `jsonio` parsed once
into typed values.  `run_pipeline` checks that the seed is a K3
fibration and runs the stages of `_STAGES` in order on one `_Run`.
Each stage reads the spec and what earlier stages left on the run,
writes its part of the report there and records its `Reason`s through
`_Run.note`.  The run is 'conditional' exactly when some reason is, and
the notes are the reasons' notes in stage order.  The JSON document is
the contract and the text rendering is derived from it.

Every number in the report carries a tag: 'paper' for values quoted from
the published fiber tables, 'trivial' for bookkeeping identities,
'derived' for values computed here, 'assumed' for declared inputs.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Any

from .jsonio import (
    FAMILY_STAGE,
    FLAG_ASSUMPTIONS,
    SEED_STAGE,
    Assumption,
    ClassEntries,
    InputError,
    SchemaError,
    dumps_canonical,
    exclusion_fact_to_json,
    form_to_json,
    load_json,
    parse_assumptions,
    parse_branch_spec,
    parse_surface_config,
    surface_config_to_json,
)
from .kodaira import is_star
from .lattice import FrozenRecord
from .mordell_weil import DiscConsistency, ShiodaTateResult, check_disc_consistency, shioda_tate
from .surfaces import (
    BaseChangeResult,
    BranchSpec,
    SurfaceConfig,
    SurfaceInvariants,
    invariants,
    quadratic_base_change,
)
from .transcendental import (
    DiscResolution,
    RigidityCertificate,
    VERDICT_FAILS,
    candidate_classes,
    double_cover_disc_candidates,
    resolve_disc,
    rigidity_transfer,
    shioda_inose_unscale,
    specialization_index,
)

class PipelineContradictionError(InputError):
    """A certified stage failed an exact consistency check."""


def tagged(value: Any, tag: str) -> dict:
    return {"tag": tag, "value": value}


class PipelineSpec(FrozenRecord):
    """The seed, its covering stages, and the parsed assumptions by role."""

    __slots__ = (
        "seed", "assumptions", "stages", "flags", "seed_lattice", "shioda_inose",
        "stage_lattices", "torsion", "facts",
    )


def build_pipeline_spec(
    seed: SurfaceConfig, family_branch: BranchSpec, assumptions: tuple[Assumption, ...]
) -> PipelineSpec:
    """Derive the covering stages from the family branch specification.

    The family stage uses the branch set as given.  When the branch
    contains exactly three star fibers, each pair of them defines one
    K3 double-cover stage: Y_k omits the k-th star (in fiber order).
    """
    stages: list[tuple[str, BranchSpec]] = [(FAMILY_STAGE, family_branch)]
    star_labels = [
        label for label, f in seed.fibers if label in family_branch.labels and is_star(f)
    ]
    if len(star_labels) == 3:
        for k in range(3):
            pair = frozenset(x for i, x in enumerate(star_labels) if i != k)
            stages.append((f"Y{k}", BranchSpec(pair)))
    named = {a.name: a for a in assumptions}
    return PipelineSpec(
        seed,
        assumptions,
        tuple(stages),
        frozenset(FLAG_ASSUMPTIONS).intersection(named),
        named.get("seed_transcendental_lattice"),
        named.get("shioda_inose_cover"),
        {a.stage: a for a in assumptions if a.name == "stage_transcendental_lattice"},
        {a.stage: a for a in assumptions if a.name == "torsion_order"},
        tuple(a.value for a in assumptions if a.name == "exclusion_fact"),
    )


class Reason(FrozenRecord):
    """Why a run is conditional, with the note the report shows for it.

    A reason without a note still makes the run conditional; a reason
    that is not conditional only adds its note.
    """

    __slots__ = ("note", "conditional")


class _Run:
    """What one run has derived so far, and the report sections it has written.

    `surfaces` maps each covering stage that ran to its configuration and
    invariants; the seed X is not among them.  `pinned` maps a stage to its
    central discriminants and where they come from.  `nearby_disc` is known
    once a rigid quotient lattice fixes it.  `accounting` maps X, then each
    covering stage, to its Shioda-Tate record when rho is assumed maximal,
    and `height` a checked stage to its height checks (see check_discs).
    """

    def __init__(self, spec: PipelineSpec, seed_inv: SurfaceInvariants) -> None:
        self.spec = spec
        self.seed_inv = seed_inv
        self.surfaces: dict[str, tuple[SurfaceConfig, SurfaceInvariants]] = {}
        self.accounting: dict[str, ShiodaTateResult] = {}
        self.height: dict[str, dict[int, DiscConsistency] | None] = {}
        self.candidates: list[tuple[int, int]] = []
        self.pinned: dict[str, tuple[list[int], str]] = {}
        self.nearby_disc: int | None = None
        self.reasons: list[Reason] = []
        self.seed: dict[str, Any] = {}
        self.stages: list[dict] = []
        self.analysis: dict[str, Any] = {}
        self.specialization: dict[str, Any] = {}

    def note(self, note: str | None, conditional: bool = True) -> None:
        """Record a reason, conditional unless said otherwise."""
        self.reasons.append(Reason(note, conditional))

    def check_discs(self, name: str, discs: list[int]) -> dict[int, DiscConsistency] | None:
        """The stage's height check of each disc, kept in `height`; None without a torsion order."""
        torsion, st = self.spec.torsion.get(name), self.accounting[name]
        self.height[name] = torsion and {d: check_disc_consistency(st, d, torsion.value) for d in discs}
        return self.height[name]


def _invariants_json(inv: SurfaceInvariants) -> dict:
    out: dict[str, Any] = {
        key: tagged(getattr(inv, key), "derived") for key in ("e", "d", "p_g", "q", "b1", "b2", "h11")
    }
    out["kind"] = inv.kind
    if inv.extrapolated:
        out["extrapolated"] = True
    return out


def _base_change_json(bc: BaseChangeResult) -> dict:
    log = []
    for row in bc.log:
        log.append(
            {
                "label": row.label,
                "source": row.source_token,
                "branched": row.branched,
                "star": row.star,
                "images": [{"label": lab, "type": tok} for lab, tok in row.images],
                "delta": tagged(row.delta, row.table_source),
                "table": row.table_source,
            }
        )
    out = {
        "delta": tagged(bc.delta, "derived"),
        "euler_before": tagged(bc.euler_before, "derived"),
        "euler_after": tagged(bc.euler_after, "derived"),
        "log": log,
    }
    if bc.d_before is not None:
        out["d_before"] = tagged(bc.d_before, "derived")
        out["d_after"] = tagged(bc.d_after, "derived")
    return out


def _surface_record(run: _Run, name: str, config: SurfaceConfig, inv: SurfaceInvariants) -> dict:
    """A surface's name, configuration and invariants, and its Shioda-Tate
    accounting (kept in run.accounting) when the Picard number is assumed maximal."""
    record: dict[str, Any] = {
        "name": name,
        "config": surface_config_to_json(config),
        "invariants": _invariants_json(inv),
    }
    if "picard_maximal" in run.spec.flags:
        st = run.accounting[name] = shioda_tate(config, inv.h11)
        if st.mw_rank < 0:  # the fibers' trivial lattice outranks rho = h11
            raise SchemaError(f"config.fibers: stage {name}: rho = {st.rho} is below the "
                              f"trivial-lattice rank {st.trivial_rank}")
        record["shioda_tate"] = {
            "rho": tagged(st.rho, "assumed"),
            "trivial_rank": tagged(st.trivial_rank, "derived"),
            "mw_rank": tagged(st.mw_rank, "derived"),
            "trivial_disc": tagged(str(st.trivial_disc), "derived"),
        }
    return record


def _resolution_json(resolution: DiscResolution, rendered: dict) -> dict:
    """rendered holds each disc's class entries, one `ClassEntries` per
    set of marks, built once per run; the stages share them."""
    certificate = []
    for cand in resolution.certificate:
        marks = {i: (fact.provenance, fact.kind) for i, fact in cand.excluded_by.items()}
        key = (cand.disc, frozenset(marks.items()))
        classes = rendered.get(key)
        if classes is None:
            classes = rendered[key] = ClassEntries(cand.forms, marks)
        item: dict[str, Any] = {
            "alpha": cand.alpha,
            "disc": tagged(cand.disc, "derived"),
            "excluded": cand.excluded,
            "classes": classes,
        }
        if cand.reason:
            item["reason"] = cand.reason
        certificate.append(item)
    out: dict[str, Any] = {
        "certificate": certificate,
        "surviving": [{"alpha": a, "disc": d} for a, d in resolution.surviving],
        "resolved": resolution.resolved,
    }
    if resolution.resolved:
        out["resolved_disc"] = tagged(resolution.resolved_disc, "derived")
        out["alpha"] = tagged(resolution.alpha, "derived")
    form = resolution.surviving_form
    if form is not None:
        out["surviving_form"] = form_to_json(form)
    return out


def _rigidity_json(cert: RigidityCertificate) -> dict:
    out: dict[str, Any] = {
        "lattice": form_to_json(cert.lattice),
        "index_bound": tagged(cert.index_bound, "derived"),
        "rigid": cert.rigid,
        "checks": [
            {"index": c.index, "status": c.status, "detail": c.detail} for c in cert.checks
        ],
        "conclusion": cert.conclusion,
    }
    if cert.witness is not None:
        out["witness"] = form_to_json(cert.witness)
        out["witness_reduced"] = form_to_json(cert.witness_reduced)
    return out


def _seed_stage(run: _Run) -> None:
    spec = run.spec
    run.seed = _surface_record(run, SEED_STAGE, spec.seed, run.seed_inv)
    if "shioda_tate" not in run.seed:
        run.note("no Picard-number assumption: Shioda-Tate accounting skipped")
    if spec.seed_lattice is not None:
        t_x = spec.seed_lattice.value
        run.seed["transcendental"] = {
            "gram": form_to_json(t_x),
            "disc": tagged(t_x.disc, "assumed"),
            "provenance": spec.seed_lattice.provenance,
        }


def _covering_stages(run: _Run) -> None:
    """Base change to every stage; the K3 stages need the family stage,
    which comes first, to be elliptic-elliptic."""
    spec = run.spec
    family_ok = True
    for name, branch in spec.stages:
        if not family_ok:
            run.note(f"stage {name} skipped: the family stage is not elliptic-elliptic")
            continue
        bc = quadratic_base_change(spec.seed, branch, name=f"{spec.seed.name}/{name}")
        inv = invariants(bc.config)
        record = _surface_record(run, name, bc.config, inv)
        record["branch"] = list(branch.sorted_labels())
        record["base_change"] = _base_change_json(bc)
        if name == FAMILY_STAGE:
            family_ok = inv.kind == "elliptic-elliptic"
            detail = f"expected an elliptic surface over an elliptic base, got {inv.kind!r}"
            record["family_gate"] = {"ok": family_ok, "detail": "elliptic-elliptic" if family_ok else detail}
            if not family_ok:
                run.note(
                    f"family stage has kind {inv.kind!r}; the construction needs "
                    "'elliptic-elliptic', remaining stages skipped"
                )
        run.stages.append(record)
        run.surfaces[name] = (bc.config, inv)


def _no_seed_lattice(run: _Run) -> None:
    run.note("no seed transcendental lattice assumption: lattice analysis skipped")


def _candidates_stage(run: _Run) -> None:
    """The central discriminants the double covers may have, from the seed lattice's."""
    disc = run.spec.seed_lattice.value.disc
    run.candidates = double_cover_disc_candidates(disc)
    run.analysis["candidates"] = {
        "disc_seed": tagged(disc, "assumed"),
        "list": [{"alpha": a, "disc": tagged(d, "derived")} for a, d in run.candidates],
    }
    run.pinned[SEED_STAGE] = ([disc], "assumption")


def _shioda_inose_stage(run: _Run) -> None:
    """The quotient lattice at the Shioda-Inose stage and its rigidity.

    Pins the quotient's discriminant at that stage and, only when the
    quotient lattice is rigid, the nearby discriminant.
    """
    spec = run.spec
    si = spec.shioda_inose
    if si is None or si.stage not in run.surfaces:
        run.note("no usable Shioda-Inose cover stage: nearby lattice not determined")
        return
    t_si = shioda_inose_unscale(spec.seed_lattice.value)
    disc = t_si.disc
    try:
        rigidity = rigidity_transfer(t_si)
    except ValueError as exc:  # the index bound misses a square factor of disc(t_si)
        at = spec.assumptions.index(spec.seed_lattice)
        raise SchemaError(f"assumptions[{at}].payload.gram: {exc}") from None
    run.analysis["shioda_inose"] = {
        "stage": si.stage,
        "gram": form_to_json(t_si),
        "disc": tagged(disc, "derived"),
        "provenance": si.provenance,
    }
    run.analysis["rigidity"] = _rigidity_json(rigidity)
    run.pinned[si.stage] = ([disc], "shioda_inose")
    if not rigidity.rigid:
        run.note(
            "quotient lattice admits a proper even overlattice: the nearby "
            "lattice is not pinned down"
        )
        return
    run.analysis["nearby_lattice"] = {
        "gram": form_to_json(t_si),
        "disc": tagged(disc, "derived"),
        "conclusion": (
            "the nearby transcendental lattice contains the quotient lattice "
            "with finite index and no proper even overlattice exists, so they "
            "are equal"
        ),
        "conditional_on": sorted(spec.flags) + ["shioda_inose_cover"],
    }
    run.pinned[FAMILY_STAGE] = ([disc], "rigidity_transfer")
    run.nearby_disc = disc


def _assumed_lattices(run: _Run) -> None:
    """Declared transcendental lattices of covering stages."""
    entries = []
    for stage, a in sorted(run.spec.stage_lattices.items()):
        if stage in run.surfaces:
            disc = a.value.disc
            entries.append({
                "stage": stage,
                "gram": form_to_json(a.value),
                "disc": tagged(disc, "assumed"),
                "provenance": a.provenance,
            })
            run.pinned[stage] = ([disc], "assumption")
    if entries:
        run.analysis["assumed_stage_lattices"] = entries


def _resolution_stage(run: _Run) -> None:
    """Discriminant resolution for the stages no earlier stage pinned."""
    spec, candidates = run.spec, run.candidates
    items = []
    classes = None  # enumerated on first use, then shared by the stages
    rendered: dict = {}  # and so are their report entries
    for name, _branch in spec.stages:
        if name in run.pinned or name not in run.surfaces:
            continue
        config, inv = run.surfaces[name]
        if inv.kind != "K3":
            run.note(f"stage {name} is not a K3 surface: no discriminant analysis")
            continue
        if "picard_maximal" not in spec.flags:
            run.note(f"stage {name}: discriminant resolution needs a Picard assumption")
            continue
        if classes is None:
            classes = candidate_classes(candidates)
        height = run.check_discs(name, [d for _a, d in candidates])
        resolution = resolve_disc(candidates, classes, spec.facts, config.fiber_tokens(), height)
        if not resolution.surviving:
            raise PipelineContradictionError(
                f"assumptions: stage {name}: every discriminant candidate was excluded"
            )
        items.append({"stage": name, "resolution": _resolution_json(resolution, rendered)})
        run.pinned[name] = ([d for _a, d in resolution.surviving], "resolution")
        if not resolution.resolved:
            survivors = ", ".join(str(d) for _a, d in resolution.surviving)
            run.note(
                f"stage {name}: discriminant not uniquely resolved, "
                f"surviving candidates {{{survivors}}}"
            )
    if items:
        run.analysis["resolutions"] = items


def _height_checks(run: _Run) -> None:
    """Height-denominator cross-checks of the central discriminants, stage by stage."""
    spec = run.spec
    checks = []
    for name, st in run.accounting.items():
        if name not in run.pinned:
            continue
        discs, torsion = run.pinned[name][0], spec.torsion.get(name)
        # A resolved stage checked every candidate, excluded ones too, as it resolved.
        height = run.height[name] if name in run.height else run.check_discs(name, discs)
        if height is None:
            run.note(f"stage {name}: no torsion assumption, height cross-check skipped")
            continue
        for disc, check in height.items():
            entry = {
                "stage": name,
                "candidate_disc": tagged(disc, "derived"),
                "certified": disc in discs,
                "torsion_order": tagged(torsion.value, "assumed"),
                "torsion_provenance": torsion.provenance,
                "mw_rank": tagged(st.mw_rank, "derived"),
                "mwl_disc": tagged(str(check.mwl_disc), "derived"),
                "denominator_bound": tagged(check.denominator_bound, "derived"),
                "consistent": check.consistent,
            }
            if check.reason:
                entry["reason"] = check.reason
            checks.append(entry)
            if entry["certified"] and not check.consistent and len(discs) == 1:
                raise PipelineContradictionError(
                    f"assumptions[{spec.assumptions.index(torsion)}].payload.order: stage {name}: "
                    f"certified discriminant {disc} fails the height-denominator check: {check.reason}"
                )
    if checks:
        run.analysis["denominator_checks"] = checks


def _specialization_stage(run: _Run) -> None:
    """Specialization indices of the central discriminants, and the verdict.

    Discriminants with no finite-index relation to the nearby lattice get
    a note but do not by themselves make the run conditional; an
    undetermined verdict does.
    """
    if run.nearby_disc is None:
        run.note("nearby lattice unknown: specialization indices not computed")
        return
    per_stage = []
    for name, _branch in run.spec.stages:
        if name == FAMILY_STAGE or name not in run.pinned:
            continue
        discs, source = run.pinned[name]
        indices, incompatible = [], []
        for disc in sorted(set(discs)):
            result = specialization_index(disc, run.nearby_disc)
            if result is None:
                incompatible.append(disc)
                continue
            indices.append({"central_disc": tagged(disc, "derived"),
                            "index": tagged(result.index, "derived"),
                            "verdict": result.verdict})
        entry: dict[str, Any] = {
            "stage": name,
            "source": source,
            "nearby_disc": tagged(run.nearby_disc, "derived"),
            "indices": indices,
            "verdict": _agreed({item["verdict"] for item in indices}),
        }
        if incompatible:
            entry["incompatible_discs"] = incompatible
            run.note(
                f"stage {name}: discriminant(s) {incompatible} are not related "
                "to the nearby lattice by a finite-index embedding",
                conditional=False,
            )
        per_stage.append(entry)
    failing = [entry["stage"] for entry in per_stage if entry["verdict"] == VERDICT_FAILS]
    verdict = VERDICT_FAILS if failing else _agreed({entry["verdict"] for entry in per_stage})
    if verdict == "undetermined":
        run.note(None)
    run.specialization = {"per_stage": per_stage, "failing_stages": failing, "verdict": verdict}


def _agreed(verdicts: set[str]) -> str:
    """The verdict every item reached, or 'undetermined' if none or several."""
    return verdicts.pop() if len(verdicts) == 1 else "undetermined"


# The stages in report order; the lattice analysis starts from the seed's
# transcendental lattice, and without it one note stands in for it.
_STAGES = (
    _seed_stage, _covering_stages, _candidates_stage, _shioda_inose_stage, _assumed_lattices,
    _resolution_stage, _height_checks, _specialization_stage,
)
_STAGES_WITHOUT_SEED_LATTICE = (_seed_stage, _covering_stages, _no_seed_lattice, _specialization_stage)


def run_pipeline(spec: PipelineSpec) -> dict:
    seed_inv = invariants(spec.seed)
    if seed_inv.kind != "K3" or seed_inv.e != 24:
        # With e = 24, only a base genus other than 0 keeps the seed from K3.
        field = "config.fibers" if seed_inv.e != 24 else "config.base_genus"
        raise SchemaError(f"{field}: seed configuration must be a K3 fibration with e = 24; "
                          f"got kind {seed_inv.kind!r} with e = {seed_inv.e}")
    run = _Run(spec, seed_inv)
    for stage in _STAGES if spec.seed_lattice is not None else _STAGES_WITHOUT_SEED_LATTICE:
        stage(run)

    ledger = []
    for a in spec.assumptions:
        entry: dict[str, Any] = {"name": a.name, "provenance": a.provenance}
        if a.name == "exclusion_fact":
            entry["payload"] = exclusion_fact_to_json(a.value)
        elif a.payload:
            entry["payload"] = a.payload
        ledger.append(entry)

    report = {
        "schema": "invcycle-report/1",
        "pipeline": {"name": spec.seed.name},
        "seed": run.seed,
        "stages": run.stages,
        "analysis": run.analysis,
        "specialization": run.specialization,
        "assumption_ledger": ledger,
        "notes": [r.note for r in run.reasons if r.note is not None],
        "status": "conditional" if any(r.conditional for r in run.reasons) else "verified",
    }
    if "verdict" in run.specialization:
        report["verdict"] = run.specialization["verdict"]
    return report


def load_pipeline_files(
    config_path: str | Path, branch_path: str | Path, assumptions_path: str | Path
) -> PipelineSpec:
    config = parse_surface_config(load_json(config_path), "config")
    branch = parse_branch_spec(load_json(branch_path), "branch")
    assumptions = parse_assumptions(load_json(assumptions_path), "assumptions")
    return build_pipeline_spec(config, branch, assumptions)


def run_custom(
    config_path: str | Path, branch_path: str | Path, assumptions_path: str | Path
) -> dict:
    return run_pipeline(load_pipeline_files(config_path, branch_path, assumptions_path))


def run_example(example_id: int) -> dict:
    if example_id not in (1, 2):
        raise SchemaError(f"unknown example {example_id}; available: 1, 2")
    base = resources.files("invcycle").joinpath("data", f"example{example_id}")
    with resources.as_file(base) as root:
        return run_custom(root / "config.json", root / "branch.json", root / "assumptions.json")


def report_exit_code(report: dict, strict: bool = False) -> int:
    if report["status"] == "verified":
        return 0
    return 1 if strict else 2


def _fmt_tagged(value: dict) -> str:
    return f"{value['value']} [{value['tag']}]"


def _fmt_gram(gram: list[list[str]]) -> str:
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in gram) + "]"


def render_text(report: dict) -> str:
    """Human-readable rendering derived from the JSON report."""
    lines: list[str] = []
    push = lines.append
    push(f"pipeline: {report['pipeline']['name']}")
    push(f"status: {report['status']}" + (f"    verdict: {report['verdict']}" if "verdict" in report else ""))
    push("")
    seed = report["seed"]
    inv = seed["invariants"]
    push(f"seed {seed['name']}: genus {seed['config']['base_genus']}, fibers "
         + ", ".join(f"{f['label']}:{f['type']}" for f in seed["config"]["fibers"]))
    push(f"  e = {_fmt_tagged(inv['e'])}, d = {_fmt_tagged(inv['d'])}, kind = {inv['kind']}")
    if "transcendental" in seed:
        t = seed["transcendental"]
        push(f"  transcendental gram {_fmt_gram(t['gram'])}, disc {_fmt_tagged(t['disc'])}")
    if "shioda_tate" in seed:
        st = seed["shioda_tate"]
        push(
            f"  Shioda-Tate: rho {_fmt_tagged(st['rho'])}, trivial rank "
            f"{_fmt_tagged(st['trivial_rank'])}, MW rank {_fmt_tagged(st['mw_rank'])}, "
            f"trivial disc {_fmt_tagged(st['trivial_disc'])}"
        )
    for stage in report["stages"]:
        push("")
        inv = stage["invariants"]
        push(f"stage {stage['name']}: branch {{{', '.join(stage['branch'])}}}")
        bc = stage["base_change"]
        push(f"  delta = {_fmt_tagged(bc['delta'])}, e: {_fmt_tagged(bc['euler_before'])} -> "
             f"{_fmt_tagged(bc['euler_after'])}")
        push(f"  fibers: {', '.join(f['label'] + ':' + f['type'] for f in stage['config']['fibers'])}")
        push(f"  kind = {inv['kind']}, h11 = {_fmt_tagged(inv['h11'])}")
        if "shioda_tate" in stage:
            st = stage["shioda_tate"]
            push(f"  Shioda-Tate: rho {_fmt_tagged(st['rho'])}, MW rank {_fmt_tagged(st['mw_rank'])}, "
                 f"trivial disc {_fmt_tagged(st['trivial_disc'])}")
        if "family_gate" in stage and not stage["family_gate"]["ok"]:
            push(f"  family gate FAILED: {stage['family_gate']['detail']}")
    analysis = report.get("analysis", {})
    if "candidates" in analysis:
        push("")
        cands = ", ".join(
            f"alpha={c['alpha']}: {c['disc']['value']}" for c in analysis["candidates"]["list"]
        )
        push(f"analysis: disc candidates from seed disc {_fmt_tagged(analysis['candidates']['disc_seed'])}: {cands}")
    if "shioda_inose" in analysis:
        si = analysis["shioda_inose"]
        push(f"  quotient lattice at {si['stage']}: gram {_fmt_gram(si['gram'])}, disc {_fmt_tagged(si['disc'])}")
    if "rigidity" in analysis:
        rig = analysis["rigidity"]
        push(f"  rigidity up to index {_fmt_tagged(rig['index_bound'])}: "
             + ("rigid" if rig["rigid"] else "NOT rigid"))
        if "witness" in rig:
            push(f"    witness overlattice {_fmt_gram(rig['witness'])} (reduced {_fmt_gram(rig['witness_reduced'])})")
    if "nearby_lattice" in analysis:
        near = analysis["nearby_lattice"]
        push(f"  nearby lattice: gram {_fmt_gram(near['gram'])}, disc {_fmt_tagged(near['disc'])}")
        push(f"    conditional on: {', '.join(near['conditional_on'])}")
    for item in analysis.get("assumed_stage_lattices", []):
        push(f"  assumed lattice at {item['stage']}: disc {_fmt_tagged(item['disc'])} ({item['provenance']})")
    for item in analysis.get("resolutions", []):
        res = item["resolution"]
        survivors = ", ".join(str(s["disc"]) for s in res["surviving"])
        state = f"resolved to {res['resolved_disc']['value']}" if res["resolved"] else f"ambiguous ({survivors})"
        push(f"  discriminant resolution at {item['stage']}: {state}")
        for cand in res["certificate"]:
            mark = "excluded" if cand["excluded"] else "survives"
            push(f"    alpha={cand['alpha']} disc={cand['disc']['value']}: {mark}")
            for cls in cand["classes"]:
                fate = f"excluded by {cls['excluded_by']}" if "excluded_by" in cls else "not excluded"
                push(f"      class {_fmt_gram(cls['form'])} {fate}")
            if "reason" in cand:
                push(f"      reason: {cand['reason']}")
    for check in analysis.get("denominator_checks", []):
        flag = "ok" if check["consistent"] else (
            "CONTRADICTION" if check["certified"] else "excluded by height bound"
        )
        push(
            f"  height check {check['stage']} disc {check['candidate_disc']['value']}: "
            f"disc(MWL) = {check['mwl_disc']['value']}, bound {check['denominator_bound']['value']}, {flag}"
        )
    spec_section = report.get("specialization", {})
    if spec_section.get("per_stage"):
        push("")
        push("specialization:")
        for entry in spec_section["per_stage"]:
            idx = ", ".join(
                f"disc {i['central_disc']['value']}: index {i['index']['value']} ({i['verdict']})"
                for i in entry["indices"]
            )
            push(f"  {entry['stage']} (from {entry['source']}): {idx}")
        push(f"overall verdict: {spec_section['verdict']}")
    if report["notes"]:
        push("")
        push("notes:")
        for note in report["notes"]:
            push(f"  - {note}")
    push("")
    push(f"assumptions ({len(report['assumption_ledger'])}):")
    for a in report["assumption_ledger"]:
        push(f"  - {a['name']}: {a['provenance']}")
    return "\n".join(lines) + "\n"


def report_to_json(report: dict) -> str:
    return dumps_canonical(report)
