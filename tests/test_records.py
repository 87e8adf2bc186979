"""The immutable value classes, all `lattice.FrozenRecord` subclasses.

`GramLattice`, `BinaryEvenForm`, `KodairaFiber`, `FiberProfile` and
`Assumption`, which the lattice and fiber commands load, and the sixteen
records of the pipeline modules and `jsonio.ClassEntries`, which only the
pipeline builds, behave as frozen dataclasses do:
field-wise equality with instances of the same class only (never with a
plain tuple), the hash of the field tuple, `Name(field=value, ...)`
reprs, and no assignment after construction.  None of them orders.  The
repr is part of user-visible error text.  The pipeline records' tests
were written against the frozen dataclasses they replace, and passed
there.
"""

import copy
import importlib
import pickle
import pkgutil
import re

import pytest

import invcycle
from invcycle.jsonio import (
    Assumption,
    ClassEntries,
    SchemaError,
    form_to_json,
    parse_assumptions,
    parse_branch_spec,
    parse_exclusion_fact,
    parse_surface_config,
)
from invcycle.kodaira import FiberProfile, KodairaFiber, fiber, fiber_profile
from invcycle.lattice import BinaryEvenForm, FrozenRecord, GramLattice
from invcycle.mordell_weil import DiscConsistency, ShiodaTateResult, check_disc_consistency, shioda_tate
from invcycle.pipeline import PipelineSpec, Reason, _Run, build_pipeline_spec
from invcycle.surfaces import (
    BaseChangeResult,
    BranchPointRecord,
    BranchSpec,
    SurfaceConfig,
    SurfaceInvariants,
    invariants,
    quadratic_base_change,
)
from invcycle.transcendental import (
    CandidateVerdict,
    ClassVerdict,
    DiscResolution,
    ExclusionFact,
    RigidityCertificate,
    RigidityCheck,
    SpecializationResult,
    rigidity_transfer,
    specialization_index,
)

PROFILE_I5 = (5, 5, "A", 4, 5, None, frozenset({1, 5}))
A2_GRAM = ((2, 1), (1, 2))
FIRST_FIELD = {GramLattice: "gram", BinaryEvenForm: "a", KodairaFiber: "kind", FiberProfile: "euler", Assumption: "name"}


def instances():
    """(equal, equal again, different, field tuple of the first) per class."""
    return [
        (GramLattice([[2, 1], [1, 2]]), GramLattice(A2_GRAM), GramLattice([[2, 0], [0, 2]]), (A2_GRAM,)),
        (BinaryEvenForm(1, 0, 1), BinaryEvenForm(a=1, b=0, c=1), BinaryEvenForm(1, 1, 1), (1, 0, 1)),
        (KodairaFiber("I", 5), fiber("I5"), fiber("I6"), ("I", 5)),
        (fiber_profile(fiber("I5")), FiberProfile(*PROFILE_I5), fiber_profile(fiber("I6")), PROFILE_I5),
        (
            Assumption("torsion_order", {"stage": "X", "order": 2}, "p", "X", 2),
            Assumption("torsion_order", {"stage": "X", "order": 2}, "p", stage="X", value=2),
            Assumption("torsion_order", {"stage": "X", "order": 3}, "p", "X", 3),
            ("torsion_order", {"stage": "X", "order": 2}, "p", "X", 2),
        ),
    ]


@pytest.mark.parametrize("same, again, other, fields", instances())
def test_equality_is_fieldwise_within_the_class(same, again, other, fields):
    assert same == again and not (same != again)
    assert same != other and not (same == other)
    assert same != fields and not (same == fields)
    assert fields != same
    assert same != object()


@pytest.mark.parametrize("same, again, other, fields", instances()[:-1])
def test_equal_instances_hash_equal(same, again, other, fields):
    assert hash(same) == hash(again) == hash(fields)
    assert len({same, again, other}) == 2


def test_assumption_with_a_dict_payload_is_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(Assumption("picard_maximal", {}, "p", None, None))


@pytest.mark.parametrize("same, again, other, fields", instances())
def test_assignment_and_deletion_raise(same, again, other, fields):
    name = FIRST_FIELD[type(same)]
    with pytest.raises(AttributeError):
        setattr(same, name, 0)
    with pytest.raises(AttributeError):
        delattr(same, name)
    with pytest.raises(AttributeError):
        same.not_a_field = 0
    assert same == again


@pytest.mark.parametrize("same, again, other, fields", instances())
def test_copy_and_pickle_round_trip(same, again, other, fields):
    assert copy.copy(same) == same
    assert copy.deepcopy(same) == same
    assert pickle.loads(pickle.dumps(same)) == same


def test_binary_forms_do_not_order():
    with pytest.raises(TypeError):
        BinaryEvenForm(1, 0, 1) < BinaryEvenForm(1, 0, 2)
    with pytest.raises(TypeError):
        sorted([BinaryEvenForm(2, 1, 3), BinaryEvenForm(1, 0, 5)])


def test_binary_forms_do_not_order_against_tuples():
    with pytest.raises(TypeError):
        BinaryEvenForm(1, 0, 1) < (1, 0, 2)


def test_fibers_and_profiles_do_not_order():
    with pytest.raises(TypeError):
        fiber("I5") < fiber("I6")
    with pytest.raises(TypeError):
        fiber_profile(fiber("I5")) < fiber_profile(fiber("I6"))


def test_reprs():
    assert repr(GramLattice([[2, 1], [1, 2]])) == "GramLattice(gram=((2, 1), (1, 2)))"
    assert repr(BinaryEvenForm(1, -2, 3)) == "BinaryEvenForm(a=1, b=-2, c=3)"
    assert str(BinaryEvenForm(1, -2, 3)) == "BinaryEvenForm(a=1, b=-2, c=3)"
    assert repr(fiber("I0*")) == "fiber('I0*')"
    assert str(fiber("I0*")) == "I0*"
    assert repr(fiber_profile(fiber("I5"))) == (
        "FiberProfile(euler=5, components=5, root_type='A', root_rank=4, root_disc=5, "
        "odd_multiplicity_components=None, contribution_denominators=frozenset({1, 5}))"
    )
    assert repr(Assumption("picard_maximal", {}, "p", None, None)) == (
        "Assumption(name='picard_maximal', payload={}, provenance='p', stage=None, value=None)"
    )


def test_missing_and_unknown_arguments():
    with pytest.raises(TypeError):
        BinaryEvenForm(1, 0)
    with pytest.raises(TypeError):
        BinaryEvenForm(1, 0, 1, d=2)
    with pytest.raises(TypeError):
        Assumption("picard_maximal", {})


# The sixteen records that only the pipeline commands load, and the class
# entries of a report, which only they build.  They behave
# as frozen dataclasses without ordering do; FIELDS pins each field order,
# which the repr, the hash and positional construction follow.

SEED = SurfaceConfig("seed", 0, (("0", fiber("II*")), ("1", fiber("IV*")), ("2", fiber("I0*"))))
BRANCH = BranchSpec(frozenset({"0", "1"}))
FAMILY = BranchSpec(frozenset({"0", "1", "2", "t"}))
A2 = BinaryEvenForm(1, 1, 1)

FIELDS = {
    PipelineSpec: (
        "seed", "assumptions", "stages", "flags", "seed_lattice", "shioda_inose",
        "stage_lattices", "torsion", "facts",
    ),
    Reason: ("note", "conditional"),
    SurfaceConfig: ("name", "base_genus", "fibers"),
    SurfaceInvariants: ("e", "d", "p_g", "q", "b1", "b2", "h11", "kind", "extrapolated"),
    BranchSpec: ("labels",),
    BranchPointRecord: ("label", "source_token", "branched", "star", "images", "delta", "table_source"),
    BaseChangeResult: ("config", "delta", "euler_before", "euler_after", "d_before", "d_after", "log"),
    ExclusionFact: ("kind", "form", "fibers", "provenance"),
    ClassVerdict: ("form", "excluded_by", "fact_kind"),
    CandidateVerdict: ("alpha", "disc", "excluded", "reason", "forms", "excluded_by"),
    DiscResolution: ("certificate", "surviving"),
    RigidityCheck: ("index", "status", "detail"),
    RigidityCertificate: (
        "lattice", "index_bound", "rigid", "checks", "witness", "witness_reduced", "conclusion",
    ),
    SpecializationResult: ("index", "verdict"),
    ShiodaTateResult: ("rho", "trivial_rank", "mw_rank", "trivial_disc", "height_lcm"),
    DiscConsistency: ("consistent", "mwl_disc", "denominator_bound", "reason"),
    ClassEntries: ("forms", "marks"),
}


def field_tuple(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def by_keyword(record):
    return type(record)(**dict(zip(FIELDS[type(record)], field_tuple(record))))


def pipeline_records():
    """(record, a different record of the same class) for each class, built
    by the functions that build them in a run where there is one."""
    spec = build_pipeline_spec(SEED, BRANCH, parse_assumptions({"assumptions": [
        {"name": "picard_maximal", "provenance": "p"},
        {"name": "torsion_order", "payload": {"stage": "X", "order": 1}, "provenance": "p"},
    ]}))
    bc = quadratic_base_change(SEED, BRANCH)
    fact = ExclusionFact("not_isomorphic_to", A2, None, "p")
    verdict = ClassVerdict(A2, "p", "not_isomorphic_to")
    candidate = CandidateVerdict(0, 3, True, None, ((1, 1, 1),), {0: fact})
    rigid = rigidity_transfer(A2)
    check = check_disc_consistency(shioda_tate(SEED, 20), 12, 1)
    return [
        (spec, build_pipeline_spec(SEED, BRANCH, ())),
        (Reason("n", True), Reason("n", conditional=False)),
        (SEED, SurfaceConfig("other", 0, SEED.fibers)),
        (invariants(SEED), invariants(quadratic_base_change(SEED, FAMILY).config)),
        (BRANCH, BranchSpec(frozenset({"0", "2"}))),
        (bc.log[0], bc.log[2]),
        (bc, quadratic_base_change(SEED, BranchSpec(frozenset({"0", "2"})))),
        (fact, ExclusionFact("not_isomorphic_to", A2, None, "q")),
        (verdict, ClassVerdict(A2, None, None)),
        (candidate, CandidateVerdict(0, 3, False, None, ((1, 1, 1),), {})),
        (DiscResolution((candidate,), ()), DiscResolution((candidate,), ((0, 3),))),
        (rigid.checks[0], rigid.checks[1]),
        (rigid, rigidity_transfer(BinaryEvenForm(2, 0, 2))),
        (specialization_index(12, 3), specialization_index(3, 3)),
        (shioda_tate(SEED, 20), shioda_tate(SEED, 21)),
        (check, check_disc_consistency(shioda_tate(SEED, 20), 3, 1)),
        (ClassEntries(((1, 1, 1),), {0: ("p", "not_isomorphic_to")}), ClassEntries(((1, 1, 1),), {})),
    ]


def test_every_pipeline_record_is_covered():
    lattice_path = {type(same) for same, _again, _other, _fields in instances()}
    assert {type(record) for record, _other in pipeline_records()} == set(FIELDS)
    assert set(FIELDS) == set(FrozenRecord.__subclasses__()) - lattice_path
    for cls, fields in FIELDS.items():
        assert cls.__slots__ == fields, cls.__name__


@pytest.mark.parametrize("record, other", pipeline_records(), ids=lambda r: type(r).__name__)
def test_pipeline_record_equality(record, other):
    again = by_keyword(record)
    assert again is not record
    assert record == again and not (record != again)
    assert record != other and not (record == other)
    assert record != field_tuple(record) and field_tuple(record) != record
    assert record != object()
    with pytest.raises(TypeError):
        record < again


# Records with a dict field: the spec's assumption maps, and a candidate's
# excluded classes by position (so also the resolution that holds it, and
# the marks of its class entries).
WITH_DICTS = (PipelineSpec, CandidateVerdict, DiscResolution, ClassEntries)


@pytest.mark.parametrize(
    "record, other",
    [pair for pair in pipeline_records() if type(pair[0]) not in WITH_DICTS],
    ids=lambda r: type(r).__name__,
)
def test_pipeline_record_hash_is_the_field_tuple_hash(record, other):
    assert hash(record) == hash(by_keyword(record)) == hash(field_tuple(record))
    assert len({record, by_keyword(record), other}) == 2


def test_pipeline_spec_with_dicts_is_unhashable():
    spec, _other = pipeline_records()[0]
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(spec)


@pytest.mark.parametrize(
    "record",
    [record for record, _other in pipeline_records() if type(record) in WITH_DICTS[1:]],
    ids=lambda r: type(r).__name__,
)
def test_resolution_records_with_dicts_are_unhashable(record):
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(record)


@pytest.mark.parametrize("record, other", pipeline_records(), ids=lambda r: type(r).__name__)
def test_pipeline_record_repr(record, other):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[type(record)], field_tuple(record)))
    assert repr(record) == str(record) == f"{type(record).__qualname__}({fields})"


def test_pipeline_record_repr_literals():
    assert repr(Reason("n", True)) == "Reason(note='n', conditional=True)"
    assert repr(BranchSpec(frozenset())) == "BranchSpec(labels=frozenset())"
    assert repr(ClassVerdict(A2, "p", "not_isomorphic_to")) == (
        "ClassVerdict(form=BinaryEvenForm(a=1, b=1, c=1), excluded_by='p', fact_kind='not_isomorphic_to')"
    )
    assert repr(specialization_index(12, 3)) == "SpecializationResult(index=2, verdict='LICT_fails')"
    assert repr(check_disc_consistency(shioda_tate(SEED, 20), 12, 1)) == (
        "DiscConsistency(consistent=True, mwl_disc=Fraction(1, 1), denominator_bound=1, reason=None)"
    )


@pytest.mark.parametrize("record, other", pipeline_records(), ids=lambda r: type(r).__name__)
def test_pipeline_record_assignment_and_deletion_raise(record, other):
    name = FIELDS[type(record)][0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    assert getattr(record, name) is before


@pytest.mark.parametrize("record, other", pipeline_records(), ids=lambda r: type(r).__name__)
def test_pipeline_record_copy_and_pickle_round_trip(record, other):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_reason_defaults_to_conditional():
    run = _Run(build_pipeline_spec(SEED, BRANCH, ()), invariants(SEED))
    run.note("n")
    run.note(note=None)
    run.note("n", False)
    run.note("n", conditional=False)
    assert run.reasons == [Reason("n", True), Reason(None, True), Reason("n", False), Reason("n", False)]


FACT = ExclusionFact("not_isomorphic_to", A2, None, "p")


def test_disc_resolution_properties():
    live = CandidateVerdict(1, 12, False, None, ((1, 1, 1),), {})
    dead = CandidateVerdict(0, 3, True, None, ((1, 1, 1),), {0: FACT})
    resolved = DiscResolution((dead, live), ((1, 12),))
    assert (resolved.resolved, resolved.resolved_disc, resolved.alpha) == (True, 12, 1)
    assert resolved.surviving_form == A2
    two = CandidateVerdict(2, 48, False, None, ((1, 0, 12),), {})
    ambiguous = DiscResolution((live, two), ((1, 12), (2, 48)))
    assert (ambiguous.resolved, ambiguous.resolved_disc, ambiguous.alpha) == (False, None, None)
    assert ambiguous.surviving_form is None


def test_surviving_form_counts_the_live_classes():
    forms = ((1, 0, 3), (2, 2, 2))
    one_left = CandidateVerdict(1, 12, False, None, forms, {0: FACT})
    assert DiscResolution((one_left,), ((1, 12),)).surviving_form == BinaryEvenForm(2, 2, 2)
    two_left = CandidateVerdict(1, 12, False, None, forms, {})
    assert DiscResolution((two_left,), ((1, 12),)).surviving_form is None


def test_candidate_classes_are_built_on_demand():
    forms = ((1, 0, 3), (2, 2, 2))
    candidate = CandidateVerdict(1, 12, False, None, forms, {1: FACT})
    assert candidate.classes == (
        ClassVerdict(BinaryEvenForm(1, 0, 3), None, None),
        ClassVerdict(BinaryEvenForm(2, 2, 2), "p", "not_isomorphic_to"),
    )
    with pytest.raises(AttributeError):
        candidate.classes = ()


def test_class_entries_iterate_as_their_dicts():
    entries = ClassEntries(((1, 0, 3), (2, 2, 2)), {1: ("p", "not_isomorphic_to")})
    assert len(entries) == 2
    assert list(entries) == [
        {"form": [["2", "0"], ["0", "6"]]},
        {"form": [["4", "2"], ["2", "4"]], "excluded_by": "p", "fact_kind": "not_isomorphic_to"},
    ]
    assert len(ClassEntries((), {})) == 0 and list(ClassEntries((), {})) == []


# The records only store; each check lives in the jsonio parse function
# that builds the record from a document.

@pytest.mark.parametrize("fields, message", [
    ({"base_genus": -1}, "config.base_genus: base genus must be a nonnegative integer"),
    ({"base_genus": "0"}, "config.base_genus: expected int"),
    (
        {"fibers": [{"label": "0", "type": "II*"}, {"label": "0", "type": "IV*"}]},
        "config.fibers[1].label: '0' is also config.fibers[0].label; fiber labels must be distinct",
    ),
], ids=["negative-genus", "string-genus", "duplicate-label"])
def test_surface_config_validation(fields, message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        parse_surface_config({"name": "s", "base_genus": 0, "fibers": [], **fields})


def test_branch_spec_validation():
    with pytest.raises(SchemaError, match="^branch.branch: branch locus has 3 points; an even count is required$"):
        parse_branch_spec({"branch": ["0", "1", "2"]})


# The field of the payload that a check names, where it names one.
FACT_FIELD = {
    "unknown exclusion fact kind 'rumor'": ".kind",
    "exclusion facts require a nonempty provenance string": ".provenance",
}


@pytest.mark.parametrize("args, message", [
    (("rumor", None, None, "p"), "unknown exclusion fact kind 'rumor'"),
    (("denominator_bound", None, None, " "), "exclusion facts require a nonempty provenance string"),
    (("denominator_bound", None, None, ""), "exclusion facts require a nonempty provenance string"),
    (("not_isomorphic_to", None, None, "p"), "not_isomorphic_to fact requires a form"),
    (("no_fibration_with_fibers", None, ("IV",), "p"), "no_fibration_with_fibers fact requires a form"),
    (("no_fibration_with_fibers", A2, None, "p"), "no_fibration_with_fibers fact requires a fiber list"),
])
def test_exclusion_fact_validation(args, message):
    kind, form, fibers, provenance = args
    payload = {"kind": kind, "provenance": provenance}
    if form is not None:
        payload["form"] = form_to_json(form)
    if fibers is not None:
        payload["fibers"] = list(fibers)
    line = f"fact{FACT_FIELD.get(message, '')}: {message}"
    with pytest.raises(SchemaError, match=f"^{re.escape(line)}$"):
        parse_exclusion_fact(payload, "fact")


def test_only_gram_lattice_defines_init():
    """Every record but GramLattice, which converts its rows to tuples,
    takes FrozenRecord's storing constructor."""
    for module in pkgutil.iter_modules(invcycle.__path__):
        if module.name != "__main__":
            importlib.import_module(f"invcycle.{module.name}")
    records, todo = set(), [FrozenRecord]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("invcycle.") and cls not in records:
                records.add(cls)
                todo.append(cls)
    assert len(records) == 22
    assert {cls for cls in records if "__init__" in vars(cls)} == {GramLattice}


def test_pipeline_records_missing_and_unknown_arguments():
    with pytest.raises(TypeError):
        Reason()
    with pytest.raises(TypeError):
        ClassVerdict(A2, None)
    with pytest.raises(TypeError, match=r"^SpecializationResult\(\) got an unexpected keyword argument 'extra'$"):
        SpecializationResult(1, "v", extra=0)
    with pytest.raises(TypeError):
        BranchSpec()
    # SpecializationResult takes FrozenRecord's constructor, which names
    # the record and the field as a hand-written signature does.
    with pytest.raises(TypeError, match=r"^SpecializationResult\(\) missing argument 'verdict'$"):
        SpecializationResult(index=1)
    with pytest.raises(TypeError, match=r"^SpecializationResult\(\) got multiple values for argument 'index'$"):
        SpecializationResult(1, index=1)
    with pytest.raises(TypeError, match=r"^SpecializationResult\(\) takes 2 arguments but 3 were given$"):
        SpecializationResult(1, "v", 0)
