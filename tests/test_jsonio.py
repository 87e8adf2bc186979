"""Document parsing, serialization round-trips, and schema validation."""

import gc
import json
import re
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcycle.jsonio import (
    _PAYLOAD_FIELDS,
    STAGE_NAMES,
    ClassEntries,
    InputError,
    ParseError,
    SchemaError,
    dumps_canonical,
    exclusion_fact_to_json,
    form_to_json,
    gram_to_json,
    load_json,
    parse_assumptions,
    parse_branch_spec,
    parse_exclusion_fact,
    parse_form,
    parse_gram,
    parse_int_entry,
    parse_surface_config,
    surface_config_to_json,
)
from invcycle.kodaira import FiberTokenError, fiber
from invcycle.lattice import BinaryEvenForm, GramLattice
from invcycle.pipeline import run_example
from invcycle.transcendental import FACT_KINDS


class TestLoadJson:
    def test_parse_error_carries_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"a": 1,\n  "b": }\n', encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_json(bad)
        assert "line 2" in str(exc.value)
        assert "column" in str(exc.value)

    def test_integer_past_digit_limit_names_path(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text("1" * 5000, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_json(big)
        assert str(exc.value) == (
            f"{big}: Exceeds the limit ({sys.get_int_max_str_digits()} digits) for integer "
            "string conversion: value has 5000 digits"
        )

    def test_deep_nesting_names_path(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(ParseError, match="arrays or objects nested too deeply") as exc:
            load_json(deep)
        assert str(exc.value).startswith(f"{deep}: ")

    def test_error_hierarchy(self):
        assert issubclass(ParseError, InputError)
        assert issubclass(SchemaError, InputError)
        assert issubclass(InputError, ValueError)


class TestIntEntries:
    @pytest.mark.parametrize(
        "raw,expected",
        [("42", 42), ("-7", -7), ("+3", 3), (0, 0), (-5, -5)],
    )
    def test_accepted(self, raw, expected):
        assert parse_int_entry(raw, "x") == expected

    # Blanks too, as the schema's intString ^[+-]?[0-9]+$ says; int() would strip them.
    @pytest.mark.parametrize(
        "raw", ["", "1.5", "0x10", "1e3", "--2", " 12 ", "12\n", "\u200312", None, 2.0, True]
    )
    def test_rejected(self, raw):
        with pytest.raises(InputError):
            parse_int_entry(raw, "x")

    @pytest.mark.parametrize("raw", ["\u0664", "+\u0661\u0662", "1\u0662", "\uff14", "\u00b2", "\u0966"])
    def test_non_ascii_digits_rejected(self, raw):
        with pytest.raises(ParseError) as exc:
            parse_int_entry(raw, "--gram[0][0]")
        assert str(exc.value) == f"--gram[0][0]: {raw!r} is not a decimal integer string"

    def test_huge_entry_survives(self):
        big = 10**40
        assert parse_int_entry(str(big), "x") == big

    @pytest.mark.parametrize("sign", ["", "-", "+"])
    def test_entry_past_digit_limit_names_field(self, sign):
        digits = sys.get_int_max_str_digits() + 100
        with pytest.raises(ParseError) as exc:
            parse_int_entry(sign + "4" * digits, "--gram[0][0]")
        assert str(exc.value) == (
            f"--gram[0][0]: Exceeds the limit ({digits - 100} digits) for integer "
            f"string conversion: value has {digits} digits"
        )

    def test_entry_at_digit_limit_survives(self):
        digits = sys.get_int_max_str_digits()
        assert parse_int_entry("9" * digits, "x") == 10**digits - 1


class TestGram:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-10**30, max_value=10**30), st.integers(), st.integers())
    def test_form_renders_as_its_gram(self, a, b, c):
        form = BinaryEvenForm(a, b, c)
        assert form_to_json(form) == gram_to_json(form.gram())

    def test_roundtrip(self):
        lat = GramLattice([[4, 2], [2, 4]])
        encoded = gram_to_json(lat)
        assert encoded == [["4", "2"], ["2", "4"]]
        assert parse_gram(encoded, "g").gram == lat.gram

    def test_mixed_entries(self):
        assert parse_gram([[2, "1"], ["1", 2]], "g").gram == ((2, 1), (1, 2))

    def test_asymmetric_rejected_as_schema_error(self):
        with pytest.raises(SchemaError):
            parse_gram([["1", "2"], ["3", "4"]], "g")

    @pytest.mark.parametrize(
        "value, message",
        [
            ([[2, 1], [0, 2]], "g: Gram matrix must be symmetric"),
            ([[2, 1]], "g: Gram matrix must be square"),
            ([[2, 1], [1]], "g: Gram matrix must be square"),
            ([[]], "g: Gram matrix must be square"),
            ([[2.0, 0], [0, 2]], "g[0][0]: expected an integer or integer string"),
            ([[2, 0], [0, True]], "g[1][1]: expected an integer or integer string"),
        ],
        ids=["nonsymmetric", "one-row", "ragged", "empty-row", "float", "bool"],
    )
    def test_shape_and_entry_errors(self, value, message):
        # parse_gram is the only check: GramLattice stores what it is given.
        with pytest.raises(SchemaError) as info:
            parse_gram(value, "g")
        assert str(info.value) == message

    def test_rank_zero_accepted(self):
        assert parse_gram([], "g").rank == 0

    def test_parse_form_validation(self):
        # parse_form is the only check: from_gram and reduce_binary make none.
        form = parse_form([["2", "1"], [1, 2]], "g")
        assert (form.a, form.b, form.c, form.disc) == (1, 1, 1, 3)
        for value, message in [
            ([[2]], "binary form needs a rank-2 lattice"),
            ([[1, 0], [0, 2]], "binary form needs even diagonal entries"),
            ([[-2, 0], [0, 2]], "the form must be positive definite"),
            ([[2, 2], [2, 2]], "the form must be positive definite"),
            ([[2, 1]], "Gram matrix must be square"),
        ]:
            with pytest.raises(SchemaError) as info:
                parse_form(value, "g")
            assert str(info.value) == f"g: {message}"

    def test_non_array_rejected(self):
        with pytest.raises(SchemaError):
            parse_gram({"rows": []}, "g")


class TestSurfaceConfig:
    DOC = {
        "name": "K3-E8-E6-D4",
        "base_genus": 0,
        "fibers": [
            {"label": "0", "type": "II*"},
            {"label": "1", "type": "IV*"},
            {"label": "2", "type": "I0*"},
        ],
    }

    def test_roundtrip(self):
        cfg = parse_surface_config(self.DOC)
        assert surface_config_to_json(cfg) == self.DOC

    def test_missing_field_named(self):
        doc = {"name": "x", "fibers": []}
        with pytest.raises(SchemaError) as exc:
            parse_surface_config(doc)
        assert "base_genus" in str(exc.value)

    def test_unknown_field_named(self):
        doc = dict(self.DOC, genus=1)
        with pytest.raises(SchemaError) as exc:
            parse_surface_config(doc)
        assert "genus" in str(exc.value)

    def test_bad_fiber_token_is_parse_error(self):
        doc = {
            "name": "x",
            "base_genus": 0,
            "fibers": [{"label": "0", "type": "II**"}],
        }
        with pytest.raises(ParseError) as exc:
            parse_surface_config(doc)
        assert "fibers[0]" in str(exc.value)

    def test_duplicate_labels_rejected(self):
        doc = {
            "name": "x",
            "base_genus": 0,
            "fibers": [
                {"label": "0", "type": "II"},
                {"label": "0", "type": "IV"},
            ],
        }
        with pytest.raises(SchemaError):
            parse_surface_config(doc)

    def test_bool_genus_rejected(self):
        doc = dict(self.DOC, base_genus=True)
        with pytest.raises(SchemaError):
            parse_surface_config(doc)


class TestBranchSpec:
    def test_roundtrip(self):
        spec = parse_branch_spec({"branch": ["2", "0", "t", "1"]})
        assert spec.sorted_labels() == ("0", "1", "2", "t")

    def test_odd_count_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_branch_spec({"branch": ["0"]})

    def test_duplicates_rejected(self):
        with pytest.raises(SchemaError):
            parse_branch_spec({"branch": ["0", "0"]})

    def test_non_string_label(self):
        with pytest.raises(SchemaError):
            parse_branch_spec({"branch": ["0", 1]})


class TestExclusionFact:
    def test_roundtrip_with_fibers(self):
        doc = {
            "kind": "no_fibration_with_fibers",
            "form": [["4", "2"], ["2", "4"]],
            "fibers": ["I0*", "I0*", "IV", "IV*"],
            "provenance": "table lookup",
        }
        fact = parse_exclusion_fact(doc, "f")
        assert exclusion_fact_to_json(fact) == doc

    def test_form_must_be_even_binary(self):
        doc = {
            "kind": "not_isomorphic_to",
            "form": [["1", "0"], ["0", "2"]],
            "provenance": "p",
        }
        with pytest.raises(SchemaError):
            parse_exclusion_fact(doc, "f")

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            parse_exclusion_fact({"kind": "gossip", "provenance": "p"}, "f")


class TestAssumptions:
    def test_flag_assumption(self):
        doc = {
            "assumptions": [
                {"name": "picard_maximal", "provenance": "declared"},
            ]
        }
        (a,) = parse_assumptions(doc)
        assert a.name == "picard_maximal"
        assert a.payload == {}

    def test_unknown_name(self):
        doc = {"assumptions": [{"name": "lucky_guess", "provenance": "p"}]}
        with pytest.raises(SchemaError) as exc:
            parse_assumptions(doc)
        assert "lucky_guess" in str(exc.value)

    def test_blank_provenance(self):
        doc = {"assumptions": [{"name": "picard_maximal", "provenance": "   "}]}
        with pytest.raises(SchemaError):
            parse_assumptions(doc)

    def test_torsion_payload_validated(self):
        doc = {
            "assumptions": [
                {
                    "name": "torsion_order",
                    "payload": {"stage": "Y1", "order": 0},
                    "provenance": "p",
                }
            ]
        }
        with pytest.raises(SchemaError):
            parse_assumptions(doc)

    def test_lattice_payload_validated(self):
        doc = {
            "assumptions": [
                {
                    "name": "seed_transcendental_lattice",
                    "payload": {"gram": [["4", "2"], ["1", "4"]]},
                    "provenance": "p",
                }
            ]
        }
        with pytest.raises(SchemaError):
            parse_assumptions(doc)

    def test_flag_payload_must_be_empty(self):
        doc = {
            "assumptions": [
                {
                    "name": "picard_maximal",
                    "payload": {"extra": 1},
                    "provenance": "p",
                }
            ]
        }
        with pytest.raises(SchemaError):
            parse_assumptions(doc)

    def test_embedded_exclusion_fact_validated(self):
        doc = {
            "assumptions": [
                {
                    "name": "exclusion_fact",
                    "payload": {"kind": "not_isomorphic_to", "provenance": "p"},
                    "provenance": "p",
                }
            ]
        }
        with pytest.raises(SchemaError):
            parse_assumptions(doc)


    def test_typed_values_parsed_once(self):
        parsed = parse_assumptions(bundled("example1", "assumptions.json"))
        by_name = {}
        for a in parsed:
            by_name.setdefault(a.name, []).append(a)
        (picard,) = by_name["picard_maximal"]
        assert (picard.stage, picard.value) == (None, None)
        (seed,) = by_name["seed_transcendental_lattice"]
        assert seed.value == BinaryEvenForm(2, 2, 2)
        assert seed.payload == {"gram": [[4, 2], [2, 4]]}
        (si,) = by_name["shioda_inose_cover"]
        assert (si.stage, si.value) == ("Y0", None)
        (lattice,) = by_name["stage_transcendental_lattice"]
        assert (lattice.stage, lattice.value) == ("Y1", BinaryEvenForm(1, 1, 1))
        assert [(a.stage, a.value) for a in by_name["torsion_order"]] == [
            ("X", 1), ("S_t", 1), ("Y0", 1), ("Y1", 3), ("Y2", 1)
        ]
        facts = by_name["exclusion_fact"]
        for a in facts:
            assert (a.value.kind, a.value.provenance) == (a.payload["kind"], a.payload["provenance"])
            assert a.value.form.gram() == GramLattice(a.payload["form"])
        assert all(a.stage is None for a in facts)

    @pytest.mark.parametrize(
        "first,second",
        [
            (
                {"name": "seed_transcendental_lattice", "payload": {"gram": [[4, 2], [2, 4]]}},
                {"name": "seed_transcendental_lattice", "payload": {"gram": [[2, 0], [0, 6]]}},
            ),
            (
                {"name": "shioda_inose_cover", "payload": {"stage": "Y0"}},
                {"name": "shioda_inose_cover", "payload": {"stage": "Y1"}},
            ),
            (
                {"name": "torsion_order", "payload": {"stage": "Y2", "order": 1}},
                {"name": "torsion_order", "payload": {"stage": "Y2", "order": 2}},
            ),
            (
                {"name": "stage_transcendental_lattice",
                 "payload": {"stage": "Y1", "gram": [[2, 1], [1, 2]]}},
                {"name": "stage_transcendental_lattice",
                 "payload": {"stage": "Y1", "gram": [[2, 0], [0, 2]]}},
            ),
        ],
    )
    def test_duplicate_rejected_at_its_index(self, first, second):
        flag = {"name": "picard_maximal", "provenance": "p"}
        entries = [dict(first, provenance="p"), flag, dict(second, provenance="p")]
        with pytest.raises(SchemaError) as exc:
            parse_assumptions({"assumptions": entries})
        assert str(exc.value).startswith("assumptions[2]: ")
        assert "assumptions[0]" in str(exc.value)

    def test_per_stage_assumptions_may_repeat_across_stages(self):
        doc = {
            "assumptions": [
                {"name": "torsion_order", "payload": {"stage": s, "order": 1}, "provenance": "p"}
                for s in ("Y0", "Y1")
            ]
        }
        assert [a.stage for a in parse_assumptions(doc)] == ["Y0", "Y1"]

    def test_unknown_stage_reported_at_its_entry(self):
        # The entry after it is malformed too; parsing stops at the stage.
        doc = {
            "assumptions": [
                {"name": "torsion_order", "payload": {"stage": "Z9", "order": 1}, "provenance": "p"},
                {"name": "not_an_assumption", "provenance": "p"},
            ]
        }
        with pytest.raises(SchemaError) as exc:
            parse_assumptions(doc)
        assert str(exc.value) == (
            "assumptions[0].payload.stage: unknown stage 'Z9'; the stages are X, S_t, Y0, Y1, Y2"
        )


def stdlib_canonical(document):
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€😀'), st.characters()))
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**30)
    | st.integers(max_value=-(10**30))
    | TEXT
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=40,
)


@st.composite
def matrices(draw):
    """A 2x2 matrix of strings, the shape the encoder writes as one part,
    or a near miss: another shape, a ragged row, an int or None entry, a
    string row."""
    rows, cols = draw(st.sampled_from([(2, 2), (2, 2), (2, 3), (3, 2), (1, 2), (2, 1)]))
    matrix = [[draw(TEXT) for _ in range(cols)] for _ in range(rows)]
    i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    miss = draw(st.sampled_from(["none", "long row", "short row", "int", "null", "string row"]))
    if miss == "long row":
        matrix[i].append(draw(TEXT))
    elif miss == "short row":
        matrix[i].pop()
    elif miss == "int":
        matrix[i][j] = draw(st.integers())
    elif miss == "null":
        matrix[i][j] = None
    elif miss == "string row":
        matrix[i] = draw(TEXT)
    return matrix


FORMS = st.lists(st.tuples(st.integers(), st.integers(), st.integers()), min_size=1, max_size=5).map(tuple)


@st.composite
def class_records(draw):
    """ClassEntries records for one document, in drawn order: a marked and
    an unmarked record over one forms, the marked one twice, a record over
    empty forms, and a few more drawn from those and other forms."""
    forms = draw(FORMS)
    marked_at = draw(st.sets(st.integers(0, len(forms) - 1), min_size=1))
    marked = ClassEntries(forms, {i: (draw(TEXT), draw(TEXT)) for i in marked_at})
    unmarked, empty = ClassEntries(forms, {}), ClassEntries((), {})
    others = draw(FORMS)
    other = ClassEntries(others, {i: (draw(TEXT), draw(TEXT)) for i in draw(st.sets(st.integers(0, len(others) - 1)))})
    pool = [marked, unmarked, empty, other]
    extra = draw(st.lists(st.sampled_from(pool), max_size=4))
    return draw(st.permutations([marked, unmarked, empty, marked, other, *extra]))


class TestCanonicalDump:
    def test_sorted_and_newline_terminated(self):
        text = dumps_canonical({"b": 1, "a": [2, 1]})
        assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'

    def test_non_ascii_preserved(self):
        assert dumps_canonical({"k": "Néron"}) == '{\n  "k": "Néron"\n}\n'

    @settings(max_examples=150, deadline=None)
    @given(document=DOCUMENTS, depth=st.integers(0, 120))
    def test_matches_stdlib(self, document, depth):
        # Wrap in alternating lists and dicts, past any fixed indent table.
        for level in range(depth):
            document = [document] if level % 2 else {"k": document, "": []}
        assert dumps_canonical(document) == stdlib_canonical(document)

    @pytest.mark.parametrize(
        "document",
        [
            (1, 2), 1.5, {"a": [0.0]}, {1: "one"}, {"a": {None: 1}}, [{"b": ("x",)}], {"s": {"x"}},
            [["1", 2.5], ["3", "4"]], [("1", "2"), ("3", "4")],
        ],
    )
    def test_other_types_rejected(self, document):
        with pytest.raises(TypeError):
            dumps_canonical(document)

    @settings(max_examples=150, deadline=None)
    @given(
        head=st.dictionaries(TEXT, DOCUMENTS, max_size=3),
        tail=st.lists(DOCUMENTS, max_size=3),
        depth=st.integers(0, 3),
    )
    def test_shared_arrays_match_stdlib(self, head, tail, depth):
        # One array of objects held twice at one indent, at other indents
        # and inside another shared array of objects, and a shared [].
        shared, empty = [head, *tail], []
        outer = [{"inner": shared, "again": shared}, {"empty": empty}, shared]
        document = {
            "same_indent": [shared, shared],
            "a": shared,
            "b": shared,
            "deeper": {"x": [{"y": shared}]},
            "outer": [outer, outer, {"o": outer}],
            "empty": [empty, empty, {"e": empty}],
        }
        for _ in range(depth):
            document = [document, {"k": document}]
        assert dumps_canonical(document) == stdlib_canonical(document)

    @settings(max_examples=100, deadline=None)
    @given(forms=st.lists(matrices(), min_size=1, max_size=4), depth=st.integers(0, 3))
    def test_matrices_match_stdlib(self, forms, depth):
        # Matrices and near misses alone, as class entries in a shared
        # array of objects, and inside other shared arrays.
        entries = [{"form": form} for form in forms]
        document = {
            "forms": forms,
            "classes": entries,
            "again": entries,
            "nested": [[entries, forms], {"m": forms[0], "e": entries}, [forms, forms]],
        }
        for _ in range(depth):
            document = [document, {"k": document}]
        assert dumps_canonical(document) == stdlib_canonical(document)

    @settings(max_examples=150, deadline=None)
    @given(records=class_records(), data=st.data())
    def test_class_entries_match_stdlib(self, records, data):
        # Each record at its own depth: records at one depth share an
        # indent, so a marked copy and its forms' unmarked text meet there
        # in either order.
        depths = [data.draw(st.integers(0, 3)) for _ in records]

        def document(convert):
            items = []
            for record, depth in zip(records, depths):
                item = convert(record)
                for level in range(depth):
                    item = [item] if level % 2 else {"k": item}
                items.append(item)
            return {"classes": items, "first": items[0]}

        expected = stdlib_canonical(document(list))
        assert dumps_canonical(document(lambda record: record)) == expected

    def test_leaves_no_reference_cycle(self):
        # A cycle would keep the parts list alive until the cyclic collector
        # ran.  The stdlib's indent path, nested closures, leaves one.
        report = run_example(1)
        golden = Path(__file__).resolve().parent / "golden" / "example1.json"
        expected = golden.read_text(encoding="utf-8")
        gc.collect()
        gc.disable()
        try:
            text = dumps_canonical(report)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert text == expected


def bundled(example, name):
    root = resources.files("invcycle").joinpath("data", example, name)
    return json.loads(root.read_text(encoding="utf-8"))


def load_schema():
    path = Path(__file__).resolve().parent.parent / "schemas" / "invcycle.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


class TestBundledDataFiles:
    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_parse_cleanly(self, example):
        parse_surface_config(bundled(example, "config.json"))
        parse_branch_spec(bundled(example, "branch.json"))
        assumptions = parse_assumptions(bundled(example, "assumptions.json"))
        assert assumptions

    @pytest.mark.parametrize(
        "example,name,key",
        [
            (ex, name, key)
            for ex in ("example1", "example2")
            for name, key in (
                ("config.json", "config"),
                ("branch.json", "branch"),
                ("assumptions.json", "assumptions"),
            )
        ],
    )
    def test_schema_validates(self, example, name, key):
        schema = load_schema()
        document = bundled(example, name)
        wrapper = {
            "$schema": schema["$schema"],
            "$defs": schema["$defs"],
            "$ref": f"#/$defs/{key}",
        }
        jsonschema.validate(document, wrapper)


def test_schema_enums_match_the_parser():
    defs = load_schema()["$defs"]
    entry = defs["assumptions"]["properties"]["assumptions"]["items"]
    assert defs["stage"]["enum"] == list(STAGE_NAMES)
    assert entry["properties"]["name"]["enum"] == list(_PAYLOAD_FIELDS)
    assert defs["exclusionFact"]["properties"]["kind"]["enum"] == list(FACT_KINDS)


# Tokens on both sides of the fiberToken pattern; the parser takes exactly these.
FIBER_TOKENS_ACCEPTED = (
    "II", "II*", "III", "III*", "IV", "IV*", "I0", "I0*", "I7", "I3*",
    "I999999999999", "I1000000000000", "I1000000000000*",  # n up to kodaira.MAX_FIBER_N
)


@pytest.mark.parametrize(
    "token",
    ["I", "I*", *FIBER_TOKENS_ACCEPTED, "I01", "V", "I1000000000001", "I10000000000000"],
)
def test_schema_fiber_token_pattern_matches_the_parser(token):
    defs = load_schema()["$defs"]
    in_schema = jsonschema.Draft202012Validator(defs["fiberToken"]).is_valid(token)
    try:
        fiber(token)
        parsed = True
    except FiberTokenError:
        parsed = False
    assert in_schema == parsed == (token in FIBER_TOKENS_ACCEPTED)


@pytest.mark.parametrize("key, value", [("intString", "12\n"), ("fiberToken", "I5\n")])
def test_schema_and_parser_refuse_a_trailing_newline(key, value):
    """Python's re, which jsonschema uses, matches $ before a final newline;
    the patterns end at the end of input instead, as the parser does."""
    defs = load_schema()["$defs"]
    assert jsonschema.Draft202012Validator(defs[key]).is_valid(value.rstrip("\n"))
    assert not jsonschema.Draft202012Validator(defs[key]).is_valid(value)
    if key == "intString":
        with pytest.raises(ParseError):
            parse_int_entry(value, "entry")
    else:
        with pytest.raises(FiberTokenError):
            fiber(value)


PARSERS = {"config": parse_surface_config, "branch": parse_branch_spec, "assumptions": parse_assumptions}


@pytest.mark.parametrize(
    "key, path, value, error",
    [
        ("config", ("name",), "", "config.name: must be nonempty"),
        ("config", ("fibers", 0, "label"), "", "config.fibers[0].label: must be nonempty"),
        ("branch", ("branch", 0), "", "branch.branch[0]: must be nonempty"),
        ("assumptions", ("assumptions", 0, "provenance"), " ", "assumptions[0].provenance: must be nonempty"),
        (
            "assumptions", ("assumptions", 11, "payload", "provenance"), " ",
            "assumptions[11].payload.provenance: exclusion facts require a nonempty provenance string",
        ),
    ],
    ids=["config-name", "fiber-label", "branch-label", "assumption-provenance", "fact-provenance"],
)
def test_schema_string_fields_match_the_parser(key, path, value, error):
    """Example 1 with one string emptied or blanked: the schema and the
    parser both refuse it, and the parser names the field."""
    schema = load_schema()
    validator = jsonschema.Draft202012Validator(
        {"$schema": schema["$schema"], "$defs": schema["$defs"], "$ref": f"#/$defs/{key}"}
    )
    document = bundled("example1", f"{key}.json")
    assert validator.is_valid(document)
    PARSERS[key](document)
    *steps, last = path
    target = document
    for step in steps:
        target = target[step]
    target[last] = value
    assert not validator.is_valid(document)
    with pytest.raises(SchemaError, match=f"^{re.escape(error)}$"):
        PARSERS[key](document)
