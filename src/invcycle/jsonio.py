"""JSON parsing and serialization for configurations, lattices and facts.

Gram matrix entries travel as decimal integer strings; integers are
accepted on input.  Either way their size is bounded by Python's int/str
conversion limit (sys.get_int_max_str_digits(), 4300 digits by default),
which also bounds every number in the output.  A refused document is an
`InputError`: a `ParseError` names the position, or the byte offset in a
file that is not UTF-8; a `SchemaError` names the field, also for a string
holding a lone surrogate.  Every Gram from outside passes `parse_gram`,
the one place its shape is checked, and every binary form from outside
passes `parse_form`; the records only store, and each is checked here,
where a document builds it.

`surfaces` and `transcendental` are imported inside the parse functions
that build their types, so the lattice and fiber commands never load them.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from json.encoder import encode_basestring as _encode_str
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .kodaira import FiberTokenError, fiber
from .lattice import MAX_CLASS_DISC, BinaryEvenForm, FrozenRecord, GramLattice

if TYPE_CHECKING:
    from .surfaces import BranchSpec, SurfaceConfig
    from .transcendental import ExclusionFact


class InputError(ValueError):
    """Base class for errors in user-supplied documents."""


class ParseError(InputError):
    """The document is not valid JSON, or a token is lexically malformed."""


class SchemaError(InputError):
    """The document does not match the expected shape; names the field."""


def _digit_limit_error(where: str, exc: ValueError) -> ParseError:
    """int() and json.loads refuse integers past the int/str conversion
    limit; keep the limit from the message, drop the advice to raise it."""
    return ParseError(f"{where}: {str(exc).split(';')[0]}")


def loads_json(text: str, source: str) -> Any:
    """json.loads, with every way the text can fail a ParseError naming source."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise _digit_limit_error(source, exc) from None
    except RecursionError:
        raise ParseError(f"{source}: arrays or objects nested too deeply") from None


def load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8 at byte offset {exc.start}: {exc.reason}") from None
    return loads_json(text, str(path))


def _valid_text(value: str, where: str) -> str:
    """value, refused if a JSON escape such as \\ud800 left a lone surrogate in it."""
    if not value.isascii():
        for ch in value:
            if "\ud800" <= ch <= "\udfff":
                raise SchemaError(f"{where}: {ch!r} is a lone surrogate, not a Unicode character")
    return value


def _require(obj: Any, field: str, kind: type, where: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if field not in obj:
        raise SchemaError(f"{where}: missing field {field!r}")
    value = obj[field]
    if kind is int and isinstance(value, bool):
        raise SchemaError(f"{where}.{field}: expected an integer")
    if not isinstance(value, kind):
        raise SchemaError(f"{where}.{field}: expected {kind.__name__}")
    return _valid_text(value, f"{where}.{field}") if kind is str else value


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise SchemaError(f"{where}: unknown field {unknown[0]!r}")


def parse_int_entry(value: Any, where: str) -> int:
    """Gram entries: decimal integer strings, with bare integers tolerated."""
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected an integer or integer string")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        digits = value[1:] if value[:1] in "+-" else value
        # ASCII digits only, as in the schema's intString: str.isdigit() and
        # int() also take other scripts' digits, and int() takes blanks.
        if digits.isascii() and digits.isdigit():
            try:
                return int(value)
            except ValueError as exc:
                raise _digit_limit_error(where, exc) from None
        raise ParseError(f"{where}: {value!r} is not a decimal integer string")
    raise SchemaError(f"{where}: expected an integer or integer string")


def parse_gram(value: Any, where: str) -> GramLattice:
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise SchemaError(f"{where}: expected an array of arrays")
    rows = [
        [parse_int_entry(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(value)
    ]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise SchemaError(f"{where}: Gram matrix must be square")
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise SchemaError(f"{where}: Gram matrix must be symmetric")
    return GramLattice(rows)


def parse_form(value: Any, where: str) -> BinaryEvenForm:
    """The binary form of a Gram from outside, the one place one is checked:
    every lattice the ledger declares or excludes is rank 2, even and
    positive definite, as a K3 transcendental lattice here is."""
    lattice = parse_gram(value, where)
    if lattice.rank != 2:
        raise SchemaError(f"{where}: binary form needs a rank-2 lattice")
    if not lattice.is_even():
        raise SchemaError(f"{where}: binary form needs even diagonal entries")
    form = BinaryEvenForm.from_gram(lattice)
    if not form.is_positive_definite():
        raise SchemaError(f"{where}: the form must be positive definite")
    return form


def gram_to_json(lattice: GramLattice) -> list[list[str]]:
    return [[str(x) for x in row] for row in lattice.gram]


def binary_gram_to_json(a: int, b: int, c: int) -> list[list[str]]:
    """The Gram [[2a, b], [b, 2c]] of the form (a, b, c), as gram_to_json
    renders it, with no lattice or form built."""
    b = str(b)
    return [[str(2 * a), b], [b, str(2 * c)]]


def form_to_json(form: BinaryEvenForm) -> list[list[str]]:
    return binary_gram_to_json(form.a, form.b, form.c)


def parse_fiber_token(value: Any, where: str) -> Any:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: expected a fiber token string")
    try:
        return fiber(value)
    except FiberTokenError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def parse_surface_config(obj: Any, where: str = "config") -> SurfaceConfig:
    from .surfaces import SurfaceConfig

    name = _require(obj, "name", str, where)
    if not name:
        raise SchemaError(f"{where}.name: must be nonempty")
    genus = _require(obj, "base_genus", int, where)
    fibers_raw = _require(obj, "fibers", list, where)
    _reject_unknown(obj, {"name", "base_genus", "fibers"}, where)
    fibers = []
    for i, entry in enumerate(fibers_raw):
        spot = f"{where}.fibers[{i}]"
        label = _require(entry, "label", str, spot)
        if not label:
            raise SchemaError(f"{spot}.label: must be nonempty")
        fib = parse_fiber_token(_require(entry, "type", str, spot), f"{spot}.type")
        _reject_unknown(entry, {"label", "type"}, spot)
        fibers.append((label, fib))
    first_at: dict[str, int] = {}
    for i, (label, _fib) in enumerate(fibers):
        if first_at.setdefault(label, i) != i:
            raise SchemaError(
                f"{where}.fibers[{i}].label: {label!r} is also "
                f"{where}.fibers[{first_at[label]}].label; fiber labels must be distinct"
            )
    if genus < 0:
        raise SchemaError(f"{where}.base_genus: base genus must be a nonnegative integer")
    return SurfaceConfig(name, genus, tuple(fibers))


def surface_config_to_json(config: SurfaceConfig) -> dict:
    return {
        "name": config.name,
        "base_genus": config.base_genus,
        "fibers": [{"label": label, "type": f.token} for label, f in config.fibers],
    }


def parse_branch_spec(obj: Any, where: str = "branch") -> BranchSpec:
    from .surfaces import BranchSpec

    labels = _require(obj, "branch", list, where)
    _reject_unknown(obj, {"branch"}, where)
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            raise SchemaError(f"{where}.branch[{i}]: expected a string label")
        if not label:
            raise SchemaError(f"{where}.branch[{i}]: must be nonempty")
        _valid_text(label, f"{where}.branch[{i}]")
    if len(set(labels)) != len(labels):
        raise SchemaError(f"{where}.branch: labels must be distinct")
    if len(labels) % 2:
        raise SchemaError(
            f"{where}.branch: branch locus has {len(labels)} points; an even count is required"
        )
    return BranchSpec(frozenset(labels))


def parse_exclusion_fact(obj: Any, where: str) -> ExclusionFact:
    from .transcendental import FACT_KINDS, ExclusionFact

    kind = _require(obj, "kind", str, where)
    provenance = _require(obj, "provenance", str, where)
    _reject_unknown(obj, {"kind", "form", "fibers", "provenance"}, where)
    form = parse_form(obj["form"], f"{where}.form") if "form" in obj else None
    fibers = None
    if "fibers" in obj:
        raw = obj["fibers"]
        if not isinstance(raw, list):
            raise SchemaError(f"{where}.fibers: expected an array of fiber tokens")
        fibers = tuple(
            parse_fiber_token(tok, f"{where}.fibers[{i}]").token for i, tok in enumerate(raw)
        )
    if kind not in FACT_KINDS:
        raise SchemaError(f"{where}.kind: unknown exclusion fact kind {kind!r}")
    if not provenance.strip():
        raise SchemaError(f"{where}.provenance: exclusion facts require a nonempty provenance string")
    if form is None and kind != "denominator_bound":
        raise SchemaError(f"{where}: {kind} fact requires a form")
    if fibers is None and kind == "no_fibration_with_fibers":
        raise SchemaError(f"{where}: no_fibration_with_fibers fact requires a fiber list")
    return ExclusionFact(kind, form, fibers, provenance)


def exclusion_fact_to_json(fact: ExclusionFact) -> dict:
    out: dict[str, Any] = {"kind": fact.kind}
    if fact.form is not None:
        out["form"] = form_to_json(fact.form)
    if fact.fibers is not None:
        out["fibers"] = list(fact.fibers)
    out["provenance"] = fact.provenance
    return out


class Assumption(FrozenRecord):
    """One declared assumption: the payload as written and its parsed value.

    stage is set for shioda_inose_cover and the per-stage assumptions;
    value is the declared lattice as a BinaryEvenForm, the exclusion fact
    or the torsion order.
    """

    __slots__ = ("name", "payload", "provenance", "stage", "value")


SEED_STAGE = "X"
FAMILY_STAGE = "S_t"
# Every stage an assumption may name: the seed, the family and the three
# K3 double covers that a branch with three star fibers derives.  Y0-Y2
# are accepted whatever the branch: one without three stars derives none
# of them, and that input still gets a report, not an input error.
STAGE_NAMES = (SEED_STAGE, FAMILY_STAGE, "Y0", "Y1", "Y2")

FLAG_ASSUMPTIONS = ("picard_maximal", "constant_transcendental_vhs", "specialization_injective")

# Payload fields per assumption name; exclusion_fact payloads are facts.
_PAYLOAD_FIELDS = {
    **{flag: () for flag in FLAG_ASSUMPTIONS},
    "seed_transcendental_lattice": ("gram",),
    "shioda_inose_cover": ("stage",),
    "stage_transcendental_lattice": ("stage", "gram"),
    "torsion_order": ("stage", "order"),
    "exclusion_fact": None,
}

# Assumptions that may be declared once, and once per stage.
_ONCE = ("seed_transcendental_lattice", "shioda_inose_cover")
_ONCE_PER_STAGE = ("stage_transcendental_lattice", "torsion_order")


def parse_assumptions(obj: Any, where: str = "assumptions") -> tuple[Assumption, ...]:
    entries = _require(obj, "assumptions", list, where)
    _reject_unknown(obj, {"assumptions"}, where)
    out = []
    first_at: dict[Any, int] = {}
    for i, entry in enumerate(entries):
        spot = f"{where}[{i}]"
        name = _require(entry, "name", str, spot)
        provenance = _require(entry, "provenance", str, spot)
        payload = entry.get("payload", {})
        if not isinstance(payload, dict):
            raise SchemaError(f"{spot}.payload: expected an object")
        _reject_unknown(entry, {"name", "payload", "provenance"}, spot)
        if name not in _PAYLOAD_FIELDS:
            raise SchemaError(f"{spot}.name: unknown assumption {name!r}")
        if not provenance.strip():
            raise SchemaError(f"{spot}.provenance: must be nonempty")
        stage, value = _parse_payload(name, payload, f"{spot}.payload")
        key = name if name in _ONCE else (name, stage) if name in _ONCE_PER_STAGE else None
        if key in first_at:
            raise SchemaError(f"{spot}: {name!r} already declared at {where}[{first_at[key]}]")
        if key is not None:
            first_at[key] = i
        out.append(Assumption(name, payload, provenance, stage, value))
    seed_at = first_at.get("seed_transcendental_lattice")
    if seed_at is not None and "shioda_inose_cover" in first_at:
        # The cover halves the seed form; the half must be even again.
        form = out[seed_at].value
        if form.a % 2 or form.c % 2:
            raise SchemaError(
                f"{where}[{seed_at}].payload.gram: with a shioda_inose_cover the seed "
                "lattice must be twice an even lattice (diagonal entries divisible by 4)"
            )
    return tuple(out)


def _parse_payload(name: str, payload: dict, where: str) -> tuple[str | None, Any]:
    """The stage a payload names and the value it declares."""
    fields = _PAYLOAD_FIELDS[name]
    if fields is None:
        return None, parse_exclusion_fact(payload, where)
    stage = _require(payload, "stage", str, where) if "stage" in fields else None
    if stage is not None and stage not in STAGE_NAMES:
        raise SchemaError(
            f"{where}.stage: unknown stage {stage!r}; the stages are {', '.join(STAGE_NAMES)}"
        )
    value = None
    if "gram" in fields:
        at, seed = f"{where}.gram", name == "seed_transcendental_lattice"
        value = parse_form(_require(payload, "gram", list, where), at)
        # disc % 4 == 0 keeps every double-cover discriminant candidate integral.
        if seed and value.disc % 4:
            raise SchemaError(f"{at}: the seed lattice's discriminant must be divisible by 4")
        # The largest candidate, 4 disc, has its classes enumerated; the
        # limit also bounds the rigidity search on the halved seed.
        if seed and 4 * value.disc > MAX_CLASS_DISC:
            raise SchemaError(
                f"{at}: the discriminant candidate {4 * value.disc} "
                f"exceeds the class-enumeration limit {MAX_CLASS_DISC}"
            )
    if "order" in fields:
        value = _require(payload, "order", int, where)
        if value < 1:
            raise SchemaError(f"{where}.order: must be a positive integer")
    _reject_unknown(payload, set(fields), where)
    return stage, value


class ClassEntries(FrozenRecord):
    """One candidate's class entries in a report, with no entry built.

    forms is the disc's sorted tuple of reduced classes as (a, b, c),
    and marks maps a position in it to the (provenance, kind) of the fact
    that excludes that class.  It iterates as the entries' dicts, each
    {"form": Gram} plus "excluded_by" and "fact_kind" where marked, and
    dumps_canonical writes it as that list.
    """

    __slots__ = ("forms", "marks")

    def __len__(self) -> int:
        return len(self.forms)

    def __iter__(self) -> Iterator[dict]:
        marks = self.marks
        for i, abc in enumerate(self.forms):
            entry = {"form": binary_gram_to_json(*abc)}
            if i in marks:
                entry["excluded_by"], entry["fact_kind"] = marks[i]
            yield entry


def dumps_canonical(document: Any) -> str:
    """Deterministic JSON rendering: sorted keys, two-space indent.

    Byte for byte equal to json.dumps(document, indent=2, sort_keys=True,
    ensure_ascii=False) + "\n", whose indent path is the stdlib's pure-Python
    encoder, with each `ClassEntries` replaced by the list of its entries.
    Only the report's types are accepted: dicts with str keys, lists, str,
    int, bool, None and `ClassEntries`.  Anything else raises TypeError.
    A `ClassEntries` is written one template per class, and the unmarked
    text of its forms at an indent is kept for the call, so a marked copy
    of the same forms writes only its marked classes anew; a 2x2 matrix
    of strings, as every other binary-form Gram is, is written as one
    part.  The bytes are unchanged.
    """
    parts: list[str] = []
    _encode(document, parts.append, "\n", {})
    parts.append("\n")
    return "".join(parts)


def _encode(value: Any, append: Callable[[str], None], pad: str, memo: dict) -> None:
    """Append value's JSON; pad is a newline plus the current indent.

    A module-level function that takes `append`: nested closures over the
    parts list would form a reference cycle on every call, keeping the list
    alive until the cyclic garbage collector runs.  memo maps (id, pad) of
    the forms of each `ClassEntries` written so far to their unmarked
    entries' text.
    """
    kind = type(value)
    if kind is dict:
        if not value:
            append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            if type(item) is str:
                append(f"{sep}{_encode_str(key)}: {_encode_str(item)}")
            else:
                append(f"{sep}{_encode_str(key)}: ")
                _encode(item, append, inner, memo)
            sep = "," + inner
        append(pad + "}")
    elif kind is list:
        if not value:
            append("[]")
            return
        first, inner = value[0], pad + "  "
        if type(first) is list and len(value) == 2 and len(first) == 2:
            second = value[1]
            if type(second) is list and len(second) == 2:
                (a, b), (c, d) = first, second
                if type(a) is str and type(b) is str and type(c) is str and type(d) is str:
                    cell = inner + "  "
                    append(
                        f"[{inner}[{cell}{_encode_str(a)},{cell}{_encode_str(b)}{inner}],"
                        f"{inner}[{cell}{_encode_str(c)},{cell}{_encode_str(d)}{inner}]{pad}]"
                    )
                    return
        sep = "[" + inner
        for item in value:
            if type(item) is str:
                append(sep + _encode_str(item))
            else:
                append(sep)
                _encode(item, append, inner, memo)
            sep = "," + inner
        append(pad + "]")
    elif kind is str:
        append(_encode_str(value))
    elif kind is int:
        append(repr(value))
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif kind is ClassEntries:
        _encode_classes(value.forms, value.marks, append, pad, memo)
    else:
        raise TypeError(f"object of type {kind.__name__} is not canonical JSON")


def _encode_classes(forms: tuple, marks: dict, append: Callable[[str], None], pad: str, memo: dict) -> None:
    """Append a ClassEntries' JSON: the entries as _encode writes their
    dicts, whose keys sort as "excluded_by", "fact_kind", "form".  A Gram's
    entries are decimal ints, which need no escaping."""
    if not forms:
        append("[]")
        return
    inner = pad + "  "
    field = inner + "  "
    entries = memo.get((id(forms), pad))
    if entries is None:
        row, cell = field + "  ", field + "    "
        template = (
            f'{{{field}"form": [{row}[{cell}"%d",{cell}"%d"{row}],'
            f'{row}[{cell}"%d",{cell}"%d"{row}]{field}]{inner}}}'
        )
        entries = memo[id(forms), pad] = [template % (2 * a, b, b, 2 * c) for a, b, c in forms]
    if marks:
        entries = entries.copy()
        for i, (provenance, kind) in marks.items():
            # Past its "{", the unmarked entry starts with the "form" field.
            entries[i] = (
                f'{{{field}"excluded_by": {_encode_str(provenance)},'
                f'{field}"fact_kind": {_encode_str(kind)},{entries[i][1:]}'
            )
    append(f"[{inner}" + f",{inner}".join(entries) + f"{pad}]")
