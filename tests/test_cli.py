"""Command-line interface, exercised through real subprocesses."""

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "invcycle", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def bundled_path(example, name, tmp_path):
    text = resources.files("invcycle").joinpath("data", example, name).read_text(
        encoding="utf-8"
    )
    path = tmp_path / f"{example}-{name}"
    path.write_text(text, encoding="utf-8")
    return path


def first(entries, name):
    return next(entry for entry in entries if entry["name"] == name)


def example1_args(tmp_path, edit):
    """`custom` arguments for example 1 with `edit` applied to its assumption list."""
    doc = json.loads(bundled_path("example1", "assumptions.json", tmp_path).read_text())
    edit(doc["assumptions"])
    assumptions = tmp_path / "assumptions.json"
    assumptions.write_text(json.dumps(doc), encoding="utf-8")
    return (
        "--config", str(bundled_path("example1", "config.json", tmp_path)),
        "--branch", str(bundled_path("example1", "branch.json", tmp_path)),
        "--assumptions", str(assumptions),
    )


class TestExampleCommand:
    def test_example1_exit_zero(self):
        proc = run_cli("example", "1")
        assert proc.returncode == 0
        assert "pipeline: K3-E8-E6-D4" in proc.stdout
        assert "status: verified" in proc.stdout
        assert proc.stderr == ""

    def test_example1_json(self):
        proc = run_cli("example", "1", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["schema"] == "invcycle-report/1"
        assert report["status"] == "verified"
        assert report["verdict"] == "LICT_fails"

    def test_example2_exit_two(self):
        proc = run_cli("example", "2")
        assert proc.returncode == 2
        assert "status: conditional" in proc.stdout

    def test_example2_strict_exit_one(self):
        proc = run_cli("example", "2", "--strict")
        assert proc.returncode == 1

    def test_example1_strict_still_zero(self):
        proc = run_cli("example", "1", "--strict")
        assert proc.returncode == 0

    def test_json_output_bytewise_deterministic(self):
        first = run_cli("example", "1", "--json")
        second = run_cli("example", "1", "--json")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_out_file_matches_stdout(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("example", "1", "--json", "--out", str(out))
        assert proc.returncode == 0
        assert out.read_text(encoding="utf-8") == proc.stdout

    def test_json_with_path_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("example", "1", "--json", str(out))
        assert proc.returncode == 0
        assert out.read_text(encoding="utf-8") == proc.stdout
        assert json.loads(proc.stdout)["status"] == "verified"

    def test_unknown_example(self):
        proc = run_cli("example", "5")
        assert proc.returncode != 0


class TestCustomCommand:
    def test_matches_bundled_example(self, tmp_path):
        config = bundled_path("example1", "config.json", tmp_path)
        branch = bundled_path("example1", "branch.json", tmp_path)
        assumptions = bundled_path("example1", "assumptions.json", tmp_path)
        custom = run_cli(
            "custom",
            "--config", str(config),
            "--branch", str(branch),
            "--assumptions", str(assumptions),
            "--json",
        )
        example = run_cli("example", "1", "--json")
        assert custom.returncode == 0
        assert custom.stdout == example.stdout

    def test_missing_file_reports_error(self, tmp_path):
        proc = run_cli(
            "custom",
            "--config", str(tmp_path / "absent.json"),
            "--branch", str(tmp_path / "absent.json"),
            "--assumptions", str(tmp_path / "absent.json"),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_malformed_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        proc = run_cli(
            "custom",
            "--config", str(bad),
            "--branch", str(bad),
            "--assumptions", str(bad),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "line" in proc.stderr

    def test_schema_violation_names_field(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"name": "x", "fibers": []}), encoding="utf-8")
        branch = bundled_path("example1", "branch.json", tmp_path)
        assumptions = bundled_path("example1", "assumptions.json", tmp_path)
        proc = run_cli(
            "custom",
            "--config", str(config),
            "--branch", str(branch),
            "--assumptions", str(assumptions),
        )
        assert proc.returncode == 1
        assert "base_genus" in proc.stderr

    @pytest.mark.parametrize(
        "gram",
        [
            [[2, 0, 0], [0, 2, 0], [0, 0, 2]],  # rank 3
            [[2, 1], [1, 3]],  # odd
            [[-4, -2], [-2, -4]],  # negative definite
            [[2, 2], [2, 2]],  # degenerate
            [[2, 1], [1, 2]],  # disc 3, not divisible by 4
            [[2, 0], [0, 2]],  # halves to the odd [[1, 0], [0, 1]] at the Shioda-Inose cover
        ],
    )
    def test_invalid_seed_lattice_names_field(self, tmp_path, gram):
        def edit(entries):
            first(entries, "seed_transcendental_lattice")["payload"]["gram"] = gram

        proc = run_cli("custom", *example1_args(tmp_path, edit))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: assumptions[3].payload.gram: ")
        assert "Traceback" not in proc.stderr

    def test_indefinite_exclusion_form_names_field(self, tmp_path):
        def edit(entries):
            first(entries, "exclusion_fact")["payload"]["form"] = [[-2, 0], [0, -2]]

        proc = run_cli("custom", *example1_args(tmp_path, edit))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: assumptions[11].payload.form: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "torsion_order", "payload": {"stage": "Z9", "order": 1}},
            {
                "name": "stage_transcendental_lattice",
                "payload": {"stage": "Y9", "gram": [[2, 1], [1, 2]]},
            },
        ],
    )
    def test_unknown_stage_names_field(self, tmp_path, entry):
        def edit(entries):
            entries.append({**entry, "provenance": "p"})

        proc = run_cli("custom", *example1_args(tmp_path, edit))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: assumptions[14].payload.stage: ")
        assert entry["payload"]["stage"] in proc.stderr
        assert proc.stdout == ""


class TestInProcess:
    def test_parser_reuse_leaves_no_state(self, capsys):
        from invcycle.cli import main

        assert main(["example", "2", "--json", "--strict"]) == 1
        assert main(["example", "1", "--json"]) == 0
        capsys.readouterr()

    def test_report_encoded_once_for_every_sink(self, tmp_path, capsys, monkeypatch):
        from invcycle import cli, pipeline

        calls = []
        original = pipeline.report_to_json

        def counting(report):
            calls.append(report)
            return original(report)

        # The handler imports report_to_json when it runs, so it sees the patch.
        monkeypatch.setattr(pipeline, "report_to_json", counting)
        json_path, out_path = tmp_path / "x.json", tmp_path / "y.json"
        assert cli.main(["example", "1", "--json", str(json_path), "--out", str(out_path)]) == 0
        stdout = capsys.readouterr().out
        assert len(calls) == 1
        assert json_path.read_text(encoding="utf-8") == stdout
        assert out_path.read_text(encoding="utf-8") == stdout
        assert json.loads(stdout)["schema"] == "invcycle-report/1"

    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    @pytest.mark.parametrize(
        "flags", [["--out"], ["--json", "--out"], ["--json"], ["--json", "a.json", "--out"]],
        ids=["out", "json-out", "json-path", "json-path-out"],
    )
    def test_failed_report_write_prints_nothing(self, tmp_path, capsys, target, flags):
        # The PATH files are written before stdout, and a failed write removes
        # those this run wrote: it leaves one error line, no stdout and no file.
        path = tmp_path / "missing" / "x.json" if target == "missing directory" else tmp_path
        flags = [str(tmp_path / flag) if flag.endswith(".json") else flag for flag in flags]
        err = main_error(capsys, ["example", "1", *flags, str(path)])
        assert str(path) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option", ["--json", "--out"])
    def test_empty_report_path_is_refused_before_the_run(self, tmp_path, capsys, monkeypatch, option):
        from invcycle import pipeline

        def forbidden(number):
            raise AssertionError(f"example {number} ran")

        # The handler imports run_example when it runs, so it sees the patch.
        monkeypatch.setattr(pipeline, "run_example", forbidden)
        monkeypatch.chdir(tmp_path)
        err = main_error(capsys, ["example", "1", option, ""])
        assert err == f"error: {option}: PATH must not be empty\n"
        assert list(tmp_path.iterdir()) == []

    def test_seed_over_class_limit_enumerates_nothing(self, tmp_path, capsys, monkeypatch):
        from invcycle import cli, transcendental

        def forbidden(disc):
            raise AssertionError(f"enumerated discriminant {disc}")

        def edit(entries):
            seed = first(entries, "seed_transcendental_lattice")
            seed["payload"]["gram"] = [[4, 2], [2, 200_000_000_000]]

        # Candidates 2e11 and 8e11 are under the limit, 4 * disc is over it.
        monkeypatch.setattr(transcendental, "enumerate_even_posdef_binary", forbidden)
        assert cli.main(["custom", *example1_args(tmp_path, edit)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: assumptions[3].payload.gram: ")
        assert "3199999999984" in err

    # disc = 4 p q with p q = 4c - 1 for two primes near 10^15: the rigidity
    # search on the halved seed would trial-divide towards 10^10.
    BIG_PRIMES = (1000000000000037, 1000000000000091)

    @pytest.mark.parametrize("picard", [True, False], ids=["picard", "no-picard"])
    def test_seed_over_class_limit_is_refused_before_rigidity(self, tmp_path, capsys, monkeypatch, picard):
        from invcycle import transcendental

        def forbidden(n):
            raise AssertionError(f"searched {n}")

        p, q = self.BIG_PRIMES

        def edit(entries):
            first(entries, "seed_transcendental_lattice")["payload"]["gram"] = [[4, 2], [2, p * q + 1]]
            if not picard:
                entries.remove(first(entries, "picard_maximal"))

        monkeypatch.setattr(transcendental, "square_divisor_primes", forbidden)
        monkeypatch.setattr(transcendental, "enumerate_even_posdef_binary", forbidden)
        err = main_error(capsys, ["custom", *example1_args(tmp_path, edit)])
        assert err == (
            f"error: assumptions[{3 if picard else 2}].payload.gram: the discriminant candidate "
            f"{16 * p * q} exceeds the class-enumeration limit 1000000000000\n"
        )

    def test_every_candidate_excluded_is_an_error(self, tmp_path, capsys):
        from invcycle.jsonio import binary_gram_to_json
        from invcycle.lattice import enumerate_even_posdef_binary

        def edit(entries):
            # The seed [[4, 2], [2, 4]] has disc 12: candidates 3, 12 and 48.
            for disc in (3, 12, 48):
                for abc in enumerate_even_posdef_binary(disc):
                    fact = {"kind": "not_isomorphic_to", "form": binary_gram_to_json(*abc), "provenance": "p"}
                    entries.append({"name": "exclusion_fact", "payload": fact, "provenance": "p"})

        err = main_error(capsys, ["custom", *example1_args(tmp_path, edit)])
        assert err == "error: assumptions: stage Y2: every discriminant candidate was excluded\n"

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_uncovered_rigidity_index_names_the_seed(self, tmp_path, capsys, mode):
        def edit(entries):
            # The halved seed [[22, 0], [0, 22]] has disc 22^2, past the index bound 10.
            first(entries, "seed_transcendental_lattice")["payload"]["gram"] = [[44, 0], [0, 44]]

        err = main_error(capsys, ["custom", *example1_args(tmp_path, edit), *mode])
        assert err == (
            "error: assumptions[3].payload.gram: index bound 10 does not cover all "
            "determinant-admissible indices up to 22\n"
        )

    def test_degenerate_stage_lattice_names_the_field(self, tmp_path, capsys):
        def edit(entries):
            first(entries, "stage_transcendental_lattice")["payload"]["gram"] = [[0, 0], [0, 0]]

        err = main_error(capsys, ["custom", *example1_args(tmp_path, edit)])
        assert err == "error: assumptions[5].payload.gram: the form must be positive definite\n"

    @pytest.mark.parametrize(
        "gram, message",
        [
            ([[1, 0], [0, 3]], "binary form needs even diagonal entries"),
            ([[-2, 1], [1, -2]], "the form must be positive definite"),
            ([[2, 1], [1, -2]], "the form must be positive definite"),
            ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], "binary form needs a rank-2 lattice"),
        ],
        ids=["odd", "negative-definite", "indefinite", "rank-3"],
    )
    def test_invalid_stage_lattice_names_the_field(self, tmp_path, capsys, gram, message):
        def edit(entries):
            first(entries, "stage_transcendental_lattice")["payload"]["gram"] = gram

        err = main_error(capsys, ["custom", *example1_args(tmp_path, edit)])
        assert err == f"error: assumptions[5].payload.gram: {message}\n"

    def test_seed_discriminant_not_divisible_by_4_names_the_field(self, tmp_path, capsys):
        def edit(entries):
            first(entries, "seed_transcendental_lattice")["payload"]["gram"] = [[2, 1], [1, 2]]

        err = main_error(capsys, ["custom", *example1_args(tmp_path, edit)])
        assert err == (
            "error: assumptions[3].payload.gram: the seed lattice's discriminant must be divisible by 4\n"
        )


@st.composite
def symmetric_grams(draw, ranks=st.integers(1, 3), diagonal=st.integers(-6, 6)):
    n = draw(ranks)
    upper = {
        (i, j): draw(diagonal if i == j else st.integers(-6, 6)) for i in range(n) for j in range(i, n)
    }
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


# Few uniform Grams keep the stage rule, so positive even diagonals in rank 2
# are drawn too; about half of those are positive definite.
STAGE_GRAMS = st.one_of(
    symmetric_grams(), symmetric_grams(st.just(2), st.sampled_from([2, 4, 6]))
)


def keeps_stage_rule(gram):
    """Rank 2, even and positive definite, by the binary form's coefficients."""
    if len(gram) != 2:
        return False
    (a, b), (_, c) = gram
    return a % 2 == 0 and c % 2 == 0 and a > 0 and a * c > b * b


@settings(max_examples=100, deadline=None)
@given(gram=STAGE_GRAMS)
def test_stage_lattice_rule_decides_the_field_error(tmp_path_factory, gram):
    """Example 1 with any small Gram as its stage lattice, assumptions[5]."""
    from invcycle import cli

    def edit(entries):
        first(entries, "stage_transcendental_lattice")["payload"]["gram"] = gram

    workdir = tmp_path_factory.getbasetemp() / "stage-lattice"
    workdir.mkdir(exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["custom", *example1_args(workdir, edit)])
    field_error = "error: assumptions[5].payload.gram: "
    if keeps_stage_rule(gram):
        assert code in (0, 1, 2)
        assert field_error not in err.getvalue()
    else:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith(field_error) and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


@settings(max_examples=100, deadline=None)
@given(gram=STAGE_GRAMS, as_strings=st.booleans())
def test_form_entry_points_agree(tmp_path_factory, gram, as_strings):
    """parse_form takes a Gram exactly when it is a rank-2, even,
    positive-definite binary form.  A Gram it refuses, given as example
    1's stage lattice, as its not_isomorphic_to fact's form or to `lattice
    reduce`, is one error line with parse_form's message under that entry's
    field; a Gram it takes gets no error naming the field."""
    from invcycle import cli
    from invcycle.jsonio import SchemaError, parse_form
    from invcycle.lattice import BinaryEvenForm

    if len(gram) == 2 and gram[0][0] % 2 == 0 and gram[1][1] % 2 == 0:
        a, b, c = gram[0][0] // 2, gram[0][1], gram[1][1] // 2
        keeps_rule = a > 0 and 4 * a * c - b * b > 0
    else:
        keeps_rule = False
    if as_strings:
        gram = [[str(x) for x in row] for row in gram]
    try:
        form, body = parse_form(gram, "g"), None
        assert keeps_rule and form == BinaryEvenForm(a, b, c)
    except SchemaError as exc:
        body = str(exc).removeprefix("g: ")
        assert not keeps_rule

    workdir = tmp_path_factory.getbasetemp() / "form-entry-points"
    workdir.mkdir(exist_ok=True)

    def ledger(index, key):
        def edit(entries):
            entries[index]["payload"][key] = gram

        return ["custom", *example1_args(workdir, edit)]

    # Each ledger is written just before its run: both go to one file.
    entry_points = [
        ("assumptions[5].payload.gram", lambda: ledger(5, "gram")),
        ("assumptions[11].payload.form", lambda: ledger(11, "form")),
        ("--gram", lambda: ["lattice", "reduce", "--gram", json.dumps(gram)]),
    ]
    for field, argv in entry_points:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv())
        assert "Traceback" not in err.getvalue()
        if body is None:
            assert f"error: {field}:" not in err.getvalue()
        else:
            assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {field}: {body}\n")


def main_error(capsys, argv):
    """Run cli.main in process; it must exit 1 with one `error:` line."""
    from invcycle import cli

    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def huge_torsion_order(entries):
    """A 2201-digit order parses; the Mordell-Weil discriminant built from it cannot be printed."""
    first(entries, "torsion_order")["payload"]["order"] = 10**2200


def huge_stage_lattice(entries):
    """4001-digit entries parse; the 8002-digit discriminant cannot be printed."""
    big = "2" + "0" * 4000
    first(entries, "stage_transcendental_lattice")["payload"]["gram"] = [[big, "0"], ["0", big]]


class TestPythonLimits:
    """Documents past Python's JSON nesting or int/str digit limits end in
    one `error:` line naming the argument or file, run in process."""

    def run_main(self, capsys, argv):
        return main_error(capsys, argv)

    def test_deep_config(self, tmp_path, capsys):
        args = list(example1_args(tmp_path, lambda entries: None))
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        args[args.index("--config") + 1] = str(deep)
        err = self.run_main(capsys, ["custom", *args])
        assert err == f"error: {deep}: arrays or objects nested too deeply\n"

    def test_deep_gram(self, capsys):
        gram = "[" * 3000 + "]" * 3000
        err = self.run_main(capsys, ["lattice", "reduce", "--gram", gram])
        assert err == "error: --gram: arrays or objects nested too deeply\n"

    @pytest.mark.parametrize(
        "quote, where", [('"', "--gram[0][0]"), ("", "--gram")], ids=["string", "bare"]
    )
    def test_gram_entry_past_digit_limit(self, capsys, quote, where):
        entry = quote + "4" * 4400 + quote
        err = self.run_main(capsys, ["lattice", "reduce", "--gram", f"[[{entry}, 1], [1, 2]]"])
        assert err.startswith(f"error: {where}: Exceeds the limit (4300 digits)")
        assert "value has 4400 digits" in err

    @pytest.mark.parametrize(
        "command, off_diagonal, rest",
        [("reduce", 1, []), ("overlattices", 0, ["--index", "2"])],
        ids=["reduce", "overlattices"],
    )
    def test_answer_past_digit_limit_names_gram(self, capsys, command, off_diagonal, rest):
        # 2500-digit entries parse; the 5000-digit discriminant cannot be printed.
        big = "4" * 2500
        gram = json.dumps([[big, off_diagonal], [off_diagonal, big]])
        err = self.run_main(capsys, ["lattice", command, "--gram", gram, *rest])
        assert err == (
            "error: --gram: the answer cannot be printed: "
            "Exceeds the limit (4300 digits) for integer string conversion\n"
        )

    def test_basechange_answer_past_digit_limit_names_config(self, tmp_path, capsys):
        # A 4300-digit base genus parses; the cover's 4301-digit genus cannot be printed.
        doc = json.loads(bundled_path("example1", "config.json", tmp_path).read_text())
        doc["base_genus"] = int("9" * 4300)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        branch = tmp_path / "branch.json"
        branch.write_text(json.dumps({"branch": ["0", "1"]}), encoding="utf-8")
        err = self.run_main(capsys, ["basechange", "--config", str(config), "--branch", str(branch)])
        assert err == (
            "error: --config: the answer cannot be printed: "
            "Exceeds the limit (4300 digits) for integer string conversion\n"
        )

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("edit", [huge_torsion_order, huge_stage_lattice])
    def test_report_past_digit_limit_names_assumptions(self, tmp_path, capsys, edit, mode):
        err = self.run_main(capsys, ["custom", *example1_args(tmp_path, edit), *mode])
        assert err == (
            "error: --assumptions: the report cannot be printed: "
            "Exceeds the limit (4300 digits) for integer string conversion\n"
        )

    def test_config_number_past_digit_limit(self, tmp_path, capsys):
        args = list(example1_args(tmp_path, lambda entries: None))
        big = tmp_path / "big.json"
        big.write_text("1" * 5000, encoding="utf-8")
        args[args.index("--config") + 1] = str(big)
        err = self.run_main(capsys, ["custom", *args])
        assert err.startswith(f"error: {big}: Exceeds the limit (4300 digits)")


class TestNonAsciiDigits:
    """Gram entries take ASCII digits only, and no blanks, as the schema's
    ^[+-]?[0-9]+$ says; str.isdigit() and int() would also read, say,
    Arabic-Indic ones, and int() would strip blanks."""

    @pytest.mark.parametrize("entry", ["\u0664", "-\u0664", "4\u0664", "\uff14", "\u00b2", " 4 "])
    def test_gram_argument(self, capsys, entry):
        gram = json.dumps([[entry, 2], [2, "4"]])
        err = main_error(capsys, ["lattice", "reduce", "--gram", gram])
        assert err == f"error: --gram[0][0]: {entry!r} is not a decimal integer string\n"

    def test_seed_lattice_in_assumptions_file(self, tmp_path, capsys):
        def edit(entries):
            first(entries, "seed_transcendental_lattice")["payload"]["gram"] = [["4", "2"], ["2", "\u0664"]]

        err = main_error(capsys, ["custom", *example1_args(tmp_path, edit)])
        assert err == "error: assumptions[3].payload.gram[1][1]: '\u0664' is not a decimal integer string\n"


class TestTextEncoding:
    """Input files are UTF-8 and their strings Unicode text.  A file that is
    not UTF-8 is an error naming it and the byte offset; a string holding a
    lone surrogate, as the JSON escape \\ud800 gives, is an error naming
    its field, refused before any output is written."""

    @pytest.mark.parametrize(
        "command, option",
        [("custom", "--config"), ("custom", "--branch"), ("custom", "--assumptions"), ("basechange", "--config")],
    )
    def test_non_utf8_file_names_path_and_offset(self, tmp_path, capsys, command, option):
        args = list(example1_args(tmp_path, lambda entries: None))
        if command == "basechange":
            args = args[:4]
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"name": "\xff"}')
        args[args.index(option) + 1] = str(bad)
        err = main_error(capsys, [command, *args])
        assert err == f"error: {bad}: invalid UTF-8 at byte offset 10: invalid start byte\n"

    @pytest.mark.parametrize(
        "option, path, field",
        [
            ("--config", ["name"], "config.name"),
            ("--config", ["fibers", 0, "label"], "config.fibers[0].label"),
            ("--branch", ["branch", 0], "branch.branch[0]"),
            ("--assumptions", ["assumptions", 0, "provenance"], "assumptions[0].provenance"),
            ("--assumptions", ["assumptions", 11, "payload", "provenance"], "assumptions[11].payload.provenance"),
        ],
        ids=["config-name", "fiber-label", "branch-label", "provenance", "fact-provenance"],
    )
    def test_lone_surrogate_names_the_field(self, tmp_path, capsys, option, path, field):
        args = list(example1_args(tmp_path, lambda entries: None))
        document = Path(args[args.index(option) + 1])
        doc = json.loads(document.read_text(encoding="utf-8"))
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = "x\ud800"
        document.write_text(json.dumps(doc), encoding="utf-8")  # as the escape \ud800
        line = f"error: {field}: '\\ud800' is a lone surrogate, not a Unicode character\n"
        out = tmp_path / "out.json"
        assert main_error(capsys, ["custom", *args, "--json", "--out", str(out)]) == line
        assert not out.exists()
        if option != "--assumptions":
            assert main_error(capsys, ["basechange", *args[:4]]) == line


class TestFiberCommand:
    def test_i5(self):
        proc = run_cli("fiber", "info", "I5")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["type"] == "I5"
        assert doc["euler_number"] == 5
        assert doc["euler_defect"] == 0
        assert doc["base_change_image"] == "I10"
        assert doc["contribution_denominators"] == [1, 5]

    def test_star_fiber(self):
        doc = json.loads(run_cli("fiber", "info", "II*").stdout)
        assert doc["euler_number"] == 10
        assert doc["euler_defect"] == 1
        assert doc["base_change_image"] == "IV*"
        assert doc["odd_multiplicity_components"] == 4

    def test_bad_token(self):
        proc = run_cli("fiber", "info", "II**")
        assert proc.returncode == 1
        assert (proc.stdout, proc.stderr) == ("", "error: token: unrecognized fiber token 'II**'\n")

    def test_missing_action(self):
        proc = run_cli("fiber", "I5")
        assert proc.returncode == 2


class TestLatticeCommands:
    def test_reduce(self):
        proc = run_cli("lattice", "reduce", "--gram", "[[4,2],[2,4]]")
        doc = json.loads(proc.stdout)
        assert doc["coefficients"] == [2, 2, 2]
        assert doc["disc"] == 12

    def test_enumerate(self):
        proc = run_cli("lattice", "enumerate", "--disc", "12")
        doc = json.loads(proc.stdout)
        assert doc["count"] == 2
        assert [c["coefficients"] for c in doc["classes"]] == [[1, 0, 3], [2, 2, 2]]

    def test_overlattices(self):
        proc = run_cli(
            "lattice", "overlattices", "--gram", "[[4,0],[0,4]]", "--index", "2"
        )
        doc = json.loads(proc.stdout)
        assert doc["count"] == 1
        assert doc["overlattices"][0]["disc"] == 4

    def test_overlattices_of_a_large_discriminant_group(self):
        # A[16] has 256 elements, too many to search its subgroups one by one.
        proc = run_cli(
            "lattice", "overlattices", "--gram", "[[32,0],[0,32]]", "--index", "16", timeout=20
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["count"] == 1
        assert doc["overlattices"] == [{"disc": 4, "gram": [["2", "0"], ["0", "2"]]}]

    @pytest.mark.parametrize(
        "gram, index, message",
        [
            ("[[4,0],[0,4]]", "1", "overlattice index must be an integer >= 2"),
            (
                "[[4,0],[0,4]]", "10001",
                "index 10001 at rank 2 exceeds the overlattice search limit: "
                "m^(rank-1) must be at most 10000",
            ),
            (
                "[[4,0,0],[0,4,0],[0,0,4]]", "101",
                "index 101 at rank 3 exceeds the overlattice search limit: "
                "m^(rank-1) must be at most 10000",
            ),
        ],
        ids=["below-2", "rank-2", "rank-3"],
    )
    def test_overlattice_index_errors_name_the_index(self, capsys, gram, index, message):
        err = main_error(capsys, ["lattice", "overlattices", "--gram", gram, "--index", index])
        assert err == f"error: --index: {message}\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["reduce", "--gram", "[[1,0],[0,2]]"], "--gram: binary form needs even diagonal entries"),
            (["reduce", "--gram", "[[2]]"], "--gram: binary form needs a rank-2 lattice"),
            (["reduce", "--gram", "[[-2,0],[0,2]]"], "--gram: the form must be positive definite"),
            (
                ["overlattices", "--gram", "[[1,0],[0,2]]", "--index", "2"],
                "--gram: overlattice enumeration needs an even lattice",
            ),
            (
                ["overlattices", "--gram", "[[2,2],[2,2]]", "--index", "2"],
                "--gram: overlattice enumeration needs det != 0",
            ),
            (["enumerate", "--disc", "0"], "--disc: discriminant must be a positive integer"),
            (
                ["enumerate", "--disc", "10000000000000"],
                "--disc: discriminant 10000000000000 exceeds the class-enumeration limit 1000000000000",
            ),
        ],
        ids=["reduce-odd", "reduce-rank-1", "reduce-indefinite", "overlattices-odd",
             "overlattices-degenerate", "enumerate-zero", "enumerate-past-limit"],
    )
    def test_input_errors_name_the_option(self, capsys, argv, line):
        assert main_error(capsys, ["lattice", *argv]) == f"error: {line}\n"

    def test_bad_gram(self):
        proc = run_cli("lattice", "reduce", "--gram", "[[1,2],[3,4]]")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")


@st.composite
def malformed_grams(draw):
    """A small Gram that parse_gram refuses: asymmetric, ragged, or with
    a float or bool entry."""
    gram = draw(symmetric_grams(st.integers(2, 3)))
    n = len(gram)
    i = draw(st.integers(0, n - 1))
    j = (i + draw(st.integers(1, n - 1))) % n  # another row
    flaw = draw(st.sampled_from(["asymmetric", "ragged", "float", "bool"]))
    if flaw == "asymmetric":
        gram[i][j] += draw(st.sampled_from([-1, 1]))
    elif flaw == "ragged":
        gram[i] = gram[i][:-1] if draw(st.booleans()) else gram[i] + [0]
    elif flaw == "float":
        gram[i][j] = float(gram[i][j])
    else:
        gram[i][j] = draw(st.booleans())
    return gram


# A field name: an option, a Gram entry of the --gram option, or the
# positional fiber token.
FIELD_ERROR = re.compile(r"error: (--(gram(\[\d+\]\[\d+\])?|index|disc)|token): [^\n]+\n")

# Near the class-enumeration limit 10^12 only discs = 1, 2 (mod 4), which
# have no classes, are drawn below it: a full enumeration there takes seconds.
DISCS = st.one_of(
    st.integers(-3, 60),
    st.sampled_from([10**12 - 3, 10**12 - 2]),
    st.integers(10**12 + 1, 10**12 + 3),
    st.integers(10**13 - 2, 10**13 + 2),
)
FIBER_TOKENS = st.one_of(
    st.sampled_from(["I0", "I5", "I0*", "I3*", "II", "III*", "IV*", "II*", "II**", "I", "I*",
                     "I03", "i2", "V", "", "I1000000000001", "I" + "9" * 30]),
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=4).filter(
        lambda t: not t.startswith("-")
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["reduce", "overlattices", "enumerate", "fiber"]),
    gram=st.one_of(symmetric_grams(st.integers(0, 3)), STAGE_GRAMS, malformed_grams()),
    index=st.one_of(st.integers(-2, 12), st.sampled_from([10**4 + 1, 10**12])),
    disc=DISCS,
    token=FIBER_TOKENS,
)
@example(command="overlattices", gram=[[2 * 10**24]], index=10**12, disc=1, token="I0")
def test_lattice_commands_answer_or_name_the_field(command, gram, index, disc, token):
    """Any small Gram with an index within or past MAX_OVERLATTICE_SEARCH,
    any disc around 0 and the class-enumeration limit, and any short fiber
    token end in an answer or in one error line naming the field."""
    from invcycle import cli

    argv = {
        "reduce": ["lattice", "reduce", "--gram", json.dumps(gram)],
        "overlattices": ["lattice", "overlattices", "--gram", json.dumps(gram), "--index", str(index)],
        "enumerate": ["lattice", "enumerate", "--disc", str(disc)],
        "fiber": ["fiber", "info", token],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1)
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert FIELD_ERROR.fullmatch(err.getvalue()), err.getvalue()
    assert "Traceback" not in err.getvalue()


class TestBaseChangeCommand:
    def test_family_change(self, tmp_path):
        config = bundled_path("example1", "config.json", tmp_path)
        branch = bundled_path("example1", "branch.json", tmp_path)
        proc = run_cli("basechange", "--config", str(config), "--branch", str(branch))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["delta"] == 3
        assert doc["euler_after"] == 12
        assert doc["base_genus"] == 1
        assert sorted(f["type"] for f in doc["fibers"]) == ["IV", "IV*"]


def write_documents(workdir, fibers, genus, branch, picard):
    """`custom` arguments for a seed of (label, token) fibers on a base of
    the given genus, a branch label list, and a ledger that declares only
    picard_maximal, or nothing."""
    docs = {
        "config": {
            "name": "seed",
            "base_genus": genus,
            "fibers": [{"label": label, "type": token} for label, token in fibers],
        },
        "branch": {"branch": branch},
        "assumptions": {
            "assumptions": [{"name": "picard_maximal", "provenance": "p"}] if picard else []
        },
    }
    argv = []
    for name, doc in docs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv += [f"--{name}", str(path)]
    return argv


# II*, IV*, I0*: unbranched, the fiber labelled a is copied to a.1 and a.2.
COLLIDING = [("a", "II*"), ("a.1", "IV*"), ("b", "I0*")]


class TestConfigAndBranchErrors:
    """Config and branch documents that cannot be base-changed, or that
    are no K3 seed, end in one error line naming the field at fault."""

    @pytest.mark.parametrize(
        "commands, fibers, genus, branch, picard, line",
        [
            (
                ("basechange", "custom"), COLLIDING, 0, ["a.1", "b"], False,
                "config.fibers[1].label: 'a.1' is also the label of a copy of the unbranched "
                "fiber 'a'; fiber labels must be distinct",
            ),
            (
                ("basechange", "custom"), [("a", "II*"), ("b", "IV*"), ("a", "I0*")], 0, ["a", "b"], False,
                "config.fibers[2].label: 'a' is also config.fibers[0].label; fiber labels must be distinct",
            ),
            (
                # The family stage branches at all three stars; Y0 omits a.
                ("custom",), COLLIDING, 0, ["a", "a.1", "b", "t"], False,
                "config.fibers[1].label: 'a.1' is also the label of a copy of the unbranched "
                "fiber 'a'; fiber labels must be distinct",
            ),
            (
                ("custom",), [("a", "I24")], 0, ["a", "t"], True,
                "config.fibers: stage X: rho = 20 is below the trivial-lattice rank 25",
            ),
            (
                # The seed passes; the family stage's fibers I6*, I0*, I0* outrank rho = 12.
                ("custom",), [("0", "I6*"), ("1", "I0*"), ("2", "I0*")], 0, ["0", "1", "2", "3"], True,
                "config.fibers: stage S_t: rho = 12 is below the trivial-lattice rank 13",
            ),
            (
                ("basechange", "custom"), [("a", "I24")], 0, [], False,
                "branch.branch: a double cover of a genus-0 base needs at least two branch points",
            ),
            (
                ("custom",), [("a", "I13")], 0, ["a", "t"], False,
                "config.fibers: total Euler number 13 is not divisible by 12",
            ),
            (
                ("custom",), [("a", "I12")], 0, ["a", "t"], False,
                "config.fibers: seed configuration must be a K3 fibration with e = 24; "
                "got kind 'rational-elliptic' with e = 12",
            ),
            (
                ("custom",), [("a", "I24")], 1, ["a", "t"], False,
                "config.base_genus: seed configuration must be a K3 fibration with e = 24; "
                "got kind 'other' with e = 24",
            ),
            (
                ("basechange", "custom"), [("a", "I24")], -1, ["a", "t"], False,
                "config.base_genus: base genus must be a nonnegative integer",
            ),
        ],
        ids=["label-collision", "duplicate-label", "label-collision-at-Y0", "rho-below-trivial-rank",
             "rho-below-trivial-rank-at-S_t", "genus-0-empty-branch", "euler-13", "rational-seed", "genus-1-seed", "negative-genus"],
    )
    def test_error_names_the_field(self, tmp_path, capsys, commands, fibers, genus, branch, picard, line):
        argv = write_documents(tmp_path, fibers, genus, branch, picard)
        for command in commands:
            args = argv if command == "custom" else argv[:4]
            assert main_error(capsys, [command, *args]) == f"error: {line}\n"


LABEL_POOL = ["a", "a.1", "a.2", "b", "b.1", "0", "0.2", "0.2.1"]
TOKEN_POOL = (
    [f"I{n}" for n in range(31)]
    + [f"I{n}*" for n in range(5)]
    + ["II", "III", "IV", "II*", "III*", "IV*"]
)


@st.composite
def seed_fibers(draw):
    """Up to six (label, token) pairs with distinct labels.  Half the time
    an I_n fiber tops the Euler number up to 24, so that a genus-0 seed is
    a K3 fibration and the pipeline runs past its seed gate."""
    from invcycle.kodaira import euler_number, fiber

    fibers = draw(st.lists(
        st.tuples(st.sampled_from(LABEL_POOL), st.sampled_from(TOKEN_POOL)),
        max_size=5, unique_by=lambda pair: pair[0],
    ))
    euler = sum(euler_number(fiber(token)) for _, token in fibers)
    if euler < 24 and draw(st.booleans()):
        free = [label for label in LABEL_POOL if label not in dict(fibers)]
        fibers.append((draw(st.sampled_from(free)), f"I{24 - euler}"))
    return fibers


@st.composite
def branch_sets(draw, labels):
    """An even set of labels, possibly empty, that may add the fresh point t."""
    branch = draw(st.lists(st.sampled_from(labels + ["t"]), unique=True, max_size=4))
    if len(branch) % 2:
        branch = branch[:-1] if "t" in branch else branch + ["t"]
    return branch


# The document at fault: a config, branch or assumptions field.
DOCUMENT_ERROR = re.compile(r"error: (config|branch|assumptions)(\.\w+|\[\d+\])*: [^\n]+\n")


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["basechange", "custom"]),
    fibers=seed_fibers(),
    genus=st.integers(-1, 2),
    data=st.data(),
    picard=st.booleans(),
)
def test_config_and_branch_documents_answer_or_name_the_field(
    tmp_path_factory, command, fibers, genus, data, picard
):
    """Any small seed, even branch set and Picard flag ends in a report,
    an answer, or one error line naming the document field at fault."""
    from invcycle import cli

    branch = data.draw(branch_sets(sorted({label for label, _ in fibers})))
    workdir = tmp_path_factory.getbasetemp() / "config-and-branch"
    workdir.mkdir(exist_ok=True)
    argv = write_documents(workdir, fibers, genus, branch, picard)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, *(argv if command == "custom" else argv[:4])])
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert DOCUMENT_ERROR.fullmatch(err.getvalue()), err.getvalue()
    else:
        assert err.getvalue() == ""
    assert "Traceback" not in err.getvalue()


class TestArgparseBehavior:
    def test_no_args_shows_usage(self):
        proc = run_cli()
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_console_script_name_in_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "verify" in proc.stdout


def outcome(argv):
    """(exit code, stdout, stderr) of cli.main(argv), argparse's exits included."""
    from invcycle import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def full_parser_outcome(argv):
    """outcome(argv) with the leaf table emptied, so every argv goes
    through the top parser, the group parser and the leaf parser."""
    from invcycle import cli

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_LEAVES", {})
        return outcome(argv)


def copy_example1(workdir):
    """workdir, made if need be, with example 1's config.json, branch.json
    and assumptions.json written into it for argvs that name them."""
    workdir.mkdir(exist_ok=True)
    for name in ("config.json", "branch.json", "assumptions.json"):
        source = resources.files("invcycle").joinpath("data", "example1", name)
        (workdir / name).write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    return workdir


def outcome_in(workdir, run, argv):
    """run(argv) with a fresh copy of example 1 in workdir as the working
    directory: --json and --out may name an input file and write over it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(copy_example1(workdir))
        return run(argv)


# One valid argv per command; example, custom and basechange read example 1.
FILES = ["--config", "config.json", "--branch", "branch.json"]
COMMAND_ARGVS = {
    "example": ["example", "2", "--json"],
    "custom": ["custom", *FILES, "--assumptions", "assumptions.json"],
    "basechange": ["basechange", *FILES],
    "fiber info": ["fiber", "info", "I5"],
    "lattice reduce": ["lattice", "reduce", "--gram", "[[4,2],[2,4]]"],
    "lattice enumerate": ["lattice", "enumerate", "--disc", "12"],
    "lattice overlattices": ["lattice", "overlattices", "--gram", "[[4,0],[0,4]]", "--index", "2"],
}
# Each option and an abbreviation of it, the command words, and values
# that some option takes and others refuse.
OPTIONS = [
    "--gram", "--gr", "--disc", "--di", "--index", "--ind", "--json", "--js", "--out", "--ou",
    "--strict", "--st", "--config", "--conf", "--branch", "--br", "--assumptions", "--as",
]
WORDS = ["example", "custom", "basechange", "fiber", "info", "lattice", "reduce", "enumerate",
         "overlattices", "frobnicate", "-h", "--", "extra"]
VALUES = st.one_of(
    st.integers(-5, 1000).map(str),
    st.sampled_from([
        "I5", "II*", "I0*", "abc", "-5", "[[4,2],[2,4]]", "[[2,1],[1,2]]", "[[4,0],[0,4]]",
        "[[2,0],[0,3]]", "[[4,2]]", "config.json", "branch.json", "assumptions.json", "out.json",
    ]),
)
TOKENS = st.one_of(
    st.sampled_from(OPTIONS + WORDS),
    VALUES,
    st.builds(lambda option, value: f"{option}={value}", st.sampled_from(OPTIONS), VALUES),
)


@st.composite
def argvs(draw):
    """A command's valid argv (or the empty one) with up to three tokens
    inserted, deleted or replaced."""
    argv = list(draw(st.sampled_from([[], *COMMAND_ARGVS.values()])))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert" or not argv:
            argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
            continue
        i = draw(st.integers(0, len(argv) - 1))
        if edit == "delete":
            del argv[i]
        else:
            argv[i] = draw(TOKENS)
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=argvs())
@example(argv=["custom", *FILES, "--assumptions", "assumptions.json", "--json=config.json"])
def test_leaf_parser_matches_the_full_parser(argv):
    """Parsing by the named command's parser alone answers every argv,
    valid or not, with the exit code, stdout and stderr of the full
    parser.  Each side runs in its own copy of example 1."""
    with tempfile.TemporaryDirectory() as leaf_dir, tempfile.TemporaryDirectory() as full_dir:
        leaf = outcome_in(Path(leaf_dir), outcome, argv)
        full = outcome_in(Path(full_dir), full_parser_outcome, argv)
    assert leaf == full


@pytest.mark.parametrize("command", COMMAND_ARGVS)
def test_commands_parse_without_the_full_parser(tmp_path, monkeypatch, command):
    from invcycle import cli

    argv = COMMAND_ARGVS[command]
    expected = outcome_in(tmp_path / "full", full_parser_outcome, argv)

    def refuse(*args, **kwargs):
        raise AssertionError(f"the full parser ran for {argv}")

    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    assert outcome_in(tmp_path / "leaf", outcome, argv) == expected
    assert expected[0] == (2 if command == "example" else 0)
