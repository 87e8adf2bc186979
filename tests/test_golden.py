"""Golden reports: byte-for-byte JSON and text output with exit codes.

Each case runs `verify` in process on a bundled example, on an edited
copy of one, or on an input saved under `tests/golden/`, and compares
stdout and the exit code with the files there.  The custom cases reach
every way a run becomes `conditional`.  `marked-differently` is a
`certificates` benchmark input whose two resolved stages mark one
candidate's classes differently and share the marked classes of another,
with quotes, backslashes and non-ASCII text in its fact provenances.
After a deliberate report change (a schema bump), rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from invcycle.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def documents(example):
    """The input documents of a bundled example, or of one saved under tests/golden/."""
    saved = GOLDEN / example
    root = saved if saved.is_dir() else resources.files("invcycle").joinpath("data", example)
    return {
        name: json.loads(root.joinpath(f"{name}.json").read_text(encoding="utf-8"))
        for name in ("config", "branch", "assumptions")
    }


def without(*names, stage=None):
    def edit(docs):
        docs["assumptions"]["assumptions"] = [
            a
            for a in docs["assumptions"]["assumptions"]
            if a["name"] not in names or (stage is not None and a["payload"]["stage"] != stage)
        ]
    return edit


def family_gate(docs):
    docs["branch"]["branch"] = ["0", "1", "2", "t", "u", "v"]


def family_gate_bare(docs):
    family_gate(docs)
    without("picard_maximal", "seed_transcendental_lattice")(docs)


def incompatible_y2(docs):
    docs["assumptions"]["assumptions"].append(
        {
            "name": "stage_transcendental_lattice",
            "payload": {"stage": "Y2", "gram": [[2, 0], [0, 4]]},
            "provenance": "a lattice of discriminant 8, unrelated to the nearby one",
        }
    )


def not_rigid(docs):
    without("torsion_order")(docs)
    for a in docs["assumptions"]["assumptions"]:
        if a["name"] == "seed_transcendental_lattice":
            a["payload"]["gram"] = [[8, 0], [0, 8]]


def with_bound(docs):
    docs["assumptions"]["assumptions"].append(
        {
            "name": "exclusion_fact",
            "payload": {"kind": "denominator_bound", "provenance": "height pairing bound"},
            "provenance": "height pairing bound",
        }
    )


def no_facts_bound(docs):
    without("exclusion_fact")(docs)
    with_bound(docs)


def as_saved(docs):
    """No edit: a saved input runs as it is."""


# case -> (bundled example or saved input, edit of its documents or None for `verify example`)
CASES = {
    "example1": ("example1", None),
    "example2": ("example2", None),
    "no-picard": ("example1", without("picard_maximal")),
    "no-seed-lattice": ("example1", without("seed_transcendental_lattice")),
    "no-shioda-inose": ("example1", without("shioda_inose_cover")),
    "no-facts": ("example1", without("exclusion_fact")),
    "no-torsion-y2": ("example1", without("torsion_order", stage="Y2")),
    "family-gate": ("example1", family_gate),
    "family-gate-bare": ("example1", family_gate_bare),
    "incompatible-y2": ("example1", incompatible_y2),
    "not-rigid": ("example2", not_rigid),
    "example1-bound": ("example1", with_bound),
    "example2-bound": ("example2", with_bound),
    "no-facts-bound": ("example1", no_facts_bound),
    "marked-differently": ("marked-differently", as_saved),
}
TEXT_CASES = ("example1", "example2", "family-gate", "example1-bound", "marked-differently")
RUNS = [(case, "json") for case in CASES] + [(case, "txt") for case in TEXT_CASES]


def run(case, fmt, workdir):
    """Exit code and stdout of `verify` for one case."""
    example, edit = CASES[case]
    if edit is None:
        argv = ["example", example[-1]]
    else:
        docs = copy.deepcopy(documents(example))
        edit(docs)
        argv = ["custom"]
        for name, doc in docs.items():
            path = Path(workdir) / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv += [f"--{name}", str(path)]
    if fmt == "json":
        argv.append("--json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case,fmt", RUNS)
def test_output_matches_golden(case, fmt, tmp_path):
    code, text = run(case, fmt, tmp_path)
    name = f"{case}.{fmt}"
    assert text == (GOLDEN / name).read_text(encoding="utf-8")
    assert code == exit_codes()[name]


def regenerate():
    codes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for case, fmt in RUNS:
            name = f"{case}.{fmt}"
            codes[name], text = run(case, fmt, workdir)
            (GOLDEN / name).write_text(text, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    sys.exit(regenerate())
