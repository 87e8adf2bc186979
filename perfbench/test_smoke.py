"""Small-size smoke test of the benchmark.

    python3 -m pytest perfbench/test_smoke.py

Checks that BENCHMARK.json and the code agree on every name, that each
workload runs and reports what BENCHMARK.json lists, that the generators
are deterministic and admissible, that the output checks catch a wrong
answer, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import Checker, output_digest  # noqa: E402
from run import invoke, load_program  # noqa: E402
from tracer import PRINT_ONLY, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(workload, trace, cwd=ROOT, seconds=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_names_match_the_tracer():
    load_program()
    tracer = Tracer()
    reported = [n for n in tracer.summary(1) if n not in PRINT_ONLY] + ["trace.overhead_ratio"]
    assert [m["name"] for m in SPEC["per_layer"]] == reported


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_run_reports_every_metric(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["bundled", "building-blocks"])
def test_traced_run_reports_every_layer_metric(workload):
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_streams_are_deterministic_and_admissible(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.stream(workload, 5, tmp_path)
        b = workloads.stream(workload, 5, tmp_path)
        assert [next(a).key for _ in range(40)] == [next(b).key for _ in range(40)]
    for stars, others in workloads.admissible_configs():
        tokens = stars + others
        assert len(stars) == 3 and all(t.endswith("*") for t in stars)
        assert not any(t.endswith("*") for t in others)
        assert sum(workloads._STARS.get(t, workloads._OTHERS.get(t))[0] for t in tokens) == 24
    rng = random.Random(0)
    for _ in range(50):
        (g00, g01), (_, g11) = workloads._sublattice_gram(rng, m := rng.randint(2, 8))
        assert g00 % 2 == 0 and g11 % 2 == 0 and (g00 * g11 - g01 * g01) % (m * m) == 0


def corrupt(kind: str, doc: dict) -> None:
    """Make a plausible wrong answer: still well-formed, but false."""
    if kind == "enumerate":
        doc["classes"].pop()
        doc["count"] -= 1
    elif kind == "reduce":
        doc["coefficients"].reverse()
    elif kind == "overlattices":
        doc["count"] += 1
    else:
        doc["components"] += 1


@pytest.mark.parametrize("kind", ["enumerate", "reduce", "overlattices", "fiber"])
def test_checks_catch_a_wrong_answer(kind):
    cli, oracles = load_program()
    rng = random.Random(2)
    decks = workloads.BuildingBlockDecks(rng)
    op = next(o for o in iter(lambda: workloads.building_block_op(rng, decks, kind, 0), None)
              if kind != "enumerate" or o.params["disc"] % 4 in (0, 3))
    _seconds, code, stdout, stderr = invoke(cli, op.argv)
    checker = Checker(oracles, {op.key: output_digest(code, stdout)})
    assert checker.check(op, code, stdout, stderr) is None
    doc = json.loads(stdout)
    corrupt(kind, doc)
    wrong = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert checker.check(op, code, wrong, stderr) is not None  # digest
    assert Checker(oracles, {}).check(op, code, wrong, stderr) is not None  # invariants
    assert checker.check(op, 1, "", "error: boom\n") is not None  # digest: exit code differs
    assert Checker(oracles, {}).check(op, 1, "", "Traceback (most recent call last):\n") is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("bundled", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
