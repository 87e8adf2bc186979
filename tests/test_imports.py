"""What each subcommand loads, and the lazy package namespace.

The lattice and fiber commands load `cli`, `jsonio`, `lattice` and
`kodaira` only, no pipeline module.  No command loads `dataclasses` or
`inspect`, whose import and exec-built classes used to be most of the
start-up.  Each case runs in a fresh interpreter, because this test
session has loaded everything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invcycle

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import contextlib, io, json, sys
from invcycle import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

PIPELINE_MODULES = {
    "invcycle.pipeline", "invcycle.surfaces", "invcycle.transcendental", "invcycle.mordell_weil",
}


def loaded_by(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, check=True
    )
    result = json.loads(proc.stdout)
    assert result["code"] == 0, proc.stderr
    return set(result["modules"])


@pytest.mark.parametrize("argv", [
    ("lattice", "reduce", "--gram", "[[4,2],[2,4]]"),
    ("lattice", "enumerate", "--disc", "100"),
    ("lattice", "overlattices", "--gram", "[[8,0],[0,8]]", "--index", "2"),
    ("fiber", "info", "I5"),
    ("fiber", "info", "II*"),
], ids=["reduce", "enumerate", "overlattices", "fiber-I5", "fiber-II*"])
def test_kernel_commands_load_no_pipeline(argv):
    modules = loaded_by(*argv)
    ours = {m for m in modules if m.split(".")[0] == "invcycle"}
    assert ours == {"invcycle", "invcycle.cli", "invcycle.jsonio", "invcycle.lattice", "invcycle.kodaira"}
    assert "dataclasses" not in modules
    assert "inspect" not in modules


EXAMPLE1 = SRC / "invcycle" / "data" / "example1"


def test_report_command_loads_the_pipeline():
    modules = loaded_by("example", "1", "--json")
    assert PIPELINE_MODULES <= modules
    assert "dataclasses" not in modules
    assert "inspect" not in modules


def test_custom_command_loads_no_dataclasses():
    modules = loaded_by(
        "custom", "--config", str(EXAMPLE1 / "config.json"), "--branch", str(EXAMPLE1 / "branch.json"),
        "--assumptions", str(EXAMPLE1 / "assumptions.json"),
    )
    assert PIPELINE_MODULES <= modules
    assert "dataclasses" not in modules
    assert "inspect" not in modules


def test_every_export_resolves():
    namespace = {}
    exec(f"from invcycle import {', '.join(invcycle.__all__)}", namespace)
    for name in invcycle.__all__:
        assert namespace[name] is getattr(invcycle, name)


def test_exports_are_the_defining_modules_objects():
    from invcycle import jsonio, lattice, pipeline

    assert invcycle.BinaryEvenForm is lattice.BinaryEvenForm
    assert invcycle.run_example is pipeline.run_example
    assert invcycle.PipelineError is pipeline.PipelineError is jsonio.PipelineError
    assert issubclass(invcycle.PipelineContradictionError, invcycle.PipelineError)


def test_dir_lists_every_export():
    assert set(invcycle.__all__) <= set(dir(invcycle))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'not_an_export'"):
        invcycle.not_an_export
    with pytest.raises(ImportError):
        exec("from invcycle import not_an_export", {})
    assert not hasattr(invcycle, "not_an_export")
