"""What `import invcycle`, each subcommand and each pipeline module load.

The lattice and fiber commands load `cli`, `jsonio`, `lattice` and
`kodaira` only, no pipeline module.  `transcendental` loads `lattice`
only: the pipeline makes the height checks and hands it their results.
No command loads `dataclasses` or `inspect`, whose import and
exec-built classes used to be most of the start-up.  Each case runs in
a fresh interpreter, because this test session has loaded everything
already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# With no arguments the probe only imports the package.
PROBE = """
import contextlib, io, json, sys
import invcycle
code = 0
if sys.argv[1:]:
    from invcycle import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""
IMPORT_TRANSCENDENTAL = """
import json, sys
import invcycle.transcendental
print(json.dumps({"code": 0, "modules": sorted(sys.modules)}))
"""

PIPELINE_MODULES = {
    "invcycle.pipeline", "invcycle.surfaces", "invcycle.transcendental", "invcycle.mordell_weil",
}


def loaded_by(*argv, probe=PROBE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env, check=True
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


def test_package_import_loads_no_submodule():
    assert {m for m in loaded_by() if m.split(".")[0] == "invcycle"} == {"invcycle"}


def test_transcendental_loads_only_the_lattice_kernels():
    ours = {m for m in loaded_by(probe=IMPORT_TRANSCENDENTAL) if m.split(".")[0] == "invcycle"}
    assert ours == {"invcycle", "invcycle.lattice", "invcycle.transcendental"}


def test_every_error_class_is_a_value_error():
    """cli.main turns a ValueError into one `error:` line and exit 1, so
    every exception class the package defines must be one."""
    import importlib
    import pkgutil

    import invcycle

    defined = []
    for info in pkgutil.iter_modules(invcycle.__path__):
        if info.name != "__main__":  # running it would run the CLI
            module = importlib.import_module(f"invcycle.{info.name}")
            defined += [
                obj for obj in vars(module).values()
                if isinstance(obj, type) and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__
            ]
    assert defined
    assert [cls for cls in defined if not issubclass(cls, ValueError)] == []
