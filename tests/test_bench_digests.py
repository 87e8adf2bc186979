"""The benchmark's recorded outputs, checked on every test run.

`perfbench/digests.txt` holds the exit code and a stdout hash of every
benchmark op recorded at its reference commit.  The first 32
`certificates` and the first 46 `building-blocks` ops of seed 1 (two
blocks of each stream) are run here in process, through `cli.main`, and
must reproduce those digests byte for byte, so a change that alters a
benchmark output fails tier-1 instead of only the benchmark run.
"""

import contextlib
import importlib.util
import io
import itertools
import sys
from pathlib import Path

import pytest

from invcycle import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


@pytest.mark.parametrize("workload, count", [("certificates", 32), ("building-blocks", 46)])
def test_first_ops_of_seed_1_match_recorded_digests(tmp_path, workload, count):
    digests = checks.load_digests()
    for op in itertools.islice(workloads.stream(workload, 1, tmp_path), count):
        assert op.key in digests, op.argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        assert checks.output_digest(code, out.getvalue()) == digests[op.key], (op.argv, err.getvalue())


def test_square_factor_share_uses_the_rigidity_index_bound():
    """The benchmark's square-factor share counts the inputs on which
    rigidity_transfer enumerates overlattices, so its copy of the bound
    must follow the package's."""
    from invcycle import transcendental

    assert workloads.RIGIDITY_INDEX_BOUND == transcendental.RIGIDITY_INDEX_BOUND
