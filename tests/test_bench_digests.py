"""The benchmark's recorded outputs, checked on every test run.

`perfbench/digests.txt` holds the exit code and a stdout hash of every
benchmark op recorded at its reference commit.  The first 32
`certificates` and the first 46 `building-blocks` ops of seed 1 (two
blocks of each stream), and the first 32 `certificates` ops of seeds 2
and 3, are run here in process, through `cli.main`, and must reproduce
those digests byte for byte, so a change that alters a benchmark output
fails tier-1 instead of only the benchmark run.
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


def check_first_ops(workload, seed, count, workdir):
    digests = checks.load_digests()
    for op in itertools.islice(workloads.stream(workload, seed, workdir), count):
        assert op.key in digests, op.argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        assert checks.output_digest(code, out.getvalue()) == digests[op.key], (op.argv, err.getvalue())


@pytest.mark.parametrize("workload, count", [("certificates", 32), ("building-blocks", 46)])
def test_first_ops_of_seed_1_match_recorded_digests(tmp_path, workload, count):
    check_first_ops(workload, 1, count, tmp_path)


@pytest.mark.parametrize("seed", [2, 3])
def test_first_certificates_of_other_seeds_match_recorded_digests(tmp_path, seed):
    # More resolutions whose stages mark one candidate's classes differently.
    check_first_ops("certificates", seed, 32, tmp_path)


def test_square_factor_share_uses_the_rigidity_index_bound():
    """The benchmark's square-factor share counts the inputs on which
    rigidity_transfer enumerates overlattices, so its copy of the bound
    must follow the package's."""
    from invcycle import transcendental

    assert workloads.RIGIDITY_INDEX_BOUND == transcendental.RIGIDITY_INDEX_BOUND
