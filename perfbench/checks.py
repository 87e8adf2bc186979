"""Output checks for benchmark operations.

Two kinds of check decide whether an op counts as failed:

* recorded digests: for inputs recorded at the reference commit (see
  `record_digests.py`), the exit code and stdout must match byte for byte;
* invariants that need no recording, on any seed: the exit code agrees
  with the report's status, every enumerated form is reduced and has the
  stated discriminant, every overlattice is even with det = det / m^2,
  the `I_n` profile matches its closed form, and the brute-force oracles
  of `tests/oracles.py` agree where they are cheap.

A clean exit 1 (an `error:` line and no stdout) is a correct rejection,
not a failure.  A traceback, or an exception escaping `cli.main`, is.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# Oracles are exhaustive; run them only below these sizes.
THETA_ORACLE_MAX_DISC = 3000
OVERLATTICE_ORACLE_MAX_DET = 300

DIGESTS_PATH = Path(__file__).with_name("digests.txt")


def output_digest(code, stdout: str) -> str:
    return f"{code}:{hashlib.sha256(stdout.encode()).hexdigest()[:10]}"


def load_digests() -> dict[str, str]:
    """Input key -> output digest, one `key digest` pair per line."""
    if not DIGESTS_PATH.is_file():
        return {}
    lines = DIGESTS_PATH.read_text(encoding="utf-8").splitlines()
    return dict(line.split() for line in lines if line and not line.startswith("#"))


class Checker:
    """Checks op outputs; `oracles` is the `tests/oracles.py` module."""

    def __init__(self, oracles, digests: dict[str, str]):
        self.oracles = oracles
        self.digests = digests
        self.digest_hits = 0

    def check(self, op, code, stdout: str, stderr: str) -> str | None:
        """None when the output is correct, else a one-line reason."""
        if "Traceback" in stderr:
            return "traceback on stderr"
        expected = self.digests.get(op.key)
        if expected is not None:
            self.digest_hits += 1
            got = output_digest(code, stdout)
            if got != expected:
                return f"digest {got} != recorded {expected}"
        if code == 1:
            if stdout or not stderr.startswith("error: ") or stderr.count("\n") != 1:
                return "exit 1 without a single error line"
            return None
        if code not in (0, 2):
            return f"unexpected exit code {code!r}"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        if stdout != json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n":
            return "stdout is not canonical JSON"
        return getattr(self, "_check_" + op.kind.replace("-", "_"))(op, code, doc)

    def _check_example(self, op, code, doc):
        return _report_invariants(code, doc)

    def _check_custom(self, op, code, doc):
        reason = _report_invariants(code, doc)
        if reason:
            return reason
        seed_disc = doc["seed"]["transcendental"]["disc"]["value"]
        if seed_disc != op.params["seed_disc"]:
            return f"seed disc {seed_disc} != generated {op.params['seed_disc']}"
        return None

    def _check_enumerate(self, op, code, doc):
        disc = op.params["disc"]
        if code != 0 or doc["disc"] != disc or doc["count"] != len(doc["classes"]):
            return "enumerate: wrong header"
        for cls in doc["classes"]:
            a, b, c = cls["coefficients"]
            if not (0 <= b <= a <= c) or 4 * a * c - b * b != disc:
                return f"enumerate: form {cls['coefficients']} not reduced of disc {disc}"
            if cls["gram"] != [[str(2 * a), str(b)], [str(b), str(2 * c)]]:
                return "enumerate: gram disagrees with coefficients"
        if disc <= THETA_ORACLE_MAX_DISC and doc["count"] != len(
            self.oracles.binary_classes_by_theta(disc)
        ):
            return "enumerate: class count disagrees with the theta oracle"
        return None

    def _check_reduce(self, op, code, doc):
        (g00, g01), (_, g11) = op.params["gram"]
        a, b, c = doc["coefficients"]
        if code != 0 or doc["disc"] != g00 * g11 - g01 * g01:
            return "reduce: wrong discriminant"
        if (a, b, c) != self.oracles.reduce_triple(g00 // 2, g01, g11 // 2):
            return "reduce: disagrees with the reduction oracle"
        return None

    def _check_overlattices(self, op, code, doc):
        m, det = op.params["index"], op.params["det"]
        if code != 0 or doc["count"] != len(doc["overlattices"]):
            return "overlattices: wrong header"
        triples = []
        for over in doc["overlattices"]:
            (p, q), (_, r) = [[int(x) for x in row] for row in over["gram"]]
            if p % 2 or r % 2:
                return "overlattices: odd overlattice"
            if (p * r - q * q) * m * m != det or over["disc"] != det // (m * m):
                return "overlattices: det is not det / m^2"
            triples.append(self.oracles.reduce_triple(p // 2, q, r // 2))
        if det <= OVERLATTICE_ORACLE_MAX_DET and sorted(triples) != sorted(
            self.oracles.even_overlattices_bruteforce(op.params["gram"], m)
        ):
            return "overlattices: disagrees with the brute-force oracle"
        return None

    def _check_fiber(self, op, code, doc):
        n = op.params["n"]
        expected = {
            "type": f"I{n}",
            "euler_number": n,
            "components": n,
            "root_lattice_disc": n,
            "contribution_denominators": [d for d in range(1, n + 1) if n % d == 0],
            "base_change_image": f"I{2 * n}",
            "euler_defect": 0,
        }
        if code != 0 or doc != expected:
            return "fiber: profile differs from the closed form for I_n"
        return None


def _report_invariants(code: int, doc: dict) -> str | None:
    if doc.get("schema") != "invcycle-report/1":
        return "report: wrong schema"
    status = doc.get("status")
    want = {"verified": 0, "conditional": 2}.get(status)
    if want != code:
        return f"report: exit {code} disagrees with status {status!r}"
    return None
