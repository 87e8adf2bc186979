"""Outside-in tracing of the invcycle package, layer by layer.

The package has no instrumentation of its own, so the tracer wraps the
functions through which one module calls into another.  A wrapper is
bound in every module namespace that holds the original function (the
defining module and each module that imported it by name), so the
package's own calls go through it.  `GramLattice.det` is wrapped on the
class.  `GramLattice` construction is counted, not timed: it is too
frequent and too cheap to span, so its time stays with the layer that
built the lattice.  Any function left unwrapped (methods, helpers, the
small lookups listed below) keeps its time with its caller.  Nothing
under `src/` changes; `uninstall` restores every binding.

Each wrapped call records a span (name, start, end, parent span, op id,
raised) in memory.  A layer's self time is the time of its spans minus
the time of their child spans.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

LAYERS = (
    "cli", "jsonio", "pipeline", "surfaces", "kodaira", "mordell_weil", "transcendental", "lattice",
)

# Per module, the public functions that other modules call.
ENTRY_POINTS = {
    "cli": ("main",),
    "pipeline": (
        "run_example", "run_custom", "load_pipeline_files", "build_pipeline_spec",
        "run_pipeline", "render_text", "report_to_json", "report_exit_code",
    ),
    "jsonio": (
        "load_json", "parse_gram", "parse_surface_config", "parse_branch_spec",
        "parse_assumptions", "parse_exclusion_fact", "dumps_canonical", "gram_to_json",
        "surface_config_to_json", "exclusion_fact_to_json",
    ),
    "surfaces": ("invariants", "quadratic_base_change"),
    "kodaira": ("fiber_profile",),
    "mordell_weil": ("shioda_tate", "check_disc_consistency"),
    "transcendental": (
        "double_cover_disc_candidates", "resolve_disc", "rigidity_transfer",
        "shioda_inose_unscale", "specialization_index",
    ),
    "lattice": (
        "enumerate_even_posdef_binary", "enumerate_even_overlattices", "smith_normal_form",
        "reduce_binary", "sublattice_index_from_discs",
    ),
}
# Left out on purpose: the small `kodaira` table lookups (`euler_number`,
# `is_star`, `fiber`, ...) cost less than a span, and `lattice.root_gram`
# runs only inside `fiber_profile`, which is timed as a whole; wrapping
# them tripled the spans of a `bundled` op.

# Spans reported together under one name.
GROUPS = {
    "jsonio.load_json": "jsonio.parse",
    "jsonio.parse_gram": "jsonio.parse",
    "jsonio.parse_surface_config": "jsonio.parse",
    "jsonio.parse_branch_spec": "jsonio.parse",
    "jsonio.parse_assumptions": "jsonio.parse",
    "jsonio.parse_exclusion_fact": "jsonio.parse",
}


# Spans whose inclusive time per op is reported, and spans whose calls per op are.
TIMED = (
    "kodaira.fiber_profile", "lattice.det", "lattice.enumerate_even_overlattices",
    "transcendental.rigidity_transfer", "lattice.smith_normal_form",
    "lattice.enumerate_even_posdef_binary", "transcendental.resolve_disc", "lattice.reduce_binary",
    "jsonio.dumps_canonical", "jsonio.parse", "pipeline.render_text",
)
COUNTED = (
    "kodaira.fiber_profile", "lattice.det", "mordell_weil.check_disc_consistency",
    "mordell_weil.shioda_tate", "lattice.enumerate_even_overlattices", "lattice.smith_normal_form",
    "lattice.reduce_binary",
)
# Times that read exactly 0 on some workload are printed but left out of
# the result line: building-blocks never enters pipeline, surfaces,
# mordell_weil or transcendental, and every report op asks for JSON, so
# no workload renders text.
PRINT_ONLY = frozenset({
    "pipeline.self_ms", "surfaces.self_ms", "mordell_weil.self_ms", "transcendental.self_ms",
    "transcendental.rigidity_transfer.ms", "transcendental.resolve_disc.ms", "pipeline.render_text.ms",
})


def _count_result(counter_name, measure):
    def hook(counters, result):
        counters[counter_name] += measure(result)
    return hook


def _resolve_disc_hook(counters, resolution):
    for cand in resolution.certificate:
        counters["transcendental.resolve_disc.classes"] += len(cand.classes)
        counters["transcendental.resolve_disc.excluded"] += sum(
            cv.excluded_by is not None for cv in cand.classes
        )


RESULT_HOOKS = {
    "lattice.enumerate_even_overlattices": _count_result("lattice.enumerate_even_overlattices.found", len),
    "lattice.enumerate_even_posdef_binary": _count_result("lattice.enumerate_even_posdef_binary.forms", len),
    "jsonio.dumps_canonical": _count_result("jsonio.dumps_canonical.bytes", lambda s: len(s.encode())),
    "transcendental.resolve_disc": _resolve_disc_hook,
}


SPAN_FIELDS = 6


class Tracer:
    """Spans and counters for calls between the package's modules."""

    def __init__(self, package: str = "invcycle"):
        # SPAN_FIELDS int64 slots per span: name id, start_ns, end_ns,
        # parent span index (-1 for none), op id, raised (0 or 1).
        self.spans = array("q")
        self.names: list[str] = []
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._bindings = []  # (owner, attribute, original, wrapper)
        modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        for layer, names in ENTRY_POINTS.items():
            home = importlib.import_module(f"{package}.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._span(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._bindings.append((module, attr, original, wrapper))
        gram_lattice = importlib.import_module(f"{package}.lattice").GramLattice
        init, det = vars(gram_lattice)["__init__"], vars(gram_lattice)["det"]
        self._bindings.append(
            (gram_lattice, "__init__", init, self._count("lattice.GramLattice.constructions", init))
        )
        self._bindings.append((gram_lattice, "det", det, self._span("lattice.det", det)))

    def _span(self, name, fn):
        spans, stack, hook = self.spans, self._stack, RESULT_HOOKS.get(name)
        name_id = len(self.names)
        self.names.append(name)

        def wrapper(*args, **kwargs):
            at = len(spans)
            spans.extend((name_id, 0, 0, stack[-1] if stack else -1, self.op_id, 1))
            stack.append(at // SPAN_FIELDS)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[at + 2] = perf_counter_ns()
                spans[at + 1] = start
                stack.pop()
            spans[at + 5] = 0
            if hook is not None:
                hook(self.counters, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._bindings:
            setattr(owner, attr, original)
        self._stack.clear()

    def records(self):
        """Every span as (name, start_ns, end_ns, parent span index, op id, raised)."""
        spans, names = self.spans, self.names
        for at in range(0, len(spans), SPAN_FIELDS):
            name_id, start, end, parent, op, raised = spans[at:at + SPAN_FIELDS]
            yield names[name_id], start, end, parent, op, bool(raised)

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: op, name, start_ns, end_ns, parent, raised."""
        with path.open("w", encoding="utf-8") as out:
            out.write("op\tname\tstart_ns\tend_ns\tparent\traised\n")
            for name, start, end, parent, op, raised in self.records():
                out.write(f"{op}\t{name}\t{start}\t{end}\t{parent}\t{int(raised)}\n")

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-op layer metrics over every recorded span, in a fixed order."""
        spans = list(self.records())
        child_ns = [0] * len(spans)
        for _name, start, end, parent, _op, _raised in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        raised: Counter = Counter()
        inclusive_ns: Counter = Counter()
        calls: Counter = Counter()
        c = self.counters
        for idx, (name, start, end, parent, _op, was_raised) in enumerate(spans):
            layer = name.split(".", 1)[0]
            self_ns[layer] += end - start - child_ns[idx]
            raised[layer] += was_raised
            group = GROUPS.get(name, name)
            ancestor = parent
            while ancestor >= 0 and GROUPS.get(spans[ancestor][0], spans[ancestor][0]) != group:
                ancestor = spans[ancestor][3]
            if ancestor < 0:  # outermost span of its group
                inclusive_ns[group] += end - start
                calls[group] += 1
            if name == "lattice.enumerate_even_overlattices" and parent >= 0:
                c["rigidity_enumerations"] += spans[parent][0] == "transcendental.rigidity_transfer"
        per_op = 1.0 / max(n_ops, 1)
        metrics = {f"{layer}.self_ms": self_ns[layer] / 1e6 * per_op for layer in LAYERS}
        metrics.update({f"{g}.ms": inclusive_ns[g] / 1e6 * per_op for g in TIMED})
        metrics.update({f"{g}.calls": calls[g] * per_op for g in COUNTED})
        metrics["lattice.GramLattice.constructions"] = c["lattice.GramLattice.constructions"] * per_op
        metrics["lattice.enumerate_even_overlattices.found_ratio"] = c[
            "lattice.enumerate_even_overlattices.found"
        ] / max(calls["lattice.enumerate_even_overlattices"], 1)
        metrics["transcendental.rigidity_transfer.enumerated_indices"] = c["rigidity_enumerations"] * per_op
        metrics["lattice.enumerate_even_posdef_binary.forms"] = c[
            "lattice.enumerate_even_posdef_binary.forms"
        ] * per_op
        metrics["transcendental.resolve_disc.classes"] = c["transcendental.resolve_disc.classes"] * per_op
        metrics["transcendental.resolve_disc.excluded_ratio"] = c[
            "transcendental.resolve_disc.excluded"
        ] / max(c["transcendental.resolve_disc.classes"], 1)
        metrics["jsonio.dumps_canonical.bytes"] = c["jsonio.dumps_canonical.bytes"] * per_op
        metrics.update({f"{layer}.raised": raised[layer] * per_op for layer in LAYERS})
        return metrics
