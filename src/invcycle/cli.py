"""Command-line interface.

Exit codes: 0 when every stage of a verification run is decisively
resolved, 2 when the run completed but some conclusion stayed ambiguous
or was skipped for lack of inputs (--strict turns that into 1), and 1
for contradictions, malformed input, or any other error.  argparse also
exits 2 when it refuses the command line (an unknown command, a missing
or ill-typed option, an extra argument): a usage line and the error go
to stderr, and nothing to stdout.

Each handler imports the modules it runs, so `lattice …` and `fiber …`
load `jsonio`, `lattice` and `kodaira` only, never the pipeline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .jsonio import (
    InputError,
    _digit_limit_error,
    binary_gram_to_json,
    dumps_canonical,
    form_to_json,
    gram_to_json,
    load_json,
    loads_json,
    parse_branch_spec,
    parse_fiber_token,
    parse_form,
    parse_gram,
    parse_surface_config,
    surface_config_to_json,
)


def _printable(source: str, what: str, build):
    """What build() returns.  An integer past the int/str conversion limit
    is an error naming source, the input it came from; CPython raises it
    as a plain ValueError whose message starts "Exceeds the limit", and
    every other error passes through unchanged."""
    try:
        return build()
    except ValueError as exc:
        if not str(exc).startswith("Exceeds the limit"):
            raise
        raise _digit_limit_error(f"{source}: the {what} cannot be printed", exc) from None


def _write_answer(source: str, build) -> int:
    """Write the document build() returns."""
    sys.stdout.write(_printable(source, "answer", lambda: dumps_canonical(build())))
    return 0


def _emit_report(run, args) -> int:
    for option, path in (("--json", args.json), ("--out", args.out)):
        if path == "":  # names no file; refused before the pipeline runs
            raise InputError(f"{option}: PATH must not be empty")
    from .pipeline import render_text, report_exit_code, report_to_json

    def build():
        report = run()
        # Encoded once: stdout, --json PATH and --out get the same string.
        encoded = report_to_json(report) if args.json is not None or args.out else None
        return report, encoded, encoded if args.json is not None else render_text(report)

    # Only a custom ledger can hold numbers past the limit.
    report, encoded, shown = _printable("--assumptions", "report", build)
    # The files first, with the bytes made before any is opened: a failed
    # write removes the files written so far and exits 1 with nothing on stdout.
    paths = [Path(args.json)] if isinstance(args.json, str) else []
    if args.out:
        paths.append(Path(args.out))
    data = encoded.encode("utf-8") if paths else b""
    written: list[Path] = []
    try:
        for path in paths:
            with path.open("wb") as f:
                written.append(path)
                f.write(data)
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    sys.stdout.write(shown)
    return report_exit_code(report, strict=args.strict)


def _cmd_example(args) -> int:
    from .pipeline import run_example

    return _emit_report(lambda: run_example(args.number), args)


def _cmd_custom(args) -> int:
    from .pipeline import load_pipeline_files, run_pipeline

    spec = load_pipeline_files(args.config, args.branch, args.assumptions)
    return _emit_report(lambda: run_pipeline(spec), args)


def _cmd_fiber(args) -> int:
    from .kodaira import delta, euler_number, fiber_profile, quadratic_base_change_fiber

    f = parse_fiber_token(args.token, "token")
    profile = fiber_profile(f)
    doc = {
        "type": f.token,
        "euler_number": euler_number(f),
        "components": profile.components,
        "root_lattice_disc": profile.root_disc,
        "contribution_denominators": sorted(profile.contribution_denominators),
        "base_change_image": quadratic_base_change_fiber(f).token,
        "euler_defect": delta(f),
    }
    if profile.odd_multiplicity_components:
        doc["odd_multiplicity_components"] = profile.odd_multiplicity_components
    sys.stdout.write(dumps_canonical(doc))
    return 0


def _cmd_lattice_reduce(args) -> int:
    from .lattice import reduce_binary

    form = reduce_binary(parse_form(loads_json(args.gram, "--gram"), "--gram"))
    return _write_answer("--gram", lambda: {
        "reduced": form_to_json(form),
        "coefficients": [form.a, form.b, form.c],
        "disc": form.disc,
    })


def _cmd_lattice_enumerate(args) -> int:
    from .lattice import MAX_CLASS_DISC, enumerate_even_posdef_binary

    if args.disc < 1:
        raise InputError("--disc: discriminant must be a positive integer")
    if args.disc > MAX_CLASS_DISC:
        raise InputError(
            f"--disc: discriminant {args.disc} exceeds the class-enumeration limit {MAX_CLASS_DISC}"
        )
    forms = enumerate_even_posdef_binary(args.disc)
    doc = {
        "disc": args.disc,
        "count": len(forms),
        "classes": [
            {"coefficients": [a, b, c], "gram": binary_gram_to_json(a, b, c)} for a, b, c in forms
        ],
    }
    sys.stdout.write(dumps_canonical(doc))
    return 0


def _cmd_lattice_overlattices(args) -> int:
    from .lattice import MAX_OVERLATTICE_SEARCH, enumerate_even_overlattices

    gram = parse_gram(loads_json(args.gram, "--gram"), "--gram")
    m, n = args.index, gram.rank
    if m < 2:
        raise InputError("--index: overlattice index must be an integer >= 2")
    if not gram.is_even():
        raise InputError("--gram: overlattice enumeration needs an even lattice")
    det = gram.det()
    if det == 0:
        raise InputError("--gram: overlattice enumeration needs det != 0")
    if m ** max(n - 1, 1) > MAX_OVERLATTICE_SEARCH:
        raise InputError(
            f"--index: index {m} at rank {n} exceeds the overlattice search limit: "
            f"{'m^(rank-1)' if n > 1 else 'm'} must be at most {MAX_OVERLATTICE_SEARCH}"
        )
    overs = enumerate_even_overlattices(gram, m) if det % (m * m) == 0 else []
    return _write_answer("--gram", lambda: {
        "gram": gram_to_json(gram),
        "index": args.index,
        "count": len(overs),
        "overlattices": [
            {"gram": gram_to_json(o), "disc": o.disc()} for o in overs
        ],
    })


def _cmd_basechange(args) -> int:
    from .surfaces import quadratic_base_change

    config = parse_surface_config(load_json(args.config), "config")
    branch = parse_branch_spec(load_json(args.branch), "branch")
    result = quadratic_base_change(config, branch)
    return _write_answer("--config", lambda: {
        **surface_config_to_json(result.config),
        "delta": result.delta,
        "euler_before": result.euler_before,
        "euler_after": result.euler_after,
    })


def build_parser(leaves: dict) -> argparse.ArgumentParser:
    """The `verify` parser.  Each command's own parser is also stored in
    leaves under the command's words, such as ("lattice", "reduce")."""
    parser = argparse.ArgumentParser(
        prog="verify",
        description=(
            "Exact lattice arithmetic for integral invariant-cycle failure "
            "certificates on elliptic surface degenerations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, words, func, help):
        p = group.add_parser(words[-1], help=help)
        p.set_defaults(func=func)
        leaves[words] = p
        return p

    def add_report_flags(p):
        p.add_argument(
            "--json",
            nargs="?",
            const=True,
            default=None,
            metavar="PATH",
            help="emit the canonical JSON report; with PATH, also write it there",
        )
        p.add_argument("--out", metavar="PATH", help="also write the JSON report to PATH")
        p.add_argument(
            "--strict",
            action="store_true",
            help="treat ambiguous or skipped conclusions as failure (exit 1)",
        )

    p_example = command(sub, ("example",), _cmd_example, "run a bundled verification pipeline")
    p_example.add_argument("number", type=int, choices=(1, 2))
    add_report_flags(p_example)

    p_custom = command(sub, ("custom",), _cmd_custom, "run a pipeline from JSON input files")
    p_custom.add_argument("--config", required=True, help="seed fibration JSON")
    p_custom.add_argument("--branch", required=True, help="family branch specification JSON")
    p_custom.add_argument("--assumptions", required=True, help="assumption ledger JSON")
    add_report_flags(p_custom)

    p_fiber = sub.add_parser("fiber", help="fiber-type arithmetic")
    fiber_sub = p_fiber.add_subparsers(dest="fiber_command", required=True)
    p_info = command(fiber_sub, ("fiber", "info"), _cmd_fiber,
                     "arithmetic profile of one Kodaira symbol")
    p_info.add_argument("token", help="fiber symbol, e.g. II*, I0*, I6")

    p_lat = sub.add_parser("lattice", help="binary even form and overlattice tools")
    lat_sub = p_lat.add_subparsers(dest="lattice_command", required=True)

    p_red = command(lat_sub, ("lattice", "reduce"), _cmd_lattice_reduce,
                    "Gauss-reduce an even positive definite 2x2 Gram")
    p_red.add_argument("--gram", required=True, help='JSON matrix, e.g. "[[4,2],[2,4]]"')

    p_enum = command(lat_sub, ("lattice", "enumerate"), _cmd_lattice_enumerate,
                     "all reduced classes of a given discriminant")
    p_enum.add_argument("--disc", required=True, type=int)

    p_over = command(lat_sub, ("lattice", "overlattices"), _cmd_lattice_overlattices,
                     "even overlattices of a given index")
    p_over.add_argument("--gram", required=True, help="JSON Gram matrix")
    p_over.add_argument("--index", required=True, type=int)

    p_bc = command(sub, ("basechange",), _cmd_basechange,
                   "quadratic base change of a fibration file")
    p_bc.add_argument("--config", required=True)
    p_bc.add_argument("--branch", required=True)

    return parser


# Built once: parse_args leaves no state behind in the parser.
_LEAVES: dict[tuple[str, ...], argparse.ArgumentParser] = {}
_PARSER = build_parser(_LEAVES)


def _parse(argv: list[str]) -> argparse.Namespace:
    """_PARSER.parse_args(argv).  _PARSER would hand a named command's parser
    the words after the name, so that parser answers alone, errors and help
    included; words it leaves over get _PARSER's error, as they would there."""
    for n in (1, 2):
        leaf = _LEAVES.get(tuple(argv[:n]))
        if leaf is not None:
            args, rest = leaf.parse_known_args(argv[n:])
            if rest:
                _PARSER.error("unrecognized arguments: " + " ".join(rest))
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
