"""Command line interface.

Usage:
    bibdex compute -i citations.csv
    bibdex compute -i profile.json --format json
    bibdex compare Germano profiles/piomelli.json moin.csv --sort hm --desc
    bibdex demo --cohort researchers
    bibdex validate -i profile.json

Every input is a file when it ends in .json or .csv, contains a path
separator, or comes with --kind; anything else is a stored profile name.

Exit codes: 0 success, 1 input or parse error, 2 validation failure.
Payload goes to stdout, every diagnostic to stderr.
"""

import argparse
import os
import sys
from pathlib import Path

from . import report as tables
from .metrics import AggregateData, AuthorProfile, FullData, consistency_check
from .profiles import (
    Cohort,
    ProfileError,
    ProfileStore,
    ProfileValueError,
    _check_name,
    load_builtin_cohort,
    parse_citation_csv,
    parse_profile_json,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VALIDATION_FAILED = 2

STORE_ENV_VAR = "BIBDEX_STORE"
DEFAULT_STORE = "./profiles"
FORMATS = ("md", "csv", "json")
FILE_SUFFIXES = (".json", ".csv")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the exit-code contract
    # reserves 2 for validation failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


_RENDERERS = {"md": "render_markdown", "csv": "render_csv", "json": "render_json"}


def _emit_table(table: tables.ComparisonTable, fmt: str) -> None:
    # looked up per call: the traced benchmark run swaps the renderers' attributes
    sys.stdout.write(getattr(tables, _RENDERERS[fmt])(table))


def _store(args: argparse.Namespace) -> ProfileStore:
    return ProfileStore(args.store or os.environ.get(STORE_ENV_VAR) or DEFAULT_STORE)


def _resolve(raw: str, store: ProfileStore, kind: str | None = None) -> AuthorProfile:
    """Load one input, a file or a stored profile, by the module docstring's rule.

    A file's kind is ``kind`` if given, else json for an argument ending in
    .json and csv for anything else.
    """
    if kind is None:
        if not raw.lower().endswith(FILE_SUFFIXES) and os.sep not in raw:
            return store.load(raw)
        kind = "json" if raw.lower().endswith(".json") else "csv"
    path = Path(raw)
    data = path.read_bytes()
    if kind == "json":
        return parse_profile_json(data)
    # a bare citation list has no author name; the file name stands in
    return AuthorProfile(
        name=_check_name(path.stem), data=FullData(parse_citation_csv(data))
    )


def cmd_compute(args: argparse.Namespace) -> int:
    profile = _resolve(args.input, _store(args), args.kind)
    table = tables.compare([profile])
    if args.format == "json":
        # one author: its row alone, without the table around it
        print(tables.json_rows(table)[0])
    else:
        _emit_table(table, args.format)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    store = _store(args)
    resolved: list[AuthorProfile] = []
    failures: list[str] = []
    for raw in args.inputs:
        try:
            resolved.append(_resolve(raw, store))
        except (ProfileError, OSError) as exc:
            failures.append(f"{raw}: {exc}")
    if failures:
        for failure in failures:
            print(f"bibdex: error: {failure}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    table = tables.compare(resolved, sort=args.sort, descending=args.desc)
    _emit_table(table, args.format)
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    profiles = load_builtin_cohort(args.cohort)
    _emit_table(tables.compare(profiles), args.format)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    profile = _resolve(args.input, _store(args))
    data = profile.data
    if not isinstance(data, AggregateData) or data.reported_h is None:
        raise ProfileValueError(
            f"profile {profile.name!r} carries no reported h; nothing to validate"
        )
    result = consistency_check(data.n_papers, data.total_citations, data.reported_h)
    if args.format == "json":
        import json
        violations = [{"rule": v.rule, "message": v.message} for v in result.violations]
        print(json.dumps({"passed": result.passed, "violations": violations}, indent=2))
    elif result.passed:
        print(
            f"pass: h={data.reported_h} is consistent with "
            f"{data.n_papers} papers and {data.total_citations} citations"
        )
    else:
        print(f"fail: {len(result.violations)} violation(s)")
        for violation in result.violations:
            print(f"  {violation.rule}: {violation.message}")
    return EXIT_OK if result.passed else EXIT_VALIDATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bibdex",
        description=(
            "Citation metrics: the Hirsch h-index and the HM index, the half "
            "harmonic mean of paper count and citations per paper."
        ),
    )
    # only compare has --store; the other commands find stored names
    # through the environment variable or the default directory
    parser.set_defaults(store=None)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    compute = sub.add_parser(
        "compute", help="report for a single citation CSV or profile JSON"
    )
    compute.add_argument("-i", "--input", required=True, help="file or store name")
    compute.add_argument(
        "--kind",
        choices=("csv", "json"),
        help="input kind (default: by file extension)",
    )
    compute.add_argument("--format", choices=FORMATS, default="md")
    compute.set_defaults(handler=cmd_compute)

    compare = sub.add_parser("compare", help="tabulate several profiles side by side")
    compare.add_argument(
        "inputs",
        nargs="+",
        metavar="PROFILE",
        help="stored profile name, or profile JSON or citation CSV path",
    )
    compare.add_argument("--sort", choices=tables.COLUMNS, help="sort column")
    compare.add_argument("--desc", action="store_true", help="sort descending")
    compare.add_argument("--format", choices=FORMATS, default="md")
    compare.add_argument(
        "--store",
        help=f"profile store directory (default {DEFAULT_STORE}, env {STORE_ENV_VAR})",
    )
    compare.set_defaults(handler=cmd_compare)

    demo = sub.add_parser("demo", help="render a bundled demo cohort")
    # cohort is validated by hand so a bad id exits 1, not argparse's 2
    demo.add_argument(
        "--cohort", required=True, help=f"one of: {', '.join(c.value for c in Cohort)}"
    )
    demo.add_argument("--format", choices=FORMATS, default="md")
    demo.set_defaults(handler=cmd_demo)

    validate = sub.add_parser(
        "validate", help="check a reported h against the aggregate counts"
    )
    validate.add_argument(
        "-i", "--input", required=True, help="profile JSON path or store name"
    )
    validate.add_argument("--format", choices=FORMATS, default="md")
    validate.set_defaults(handler=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ProfileError, ValueError, OSError) as exc:
        print(f"bibdex: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
