"""The three seeded workloads: their inputs, CLI cases and library cycles.

Inputs are written with this module's own writer, never with bibdex's
``serialize_profile``. Every expected output comes from ``oracle``. It is
computed after the timed set-up, which generates the inputs, builds
bibdex's input objects from them and writes the input files.

Counts are heavy-tailed (Pareto). Two tail exponents follow published
bibliometrics; every other shape parameter is an assumption, not fitted to
data, and README.md lists each with its reason:

* citations per paper: P(k) ~ k^-3 (Redner 1998, Eur. Phys. J. B 4, 131),
  so the Pareto exponent of the survival function is 2 (``CITATION_ALPHA``);
* papers per author: Lotka's law, authors with n papers ~ n^-2 (Lotka 1926,
  J. Wash. Acad. Sci. 16, 317), so the exponent is 1 (``PAPERS_ALPHA``).
"""

from __future__ import annotations

import json
import math
import random
import shutil
from dataclasses import dataclass
from datetime import date
from functools import partial
from pathlib import Path
from typing import Callable

from bibdex import AggregateData, AuthorProfile, FullData, metrics, profiles, report

import oracle

EXIT_OK, EXIT_INPUT_ERROR = 0, 1

CITATION_ALPHA = 2.0  # Redner 1998
CITATION_SCALE = 10.0  # assumption: about 10 citations per paper on average
PAPERS_ALPHA = 1.0  # Lotka 1926
PAPERS_SCALE = 4.0  # assumption: a fifth of aggregate authors have no papers
TOTAL_ALPHA = 1.3  # assumption: spreads N_c and HM over a wide range
TOTAL_SCALE = 10.0  # assumption, per paper


@dataclass(frozen=True)
class CliCase:
    """One ``python -m bibdex`` command and what it must produce.

    An error case (``error``) must exit 1 with empty stdout and a
    ``bibdex: error:`` line on stderr.
    """

    argv: tuple[str, ...]
    rc: int
    stdout: str
    fmt: str
    error: bool = False


@dataclass(frozen=True)
class LibOp:
    """One library operation: ``run`` holds only bibdex calls and is timed.

    An operation that ``writes_files`` is scaled by a speed reference that
    writes files too.
    """

    run: Callable[[], object]
    check: Callable[[object], bool]
    items: int
    writes_files: bool = False


def heavy(rng: random.Random, alpha: float, scale: float, cap: int) -> int:
    """Pareto-tailed non-negative integer, at most ``cap``."""
    return min(int(scale * (rng.paretovariate(alpha) - 1)), cap)


def citation_csv(counts) -> str:
    return "paper_id,citations\n" + "".join(
        f"p{i},{c}\n" for i, c in enumerate(counts, start=1)
    )


def profile_json(name: str, counts=None, aggregate=None, snapshot=None) -> str:
    """A profile document in the layout bibdex itself writes (indent 2)."""
    lines = ["{", f'  "name": {json.dumps(name)},']
    if snapshot is not None:
        lines.append(f'  "snapshot_date": "{snapshot.isoformat()}",')
    if counts is None:
        n, t, reported_h = aggregate
        fields = [f'    "n_papers": {n}', f'    "total_citations": {t}']
        if reported_h is not None:
            fields.append(f'    "reported_h": {reported_h}')
        lines.append('  "aggregate": {\n' + ",\n".join(fields) + "\n  }")
    elif counts:
        papers = ",\n".join(
            f'    {{\n      "id": "p{i}",\n      "citations": {c}\n    }}'
            for i, c in enumerate(counts, start=1)
        )
        lines.append('  "papers": [\n' + papers + "\n  ]")
    else:
        lines.append('  "papers": []')
    return "\n".join(lines) + "\n}\n"


def random_aggregate(rng: random.Random, max_papers: int):
    """(n, t, reported_h): n == 0 forces t == 0; h is absent half the time."""
    n = heavy(rng, PAPERS_ALPHA, PAPERS_SCALE, max_papers)
    t = heavy(rng, TOTAL_ALPHA, TOTAL_SCALE * n, oracle.MAX_FIELD_VALUE) if n else 0
    reported_h = None
    if rng.random() < 0.5:
        reported_h = rng.randint(0, min(n, math.isqrt(t)))
    return n, t, reported_h


def random_counts(rng: random.Random, n: int) -> list[int]:
    cap = oracle.MAX_FIELD_VALUE
    return [heavy(rng, CITATION_ALPHA, CITATION_SCALE, cap) for _ in range(n)]


def random_snapshot(rng: random.Random):
    if rng.random() < 0.5:
        return None
    return date.fromordinal(date(2015, 1, 1).toordinal() + rng.randrange(3650))


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


class Workload:
    """Inputs and expectations for one workload.

    ``write_inputs`` generates the seeded inputs, builds bibdex's input
    objects from them and writes the input files: that is the timed set-up.
    ``expect`` then derives the CLI cases and the expected library results
    with ``oracle``, untimed.
    """

    name = ""
    why = ""
    cli_per_iteration = 1

    def __init__(self, size: str):
        self.size = size  # "full", or "tiny" for the smoke check
        self.cli_cases: list[CliCase] = []
        self.sizes: dict = {}

    def write_inputs(self, root: Path, seed: int) -> None:
        raise NotImplementedError

    def expect(self) -> None:
        raise NotImplementedError

    def lib_cycle(self) -> list[LibOp]:
        raise NotImplementedError

    def end_cycle(self) -> None:
        """Undo the cycle's effects, untimed, so every cycle does equal work."""


class BigAuthor(Workload):
    name = "big_author"
    why = (
        "one author with 1e5 papers, citation tail from Redner 1998, as CSV and profile JSON: "
        "parsers and h_index do the work; the 10-citation scale is assumed"
    )
    cli_per_iteration = 2

    def write_inputs(self, root: Path, seed: int) -> None:
        self.n = 100_000 if self.size == "full" else 300
        self.counts = random_counts(random.Random(seed), self.n)
        csv_text, json_text = citation_csv(self.counts), profile_json("big", counts=self.counts)
        self.csv_path, json_path = root / "big.csv", root / "big.json"
        _write(self.csv_path, csv_text)
        _write(json_path, json_text)
        self.csv_bytes, self.json_bytes = csv_text.encode(), json_text.encode()

    def expect(self) -> None:
        self.row = oracle.full_row("big", self.counts)
        self.sizes = {
            "papers": self.n,
            "csv_bytes": len(self.csv_bytes),
            "json_bytes": len(self.json_bytes),
            "h": self.row.h,
        }
        self.cli_cases = [
            CliCase(
                ("compute", "-i", str(self.csv_path), "--format", fmt),
                EXIT_OK,
                oracle.render_compute(self.row, fmt),
                fmt,
            )
            for fmt in ("md", "json")
        ]

    def lib_cycle(self) -> list[LibOp]:
        row = self.row

        def from_csv():
            vector = profiles.parse_citation_csv(self.csv_bytes)
            return metrics.full_report(AuthorProfile("big", FullData(vector)))

        def from_json():
            profile = profiles.parse_profile_json(self.json_bytes)
            return profile, metrics.full_report(profile)

        def json_ok(result):
            profile, rep = result
            return (
                profile.name == "big"
                and profile.snapshot_date is None
                and row.matches_report(rep)
            )

        return [LibOp(from_csv, row.matches_report, self.n), LibOp(from_json, json_ok, self.n)]


class ManyAuthors(Workload):
    name = "many_authors"
    why = (
        "5000 aggregates compared and rendered in-process, 2000 stored ones compared by the CLI: "
        "full_report, exact sort, rendering; Lotka papers, assumed citation totals"
    )
    cli_per_iteration = 3
    LIB_SORTS = ("hm", "h", "name", None)

    def write_inputs(self, root: Path, seed: int) -> None:
        n_lib, n_store = (5_000, 2_000) if self.size == "full" else (60, 30)
        rng = random.Random(seed)
        self.lib_specs = [(f"a{i:05d}", *random_aggregate(rng, 100_000)) for i in range(n_lib)]
        self.profiles = [
            AuthorProfile(name, AggregateData(n, t, h)) for name, n, t, h in self.lib_specs
        ]
        self.store = root / "store"
        self.store.mkdir()
        self.store_specs = []
        for i in range(n_store):
            name = f"s{i:04d}"
            n, t, h = random_aggregate(rng, 100_000)
            _write(
                self.store / f"{name}.json",
                profile_json(name, aggregate=(n, t, h), snapshot=random_snapshot(rng)),
            )
            self.store_specs.append((name, n, t, h))
        rng.shuffle(self.store_specs)  # the order the CLI names them in

    def expect(self) -> None:
        rows = [oracle.aggregate_row(*spec) for spec in self.lib_specs]
        self.expected = {}
        for key in self.LIB_SORTS:
            ordered = oracle.sort_rows(rows, key, False)
            self.expected[key] = (
                ordered,
                oracle.render_md(ordered),
                oracle.render_csv(ordered),
            )

        store_rows = [oracle.aggregate_row(*spec) for spec in self.store_specs]
        names = tuple(r.name for r in store_rows)
        self.cli_cases = []
        for i, (key, desc) in enumerate(
            (key, desc) for desc in (False, True) for key in oracle.SORT_KEYS
        ):
            fmt = oracle.FORMATS[i % 3]
            argv = ("compare", *names, "--store", str(self.store), "--format", fmt)
            argv += (("--sort", key) if key else ()) + (("--desc",) if desc else ())
            expected = oracle.render_table(oracle.sort_rows(store_rows, key, desc), fmt)
            self.cli_cases.append(CliCase(argv, EXIT_OK, expected, fmt))
        self.sizes = {"lib_profiles": len(self.lib_specs), "store_profiles": len(store_rows)}

    def lib_cycle(self) -> list[LibOp]:
        ops = []
        for key in self.LIB_SORTS:
            rows, md, csv = self.expected[key]

            def run(key=key):
                table = report.compare(self.profiles, sort=key)
                return table, report.render_markdown(table), report.render_csv(table)

            def check(result, rows=rows, md=md, csv=csv):
                table, got_md, got_csv = result
                return (
                    got_md == md
                    and got_csv == csv
                    and len(table.rows) == len(rows)
                    and all(
                        r.name == t.name and r.matches_report(t.report)
                        for r, t in zip(rows, table.rows)
                    )
                )

            ops.append(LibOp(run, check, len(self.profiles)))
        return ops


class StoreChurn(Workload):
    name = "store_churn"
    why = (
        "ProfileStore saves, replacements, loads, names() on 1-1000-paper profiles, plus small "
        "CLI commands where start-up dominates; 1 write per 3 reads and the mix are assumed"
    )
    cli_per_iteration = 2

    def write_inputs(self, root: Path, seed: int) -> None:
        # per cycle: every stored profile loaded once, a quarter of them
        # replaced, new profiles saved and names() listed; 1 write per 3 reads
        full = self.size == "full"
        n_names, n_replace, n_new, n_listings = (120, 30, 15, 15) if full else (12, 3, 2, 3)
        rng = random.Random(seed)
        self.root = root

        # two versions of every stored profile, of equal size; version 0 is
        # on disk at the start of each cycle
        names = [f"s{i:03d}" for i in range(n_names)]
        shapes = _store_shapes(rng, n_names)
        self.versions = {
            name: (_spec(rng, *shape), _spec(rng, *shape)) for name, shape in zip(names, shapes)
        }
        self.base_text = {name: _spec_json(name, v[0]) for name, v in self.versions.items()}
        self.cycles = 0
        self._fresh_store()

        # replaced profiles are spread evenly over the size ranking
        by_size = [name for _, name in sorted(zip(shapes, names))]
        step = n_names // n_replace
        replaced = sorted(by_size[rng.randrange(step)::step][:n_replace])
        created = [f"n{i:03d}" for i in range(n_new)]
        new_specs = [_spec(rng, *shape) for shape in _store_shapes(rng, n_new)]

        plan = (
            [("load", name, None) for name in names]
            + [("save", name, self.versions[name][1]) for name in replaced]
            + [("save", name, spec) for name, spec in zip(created, new_specs)]
            + [("names", None, None)] * n_listings
        )
        rng.shuffle(plan)
        # (kind, name, spec saved, the profile object save is given)
        self.plan = [
            (kind, name, spec, _spec_profile(name, spec) if kind == "save" else None)
            for kind, name, spec in plan
        ]
        self._write_cli(root / "cli", rng, by_size)

    def _write_cli(self, root: Path, rng: random.Random, by_size: list[str]) -> None:
        """Write the CLI inputs; ``expect`` computes each case's output.

        The mix of work is the same for every seed: sizes are stratified,
        formats and sort keys rotate, each ``compare`` takes names evenly
        spread over the size ranking, and every malformed command runs.
        """
        root.mkdir()
        # the CLI reads its own copy of the store, which the library never changes
        store = root / "store"
        store.mkdir()
        for name, text in self.base_text.items():
            _write(store / f"{name}.json", text)
        pending = []
        for i, (papers, _) in enumerate(_store_shapes(rng, 10)):
            counts = random_counts(rng, papers)
            path = root / f"c{i}.csv"
            _write(path, citation_csv(counts))
            pending.append(partial(_compute_case, path, counts, oracle.FORMATS[i % 3]))
        for i, count in enumerate((2, 3, 4, 5, 6, 6, 7, 8, 9, 10)):
            step = len(by_size) / count
            offset = rng.random() * step
            names = [by_size[int(offset + j * step)] for j in range(count)]
            rng.shuffle(names)
            specs = [(name, self.versions[name][0]) for name in names]
            key, desc = oracle.SORT_KEYS[i % 7], i % 2 == 1
            pending.append(partial(_compare_case, store, specs, key, desc, oracle.FORMATS[i % 3]))
        for i in range(8):
            n, t, _ = random_aggregate(rng, 1000)
            # even files pass the consistency rules, odd ones break one or both
            h = rng.randint(0, min(n, math.isqrt(t))) if i % 2 == 0 else n + 1 + rng.randrange(5)
            path = root / f"v{i}.json"
            _write(path, profile_json(path.stem, aggregate=(n, t, h)))
            pending.append(partial(_validate_case, path, n, t, h, oracle.FORMATS[i % 3]))
        for i in range(8):
            cohort, fmt = ("researchers", "ctr")[i % 2], oracle.FORMATS[i // 2 % 3]
            pending.append(partial(_demo_case, cohort, fmt))
        pending += [
            partial(_error_case, argv) for argv in _malformed_commands(root, store, by_size[0])
        ]
        rng.shuffle(pending)
        self.pending_cases = pending

    def expect(self) -> None:
        expected = {name: v[0] for name, v in self.versions.items()}
        self.ops = []
        for kind, name, spec, profile in self.plan:
            if kind == "load":
                self.ops.append(("load", name, expected[name]))
            elif kind == "names":
                self.ops.append(("names", None, sorted(expected)))
            else:
                expected[name] = spec
                self.ops.append(("save", name, profile))
        self.cli_cases = [case() for case in self.pending_cases]

        writes = sum(kind == "save" for kind, *_ in self.plan)
        self.sizes = {
            "stored_profiles": len(self.versions),
            "ops_per_cycle": len(self.ops),
            "writes_per_cycle": writes,
            "reads_per_cycle": len(self.ops) - writes,
            "papers_stored": sum(
                len(v[0][1]) for v in self.versions.values() if v[0][0] == "full"
            ),
            "cli_cases": len(self.cli_cases),
        }

    def lib_cycle(self) -> list[LibOp]:
        store = self.store
        ops = []
        for kind, name, arg in self.ops:
            if kind == "save":
                path = self.store_root / f"{name}.json"
                ops.append(LibOp(lambda p=arg: store.save(p), path.__eq__, 1, writes_files=True))
            elif kind == "load":
                ops.append(
                    LibOp(lambda n=name: store.load(n),
                          lambda got, n=name, s=arg: _spec_matches(got, n, s), 1)
                )
            else:
                ops.append(LibOp(lambda: store.names(), arg.__eq__, 1))
        return ops

    def _fresh_store(self) -> None:
        """Write version 0 of every profile into a new store directory.

        A directory that has seen many renames and unlinks slows later
        ones down, so each cycle starts from a fresh one.
        """
        self.store_root = self.root / f"store{self.cycles % 2}"
        if self.store_root.exists():
            shutil.rmtree(self.store_root)
        self.store_root.mkdir()
        for name, text in self.base_text.items():
            _write(self.store_root / f"{name}.json", text)
        self.store = profiles.ProfileStore(self.store_root)

    def end_cycle(self) -> None:
        self.cycles += 1
        self._fresh_store()


# A store profile spec is ("full", counts, snapshot) or
# ("aggregate", (n, t, reported_h), snapshot).


def _store_shapes(rng: random.Random, count: int) -> list[tuple[int, bool]]:
    """(paper count, is aggregate) for ``count`` profiles, in seeded order.

    Paper counts sit at evenly spread quantiles of a Pareto tail of
    exponent 0.3 capped at 1000 papers, and two ranks in every five are
    aggregate-only, so the store's total size barely changes from seed to
    seed. Both are assumptions, not fitted to data: the exponent spreads
    the sizes over 1 to 1000 papers on a log scale, with an eighth at the
    cap, and the aggregate share keeps both kinds of profile common.
    """
    papers = sorted(
        min(int(((i + rng.random()) / count) ** (-1 / 0.3)), 1000) for i in range(count)
    )
    shapes = [(n, rank % 5 in (1, 3)) for rank, n in enumerate(papers)]
    rng.shuffle(shapes)
    return shapes


def _spec(rng: random.Random, papers: int, aggregate: bool):
    snapshot = random_snapshot(rng)
    if aggregate:
        return "aggregate", random_aggregate(rng, 1000), snapshot
    return "full", tuple(random_counts(rng, papers)), snapshot


def _spec_profile(name: str, spec) -> AuthorProfile:
    kind, data, snapshot = spec
    if kind == "full":
        return AuthorProfile(name, FullData(metrics.CitationVector(data)), snapshot)
    return AuthorProfile(name, AggregateData(*data), snapshot)


def _spec_json(name: str, spec) -> str:
    kind, data, snapshot = spec
    if kind == "full":
        return profile_json(name, counts=data, snapshot=snapshot)
    return profile_json(name, aggregate=data, snapshot=snapshot)


def _spec_row(name: str, spec) -> oracle.Row:
    kind, data, _ = spec
    return oracle.full_row(name, data) if kind == "full" else oracle.aggregate_row(name, *data)


def _spec_matches(profile, name: str, spec) -> bool:
    kind, data, snapshot = spec
    if profile.name != name or profile.snapshot_date != snapshot:
        return False
    got = profile.data
    if kind == "full":
        return isinstance(got, FullData) and tuple(got.vector.counts) == data
    return isinstance(got, AggregateData) and (
        got.n_papers, got.total_citations, got.reported_h
    ) == data


def _compute_case(path: Path, counts, fmt: str) -> CliCase:
    row = oracle.full_row(path.stem, counts)
    return CliCase(("compute", "-i", str(path), "--format", fmt), EXIT_OK,
                   oracle.render_compute(row, fmt), fmt)


def _compare_case(store: Path, specs, key, desc: bool, fmt: str) -> CliCase:
    rows = [_spec_row(name, spec) for name, spec in specs]
    argv = ("compare", *(name for name, _ in specs), "--store", str(store), "--format", fmt)
    argv += (("--sort", key) if key else ()) + (("--desc",) if desc else ())
    return CliCase(argv, EXIT_OK, oracle.render_table(oracle.sort_rows(rows, key, desc), fmt), fmt)


def _validate_case(path: Path, n: int, t: int, h: int, fmt: str) -> CliCase:
    rc, out = oracle.render_validate(n, t, h, fmt)
    return CliCase(("validate", "-i", str(path), "--format", fmt), rc, out, fmt)


def _demo_case(cohort: str, fmt: str) -> CliCase:
    return CliCase(("demo", "--cohort", cohort, "--format", fmt), EXIT_OK,
                   oracle.render_table(oracle.cohort_rows(cohort), fmt), fmt)


def _malformed_commands(root: Path, store_root: Path, stored: str):
    """Ordinary bad inputs; each must exit 1 with a ``bibdex: error:`` line."""
    files = {
        "header.csv": "paper,cites\np1,3\n",
        "negative.csv": "paper_id,citations\np1,-3\n",
        "duplicate.csv": "paper_id,citations\np1,3\np1,4\n",
        "broken.json": '{"name": "x", "papers": [',
        "no_h.json": profile_json("no_h", aggregate=(5, 20, None)),
    }
    for file_name, text in files.items():
        _write(root / file_name, text)
    return [
        ("compute", "-i", str(root / "header.csv")),
        ("compute", "-i", str(root / "negative.csv")),
        ("compute", "-i", str(root / "duplicate.csv")),
        ("compute", "-i", str(root / "broken.json")),
        ("validate", "-i", str(root / "no_h.json")),
        ("compare", stored, "missing_profile", "--store", str(store_root)),
        ("demo", "--cohort", "no_such_cohort"),
    ]


def _error_case(argv) -> CliCase:
    return CliCase(tuple(argv), EXIT_INPUT_ERROR, "", "md", error=True)


WORKLOADS = {w.name: w for w in (BigAuthor, ManyAuthors, StoreChurn)}
