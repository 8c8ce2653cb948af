"""Citation data ingestion, bundled cohorts, and the file-backed profile store.

Two input formats are understood:

* citation CSV: header line exactly ``paper_id,citations``, then one
  ``<id>,<count>`` row per paper. No quoting, LF line endings.
* profile JSON: ``{"name": ..., "snapshot_date"?: "YYYY-MM-DD",
  "papers": [{"id", "citations"}, ...]}`` or the same with an
  ``"aggregate": {"n_papers", "total_citations", "reported_h"?}`` object
  instead of ``"papers"``. Exactly one of the two variants must appear.

Parsers never crash on arbitrary byte input: anything malformed raises a
ProfileError subclass. The store keeps one JSON file per profile under a
root directory and writes atomically (temp file, then rename), so
concurrent readers never see a torn file and the last writer wins.
"""

import os
import re
from datetime import date
from enum import Enum
from pathlib import Path

from .metrics import (
    MAX_FIELD_VALUE,
    AggregateData,
    AuthorProfile,
    CitationVector,
    FullData,
    _check_count,
)

__all__ = [
    "Cohort",
    "CsvError",
    "CsvFormatError",
    "CsvValueError",
    "DuplicatePaperIdError",
    "ProfileError",
    "ProfileNotFoundError",
    "ProfileSchemaError",
    "ProfileStore",
    "ProfileValueError",
    "StoreError",
    "UnknownCohortError",
    "load_builtin_cohort",
    "parse_citation_csv",
    "parse_profile_json",
    "serialize_profile",
]

CSV_HEADER = "paper_id,citations"

_PROFILE_KEYS = ("name", "snapshot_date", "papers", "aggregate")
_PAPER_KEYS = {"id", "citations"}
_AGGREGATE_KEYS = ("reported_h", "n_papers", "total_citations")  # in check order
_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}\Z")
_STORE_NAME_RE = re.compile(r"[A-Za-z0-9_-]+\Z")
_C0_RE = re.compile(r"[\x00-\x1f]")  # a line break or tab would break a table row
_MAX_DIGITS = len(str(MAX_FIELD_VALUE))
_CSV_RE = re.compile(  # the header, then rows of an id and 1-10 ASCII digits
    rf"{re.escape(CSV_HEADER)}(?:\n[^,\n]+,[0-9]{{1,{_MAX_DIGITS}}})*\n?"
)
# serialize_profile's layout, read without json (compiled on first use, by re):
# strings with no escape and no C0 character, ints of at most 10 digits
_TEXT, _INT = r'[^"\\\x00-\x1f]', f"0|[1-9][0-9]{{0,{_MAX_DIGITS - 1}}}"
_PAPER = rf'\n    \{{\n      "id": "{_TEXT}*",\n      "citations": ({_INT})\n    \}}'
_STORED_LAYOUT = (  # groups: name, snapshot_date, papers, then the aggregate's three
    rf'\{{\n  "name": "({_TEXT}+)",\n'
    rf'(?:  "snapshot_date": "([0-9]{{4}}-[0-9]{{2}}-[0-9]{{2}})",\n)?'
    rf'  (?:"papers": \[(?:(\n(?s:.*))\n  )?\]'  # split at _PAPER below
    rf'|"aggregate": \{{\n    "n_papers": ({_INT}),\n    "total_citations": ({_INT})'
    rf'(?:,\n    "reported_h": ({_INT}))?\n  \}})\n\}}\n?'
)


class ProfileError(Exception):
    """Base for every ingestion and store failure."""


class CsvError(ProfileError):
    """Citation CSV rejected; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class CsvFormatError(CsvError):
    """Bad header or malformed row structure."""


class CsvValueError(CsvError):
    """Citation count is not a non-negative decimal integer."""


class DuplicatePaperIdError(CsvError):
    """The same paper_id appears twice."""


class ProfileSchemaError(ProfileError):
    """Profile JSON does not have the required shape."""


class ProfileValueError(ProfileError):
    """Profile JSON has the right shape but an out-of-range or bad value."""


class UnknownCohortError(ProfileError):
    """Requested cohort id is not bundled."""


class ProfileNotFoundError(ProfileError):
    """No stored profile under that name."""


class StoreError(ProfileError):
    """Filesystem failure while reading or writing the store."""


class Cohort(Enum):
    """Bundled demo cohorts."""

    RESEARCHERS = "researchers"
    CTR = "ctr"


# Five synthetic careers with equal total citations: (n_papers, per-paper count).
# Stored as uniform vectors so h is computed rather than asserted.
_RESEARCHERS = ((1, 10000), (10, 1000), (100, 100), (1000, 10), (10000, 1))

# Scopus aggregates for four turbulence researchers, observed 2020-09-30:
# (name, n_papers, total_citations, reported h). The h values come from
# Scopus and cannot be recomputed from the totals.
_CTR = (
    ("Germano", 37, 6235, 9),
    ("Piomelli", 150, 11467, 39),
    ("Moin", 288, 38042, 86),
    ("Cabot", 39, 9128, 21),
)
_CTR_SNAPSHOT = date(2020, 9, 30)


def _decode(text: str | bytes, error: type[ProfileError]) -> str:
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"input is not valid UTF-8: {exc}") from exc
    return text


def parse_citation_csv(text: str | bytes) -> CitationVector:
    """Parse a citation CSV into a vector, one count per data row."""
    decoded = _decode(text, CsvFormatError)
    if _CSV_RE.fullmatch(decoded):
        ids = decoded.replace("\n", ",").split(",")
        del ids[:2]  # the header
        if len(ids) % 2:
            ids.pop()  # the empty field after the final newline
        counts = tuple(map(int, ids[1::2]))
        del ids[1::2]  # only the ids are left; frees the count texts early
        if len(set(ids)) == len(ids) and max(counts, default=0) <= MAX_FIELD_VALUE:
            return CitationVector(counts, _checked=True)
        del ids, counts  # the row loop finds the fault without them
    return _parse_csv_rows(decoded)  # any other input, well-formed or not


def _parse_csv_rows(text: str) -> CitationVector:
    """The row loop: every CSV error but a decoding one is raised here, with
    its line. parse_citation_csv's bulk path only ever accepts."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        got = lines[0] if lines else ""
        hint = " (CRLF line endings are not supported)" if got.endswith("\r") else ""
        message = f"expected header {CSV_HEADER!r}, got {got!r}{hint}"
        raise CsvFormatError(message, line=1)
    counts: list[int] = []
    seen: set[str] = set()
    for lineno, row in enumerate(lines[1:], start=2):
        if row.endswith("\r"):
            raise CsvFormatError("CRLF line endings are not supported", line=lineno)
        parts = row.split(",")
        if len(parts) != 2:
            raise CsvFormatError(
                f"expected '<paper_id>,<citations>', got {row!r}", line=lineno
            )
        paper_id, raw_count = parts
        if not paper_id:
            raise CsvFormatError("empty paper_id", line=lineno)
        if paper_id in seen:
            raise DuplicatePaperIdError(f"duplicate paper_id {paper_id!r}", line=lineno)
        seen.add(paper_id)
        if not (raw_count.isascii() and raw_count.isdigit()):
            raise CsvValueError(
                f"citations must be a non-negative decimal integer, got {raw_count!r}",
                line=lineno,
            )
        if len(raw_count) > _MAX_DIGITS:  # zero-padded? int() refuses 4,301+ digits
            raw_count = raw_count.lstrip("0") or "0"
        if len(raw_count) > _MAX_DIGITS or (count := int(raw_count)) > MAX_FIELD_VALUE:
            raise CsvValueError(
                f"citations must be <= {MAX_FIELD_VALUE}, got {raw_count}", line=lineno
            )
        counts.append(count)
    return CitationVector(tuple(counts), _checked=True)


def _check_name(name: str) -> str:
    """An author name that every table renders on one line, in visible cells."""
    if _C0_RE.search(name) or name.isspace():
        raise ProfileValueError(
            f"name has a control character or is all whitespace: {name!r}"
        )
    try:
        name.encode()  # fails exactly on surrogates, U+D800-U+DFFF
    except UnicodeEncodeError:
        raise ProfileValueError(f"name is not valid Unicode text: {name!r}") from None
    return name


def _require_int(value: object, label: str) -> int:
    try:
        return _check_count(value, label)
    except ValueError as exc:
        raise ProfileValueError(str(exc)) from None


def _check_keys(raw: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = raw.keys() - allowed
    if unknown:
        raise ProfileSchemaError(f"unknown {where}: {', '.join(sorted(unknown))}")


def _parse_snapshot_date(raw: object) -> date:
    if not isinstance(raw, str) or not _DATE_RE.match(raw):
        raise ProfileValueError(
            f"snapshot_date must be a 'YYYY-MM-DD' string, got {raw!r}"
        )
    try:
        return date.fromisoformat(raw)
    except ValueError as exc:
        raise ProfileValueError(f"malformed snapshot_date {raw!r}: {exc}") from exc


def _parse_papers(raw: object) -> FullData:
    if not isinstance(raw, list):
        raise ProfileSchemaError("'papers' must be an array")
    counts: list[int] = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ProfileSchemaError(f"papers[{i}] must be an object")
        if entry.keys() != _PAPER_KEYS:
            raise ProfileSchemaError(
                f"papers[{i}] must have exactly the keys 'id' and 'citations'"
            )
        if not isinstance(entry["id"], str):
            raise ProfileValueError(f"papers[{i}].id must be a string")
        if not (type(c := entry["citations"]) is int and 0 <= c <= MAX_FIELD_VALUE):
            _require_int(c, f"papers[{i}].citations")  # raises, naming the paper
        counts.append(c)
    return FullData(CitationVector(tuple(counts), _checked=True))


def _parse_aggregate(raw: object) -> AggregateData:
    if not isinstance(raw, dict):
        raise ProfileSchemaError("'aggregate' must be an object")
    _check_keys(raw, _AGGREGATE_KEYS, "aggregate keys")
    missing = {"n_papers", "total_citations"} - raw.keys()
    if missing:
        keys = ", ".join(sorted(missing))
        raise ProfileSchemaError(f"aggregate requires keys: {keys}")
    for key in _AGGREGATE_KEYS:  # so the record below need not check them again
        if key in raw:
            _require_int(raw[key], f"aggregate.{key}")
    return AggregateData._trusted(*map(raw.get, AggregateData.__slots__))


def parse_profile_json(text: str | bytes) -> AuthorProfile:
    """Parse a profile JSON document into an AuthorProfile."""
    decoded = _decode(text, ProfileSchemaError)
    if match := re.fullmatch(_STORED_LAYOUT, decoded):
        name, snapshot, papers, *totals = match.groups()
        # split at each paper, an array of nothing else is ["", n, ",", ..., n, ""]
        parts = re.split(_PAPER, papers) if papers else [""]
        between = parts[2:-1:2]
        laid_out = parts[0] == parts[-1] == "" and between.count(",") == len(between)
        found = parts[1::2] if totals[0] is None else filter(None, totals)
        counts = tuple(map(int, found))
        if laid_out and max(counts, default=0) <= MAX_FIELD_VALUE:  # else json names it
            _check_name(name)
            if snapshot is not None:
                snapshot = _parse_snapshot_date(snapshot)
            if totals[0] is None:
                data = FullData(CitationVector(counts, _checked=True))
            else:  # None is reported_h if absent; _trusted ignores a fourth value
                data = AggregateData._trusted(*counts, None)
            return AuthorProfile(name=name, data=data, snapshot_date=snapshot)
    return _parse_json_text(decoded)  # any other input, well-formed or not


def _parse_json_text(text: str) -> AuthorProfile:
    """The json path: every profile JSON error but a decoding one comes from
    here, or from the name and snapshot_date checks that it shares."""
    import json
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long ints, deep nesting
        raise ProfileSchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProfileSchemaError("profile must be a JSON object")
    _check_keys(obj, _PROFILE_KEYS, "keys")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise ProfileSchemaError("'name' is required and must be a non-empty string")
    _check_name(name)
    snapshot = None
    if "snapshot_date" in obj:
        snapshot = _parse_snapshot_date(obj["snapshot_date"])
    has_papers = "papers" in obj
    if has_papers == ("aggregate" in obj):
        raise ProfileSchemaError(
            "exactly one of 'papers' or 'aggregate' must be present"
        )
    data = _parse_papers(obj["papers"]) if has_papers else _parse_aggregate(
        obj["aggregate"]
    )
    return AuthorProfile(name=name, data=data, snapshot_date=snapshot)


def _indented(items: list[str], level: int, brackets: str = "[]") -> str:
    """JSON texts laid out as ``json.dumps(indent=2)`` lays out a container
    nested ``level`` deep; with ``"{}"`` each item is ``'"key": value'``."""
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{'  ' * level}{brackets[1]}"


def serialize_profile(profile: AuthorProfile) -> str:
    """Inverse of parse_profile_json. Paper ids are synthesized as p1..pN."""
    import json
    if not profile.name:
        raise ProfileValueError("cannot serialize a profile with an empty name")
    fields = [f'"name": {json.dumps(profile.name)}']
    if profile.snapshot_date is not None:
        fields.append(f'"snapshot_date": "{profile.snapshot_date.isoformat()}"')
    data = profile.data
    if isinstance(data, FullData):
        paper = _indented(['"id": "p%d"', '"citations": %d'], 2, "{}")
        papers = [paper % pair for pair in enumerate(data.vector, start=1)]
        fields.append(f'"papers": {_indented(papers, 1)}')
    else:
        aggregate = [
            f'"n_papers": {data.n_papers:d}',
            f'"total_citations": {data.total_citations:d}',
        ]
        if data.reported_h is not None:
            aggregate.append(f'"reported_h": {data.reported_h:d}')
        fields.append(f'"aggregate": {_indented(aggregate, 1, "{}")}')
    return _indented(fields, 0, "{}") + "\n"


def load_builtin_cohort(cohort: Cohort | str) -> list[AuthorProfile]:
    """Return the profiles of a bundled cohort, in their table order."""
    if isinstance(cohort, str):
        try:
            cohort = Cohort(cohort)
        except ValueError:
            valid = ", ".join(c.value for c in Cohort)
            raise UnknownCohortError(
                f"unknown cohort {cohort!r}; valid cohorts: {valid}"
            ) from None
    if cohort is Cohort.RESEARCHERS:
        return [
            AuthorProfile(f"Researcher {i}", FullData(CitationVector((count,) * n)))
            for i, (n, count) in enumerate(_RESEARCHERS, start=1)
        ]
    return [
        AuthorProfile(name, AggregateData(n, total, h), _CTR_SNAPSHOT)
        for name, n, total, h in _CTR
    ]


class ProfileStore:
    """One JSON file per profile at ``<root>/<name>.json``.

    Names are restricted to ``[A-Za-z0-9_-]+`` so they map safely onto
    file names. Writes go through a temp file plus atomic rename.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _file(self, name: str) -> str:
        if not _STORE_NAME_RE.match(name):
            raise ProfileValueError(
                f"store names must match [A-Za-z0-9_-]+, got {name!r}"
            )
        root = str(self.root)  # as ``self.root / ...`` does, drop a bare "." root
        return os.path.join("" if root == "." else root, f"{name}.json")

    def path_for(self, name: str) -> Path:
        return Path(self._file(name))

    def save(self, profile: AuthorProfile) -> Path:
        """Write the profile atomically; an existing one is replaced."""
        import tempfile
        path = self.path_for(profile.name)
        text = serialize_profile(profile)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.root, prefix=f".{profile.name}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            raise StoreError(f"cannot write {path}: {exc}") from exc
        return path

    def load(self, name: str) -> AuthorProfile:
        """Read a stored profile back; its file must hold a profile of that name."""
        path = self._file(name)
        try:
            with open(path, "rb", buffering=0) as handle:
                raw = handle.readall()
        except FileNotFoundError:
            raise ProfileNotFoundError(
                f"no stored profile named {name!r} in {self.root}"
            ) from None
        except OSError as exc:
            raise StoreError(f"cannot read {path}: {exc}") from exc
        try:
            profile = parse_profile_json(raw)
        except ProfileError as exc:
            raise ProfileSchemaError(f"corrupt profile file {path}: {exc}") from exc
        if profile.name != name:
            raise ProfileSchemaError(
                f"profile file {path} holds {profile.name!r}, not {name!r}"
            )
        return profile

    def names(self) -> list[str]:
        """Names of every stored profile, sorted."""
        try:
            entries = os.listdir(self.root)
        except OSError:  # missing, not a directory, or unreadable
            return []
        stems = (entry[:-5] for entry in entries if entry.endswith(".json"))
        return sorted(filter(_STORE_NAME_RE.match, stems))
