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
_DATE = r"\d{4}-\d{2}-\d{2}"
_STORE_NAME_RE = re.compile(r"[A-Za-z0-9_-]+\Z")
_C0_RE = re.compile(r"[\x00-\x1f]")  # a line break or tab would break a table row
_MAX_DIGITS = len(str(MAX_FIELD_VALUE))
_CSV_RE = re.compile(  # the header, then rows of an id and 1-10 ASCII digits
    rf"{re.escape(CSV_HEADER)}(?:\n[^,\n]+,[0-9]{{1,{_MAX_DIGITS}}})*\n?"
)


def _pattern(template: str, *slots: str) -> str:
    """A layout template's text as a regular expression, its slots filled."""
    return re.escape(template).replace("%d", "%s") % slots


# The store's layout, json.dumps(indent=2) of a profile. serialize_profile fills
# these templates, with "" for a piece left out; parse_profile_json reads the
# layout without json through patterns built from them (compiled by re on use).
_DOCUMENT = '{\n  "name": %s,\n%s  %s\n}\n'  # name, _SNAPSHOT, _PAPERS or _AGGREGATE
_SNAPSHOT = '  "snapshot_date": "%s",\n'
_PAPERS = '"papers": [%s]'  # _PAPER_LIST, or "" without papers
_PAPER_LIST = "%s\n  "  # each _PAPER, joined by ","
_PAPER = '\n    {\n      "id": "p%d",\n      "citations": %d\n    }'
_AGGREGATE = '"aggregate": {\n    "n_papers": %d,\n    "total_citations": %d%s\n  }'
_REPORTED_H = ',\n    "reported_h": %d'
# strings with no escape and no C0 character, ints of at most 10 digits
_TEXT, _INT = r'[^"\\\x00-\x1f]', f"(0|[1-9][0-9]{{0,{_MAX_DIGITS - 1}}})"
_PAPER_RE = _pattern(_PAPER.replace("p%d", "%s"), f"{_TEXT}*", _INT)  # any id
_STORED_RE = _pattern(  # groups: name, snapshot_date, papers, the aggregate's three
    _DOCUMENT,
    f'"({_TEXT}+)"',
    "(?:%s)?" % _pattern(_SNAPSHOT, f"({_DATE})"),
    "(?:%s|%s)" % (
        _pattern(_PAPERS, "(?:%s)?" % _pattern(_PAPER_LIST, r"(\n(?s:.*))")),
        _pattern(_AGGREGATE, _INT, _INT, "(?:%s)?" % _pattern(_REPORTED_H, _INT)),
    ),
) + "?"  # the final newline may be missing


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


def _check_keys(raw: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = raw.keys() - allowed
    if unknown:
        raise ProfileSchemaError(f"unknown {where}: {', '.join(sorted(unknown))}")


def _parse_snapshot_date(raw: object) -> date:
    if not isinstance(raw, str) or not re.fullmatch(_DATE, raw):
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
            _check_count(c, f"papers[{i}].citations", ProfileValueError)  # raises
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
            _check_count(raw[key], f"aggregate.{key}", ProfileValueError)
    return AggregateData._trusted(*map(raw.get, AggregateData.__slots__))


def parse_profile_json(text: str | bytes) -> AuthorProfile:
    """Parse a profile JSON document into an AuthorProfile."""
    decoded = _decode(text, ProfileSchemaError)
    if match := re.fullmatch(_STORED_RE, decoded):
        name, snapshot, papers, n_papers, total, h = match.groups()
        # split at each paper, an array of nothing else is ["", n, ",", ..., n, ""]
        parts = re.split(_PAPER_RE, papers) if papers else [""]
        between = parts[2:-1:2]
        laid_out = parts[0] == parts[-1] == "" and between.count(",") == len(between)
        found = parts[1::2] if n_papers is None else filter(None, (n_papers, total, h))
        counts = tuple(map(int, found))
        if laid_out and max(counts, default=0) <= MAX_FIELD_VALUE:  # else json names it
            _check_name(name)
            if snapshot is not None:
                snapshot = _parse_snapshot_date(snapshot)
            if n_papers is None:
                data = FullData(CitationVector(counts, _checked=True))
            else:  # reported_h is None if absent
                data = AggregateData._trusted(int(n_papers), int(total), h and int(h))
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


def serialize_profile(profile: AuthorProfile) -> str:
    """Inverse of parse_profile_json. Paper ids are synthesized as p1..pN."""
    import json
    if not profile.name:
        raise ProfileValueError("cannot serialize a profile with an empty name")
    snapshot = profile.snapshot_date
    if snapshot is not None and type(snapshot) is not date:  # load reads a date only
        raise ProfileValueError(f"snapshot_date must be a date, got {snapshot!r}")
    snapshot = "" if snapshot is None else _SNAPSHOT % snapshot.isoformat()
    data = profile.data
    if isinstance(data, FullData):
        papers = ",".join(map(_PAPER.__mod__, enumerate(data.vector, start=1)))
        body = _PAPERS % (papers and _PAPER_LIST % papers)
    else:
        h = "" if data.reported_h is None else _REPORTED_H % data.reported_h
        body = _AGGREGATE % (data.n_papers, data.total_citations, h)
    return _DOCUMENT % (json.dumps(profile.name), snapshot, body)


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
