"""Tests for parsing, the bundled cohorts, and the profile store."""

import json
import os
import re
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibdex import (
    MAX_FIELD_VALUE,
    AggregateData,
    AuthorProfile,
    CitationVector,
    Cohort,
    CsvError,
    CsvFormatError,
    CsvValueError,
    DuplicatePaperIdError,
    FullData,
    ProfileError,
    ProfileNotFoundError,
    ProfileSchemaError,
    ProfileStore,
    ProfileValueError,
    StoreError,
    UnknownCohortError,
    load_builtin_cohort,
    parse_citation_csv,
    parse_profile_json,
    serialize_profile,
)
from bibdex.profiles import (
    CSV_HEADER,
    _STORE_NAME_RE,
    _check_name,
    _decode,
    _parse_csv_rows,
    _parse_json_text,
)

profile_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-",
    min_size=1,
    max_size=20,
)
counts = st.integers(0, 10**6)


@st.composite
def profiles(draw):
    name = draw(profile_names)
    snapshot = draw(st.none() | st.dates(date(1900, 1, 1), date(2100, 12, 31)))
    if draw(st.booleans()):
        data = FullData(CitationVector(tuple(draw(st.lists(counts, max_size=30)))))
    else:
        n = draw(st.integers(0, 10**6))
        total = draw(counts) if n > 0 else 0
        reported = draw(st.none() | st.integers(0, 10**6))
        data = AggregateData(n, total, reported_h=reported)
    return AuthorProfile(name=name, data=data, snapshot_date=snapshot)


class TestCitationCsv:
    def test_two_rows(self):
        assert parse_citation_csv("paper_id,citations\np1,5\np2,3\n") == CitationVector(
            (5, 3)
        )

    def test_header_only(self):
        assert parse_citation_csv("paper_id,citations\n") == CitationVector(())

    def test_no_trailing_newline(self):
        assert parse_citation_csv("paper_id,citations\np1,7") == CitationVector((7,))

    def test_bytes_input(self):
        assert parse_citation_csv(b"paper_id,citations\np1,5\n") == CitationVector((5,))

    def test_negative_count(self):
        with pytest.raises(CsvValueError) as exc:
            parse_citation_csv("paper_id,citations\np1,-2\n")
        assert exc.value.line == 2

    def test_non_integer_count(self):
        with pytest.raises(CsvValueError) as exc:
            parse_citation_csv("paper_id,citations\np1,5\np2,abc\n")
        assert exc.value.line == 3

    def test_oversized_count(self):
        with pytest.raises(CsvValueError):
            parse_citation_csv(f"paper_id,citations\np1,{2**31}\n")

    @pytest.mark.parametrize(
        "count", ["9" * 4301, "1" + "0" * 5000], ids=["9x4301", "1e5000"]
    )
    def test_count_beyond_int_digit_limit(self, count):
        with pytest.raises(CsvValueError) as exc:
            parse_citation_csv(f"paper_id,citations\np1,{count}\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "count", ["0003", "0" * 5000 + "3"], ids=["0003", "0x5000-3"]
    )
    def test_leading_zeros(self, count):
        assert parse_citation_csv(f"paper_id,citations\np1,{count}\n") == (
            CitationVector((3,))
        )

    def test_missing_header(self):
        with pytest.raises(CsvFormatError) as exc:
            parse_citation_csv("id,cites\np1,5\n")
        assert exc.value.line == 1

    def test_empty_input(self):
        with pytest.raises(CsvFormatError):
            parse_citation_csv("")

    def test_wrong_field_count(self):
        with pytest.raises(CsvFormatError) as exc:
            parse_citation_csv("paper_id,citations\np1,5,9\n")
        assert exc.value.line == 2

    def test_blank_interior_line(self):
        with pytest.raises(CsvFormatError):
            parse_citation_csv("paper_id,citations\n\np1,5\n")

    def test_empty_paper_id(self):
        with pytest.raises(CsvFormatError):
            parse_citation_csv("paper_id,citations\n,5\n")

    def test_duplicate_paper_id(self):
        with pytest.raises(DuplicatePaperIdError) as exc:
            parse_citation_csv("paper_id,citations\np1,5\np1,3\n")
        assert exc.value.line == 3

    def test_crlf_rejected(self):
        with pytest.raises(CsvFormatError):
            parse_citation_csv("paper_id,citations\r\np1,5\r\n")

    def test_crlf_row_after_lf_header(self):
        with pytest.raises(CsvFormatError) as info:
            parse_citation_csv("paper_id,citations\np1,5\r\n")
        assert info.value.line == 2
        assert str(info.value) == "line 2: CRLF line endings are not supported"

    def test_invalid_utf8(self):
        with pytest.raises(CsvFormatError):
            parse_citation_csv(b"\xff\xfe\x00")

    def test_plus_sign_rejected(self):
        with pytest.raises(CsvValueError):
            parse_citation_csv("paper_id,citations\np1,+5\n")

    @given(st.binary(max_size=200) | st.text(max_size=200))
    @settings(max_examples=300)
    def test_total_on_arbitrary_input(self, blob):
        """Any input yields a vector or a ProfileError, never a crash."""
        try:
            result = parse_citation_csv(blob)
        except ProfileError:
            return
        assert isinstance(result, CitationVector)


CSV_MUTATIONS = (
    "crlf", "cr-in-id", "pad-10", "pad-11+", "edge-count", "duplicate-id",
    "empty-id", "blank-line", "unicode-digit",
)


def _insert(draw, text, extra):  # text or bytes
    at = draw(st.integers(0, len(text)))
    return text[:at] + extra + text[at:]


def mutate_csv_rows(draw, rows, name):
    """Apply one named mutation to ``rows`` of (id, count text); None is a
    blank line."""
    if name == "blank-line":
        rows.insert(draw(st.integers(0, len(rows))), None)
        return
    filled = [i for i, row in enumerate(rows) if row is not None]
    if not filled:
        return
    i = draw(st.sampled_from(filled))
    paper_id, count = rows[i]
    if name == "crlf":
        count += "\r"
    elif name == "cr-in-id":
        paper_id = _insert(draw, paper_id, "\r")
    elif name == "pad-10":
        count = count.zfill(10)
    elif name == "pad-11+":
        count = count.zfill(draw(st.integers(11, 30)))
    elif name == "edge-count":
        count = draw(st.sampled_from([str(2**31 - 1), str(2**31), "9999999999"]))
    elif name == "duplicate-id":
        rows.insert(draw(st.integers(0, len(rows))), (paper_id, "1"))
        return
    elif name == "empty-id":
        paper_id = ""
    elif name == "unicode-digit":
        count = _insert(draw, count, draw(st.sampled_from("٣²")))
    rows[i] = (paper_id, count)


@st.composite
def citation_csv_inputs(draw):
    """Well-formed citation CSVs and their mutants, as text or bytes."""
    rows = draw(st.lists(
        st.tuples(st.text("ab1é", min_size=1, max_size=4),
                  st.integers(0, MAX_FIELD_VALUE).map(str)),
        max_size=6,
        unique_by=lambda row: row[0],
    ))
    for name in draw(st.lists(st.sampled_from(CSV_MUTATIONS), max_size=2)):
        mutate_csv_rows(draw, rows, name)
    lines = [CSV_HEADER] + ["" if row is None else ",".join(row) for row in rows]
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))  # final newline or not
    if not draw(st.booleans()):
        return text
    data = text.encode()
    if draw(st.booleans()):  # invalid UTF-8 somewhere
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0"]))
        data = _insert(draw, data, bad)
    return data


def csv_outcome(parse, data):
    try:
        return parse(data)
    except CsvError as exc:
        return type(exc), str(exc), exc.line


def row_loop(data):
    return _parse_csv_rows(_decode(data, CsvFormatError))


class TestCsvBulkPath:
    """parse_citation_csv accepts well-formed input in bulk and leaves every
    other input to the row loop, _parse_csv_rows: both must agree."""

    @given(citation_csv_inputs())
    @example(f"{CSV_HEADER}\na,1\u0663\n")  # int() reads the Arabic-Indic 3
    @example(f"{CSV_HEADER}\na,1\na,2")
    @example(f"{CSV_HEADER}\na,{MAX_FIELD_VALUE + 1}\n".encode())
    @settings(max_examples=500)
    def test_agrees_with_the_row_loop(self, data):
        assert csv_outcome(parse_citation_csv, data) == csv_outcome(row_loop, data)

    @pytest.mark.parametrize(
        "text",
        [CSV_HEADER, CSV_HEADER + "\n", "p1,5\n", "", "\n", CSV_HEADER + "\r\n"],
    )
    def test_agrees_on_headers(self, text):
        for data in (text, text.encode()):
            assert csv_outcome(parse_citation_csv, data) == csv_outcome(row_loop, data)

    def test_well_formed_input_skips_the_row_loop(self, monkeypatch):
        def fail(text):
            raise AssertionError("row loop called")

        monkeypatch.setattr("bibdex.profiles._parse_csv_rows", fail)
        text = f"{CSV_HEADER}\np1,0\né,{MAX_FIELD_VALUE}\nx y,0000000007"
        expected = CitationVector((0, MAX_FIELD_VALUE, 7))
        assert parse_citation_csv(text) == expected
        assert parse_citation_csv(text + "\n") == expected
        assert parse_citation_csv(CSV_HEADER) == CitationVector(())


class TestProfileJson:
    def test_aggregate_with_date(self):
        text = (
            '{"name":"Cabot","snapshot_date":"2020-09-30",'
            '"aggregate":{"n_papers":39,"total_citations":9128,"reported_h":21}}'
        )
        profile = parse_profile_json(text)
        assert profile == AuthorProfile(
            "Cabot", AggregateData(39, 9128, reported_h=21), date(2020, 9, 30)
        )

    def test_minimal_full(self):
        profile = parse_profile_json('{"name":"X","papers":[{"id":"a","citations":0}]}')
        assert profile == AuthorProfile("X", FullData(CitationVector((0,))))

    def test_neither_variant(self):
        with pytest.raises(ProfileSchemaError):
            parse_profile_json('{"name":"Y"}')

    def test_both_variants(self):
        with pytest.raises(ProfileSchemaError):
            parse_profile_json(
                '{"name":"Y","papers":[],"aggregate":{"n_papers":0,"total_citations":0}}'
            )

    def test_missing_name(self):
        with pytest.raises(ProfileSchemaError):
            parse_profile_json('{"papers":[]}')

    def test_empty_name(self):
        with pytest.raises(ProfileSchemaError):
            parse_profile_json('{"name":"","papers":[]}')

    @pytest.mark.parametrize(
        "name", ["Ann\nSmith", "a\tb", "\x00", "x\x1f", " ", "\t", "\u3000 "]
    )
    def test_control_or_blank_name_rejected(self, name):
        text = json.dumps({"name": name, "papers": []})
        with pytest.raises(ProfileValueError, match="name"):
            parse_profile_json(text)

    @pytest.mark.parametrize("name", ["a\\|b", " a ", "\x7f", "Ann Smith"])
    def test_printable_name_accepted(self, name):
        text = json.dumps({"name": name, "papers": []})
        assert parse_profile_json(text).name == name

    def test_not_an_object(self):
        with pytest.raises(ProfileSchemaError):
            parse_profile_json("[1,2,3]")

    def test_invalid_json(self):
        with pytest.raises(ProfileSchemaError):
            parse_profile_json("{not json")

    @pytest.mark.parametrize(
        "text",
        [
            '{"name":"X","papers":[{"id":"a","citations":%s}]}' % ("9" * 4301),
            "[" * 100_000 + "]" * 100_000,
            '{"name":"X","papers":' + "[" * 100_000,
        ],
        ids=["int-beyond-digit-limit", "nested-1e5", "nested-1e5-unclosed"],
    )
    def test_decoder_limits(self, text):
        with pytest.raises(ProfileSchemaError):
            parse_profile_json(text)

    def test_unknown_key(self):
        with pytest.raises(ProfileSchemaError):
            parse_profile_json('{"name":"X","papers":[],"extra":1}')

    def test_negative_citations(self):
        with pytest.raises(ProfileValueError):
            parse_profile_json('{"name":"X","papers":[{"id":"a","citations":-1}]}')

    def test_float_citations(self):
        with pytest.raises(ProfileValueError):
            parse_profile_json('{"name":"X","papers":[{"id":"a","citations":1.5}]}')

    def test_bool_citations(self):
        with pytest.raises(ProfileValueError):
            parse_profile_json('{"name":"X","papers":[{"id":"a","citations":true}]}')

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("true", "papers[2].citations must be an integer, got True"),
            ("-1", "papers[2].citations must be >= 0, got -1"),
            (
                "2147483648",
                "papers[2].citations must be <= 2147483647, got 2147483648",
            ),
            ("1.5", "papers[2].citations must be an integer, got 1.5"),
            ('"7"', "papers[2].citations must be an integer, got '7'"),
        ],
        ids=["bool", "negative", "over-max", "float", "string"],
    )
    def test_bad_citations_message(self, raw, message):
        papers = '{"id":"a","citations":0},{"id":"b","citations":2147483647}'
        text = '{"name":"X","papers":[%s,{"id":"c","citations":%s}]}' % (papers, raw)
        with pytest.raises(ProfileValueError) as info:
            parse_profile_json(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "body, error, message",
        [
            ('"papers":{}', ProfileSchemaError, "'papers' must be an array"),
            ('"papers":[1]', ProfileSchemaError, "papers[0] must be an object"),
            (
                '"papers":[{"id":"a"}]',
                ProfileSchemaError,
                "papers[0] must have exactly the keys 'id' and 'citations'",
            ),
            (
                '"papers":[{"id":"a","citations":1,"x":0}]',
                ProfileSchemaError,
                "papers[0] must have exactly the keys 'id' and 'citations'",
            ),
            (
                '"papers":[{"id":1,"citations":0}]',
                ProfileValueError,
                "papers[0].id must be a string",
            ),
            ('"papers":[],"zz":1,"aa":2', ProfileSchemaError, "unknown keys: aa, zz"),
            ('"aggregate":[]', ProfileSchemaError, "'aggregate' must be an object"),
            (
                '"aggregate":{"zz":1,"n_papers":1,"total_citations":0,"aa":2}',
                ProfileSchemaError,
                "unknown aggregate keys: aa, zz",
            ),
            (
                '"aggregate":{"reported_h":1}',
                ProfileSchemaError,
                "aggregate requires keys: n_papers, total_citations",
            ),
            (
                '"aggregate":{"n_papers":1,"total_citations":0,"reported_h":null}',
                ProfileValueError,
                "aggregate.reported_h must be an integer, got None",
            ),
            (
                '"aggregate":{"n_papers":-1,"total_citations":0,"reported_h":true}',
                ProfileValueError,
                "aggregate.reported_h must be an integer, got True",
            ),
            (
                '"aggregate":{"n_papers":-1,"total_citations":1.5}',
                ProfileValueError,
                "aggregate.n_papers must be >= 0, got -1",
            ),
            (
                '"aggregate":{"n_papers":1,"total_citations":2147483648}',
                ProfileValueError,
                "aggregate.total_citations must be <= 2147483647, got 2147483648",
            ),
        ],
        ids=[
            "papers-not-array",
            "paper-not-object",
            "paper-missing-key",
            "paper-extra-key",
            "paper-id-not-string",
            "unknown-keys",
            "aggregate-not-object",
            "unknown-aggregate-keys",
            "aggregate-missing-keys",
            "reported-h-null",
            "aggregate-bad-reported-h-first",
            "aggregate-bad-n-papers-before-total",
            "aggregate-total-over-max",
        ],
    )
    def test_rejection_message(self, body, error, message):
        with pytest.raises(error) as info:
            parse_profile_json('{"name":"X",%s}' % body)
        assert str(info.value) == message

    def test_negative_aggregate(self):
        with pytest.raises(ProfileValueError):
            parse_profile_json(
                '{"name":"X","aggregate":{"n_papers":-1,"total_citations":0}}'
            )

    def test_missing_aggregate_field(self):
        with pytest.raises(ProfileSchemaError):
            parse_profile_json('{"name":"X","aggregate":{"n_papers":1}}')

    def test_malformed_date(self):
        with pytest.raises(ProfileValueError):
            parse_profile_json('{"name":"X","snapshot_date":"Sept 30","papers":[]}')

    def test_impossible_date(self):
        with pytest.raises(ProfileValueError):
            parse_profile_json('{"name":"X","snapshot_date":"2020-13-45","papers":[]}')

    def test_aggregate_zero_papers_with_citations_parses(self):
        # consistency is checked at report time, not at parse time
        profile = parse_profile_json(
            '{"name":"X","aggregate":{"n_papers":0,"total_citations":5}}'
        )
        assert profile.data == AggregateData(0, 5)

    @given(profiles())
    @settings(max_examples=200)
    def test_round_trip(self, profile):
        """serialize then parse recovers the profile exactly."""
        assert parse_profile_json(serialize_profile(profile)) == profile

    @given(st.binary(max_size=200) | st.text(max_size=200))
    @settings(max_examples=300)
    def test_total_on_arbitrary_input(self, blob):
        try:
            result = parse_profile_json(blob)
        except ProfileError:
            return
        assert isinstance(result, AuthorProfile)


STORED_MUTATIONS = (
    "text", "blank-name", "count", "bad-date", "repeat-key", "reorder-key",
    "unknown-key", "crlf", "ending", "bad-utf8",
)
_KEY_LINE = re.compile(r'( *)"(\w+)": (.*?)(,?)')
BOM = b"\xef\xbb\xbf"  # the UTF-8 byte order mark
STORED_PAPER = (
    '{\n  "name": "a",\n  "snapshot_date": "2020-02-29",\n  "papers": [\n'
    '    {\n      "id": "p1",\n      "citations": %s\n    }\n  ]\n}\n'
)


def mutate_stored(draw, lines, name):
    """Apply one named mutation to the lines of a serialize_profile text."""
    keyed = [(i, m) for i, line in enumerate(lines) if (m := _KEY_LINE.fullmatch(line))]
    ints = [(i, m) for i, m in keyed if m[3][:1].isdigit()]
    if name == "text":  # escapes and raw text in the name or an id
        i, m = draw(st.sampled_from([(i, m) for i, m in keyed if m[2] in ("name", "id")]))
        pieces = ['\\"', "\\\\", "\\u00e9", "\\ud800", "\\t", "é", " ", "\t", "\x7f",
                  "\U0001f600", "\ud800"]
        at = draw(st.integers(m.start(3) + 1, m.end(3) - 1))  # inside the quotes
        lines[i] = lines[i][:at] + draw(st.sampled_from(pieces)) + lines[i][at:]
    elif name == "blank-name":
        blank = draw(st.sampled_from(["", " ", "　", "\\u0020"]))
        lines[1] = f'  "name": "{blank}",'
    elif name == "count" and ints:
        i, m = draw(st.sampled_from(ints))
        value = draw(st.sampled_from([
            str(2**31 - 1), str(2**31), "9999999999", "12345678901", "07", "-1", "1.0",
            "1e2",
        ]))
        lines[i] = f'{m[1]}"{m[2]}": {value}{m[4]}'
    elif name == "bad-date" and lines[2].startswith('  "snapshot_date"'):
        bad = draw(st.sampled_from(["2020-02-30", "2021-13-01", "0000-01-01"]))
        lines[2] = f'  "snapshot_date": "{bad}",'
    elif name in ("repeat-key", "unknown-key"):  # inserted before a key
        i, m = draw(st.sampled_from(keyed))
        value = "3" if m[3][:1].isdigit() else '"q"'
        lines.insert(i, f'{m[1]}"{m[2] if name == "repeat-key" else "x"}": {value},')
    elif name == "reorder-key":  # swap a key with the one-line key after it
        pairs = [
            i for i, m in keyed
            if m[4] and (n := _KEY_LINE.fullmatch(lines[i + 1])) and n[3][-1] not in "[{"
        ]
        if pairs:
            i = draw(st.sampled_from(pairs))
            first, second = lines[i : i + 2]
            if not second.endswith(","):  # the comma stays on the upper line
                first, second = first[:-1], second + ","
            lines[i : i + 2] = [second, first]


@st.composite
def stored_json_inputs(draw):
    """serialize_profile texts of every shape, mutated, as text or bytes."""
    values = st.integers(0, MAX_FIELD_VALUE)
    if draw(st.booleans()):
        data = FullData(CitationVector(tuple(draw(st.lists(values, max_size=4)))))
    else:
        data = AggregateData(draw(values), draw(values), draw(st.none() | values))
    snapshot = draw(st.none() | st.dates(date(1900, 1, 1), date(2100, 12, 31)))
    text = serialize_profile(AuthorProfile(draw(profile_names), data, snapshot))
    lines = text.split("\n")
    names = draw(st.lists(st.sampled_from(STORED_MUTATIONS), max_size=2))
    for name in names:
        mutate_stored(draw, lines, name)
    text = "\n".join(lines)
    if "crlf" in names:
        text = text.replace("\n", "\r\n")
    if "ending" in names:  # trailing space that JSON allows, and that it does not
        text = text[:-1] + draw(st.sampled_from(["", "\n\n", " ", "\t", "\xa0", "\x0b"]))
    if draw(st.booleans()) or "\ud800" in text:  # a lone surrogate stays text
        return text
    data = text.encode()
    if "bad-utf8" in names:
        bad = draw(st.sampled_from([b"\xff", b"\xed\xa0", BOM]))
        data = bad + data if bad == BOM else _insert(draw, data, bad)
    return data


def json_outcome(parse, data):
    try:
        return parse(data)
    except ProfileError as exc:
        return type(exc), str(exc)


def json_path(data):
    return _parse_json_text(_decode(data, ProfileSchemaError))


class TestJsonStoredPath:
    """parse_profile_json reads serialize_profile's layout with regular
    expressions and leaves every other input to the json path,
    _parse_json_text: both must agree."""

    @given(stored_json_inputs())
    @example(STORED_PAPER % "07")
    @example(STORED_PAPER % MAX_FIELD_VALUE)
    @example(STORED_PAPER % (MAX_FIELD_VALUE + 1))
    @example(STORED_PAPER.replace("p1", "p\t1") % 0)
    @example(STORED_PAPER % 0 + "\x0b")  # whitespace to re, not to JSON
    @example(STORED_PAPER.replace("-29", "-30") % 0)
    @example(  # a compact paper between two laid-out ones
        serialize_profile(AuthorProfile("a", FullData(CitationVector((1, 2)))))
        .replace("},", '}, {"id": "q", "citations": 9},')
    )
    @settings(max_examples=500)
    def test_agrees_with_the_json_path(self, data):
        assert json_outcome(parse_profile_json, data) == json_outcome(json_path, data)

    @pytest.mark.parametrize(
        "profile",
        [
            AuthorProfile("e", FullData(CitationVector(()))),
            AuthorProfile("e", FullData(CitationVector(())), date(2020, 2, 29)),
            AuthorProfile("m", FullData(CitationVector((MAX_FIELD_VALUE, 0, 7)))),
            AuthorProfile("a b", AggregateData(0, 0), date(1, 1, 1)),
            AuthorProfile("a", AggregateData(MAX_FIELD_VALUE, 1, reported_h=0)),
            AuthorProfile("Cabot", AggregateData(39, 9128, 21), date(2020, 9, 30)),
        ],
        ids=["no-papers", "no-papers-dated", "papers", "no-reported-h", "max",
             "dated"],
    )
    def test_stored_layout_skips_the_json_path(self, monkeypatch, profile):
        def fail(text):
            raise AssertionError("json path called")

        text = serialize_profile(profile)
        monkeypatch.setattr("bibdex.profiles._parse_json_text", fail)
        assert parse_profile_json(text) == profile
        assert parse_profile_json(text.encode()) == profile
        assert parse_profile_json(text[:-1]) == profile  # no final newline

    def test_empty_and_repeated_ids_load(self):
        """JSON ids are not kept, so unlike CSV ids they may repeat or be empty."""
        expected = AuthorProfile("X", FullData(CitationVector((1, 2, 3))))
        papers = [{"id": i, "citations": c} for i, c in (("a", 1), ("a", 2), ("", 3))]
        compact = json.dumps({"name": "X", "papers": papers})
        stored = serialize_profile(expected).replace('"p1"', '"a"')
        stored = stored.replace('"p2"', '"a"').replace('"p3"', '""')
        for text in (compact, stored):
            assert parse_profile_json(text) == expected == json_path(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"name":"a","name":"b","papers":[]}',
            '{\n  "name": "a",\n  "name": "b",\n  "papers": []\n}\n',
        ],
        ids=["compact", "stored-layout"],
    )
    def test_repeated_key_keeps_its_last_value(self, text):
        assert parse_profile_json(text) == AuthorProfile("b", FullData(CitationVector()))


# any text: quotes, backslashes, C0 controls, astral characters, lone surrogates
any_names = st.text(
    st.sampled_from('"\\\x00\x1f\n\t ') | st.characters(exclude_categories=()),
    min_size=1,
)


@st.composite
def any_profiles(draw):
    snapshot = draw(st.none() | st.dates())
    if draw(st.booleans()):
        vector = draw(st.lists(st.integers(0, MAX_FIELD_VALUE), max_size=12))
        data = FullData(CitationVector(tuple(vector)))
    else:
        n, t = draw(st.integers(0, MAX_FIELD_VALUE)), draw(st.integers(0, MAX_FIELD_VALUE))
        reported = draw(st.none() | st.integers(0, MAX_FIELD_VALUE))
        data = AggregateData(n, t, reported_h=reported)
    return AuthorProfile(draw(any_names), data, snapshot)


def oracle_serialize(profile):
    """The store's file layout as the standard library writes it."""
    obj = {"name": profile.name}
    if profile.snapshot_date is not None:
        obj["snapshot_date"] = profile.snapshot_date.isoformat()
    data = profile.data
    if isinstance(data, FullData):
        obj["papers"] = [
            {"id": f"p{i}", "citations": c} for i, c in enumerate(data.vector, 1)
        ]
    else:
        obj["aggregate"] = {"n_papers": data.n_papers, "total_citations": data.total_citations}
        if data.reported_h is not None:
            obj["aggregate"]["reported_h"] = data.reported_h
    return json.dumps(obj, indent=2) + "\n"


class TestSerializeProfile:
    @given(any_profiles())
    @settings(max_examples=300)
    def test_bytes_match_json_dumps(self, profile):
        assert serialize_profile(profile) == oracle_serialize(profile)

    @given(any_profiles())
    @settings(max_examples=300)
    def test_parses_back_when_the_name_is_accepted(self, profile):
        text = serialize_profile(profile)
        try:
            _check_name(profile.name)
        except ProfileValueError:
            with pytest.raises(ProfileValueError):
                parse_profile_json(text)
        else:
            assert parse_profile_json(text) == profile

    @pytest.mark.parametrize(
        "profile",
        [
            AuthorProfile("e", FullData(CitationVector(()))),
            AuthorProfile("a", AggregateData(0, 0), date(1, 1, 1)),
            AuthorProfile('"\\\ud800\U0001f600', AggregateData(1, 2, reported_h=0)),
            AuthorProfile("m", FullData(CitationVector((MAX_FIELD_VALUE, 0)))),
        ],
        ids=["no-papers", "no-reported-h", "escapes", "max-count"],
    )
    def test_edge_bytes_match_json_dumps(self, profile):
        assert serialize_profile(profile) == oracle_serialize(profile)

    def test_layout(self):
        profile = AuthorProfile("A", AggregateData(3, 9, reported_h=1), date(2020, 9, 30))
        assert serialize_profile(profile) == (
            '{\n  "name": "A",\n  "snapshot_date": "2020-09-30",\n'
            '  "aggregate": {\n    "n_papers": 3,\n    "total_citations": 9,\n'
            '    "reported_h": 1\n  }\n}\n'
        )
        vector = FullData(CitationVector((4,)))
        assert serialize_profile(AuthorProfile("B", vector)) == (
            '{\n  "name": "B",\n  "papers": [\n    {\n      "id": "p1",\n'
            '      "citations": 4\n    }\n  ]\n}\n'
        )
        empty = AuthorProfile("C", FullData(CitationVector(())))
        assert serialize_profile(empty) == '{\n  "name": "C",\n  "papers": []\n}\n'

    def test_empty_name_rejected(self):
        with pytest.raises(ProfileValueError):
            serialize_profile(AuthorProfile("", AggregateData(0, 0)))

    def test_reported_h_omitted_when_absent(self):
        text = serialize_profile(AuthorProfile("A", AggregateData(3, 9)))
        assert "reported_h" not in json.loads(text)["aggregate"]

    def test_papers_carry_synthetic_ids(self):
        text = serialize_profile(AuthorProfile("A", FullData(CitationVector((4, 2)))))
        assert json.loads(text)["papers"] == [
            {"id": "p1", "citations": 4},
            {"id": "p2", "citations": 2},
        ]


class TestBuiltinCohorts:
    def test_researchers_shape(self):
        cohort = load_builtin_cohort("researchers")
        assert [p.name for p in cohort] == [f"Researcher {i}" for i in range(1, 6)]
        third = cohort[2].data
        assert isinstance(third, FullData)
        assert third.vector == CitationVector((100,) * 100)

    def test_researchers_totals(self):
        for profile in load_builtin_cohort(Cohort.RESEARCHERS):
            assert isinstance(profile.data, FullData)
            assert sum(profile.data.vector.counts) == 10000

    def test_ctr_rows(self):
        cohort = load_builtin_cohort("ctr")
        assert [p.name for p in cohort] == ["Germano", "Piomelli", "Moin", "Cabot"]
        assert cohort[1].data == AggregateData(150, 11467, reported_h=39)
        assert all(p.snapshot_date == date(2020, 9, 30) for p in cohort)

    def test_unknown_cohort(self):
        with pytest.raises(UnknownCohortError, match="researchers, ctr"):
            load_builtin_cohort("nobel")


class TestProfileStore:
    def test_round_trip(self, tmp_path):
        store = ProfileStore(tmp_path)
        profile = AuthorProfile(
            "Germano", AggregateData(37, 6235, reported_h=9), date(2020, 9, 30)
        )
        store.save(profile)
        assert store.load("Germano") == profile

    def test_full_profile_round_trip(self, tmp_path):
        store = ProfileStore(tmp_path)
        profile = AuthorProfile("vec", FullData(CitationVector((9, 0, 3))))
        store.save(profile)
        assert store.load("vec") == profile

    def test_last_write_wins(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.save(AuthorProfile("A", AggregateData(1, 1)))
        store.save(AuthorProfile("A", AggregateData(2, 2)))
        assert store.load("A").data == AggregateData(2, 2)

    def test_empty_name_rejected(self, tmp_path):
        with pytest.raises(ProfileValueError):
            ProfileStore(tmp_path).save(AuthorProfile("", AggregateData(0, 0)))

    @pytest.mark.parametrize("name", ["a b", "a/b", "..", "a.json", "ü"])
    def test_unsafe_names_rejected(self, tmp_path, name):
        store = ProfileStore(tmp_path)
        with pytest.raises(ProfileValueError):
            store.save(AuthorProfile(name, AggregateData(0, 0)))
        with pytest.raises(ProfileValueError):
            store.load(name)

    def test_load_missing(self, tmp_path):
        with pytest.raises(ProfileNotFoundError, match="missing"):
            ProfileStore(tmp_path).load("missing")

    def test_load_corrupt_names_file(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"name": "bad"', encoding="utf-8")
        with pytest.raises(ProfileSchemaError, match="bad.json"):
            ProfileStore(tmp_path).load("bad")

    def test_load_rejects_mismatched_name(self, tmp_path):
        path = tmp_path / "Germano.json"
        path.write_text(
            serialize_profile(AuthorProfile("Moin", AggregateData(288, 38042))),
            encoding="utf-8",
        )
        with pytest.raises(ProfileSchemaError) as info:
            ProfileStore(tmp_path).load("Germano")
        message = str(info.value)
        assert str(path) in message
        assert "'Germano'" in message and "'Moin'" in message

    def test_load_of_a_directory_is_a_store_error(self, tmp_path):
        (tmp_path / "D.json").mkdir()
        with pytest.raises(StoreError) as info:
            ProfileStore(tmp_path).load("D")
        path = str(tmp_path / "D.json")
        assert str(info.value).startswith(f"cannot read {path}: ")
        assert isinstance(info.value.__cause__, IsADirectoryError)

    def test_load_truncated_file(self, tmp_path):
        store = ProfileStore(tmp_path)
        path = store.save(AuthorProfile("T", AggregateData(5, 25)))
        path.write_text(path.read_text(encoding="utf-8")[:20], encoding="utf-8")
        with pytest.raises(ProfileSchemaError):
            store.load("T")

    def test_no_temp_leftovers(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.save(AuthorProfile("A", AggregateData(1, 1)))
        assert [p.name for p in tmp_path.iterdir()] == ["A.json"]

    def test_creates_root(self, tmp_path):
        store = ProfileStore(tmp_path / "nested" / "dir")
        store.save(AuthorProfile("A", AggregateData(1, 1)))
        assert store.load("A").name == "A"

    @staticmethod
    def glob_names(root):
        return sorted(p.stem for p in root.glob("*.json") if _STORE_NAME_RE.match(p.stem))

    def test_names_match_glob(self, tmp_path):
        for name in ["b.json", "a-1_Z.json", ".x.123.tmp", ".json", "a.b.json",
                     "A.JSON", "..json", "c.json.tmp", "nojson"]:
            (tmp_path / name).write_text("{}", encoding="utf-8")
        (tmp_path / "x.json").mkdir()
        (tmp_path / "ghost.json").symlink_to(tmp_path / "absent")
        names = ProfileStore(tmp_path).names()
        assert names == ["a-1_Z", "b", "ghost", "x"]
        assert names == self.glob_names(tmp_path)

    def test_names_of_missing_or_file_root(self, tmp_path):
        missing, file_root = tmp_path / "missing", tmp_path / "file.json"
        file_root.write_text("{}", encoding="utf-8")
        for root in (missing, file_root):
            assert ProfileStore(root).names() == [] == self.glob_names(root)

    @pytest.mark.parametrize(
        "error", [OSError("disk full"), KeyboardInterrupt()], ids=["OSError", "interrupt"]
    )
    def test_failed_replace_leaves_old_file(self, tmp_path, monkeypatch, error):
        store = ProfileStore(tmp_path)
        path = store.save(AuthorProfile("A", AggregateData(1, 1)))
        before = path.read_bytes()

        def replace(src, dst):
            raise error

        monkeypatch.setattr(os, "replace", replace)
        raised = StoreError if isinstance(error, OSError) else KeyboardInterrupt
        with pytest.raises(raised) as info:
            store.save(AuthorProfile("A", AggregateData(2, 2)))
        if raised is StoreError:
            assert str(info.value) == f"cannot write {path}: disk full"
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["A.json"]

    def test_names_listing(self, tmp_path):
        store = ProfileStore(tmp_path)
        assert store.names() == []
        store.save(AuthorProfile("b", AggregateData(1, 1)))
        store.save(AuthorProfile("a", AggregateData(1, 1)))
        assert store.names() == ["a", "b"]

    @given(profiles())
    @settings(max_examples=50, deadline=None)
    def test_random_round_trips(self, tmp_path_factory, profile):
        store = ProfileStore(tmp_path_factory.mktemp("store"))
        store.save(profile)
        assert store.load(profile.name) == profile
