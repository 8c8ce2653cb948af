"""Tests for parsing, the bundled cohorts, and the profile store."""

import json
import os
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibdex import (
    MAX_FIELD_VALUE,
    AggregateData,
    AuthorProfile,
    CitationVector,
    Cohort,
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
from bibdex.profiles import _STORE_NAME_RE, _check_name

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
