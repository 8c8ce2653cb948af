"""The public record types: immutable values compared, hashed and printed by field."""

import copy
import math
import pickle
from datetime import date
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bibdex import (
    AggregateData,
    AuthorProfile,
    CitationVector,
    ComparisonTable,
    FullData,
    HSource,
    MAX_FIELD_VALUE,
    IndexReport,
    TableRow,
    ValidationResult,
    Violation,
    citations_per_paper,
    full_report,
    h_index,
    hm_index,
    hm_index_from_totals,
    round_display,
    total_citations,
    truncate_display,
)

PIOMELLI = full_report(AuthorProfile("Piomelli", AggregateData(150, 11467, 39)))
PIOMELLI_REPR = (
    "IndexReport(n_papers=150, total_citations=11467, "
    "citations_per_paper=Fraction(11467, 150), citations_per_paper_display=76, "
    "h=39, h_source=<HSource.REPORTED: 'reported'>, "
    "hm_exact=Fraction(1720050, 33967), hm_display=51)"
)
ROW = TableRow("Piomelli", PIOMELLI)
# IndexReport's constructor arguments, in order
REPORT_FIELDS = (
    "n_papers", "total_citations", "citations_per_paper",
    "citations_per_paper_display", "h", "h_source", "hm_exact", "hm_display",
)
SNAP = date(2020, 9, 30)

# (type, keyword arguments in field order, a different value, its repr)
RECORDS = [
    (
        CitationVector,
        {"counts": (3, 1)},
        {"counts": (1, 3)},
        "CitationVector(counts=(3, 1))",
    ),
    (
        FullData,
        {"vector": CitationVector((0,))},
        {"vector": CitationVector()},
        "FullData(vector=CitationVector(counts=(0,)))",
    ),
    (
        AggregateData,
        {"n_papers": 37, "total_citations": 6235, "reported_h": 9},
        {"n_papers": 37, "total_citations": 6235, "reported_h": None},
        "AggregateData(n_papers=37, total_citations=6235, reported_h=9)",
    ),
    (
        AuthorProfile,
        {"name": "X", "data": FullData(CitationVector((0,))), "snapshot_date": None},
        {"name": "X", "data": FullData(CitationVector((0,))), "snapshot_date": SNAP},
        "AuthorProfile(name='X', data=FullData(vector=CitationVector(counts=(0,))), "
        "snapshot_date=None)",
    ),
    (
        IndexReport,
        {
            "n_papers": 150,
            "total_citations": 11467,
            "citations_per_paper": PIOMELLI.citations_per_paper,
            "citations_per_paper_display": 76,
            "h": 39,
            "h_source": HSource.REPORTED,
            "hm_exact": PIOMELLI.hm_exact,
            "hm_display": 51,
        },
        {
            "n_papers": 150,
            "total_citations": 11467,
            "citations_per_paper": PIOMELLI.citations_per_paper,
            "citations_per_paper_display": 76,
            "h": None,
            "h_source": None,
            "hm_exact": PIOMELLI.hm_exact,
            "hm_display": 51,
        },
        PIOMELLI_REPR,
    ),
    (
        Violation,
        {"rule": "r", "message": "m"},
        {"rule": "r", "message": "n"},
        "Violation(rule='r', message='m')",
    ),
    (
        ValidationResult,
        {"passed": False, "violations": (Violation("r", "m"),)},
        {"passed": True, "violations": ()},
        "ValidationResult(passed=False, "
        "violations=(Violation(rule='r', message='m'),))",
    ),
    (
        TableRow,
        {"name": "Piomelli", "report": PIOMELLI},
        {"name": "Moin", "report": PIOMELLI},
        f"TableRow(name='Piomelli', report={PIOMELLI_REPR})",
    ),
    (
        ComparisonTable,
        {"columns": ("name", "hm"), "rows": (ROW,)},
        {"columns": ("name", "hm"), "rows": ()},
        f"ComparisonTable(columns=('name', 'hm'), rows=(TableRow(name='Piomelli', "
        f"report={PIOMELLI_REPR}),))",
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, kwargs, other, text", RECORDS, ids=IDS)
class TestRecord:
    def test_equal_by_value_with_equal_hashes(self, cls, kwargs, other, text):
        a, b = cls(**kwargs), cls(*kwargs.values())
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != cls(**other)

    def test_equal_only_within_its_class(self, cls, kwargs, other, text):
        sub = type("Sub", (cls,), {"__slots__": ()})
        assert cls(**kwargs) != sub(**kwargs)
        assert cls(**kwargs) != tuple(kwargs.values())

    def test_repr_is_the_dataclass_form(self, cls, kwargs, other, text):
        assert repr(cls(**kwargs)) == text

    def test_fields_cannot_be_assigned_or_deleted(self, cls, kwargs, other, text):
        record = cls(**kwargs)
        field = next(iter(kwargs))
        with pytest.raises(AttributeError):
            setattr(record, field, other[field])
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) == kwargs[field]

    def test_unknown_argument_is_a_type_error(self, cls, kwargs, other, text):
        with pytest.raises(TypeError):
            cls(**kwargs, bogus=1)
        with pytest.raises(TypeError):
            cls(*kwargs.values(), None)

    def test_copy_and_pickle_keep_the_value(self, cls, kwargs, other, text):
        record = cls(**kwargs)
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize(
    "cls",
    [cls for cls, *_ in RECORDS if cls is not CitationVector],
)
def test_missing_argument_is_a_type_error(cls):
    with pytest.raises(TypeError):
        cls()


def test_defaults():
    assert CitationVector().counts == ()
    assert AggregateData(3, 9).reported_h is None
    assert AuthorProfile("A", AggregateData(0, 0)).snapshot_date is None
    assert ValidationResult(True).violations == ()


def test_checked_vector_skips_the_range_check():
    assert CitationVector((-1,), _checked=True).counts == (-1,)
    with pytest.raises(ValueError, match="citation count"):
        CitationVector((-1,))
    with pytest.raises(ValueError, match="citation count"):
        CitationVector((-1,), _checked=False)


def test_vector_counts_become_a_tuple():
    vector = CitationVector([2, 1])
    assert vector.counts == (2, 1)
    assert vector == CitationVector((2, 1))


@pytest.mark.parametrize(
    "h, source", [(39, None), (None, HSource.REPORTED)], ids=["no-source", "no-h"]
)
def test_report_h_and_source_come_together(h, source):
    fields = {f: getattr(PIOMELLI, f) for f in REPORT_FIELDS}
    fields.update(h=h, h_source=source)
    with pytest.raises(ValueError) as info:
        IndexReport(**fields)
    assert str(info.value) == "h and h_source must be both present or both absent"


@pytest.mark.parametrize(
    "passed, violations",
    [(True, (Violation("r", "m"),)), (False, ())],
    ids=["passed-with-violation", "failed-without"],
)
def test_result_passes_exactly_without_violations(passed, violations):
    with pytest.raises(ValueError) as info:
        ValidationResult(passed, violations)
    assert str(info.value) == "passed must mirror an empty violation list"


M = MAX_FIELD_VALUE
profiles = st.builds(
    lambda n, t, h: AuthorProfile("A", AggregateData(n, t if n else 0, h)),
    st.integers(0, M),
    st.integers(0, M),
    st.none() | st.integers(0, M),
) | st.builds(
    lambda counts: AuthorProfile("V", FullData(CitationVector(counts))),
    st.lists(st.integers(0, M), max_size=6),
)


@given(profiles)
@example(AuthorProfile("empty", AggregateData(0, 0, 5)))
@example(AuthorProfile("unreduced", AggregateData(6, 12)))  # 12/6 and 72/48
@example(AuthorProfile("none", FullData(CitationVector())))
def test_full_report_is_the_record_its_fractions_build(profile):
    report = full_report(profile)
    public = IndexReport(*(getattr(report, f) for f in REPORT_FIELDS))
    assert report == public and hash(report) == hash(public)
    assert repr(report) == repr(public)
    for value in (report.citations_per_paper, report.hm_exact):
        assert type(value) is Fraction
        assert math.gcd(value.numerator, value.denominator) == 1
    n, t = report.n_papers, report.total_citations
    assert report.citations_per_paper == (Fraction(t, n) if n else 0)
    assert report.hm_exact == (Fraction(n * t, n * n + t) if n else 0)


@given(profiles)
def test_full_report_survives_pickle_and_deepcopy(profile):
    report = full_report(profile)
    for other in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert other == report and repr(other) == repr(report)


# IndexReport's stored layout: each fraction is two ints, (num, den)
PIOMELLI_STORED = (150, 11467, 11467, 150, 76, 39, HSource.REPORTED, 1720050, 33967, 51)


def test_report_equals_no_tuple_and_no_subclass():
    sub = type("Sub", (IndexReport,), {"__slots__": ()})
    others = [PIOMELLI_STORED, sub(*(getattr(PIOMELLI, f) for f in REPORT_FIELDS))]
    for other in others:
        assert not PIOMELLI == other and not other == PIOMELLI
        assert PIOMELLI != other and other != PIOMELLI
    assert not PIOMELLI != full_report(AuthorProfile("P", AggregateData(150, 11467, 39)))


def test_report_tuple_protocol_is_its_stored_layout():
    # the tuple protocol is kept as it is, not closed: it sees the stored
    # layout, so len counts ten values and < orders unreduced fractions apart
    assert len(PIOMELLI) == 10
    assert tuple(PIOMELLI) == PIOMELLI_STORED and PIOMELLI[5] == 39
    assert PIOMELLI + () == PIOMELLI_STORED and type(PIOMELLI + ()) is tuple
    unreduced = full_report(AuthorProfile("u", AggregateData(6, 12)))
    reduced = IndexReport(*(getattr(unreduced, f) for f in REPORT_FIELDS))
    assert unreduced == reduced and hash(unreduced) == hash(reduced)
    assert tuple(unreduced) == (6, 12, 12, 6, 2, None, None, 72, 48, 2)
    assert tuple(reduced) == (6, 12, 2, 1, 2, None, None, 3, 2, 2)
    assert reduced < unreduced


@given(profiles)
@example(AuthorProfile("empty", AggregateData(0, 0)))
@example(AuthorProfile("empty-h", AggregateData(0, 0, 5)))
@example(AuthorProfile("no-papers", FullData(CitationVector())))
@example(AuthorProfile("half-up", AggregateData(1, 1)))  # HM 1/2 rounds to 1
@example(AuthorProfile("past-the-cap", FullData(CitationVector((1, M)))))
def test_full_report_is_the_public_record_of_its_profile(profile):
    data = profile.data
    if isinstance(data, FullData):
        n, t = len(data.vector), total_citations(data.vector)
        h, source = h_index(data.vector), HSource.COMPUTED
    elif data.n_papers == 0:
        n, t, h, source = 0, 0, 0, HSource.COMPUTED
    else:
        n, t, h = data.n_papers, data.total_citations, data.reported_h
        source = None if h is None else HSource.REPORTED
    rate = citations_per_paper(n, t) if n else Fraction(0)
    # the from-totals form takes counts only; a full vector may sum past the cap
    hm = hm_index_from_totals(n, t) if t <= M else hm_index(n, rate)
    public = IndexReport(n, t, rate, truncate_display(rate), h, source, hm, round_display(hm))
    report = full_report(profile)
    assert report == public and hash(report) == hash(public)
    assert repr(report) == repr(public)
    for record in (report, public):
        again = pickle.loads(pickle.dumps(record))
        assert type(again) is IndexReport and again == report
        assert repr(again) == repr(report) and hash(again) == hash(report)
