"""The public record types: immutable values compared, hashed and printed by field."""

import copy
import pickle
from datetime import date

import pytest

from bibdex import (
    AggregateData,
    AuthorProfile,
    CitationVector,
    ComparisonTable,
    FullData,
    HSource,
    IndexReport,
    TableRow,
    ValidationResult,
    Violation,
    full_report,
)

PIOMELLI = full_report(AuthorProfile("Piomelli", AggregateData(150, 11467, 39)))
PIOMELLI_REPR = (
    "IndexReport(n_papers=150, total_citations=11467, "
    "citations_per_paper=Fraction(11467, 150), citations_per_paper_display=76, "
    "h=39, h_source=<HSource.REPORTED: 'reported'>, "
    "hm_exact=Fraction(1720050, 33967), hm_display=51)"
)
ROW = TableRow("Piomelli", PIOMELLI)
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
    fields = {f: getattr(PIOMELLI, f) for f in IndexReport.__slots__}
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
