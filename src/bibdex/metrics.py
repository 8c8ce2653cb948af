"""Citation metrics with exact rational arithmetic.

Computes the Hirsch h-index from per-paper citation counts and the HM
index, the half harmonic mean of productivity (paper count) and impact
(citations per paper): 1/H = 1/N_p + 1/N_c. Every value is kept exact.
Only the ``*_display`` fields round, by integer floor division of the
exact numerator and denominator, which gives the same result as rounding
the fraction: HM to the nearest integer, citations per paper truncated.
All functions here are pure and all values immutable, so everything is
safe to share across threads.
"""

from datetime import date
from enum import Enum
from operator import itemgetter

__all__ = [
    "MAX_FIELD_VALUE",
    "RULE_H_EXCEEDS_PAPER_COUNT",
    "RULE_H_SQUARED_EXCEEDS_TOTAL_CITATIONS",
    "AggregateData",
    "AuthorProfile",
    "CitationVector",
    "FullData",
    "HSource",
    "InconsistentAggregateError",
    "IndexReport",
    "ValidationResult",
    "Violation",
    "citations_per_paper",
    "consistency_check",
    "full_report",
    "h_index",
    "hm_index",
    "hm_index_from_totals",
    "round_display",
    "total_citations",
    "truncate_display",
]

# Per-field cap; exact identities must hold without overflow anywhere.
MAX_FIELD_VALUE = 2**31 - 1

RULE_H_EXCEEDS_PAPER_COUNT = "h_exceeds_paper_count"
RULE_H_SQUARED_EXCEEDS_TOTAL_CITATIONS = "h_squared_exceeds_total_citations"


class InconsistentAggregateError(ValueError):
    """Aggregate data claims citations for an author with zero papers."""


class HSource(Enum):
    """Where a report's h value came from."""

    COMPUTED = "computed"
    REPORTED = "reported"


def _check_count(value: int, label: str, error: type[Exception] = ValueError) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{label} must be an integer, got {value!r}")
    if value < 0:
        raise error(f"{label} must be >= 0, got {value}")
    if value > MAX_FIELD_VALUE:
        raise error(f"{label} must be <= {MAX_FIELD_VALUE}, got {value}")
    return value


class _Record:
    """Immutable record compared, hashed and printed by its public fields,
    ``_fields``, which each subclass's constructor sets."""

    __slots__ = ()

    @property
    def _fields(self) -> tuple[str, ...]:  # a class storing other slots names them
        return self.__slots__

    @classmethod
    def _trusted(cls, *values):  # slot values in order; the caller made the checks
        record = _new(cls)
        for field, value in zip(cls.__slots__, values):
            _set(record, field, value)
        return record

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return False if isinstance(other, tuple) else NotImplemented  # nor by tuple items

    def __ne__(self, other):  # ahead of a base's own, such as tuple's
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_new = object.__new__
_set = object.__setattr__
_tuple = tuple.__new__
_COMPUTED, _REPORTED = HSource  # a member read through its class is slow


def _fraction(*args) -> "Fraction":  # imported on first use: tables never need it
    from fractions import Fraction
    return Fraction(*args)


class CitationVector(_Record):
    """Per-paper citation counts for one author. Order carries no meaning."""

    __slots__ = ("counts",)

    # _checked is set only by the parsers, which have range-checked every count
    def __init__(self, counts: tuple[int, ...] = (), *, _checked: bool = False):
        counts = tuple(counts)
        if not _checked:
            for c in counts:
                _check_count(c, "citation count")
        _set(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)


class FullData(_Record):
    """Author data with the complete citation vector."""

    __slots__ = ("vector",)

    def __init__(self, vector: CitationVector):
        _set(self, "vector", vector)


class AggregateData(_Record):
    """Author data reduced to totals, optionally with an externally reported h.

    ``reported_h`` is stored as given; whether it is consistent with the
    totals is the job of :func:`consistency_check`, not the constructor.
    """

    __slots__ = ("n_papers", "total_citations", "reported_h")

    def __init__(self, n_papers: int, total_citations: int,
                 reported_h: int | None = None):
        _set(self, "n_papers", _check_count(n_papers, "n_papers"))
        _set(self, "total_citations", _check_count(total_citations, "total_citations"))
        if reported_h is not None:
            _check_count(reported_h, "reported_h")
        _set(self, "reported_h", reported_h)


class AuthorProfile(_Record):
    """Named author record: a full citation vector or aggregate totals."""

    __slots__ = ("name", "data", "snapshot_date")

    def __init__(self, name: str, data: FullData | AggregateData,
                 snapshot_date: date | None = None):
        _set(self, "name", name)
        _set(self, "data", data)
        _set(self, "snapshot_date", snapshot_date)


class IndexReport(_Record, tuple):
    """Every statistic computed for one author.

    ``citations_per_paper`` and ``hm_exact`` are exact fractions, stored as
    numerator and denominator ints, not always reduced, and built on
    access; ``citations_per_paper_display`` is the truncated form and
    ``hm_display`` the half-away-from-zero rounded form. ``h`` is None
    when it cannot be known (aggregate data without a reported value).
    The record is one tuple of ten values, each fraction taking two, so
    ``len``, iteration, indexing, ``+`` and ``<`` see that layout.
    """

    __slots__ = ()
    _fields = ("n_papers", "total_citations", "citations_per_paper",
               "citations_per_paper_display", "h", "h_source", "hm_exact", "hm_display")

    def __new__(cls, n_papers: int, total_citations: int,
                citations_per_paper: "Fraction", citations_per_paper_display: int,
                h: int | None, h_source: HSource | None,
                hm_exact: "Fraction", hm_display: int):
        if (h is None) != (h_source is None):
            raise ValueError("h and h_source must be both present or both absent")
        rate, hm = citations_per_paper.as_integer_ratio(), hm_exact.as_integer_ratio()
        return _tuple(cls, (n_papers, total_citations, *rate,
                            citations_per_paper_display, h, h_source, *hm, hm_display))

    n_papers, total_citations, citations_per_paper_display, h, h_source, hm_display = (
        property(itemgetter(i)) for i in (0, 1, 4, 5, 6, 9))
    _rate, _hm = property(itemgetter(2, 3)), property(itemgetter(7, 8))
    citations_per_paper = property(lambda self: _fraction(*self._rate))
    hm_exact = property(lambda self: _fraction(*self._hm))


class Violation(_Record):
    """One failed consistency rule."""

    __slots__ = ("rule", "message")

    def __init__(self, rule: str, message: str):
        _set(self, "rule", rule)
        _set(self, "message", message)


class ValidationResult(_Record):
    """Outcome of consistency checks; passes exactly when nothing failed."""

    __slots__ = ("passed", "violations")

    def __init__(self, passed: bool, violations: tuple[Violation, ...] = ()):
        if passed != (len(violations) == 0):
            raise ValueError("passed must mirror an empty violation list")
        _set(self, "passed", passed)
        _set(self, "violations", violations)


def total_citations(vector: CitationVector) -> int:
    """Sum of the per-paper citation counts."""
    return sum(vector.counts)


def citations_per_paper(n_papers: int, total_citations: int) -> "Fraction":
    """Exact citations per paper, total/n_papers. Requires n_papers >= 1."""
    if n_papers < 1:
        raise ValueError(
            "n_papers must be >= 1; a zero-paper author has no per-paper rate"
        )
    return _fraction(total_citations, n_papers)


def h_index(vector: CitationVector) -> int:
    """Largest h such that at least h papers have at least h citations each."""
    h = 0
    for i, c in enumerate(sorted(vector.counts, reverse=True), start=1):
        if c >= i:
            h = i
        else:
            break
    return h


def hm_index(
    n_papers: "int | Fraction", citations_per_paper: "int | Fraction"
) -> "Fraction":
    """Half harmonic mean p*c/(p + c), i.e. the H solving 1/H = 1/p + 1/c.

    Both arguments may be any non-negative rational. Returns 0 when either
    argument is 0, the limiting value as the matching reciprocal diverges.
    """
    p, c = _fraction(n_papers), _fraction(citations_per_paper)
    if p < 0 or c < 0:
        raise ValueError(f"hm_index needs non-negative inputs, got ({p}, {c})")
    if p == 0 or c == 0:
        return _fraction(0)
    return p * c / (p + c)


def _round_half_up(num: int, den: int) -> int:
    """floor(num/den + 1/2) for num >= 0 and den >= 1: the HM display rule."""
    return (2 * num + den) // (2 * den)


def hm_index_from_totals(n_papers: int, total_citations: int) -> "Fraction":
    """HM index straight from totals: n*t / (n^2 + t), 0 for n == 0.

    Algebraically identical to ``hm_index(n, t/n)`` but never forms the
    intermediate per-paper rate.
    """
    _check_count(n_papers, "n_papers")
    _check_count(total_citations, "total_citations")
    if n_papers == 0:
        return _fraction(0)
    return _fraction(n_papers * total_citations, n_papers**2 + total_citations)


def _display_input(value: "int | float | Fraction", rule: str) -> "Fraction":
    try:
        x = _fraction(value)
    except (OverflowError, ValueError):  # infinite or NaN
        raise ValueError(f"{rule} needs a finite value, got {value}") from None
    if x < 0:
        raise ValueError(f"{rule} needs a non-negative value, got {x}")
    return x


def round_display(value: "int | float | Fraction") -> int:
    """Nearest integer, halves rounded away from zero. Display rule for HM."""
    x = _display_input(value, "round_display")
    return _round_half_up(x.numerator, x.denominator)


def truncate_display(value: "int | float | Fraction") -> int:
    """Integer part with the fraction discarded. Display rule for N_c."""
    x = _display_input(value, "truncate_display")
    return x.numerator // x.denominator


def consistency_check(
    n_papers: int, total_citations: int, reported_h: int
) -> ValidationResult:
    """Check the conditions any true h must satisfy against the aggregates.

    h papers with at least h citations each force h <= n_papers and
    h^2 <= total_citations. Necessary, not sufficient: a reported h can
    pass both rules and still be wrong.
    """
    _check_count(n_papers, "n_papers")
    _check_count(total_citations, "total_citations")
    _check_count(reported_h, "reported_h")
    violations = []
    if reported_h > n_papers:
        message = f"h={reported_h} exceeds the paper count {n_papers}"
        violations.append(Violation(RULE_H_EXCEEDS_PAPER_COUNT, message))
    if reported_h**2 > total_citations:
        message = f"h^2={reported_h**2} exceeds the total citations {total_citations}"
        violations.append(Violation(RULE_H_SQUARED_EXCEEDS_TOTAL_CITATIONS, message))
    return ValidationResult(passed=not violations, violations=tuple(violations))


def full_report(profile: AuthorProfile) -> IndexReport:
    """All statistics for one profile, display fields pre-rounded.

    Full data yields a computed h; aggregate data carries the reported h
    when present and leaves h absent otherwise. An empty career (zero
    papers) is all zeros, h included, since nothing else is possible.
    """
    data = profile.data
    if isinstance(data, AggregateData):
        n, total, h = data.n_papers, data.total_citations, data.reported_h
        if n == 0 and total > 0:
            raise InconsistentAggregateError(
                f"profile {profile.name!r}: zero papers cannot carry {total} citations"
            )
        source = None if h is None else _REPORTED
        if n == 0:
            h, source = 0, _COMPUTED
    elif isinstance(data, FullData):
        n, total = len(data.vector), total_citations(data.vector)
        h, source = h_index(data.vector), _COMPUTED
    else:
        raise TypeError(f"unsupported profile data: {type(data).__name__}")

    rate_n = n or 1  # an empty career has no citations either: all values 0
    num, den = rate_n * total, rate_n * rate_n + total  # HM = n*t / (n^2 + t)
    return _tuple(IndexReport, (  # h and source come together above
        n, total, total, rate_n, total // rate_n, h, source, num, den,
        (2 * num + den) // (2 * den)))  # the HM display, as _round_half_up
