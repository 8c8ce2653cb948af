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

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from datetime import date
from enum import Enum
from fractions import Fraction

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


def _check_count(value: int, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{label} must be >= 0, got {value}")
    if value > MAX_FIELD_VALUE:
        raise ValueError(f"{label} must be <= {MAX_FIELD_VALUE}, got {value}")
    return value


@dataclass(frozen=True)
class CitationVector:
    """Per-paper citation counts for one author. Order carries no meaning."""

    counts: tuple[int, ...] = ()
    # set only by the parsers, which have range-checked every count already
    _checked: InitVar[bool] = field(default=False, kw_only=True)

    def __post_init__(self, _checked: bool) -> None:
        counts = tuple(self.counts)
        if not _checked:
            for c in counts:
                _check_count(c, "citation count")
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)


@dataclass(frozen=True)
class FullData:
    """Author data with the complete citation vector."""

    vector: CitationVector


@dataclass(frozen=True)
class AggregateData:
    """Author data reduced to totals, optionally with an externally reported h.

    ``reported_h`` is stored as given; whether it is consistent with the
    totals is the job of :func:`consistency_check`, not the constructor.
    """

    n_papers: int
    total_citations: int
    reported_h: int | None = None

    def __post_init__(self) -> None:
        _check_count(self.n_papers, "n_papers")
        _check_count(self.total_citations, "total_citations")
        if self.reported_h is not None:
            _check_count(self.reported_h, "reported_h")


@dataclass(frozen=True)
class AuthorProfile:
    """Named author record: a full citation vector or aggregate totals."""

    name: str
    data: FullData | AggregateData
    snapshot_date: date | None = None


@dataclass(frozen=True)
class IndexReport:
    """Every statistic computed for one author.

    ``citations_per_paper`` and ``hm_exact`` are exact fractions;
    ``citations_per_paper_display`` is the truncated form and
    ``hm_display`` the half-away-from-zero rounded form. ``h`` is None
    when it cannot be known (aggregate data without a reported value).
    """

    n_papers: int
    total_citations: int
    citations_per_paper: Fraction
    citations_per_paper_display: int
    h: int | None
    h_source: HSource | None
    hm_exact: Fraction
    hm_display: int

    def __post_init__(self) -> None:
        if (self.h is None) != (self.h_source is None):
            raise ValueError("h and h_source must be both present or both absent")


@dataclass(frozen=True)
class Violation:
    """One failed consistency rule."""

    rule: str
    message: str


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of consistency checks; passes exactly when nothing failed."""

    passed: bool
    violations: tuple[Violation, ...] = ()

    def __post_init__(self) -> None:
        if self.passed != (len(self.violations) == 0):
            raise ValueError("passed must mirror an empty violation list")


def total_citations(vector: CitationVector) -> int:
    """Sum of the per-paper citation counts."""
    return sum(vector.counts)


def citations_per_paper(n_papers: int, total_citations: int) -> Fraction:
    """Exact citations per paper, total/n_papers. Requires n_papers >= 1."""
    if n_papers < 1:
        raise ValueError(
            "n_papers must be >= 1; a zero-paper author has no per-paper rate"
        )
    return Fraction(total_citations, n_papers)


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
    n_papers: int | Fraction, citations_per_paper: int | Fraction
) -> Fraction:
    """Half harmonic mean p*c/(p + c), i.e. the H solving 1/H = 1/p + 1/c.

    Both arguments may be any non-negative rational. Returns 0 when either
    argument is 0, the limiting value as the matching reciprocal diverges.
    """
    p = Fraction(n_papers)
    c = Fraction(citations_per_paper)
    if p < 0 or c < 0:
        raise ValueError(f"hm_index needs non-negative inputs, got ({p}, {c})")
    if p == 0 or c == 0:
        return Fraction(0)
    return p * c / (p + c)


def _hm_terms(n: int, t: int) -> tuple[int, int]:
    return n * t, n * n + t  # HM = n*t / (n^2 + t), for n >= 1


def _round_half_up(num: int, den: int) -> int:
    """floor(num/den + 1/2) for num >= 0 and den >= 1: the HM display rule."""
    return (2 * num + den) // (2 * den)


def hm_index_from_totals(n_papers: int, total_citations: int) -> Fraction:
    """HM index straight from totals: n*t / (n^2 + t), 0 for n == 0.

    Algebraically identical to ``hm_index(n, t/n)`` but never forms the
    intermediate per-paper rate.
    """
    _check_count(n_papers, "n_papers")
    _check_count(total_citations, "total_citations")
    if n_papers == 0:
        return Fraction(0)
    return Fraction(*_hm_terms(n_papers, total_citations))


def _display_input(value: int | float | Fraction, rule: str) -> Fraction:
    try:
        x = Fraction(value)
    except (OverflowError, ValueError):  # infinite or NaN
        raise ValueError(f"{rule} needs a finite value, got {value}") from None
    if x < 0:
        raise ValueError(f"{rule} needs a non-negative value, got {x}")
    return x


def round_display(value: int | float | Fraction) -> int:
    """Nearest integer, halves rounded away from zero. Display rule for HM."""
    x = _display_input(value, "round_display")
    return _round_half_up(x.numerator, x.denominator)


def truncate_display(value: int | float | Fraction) -> int:
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
        violations.append(
            Violation(
                RULE_H_EXCEEDS_PAPER_COUNT,
                f"h={reported_h} exceeds the paper count {n_papers}",
            )
        )
    if reported_h**2 > total_citations:
        violations.append(
            Violation(
                RULE_H_SQUARED_EXCEEDS_TOTAL_CITATIONS,
                f"h^2={reported_h**2} exceeds the total citations {total_citations}",
            )
        )
    return ValidationResult(passed=not violations, violations=tuple(violations))


def full_report(profile: AuthorProfile) -> IndexReport:
    """All statistics for one profile, display fields pre-rounded.

    Full data yields a computed h; aggregate data carries the reported h
    when present and leaves h absent otherwise. An empty career (zero
    papers) is all zeros, h included, since nothing else is possible.
    """
    data = profile.data
    if isinstance(data, FullData):
        n = len(data.vector)
        total = total_citations(data.vector)
        h: int | None = h_index(data.vector)
        source: HSource | None = HSource.COMPUTED
    elif isinstance(data, AggregateData):
        n = data.n_papers
        total = data.total_citations
        if n == 0 and total > 0:
            raise InconsistentAggregateError(
                f"profile {profile.name!r}: zero papers cannot carry "
                f"{total} citations"
            )
        if n == 0:
            h, source = 0, HSource.COMPUTED
        elif data.reported_h is not None:
            h, source = data.reported_h, HSource.REPORTED
        else:
            h, source = None, None
    else:
        raise TypeError(f"unsupported profile data: {type(data).__name__}")

    rate_n = n or 1  # an empty career has no citations either: all values 0
    hm_num, hm_den = _hm_terms(rate_n, total)
    return IndexReport(
        n_papers=n,
        total_citations=total,
        citations_per_paper=Fraction(total, rate_n),
        citations_per_paper_display=total // rate_n,
        h=h,
        h_source=source,
        hm_exact=Fraction(hm_num, hm_den),
        hm_display=_round_half_up(hm_num, hm_den),
    )
