"""Unit and property tests for the metric computations."""

import math
import random
from datetime import date
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibdex import (
    MAX_FIELD_VALUE,
    AggregateData,
    AuthorProfile,
    CitationVector,
    FullData,
    HSource,
    InconsistentAggregateError,
    RULE_H_EXCEEDS_PAPER_COUNT,
    RULE_H_SQUARED_EXCEEDS_TOTAL_CITATIONS,
    citations_per_paper,
    consistency_check,
    full_report,
    h_index,
    hm_index,
    hm_index_from_totals,
    round_display,
    total_citations,
    truncate_display,
)

vectors = st.lists(st.integers(0, 100), max_size=50).map(
    lambda counts: CitationVector(tuple(counts))
)
rationals = st.fractions(min_value=0, max_value=10**6)
positive_rationals = st.fractions(min_value=Fraction(1, 1000), max_value=10**6)


def brute_force_h(counts):
    """Independent oracle: try every k, keep the largest that qualifies."""
    best = 0
    for k in range(len(counts) + 1):
        if sum(1 for c in counts if c >= k) >= k:
            best = k
    return best


class TestTotalCitations:
    def test_single_paper(self):
        assert total_citations(CitationVector((10000,))) == 10000

    def test_empty(self):
        assert total_citations(CitationVector(())) == 0

    def test_small(self):
        assert total_citations(CitationVector((3, 1, 4))) == 8


class TestCitationsPerPaper:
    def test_exact_integer(self):
        assert citations_per_paper(100, 10000) == 100

    def test_exact_fraction(self):
        per = citations_per_paper(37, 6235)
        assert per == Fraction(6235, 37)
        assert truncate_display(per) == 168

    def test_zero_citations(self):
        assert citations_per_paper(1, 0) == 0

    def test_zero_papers_rejected(self):
        with pytest.raises(ValueError):
            citations_per_paper(0, 5)


class TestHIndex:
    def test_uniform_hundred(self):
        assert h_index(CitationVector((100,) * 100)) == 100

    def test_no_cited_papers(self):
        assert h_index(CitationVector(())) == 0
        assert h_index(CitationVector((0, 0, 0))) == 0

    def test_descending_staircase(self):
        counts = (5, 4, 3, 2, 1)
        assert brute_force_h(counts) == 3
        assert h_index(CitationVector(counts)) == 3

    @pytest.mark.parametrize(
        "counts",
        [
            (0,) * 7,  # h is 0
            (100, 100, 100),  # every paper qualifies: h is the paper count
            (MAX_FIELD_VALUE,) * 4,
            (MAX_FIELD_VALUE, 0, 1, 2),
            (0,),
            (1,),
            (MAX_FIELD_VALUE,),
            tuple(random.Random(22).sample(range(1_500), 1_000)),
        ],
        ids=["zeros", "h-is-n", "max", "max-and-small", "one-0", "one-1",
             "one-max", "1e3-distinct"],
    )
    def test_edges_match_brute_force(self, counts):
        assert h_index(CitationVector(counts)) == brute_force_h(counts)

    @pytest.mark.parametrize("top", [15_000, MAX_FIELD_VALUE], ids=["small", "large"])
    def test_ten_thousand_distinct_counts(self, top):
        """brute_force_h is quadratic (10^8 steps here), so check what its scan
        decides: h qualifies and h + 1 does not."""
        counts = random.Random(top).sample(range(top), 10_000)
        h = h_index(CitationVector(tuple(counts)))
        assert sum(c >= h for c in counts) >= h
        assert sum(c >= h + 1 for c in counts) < h + 1

    @given(vectors)
    @settings(max_examples=300)
    def test_matches_brute_force(self, vec):
        """h_index agrees with the exhaustive-scan oracle."""
        assert h_index(vec) == brute_force_h(vec.counts)

    @given(vectors)
    def test_bounds(self, vec):
        """h <= length, h <= max count, h^2 <= total citations."""
        h = h_index(vec)
        assert h <= len(vec)
        assert h <= max(vec.counts, default=0)
        assert h * h <= total_citations(vec)

    @given(vectors, st.integers(0, 100))
    def test_append_never_decreases(self, vec, extra):
        appended = CitationVector(vec.counts + (extra,))
        assert h_index(appended) >= h_index(vec)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50), st.data())
    def test_increment_never_decreases(self, counts, data):
        i = data.draw(st.integers(0, len(counts) - 1))
        bumped = list(counts)
        bumped[i] += 1
        assert h_index(CitationVector(tuple(bumped))) >= h_index(
            CitationVector(tuple(counts))
        )


class TestHmIndex:
    def test_symmetric_integers(self):
        assert hm_index(100, 100) == 50

    def test_lopsided(self):
        hm = hm_index(1, 10000)
        assert hm == Fraction(10000, 10001)
        assert round_display(hm) == 1

    def test_zero_convention(self):
        assert hm_index(0, 12345) == 0
        assert hm_index(12345, 0) == 0
        assert hm_index(0, 0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hm_index(-1, 5)
        with pytest.raises(ValueError):
            hm_index(5, Fraction(-1, 2))

    def test_returns_exact_fraction(self):
        assert isinstance(hm_index(3, 7), Fraction)

    @given(positive_rationals)
    def test_equal_arguments_halve(self, x):
        """hm(x, x) is exactly x/2."""
        assert hm_index(x, x) == x / 2

    @given(rationals, rationals)
    def test_symmetry(self, a, b):
        assert hm_index(a, b) == hm_index(b, a)

    @given(positive_rationals, positive_rationals)
    def test_below_min(self, a, b):
        assert hm_index(a, b) < min(a, b)

    @given(rationals, rationals)
    def test_at_most_geometric_mean(self, a, b):
        """hm(a, b)^2 <= a*b, the exact form of hm <= sqrt(a*b)."""
        hm = hm_index(a, b)
        assert hm * hm <= a * b

    @given(rationals, rationals, rationals)
    def test_monotone_in_each_argument(self, a, b, delta):
        assert hm_index(a + delta, b) >= hm_index(a, b)
        assert hm_index(a, b + delta) >= hm_index(a, b)


class TestHmIndexFromTotals:
    def test_piomelli_row(self):
        hm = hm_index_from_totals(150, 11467)
        assert hm == Fraction(1720050, 33967)
        assert round_display(hm) == 51

    def test_moin_row(self):
        assert round_display(hm_index_from_totals(288, 38042)) == 91

    def test_zero_papers(self):
        assert hm_index_from_totals(0, 0) == 0

    @given(st.integers(1, 10**6), st.integers(0, 10**9))
    def test_identity_with_two_step_form(self, n, t):
        """n*t/(n^2+t) equals hm(n, t/n) as exact rationals."""
        assert hm_index_from_totals(n, t) == hm_index(n, Fraction(t, n))


class TestDisplayRounding:
    def test_round_nearest(self):
        assert round_display(Fraction(1720050, 33967)) == 51
        assert round_display(Fraction(230695, 7604)) == 30

    def test_round_half_away_from_zero(self):
        assert round_display(Fraction(1, 2)) == 1
        assert round_display(Fraction(3, 2)) == 2
        assert round_display(Fraction(5, 2)) == 3

    def test_truncate(self):
        assert truncate_display(Fraction(6235, 37)) == 168
        assert truncate_display(Fraction(99999, 1000)) == 99
        assert truncate_display(100) == 100

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            round_display(Fraction(-1, 2))
        with pytest.raises(ValueError):
            truncate_display(-1)

    @pytest.mark.parametrize("display", [round_display, truncate_display])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rejected(self, display, value):
        with pytest.raises(ValueError, match="finite"):
            display(value)

    @given(rationals)
    def test_round_within_half(self, x):
        assert abs(round_display(x) - x) <= Fraction(1, 2)

    @given(rationals)
    def test_truncate_within_one_below(self, x):
        t = truncate_display(x)
        assert 0 <= x - t < 1


class TestConsistencyCheck:
    def test_germano_passes(self):
        assert consistency_check(37, 6235, 9).passed

    def test_h_above_paper_count(self):
        result = consistency_check(5, 1000, 7)
        assert not result.passed
        assert [v.rule for v in result.violations] == [RULE_H_EXCEEDS_PAPER_COUNT]

    def test_h_squared_above_citations(self):
        result = consistency_check(100, 10, 5)
        assert not result.passed
        assert [v.rule for v in result.violations] == [
            RULE_H_SQUARED_EXCEEDS_TOTAL_CITATIONS
        ]

    def test_both_rules_fire(self):
        result = consistency_check(2, 3, 5)
        assert {v.rule for v in result.violations} == {
            RULE_H_EXCEEDS_PAPER_COUNT,
            RULE_H_SQUARED_EXCEEDS_TOTAL_CITATIONS,
        }


class TestFullReport:
    def test_single_blockbuster_paper(self):
        rep = full_report(AuthorProfile("R1", FullData(CitationVector((10000,)))))
        assert rep.n_papers == 1
        assert rep.total_citations == 10000
        assert rep.citations_per_paper == 10000
        assert rep.h == 1
        assert rep.h_source is HSource.COMPUTED
        assert rep.hm_display == 1

    def test_cabot_aggregate(self):
        profile = AuthorProfile(
            "Cabot",
            AggregateData(39, 9128, reported_h=21),
            snapshot_date=date(2020, 9, 30),
        )
        rep = full_report(profile)
        assert rep.citations_per_paper_display == 234
        assert rep.h == 21
        assert rep.h_source is HSource.REPORTED
        assert rep.hm_display == 33

    def test_empty_career(self):
        rep = full_report(AuthorProfile("X", FullData(CitationVector(()))))
        assert rep == full_report(AuthorProfile("X", AggregateData(0, 0)))
        assert (rep.n_papers, rep.total_citations, rep.h, rep.hm_display) == (0, 0, 0, 0)
        assert rep.h_source is HSource.COMPUTED

    def test_aggregate_without_h(self):
        rep = full_report(AuthorProfile("Y", AggregateData(10, 500)))
        assert rep.h is None
        assert rep.h_source is None

    def test_unsupported_data_is_a_type_error(self):
        with pytest.raises(TypeError) as info:
            full_report(AuthorProfile("X", (3, 1)))
        assert str(info.value) == "unsupported profile data: tuple"

    def test_inconsistent_aggregate(self):
        with pytest.raises(InconsistentAggregateError, match="Ghost"):
            full_report(AuthorProfile("Ghost", AggregateData(0, 7)))

    @given(st.integers(1, 10**4), st.integers(0, 10**6))
    @settings(max_examples=200)
    def test_per_paper_rate_is_exact(self, n, t):
        """citations_per_paper * n_papers recovers the total exactly."""
        rep = full_report(AuthorProfile("Z", AggregateData(n, t)))
        assert rep.citations_per_paper * rep.n_papers == rep.total_citations
        assert rep.hm_display == round_display(rep.hm_exact)
        assert rep.citations_per_paper_display == truncate_display(
            rep.citations_per_paper
        )


def fraction_path(n, t):
    """Report values the long way: public Fraction functions, then floor()."""
    per = citations_per_paper(n, t)
    hm = hm_index(n, per)
    if t <= MAX_FIELD_VALUE:  # a full vector's total may exceed one count's cap
        assert hm == hm_index_from_totals(n, t)
    assert truncate_display(per) == math.floor(per)
    assert round_display(hm) == math.floor(hm + Fraction(1, 2))
    return per, truncate_display(per), hm, round_display(hm)


def report_values(rep):
    return (
        rep.citations_per_paper,
        rep.citations_per_paper_display,
        rep.hm_exact,
        rep.hm_display,
    )


counts_to_max = st.integers(0, MAX_FIELD_VALUE)


class TestIntegerPathMatchesFractionPath:
    """full_report's integer arithmetic against the Fraction functions."""

    @given(st.integers(1, MAX_FIELD_VALUE), counts_to_max)
    @settings(max_examples=500)
    def test_aggregate(self, n, t):
        rep = full_report(AuthorProfile("A", AggregateData(n, t)))
        assert report_values(rep) == fraction_path(n, t)
        assert type(rep.citations_per_paper) is type(rep.hm_exact) is Fraction

    @given(st.lists(counts_to_max, min_size=1, max_size=20))
    @settings(max_examples=300)
    def test_full(self, counts):
        rep = full_report(AuthorProfile("F", FullData(CitationVector(counts))))
        assert report_values(rep) == fraction_path(len(counts), sum(counts))

    @pytest.mark.parametrize(
        "n, t, hm, hm_display",
        [
            (1, 1, Fraction(1, 2), 1),
            (2, 12, Fraction(3, 2), 2),
            (3, 45, Fraction(5, 2), 3),
            (7, 637, Fraction(13, 2), 7),
            (46339, 46339**2, Fraction(46339, 2), 23170),
        ],
    )
    def test_exact_halves_round_up(self, n, t, hm, hm_display):
        rep = full_report(AuthorProfile("A", AggregateData(n, t)))
        assert (rep.hm_exact, rep.hm_display) == (hm, hm_display)
        assert report_values(rep) == fraction_path(n, t)

    def test_exact_rate_not_truncated_rate(self):
        """The paper's case: HM 51 from the exact rate, 50 from the truncated 76."""
        rep = full_report(AuthorProfile("Piomelli", AggregateData(150, 11467)))
        assert report_values(rep) == fraction_path(150, 11467)
        assert (rep.citations_per_paper_display, rep.hm_display) == (76, 51)
        assert round_display(hm_index(150, 76)) == 50

    @pytest.mark.parametrize("t", [0, 1, 2, MAX_FIELD_VALUE - 1, MAX_FIELD_VALUE])
    def test_max_paper_count(self, t):
        n = MAX_FIELD_VALUE
        rep = full_report(AuthorProfile("A", AggregateData(n, t)))
        assert report_values(rep) == fraction_path(n, t)

    def test_max_full_vector(self):
        counts = (MAX_FIELD_VALUE,) * 5
        rep = full_report(AuthorProfile("F", FullData(CitationVector(counts))))
        assert report_values(rep) == fraction_path(5, 5 * MAX_FIELD_VALUE)


class TestValidation:
    def test_vector_rejects_negative(self):
        with pytest.raises(ValueError):
            CitationVector((3, -1))

    def test_vector_rejects_bool(self):
        with pytest.raises(ValueError):
            CitationVector((True,))

    def test_vector_rejects_oversized(self):
        with pytest.raises(ValueError):
            CitationVector((2**31,))

    def test_vector_accepts_list(self):
        assert CitationVector([5, 3]) == CitationVector((5, 3))

    def test_aggregate_rejects_negative(self):
        with pytest.raises(ValueError):
            AggregateData(-1, 0)
        with pytest.raises(ValueError):
            AggregateData(1, 2, reported_h=-3)
