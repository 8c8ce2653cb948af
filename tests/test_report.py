"""Tests for table building and rendering."""

import csv
import decimal
import io
import json
import math
import re
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibdex import (
    MAX_FIELD_VALUE,
    AggregateData,
    COLUMNS,
    AuthorProfile,
    CitationVector,
    ComparisonTable,
    FullData,
    HSource,
    InconsistentAggregateError,
    IndexReport,
    TableRow,
    compare,
    full_report,
    load_builtin_cohort,
    render_csv,
    render_markdown,
)
from bibdex.report import json_rows, render_json

GERMANO = AuthorProfile("Germano", AggregateData(37, 6235, reported_h=9))

CTR_MARKDOWN = (
    "| Name | N_p | N_c_tot | N_c | h | HM |\n"
    "| --- | ---: | ---: | ---: | ---: | ---: |\n"
    "| Germano | 37 | 6235 | 168 | 9 | 30 |\n"
    "| Piomelli | 150 | 11467 | 76 | 39 | 51 |\n"
    "| Moin | 288 | 38042 | 132 | 86 | 91 |\n"
    "| Cabot | 39 | 9128 | 234 | 21 | 33 |\n"
)

CTR_CSV = (
    "name,n_papers,total_citations,citations_per_paper,h,hm\n"
    "Germano,37,6235,168,9,30\n"
    "Piomelli,150,11467,76,39,51\n"
    "Moin,288,38042,132,86,91\n"
    "Cabot,39,9128,234,21,33\n"
)


class TestCompare:
    def test_ctr_in_input_order(self):
        table = compare(load_builtin_cohort("ctr"))
        assert [row.name for row in table.rows] == [
            "Germano",
            "Piomelli",
            "Moin",
            "Cabot",
        ]
        assert [row.report.hm_display for row in table.rows] == [30, 51, 91, 33]

    def test_empty_profile_list(self):
        assert compare([]).rows == ()

    def test_researchers_sorted_by_hm_descending(self):
        profiles = load_builtin_cohort("researchers")
        # independent ordering oracle: stable sort on the exact HM values
        reports = {p.name: full_report(p) for p in profiles}
        expected = [
            name
            for name, _ in sorted(
                ((p.name, reports[p.name].hm_exact) for p in profiles),
                key=lambda pair: pair[1],
                reverse=True,
            )
        ]
        table = compare(profiles, sort="hm", descending=True)
        assert [row.name for row in table.rows] == expected
        assert expected == [
            "Researcher 3",
            "Researcher 2",
            "Researcher 4",
            "Researcher 1",
            "Researcher 5",
        ]

    def test_hm_ties_are_exact_and_keep_input_order(self):
        reports = [full_report(p) for p in load_builtin_cohort("researchers")]
        assert reports[1].hm_exact == reports[3].hm_exact == Fraction(1000, 101)
        assert reports[0].hm_exact == reports[4].hm_exact == Fraction(10000, 10001)

    def test_sort_ascending(self):
        table = compare(load_builtin_cohort("ctr"), sort="n_papers")
        assert [row.report.n_papers for row in table.rows] == [37, 39, 150, 288]

    def test_sort_by_name(self):
        table = compare(load_builtin_cohort("ctr"), sort="name")
        assert [row.name for row in table.rows] == [
            "Cabot",
            "Germano",
            "Moin",
            "Piomelli",
        ]

    def test_rows_without_h_sort_last(self):
        profiles = [
            AuthorProfile("nh1", AggregateData(50, 900)),
            AuthorProfile("big", FullData(CitationVector((9, 9, 9)))),
            AuthorProfile("nh2", AggregateData(60, 800)),
            AuthorProfile("small", FullData(CitationVector((1,)))),
        ]
        descending = compare(profiles, sort="h", descending=True)
        assert [r.name for r in descending.rows] == ["big", "small", "nh1", "nh2"]
        ascending = compare(profiles, sort="h")
        assert [r.name for r in ascending.rows] == ["small", "big", "nh1", "nh2"]

    def test_column_subset_in_given_order(self):
        table = compare([GERMANO], columns=("hm", "name"))
        assert table.columns == ("hm", "name")
        assert render_csv(table) == "hm,name\n30,Germano\n"

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            compare([GERMANO], columns=())

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError, match="g_index"):
            compare([GERMANO], columns=("name", "g_index"))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            compare([GERMANO], columns=("name", "name"))

    def test_sort_key_outside_columns_rejected(self):
        with pytest.raises(ValueError):
            compare([GERMANO], columns=("name",), sort="hm")

    def test_inconsistent_aggregate_names_profile(self):
        with pytest.raises(InconsistentAggregateError, match="Phantom"):
            compare([AuthorProfile("Phantom", AggregateData(0, 3))])


M = MAX_FIELD_VALUE
EXACT_SORTS = [
    (sort, descending)
    for sort in ("hm", "citations_per_paper")
    for descending in (False, True)
]
# the exact value each column sorts on
SORT_FIELD = {
    "name": None,
    "n_papers": "n_papers",
    "total_citations": "total_citations",
    "citations_per_paper": "citations_per_paper",
    "h": "h",
    "hm": "hm_exact",
}


def oracle_order(named_reports, sort, descending):
    """Names stably sorted on the exact values; rows with no value go last."""
    field = SORT_FIELD[sort]
    values = [
        (name, name if field is None else getattr(rep, field))
        for name, rep in named_reports
    ]
    present = [pair for pair in values if pair[1] is not None]
    present.sort(key=itemgetter(1), reverse=descending)
    return [name for name, _ in present] + [n for n, v in values if v is None]


def sorted_names(profiles, sort, descending):
    return [row.name for row in compare(profiles, sort=sort, descending=descending).rows]


def check_exact_order(profiles, sort, descending):
    named = [(p.name, full_report(p)) for p in profiles]
    expected = oracle_order(named, sort, descending)
    assert sorted_names(profiles, sort, descending) == expected


aggregates = st.builds(
    lambda n, t, h: (n, t if n else 0, h),
    st.integers(0, M),
    st.integers(0, M),
    st.none() | st.integers(0, M),
)


class TestExactSortOrder:
    """compare() orders rows exactly as a stable sort on the exact values."""

    @pytest.mark.parametrize("sort, descending", EXACT_SORTS)
    def test_near_ties_at_max_paper_count(self, sort, descending):
        # HM(n, n + 1) and HM(n - 1, n) differ by about 2/n**3, near 2**-92;
        # t/n and (t - 1)/(n - 1) by about 1/n**2
        specs = [(M - 2, M - 1), (M, M), (M - 1, M), (M, M - 1), (M - 1, M - 2)]
        profiles = [
            AuthorProfile(f"a{i}", AggregateData(n, t)) for i, (n, t) in enumerate(specs)
        ]
        hms = sorted({full_report(p).hm_exact for p in profiles})
        assert min(b - a for a, b in zip(hms, hms[1:])) < Fraction(1, 2**91)
        check_exact_order(profiles, sort, descending)

    @pytest.mark.parametrize("sort, descending", EXACT_SORTS)
    def test_equal_values_keep_input_order(self, sort, descending):
        # HM 3/2 from three (n, t) pairs, 1000/101 from two; N_c 2 from two
        specs = [(3, 9), (10, 10000), (2, 4), (6, 12), (1000, 10000), (2, 12), (3, 6)]
        profiles = [
            AuthorProfile(f"e{i}", AggregateData(n, t)) for i, (n, t) in enumerate(specs)
        ]
        names = sorted_names(profiles, sort, descending)
        check_exact_order(profiles, sort, descending)
        if sort == "hm":
            ties = ["e0", "e3", "e5"]
        else:
            ties = ["e2", "e6"]
        assert [n for n in names if n in ties] == ties

    @pytest.mark.parametrize("sort, descending", EXACT_SORTS)
    def test_denominators_beyond_2_63(self, monkeypatch, sort, descending):
        """The key's shift comes from the table, not from MAX_FIELD_VALUE.

        No profile under the count cap reaches these denominators, so the
        reports are substituted; the values differ by about 2**-139.
        """
        b = 2**70
        values = [
            Fraction(b + 2, b + 4),
            Fraction(b + 1, b + 3),
            Fraction(1, b + 5),
            Fraction(b + 1, b + 3),
            Fraction(3, 2),
        ]
        assert all(v.denominator > 2**63 for v in values[:4])
        reports = {
            f"f{i}": IndexReport(
                n_papers=1,
                total_citations=0,
                citations_per_paper=v,
                citations_per_paper_display=math.floor(v),
                h=0,
                h_source=HSource.COMPUTED,
                hm_exact=v,
                hm_display=math.floor(v + Fraction(1, 2)),
            )
            for i, v in enumerate(values)
        }
        monkeypatch.setattr("bibdex.report.full_report", lambda p: reports[p.name])
        profiles = [AuthorProfile(name, FullData(CitationVector(()))) for name in reports]
        expected = oracle_order(reports.items(), sort, descending)
        assert sorted_names(profiles, sort, descending) == expected

    @pytest.mark.parametrize("descending", [False, True])
    def test_rows_without_h_still_last(self, descending):
        profiles = [
            AuthorProfile("nh1", AggregateData(M, M)),
            AuthorProfile("r1", AggregateData(M, M, reported_h=7)),
            AuthorProfile("f1", FullData(CitationVector((M, M, 1)))),
            AuthorProfile("nh2", AggregateData(1, 1)),
            AuthorProfile("r2", AggregateData(3, 9, reported_h=2)),
        ]
        names = sorted_names(profiles, "h", descending)
        assert names[-2:] == ["nh1", "nh2"]
        check_exact_order(profiles, "h", descending)

    @given(
        st.lists(aggregates, max_size=12),
        st.lists(st.lists(st.integers(0, M), max_size=4), max_size=4),
        st.sampled_from(sorted(SORT_FIELD)),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_matches_stable_exact_sort(self, specs, vectors, sort, descending):
        profiles = [
            AuthorProfile(f"a{i}", AggregateData(n, t, reported_h=h))
            for i, (n, t, h) in enumerate(specs)
        ] + [
            AuthorProfile(f"f{i}", FullData(CitationVector(v)))
            for i, v in enumerate(vectors)
        ]
        check_exact_order(profiles, sort, descending)


class TestRenderMarkdown:
    def test_single_row(self):
        assert render_markdown(compare([GERMANO])) == (
            "| Name | N_p | N_c_tot | N_c | h | HM |\n"
            "| --- | ---: | ---: | ---: | ---: | ---: |\n"
            "| Germano | 37 | 6235 | 168 | 9 | 30 |\n"
        )

    def test_zero_rows(self):
        assert render_markdown(compare([])) == (
            "| Name | N_p | N_c_tot | N_c | h | HM |\n"
            "| --- | ---: | ---: | ---: | ---: | ---: |\n"
        )

    def test_ctr_table(self):
        assert render_markdown(compare(load_builtin_cohort("ctr"))) == CTR_MARKDOWN

    def test_researchers_hm_column(self):
        text = render_markdown(compare(load_builtin_cohort("researchers")))
        hm_cells = [line.split(" | ")[-1].rstrip(" |") for line in text.splitlines()[2:]]
        assert hm_cells == ["1", "10", "50", "10", "1"]

    def test_missing_h_renders_dash(self):
        text = render_markdown(compare([AuthorProfile("A", AggregateData(4, 10))]))
        assert "| - |" in text

    def test_pipe_in_name_escaped(self):
        text = render_markdown(compare([AuthorProfile("a|b", AggregateData(1, 1))]))
        assert "a\\|b" in text

    @pytest.mark.parametrize(
        "name, cell",
        [("a\\b", "a\\\\b"), ("a\\|b", "a\\\\\\|b"), ("|\\", "\\|\\\\")],
    )
    def test_backslash_in_name_escaped(self, name, cell):
        text = render_markdown(compare([AuthorProfile(name, AggregateData(1, 1))]))
        assert text.splitlines()[2] == f"| {cell} | 1 | 1 | 1 | - | 1 |"


class TestRenderCsv:
    def test_ctr_table(self):
        assert render_csv(compare(load_builtin_cohort("ctr"))) == CTR_CSV

    def test_zero_rows(self):
        assert render_csv(compare([])) == (
            "name,n_papers,total_citations,citations_per_paper,h,hm\n"
        )

    def test_name_only_column(self):
        table = compare(load_builtin_cohort("ctr"), columns=("name",))
        assert render_csv(table) == "name\nGermano\nPiomelli\nMoin\nCabot\n"

    def test_missing_h_is_empty_field(self):
        # per-paper 10/4 truncates to 2; hm 40/26 = 20/13 rounds to 2
        text = render_csv(compare([AuthorProfile("A", AggregateData(4, 10))]))
        assert text.splitlines()[1] == "A,4,10,2,,2"

    def test_comma_in_name_stays_one_record(self):
        text = render_csv(compare([AuthorProfile("Doe, J", AggregateData(1, 1))]))
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[1][0] == "Doe, J"


# the JSON fields of each column, in output order
JSON_FIELDS = {
    "name": ("name",),
    "n_papers": ("n_papers",),
    "total_citations": ("total_citations",),
    "citations_per_paper": ("citations_per_paper", "citations_per_paper_display"),
    "h": ("h", "h_source"),
    "hm": ("hm_exact", "hm_display"),
}


ORACLE_DIVIDE = decimal.Context(prec=12).divide  # 12 significant digits


def oracle_row(row, columns):
    """One row as a dict, each value as the JSON output must carry it."""
    out = {}
    for field in (f for c in columns for f in JSON_FIELDS[c]):
        value = row.name if field == "name" else getattr(row.report, field)
        if isinstance(value, Fraction):
            value = str(ORACLE_DIVIDE(value.numerator, value.denominator))
        elif isinstance(value, HSource):
            value = value.value
        out[field] = value
    return out


fractions_ = st.fractions(min_value=0, max_value=2**40) | st.builds(
    lambda n, d: Fraction(n, d), st.integers(0, 9), st.integers(1, 2**62)
)


@st.composite
def table_rows(draw):
    h = draw(st.none() | st.integers(0, M))
    report = IndexReport(
        n_papers=draw(st.integers(0, M)),
        total_citations=draw(st.integers(0, M)),
        citations_per_paper=draw(fractions_),
        citations_per_paper_display=draw(st.integers(0, M)),
        h=h,
        h_source=None if h is None else draw(st.sampled_from(HSource)),
        hm_exact=draw(fractions_),
        hm_display=draw(st.integers(0, M)),
    )
    return TableRow(draw(st.text(st.characters(exclude_categories=()))), report)


tables = st.builds(
    lambda columns, size, rows: ComparisonTable(tuple(columns[:size]), tuple(rows)),
    st.permutations(COLUMNS),
    st.integers(0, len(COLUMNS)),
    st.lists(table_rows(), max_size=4),
)


class TestRenderJson:
    def test_fraction_str_scientific_form(self):
        # aggregates with far more papers than citations reach this form
        row = '{\n  "citations_per_paper": "%s",\n  "citations_per_paper_display": 0\n}'
        for n_papers, text in (
            (2**31 - 1, "4.65661287525E-10"), (10**6, "0.000001"), (10**7, "1E-7")
        ):
            profile = AuthorProfile("a", AggregateData(n_papers, 1))
            assert json_rows(compare([profile], ["citations_per_paper"])) == [row % text]

    @given(tables)
    @settings(max_examples=300)
    def test_bytes_match_json_dumps(self, table):
        rows = [oracle_row(row, table.columns) for row in table.rows]
        payload = {"columns": list(table.columns), "rows": rows}
        assert render_json(table) == json.dumps(payload, indent=2) + "\n"
        assert json_rows(table) == [json.dumps(row, indent=2) for row in rows]

    @given(st.lists(aggregates, max_size=6))
    def test_unreduced_pairs_give_the_reduced_decimals(self, specs):
        # full_report keeps t/n and nt/(n^2 + t) unreduced; its public
        # constructor reduces them
        reports = [full_report(AuthorProfile("a", AggregateData(*spec))) for spec in specs]
        fields = ("n_papers", "total_citations", "citations_per_paper",
                  "citations_per_paper_display", "h", "h_source", "hm_exact", "hm_display")
        reduced = [IndexReport(*(getattr(r, f) for f in fields)) for r in reports]
        unreduced, public = (
            ComparisonTable(COLUMNS, tuple(TableRow("a", r) for r in rs))
            for rs in (reports, reduced)
        )
        assert json_rows(unreduced) == json_rows(public)

    def test_ctr_row_bytes(self):
        (row,) = json_rows(compare([GERMANO]))
        assert row == (
            '{\n  "name": "Germano",\n  "n_papers": 37,\n  "total_citations": 6235,\n'
            '  "citations_per_paper": "168.513513514",\n'
            '  "citations_per_paper_display": 168,\n  "h": 9,\n'
            '  "h_source": "reported",\n  "hm_exact": "30.3386375592",\n'
            '  "hm_display": 30\n}'
        )

    def test_zero_rows(self):
        assert render_json(compare([], columns=("h", "name"))) == (
            '{\n  "columns": [\n    "h",\n    "name"\n  ],\n  "rows": []\n}\n'
        )


# the Markdown header and the report field each non-name column shows
MD_LABELS = {
    "name": "Name",
    "n_papers": "N_p",
    "total_citations": "N_c_tot",
    "citations_per_paper": "N_c",
    "h": "h",
    "hm": "HM",
}
DISPLAY_FIELD = {
    "n_papers": "n_papers",
    "total_citations": "total_citations",
    "citations_per_paper": "citations_per_paper_display",
    "h": "h",
    "hm": "hm_display",
}


def oracle_cells(row, columns, missing):
    """A row's cells before escaping: the name, str() of each int, and
    ``missing`` for a row without h."""
    cells = []
    for column in columns:
        value = row.name if column == "name" else getattr(row.report, DISPLAY_FIELD[column])
        cells.append(missing if value is None else str(value))
    return cells


def oracle_markdown(table):
    def line(cells):
        return "| " + " | ".join(cells) + " |"

    columns = table.columns
    lines = [
        line(MD_LABELS[c] for c in columns),
        line("---" if c == "name" else "---:" for c in columns),
    ]
    for row in table.rows:
        cells = oracle_cells(row, columns, "-")
        escaped = (
            cell.replace("\\", "\\\\").replace("|", "\\|") if c == "name" else cell
            for c, cell in zip(columns, cells)
        )
        lines.append(line(escaped))
    return "\n".join(lines) + "\n"


def markdown_cells(line):
    """The unescaped cells of one Markdown table line."""
    pieces, piece, chars = [], "", iter(line)
    for char in chars:
        if char == "|":
            pieces.append(piece)
            piece = ""
        else:
            piece += next(chars) if char == "\\" else char
    assert pieces[0] == piece == ""
    assert all(p[0] == p[-1] == " " for p in pieces[1:])
    return [p[1:-1] for p in pieces[1:]]


def listable(table):
    """The table with C0 controls taken out of its names, as the name rule
    requires of every name a parser accepts."""
    rows = (TableRow(re.sub("[\x00-\x1f]", "", r.name), r.report) for r in table.rows)
    return ComparisonTable(table.columns, tuple(rows))


class TestMarkdownAndCsvOracles:
    @given(tables)
    @settings(max_examples=200)
    def test_markdown_matches_oracle_a_line_per_row_a_cell_per_column(self, table):
        assert render_markdown(table) == oracle_markdown(table)
        table = listable(table)
        lines = render_markdown(table).split("\n")
        assert len(lines) == len(table.rows) + 3 and lines[-1] == ""
        if table.columns:  # with none, each line is a bare "|  |"
            assert markdown_cells(lines[0]) == [MD_LABELS[c] for c in table.columns]
            for line, row in zip(lines[2:], table.rows):
                assert markdown_cells(line) == oracle_cells(row, table.columns, "-")

    @given(tables.map(listable))
    @settings(max_examples=200)
    def test_csv_reader_gives_back_the_cells(self, table):
        # C0 names stay out: before 3.12 csv.writer leaves a lone CR unquoted,
        # and 3.10's cannot write NUL
        records = list(csv.reader(io.StringIO(render_csv(table), newline="")))
        expected = [oracle_cells(row, table.columns, "") for row in table.rows]
        assert records == [list(table.columns), *expected]


class TestDeterminism:
    def test_markdown_bytes_stable(self):
        profiles = load_builtin_cohort("ctr")
        assert render_markdown(compare(profiles)) == render_markdown(compare(profiles))

    def test_csv_bytes_stable(self):
        profiles = load_builtin_cohort("researchers")
        assert render_csv(compare(profiles)) == render_csv(compare(profiles))

    def test_cells_match_report_display_fields(self):
        table = compare(load_builtin_cohort("ctr"))
        text = render_csv(table)
        for line, row in zip(text.splitlines()[1:], table.rows):
            fields = line.split(",")
            assert fields[3] == str(row.report.citations_per_paper_display)
            assert fields[5] == str(row.report.hm_display)
