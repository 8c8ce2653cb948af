"""Side-by-side comparison tables rendered as Markdown, CSV or JSON.

Renderers only copy the pre-rounded display fields out of each report;
they never round anything themselves, so identical tables always render
to identical bytes. JSON also carries the exact rationals, as decimal
strings.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from .metrics import AuthorProfile, HSource, IndexReport, full_report

__all__ = [
    "COLUMNS",
    "ComparisonTable",
    "TableRow",
    "compare",
    "render_csv",
    "render_markdown",
]

# Exact rationals are emitted as decimal strings with this many
# significant digits, alongside the display integers.
JSON_SIG_DIGITS = 12
_JSON_DECIMALS = Context(prec=JSON_SIG_DIGITS)


class _Column(NamedTuple):
    """One table column. Each field name is ``name`` or an IndexReport field."""

    label: str  # Markdown header; CSV and JSON use the column id itself
    cell: str  # md/csv cell; None renders as "-" in md, empty in csv
    sort: str  # exact sort value; rows where it is None sort last
    json: tuple[str, ...]  # JSON fields, in output order


_COLUMNS = {
    "name": _Column("Name", "name", "name", ("name",)),
    "n_papers": _Column("N_p", "n_papers", "n_papers", ("n_papers",)),
    "total_citations": _Column(
        "N_c_tot", "total_citations", "total_citations", ("total_citations",)
    ),
    "citations_per_paper": _Column(
        "N_c",
        "citations_per_paper_display",
        "citations_per_paper",
        ("citations_per_paper", "citations_per_paper_display"),
    ),
    "h": _Column("h", "h", "h", ("h", "h_source")),
    "hm": _Column("HM", "hm_display", "hm_exact", ("hm_exact", "hm_display")),
}
COLUMNS = tuple(_COLUMNS)
# a getter from a TableRow to each field the columns name
_GET = {
    f: attrgetter(f if f == "name" else f"report.{f}")
    for column in _COLUMNS.values()
    for f in (column.cell, column.sort, *column.json)
}


@dataclass(frozen=True)
class TableRow:
    """One author's report plus the name it is listed under."""

    name: str
    report: IndexReport


@dataclass(frozen=True)
class ComparisonTable:
    columns: tuple[str, ...]
    rows: tuple[TableRow, ...]


def compare(
    profiles: Sequence[AuthorProfile],
    columns: Sequence[str] = COLUMNS,
    sort: str | None = None,
    descending: bool = False,
) -> ComparisonTable:
    """Build a table with one row per profile, in input or sorted order.

    Sorting is stable (ties keep input order) and uses the exact values,
    not the display-rounded ones. When sorting on h, rows without an h
    always come after every row that has one.
    """
    cols = tuple(columns)
    if not cols:
        raise ValueError("at least one column is required")
    unknown = [c for c in cols if c not in COLUMNS]
    if unknown:
        raise ValueError(f"unknown columns: {', '.join(unknown)}")
    if len(set(cols)) != len(cols):
        raise ValueError("duplicate columns")
    if sort is not None and sort not in cols:
        raise ValueError(f"sort key {sort!r} is not among the selected columns")

    rows = [TableRow(p.name, full_report(p)) for p in profiles]
    if sort is not None:
        get = _GET[_COLUMNS[sort].sort]
        present = [r for r in rows if get(r) is not None]
        keys = [get(r) for r in present]
        if keys and type(keys[0]) is Fraction:
            # exact: distinct x with denominators <= D are >= 1/D**2 > 2**-k apart
            k = 2 * max(x.denominator for x in keys).bit_length() + 1
            keys = [(x.numerator << k) // x.denominator for x in keys]
        order = sorted(range(len(present)), key=keys.__getitem__, reverse=descending)
        rows = [present[i] for i in order] + [r for r in rows if get(r) is None]
    return ComparisonTable(columns=cols, rows=tuple(rows))


def _cells(table: ComparisonTable, missing: str):
    getters = [_GET[_COLUMNS[c].cell] for c in table.columns]
    for row in table.rows:
        yield [missing if (v := get(row)) is None else str(v) for get in getters]


def render_markdown(table: ComparisonTable) -> str:
    """Pipe-delimited Markdown: header, alignment row, one row per report."""
    header = "| " + " | ".join(_COLUMNS[c].label for c in table.columns) + " |"
    align = "| " + " | ".join(
        "---" if c == "name" else "---:" for c in table.columns
    ) + " |"
    lines = [header, align]
    for cells in _cells(table, missing="-"):
        escaped = (cell.replace("|", "\\|") for cell in cells)
        lines.append("| " + " | ".join(escaped) + " |")
    return "\n".join(lines) + "\n"


def render_csv(table: ComparisonTable) -> str:
    """CSV with lower_snake_case headers, LF endings, empty field for no h."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(_cells(table, missing=""))
    return out.getvalue()


def fraction_str(value: Fraction) -> str:
    """Decimal string of an exact fraction at JSON_SIG_DIGITS significant digits."""
    num, den = Decimal(value.numerator), Decimal(value.denominator)
    return str(_JSON_DECIMALS.divide(num, den))


def _json_value(value: object) -> object:
    if type(value) is Fraction:  # isinstance() would go through ABCMeta
        return fraction_str(value)
    return value.value if isinstance(value, HSource) else value


def json_rows(table: ComparisonTable) -> list[dict[str, object]]:
    """One object per row holding its columns' JSON fields, in column order."""
    fields = [(f, _GET[f]) for c in table.columns for f in _COLUMNS[c].json]
    return [{f: _json_value(get(row)) for f, get in fields} for row in table.rows]


def render_json(table: ComparisonTable) -> str:
    """JSON object with the column ids and the rows, 2-space indent."""
    payload = {"columns": list(table.columns), "rows": json_rows(table)}
    return json.dumps(payload, indent=2) + "\n"
