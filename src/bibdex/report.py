"""Side-by-side comparison tables rendered as Markdown, CSV or JSON.

Renderers only copy the pre-rounded display fields out of each report;
they never round anything themselves, so identical tables always render
to identical bytes. JSON also carries the exact rationals, as decimal
strings.
"""

from collections import namedtuple
from collections.abc import Sequence
from decimal import Context, Decimal
from fractions import Fraction
from operator import attrgetter

from .metrics import AuthorProfile, HSource, IndexReport, _Record, _set, full_report
from .profiles import _indented

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


# One table column. Each field name is ``name`` or an IndexReport field.
# label: Markdown header; CSV and JSON use the column id itself
# cell: md/csv cell; None renders as "-" in md, empty in csv
# sort: exact sort value; rows where it is None sort last
# json: JSON fields, in output order
_Column = namedtuple("_Column", "label cell sort json")

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


class TableRow(_Record):
    """One author's report plus the name it is listed under."""

    __slots__ = ("name", "report")

    def __init__(self, name: str, report: IndexReport):
        _set(self, "name", name)
        _set(self, "report", report)


class ComparisonTable(_Record):
    __slots__ = ("columns", "rows")

    def __init__(self, columns: tuple[str, ...], rows: tuple[TableRow, ...]):
        _set(self, "columns", columns)
        _set(self, "rows", rows)


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
        escaped = (c.replace("\\", "\\\\").replace("|", "\\|") for c in cells)
        lines.append("| " + " | ".join(escaped) + " |")
    return "\n".join(lines) + "\n"


def render_csv(table: ComparisonTable) -> str:
    """CSV with lower_snake_case headers, LF endings, empty field for no h."""
    import csv
    import io
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(_cells(table, missing=""))
    return out.getvalue()


def fraction_str(value: Fraction) -> str:
    """Decimal string of an exact fraction at JSON_SIG_DIGITS significant digits."""
    num, den = Decimal(value.numerator), Decimal(value.denominator)
    return str(_JSON_DECIMALS.divide(num, den))


def json_rows(table: ComparisonTable, level: int = 0) -> list[str]:
    """One JSON object per row holding its columns' JSON fields, in column
    order, laid out nested ``level`` deep; Fractions become decimal strings."""
    import json
    fields = [(f, _GET[f]) for c in table.columns for f in _COLUMNS[c].json]
    template = _indented([f'"{f}": %s' for f, _ in fields], level, "{}")

    def text(value: object) -> str:
        if type(value) is int:
            return str(value)
        if value is None:
            return "null"
        if type(value) is Fraction:  # isinstance() would go through ABCMeta
            return f'"{fraction_str(value)}"'
        return json.dumps(value.value if isinstance(value, HSource) else value)

    return [template % tuple([text(get(row)) for _, get in fields]) for row in table.rows]


def render_json(table: ComparisonTable) -> str:
    """JSON object with the column ids and the rows, 2-space indent."""
    columns = _indented([f'"{c}"' for c in table.columns], 1)
    rows = _indented(json_rows(table, level=2), 1)
    return _indented([f'"columns": {columns}', f'"rows": {rows}'], 0, "{}") + "\n"
