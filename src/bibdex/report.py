"""Side-by-side comparison tables rendered as Markdown, CSV or JSON.

Renderers only copy the pre-rounded display fields out of each report;
they never round anything themselves, so identical tables always render
to identical bytes. JSON also carries the exact rationals, as decimal
strings.
"""

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cache
from operator import attrgetter

from .metrics import AuthorProfile, IndexReport, _Record, _set, full_report
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

# One table column. Each formatter maps a TableRow to its cell; a renderer
# picks its formatters once per table.
# label: Markdown header; CSV and JSON use the column id itself
# md: Markdown cell; an int prints as itself
# csv: CSV field; csv.writer prints an int as itself and None as an empty field
# sort: exact sort value, an int pair (num, den) for a fraction; None sorts last
# json: (field, JSON text) pairs, in output order
_Column = namedtuple("_Column", "label md csv sort json")


def _field(name: str):
    return attrgetter(f"report.{name}")


def _or(missing: str, get):  # get's value, with ``missing`` in place of None
    return lambda row: missing if (value := get(row)) is None else value


def _md_name(row) -> str:
    return row.name.replace("\\", "\\\\").replace("|", "\\|")


def _json_name(row) -> str:
    import json  # on first use: md and csv output never load it
    return json.dumps(row.name)


def _json_source(row) -> str:
    source = row.report.h_source
    return "null" if source is None else f'"{source.value}"'


def _count(label: str, field: str) -> _Column:  # an int, the same in every format
    get = _field(field)
    return _Column(label, get, get, get, ((field, get),))


def _exact(label: str, field: str, pair: str, display: str) -> _Column:
    shown, exact = _field(display), _field(pair)  # cells show one, sorts use the other
    json = ((field, lambda row: f'"{_json_divide()(*exact(row))}"'), (display, shown))
    return _Column(label, shown, shown, exact, json)


_name, _h = attrgetter("name"), _field("h")
_COLUMNS = {
    "name": _Column("Name", _md_name, _name, _name, (("name", _json_name),)),
    "n_papers": _count("N_p", "n_papers"),
    "total_citations": _count("N_c_tot", "total_citations"),
    "citations_per_paper": _exact(
        "N_c", "citations_per_paper", "_rate", "citations_per_paper_display"
    ),
    "h": _Column(
        "h", _or("-", _h), _h, _h, (("h", _or("null", _h)), ("h_source", _json_source))
    ),
    "hm": _exact("HM", "hm_exact", "_hm", "hm_display"),
}
COLUMNS = tuple(_COLUMNS)


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
        get = _COLUMNS[sort].sort
        present = [r for r in rows if get(r) is not None]
        keys = list(map(get, present))
        if keys and type(keys[0]) is tuple:
            # exact: distinct x with denominators <= D are >= 1/D**2 > 2**-k apart
            k = 2 * max(den for _, den in keys).bit_length() + 1
            keys = [(num << k) // den for num, den in keys]
        order = sorted(range(len(present)), key=keys.__getitem__, reverse=descending)
        rows = [present[i] for i in order] + [r for r in rows if get(r) is None]
    return ComparisonTable(columns=cols, rows=tuple(rows))


def _cells_by_column(table: ComparisonTable, formatters: list) -> Iterable[tuple]:
    """Each row's tuple of formatted cells, built one column at a time."""
    if not formatters:
        return [()] * len(table.rows)
    return zip(*[map(f, table.rows) for f in formatters])


def render_markdown(table: ComparisonTable) -> str:
    """Pipe-delimited Markdown: header, alignment row, one row per report."""
    row = "| " + " | ".join(["%s"] * len(table.columns)) + " |"
    header = row % tuple(_COLUMNS[c].label for c in table.columns)
    align = row % tuple("---" if c == "name" else "---:" for c in table.columns)
    cells = _cells_by_column(table, [_COLUMNS[c].md for c in table.columns])
    return "\n".join([header, align, *map(row.__mod__, cells)]) + "\n"


def render_csv(table: ComparisonTable) -> str:
    """CSV with lower_snake_case headers, LF endings, empty field for no h."""
    import csv
    import io
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(_cells_by_column(table, [_COLUMNS[c].csv for c in table.columns]))
    return out.getvalue()


@cache
def _json_divide():  # int division to JSON_SIG_DIGITS digits, which is exact
    import decimal  # for the value, reduced or not; md and csv never load decimal
    return decimal.Context(prec=JSON_SIG_DIGITS).divide


def fraction_str(value: "Fraction") -> str:
    """Decimal string of an exact fraction at JSON_SIG_DIGITS significant digits."""
    return str(_json_divide()(value.numerator, value.denominator))


def json_rows(table: ComparisonTable, level: int = 0) -> list[str]:
    """One JSON object per row holding its columns' JSON fields, in column
    order, laid out nested ``level`` deep; fractions become decimal strings."""
    fields = [field for c in table.columns for field in _COLUMNS[c].json]
    template = _indented([f'"{f}": %s' for f, _ in fields], level, "{}")
    return list(map(template.__mod__, _cells_by_column(table, [f for _, f in fields])))


def render_json(table: ComparisonTable) -> str:
    """JSON object with the column ids and the rows, 2-space indent."""
    columns = _indented([f'"{c}"' for c in table.columns], 1)
    rows = _indented(json_rows(table, level=2), 1)
    return _indented([f'"columns": {columns}', f'"rows": {rows}'], 0, "{}") + "\n"
