"""Expected bibdex output, computed with integer arithmetic only.

Nothing here imports bibdex. Every cell is derived from the raw counts:

* h by counting how many papers have at least k citations;
* N_c = t // n (truncated);
* HM = (2nt + n^2 + t) // (2(n^2 + t)), i.e. n*t/(n^2 + t) rounded half up;
* the exact rationals as 12-significant-digit Decimal strings.

The renderers below reproduce the documented stdout contract of the
``compute``, ``compare``, ``demo`` and ``validate`` commands byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal, localcontext

SIG_DIGITS = 12
COLUMNS = ("name", "n_papers", "total_citations", "citations_per_paper", "h", "hm")
SORT_KEYS = (None,) + COLUMNS
FORMATS = ("md", "csv", "json")
MAX_FIELD_VALUE = 2**31 - 1

_MD_HEADER = "| Name | N_p | N_c_tot | N_c | h | HM |\n"
_MD_ALIGN = "| --- | ---: | ---: | ---: | ---: | ---: |\n"
# Exact order of two rationals below 2**63 in numerator and denominator is
# preserved by the integer key (num << 128) // den.
_KEY_SHIFT = 128

# The bundled demo cohorts, as published: (n_papers, per-paper count) and
# (name, n_papers, total_citations, reported h).
RESEARCHERS = ((1, 10000), (10, 1000), (100, 100), (1000, 10), (10000, 1))
CTR = (
    ("Germano", 37, 6235, 9),
    ("Piomelli", 150, 11467, 39),
    ("Moin", 288, 38042, 86),
    ("Cabot", 39, 9128, 21),
)


def h_by_count(counts) -> int:
    """Largest k with at least k papers cited at least k times."""
    n = len(counts)
    capped = [0] * (n + 1)
    for c in counts:
        capped[min(c, n)] += 1
    have = 0
    for k in range(n, 0, -1):
        have += capped[k]
        if have >= k:
            return k
    return 0


def decimal_str(num: int, den: int) -> str:
    with localcontext() as ctx:
        ctx.prec = SIG_DIGITS
        return str(Decimal(num) / Decimal(den))


@dataclass(frozen=True)
class Row:
    """Every cell bibdex should print for one author."""

    name: str
    n: int
    t: int
    h: int | None
    h_source: str | None

    @property
    def n_c(self) -> int:
        return self.t // self.n if self.n else 0

    @property
    def hm(self) -> int:
        n, t = self.n, self.t
        return (2 * n * t + n * n + t) // (2 * (n * n + t)) if n else 0

    @property
    def cpp_str(self) -> str:
        return decimal_str(self.t, self.n) if self.n else "0"

    @property
    def hm_str(self) -> str:
        n, t = self.n, self.t
        return decimal_str(n * t, n * n + t) if n else "0"

    def sort_key(self, column: str):
        """Exact sort key for every column but h, which ``sort_rows`` handles."""
        n, t = self.n, self.t
        if column == "name":
            return self.name
        if column == "n_papers":
            return n
        if column == "total_citations":
            return t
        if column == "citations_per_paper":
            return (t << _KEY_SHIFT) // n if n else 0
        return ((n * t) << _KEY_SHIFT) // (n * n + t) if n else 0  # hm

    def matches_report(self, report) -> bool:
        """True when an IndexReport carries exactly these values.

        The exact fractions are compared by cross-multiplication.
        """
        n, t = self.n, self.t
        source = report.h_source.value if report.h_source is not None else None
        cpp, hm = report.citations_per_paper, report.hm_exact
        if n:
            exact = (
                cpp.numerator * n == t * cpp.denominator
                and hm.numerator * (n * n + t) == n * t * hm.denominator
            )
        else:
            exact = cpp == 0 and hm == 0
        return (
            exact
            and report.n_papers == n
            and report.total_citations == t
            and report.citations_per_paper_display == self.n_c
            and report.hm_display == self.hm
            and report.h == self.h
            and source == self.h_source
        )


def full_row(name: str, counts) -> Row:
    if not counts:
        return Row(name, 0, 0, 0, "computed")
    return Row(name, len(counts), sum(counts), h_by_count(counts), "computed")


def aggregate_row(name: str, n: int, t: int, reported_h: int | None) -> Row:
    if n == 0:
        return Row(name, 0, 0, 0, "computed")
    if reported_h is None:
        return Row(name, n, t, None, None)
    return Row(name, n, t, reported_h, "reported")


def sort_rows(rows, key: str | None, desc: bool):
    """Stable sort as documented: rows without h go last on an h sort."""
    if key is None:
        return list(rows)
    if key == "h":
        with_h = [r for r in rows if r.h is not None]
        without_h = [r for r in rows if r.h is None]
        return sorted(with_h, key=lambda r: r.h, reverse=desc) + without_h
    return sorted(rows, key=lambda r: r.sort_key(key), reverse=desc)


def render_md(rows) -> str:
    lines = [_MD_HEADER, _MD_ALIGN]
    for r in rows:
        h = "-" if r.h is None else str(r.h)
        name = r.name.replace("|", "\\|")
        lines.append(f"| {name} | {r.n} | {r.t} | {r.n_c} | {h} | {r.hm} |\n")
    return "".join(lines)


def render_csv(rows) -> str:
    lines = [",".join(COLUMNS) + "\n"]
    for r in rows:
        h = "" if r.h is None else str(r.h)
        lines.append(f"{r.name},{r.n},{r.t},{r.n_c},{h},{r.hm}\n")
    return "".join(lines)


def _row_json(r: Row) -> dict:
    return {
        "n_papers": r.n,
        "total_citations": r.t,
        "citations_per_paper": r.cpp_str,
        "citations_per_paper_display": r.n_c,
        "h": r.h,
        "h_source": r.h_source,
        "hm_exact": r.hm_str,
        "hm_display": r.hm,
    }


def render_table_json(rows) -> str:
    body = {"columns": list(COLUMNS), "rows": [{"name": r.name, **_row_json(r)} for r in rows]}
    return json.dumps(body, indent=2) + "\n"


def render_table(rows, fmt: str) -> str:
    if fmt == "md":
        return render_md(rows)
    if fmt == "csv":
        return render_csv(rows)
    return render_table_json(rows)


def render_compute(row: Row, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"name": row.name, **_row_json(row)}, indent=2) + "\n"
    return render_table([row], fmt)


def violations(n: int, t: int, h: int) -> list[tuple[str, str]]:
    found = []
    if h > n:
        found.append(("h_exceeds_paper_count", f"h={h} exceeds the paper count {n}"))
    if h * h > t:
        found.append(
            (
                "h_squared_exceeds_total_citations",
                f"h^2={h * h} exceeds the total citations {t}",
            )
        )
    return found


def render_validate(n: int, t: int, h: int, fmt: str) -> tuple[int, str]:
    """Expected (exit code, stdout) of ``validate`` on an aggregate with h."""
    found = violations(n, t, h)
    if fmt == "json":
        body = {
            "passed": not found,
            "violations": [{"rule": r, "message": m} for r, m in found],
        }
        out = json.dumps(body, indent=2) + "\n"
    elif not found:
        out = f"pass: h={h} is consistent with {n} papers and {t} citations\n"
    else:
        out = f"fail: {len(found)} violation(s)\n" + "".join(
            f"  {r}: {m}\n" for r, m in found
        )
    return (2 if found else 0), out


def cohort_rows(cohort: str) -> list[Row]:
    if cohort == "researchers":
        return [
            full_row(f"Researcher {i}", (per_paper,) * n)
            for i, (n, per_paper) in enumerate(RESEARCHERS, start=1)
        ]
    return [aggregate_row(name, n, t, h) for name, n, t, h in CTR]
