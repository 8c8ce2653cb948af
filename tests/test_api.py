"""The public surface: ``bibdex.__all__`` and what it binds."""

import bibdex
from bibdex import metrics, profiles, report

# every public name, under the module that defines it
PUBLIC = {
    metrics: {
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
    },
    profiles: {
        "Cohort",
        "CsvError",
        "CsvFormatError",
        "CsvValueError",
        "DuplicatePaperIdError",
        "ProfileError",
        "ProfileNotFoundError",
        "ProfileSchemaError",
        "ProfileStore",
        "ProfileValueError",
        "StoreError",
        "UnknownCohortError",
        "load_builtin_cohort",
        "parse_citation_csv",
        "parse_profile_json",
        "serialize_profile",
    },
    report: {
        "COLUMNS",
        "ComparisonTable",
        "TableRow",
        "compare",
        "render_csv",
        "render_markdown",
    },
}


def test_all_is_pinned():
    names = set().union(*PUBLIC.values())
    assert len(names) == len(bibdex.__all__) == 43
    assert set(bibdex.__all__) == names


def test_each_name_is_its_defining_modules_object():
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(bibdex, name) is getattr(module, name), name


def test_each_module_declares_its_own_names():
    for module, names in PUBLIC.items():
        assert set(module.__all__) == names, module.__name__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from bibdex import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(bibdex.__all__)
