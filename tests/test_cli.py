"""End-to-end tests of the command line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bibdex import (
    AggregateData,
    AuthorProfile,
    ProfileStore,
    load_builtin_cohort,
    serialize_profile,
)
from bibdex.cli import main

CSV_HEADER = "paper_id,citations"


def write_csv(path, counts):
    rows = [CSV_HEADER] + [f"p{i},{c}" for i, c in enumerate(counts, start=1)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_profile(path, profile):
    path.write_text(serialize_profile(profile), encoding="utf-8")


@pytest.fixture
def ctr_store(tmp_path):
    store = ProfileStore(tmp_path / "store")
    for profile in load_builtin_cohort("ctr"):
        store.save(profile)
    return store


class TestCompute:
    def test_uniform_csv(self, tmp_path, capsys):
        path = tmp_path / "r3.csv"
        write_csv(path, [100] * 100)
        assert main(["compute", "-i", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "| r3 | 100 | 10000 | 100 | 100 | 50 |" in out

    def test_header_only_csv(self, tmp_path, capsys):
        path = tmp_path / "none.csv"
        path.write_text(CSV_HEADER + "\n", encoding="utf-8")
        assert main(["compute", "-i", str(path)]) == 0
        out, _ = capsys.readouterr()
        assert "| none | 0 | 0 | 0 | 0 | 0 |" in out

    def test_missing_file(self, capsys):
        assert main(["compute", "-i", "no/such/file.csv"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "no/such/file.csv" in err

    def test_bad_csv_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("paper_id,citations\np1,-2\n", encoding="utf-8")
        assert main(["compute", "-i", str(path)]) == 1
        _, err = capsys.readouterr()
        assert "line 2" in err

    def test_json_profile(self, tmp_path, capsys):
        path = tmp_path / "germano.json"
        write_profile(path, load_builtin_cohort("ctr")[0])
        assert main(["compute", "-i", str(path)]) == 0
        out, _ = capsys.readouterr()
        assert "| Germano | 37 | 6235 | 168 | 9 | 30 |" in out

    def test_json_format_output(self, tmp_path, capsys):
        path = tmp_path / "germano.json"
        write_profile(path, load_builtin_cohort("ctr")[0])
        assert main(["compute", "-i", str(path), "--format", "json"]) == 0
        out, _ = capsys.readouterr()
        payload = json.loads(out)
        assert payload == {
            "name": "Germano",
            "n_papers": 37,
            "total_citations": 6235,
            "citations_per_paper": "168.513513514",
            "citations_per_paper_display": 168,
            "h": 9,
            "h_source": "reported",
            "hm_exact": "30.3386375592",
            "hm_display": 30,
        }

    def test_kind_overrides_extension(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        write_csv(path, [5, 4, 3, 2, 1])
        assert main(["compute", "-i", str(path), "--kind", "csv"]) == 0
        out, _ = capsys.readouterr()
        assert "| data | 5 | 15 | 3 | 3 | 2 |" in out

    def test_kind_makes_a_bare_name_a_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_csv(tmp_path / "data", [5, 4, 3, 2, 1])
        assert main(["compute", "-i", "data", "--kind", "csv"]) == 0
        out, _ = capsys.readouterr()
        assert "| data | 5 | 15 | 3 | 3 | 2 |" in out

    def test_bare_name_is_a_stored_profile(self, ctr_store, capsys, monkeypatch):
        monkeypatch.setenv("BIBDEX_STORE", str(ctr_store.root))
        assert main(["compute", "-i", "Germano"]) == 0
        out, _ = capsys.readouterr()
        assert "| Germano | 37 | 6235 | 168 | 9 | 30 |" in out

    def test_computed_h_source_in_json(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        write_csv(path, [10, 10])
        main(["compute", "-i", str(path), "--format", "json"])
        out, _ = capsys.readouterr()
        assert json.loads(out)["h_source"] == "computed"


class TestCompare:
    def test_store_names(self, ctr_store, capsys):
        code = main(
            ["compare", "--store", str(ctr_store.root)]
            + ["Germano", "Piomelli", "Moin", "Cabot"]
        )
        assert code == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[2:] == [
            "| Germano | 37 | 6235 | 168 | 9 | 30 |",
            "| Piomelli | 150 | 11467 | 76 | 39 | 51 |",
            "| Moin | 288 | 38042 | 132 | 86 | 91 |",
            "| Cabot | 39 | 9128 | 234 | 21 | 33 |",
        ]

    def test_file_paths(self, tmp_path, capsys):
        paths = []
        for profile in load_builtin_cohort("ctr"):
            path = tmp_path / f"{profile.name}.json"
            write_profile(path, profile)
            paths.append(str(path))
        assert main(["compare", "--format", "csv"] + paths) == 0
        out, _ = capsys.readouterr()
        assert out.splitlines()[1] == "Germano,37,6235,168,9,30"

    def test_csv_path(self, ctr_store, tmp_path, capsys):
        path = tmp_path / "r3.csv"
        write_csv(path, [100] * 100)
        code = main(["compare", "--store", str(ctr_store.root), "Moin", str(path)])
        assert code == 0
        out, _ = capsys.readouterr()
        assert out.splitlines()[3] == "| r3 | 100 | 10000 | 100 | 100 | 50 |"

    def test_working_directory_file_does_not_shadow_store(
        self, ctr_store, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "Germano").write_text("not a profile", encoding="utf-8")
        assert main(["compare", "--store", str(ctr_store.root), "Germano"]) == 0
        out, _ = capsys.readouterr()
        assert "| Germano | 37 | 6235 | 168 | 9 | 30 |" in out

    def test_missing_file_names_input(self, ctr_store, capsys):
        code = main(["compare", "--store", str(ctr_store.root), "x/Moin.json"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bibdex: error: x/Moin.json: ")

    def test_compute_json_is_the_compare_row(self, ctr_store, capsys):
        path = str(ctr_store.path_for("Piomelli"))
        assert main(["compute", "-i", path, "--format", "json"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert main(["compare", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == [single]

    def test_single_input(self, ctr_store, capsys):
        assert main(["compare", "--store", str(ctr_store.root), "Moin"]) == 0
        out, _ = capsys.readouterr()
        assert len(out.splitlines()) == 3

    def test_env_store_fallback(self, ctr_store, capsys, monkeypatch):
        monkeypatch.setenv("BIBDEX_STORE", str(ctr_store.root))
        assert main(["compare", "Cabot"]) == 0
        out, _ = capsys.readouterr()
        assert "| Cabot | 39 | 9128 | 234 | 21 | 33 |" in out

    def test_flag_beats_env(self, ctr_store, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIBDEX_STORE", str(tmp_path / "empty"))
        assert main(["compare", "--store", str(ctr_store.root), "Moin"]) == 0

    def test_every_failure_listed(self, ctr_store, capsys):
        code = main(
            ["compare", "--store", str(ctr_store.root), "Moin", "ghost1", "ghost2"]
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "ghost1" in err and "ghost2" in err

    def test_stored_name_mismatch_is_an_input_error(self, ctr_store, capsys):
        moin = (ctr_store.root / "Moin.json").read_text(encoding="utf-8")
        (ctr_store.root / "Germano.json").write_text(moin, encoding="utf-8")
        assert main(["compare", "--store", str(ctr_store.root), "Germano"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "'Germano'" in err and "'Moin'" in err

    @staticmethod
    def named_file(directory, name):
        aggregate = {"n_papers": 1, "total_citations": 1}
        text = json.dumps({"name": name, "aggregate": aggregate})
        (directory / "x.json").write_text(text, encoding="utf-8")

    def test_markdown_backslash_pipe_name_keeps_six_cells(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        self.named_file(tmp_path, "a\\|b")
        assert main(["compare", "./x.json"]) == 0
        out, _ = capsys.readouterr()
        # GFM: \\ is a literal backslash and \| a literal pipe
        assert out.splitlines()[2] == "| a\\\\\\|b | 1 | 1 | 1 | - | 1 |"

    def test_newline_in_json_name_is_an_input_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        self.named_file(tmp_path, "Ann\nSmith")
        assert main(["compare", "./x.json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bibdex: error: ./x.json: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_surrogate_in_json_name_is_an_input_error(
        self, tmp_path, capsys, monkeypatch, fmt
    ):
        monkeypatch.chdir(tmp_path)
        self.named_file(tmp_path, "\ud800x")
        assert main(["compare", "./x.json", "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "bibdex: error: ./x.json: name is not valid Unicode text: '\\ud800x'\n"
        )

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_undecodable_csv_file_name_is_an_input_error(self, tmp_path, capsys, fmt):
        # the stem of b"\xff\xfe.csv" decodes to "\udcff\udcfe"
        path = os.fsdecode(os.path.join(os.fsencode(tmp_path), b"\xff\xfe.csv"))
        write_csv(Path(path), [1])
        assert main(["compute", "-i", path, "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "bibdex: error: name is not valid Unicode text: '\\udcff\\udcfe'\n"
        )

    @pytest.mark.parametrize("stem", ["a\x01b", "   "])
    def test_unusable_csv_file_name_is_an_input_error(self, tmp_path, capsys, stem):
        path = tmp_path / f"{stem}.csv"
        write_csv(path, [1])
        assert main(["compute", "-i", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bibdex: error: ")

    def test_sort_descending(self, ctr_store, capsys):
        code = main(
            ["compare", "--store", str(ctr_store.root), "--sort", "hm", "--desc"]
            + ["Germano", "Piomelli", "Moin", "Cabot"]
        )
        assert code == 0
        out, _ = capsys.readouterr()
        names = [line.split(" | ")[0].lstrip("| ") for line in out.splitlines()[2:]]
        assert names == ["Moin", "Piomelli", "Cabot", "Germano"]

    def test_json_table(self, ctr_store, capsys):
        code = main(
            ["compare", "--store", str(ctr_store.root), "--format", "json", "Piomelli"]
        )
        assert code == 0
        out, _ = capsys.readouterr()
        payload = json.loads(out)
        assert payload["columns"] == [
            "name",
            "n_papers",
            "total_citations",
            "citations_per_paper",
            "h",
            "hm",
        ]
        row = payload["rows"][0]
        assert row["hm_exact"] == "50.6388553596"
        assert row["hm_display"] == 51


class TestResolve:
    """An argument is a file or a stored name by its text alone."""

    MOIN = AuthorProfile("Moin", AggregateData(288, 38042, reported_h=86))
    MOIN_ROW = "| Moin | 288 | 38042 | 132 | 86 | 91 |"

    @pytest.mark.parametrize("arg", [".json", "./.json", ".JSON"])
    def test_bare_json_ending_is_a_profile_file(
        self, tmp_path, capsys, monkeypatch, arg
    ):
        monkeypatch.chdir(tmp_path)
        write_profile(tmp_path / arg, self.MOIN)
        assert main(["compare", "--store", "store", arg]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[2:] == [self.MOIN_ROW]

    @pytest.mark.parametrize(
        "argv", [["compute", "-i", ".CSV"], ["compare", ".csv"], ["compare", "d/.csv"]]
    )
    def test_bare_csv_ending_is_a_citation_file(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        write_csv(tmp_path / argv[-1], [5, 4, 3, 2, 1])
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        name = os.path.basename(argv[-1])
        assert out.splitlines()[2:] == [f"| {name} | 5 | 15 | 3 | 3 | 2 |"]

    def test_files_and_stored_names_as_before(
        self, ctr_store, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        write_profile(tmp_path / "x.JSON", self.MOIN)
        (tmp_path / "d").mkdir()
        write_csv(tmp_path / "d" / "x.csv", [5, 4, 3, 2, 1])
        (tmp_path / "Germano").write_text("not a profile", encoding="utf-8")
        store = str(ctr_store.root)
        assert main(["compare", "--store", store, "x.JSON", "d/x.csv", "Germano"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[2:] == [
            self.MOIN_ROW,
            "| x | 5 | 15 | 3 | 3 | 2 |",
            "| Germano | 37 | 6235 | 168 | 9 | 30 |",
        ]


class TestDemo:
    def test_researchers_markdown(self, capsys):
        assert main(["demo", "--cohort", "researchers"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == (
            "| Name | N_p | N_c_tot | N_c | h | HM |\n"
            "| --- | ---: | ---: | ---: | ---: | ---: |\n"
            "| Researcher 1 | 1 | 10000 | 10000 | 1 | 1 |\n"
            "| Researcher 2 | 10 | 10000 | 1000 | 10 | 10 |\n"
            "| Researcher 3 | 100 | 10000 | 100 | 100 | 50 |\n"
            "| Researcher 4 | 1000 | 10000 | 10 | 10 | 10 |\n"
            "| Researcher 5 | 10000 | 10000 | 1 | 1 | 1 |\n"
        )

    def test_ctr_csv(self, capsys):
        assert main(["demo", "--cohort", "ctr", "--format", "csv"]) == 0
        out, _ = capsys.readouterr()
        assert [line.split(",")[-1] for line in out.splitlines()] == [
            "hm",
            "30",
            "51",
            "91",
            "33",
        ]

    def test_unknown_cohort(self, capsys):
        assert main(["demo", "--cohort", "nobel"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "researchers" in err and "ctr" in err


class TestValidate:
    @staticmethod
    def aggregate_file(tmp_path, n, total, h):
        path = tmp_path / "p.json"
        write_profile(path, AuthorProfile("P", AggregateData(n, total, reported_h=h)))
        return str(path)

    def test_moin_passes(self, tmp_path, capsys):
        path = self.aggregate_file(tmp_path, 288, 38042, 86)
        assert main(["validate", "-i", path]) == 0
        out, _ = capsys.readouterr()
        assert out.startswith("pass")

    def test_h_above_papers_fails(self, tmp_path, capsys):
        path = self.aggregate_file(tmp_path, 5, 1000, 7)
        assert main(["validate", "-i", path]) == 2
        out, _ = capsys.readouterr()
        assert "h_exceeds_paper_count" in out

    def test_h_squared_fails(self, tmp_path, capsys):
        path = self.aggregate_file(tmp_path, 100, 10, 5)
        assert main(["validate", "-i", path]) == 2
        out, _ = capsys.readouterr()
        assert "h_squared_exceeds_total_citations" in out

    def test_json_format(self, tmp_path, capsys):
        path = self.aggregate_file(tmp_path, 5, 1000, 7)
        assert main(["validate", "-i", path, "--format", "json"]) == 2
        out, _ = capsys.readouterr()
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["violations"][0]["rule"] == "h_exceeds_paper_count"

    @pytest.mark.parametrize(
        ("h", "code", "expected"),
        [
            (2, 0, '{\n  "passed": true,\n  "violations": []\n}\n'),
            (
                40,
                2,
                '{\n  "passed": false,\n  "violations": [\n'
                '    {\n      "rule": "h_exceeds_paper_count",\n'
                '      "message": "h=40 exceeds the paper count 5"\n    },\n'
                '    {\n      "rule": "h_squared_exceeds_total_citations",\n'
                '      "message": "h^2=1600 exceeds the total citations 1000"\n'
                "    }\n  ]\n}\n",
            ),
        ],
    )
    def test_json_bytes(self, tmp_path, capsys, h, code, expected):
        path = self.aggregate_file(tmp_path, 5, 1000, h)
        assert main(["validate", "-i", path, "--format", "json"]) == code
        assert capsys.readouterr().out == expected

    def test_nothing_to_validate(self, tmp_path, capsys):
        path = tmp_path / "full.json"
        path.write_text(
            '{"name":"X","papers":[{"id":"a","citations":3}]}', encoding="utf-8"
        )
        assert main(["validate", "-i", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "bibdex: error: profile 'X' carries no reported h; nothing to validate\n"
        )

    def test_aggregate_without_h_has_nothing_to_validate(self, tmp_path, capsys):
        path = self.aggregate_file(tmp_path, 3, 9, None)
        assert main(["validate", "-i", path]) == 1
        assert capsys.readouterr() == (
            "",
            "bibdex: error: profile 'P' carries no reported h; nothing to validate\n",
        )

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["validate", "-i", str(path)]) == 1


    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main(["validate", "-i", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bibdex: error: not valid JSON")


class TestArgumentErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["demo", "--cohort", "ctr", "--bogus"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "bogus" in err

    def test_missing_command_exits_1(self, capsys):
        assert main([]) == 1

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out, _ = capsys.readouterr()
        assert "compute" in out and "validate" in out


# Run with -S: a site-packages .pth file may import modules (tempfile, typing)
# before bibdex does, which would hide a module that bibdex starts importing.
# argv[1] is a store holding Germano and Moin.
IMPORT_PROBE = """
import io, sys
before = set(sys.modules)
import bibdex.cli
print(*sorted(set(sys.modules) - before))
out, sys.stdout = sys.stdout, io.StringIO()
for argv in (
    ["demo", "--cohort", "ctr"],
    ["demo", "--cohort", "ctr", "--format", "csv"],
    ["compare", "Germano", "Moin", "--store", sys.argv[1]],
    ["demo", "--cohort", "ctr", "--format", "json"],
):
    assert bibdex.cli.main(argv) == 0
    print(*sorted(set(sys.modules) - before), file=out)
"""


def test_import_budget(ctr_store):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, str(ctr_store.root)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    on_import, after_md, after_csv, after_compare, after_json = map(
        set, map(str.split, proc.stdout.splitlines())
    )
    unused = {
        "__future__", "dataclasses", "inspect", "typing", "json", "csv", "tempfile"
    }
    exact = {"fractions", "decimal", "numbers"}  # only JSON output needs them
    assert "bibdex.cli" in on_import
    assert not on_import & (unused | exact)
    assert not after_md & ({"json", "csv"} | exact)
    assert "csv" in after_csv and not after_csv & ({"json"} | exact)
    assert not after_compare & ({"json"} | exact)  # stored files skip json
    assert {"json", "decimal"} <= after_json
