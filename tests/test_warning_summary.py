"""compute shows the first SHOWN_PER_KIND warnings of each kind and counts the
rest; validate lists every one. Both read the one walk of the per-asset rules."""

import logging
import random

import pytest

from ecodiag import cli, inventory, samples
from ecodiag.cli import main
from ecodiag.inventory import (
    ASSET_WARNINGS,
    FLEET_CSV_COLUMNS,
    asset_warning,
    asset_warning_walk,
    validate_fleet,
)
from randgen import random_db, random_fleet

FLEET_HEADER = ",".join(FLEET_CSV_COLUMNS)
GLPI_HEADER = "name,type,model,purchase_date,status"

#: Five assets older than ten years in 2019 and one in-use UPS, whose sample
#: factor has a zero typical power, between them; pc-6 draws no warning.
OLD_FLEET = FLEET_HEADER + """
asset,pc-1,laptop,1,2005,,in_use,,,
asset,ups-1,ups,1,2018,,in_use,,,
asset,pc-2,laptop,1,2006,,in_use,,,
asset,pc-3,laptop,2,2007,,stored,,,
asset,pc-4,laptop,1,2008,,in_use,,,
asset,pc-5,laptop,1,2003,,in_use,,,
asset,pc-6,laptop,1,2015,,in_use,,,
"""

#: validate's output on OLD_FLEET, as it was before compute capped its warnings.
OLD_FLEET_VALIDATE = (
    "warning: pc-1: asset age 14 years (replacement candidate)\n"
    "warning: ups-1: zero-power factor and no measured power: no usage emissions\n"
    "warning: pc-2: asset age 13 years (replacement candidate)\n"
    "warning: pc-3: asset age 12 years (replacement candidate)\n"
    "warning: pc-4: asset age 11 years (replacement candidate)\n"
    "warning: pc-5: asset age 16 years (replacement candidate)\n"
)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "factors.txt").write_text(samples.SAMPLE_FACTOR_FILE, encoding="utf-8")
    (tmp_path / "fleet.csv").write_text(OLD_FLEET, encoding="utf-8")
    (tmp_path / "rules.csv").write_text(samples.SAMPLE_MAPPING_RULES, encoding="utf-8")
    return tmp_path


def fleet_args(command, workdir, inventory_name="fleet.csv", *extra):
    return [command, "--inventory", str(workdir / inventory_name),
            "--factors", str(workdir / "factors.txt"), "--year", "2019", "--perimeter", "demo",
            *extra]


class TestComputeStderr:
    def test_first_three_of_each_kind_then_the_count(self, workdir, capsys):
        assert main(fleet_args("compute", workdir)) == 0
        assert capsys.readouterr().err == (
            "warning: pc-1: asset age 14 years (replacement candidate)\n"
            "warning: ups-1: zero-power factor and no measured power: no usage emissions\n"
            "warning: pc-2: asset age 13 years (replacement candidate)\n"
            "warning: pc-3: asset age 12 years (replacement candidate)\n"
            "warning: 2 more 'asset age' warnings; ecodiag validate lists them all\n"
        )

    def test_validate_lists_every_warning(self, workdir, capsys):
        assert main(fleet_args("validate", workdir)) == 0
        assert capsys.readouterr() == (OLD_FLEET_VALIDATE, "")

    def test_blocking_errors_come_first_and_still_exit_two(self, workdir, capsys):
        text = (workdir / "factors.txt").read_text(encoding="utf-8")
        kept = [l for l in text.splitlines() if not l.startswith("ups,")]
        (workdir / "factors.txt").write_text("\n".join(kept) + "\n", encoding="utf-8")
        assert main(fleet_args("compute", workdir)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: ups: missing factor: ups",
            "warning: pc-1: asset age 14 years (replacement candidate)",
            "warning: pc-2: asset age 13 years (replacement candidate)",
            "warning: pc-3: asset age 12 years (replacement candidate)",
            "warning: 2 more 'asset age' warnings; ecodiag validate lists them all",
        ]

    def test_builds_at_most_three_age_issues(self, workdir, capsys, monkeypatch):
        built = []
        real = inventory.Issue

        def recording(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(inventory, "Issue", recording)
        rows = [f"asset,old-{k},laptop,1,2000,,stored,,," for k in range(1000)]
        (workdir / "fleet.csv").write_text("\n".join([FLEET_HEADER, *rows]) + "\n",
                                           encoding="utf-8")
        assert main(fleet_args("compute", workdir)) == 0
        assert [i.subject_id for i in built] == ["old-0", "old-1", "old-2"]
        assert capsys.readouterr().err.endswith(
            "warning: 997 more 'asset age' warnings; ecodiag validate lists them all\n"
        )


def glpi_rows(n):
    """n records no rule claims and n with an unparsable date, interleaved."""
    rows = []
    for k in range(n):
        rows.append(f"mf-{k},Mainframe,Z,2019-03-01,used")
        rows.append(f"pc-{k},Laptop,L,date {k},used")
    return "\n".join([GLPI_HEADER, *rows]) + "\n"


class TestGlpiRowsNotImported:
    @pytest.fixture
    def glpi(self, workdir):
        (workdir / "glpi.csv").write_text(glpi_rows(5), encoding="utf-8")
        return ["--glpi", "--rules", str(workdir / "rules.csv")]

    @pytest.mark.parametrize("command", ["compute", "scenario"])
    def test_compute_and_scenario_show_three_of_each_reason(self, workdir, glpi, capsys,
                                                            command):
        (workdir / "actions.csv").write_text("", encoding="utf-8")
        extra = glpi
        if command == "scenario":
            extra = [*glpi, "--actions", str(workdir / "actions.csv")]
        assert main(fleet_args(command, workdir, "glpi.csv", *extra)) == 0
        assert capsys.readouterr().err == (
            "warning: GLPI row 2 not imported (no matching rule)\n"
            "warning: GLPI row 3 not imported (unparsable purchase_date: 'date 0')\n"
            "warning: GLPI row 4 not imported (no matching rule)\n"
            "warning: GLPI row 5 not imported (unparsable purchase_date: 'date 1')\n"
            "warning: GLPI row 6 not imported (no matching rule)\n"
            "warning: GLPI row 7 not imported (unparsable purchase_date: 'date 2')\n"
            "warning: 2 more GLPI rows not imported (no matching rule); "
            "ecodiag validate lists them all\n"
            "warning: 2 more GLPI rows not imported (unparsable purchase_date); "
            "ecodiag validate lists them all\n"
        )

    def test_validate_lists_every_row(self, workdir, glpi, capsys):
        assert main(fleet_args("validate", workdir, "glpi.csv", *glpi)) == 0
        out, err = capsys.readouterr()
        assert out == "no issues\n"
        assert err.splitlines() == [
            f"warning: GLPI row {2 * k + 2} not imported (no matching rule)" if j == 0 else
            f"warning: GLPI row {2 * k + 3} not imported (unparsable purchase_date: 'date {k}')"
            for k in range(5) for j in (0, 1)
        ]


#: A record no rule claims, five laptops with an unknown status, then another
#: record no rule claims: rows 2 to 8.
UNKNOWN_STATUSES = "\n".join([
    GLPI_HEADER, "mf-1,Mainframe,Z,2019-03-01,used",
    *(f"pc-{k},Laptop,L,2018-01-01,odd {k}" for k in range(1, 6)),
    "mf-2,Mainframe,Z,2019-03-01,used",
]) + "\n"


def unknown_status_line(row):
    return f"WARNING: GLPI row {row}: unknown status 'odd {row - 2}', assuming in_use"


class TestGlpiUnknownStatuses:
    @pytest.fixture
    def glpi(self, workdir):
        (workdir / "glpi.csv").write_text(UNKNOWN_STATUSES, encoding="utf-8")
        (workdir / "actions.csv").write_text("", encoding="utf-8")
        return ["--glpi", "--rules", str(workdir / "rules.csv")]

    @pytest.mark.parametrize("command", ["compute", "scenario"])
    def test_compute_and_scenario_show_three_then_the_rows_not_imported(self, workdir, glpi,
                                                                        capsys, command):
        extra = [*glpi, "--actions", str(workdir / "actions.csv")] if command == "scenario" else glpi
        assert main(fleet_args(command, workdir, "glpi.csv", *extra)) == 0
        assert capsys.readouterr().err.splitlines() == [
            *map(unknown_status_line, (3, 4, 5)),
            "warning: 2 more GLPI rows with an unknown status; ecodiag validate lists them all",
            "warning: GLPI row 2 not imported (no matching rule)",
            "warning: GLPI row 8 not imported (no matching rule)",
        ]

    def test_validate_lists_all_five(self, workdir, glpi, capsys):
        assert main(fleet_args("validate", workdir, "glpi.csv", *glpi)) == 0
        assert capsys.readouterr() == ("no issues\n", "".join(
            f"{line}\n" for line in [
                *map(unknown_status_line, range(3, 8)),
                "warning: GLPI row 2 not imported (no matching rule)",
                "warning: GLPI row 8 not imported (no matching rule)",
            ]
        ))

    @pytest.mark.parametrize("command", ["compute", "validate"])
    def test_a_failed_import_still_writes_the_warnings_before_its_error(self, workdir, glpi,
                                                                        capsys, command):
        # A control character in row 3's name stops the import before row 4's
        # malformed line; row 2's warning comes first, as the import logged it.
        (workdir / "glpi.csv").write_text(
            f"{GLPI_HEADER}\npc-1,Laptop,X,2018,odd\n\"pc\a\",Laptop,X,2018,used\n"
            "pc-3,lap\rtop,X,2018,used\n", encoding="utf-8",
        )
        assert main(fleet_args(command, workdir, "glpi.csv", *glpi)) == 1
        assert capsys.readouterr().err == (
            "WARNING: GLPI row 2: unknown status 'odd', assuming in_use\n"
            "ecodiag: error: row 3: asset id must not contain control characters: 'pc\\x07'\n"
        )
        assert logging.getLogger("ecodiag.inventory").handlers == []


#: The kind of a warning, told from the start of its message as validate writes it.
MESSAGE_STARTS = {
    "asset age": "asset age ",
    "acquired after the reporting year": "acquired in ",
    "disposed of before the reporting year": "disposed of in ",
    "zero-power": "zero-power factor",
}


def kind_of(issue):
    (kind,) = [k for k, start in MESSAGE_STARTS.items() if issue.message.startswith(start)]
    return kind


class TestOneWalkAgreesWithValidate:
    def test_the_kinds_are_validates(self):
        assert list(ASSET_WARNINGS) == list(MESSAGE_STARTS)

    @pytest.mark.parametrize("seed", range(40))
    def test_shown_are_the_first_of_each_kind_and_counts_add_up(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            db, fleet = random_db(rng), random_fleet(rng, max_entries=60)
            warnings = [i for i in validate_fleet(fleet, db) if i.severity == "warning"]
            # compute's writer over the one walk, recording each warning it formats.
            shown = []

            def line(kind, asset):
                shown.append(asset_warning(kind, asset, fleet.reporting_year))
                return cli._issue_lines(shown[-1:])

            text = cli._summary(asset_warning_walk(fleet, db), cli.SHOWN_PER_KIND, line,
                                "'{}' warnings")
            written = cli._issue_lines(shown)
            assert text.startswith(written)
            left_out = {}
            for count_line in text[len(written):].splitlines():
                n, rest = count_line.removeprefix("warning: ").split(" more '")
                kind, end = rest.split("' ")
                assert end == "warnings; ecodiag validate lists them all"
                left_out[kind] = int(n)
            for kind in ASSET_WARNINGS:
                of_kind = [i for i in warnings if kind_of(i) == kind]
                shown_of_kind = [i for i in shown if kind_of(i) == kind]
                assert shown_of_kind == of_kind[:cli.SHOWN_PER_KIND]
                assert len(shown_of_kind) + left_out.get(kind, 0) == len(of_kind)
            # In validate's order across kinds too, and the counts as kinds first come.
            assert shown == [i for i in warnings if i in shown]
            assert list(left_out) == [k for k in dict.fromkeys(map(kind_of, warnings))
                                      if k in left_out]

    def test_counts_seen_by_a_random_fleet_exceed_the_cap(self):
        # The fleets above are large enough that some kind is counted, not only shown.
        rng = random.Random(0)
        counted = 0
        for _ in range(20):
            db, fleet = random_db(rng), random_fleet(rng, max_entries=60)
            # With no line per warning shown, the writer writes only the count lines.
            text = cli._summary(asset_warning_walk(fleet, db), cli.SHOWN_PER_KIND,
                                lambda kind, asset: "", "'{}' warnings")
            counted += len(text.splitlines())
        assert counted > 0
