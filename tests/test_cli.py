"""End-to-end tests of the command-line interface and its exit-code contract."""

import codecs
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from ecodiag import cli, inventory, samples
from ecodiag import aggregate, compute_fleet, load_factor_db, merge_factors, render
from ecodiag.cli import main
from ecodiag.errors import EcodiagError
from ecodiag.inventory import (
    FLEET_CSV_COLUMNS,
    Asset,
    Fleet,
    parse_fleet_csv,
    parse_glpi_export,
    parse_mapping_rules,
    render_fleet_csv,
)
from ecodiag.report import factor_db_identity, parse_actions_csv
from fleet_strategies import boundary_texts, report_json_texts

FLEET_HEADER = ",".join(FLEET_CSV_COLUMNS)
GLPI_HEADER = "name,type,model,purchase_date,status"

PERIMETER = samples.SAMPLE_PERIMETER
REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "factors.txt").write_text(samples.SAMPLE_FACTOR_FILE, encoding="utf-8")
    (tmp_path / "fleet.csv").write_text(samples.sample_fleet_csv(), encoding="utf-8")
    (tmp_path / "rules.csv").write_text(samples.SAMPLE_MAPPING_RULES, encoding="utf-8")
    return tmp_path


def compute_args(workdir, *extra):
    return [
        "compute",
        "--inventory", str(workdir / "fleet.csv"),
        "--factors", str(workdir / "factors.txt"),
        "--year", "2019",
        "--perimeter", PERIMETER,
        *extra,
    ]


class TestCompute:
    def test_markdown_report_exit_zero(self, workdir, capsys):
        assert main(compute_args(workdir)) == 0
        out = capsys.readouterr().out
        assert "Annual IT fleet CO₂e assessment (2019)" in out
        assert PERIMETER in out

    def test_missing_factor_exits_two(self, workdir, capsys):
        # Strip the laptop row from the factor file; the fleet uses laptops.
        text = (workdir / "factors.txt").read_text(encoding="utf-8")
        kept = [l for l in text.splitlines() if not l.startswith("laptop,")]
        (workdir / "factors.txt").write_text("\n".join(kept) + "\n", encoding="utf-8")
        assert main(compute_args(workdir)) == 2
        err = capsys.readouterr().err
        assert "missing factor: laptop" in err

    def test_nonexistent_inventory_exits_one(self, workdir, capsys):
        args = compute_args(workdir)
        args[args.index("--inventory") + 1] = str(workdir / "ghost.csv")
        assert main(args) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_factor_file_exits_one(self, workdir, capsys):
        (workdir / "factors.txt").write_text("[factors]\nlaptop,oops\n", encoding="utf-8")
        assert main(compute_args(workdir)) == 1
        assert "line 2" in capsys.readouterr().err

    def test_oversized_factor_field_exits_one(self, workdir, capsys):
        # Past the csv module's field size limit (131,072 characters).
        text = "[factors]\nlaptop," + "9" * 131073 + "\n"
        (workdir / "factors.txt").write_text(text, encoding="utf-8")
        assert main(["factors", "--factors", str(workdir / "factors.txt")]) == 1
        assert "ecodiag: error: line 2: malformed CSV" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row", ["asset,big,laptop,{n},2019,,in_use,,,", "cable,,cable_hdmi,{n},,,,,,"]
    )
    def test_count_beyond_float_precision_exits_one(self, workdir, capsys, row):
        fleet = workdir / "fleet.csv"
        rows = fleet.read_text(encoding="utf-8").splitlines()
        fleet.write_text("\n".join([*rows, row.format(n="9" * 401)]) + "\n", encoding="utf-8")
        assert main(compute_args(workdir)) == 1
        err = capsys.readouterr().err
        assert f"ecodiag: error: row {len(rows) + 1}: " in err and "at most 2**53" in err

    def test_repeated_cable_category_exits_one_naming_the_second_row(self, workdir, capsys):
        fleet = workdir / "fleet.csv"
        rows = fleet.read_text(encoding="utf-8").splitlines()
        assert [r for r in rows if r.startswith("cable,")] == ["cable,,cable_cat5,20,,,,,,"]
        fleet.write_text("\n".join([*rows, "cable,,cable_cat5,3,,,,,,"]) + "\n", encoding="utf-8")
        assert main(compute_args(workdir)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"ecodiag: error: row {len(rows) + 1}: duplicate cable category: cable_cat5\n"

    def test_byte_identical_output_files(self, workdir):
        out1, out2 = workdir / "r1.md", workdir / "r2.md"
        assert main(compute_args(workdir, "--out", str(out1))) == 0
        assert main(compute_args(workdir, "--out", str(out2))) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_inputs_never_mutated(self, workdir):
        before = (
            (workdir / "fleet.csv").read_bytes(),
            (workdir / "factors.txt").read_bytes(),
        )
        assert main(compute_args(workdir)) == 0
        after = (
            (workdir / "fleet.csv").read_bytes(),
            (workdir / "factors.txt").read_bytes(),
        )
        assert before == after

    def test_grid_override_scales_s2(self, workdir):
        def s2_total(*extra):
            out = workdir / "out.json"
            assert main(compute_args(workdir, "--format", "json", "--out", str(out), *extra)) == 0
            return json.loads(out.read_text())["totals_by_scope"]["S2"]

        assert s2_total("--grid-factor", "0.238") == pytest.approx(2 * s2_total(), rel=1e-9)

    def test_factors_from_environment(self, workdir, monkeypatch, capsys):
        monkeypatch.setenv("ECODIAG_FACTORS", str(workdir / "factors.txt"))
        args = compute_args(workdir)
        i = args.index("--factors")
        del args[i : i + 2]
        assert main(args) == 0

    def test_no_factors_anywhere_exits_one(self, workdir, monkeypatch, capsys):
        monkeypatch.delenv("ECODIAG_FACTORS", raising=False)
        args = compute_args(workdir)
        i = args.index("--factors")
        del args[i : i + 2]
        assert main(args) == 1
        assert "ECODIAG_FACTORS" in capsys.readouterr().err

    def test_json_format(self, workdir, capsys):
        assert main(compute_args(workdir, "--format", "json")) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["reporting_year"] == 2019
        assert data["factor_db_hash"].startswith("factors.txt:sha256:")

    def test_scenario_reports_name_their_factor_set(self, workdir, capsys):
        (workdir / "actions.csv").write_text("remove,srv-old\n", encoding="utf-8")
        args = compute_args(workdir, "--actions", str(workdir / "actions.csv"))
        args[0] = "scenario"
        assert main(args + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        db_hash = data["baseline"]["factor_db_hash"]
        assert db_hash.startswith("factors.txt:sha256:")
        assert data["variant"]["factor_db_hash"] == db_hash
        assert main(args) == 0
        assert capsys.readouterr().out.endswith(f"\n\nFactor set: {db_hash}\n")

    def test_glpi_inventory(self, workdir, capsys):
        (workdir / "glpi.csv").write_text(
            "name,type,model,purchase_date,status\n"
            "pc-1,Laptop Dell,L5400,2019-03-01,en service\n"
            "mf-1,Mainframe,Z,2019-03-01,en service\n",
            encoding="utf-8",
        )
        args = compute_args(workdir, "--glpi", "--rules", str(workdir / "rules.csv"))
        args[args.index("--inventory") + 1] = str(workdir / "glpi.csv")
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "not imported" in captured.err
        assert "Annual IT fleet" in captured.out

    def test_glpi_stderr_in_order(self, workdir):
        # Logged status warnings come while parsing, before the rows not
        # imported, and validation issues come last.
        (workdir / "glpi.csv").write_text(
            f"{GLPI_HEADER}\n"
            "pc-1,Laptop Dell,L5400,2019-03-01,en service\n"
            "mf-1,Mainframe,Z,2019-03-01,en service\n"
            "pc-2,Laptop,L,2018-01-01,cassé\n"
            "pc-3,Laptop,L,2005-01-01,used\n"
            "pc-4,Laptop,L,someday,used\n"
            "pc-5,Laptop,L,2006-01-01,perdu\n",
            encoding="utf-8",
        )
        args = compute_args(workdir, "--glpi", "--rules", str(workdir / "rules.csv"))
        args[args.index("--inventory") + 1] = str(workdir / "glpi.csv")
        proc = run_python("-m", "ecodiag", *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (
            "WARNING: GLPI row 4: unknown status 'cassé', assuming in_use\n"
            "WARNING: GLPI row 7: unknown status 'perdu', assuming in_use\n"
            "warning: GLPI row 3 not imported (no matching rule)\n"
            "warning: GLPI row 6 not imported (unparsable purchase_date: 'someday')\n"
            "warning: pc-3: asset age 14 years (replacement candidate)\n"
            "warning: pc-5: asset age 13 years (replacement candidate)\n"
        )

    def test_glpi_without_rules_exits_one(self, workdir, capsys):
        args = compute_args(workdir, "--glpi")
        assert main(args) == 1

    def test_missing_required_flag_exits_one(self, workdir):
        assert main(["compute", "--inventory", str(workdir / "fleet.csv")]) == 1


class TestValidate:
    def base(self, workdir, *extra):
        args = compute_args(workdir, *extra)
        args[0] = "validate"
        return args

    def test_clean_fleet_exit_zero_with_warnings(self, workdir, capsys):
        assert main(self.base(workdir)) == 0
        out = capsys.readouterr().out
        assert "warning" in out  # old servers in the sample fleet

    def test_fleet_using_category_without_factor_exits_two(self, workdir, capsys):
        text = (workdir / "factors.txt").read_text(encoding="utf-8")
        kept = [l for l in text.splitlines() if not l.startswith("server,")]
        (workdir / "factors.txt").write_text("\n".join(kept) + "\n", encoding="utf-8")
        assert main(self.base(workdir)) == 2
        assert "missing factor: server" in capsys.readouterr().out

    def test_no_issues_message(self, workdir, capsys):
        (workdir / "tiny.csv").write_text(
            "kind,id,category,quantity,acquisition_year,disposal_year,status,"
            "measured_power_w,vendor_fab_kgco2e,extra\n"
            "asset,pc,laptop,1,2019,,in_use,,,\n",
            encoding="utf-8",
        )
        args = self.base(workdir)
        args[args.index("--inventory") + 1] = str(workdir / "tiny.csv")
        assert main(args) == 0
        assert "no issues" in capsys.readouterr().out

    @pytest.mark.parametrize("factors", ["factors.txt", "server-less.txt"])
    def test_out_holds_what_stdout_shows(self, workdir, capsys, factors):
        text = (workdir / "factors.txt").read_text(encoding="utf-8")
        kept = [l for l in text.splitlines() if not l.startswith("server,")]
        (workdir / "server-less.txt").write_text("\n".join(kept) + "\n", encoding="utf-8")
        args = self.base(workdir)
        args[args.index("--factors") + 1] = str(workdir / factors)
        code = main(args)
        shown = capsys.readouterr().out
        assert main([*args, "--out", str(workdir / "v.txt")]) == code
        assert capsys.readouterr().out == ""
        assert (workdir / "v.txt").read_text(encoding="utf-8") == shown

    def test_format_is_a_usage_error(self, workdir, capsys):
        assert main(self.base(workdir, "--format", "json")) == 1
        assert "unrecognized arguments: --format json" in capsys.readouterr().err


class TestCompare:
    def make_report(self, workdir, year, name):
        path = workdir / name
        assert main(compute_args(workdir, "--format", "json", "--out", str(path))) == 0
        data = json.loads(path.read_text())
        data["reporting_year"] = year
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        return path

    def test_two_reports(self, workdir, capsys):
        a = self.make_report(workdir, 2018, "a.json")
        b = self.make_report(workdir, 2019, "b.json")
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "Year-over-year comparison" in out
        assert "| 2018 |" in out and "| 2019 |" in out

    def test_single_report_is_usage_error(self, workdir, capsys):
        a = self.make_report(workdir, 2018, "a.json")
        assert main(["compare", str(a)]) == 1
        assert "need at least two reports to compare" in capsys.readouterr().err

    def test_mismatched_perimeters_warn_but_succeed(self, workdir, capsys):
        a = self.make_report(workdir, 2018, "a.json")
        b = self.make_report(workdir, 2019, "b.json")
        data = json.loads(b.read_text())
        data["perimeter"] = "someone else's lab"
        b.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        assert main(["compare", str(a), str(b)]) == 0
        assert "perimeter mismatch" in capsys.readouterr().err

    def test_bad_json_exits_one(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        a = self.make_report(workdir, 2018, "a.json")
        assert main(["compare", str(a), str(bad)]) == 1

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda d: d["totals_by_scope"].pop("S2"), "totals_by_scope.S2"),
            (lambda d: d.update(totals_by_group=[1.0, 2.0]), "totals_by_group"),
            (lambda d: d.update(reporting_year="2019"), "reporting_year"),
        ],
    )
    def test_malformed_report_names_the_key(self, workdir, capsys, edit, key):
        a = self.make_report(workdir, 2018, "a.json")
        b = self.make_report(workdir, 2019, "b.json")
        data = json.loads(b.read_text())
        edit(data)
        b.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ecodiag: error: ") and key in err

    def test_tiny_earlier_total_gives_a_null_pct(self, workdir, capsys):
        # A laptop at 1e-310 W totals about 1.9e-311 kg; the next year's 100 W
        # one makes a percentage change that overflows.
        reports = []
        for year, power in ((2018, "1e-310"), (2019, "100")):
            fleet = workdir / f"fleet{year}.csv"
            fleet.write_text(f"{FLEET_HEADER}\nasset,pc,laptop,1,2015,,in_use,{power},,\n",
                             encoding="utf-8")
            reports.append(str(workdir / f"{year}.json"))
            args = compute_args(workdir, "--format", "json", "--out", reports[-1])
            args[args.index("--inventory") + 1] = str(fleet)
            args[args.index("--year") + 1] = str(year)
            assert main(args) == 0
        capsys.readouterr()
        assert main(["compare", *reports, "--format", "json"]) == 0
        out = capsys.readouterr().out
        (delta,) = json.loads(out)["deltas"]
        assert 0 < json.loads(out)["grand_totals"][0] < 1e-300
        assert delta["delta_pct"] is None and "Infinity" not in out

    def test_negative_total_exits_one(self, workdir, capsys):
        # -1.7e308 against 1.7e308 would make a delta that overflows to Infinity.
        reports = []
        for year, total in ((2019, -1.7e308), (2020, 1.7e308)):
            data = json.loads((GOLDEN / "report_2019.json").read_text(encoding="utf-8"))
            data.update(reporting_year=year, grand_total_kgco2e=total)
            reports.append(workdir / f"{year}.json")
            reports[-1].write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["compare", *map(str, reports), "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("ecodiag: error: report JSON key grand_total_kgco2e must be a finite")

    def test_null_report_exits_one(self, workdir, capsys):
        a = self.make_report(workdir, 2018, "a.json")
        (workdir / "null.json").write_text("null", encoding="utf-8")
        capsys.readouterr()
        assert main(["compare", str(a), str(workdir / "null.json")]) == 1
        assert capsys.readouterr().err.startswith("ecodiag: error: report JSON must be an object")


class TestScenario:
    def base(self, workdir, actions_name="actions.csv"):
        args = compute_args(workdir)
        args[0] = "scenario"
        args += ["--actions", str(workdir / actions_name)]
        return args

    def test_replacement_prints_payback(self, workdir, capsys):
        (workdir / "actions.csv").write_text(
            "replace,srv-old,srv-2019,server,14,2019,,in_use,180,,\n", encoding="utf-8"
        )
        assert main(self.base(workdir)) == 0
        out = capsys.readouterr().out
        assert "Payback:" in out and "years" in out

    def test_empty_actions_zero_delta(self, workdir, capsys):
        (workdir / "actions.csv").write_text("# nothing\n", encoding="utf-8")
        assert main(self.base(workdir)) == 0
        assert "Delta: +0.0 kgCO₂e" in capsys.readouterr().out

    def test_savings_too_small_for_a_finite_payback(self, workdir, capsys):
        fleet = FLEET_HEADER + "\nasset,pc,laptop,1,2015,,in_use,1e-300,,\n"
        (workdir / "fleet.csv").write_text(fleet, encoding="utf-8")
        (workdir / "actions.csv").write_text(
            "replace,pc,pc-new,laptop,1,2019,,in_use,0,1e300,\n", encoding="utf-8"
        )
        assert main([*self.base(workdir), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert "Infinity" not in out
        assert json.loads(out)["payback_years"] is None
        assert main(self.base(workdir)) == 0
        assert "Payback: n/a\n" in capsys.readouterr().out

    def test_bad_target_exits_two(self, workdir, capsys):
        (workdir / "actions.csv").write_text("remove,ghost\n", encoding="utf-8")
        assert main(self.base(workdir)) == 2
        assert "ghost" in capsys.readouterr().err

    def test_malformed_actions_file_exits_one(self, workdir, capsys):
        (workdir / "actions.csv").write_text("upgrade,srv-old\n", encoding="utf-8")
        assert main(self.base(workdir)) == 1
        assert "unknown op" in capsys.readouterr().err

    def test_builds_no_warning(self, workdir, capsys, monkeypatch):
        built = []
        real = inventory.Issue

        def recording(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(inventory, "Issue", recording)
        # The sample fleet holds assets older than ten years: compute warns.
        (workdir / "actions.csv").write_text("remove,crt-stock\n", encoding="utf-8")
        assert main(self.base(workdir)) == 0
        assert built == [] and capsys.readouterr().err == ""
        assert main(compute_args(workdir)) == 0
        assert {i.severity for i in built} == {"warning"}
        assert "warning: srv-old: asset age 14 years" in capsys.readouterr().err

    def test_blocking_issues_exit_two_with_only_the_errors(self, workdir, capsys):
        text = (workdir / "factors.txt").read_text(encoding="utf-8")
        kept = [l for l in text.splitlines() if not l.startswith(("laptop,", "server,"))]
        (workdir / "factors.txt").write_text("\n".join(kept) + "\n", encoding="utf-8")
        with (workdir / "fleet.csv").open("a", encoding="utf-8") as fleet:
            fleet.write("room,cold,,,,,,,,fluid=R999;leak_kg=1\ncampaign,idle,,,,,,,,\n")
        (workdir / "actions.csv").write_text("remove,crt-stock\n", encoding="utf-8")
        assert main(self.base(workdir)) == 2
        assert capsys.readouterr() == ("", (
            "error: laptop: missing factor: laptop\n"
            "error: server: missing factor: server\n"
            "error: cold: unknown refrigerant fluid: R999\n"
            "error: idle: campaign declares neither kwh nor (core_hours, watts_per_core)\n"
        ))

    @pytest.mark.parametrize("fleet_lacks_one_too", [False, True])
    def test_new_asset_without_a_factor_exits_two(self, workdir, capsys, fleet_lacks_one_too):
        text = (workdir / "factors.txt").read_text(encoding="utf-8")
        dropped = ("tablet,", "laptop,") if fleet_lacks_one_too else ("tablet,",)
        kept = [l for l in text.splitlines() if not l.startswith(dropped)]
        (workdir / "factors.txt").write_text("\n".join(kept) + "\n", encoding="utf-8")
        # The new assets' ids repeat across the actions.
        add = "add,,tab-1,tablet,1,2019,,in_use,,,\n"
        (workdir / "actions.csv").write_text(add + "remove,tab-1\n" + add, encoding="utf-8")
        assert main(self.base(workdir)) == 2
        # The fleet's own blocking issues come first, and alone.
        missing = "laptop" if fleet_lacks_one_too else "tablet"
        assert capsys.readouterr() == ("", f"error: {missing}: missing factor: {missing}\n")


GOLDEN = REPO / "tests" / "golden"


class TestGoldenOutputs:
    """Every result type in every format, rendered from the demo inputs
    through the CLI, matches its committed golden file byte for byte."""

    def run(self, workdir, args, ext):
        out = workdir / f"out.{ext}"
        assert main([*args, "--format", {"md": "markdown"}.get(ext, ext), "--out", str(out)]) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("ext", ["json", "csv", "md"])
    def test_report(self, workdir, ext):
        out = self.run(workdir, compute_args(workdir), ext)
        assert out == (GOLDEN / f"report_2019.{ext}").read_bytes()

    @pytest.mark.parametrize("ext", ["json", "csv", "md"])
    def test_comparison(self, workdir, ext):
        later = workdir / "report_2020.json"
        args = compute_args(workdir, "--format", "json", "--out", str(later))
        args[args.index("2019")] = "2020"
        assert main(args) == 0
        out = self.run(workdir, ["compare", str(GOLDEN / "report_2019.json"), str(later)], ext)
        assert out == (GOLDEN / f"comparison_2019_2020.{ext}").read_bytes()

    @pytest.mark.parametrize("ext", ["json", "csv", "md"])
    def test_scenario(self, workdir, ext):
        args = compute_args(workdir, "--actions", str(GOLDEN / "actions_2019.csv"))
        args[0] = "scenario"
        assert self.run(workdir, args, ext) == (GOLDEN / f"scenario_2019.{ext}").read_bytes()


@pytest.mark.usefixtures("compensated_sum")
class TestGoldenOutputsUnderACompensatedSum(TestGoldenOutputs):
    """The golden outputs do not depend on how the interpreter's sum() adds
    floats: the engine and the report add them themselves, exactly rounded
    (the server-room pool, math.fsum) or left to right."""


class TestTotalsOverflow:
    """A report whose totals are not finite exits 1 and prints no report."""

    @pytest.mark.parametrize("rows, cause", [
        # Two finite lines of 1e308 kgCO2e whose sum overflows.
        (["asset,big-1,server,1,2019,,stored,,1e308,", "asset,big-2,server,1,2019,,stored,,1e308,"],
         "the sum of the emission lines overflows"),
        # One line of 2 x 1e308 kgCO2e.
        (["asset,big-1,server,2,2019,,stored,,1e308,"], "the emission line of big-1 overflows"),
    ])
    @pytest.mark.parametrize("command", ["compute", "scenario"])
    def test_exits_one_with_nothing_on_stdout(self, workdir, capsys, rows, cause, command):
        fleet = workdir / "fleet.csv"
        fleet.write_text(fleet.read_text(encoding="utf-8") + "\n".join(rows) + "\n", encoding="utf-8")
        (workdir / "actions.csv").write_text("remove,srv-old\n", encoding="utf-8")
        args = compute_args(workdir, "--format", "json")
        args[0] = command
        if command == "scenario":
            args += ["--actions", str(workdir / "actions.csv")]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"ecodiag: error: report totals are not finite: {cause}" in err
        assert "Infinity" not in err

    @pytest.mark.parametrize("command", ["compute", "scenario"])
    def test_a_server_room_pool_past_the_largest_float_exits_one(self, workdir, capsys, command):
        # At a grid of 1000, two usage lines of 1.3e308 kgCO2e: each is finite,
        # their pool's sum, which the room's UPS overhead is charged on, is not.
        fleet = workdir / "fleet.csv"
        rows = [f"asset,huge-{i},server,1,2015,,in_use,1.5e304,," for i in (1, 2)]
        fleet.write_text(fleet.read_text(encoding="utf-8") + "\n".join(rows) + "\n", encoding="utf-8")
        (workdir / "actions.csv").write_text("remove,srv-old\n", encoding="utf-8")
        args = compute_args(workdir, "--grid-factor", "1000")
        args[0] = command
        if command == "scenario":
            args += ["--actions", str(workdir / "actions.csv")]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("ecodiag: error: report totals are not finite: "
                            "the emission line of server-room overflows\n")


def _glpi_args(w):
    (w / "glpi.csv").write_text(
        f"{GLPI_HEADER}\npc-1,Laptop Dell,L5400,2019-03-01,en service\n", encoding="utf-8"
    )
    args = compute_args(w, "--glpi", "--rules", str(w / "rules.csv"))
    args[args.index("--inventory") + 1] = str(w / "glpi.csv")
    return args


@pytest.mark.parametrize("name,command", [
    pytest.param("fleet.csv", compute_args, id="compute-inventory"),
    pytest.param("factors.txt", compute_args, id="compute-factors"),
    pytest.param("factors.txt", lambda w: compute_args(w)[:3] + compute_args(w)[5:],
                 id="compute-factors-from-environment"),
    pytest.param("rules.csv", _glpi_args, id="compute-glpi-rules"),
    pytest.param("actions.csv",
                 lambda w: ["scenario", *compute_args(w)[1:], "--actions", str(w / "actions.csv")],
                 id="scenario-actions"),
    pytest.param("factors.txt", lambda w: ["factors", "--factors", str(w / "factors.txt")],
                 id="factors"),
    pytest.param("b.json", lambda w: ["compare", str(w / "a.json"), str(w / "b.json")],
                 id="compare-report"),
])
def test_out_never_overwrites_an_input(workdir, monkeypatch, capsys, name, command):
    monkeypatch.setenv("ECODIAG_FACTORS", str(workdir / "factors.txt"))
    (workdir / "actions.csv").write_text("# nothing\n", encoding="utf-8")
    for report in ("a.json", "b.json"):
        assert main(compute_args(workdir, "--format", "json", "--out", str(workdir / report))) == 0
    args = command(workdir)
    before = (workdir / name).read_bytes()
    out = os.path.join(workdir, ".", name)  # another spelling of the input's path
    capsys.readouterr()
    assert main([*args, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"ecodiag: error: --out {out} is an input of this command; refusing to overwrite it\n"
    )
    assert (workdir / name).read_bytes() == before


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter against src/."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
               PYTHONIOENCODING="utf-8")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, encoding="utf-8", env=env, timeout=120,
    )


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    """Run a script of scripts/ in a fresh interpreter against src/."""
    return run_python(str(REPO / "scripts" / name), *args)


class TestScripts:
    def test_sample_assessment(self):
        proc = run_script("run_sample_assessment.py")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("# Annual IT fleet CO₂e assessment (2019)\n")
        assert "\nFactor set: bundled-sample:sha256:" in proc.stdout

    def test_replacement_payback_sweep(self):
        proc = run_script("replacement_payback_sweep.py")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "old server: 350 W around the clock, replacement fabrication 1100 kgCO2e"
        assert lines[1].split() == ["new", "W", "savings", "kgCO2e/yr", "payback", "years"]
        assert [l.split()[0] for l in lines[2:]] == [str(w) for w in range(100, 350, 25)]


class TestFactorsCommand:
    def test_listing(self, workdir, capsys):
        assert main(["factors", "--factors", str(workdir / "factors.txt")]) == 0
        out = capsys.readouterr().out
        assert "laptop" in out
        assert "sample-base" in out
        assert "grid factor: 0.119" in out

    def test_merge_winner_shown(self, workdir, capsys):
        text = (workdir / "factors.txt").read_text(encoding="utf-8")
        text += "\n[factors]\nlaptop,999.0,9.9,99.0,0.9,weak-src,2001,vendor_fiche,false,false\n"
        (workdir / "factors.txt").write_text(text, encoding="utf-8")
        assert main(["factors", "--factors", str(workdir / "factors.txt")]) == 0
        out = capsys.readouterr().out
        assert "weak-src" not in out
        assert "sample-base" in out

    def test_malformed_exits_one_with_line(self, workdir, capsys):
        (workdir / "factors.txt").write_text("[factors]\nbad row\n", encoding="utf-8")
        assert main(["factors", "--factors", str(workdir / "factors.txt")]) == 1
        assert "line 2" in capsys.readouterr().err


class TestInit:
    def test_writes_sample_files(self, tmp_path, capsys):
        target = tmp_path / "new"
        assert main(["init", str(target)]) == 0
        assert (target / "factors.txt").read_text(encoding="utf-8") == samples.SAMPLE_FACTOR_FILE
        assert (target / "fleet.csv").read_text(encoding="utf-8") == samples.sample_fleet_csv()
        assert (target / "mapping_rules.csv").exists()

    def test_refuses_overwrite(self, tmp_path, capsys):
        assert main(["init", str(tmp_path)]) == 0
        assert main(["init", str(tmp_path)]) == 1
        assert "refusing to overwrite" in capsys.readouterr().err

    def test_initialized_samples_compute(self, tmp_path, capsys):
        assert main(["init", str(tmp_path)]) == 0
        code = main(
            [
                "compute",
                "--inventory", str(tmp_path / "fleet.csv"),
                "--factors", str(tmp_path / "factors.txt"),
                "--year", "2019",
                "--perimeter", PERIMETER,
            ]
        )
        assert code == 0


class TestGridFactorFlag:
    @pytest.mark.parametrize("command", ["compute", "validate", "scenario"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_rejected_at_the_command_line(self, workdir, capsys, command, value):
        (workdir / "actions.csv").write_text("", encoding="utf-8")
        args = compute_args(workdir, "--grid-factor", value)
        args[0] = command
        if command == "scenario":
            args += ["--actions", str(workdir / "actions.csv")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "ecodiag: error: argument --grid-factor: grid factor must be finite and > 0" in err
        assert "Traceback" not in err

    def run(self, workdir, capsys, command, *extra):
        (workdir / "actions.csv").write_text(
            "replace,srv-old,srv-2019,server,14,2019,,in_use,180,,\n", encoding="utf-8"
        )
        args = compute_args(workdir, *extra)
        args[0] = command
        if command == "scenario":
            args += ["--actions", str(workdir / "actions.csv")]
        assert main(args) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", ["compute", "scenario"])
    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    def test_same_report_as_a_factor_file_with_that_grid(self, workdir, capsys, command, fmt):
        text = (workdir / "factors.txt").read_text(encoding="utf-8")
        row = "grid_factor_kgco2e_per_kwh,0.119\n"
        assert text.count(row) == 1
        (workdir / "grid.txt").write_text(text.replace(row, row.replace("0.119", "0.3")),
                                          encoding="utf-8")
        overridden = self.run(workdir, capsys, command, "--format", fmt, "--grid-factor", "0.3")
        from_file = self.run(workdir, capsys, command, "--format", fmt,
                             "--factors", str(workdir / "grid.txt"))
        plain = self.run(workdir, capsys, command, "--format", fmt)

        def without_identity(out):
            return [l for l in out.splitlines() if "factor_db_hash" not in l
                    and not l.startswith("Factor set:")]

        assert without_identity(overridden) == without_identity(from_file)
        assert without_identity(overridden) != without_identity(plain)

    @pytest.mark.parametrize("command", ["compute", "scenario"])
    def test_the_override_is_named_in_the_factor_set(self, workdir, capsys, command):
        plain = self.run(workdir, capsys, command)
        (identity,) = [l for l in plain.splitlines() if l.startswith("Factor set: ")]
        overridden = self.run(workdir, capsys, command, "--grid-factor", "0.3")
        assert f"{identity}+grid=0.3" in overridden.splitlines()

    @pytest.mark.parametrize("command", ["compute", "scenario"])
    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    def test_the_file_own_grid_is_no_override(self, workdir, capsys, command, fmt):
        text = (workdir / "factors.txt").read_text(encoding="utf-8")
        assert text.count("grid_factor_kgco2e_per_kwh,0.119\n") == 1
        plain = self.run(workdir, capsys, command, "--format", fmt)
        same = self.run(workdir, capsys, command, "--format", fmt, "--grid-factor", "0.119")
        assert same == plain

    def test_compare_gives_no_warning_for_the_file_own_grid(self, workdir, capsys):
        reports = []
        for year, extra in (("2019", ["--grid-factor", "0.119"]), ("2020", [])):
            reports.append(str(workdir / f"report_{year}.json"))
            args = compute_args(workdir, "--format", "json", "--out", reports[-1], *extra)
            args[args.index("2019")] = year
            assert main(args) == 0
        capsys.readouterr()
        assert main(["compare", *reports]) == 0
        assert capsys.readouterr().err == ""

    def test_compare_warns_of_the_override(self, workdir, capsys):
        reports = []
        for year, extra in (("2019", ["--grid-factor", "0.3"]), ("2020", [])):
            reports.append(str(workdir / f"report_{year}.json"))
            args = compute_args(workdir, "--format", "json", "--out", reports[-1], *extra)
            args[args.index("2019")] = year
            assert main(args) == 0
        capsys.readouterr()
        assert main(["compare", *reports]) == 0
        identity = factor_db_identity("factors.txt", samples.SAMPLE_FACTOR_FILE)
        assert capsys.readouterr().err == (
            f"warning: factor set changed between years: {identity} / {identity}+grid=0.3\n"
        )


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "factors.txt").write_text(samples.SAMPLE_FACTOR_FILE, encoding="utf-8")
    (path / "fleet.csv").write_text(samples.sample_fleet_csv(), encoding="utf-8")
    (path / "rules.csv").write_text(samples.SAMPLE_MAPPING_RULES, encoding="utf-8")
    assert main(compute_args(path, "--format", "json", "--out", str(path / "report.json"))) == 0
    return path


def _sample_report() -> dict:
    fleet = samples.sample_fleet()
    db = merge_factors(load_factor_db(samples.SAMPLE_FACTOR_FILE))
    report = aggregate(compute_fleet(fleet, db), fleet)
    return json.loads(render(report, "json"))


FUZZ = settings(max_examples=20, derandomize=True, database=None, deadline=None)
SAMPLE_RULES = parse_mapping_rules(samples.SAMPLE_MAPPING_RULES)


class TestBoundaryFuzz:
    """Arbitrary input text ends in exit code 0, 1 or 2, never in an exception."""

    def run(self, fuzzdir, text, args):
        (fuzzdir / "fuzz.txt").write_text(text, encoding="utf-8")
        assert main([*args, "--out", str(fuzzdir / "out.txt")]) in (0, 1, 2)

    def inventory_args(self, fuzzdir, *extra):
        args = compute_args(fuzzdir, *extra)
        args[args.index("--inventory") + 1] = str(fuzzdir / "fuzz.txt")
        return args

    @given(text=boundary_texts(FLEET_HEADER))
    @FUZZ
    def test_native_inventory(self, fuzzdir, text):
        self.run(fuzzdir, text, self.inventory_args(fuzzdir))

    @given(text=boundary_texts(GLPI_HEADER))
    @FUZZ
    def test_glpi_export(self, fuzzdir, text):
        self.run(fuzzdir, text, self.inventory_args(fuzzdir, "--glpi", "--rules", str(fuzzdir / "rules.csv")))

    @given(text=boundary_texts("op,target_id"))
    @FUZZ
    def test_actions_file(self, fuzzdir, text):
        args = compute_args(fuzzdir, "--actions", str(fuzzdir / "fuzz.txt"))
        args[0] = "scenario"
        self.run(fuzzdir, text, args)

    @given(text=boundary_texts("[factors]", "[gwp]", "[grid]"))
    @FUZZ
    def test_factor_file(self, fuzzdir, text):
        self.run(fuzzdir, text, ["factors", "--factors", str(fuzzdir / "fuzz.txt")])

    @given(text=boundary_texts(FLEET_HEADER, GLPI_HEADER, "[factors]"))
    @settings(FUZZ, max_examples=100)
    def test_parsers_raise_only_ecodiag_errors(self, text):
        # Called directly, so a bare '\r' reaches the parsers: reading a file
        # in text mode would have turned it into a line break.
        for parse in (
            lambda: parse_fleet_csv(text, 2019, PERIMETER),
            lambda: parse_glpi_export(text, SAMPLE_RULES, 2019, PERIMETER),
            lambda: parse_mapping_rules(text),
            lambda: parse_actions_csv(text),
            lambda: load_factor_db(text),
        ):
            try:
                parse()
            except EcodiagError:
                pass

    @given(text=report_json_texts(_sample_report()))
    @FUZZ
    def test_report_json(self, fuzzdir, text):
        self.run(fuzzdir, text, ["compare", str(fuzzdir / "report.json"), str(fuzzdir / "fuzz.txt")])


class TestUsage:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_subcommand_exits_one(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("command", ["compute", "validate", "scenario"])
    def test_rules_without_glpi_exits_one(self, workdir, capsys, command):
        (workdir / "actions.csv").write_text("# nothing\n", encoding="utf-8")
        args = [command, *compute_args(workdir, "--rules", str(workdir / "rules.csv"))[1:]]
        if command == "scenario":
            args += ["--actions", str(workdir / "actions.csv")]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "ecodiag: error: --glpi and --rules <mapping rules path> go together\n")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "compute" in capsys.readouterr().out


class TestCollector:
    """Each command runs with the cyclic garbage collector off, and main
    gives back the collector state it found on every exit path."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def entry_state(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    @staticmethod
    def spy_on_compute(monkeypatch, seen, fail=False):
        original = cli.cmd_compute

        def spy(args):
            seen.append(gc.isenabled())
            if fail:
                raise RuntimeError("boom")
            return original(args)

        monkeypatch.setattr(cli, "cmd_compute", spy)

    @pytest.mark.parametrize("case, code", [
        ("ok", 0), ("missing inventory", 1), ("missing factor", 2), ("usage error", 1),
    ])
    def test_off_while_a_command_runs(self, workdir, monkeypatch, capsys, entry_state, case, code):
        args = compute_args(workdir)
        if case == "missing inventory":
            args[args.index("--inventory") + 1] = str(workdir / "ghost.csv")
        elif case == "missing factor":
            text = (workdir / "factors.txt").read_text(encoding="utf-8")
            kept = [l for l in text.splitlines() if not l.startswith("laptop,")]
            (workdir / "factors.txt").write_text("\n".join(kept) + "\n", encoding="utf-8")
        elif case == "usage error":
            args.remove("--year")
        seen = []
        self.spy_on_compute(monkeypatch, seen)
        assert main(args) == code
        assert seen == ([] if case == "usage error" else [False])
        assert gc.isenabled() is entry_state

    def test_restored_when_a_command_raises(self, workdir, monkeypatch, entry_state):
        seen = []
        self.spy_on_compute(monkeypatch, seen, fail=True)
        with pytest.raises(RuntimeError, match="boom"):
            main(compute_args(workdir))
        assert seen == [False]
        assert gc.isenabled() is entry_state

    def test_no_collection_during_a_compute(self, workdir, monkeypatch, capsys):
        fleet = Fleet(PERIMETER, 2019, assets=tuple(
            Asset(f"pc-{i}", "laptop", 1, 2015 + i % 5) for i in range(2000)
        ))
        (workdir / "fleet.csv").write_text(render_fleet_csv(fleet), encoding="utf-8")
        starts = []

        def on_gc(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        original = cli.cmd_compute

        def counted(args):
            gc.callbacks.append(on_gc)
            try:
                return original(args)
            finally:
                gc.callbacks.remove(on_gc)

        monkeypatch.setattr(cli, "cmd_compute", counted)
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            assert main(compute_args(workdir)) == 0
        finally:
            if not was_enabled:
                gc.disable()
        assert starts == []


class TestByteOrderMark:
    """An input that starts with a UTF-8 byte-order mark, as Excel's "CSV
    UTF-8" writes it, reads the same as the file without one."""

    INPUTS = ("fleet.csv", "glpi.csv", "rules.csv", "factors.txt", "actions.csv", "2018.json")

    @pytest.fixture
    def inputs(self, workdir):
        (workdir / "glpi.csv").write_text(
            f"{GLPI_HEADER}\n"
            "pc-1,Laptop Dell,L5400,2019-03-01,en service\n"
            "mf-1,Mainframe,Z,2019-03-01,en service\n",
            encoding="utf-8",
        )
        (workdir / "actions.csv").write_text(
            "replace,srv-old,srv-2019,server,14,2019,,in_use,180,,\n", encoding="utf-8"
        )
        for year in (2018, 2019):
            path = workdir / f"{year}.json"
            assert main(compute_args(workdir, "--format", "json", "--out", str(path))) == 0
            data = json.loads(path.read_text(encoding="utf-8"))
            data["reporting_year"] = year
            path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        return workdir

    @staticmethod
    def args_for(name, workdir, src):
        """The command that reads input `name` from directory src, and every
        other input from workdir."""
        def path(n):
            return str((src if n == name else workdir) / n)

        common = ["--year", "2019", "--perimeter", PERIMETER, "--factors", path("factors.txt")]
        if name in ("glpi.csv", "rules.csv"):
            return ["compute", "--inventory", path("glpi.csv"), "--glpi",
                    "--rules", path("rules.csv"), *common]
        if name == "actions.csv":
            return ["scenario", "--inventory", path("fleet.csv"),
                    "--actions", path("actions.csv"), *common]
        if name == "2018.json":
            return ["compare", path("2018.json"), path("2019.json")]
        return ["compute", "--inventory", path("fleet.csv"), *common]

    @pytest.mark.parametrize("name", INPUTS)
    def test_same_output_as_without_the_mark(self, inputs, capsys, name):
        bom = inputs / "bom"
        bom.mkdir()
        (bom / name).write_bytes(codecs.BOM_UTF8 + (inputs / name).read_bytes())
        capsys.readouterr()
        runs = []
        for src in (inputs, bom):
            code = main(self.args_for(name, inputs, src))
            runs.append((code, *capsys.readouterr()))
        assert runs[0][0] == 0
        assert runs[1] == runs[0]


class TestNotUtf8:
    """A byte that is not UTF-8, such as an 'é' from a Latin-1 export, is
    reported with the file and its line."""

    @pytest.mark.parametrize("name", ["fleet.csv", "factors.txt"])
    def test_names_file_and_line(self, workdir, capsys, name):
        path = workdir / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = "# café"
        data = "\r\n".join(lines).encode("latin-1")
        path.write_bytes(codecs.BOM_UTF8 + data if name == "fleet.csv" else data)
        assert main(compute_args(workdir)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ecodiag: error: {path}: line 3: not UTF-8")
        assert "Traceback" not in err

    @pytest.mark.parametrize("newline", ["\r", "\r\n", "\n", "\u2028"])
    def test_line_counts_every_line_break(self, workdir, capsys, newline):
        path = workdir / "fleet.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        head = newline.join(lines[:2]) + newline
        path.write_bytes(head.encode("utf-8") + "# café\n".encode("latin-1"))
        assert main(compute_args(workdir)) == 1
        assert capsys.readouterr().err.startswith(f"ecodiag: error: {path}: line 3: not UTF-8")
