"""What each entry point loads: the package resolves its public names on first
use, and the CLI imports the fleet commands' modules only when one of them runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecodiag
from ecodiag import cli, samples

REPO = Path(__file__).resolve().parents[1]

#: The modules a light command (`factors`, `--help`, a usage error) must not load.
HEAVY = ("ecodiag.inventory", "ecodiag.engine", "ecodiag.report", "ecodiag.samples", "logging")

#: The package's public names by defining module.
PUBLIC_NAMES = {
    "engine": ["EmissionLine", "compute_fleet"],
    "errors": ["EcodiagError", "FactorParseError", "FleetParseError", "MissingFactorError",
               "ScenarioError", "UnknownFluidError"],
    "factors": ["CATEGORIES", "DEFAULT_GRID_FACTOR", "EmissionFactor", "EquipmentCategory",
                "FactorDatabase", "GridFactor", "GwpEntry", "SourceMeta", "factor_db_identity",
                "load_factor_db", "lookup_factor", "merge_factors", "reliability_rank",
                "render_factor_file"],
    "inventory": ["Asset", "CableBulk", "ComputeCampaign", "ExternalServiceEntry", "Fleet",
                  "Issue", "MappingRule", "ServerRoom", "UnmappedRecord", "parse_fleet_csv",
                  "parse_glpi_export", "parse_mapping_rules", "render_fleet_csv",
                  "validate_fleet"],
    "report": ["Report", "ScenarioAction", "ScenarioResult", "YearComparison", "aggregate",
               "apply_scenario", "compare_years", "evaluate_scenario", "parse_actions_csv",
               "parse_report_json", "render"],
}


def run_fresh(code: str, *args: str):
    """Run `code` in a fresh interpreter against src/ with `args` as sys.argv[1:];
    returns the JSON value of the last line it prints."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          encoding="utf-8", env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED_AFTER_MAIN = """
import contextlib, io, json, sys
from ecodiag import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


class TestLightCommands:
    @pytest.mark.parametrize("args, exit_code", [
        (["factors", "--factors", "{factors}"], 0),
        (["--help"], 0),
        (["compute", "--factors", "{factors}"], 1),  # a usage error
    ])
    def test_load_no_fleet_module_and_no_logging(self, tmp_path, args, exit_code):
        factors = tmp_path / "factors.txt"
        factors.write_text(samples.SAMPLE_FACTOR_FILE, encoding="utf-8")
        argv = [a.format(factors=factors) for a in args]
        code, modules = run_fresh(LOADED_AFTER_MAIN, *argv)
        assert code == exit_code
        assert [m for m in HEAVY if m in modules] == []

    def test_import_of_factors_loads_errors_only(self):
        modules = run_fresh("import json, sys, ecodiag.factors; print(json.dumps(sorted(sys.modules)))")
        assert [m for m in modules if m.startswith("ecodiag")] == [
            "ecodiag", "ecodiag.errors", "ecodiag.factors",
        ]


class TestPackageExports:
    def test_all_is_pinned(self):
        names = sorted(n for names in PUBLIC_NAMES.values() for n in names)
        assert len(names) == 47
        assert ecodiag.__all__ == names

    @pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
    def test_each_name_is_its_module_object(self, module):
        defining = importlib.import_module(f"ecodiag.{module}")
        for name in PUBLIC_NAMES[module]:
            assert getattr(ecodiag, name) is getattr(defining, name), name

    def test_dir_lists_every_public_name(self):
        assert set(ecodiag.__all__) <= set(dir(ecodiag))

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ecodiag.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            from ecodiag import no_such_name  # noqa: F401
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name  # noqa: B018

    def test_report_keeps_factor_db_identity(self):
        from ecodiag import factors, report

        assert report.factor_db_identity is factors.factor_db_identity


class TestWhatFleetCommandsLoad:
    def test_compare_loads_no_inventory_hashlib_or_logging(self, tmp_path):
        (tmp_path / "factors.txt").write_text(samples.SAMPLE_FACTOR_FILE, encoding="utf-8")
        (tmp_path / "fleet.csv").write_text(samples.sample_fleet_csv(), encoding="utf-8")
        reports = [str(tmp_path / f"report_{year}.json") for year in (2019, 2020)]
        for year, report in zip((2019, 2020), reports):
            assert cli.main(["compute", "--inventory", str(tmp_path / "fleet.csv"),
                             "--factors", str(tmp_path / "factors.txt"), "--year", str(year),
                             "--perimeter", "demo", "--format", "json", "--out", report]) == 0
        code, modules = run_fresh(LOADED_AFTER_MAIN, "compare", *reports)
        assert code == 0
        assert "ecodiag.report" in modules
        assert [m for m in ("ecodiag.inventory", "hashlib", "logging") if m in modules] == []

    def test_validate_loads_no_engine_or_report(self, tmp_path):
        (tmp_path / "factors.txt").write_text(samples.SAMPLE_FACTOR_FILE, encoding="utf-8")
        (tmp_path / "fleet.csv").write_text(samples.sample_fleet_csv(), encoding="utf-8")
        code, modules = run_fresh(
            LOADED_AFTER_MAIN, "validate", "--inventory", str(tmp_path / "fleet.csv"),
            "--factors", str(tmp_path / "factors.txt"), "--year", "2019", "--perimeter", "demo",
        )
        assert code == 0
        assert [m for m in modules if m.startswith("ecodiag.")] == [
            "ecodiag.cli", "ecodiag.errors", "ecodiag.factors", "ecodiag.inventory",
        ]

    @pytest.mark.parametrize("module", ["ecodiag.engine", "ecodiag.report"])
    def test_a_fresh_import_loads_no_inventory(self, module):
        modules = run_fresh(f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))")
        assert module in modules and "ecodiag.inventory" not in modules


WRAPPED_BEFORE_VALIDATE = """
import contextlib, io, json, sys
from ecodiag import cli
calls = []
def wrapper(*args):
    calls.append(len(args))
    from ecodiag.inventory import validate_fleet
    return validate_fleet(*args)
cli.validate_fleet = wrapper
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), calls, cli.validate_fleet is wrapper]))
"""


class TestFleetCommandBinding:
    def test_a_name_set_before_the_command_stays_bound(self, tmp_path):
        (tmp_path / "factors.txt").write_text(samples.SAMPLE_FACTOR_FILE, encoding="utf-8")
        (tmp_path / "fleet.csv").write_text(samples.sample_fleet_csv(), encoding="utf-8")
        code, out, calls, still_bound = run_fresh(
            WRAPPED_BEFORE_VALIDATE, "validate", "--inventory", str(tmp_path / "fleet.csv"),
            "--factors", str(tmp_path / "factors.txt"), "--year", "2019", "--perimeter", "demo",
        )
        assert (code, calls, still_bound) == (0, [2], True)
        assert out.startswith("warning: ")

    def test_a_name_read_from_outside_is_its_module_object(self):
        from ecodiag import engine, inventory, report

        assert cli.validate_fleet is inventory.validate_fleet
        assert cli.compute_fleet is engine.compute_fleet
        assert cli.render is report.render


STDERR_AFTER_MAIN = """
import contextlib, io, json, sys
from ecodiag import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
    code = cli.main(sys.argv[1:])
print(json.dumps([code, err.getvalue(), "logging" in sys.modules]))
"""


class TestLoggingOnlyForGlpi:
    def fleet_args(self, tmp_path, inventory, *extra):
        (tmp_path / "factors.txt").write_text(samples.SAMPLE_FACTOR_FILE, encoding="utf-8")
        return ["compute", "--inventory", str(tmp_path / inventory),
                "--factors", str(tmp_path / "factors.txt"), "--year", "2019",
                "--perimeter", "demo", *extra]

    def test_a_native_fleet_compute_loads_no_logging(self, tmp_path):
        (tmp_path / "fleet.csv").write_text(samples.sample_fleet_csv(), encoding="utf-8")
        code, modules = run_fresh(LOADED_AFTER_MAIN, *self.fleet_args(tmp_path, "fleet.csv"))
        assert code == 0
        assert "ecodiag.inventory" in modules and "logging" not in modules

    def test_a_glpi_compute_still_logs_an_unknown_status(self, tmp_path):
        (tmp_path / "rules.csv").write_text(samples.SAMPLE_MAPPING_RULES, encoding="utf-8")
        (tmp_path / "glpi.csv").write_text(
            "name,type,model,purchase_date,status\npc-1,Laptop,X,2018-01-01,cassé\n",
            encoding="utf-8",
        )
        rules = str(tmp_path / "rules.csv")
        args = self.fleet_args(tmp_path, "glpi.csv", "--glpi", "--rules", rules)
        code, err, logging_loaded = run_fresh(STDERR_AFTER_MAIN, *args)
        assert (code, logging_loaded) == (0, True)
        assert err == "WARNING: GLPI row 2: unknown status 'cassé', assuming in_use\n"

    def test_the_logger_is_still_importable(self):
        from ecodiag.inventory import logger

        assert logger.name == "ecodiag.inventory"
