"""Annual CO2-equivalent assessment of an IT fleet.

Feed an equipment inventory and an emission-factor file to compute_fleet and
aggregate; compare successive years or evaluate replacement scenarios on top.

Each public name is imported from its module on first use (PEP 562), so that
`import ecodiag.factors` runs no module of the package but `errors`.
"""
import importlib

__version__ = "0.1.0"

#: The public names by defining module.
_NAMES = {
    "engine": ("EmissionLine", "compute_fleet"),
    "errors": ("EcodiagError", "FactorParseError", "FleetParseError", "MissingFactorError",
               "ScenarioError", "UnknownFluidError"),
    "factors": ("CATEGORIES", "DEFAULT_GRID_FACTOR", "EmissionFactor", "EquipmentCategory",
                "FactorDatabase", "GridFactor", "GwpEntry", "SourceMeta", "factor_db_identity",
                "load_factor_db", "lookup_factor", "merge_factors", "reliability_rank",
                "render_factor_file"),
    "inventory": ("Asset", "CableBulk", "ComputeCampaign", "ExternalServiceEntry", "Fleet",
                  "Issue", "MappingRule", "ServerRoom", "UnmappedRecord", "parse_fleet_csv",
                  "parse_glpi_export", "parse_mapping_rules", "render_fleet_csv",
                  "validate_fleet"),
    "report": ("Report", "ScenarioAction", "ScenarioResult", "YearComparison", "aggregate",
               "apply_scenario", "compare_years", "evaluate_scenario", "parse_actions_csv",
               "parse_report_json", "render"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
