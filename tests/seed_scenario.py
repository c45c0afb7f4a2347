"""The scenario's apply step as it was before the actions were walked once for
both the variant fleet and the variant lines, kept verbatim as the reference
that apply_scenario and evaluate_scenario are compared against."""
from __future__ import annotations

import dataclasses

from ecodiag.errors import ScenarioError
from ecodiag.inventory import Fleet
from ecodiag.report import ScenarioAction


def seed_apply_scenario(fleet: Fleet, actions: list[ScenarioAction]) -> Fleet:
    """Apply actions to a copy of the fleet; the baseline is never touched.

    A replacement's new asset is acquired now: its acquisition year is forced
    to the reporting year so its fabrication is charged to the variant.
    """
    # Insertion-ordered: kept assets stay in fleet order, new ones are
    # appended in action order, and a re-added id goes to the end.
    assets = {a.id: a for a in fleet.assets}
    for action in actions:
        if action.op != "add" and assets.pop(action.target_asset_id, None) is None:
            raise ScenarioError(f"unknown target asset id: {action.target_asset_id}")
        if action.op == "remove":
            continue
        new = action.new_asset
        if action.op == "replace":
            try:
                new = new._replace(acquisition_year=fleet.reporting_year)
            except ValueError as exc:
                raise ScenarioError(f"replacement asset {new.id}: {exc}") from None
        if new.id in assets:
            raise ScenarioError(f"added asset id already exists: {new.id}")
        assets[new.id] = new
    return dataclasses.replace(fleet, assets=tuple(assets.values()))
