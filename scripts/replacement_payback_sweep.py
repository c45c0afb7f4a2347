#!/usr/bin/env python3
"""Sweep the replacement dilemma: keep an old power-hungry server, or buy new?

For a range of replacement power draws, print the yearly electricity savings
and how many years of savings repay the new machine's fabrication footprint.

Usage:
  python scripts/replacement_payback_sweep.py [--old-watts 350] [--new-fab 1100]
"""
import argparse

from ecodiag import (
    Asset,
    Fleet,
    ScenarioAction,
    evaluate_scenario,
    load_factor_db,
    merge_factors,
)
from ecodiag.samples import SAMPLE_FACTOR_FILE


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--old-watts", type=float, default=350.0)
    parser.add_argument("--new-fab", type=float, default=1100.0,
                        help="fabrication+transport kgCO2e of the replacement")
    parser.add_argument("--year", type=int, default=2019)
    args = parser.parse_args()

    db = merge_factors(load_factor_db(SAMPLE_FACTOR_FILE))
    fleet = Fleet(
        "replacement study",
        args.year,
        assets=(Asset("srv-old", "server", 1, args.year - 14, measured_power_w=args.old_watts),),
    )

    print(f"old server: {args.old_watts:.0f} W around the clock, "
          f"replacement fabrication {args.new_fab:.0f} kgCO2e")
    print(f"{'new W':>6}  {'savings kgCO2e/yr':>18}  {'payback years':>13}")
    for new_watts in range(100, int(args.old_watts), 25):
        new = Asset(
            "srv-new", "server", 1, args.year,
            measured_power_w=float(new_watts),
            vendor_fab_transport_kgco2e=args.new_fab,
        )
        result = evaluate_scenario(fleet, [ScenarioAction("replace", "srv-old", new)], db)
        savings = (
            result.baseline.totals_by_scope["S2"] - result.variant.totals_by_scope["S2"]
        )
        payback = "n/a" if result.payback_years is None else f"{result.payback_years:13.2f}"
        print(f"{new_watts:>6}  {savings:>18.1f}  {payback}")


if __name__ == "__main__":
    main()
