#!/usr/bin/env python3
"""Compute the bundled demo assessment and print the report.

Usage:
  python scripts/run_sample_assessment.py [--format json|csv|markdown]
"""
import argparse

from ecodiag import aggregate, compute_fleet, load_factor_db, merge_factors, render
from ecodiag.report import factor_db_identity
from ecodiag.samples import SAMPLE_FACTOR_FILE, sample_fleet


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", choices=("json", "csv", "markdown"), default="markdown")
    args = parser.parse_args()

    db = merge_factors(load_factor_db(SAMPLE_FACTOR_FILE))
    fleet = sample_fleet()
    lines = compute_fleet(fleet, db)
    report = aggregate(
        lines, fleet, factor_db_identity("bundled-sample", SAMPLE_FACTOR_FILE)
    )
    print(render(report, args.format), end="")


if __name__ == "__main__":
    main()
