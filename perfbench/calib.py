"""Fixed reference work that calibrates benchmark times to the host's speed.

    python3 perfbench/calib.py <rows>

A child process like the ecodiag CLI it calibrates: it starts an interpreter,
imports the same standard modules, parses CSV rows into dataclass objects,
does float arithmetic and sorting over them and prints a JSON summary. It
imports nothing from ecodiag, so no change to the program moves its time;
only the speed of the host does. The input is built from the row count alone.
"""
import argparse
import csv
import io
import json
import logging
import math
from dataclasses import dataclass

CATEGORIES = ("laptop", "desktop", "screen", "server", "switch", "printer", "phone")


@dataclass
class Row:
    ident: str
    category: str
    quantity: int
    power_w: float
    year: int


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("rows", type=int)
    rows = parser.parse_args().rows
    logging.basicConfig(level=logging.WARNING)
    text = "".join(
        f"a{i},{CATEGORIES[i % len(CATEGORIES)]},{1 + i % 3},{20 + (i * 37) % 400}.5,"
        f"{2012 + i % 12}\n"
        for i in range(rows)
    )
    parsed = [Row(f[0], f[1], int(f[2]), float(f[3]), int(f[4]))
              for f in csv.reader(io.StringIO(text))]
    totals = dict.fromkeys(CATEGORIES, 0.0)
    for r in parsed:
        totals[r.category] += r.quantity * r.power_w * 8.76 * 0.05 / math.sqrt(2025 - r.year)
    parsed.sort(key=lambda r: (r.category, -r.power_w, r.ident))
    print(json.dumps({"rows": len(parsed), "first": parsed[0].ident, "totals": totals}))


if __name__ == "__main__":
    main()
