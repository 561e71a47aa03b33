"""Records CSV and summary JSON emission.

Floats are serialized with 17 significant digits, which round-trips doubles
exactly, so two runs with the same configuration and master seed produce
byte-identical files. The writers make no directory: the CLI makes the
directories of both files with ``ensure_parent`` before the run.
"""

import csv
import json
import os


def format_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_records_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_value(row.get(col)) for col in columns])


def write_summary_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def ensure_parent(path):
    """Create the directory that will hold path; raises OSError where it cannot."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
