#!/usr/bin/env python3
"""Checks BENCH_*.json files against the one BENCH record schema.

Usage: python3 tools/check_bench_schema.py BENCH_codec.json [more.json ...]

Each file must hold {"bench", "host": {"cores", "isa", "kernels"},
"config", "records"}, and every record {"key", "metric", "value", "unit",
"source"} with source "measured" or "modeled" (docs/PERFORMANCE.md, "BENCH
record schema"). Exits 1 naming the first problem in each bad file.
"""
import json
import sys


def problem(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return str(e)
    for field in ("bench", "host", "config", "records"):
        if field not in doc:
            return f"missing {field!r}"
    for field in ("cores", "isa", "kernels"):
        if field not in doc["host"]:
            return f"host is missing {field!r}"
    if not doc["records"]:
        return "no records"
    for i, record in enumerate(doc["records"]):
        for field in ("key", "metric", "value", "unit", "source"):
            if field not in record:
                return f"record {i} is missing {field!r}"
        if record["source"] not in ("measured", "modeled"):
            return f"record {i} has source {record['source']!r}"
    return None


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        why = problem(path)
        if why:
            print(f"{path}: {why}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
