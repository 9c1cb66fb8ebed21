#!/usr/bin/env python3
"""Diff a fresh `reproduce --json` document against a committed baseline.

Both files are `gpes-bench/1` documents. Records are matched by
(section, key fields). `exact` fields must repeat: any difference is
reported as drift. `advisory` fields (timing, scheduling-dependent
counts) and each section's `host_seconds` print as fresh/base ratios.
The markdown goes to stdout, for a CI job summary.

This script never fails the build. The contracts are enforced by
`reproduce` itself, which exits 1 when a report's `violations()` is
non-empty; this diff only shows the trajectory.

Usage:
    bench_diff.py FRESH.json

The baseline is the newest committed BENCH_<n>.json whose schema is
gpes-bench/1.
"""

import json
import pathlib
import sys

SCHEMA = "gpes-bench/1"


def newest_baseline():
    paths = sorted(pathlib.Path(".").glob("BENCH_*.json"),
                   key=lambda p: int(p.stem.split("_")[1]), reverse=True)
    for path in paths:
        if json.loads(path.read_text()).get("schema") == SCHEMA:
            return path
    return None


def ident(record):
    return (record["section"], tuple(sorted(record["key"].items())))


def ratio(fresh, base):
    if not isinstance(fresh, (int, float)) or not base:
        return f"{fresh}/{base}"
    return f"{fresh / base:.2f}x"


def diff_record(fresh, base):
    """Returns (drift cells, advisory cells) for one matched record.

    Exact fields are compared over both records' keys, so an exact field
    that vanished or was retagged advisory counts as drift too."""
    keys = sorted(base["exact"].keys() | fresh["exact"].keys())
    drift = [f"{k} {fresh['exact'].get(k)}/{base['exact'].get(k)}"
             for k in keys if fresh["exact"].get(k) != base["exact"].get(k)]
    advisory = [f"{k} {ratio(v, base['advisory'].get(k))}"
                for k, v in fresh["advisory"].items()]
    return drift, advisory


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    fresh = json.loads(pathlib.Path(sys.argv[1]).read_text())
    base_path = newest_baseline()
    out = ["## Bench diff vs committed baseline", ""]
    violations = [f"{name}: {v}" for name, s in fresh["sections"].items()
                  for v in s["violations"]]
    out.append(f"contract violations in the fresh run: {len(violations)}")
    out += [f"- {v}" for v in violations] + [""]
    if base_path is None:
        out.append(f"_no committed baseline with schema `{SCHEMA}` yet_")
        print("\n".join(out))
        return
    base = json.loads(base_path.read_text())
    out += [f"baseline: `{base_path}` (git {base['host'].get('git_rev')}, "
            f"{base['host'].get('cpus')} cpus); fresh: git "
            f"{fresh['host'].get('git_rev')}, {fresh['host'].get('cpus')} cpus", ""]

    out += ["| section | host_seconds (fresh/base) |", "|---|---|"]
    for name, section in fresh["sections"].items():
        base_s = base["sections"].get(name, {}).get("host_seconds")
        out.append(f"| {name} | {ratio(section['host_seconds'], base_s)} |")
    out.append("")

    base_index = {ident(r): r for r in base["records"]}
    fresh_ids = {ident(r) for r in fresh["records"]}
    ran = set(fresh["sections"])
    drifted = 0
    out += ["| section | key | exact drift (fresh/base) | advisory (fresh/base) | verdict |",
            "|---|---|---|---|---|"]
    for record in fresh["records"]:
        key = " ".join(f"{k}={v}" for k, v in record["key"].items())
        base_record = base_index.get(ident(record))
        if base_record is None:
            out.append(f"| {record['section']} | {key} | | | new row |")
            continue
        drift, advisory = diff_record(record, base_record)
        drifted += len(drift)
        verdict = "exact drift" if drift else "ok"
        out.append(f"| {record['section']} | {key} | {', '.join(drift)} | "
                   f"{', '.join(advisory)} | {verdict} |")
    for record in base["records"]:
        if record["section"] in ran and ident(record) not in fresh_ids:
            key = " ".join(f"{k}={v}" for k, v in record["key"].items())
            out.append(f"| {record['section']} | {key} | | | row gone |")
    out += ["", f"exact fields drifted: {drifted}", "",
            "_exact fields must repeat; advisory ratios are host- and "
            "scheduling-dependent and never gate._"]
    print("\n".join(out))


if __name__ == "__main__":
    main()
