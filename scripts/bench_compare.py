#!/usr/bin/env python3
"""Compare two benchmark JSON files and flag metric regressions.

Works on any file following the repo's bench schema (BENCH_sgd.json,
BENCH_online.json, BENCH_query.json, BENCH_serve.json): top-level
*section* arrays of rows, where each row mixes identity fields (backend,
sampler, mode, batch, threads, shards, dirty_pct, ...) with metric fields.
A metric may carry its spread over repeated runs as `<metric>_min` and
`<metric>_max` (BENCH_online.json does); those are reported context, not
identity, and are not compared. Known sections and their metrics (see
docs/benchmarking.md for every schema):

  throughput    steps_per_sec, batches_per_sec, records_per_sec,
                queries_per_sec                          (higher is better)
  kernels       gflops                                   (higher is better)
  publish_cost  full_us_per_publish, delta_us_per_publish (lower is better)
                speedup                                   (higher is better)
  latency       p50_ms, p95_ms, p99_ms, p999_ms           (lower is better)
                achieved_qps                              (higher is better)
  max_qps       max_sustainable_qps                       (higher is better)
  sharding      batches_per_sec, records_per_sec,
                queries_per_sec                           (higher is better)

Rows are matched across the two files by their identity fields; every
known metric present in BOTH files is compared, and changes in the bad
direction beyond --threshold (default 10%) are reported. Sections or
metric columns present in only one file — e.g. a baseline generated
before a bench gained a new section — are warned about and skipped, never
a hard error: check.sh --bench must keep working against old baselines.

Intended use (see EXPERIMENTS.md "Benchmark workflow"): regenerate the
bench on your machine, diff against the committed baseline, and A/B the
prior commit on the SAME machine before calling a drop a regression —
committed numbers come from whatever container produced them, so raw
cross-machine deltas are expected.

Usage:
  scripts/bench_compare.py BASELINE.json FRESH.json [--threshold=0.10]
                           [--strict]
  scripts/bench_compare.py --schema-check FILE.json [FILE2.json ...]

--schema-check validates each listed file against the known-section
schema (at least one known section, rows are objects, metric values
numeric) without comparing anything — CI runs it on the serve_load
--smoke output and on every committed BENCH_*.json baseline so neither
the emitters nor the checked-in numbers can drift away from what this
script parses.

Exit codes: 0 = no regressions (or none beyond threshold), 1 = regressions
found AND --strict was given, 2 = usage/parse error or nothing comparable
at all. Without --strict, regressions only warn — the default check.sh
hook must not fail on machine drift.
"""

import json
import sys

# section -> {metric: direction}; direction is the GOOD direction.
SECTIONS = {
    "throughput": {
        "steps_per_sec": "higher",
        "batches_per_sec": "higher",
        "records_per_sec": "higher",
        "queries_per_sec": "higher",
    },
    "kernels": {
        "gflops": "higher",
    },
    "publish_cost": {
        "full_us_per_publish": "lower",
        "delta_us_per_publish": "lower",
        "speedup": "higher",
    },
    "latency": {
        "p50_ms": "lower",
        "p95_ms": "lower",
        "p99_ms": "lower",
        "p999_ms": "lower",
        "achieved_qps": "higher",
    },
    "max_qps": {
        "max_sustainable_qps": "higher",
    },
    "sharding": {
        "batches_per_sec": "higher",
        "records_per_sec": "higher",
        "queries_per_sec": "higher",
    },
}


def parse_args(argv):
    threshold = 0.10
    strict = False
    schema_check = False
    paths = []
    for arg in argv:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg == "--strict":
            strict = True
        elif arg == "--schema-check":
            schema_check = True
        elif arg.startswith("--"):
            raise ValueError(f"unknown flag {arg}")
        else:
            paths.append(arg)
    if schema_check:
        if not paths:
            raise ValueError("--schema-check needs at least one JSON path")
        return paths, None, threshold, strict, True
    if len(paths) != 2:
        raise ValueError("need exactly two JSON paths (baseline, fresh)")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"--threshold must be in (0, 1), got {threshold}")
    return paths[0], paths[1], threshold, strict, False


SPREAD_SUFFIXES = ("_min", "_max")


def is_identity(field, metrics):
    """True unless `field` is a metric or a metric's repeat spread."""
    if field in metrics:
        return False
    return not any(
        field.endswith(suffix) and field[: -len(suffix)] in metrics
        for suffix in SPREAD_SUFFIXES
    )


def row_key(row, metrics):
    """Identity of a row: every field that is not a metric, sorted."""
    return tuple(sorted((k, v) for k, v in row.items()
                        if is_identity(k, metrics)))


def load_sections(path):
    """Returns (data, {section: {row_key: row}}) for every known section."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    sections = {}
    for name, metrics in SECTIONS.items():
        rows = data.get(name)
        if rows is None:
            continue  # caller decides whether absence deserves a warning
        if not isinstance(rows, list):
            raise ValueError(f"{path}: section '{name}' is not an array")
        sections[name] = {row_key(r, metrics): r for r in rows}
    for name, value in data.items():
        if isinstance(value, list) and name not in SECTIONS:
            print(f"  note: unknown section '{name}' in {path} — skipping")
    if not sections:
        known = ", ".join(sorted(SECTIONS))
        raise ValueError(f"{path}: no known section array ({known})")
    return data, sections


def describe(key):
    return " ".join(f"{k}={v}" for k, v in key)


def compare_section(name, base_rows, fresh_rows, threshold, regressions):
    """Prints the per-row diff of one section; returns #metrics compared."""
    metrics = SECTIONS[name]
    compared = 0
    warned_metrics = set()
    for key, base in base_rows.items():
        fresh = fresh_rows.get(key)
        if fresh is None:
            print(f"  [{name}] missing in fresh run: {describe(key)}")
            continue
        for metric, good in metrics.items():
            if metric not in base or metric not in fresh:
                present_in = "fresh" if metric in fresh else "baseline"
                if metric in base or metric in fresh:
                    if metric not in warned_metrics:
                        warned_metrics.add(metric)
                        print(
                            f"  [{name}] metric '{metric}' only in "
                            f"{present_in} — skipping (regenerate the "
                            f"baseline to compare it)"
                        )
                continue
            old, new = float(base[metric]), float(fresh[metric])
            if old <= 0.0:
                continue
            compared += 1
            delta = (new - old) / old
            # A drop is bad for higher-is-better metrics, a rise for
            # lower-is-better ones.
            bad = -delta if good == "higher" else delta
            marker = ""
            if bad > threshold:
                marker = "  <-- REGRESSION"
                regressions.append((name, key, metric, old, new, delta))
            print(
                f"  [{name}] {describe(key)} {metric}: "
                f"{old:.1f} -> {new:.1f} ({delta:+.1%}){marker}"
            )
    for key in fresh_rows:
        if key not in base_rows:
            print(f"  [{name}] new row (no baseline): {describe(key)}")
    return compared


def schema_check(path):
    """Validates one bench JSON against the known-section schema."""
    _, sections = load_sections(path)  # raises on no known section
    rows_seen = 0
    for name, rows in sections.items():
        metrics = SECTIONS[name]
        for key, row in rows.items():
            rows_seen += 1
            for metric in metrics:
                if metric in row and not isinstance(
                    row[metric], (int, float)
                ):
                    raise ValueError(
                        f"{path}: [{name}] {describe(key)} metric "
                        f"'{metric}' is not numeric: {row[metric]!r}"
                    )
    if rows_seen == 0:
        raise ValueError(f"{path}: known sections present but all empty")
    names = ", ".join(sorted(sections))
    print(f"schema ok: {path} ({rows_seen} rows across {names})")
    return 0


def main(argv):
    try:
        args = parse_args(argv)
        base_path, fresh_path, threshold, strict, check_only = args
        if check_only:
            for path in base_path:
                schema_check(path)
            return 0
        base_data, base_sections = load_sections(base_path)
        _, fresh_sections = load_sections(fresh_path)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    regressions = []
    compared = 0
    for name in SECTIONS:
        base_rows = base_sections.get(name)
        fresh_rows = fresh_sections.get(name)
        if base_rows is None and fresh_rows is None:
            continue
        if base_rows is None:
            print(
                f"  section '{name}' not in baseline {base_path} — "
                f"skipping (regenerate the baseline to compare it)"
            )
            continue
        if fresh_rows is None:
            print(f"  section '{name}' not in fresh run {fresh_path} — "
                  f"skipping")
            continue
        compared += compare_section(
            name, base_rows, fresh_rows, threshold, regressions
        )

    if compared == 0:
        print("bench_compare: no comparable metrics found", file=sys.stderr)
        return 2
    bench = base_data.get("bench", base_path)
    if regressions:
        print(
            f"\nWARNING: {len(regressions)} metric(s) in '{bench}' moved "
            f"the wrong way by more than {threshold:.0%} vs {base_path}."
        )
        print(
            "Before treating this as a real regression, rebuild the prior "
            "commit and rerun the bench on THIS machine (EXPERIMENTS.md, "
            "'Benchmark workflow') — committed baselines carry machine "
            "drift."
        )
        return 1 if strict else 0
    print(f"\nno regressions beyond {threshold:.0%} in '{bench}'")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
