#!/usr/bin/env python3
"""Record-level diff of two Chrome traces written by obs::write_chrome_trace.

Usage: trace_diff.py OLD NEW

Shows which trace records moved between two runs, e.g. a golden trace built
at the parent commit and the one a change produces. Interned actor ids can
differ between runs, so records are matched by name, not by pid or tid:

  * each pid resolves to its sink label and each (pid, tid) to its actor name
    through the "M" metadata records;
  * the other records are grouped by (sink label, cat, name, actor name), and
    each group that differs is reported with its old and new record counts
    and its first differing record in ring order;
  * the metrics section is then compared key by key per sink label, with
    evicted_records as one more key.

Exit status: 0 when the traces are identical, 1 when they differ, 2 on a
usage error. The exporter writes one record per line, and the file is read
line by line, so a 90 MB trace never sits in memory as parsed JSON.
"""
import json
import sys


def read(path, on_record):
    """Calls on_record(group, record) for each non-metadata record of the
    trace at `path`, in ring order, and returns its metrics as
    {(sink label, key): value}."""
    sinks, actors, metrics = {}, {}, {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip().rstrip(",")
            if not line.startswith("{") or line.endswith("["):
                continue  # the array brackets around records and metrics
            rec = json.loads(line)
            pid = rec["pid"]
            if "values" in rec:
                sink = rec["label"]
                metrics[(sink, "evicted_records")] = rec["evicted_records"]
                for key, value in rec["values"].items():
                    metrics[(sink, key)] = value
            elif rec["ph"] == "M" and rec["name"] == "process_name":
                sinks[pid] = rec["args"]["name"]
            elif rec["ph"] == "M":
                actors[(pid, rec["tid"])] = rec["args"]["name"]
            else:
                group = (sinks[pid], rec["cat"], rec["name"],
                         actors.get((pid, rec["tid"]), ""))
                on_record(group, " ".join(
                    [f"ts={rec['ts']}"] +
                    [f"{k}={v}" for k, v in rec["args"].items()]))
    return metrics


def diff(old_path, new_path, out):
    """Writes the report for OLD -> NEW to `out`; returns True if identical."""
    old = {}
    old_metrics = read(old_path, lambda g, r: old.setdefault(g, []).append(r))
    new_count, first = {}, {}

    def on_new(group, rec):
        i = new_count.get(group, 0)
        new_count[group] = i + 1
        records = old.get(group, [])
        if group not in first and (i >= len(records) or records[i] != rec):
            first[group] = (i, records[i] if i < len(records) else None, rec)

    new_metrics = read(new_path, on_new)
    for group, records in old.items():
        n = new_count.get(group, 0)
        if group not in first and n < len(records):
            first[group] = (n, records[n], None)

    out.write(f"records: {len(first)} group(s) differ\n")
    for group, (i, was, now) in first.items():
        sink, cat, name, actor = group
        on = f" on {actor}" if actor else ""
        out.write(f"  [{sink}] {cat} {name}{on}: "
                  f"{len(old.get(group, []))} -> {new_count.get(group, 0)} "
                  f"records, first difference at #{i}\n"
                  f"    old: {was if was is not None else '(none)'}\n"
                  f"    new: {now if now is not None else '(none)'}\n")

    keys = list(old_metrics) + [k for k in new_metrics if k not in old_metrics]
    moved = [k for k in keys if old_metrics.get(k) != new_metrics.get(k)]
    out.write(f"metrics: {len(moved)} key(s) differ\n")
    for sink, key in moved:
        out.write(f"  [{sink}] {key}: {old_metrics.get((sink, key), '(none)')}"
                  f" -> {new_metrics.get((sink, key), '(none)')}\n")
    return not first and not moved


def main(argv):
    if len(argv) != 3:
        sys.stderr.write("usage: trace_diff.py OLD NEW\n")
        return 2
    return 0 if diff(argv[1], argv[2], sys.stdout) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
