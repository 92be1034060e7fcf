#!/usr/bin/env python3
"""Tests for trace_diff.py on small synthetic traces in the exporter's
layout (obs/chrome_trace.h: one record per line)."""
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_diff.py")
SINK = "cell 0 seed=1"

# (actor, cat, name, ts, args); a counter's actor is its series name.
RECORDS = [
    ("link.fwd", "port", "enqueue", "1.000", {"a": 1518, "b": 0, "aux": 1}),
    ("lg/link.fwd/snd", "lg", "ack", "1.100", {"a": 1, "b": 0, "aux": 1}),
    ("link.fwd", "port", "enqueue", "1.200", {"a": 1518, "b": 1, "aux": 1}),
    ("lg/link.fwd/snd", "lg", "ack", "1.300", {"a": 2, "b": 1, "aux": 1}),
    ("sim.pending_events", "sim", "C", "2.000", {"value": 3}),
]
METRICS = {"lg.recovered": 2, "sim.events_executed": 10}


def trace(records, metrics, actors, evicted=0):
    """The exporter's bytes for one sink whose actors are interned in the
    order `actors` lists them (tid 1, 2, ...)."""
    tid = {name: i + 1 for i, name in enumerate(actors)}
    lines = ['{"ph":"M","pid":0,"name":"process_name","args":{"name":"main"}}',
             '{"ph":"M","pid":1,"name":"process_name","args":{"name":"%s"}}'
             % SINK]
    lines += ['{"ph":"M","pid":1,"tid":%d,"name":"thread_name",'
              '"args":{"name":"%s"}}' % (tid[a], a) for a in actors]
    for actor, cat, name, ts, args in records:
        if name == "C":
            lines.append('{"ph":"C","pid":1,"tid":0,"ts":%s,"cat":"%s",'
                         '"name":"%s","args":%s}'
                         % (ts, cat, actor, json.dumps(args)))
        else:
            lines.append('{"ph":"i","pid":1,"tid":%d,"ts":%s,"s":"t",'
                         '"cat":"%s","name":"%s","args":%s}'
                         % (tid[actor], ts, cat, name, json.dumps(args)))
    return ('{"displayTimeUnit":"ns","traceEvents":[\n' + ",\n".join(lines) +
            '\n],"metrics":[\n'
            '{"pid":0,"label":"main","evicted_records":0,"values":{}},\n'
            '{"pid":1,"label":"%s","evicted_records":%d,"values":%s}\n]}\n'
            % (SINK, evicted, json.dumps(metrics)))


class TraceDiffTest(unittest.TestCase):
    ACTORS = ["link.fwd", "lg/link.fwd/snd", "sim.pending_events"]

    def run_diff(self, old, new):
        with tempfile.TemporaryDirectory() as d:
            paths = [os.path.join(d, "old.json"), os.path.join(d, "new.json")]
            for path, text in zip(paths, (old, new)):
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text)
            run = subprocess.run([sys.executable, TOOL] + paths,
                                 capture_output=True, text=True)
        return run.returncode, run.stdout

    def named(self, report):
        """{section: the group or key names it lists} of a report."""
        names = {}
        for line in report.splitlines():
            if not line.startswith(" "):
                section = names.setdefault(line.split(":")[0], set())
            elif line.startswith("  ["):
                section.add(line.strip().split(":", 1)[0])
        return names

    def test_identical_traces(self):
        base = trace(RECORDS, METRICS, self.ACTORS)
        code, report = self.run_diff(base, base)
        self.assertEqual(code, 0, report)
        self.assertIn("records: 0 group(s) differ", report)
        self.assertIn("metrics: 0 key(s) differ", report)

    def test_swapped_tids_are_not_a_difference(self):
        code, report = self.run_diff(
            trace(RECORDS, METRICS, self.ACTORS),
            trace(RECORDS, METRICS, list(reversed(self.ACTORS))))
        self.assertEqual(code, 0, report)

    def test_names_exactly_the_moved_groups_and_keys(self):
        changed = list(RECORDS)
        actor, cat, name, ts, args = changed[3]
        changed[3] = (actor, cat, name, ts, dict(args, a=7))
        changed.insert(4, ("link.fwd", "port", "deliver", "1.400",
                           {"a": 1518, "b": 1, "aux": 0}))
        code, report = self.run_diff(
            trace(RECORDS, METRICS, self.ACTORS),
            trace(changed, dict(METRICS, **{"sim.events_executed": 11}),
                  self.ACTORS, evicted=1))
        self.assertEqual(code, 1, report)
        self.assertEqual(self.named(report), {
            "records": {f"[{SINK}] lg ack on lg/link.fwd/snd",
                        f"[{SINK}] port deliver on link.fwd"},
            "metrics": {f"[{SINK}] evicted_records",
                        f"[{SINK}] sim.events_executed"}})
        self.assertIn("2 -> 2 records, first difference at #1", report)
        self.assertIn("old: ts=1.3 a=2 b=1 aux=1", report)
        self.assertIn("new: ts=1.3 a=7 b=1 aux=1", report)
        self.assertIn("0 -> 1 records, first difference at #0", report)

    def test_usage_error(self):
        run = subprocess.run([sys.executable, TOOL], capture_output=True)
        self.assertEqual(run.returncode, 2)


if __name__ == "__main__":
    unittest.main()
