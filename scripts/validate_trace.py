#!/usr/bin/env python3
"""Validate observability artifacts against their documented schemas.

Usage:
    scripts/validate_trace.py FILE [FILE...]

Files ending in .json are checked as Chrome trace-event documents
(DESIGN.md §10): a top-level object with a "traceEvents" array whose
elements carry name/ph/ts/pid/tid, whose B/E events nest correctly per
thread, and (when present) whose metadata declares schema_version 1 and
kind "gly.trace".

Files ending in .jsonl are checked as metrics exports: a schema header
line {"schema_version": 1, "kind": "gly.metrics"} followed by one metric
object per line, each a counter or a gauge with a numeric "value".

JSON files whose top level declares kind "gly.profile" are checked as
profile.json documents (DESIGN.md §14): schema_version 1, numeric
wall/critical-path seconds with critical_path_seconds <= wall_seconds,
critical_path / workers / self_time arrays with typed fields, a sampler
block, and folded stack lines ("frame;frame count") whose counts sum to
sampler.samples.

Files ending in .folded are checked as flamegraph folded-stack syntax:
every line is "frame(;frame)* count" with no stray separators.

Exit status: 0 when every file validates, 1 on the first violation,
2 on usage errors. Independent of the C++ validator on purpose: the C++
and Python checkers agreeing on the committed samples is the
cross-implementation test of the schema.
"""

import json
import sys


def fail(path, what):
    print(f"validate_trace: {path}: {what}", file=sys.stderr)
    sys.exit(1)


def check_folded_line(path, lineno, line):
    """One folded-stack line: "frame(;frame)* count"."""
    space = line.rfind(" ")
    if space <= 0:
        fail(path, f"folded line {lineno}: no count separator: {line!r}")
    stack, count = line[:space], line[space + 1:]
    if not count.isdigit() or int(count) < 1:
        fail(path, f"folded line {lineno}: count {count!r} is not a "
                   f"positive integer")
    frames = stack.split(";")
    if any(not f or " " in f for f in frames):
        fail(path, f"folded line {lineno}: empty frame or space inside a "
                   f"frame: {stack!r}")
    return int(count)


def validate_folded(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        fail(path, f"cannot read: {exc}")
    total = 0
    for i, line in enumerate(lines, start=1):
        total += check_folded_line(path, i, line)
    print(f"validate_trace: {path}: ok — {len(lines)} stacks, "
          f"{total} samples")


def require_number(path, doc, key, parent="profile"):
    value = doc.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(path, f"{parent}.{key} is {value!r}, want a number")
    return value


def validate_profile(path, doc):
    if doc.get("schema_version") != 1:
        fail(path, f"schema_version is {doc.get('schema_version')!r}, "
                   f"want 1")
    if not isinstance(doc.get("root"), str):
        fail(path, '"root" must be a string')
    wall = require_number(path, doc, "wall_seconds")
    critical = require_number(path, doc, "critical_path_seconds")
    require_number(path, doc, "completed_spans")
    # The analytical invariant the analyzer guarantees by construction.
    if critical > wall + 1e-9:
        fail(path, f"critical_path_seconds {critical} exceeds "
                   f"wall_seconds {wall}")
    for key, fields in (
            ("critical_path", ("tid", "span_seconds", "self_seconds")),
            ("workers", ("tid", "busy_seconds", "idle_seconds",
                         "utilization")),
            ("self_time", ("self_seconds", "count"))):
        entries = doc.get(key)
        if not isinstance(entries, list):
            fail(path, f'no "{key}" array')
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                fail(path, f"{key}[{i}] is not an object")
            for field in fields:
                require_number(path, entry, field, parent=f"{key}[{i}]")
            if key != "workers" and not isinstance(entry.get("name"), str):
                fail(path, f"{key}[{i}].name must be a string")
    for step in doc["critical_path"]:
        if step["self_seconds"] > step["span_seconds"] + 1e-9:
            fail(path, f"critical_path step {step['name']!r} has "
                       f"self_seconds > span_seconds")
    sampler = doc.get("sampler")
    if not isinstance(sampler, dict):
        fail(path, 'no "sampler" object')
    if not isinstance(sampler.get("mode"), str):
        fail(path, "sampler.mode must be a string")
    for key in ("interval_us", "samples", "dropped"):
        require_number(path, sampler, key, parent="sampler")
    folded = doc.get("folded")
    if not isinstance(folded, list):
        fail(path, 'no "folded" array')
    total = 0
    for i, line in enumerate(folded, start=1):
        if not isinstance(line, str):
            fail(path, f"folded[{i - 1}] is not a string")
        total += check_folded_line(path, i, line)
    # The sampler accounting invariant: nothing lost, nothing forged.
    if total != sampler["samples"]:
        fail(path, f"folded counts sum to {total}, sampler.samples is "
                   f"{sampler['samples']}")
    print(f"validate_trace: {path}: ok — profile of {doc['root']!r}, "
          f"critical path {critical:.6f}s of {wall:.6f}s wall, "
          f"{len(folded)} folded stacks / {total} samples")


def validate_trace(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(path, f"cannot parse: {exc}")
    if not isinstance(doc, dict):
        fail(path, "top level is not an object")
    if doc.get("kind") == "gly.profile":
        validate_profile(path, doc)
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(path, 'no "traceEvents" array')
    metadata = doc.get("metadata", {})
    if metadata:
        if metadata.get("schema_version") != 1:
            fail(path, f"metadata.schema_version is "
                       f"{metadata.get('schema_version')!r}, want 1")
        if metadata.get("kind") != "gly.trace":
            fail(path, f"metadata.kind is {metadata.get('kind')!r}, "
                       f"want 'gly.trace'")

    stacks = {}  # tid -> [span names]
    completed = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(path, f"traceEvents[{i}] is not an object")
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                fail(path, f"traceEvents[{i}] missing {key!r}")
        if not isinstance(event["name"], str) or not isinstance(
                event["ph"], str):
            fail(path, f"traceEvents[{i}]: name/ph must be strings")
        if not isinstance(event["ts"], (int, float)):
            fail(path, f"traceEvents[{i}]: ts must be a number")
        ph, tid, name = event["ph"], event["tid"], event["name"]
        stack = stacks.setdefault(tid, [])
        if ph == "B":
            stack.append(name)
        elif ph == "E":
            if not stack:
                fail(path, f"traceEvents[{i}]: 'E' for {name!r} on tid "
                           f"{tid} with no open span")
            if stack[-1] != name:
                fail(path, f"traceEvents[{i}]: 'E' for {name!r} closes "
                           f"{stack[-1]!r} on tid {tid}")
            stack.pop()
            completed += 1
        elif ph == "i":
            if event.get("s") not in ("t", "p", "g"):
                fail(path, f"traceEvents[{i}]: instant event without a "
                           f"valid scope ('s')")
    open_spans = sum(len(s) for s in stacks.values())
    print(f"validate_trace: {path}: ok — {len(events)} events, "
          f"{completed} completed spans, {open_spans} left open")


def validate_metrics(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        fail(path, f"cannot read: {exc}")
    if not lines:
        fail(path, "empty document (missing schema header)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        fail(path, f"header is not JSON: {exc}")
    if header.get("schema_version") != 1 or header.get("kind") != \
            "gly.metrics":
        fail(path, f"bad schema header: {lines[0]!r}")

    names = set()
    for i, line in enumerate(lines[1:], start=2):
        try:
            metric = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(path, f"line {i} is not JSON: {exc}")
        name = metric.get("name")
        mtype = metric.get("type")
        if not isinstance(name, str) or not name:
            fail(path, f"line {i}: missing metric name")
        if name in names:
            fail(path, f"line {i}: duplicate metric {name!r}")
        names.add(name)
        if mtype in ("counter", "gauge"):
            if not isinstance(metric.get("value"), (int, float)):
                fail(path, f"line {i}: {name!r} has no numeric value")
            if mtype == "counter" and (not isinstance(metric["value"], int)
                                       or metric["value"] < 0):
                fail(path, f"line {i}: counter {name!r} must be a "
                           f"non-negative integer")
        else:
            fail(path, f"line {i}: unknown metric type {mtype!r}")
    print(f"validate_trace: {path}: ok — {len(names)} metrics")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        if path.endswith(".jsonl"):
            validate_metrics(path)
        elif path.endswith(".folded"):
            validate_folded(path)
        else:
            validate_trace(path)


if __name__ == "__main__":
    main()
