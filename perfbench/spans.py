#!/usr/bin/env python3
"""Per-layer self-time summary of perfbench span dumps.

    python3 perfbench/spans.py .bench_build/work/*/spans-*.tsv

One row per layer per workload: the layer's self time per window (median over the measured
windows), its share of the traced window time, and its calls per window. A layer is the span
name's prefix before the first '.' ("detector.advance" belongs to "detector"); "(window)" is
time inside a window that no layer span covers. Below each workload: trace.coverage (layer
self time over traced window time) and trace.overhead (traced over untraced median window
time). Spans outside the measured windows (set-up, warm-up windows, the offline decode pass,
log replay) are summed separately. Benchmark bookkeeping spans (bench.*) are excluded from
window time.
"""

import statistics
import sys


def load(path):
    header = {}
    spans = []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                for item in line[1:].split():
                    key, _, value = item.partition("=")
                    header[key] = value
                continue
            if line.startswith("id\t"):
                continue
            _, parent, window, _, name, start, end, calls = line.rstrip("\n").split("\t")
            spans.append({"parent": int(parent), "window": int(window), "name": name,
                          "dur": int(end) - int(start), "calls": int(calls)})
    return header, spans


def summarize(header, spans):
    """Returns (rows, coverage, overhead, outside, measured windows) for one dump."""
    self_ns = [s["dur"] for s in spans]
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            self_ns[s["parent"]] -= s["dur"]
            root[i] = root[s["parent"]]
    windows = sorted({s["window"] for s in spans
                      if s["name"] == "window" and s["window"] >= 0})
    per_window = {w: {} for w in windows}
    calls = {w: {} for w in windows}
    wall = {w: 0 for w in windows}
    outside = {}
    for i, s in enumerate(spans):
        layer = s["name"].split(".", 1)[0]
        in_window = spans[root[i]]["name"] == "window" and s["window"] in per_window
        if not in_window:
            outside[layer] = outside.get(layer, 0) + self_ns[i]
            continue
        w = s["window"]
        if s["name"] == "window":
            wall[w] += s["dur"]
            layer = "(window)"
        elif layer == "bench":
            wall[w] -= s["dur"]
            continue
        per_window[w][layer] = per_window[w].get(layer, 0) + self_ns[i]
        calls[w][layer] = calls[w].get(layer, 0) + s["calls"]
    layers = sorted({layer for w in windows for layer in per_window[w]})
    total_wall = sum(wall.values()) or 1
    rows = []
    for layer in layers:
        times = [per_window[w].get(layer, 0) / 1e6 for w in windows]
        total = sum(per_window[w].get(layer, 0) for w in windows)
        rows.append((layer, statistics.median(times), total / total_wall,
                     statistics.median([calls[w].get(layer, 0) for w in windows])))
    covered = sum(v for w in windows for layer, v in per_window[w].items() if layer != "(window)")
    coverage = covered / total_wall
    reference = float(header.get("reference_window_ms_p50", "0") or 0)
    traced = statistics.median([wall[w] / 1e6 for w in windows]) if windows else 0.0
    overhead = traced / reference if reference > 0 else float("nan")
    return rows, coverage, overhead, outside, len(windows)


def summary_table(paths):
    lines = []
    for path in paths:
        header, spans = load(path)
        rows, coverage, overhead, outside, n = summarize(header, spans)
        lines.append("span summary: workload %s seed %s, %d windows (%s)" % (
            header.get("workload", "?"), header.get("seed", "?"), n, path))
        lines.append("  %-10s %14s %10s %12s" % ("layer", "self ms/window", "share", "calls/window"))
        for layer, ms, share, calls in sorted(rows, key=lambda r: -r[2]):
            lines.append("  %-10s %14.3f %9.1f%% %12.0f" % (layer, ms, 100 * share, calls))
        lines.append("  trace.coverage %.4f  trace.overhead %.4f" % (coverage, overhead))
        if outside:
            lines.append("  outside measured windows (ms total): " + ", ".join(
                "%s %.1f" % (layer, ns / 1e6) for layer, ns in sorted(outside.items())))
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    print(summary_table(sys.argv[1:]))
