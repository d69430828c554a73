"""Fold a traced run's spans and server counters into per-layer metrics.

Only spans that start and end inside the measured window count.  Work
done by a layer is reported per completed operation of the workload
(``s/op``, ``1/op``), so a layer that gets faster shows a smaller
number even though a faster run completes more operations in its
window.  Per-request times (``service.replay_server_s``,
``service.wait_s``, ``client.rpc_s.*``) are means per request.  A layer
the workload never calls reads 0.
"""

import glob
import json
import os
from collections import Counter

CLIENT_METHODS = ("replay", "reload")


def read_spans(directory):
    """``(pid, name, tag, start, end, self_seconds)`` of every span."""
    spans = []
    for path in glob.glob(os.path.join(directory, "*.jsonl")):
        pid = int(os.path.basename(path).split(".")[0])
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                spans.append((pid,) + tuple(json.loads(line)))
    return spans


def _delta(pair, name, field):
    """Growth of one server timer field across the window."""
    before, after = pair
    old = before.get("timers", {}).get(name, {})
    new = after.get("timers", {}).get(name, {})
    return new.get(field, 0) - old.get(field, 0)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(outcome, spans, ops):
    """Every per-layer metric of one traced run, by name."""
    low, high = outcome.window
    count = Counter()
    busy = Counter()
    wall = Counter()
    for pid, name, tag, start, end, self_seconds in spans:
        if start < low or end > high:
            continue
        if name == "client.call":
            name = "client.call:%s" % tag
        elif pid == outcome.server_pid and name in ("pin.run",
                                                    "service.encode"):
            name = "server:" + name
        count[name] += 1
        busy[name] += self_seconds
        wall[name] += end - start

    def per_op(value):
        return _ratio(value, ops)

    replays = _delta(outcome.server_stats, "service.latency.replay", "count")
    replay_seconds = _delta(outcome.server_stats, "service.latency.replay",
                            "seconds")
    server_pin_runs = count["server:pin.run"]
    metrics = {
        "cpu.runs": per_op(count["cpu.run"]),
        "cpu.self_s": per_op(busy["cpu.run"]),
        "pin.runs": per_op(count["pin.run"] + server_pin_runs),
        "pin.native_runs": per_op(count["pin.native"]),
        "pin.self_s": per_op(busy["pin.run"] + busy["server:pin.run"]
                             + busy["pin.native"]),
        "core.engine_s": per_op(busy["core.engine"]),
        "core.engine_calls": per_op(count["core.engine"]),
        "core.build_s": per_op(busy["core.build"]),
        "dbt.records": per_op(count["dbt.run"]),
        "dbt.self_s": per_op(busy["dbt.run"]),
        "store.puts": per_op(count["store.put"]),
        "store.put_s": per_op(busy["store.put"]),
        "store.gc_s": per_op(busy["store.gc"]),
        "verify.calls": per_op(count["verify.snapshot"]),
        "verify.snapshot_s": per_op(busy["verify.snapshot"]),
        "workloads.load_s": per_op(busy["workloads.load"]),
        "service.load_s": per_op(busy["service.load"]),
        "service.encode_s": per_op(busy["server:service.encode"]),
        "service.replay_server_s": _ratio(replay_seconds, replays),
        "service.wait_s": _ratio(replay_seconds - wall["server:pin.run"],
                                 replays),
        "service.compute_per_replay": _ratio(server_pin_runs, replays),
    }
    for method in CLIENT_METHODS:
        key = "client.call:%s" % method
        metrics["client.rpc_s.%s" % method] = _ratio(wall[key], count[key])
    return metrics
