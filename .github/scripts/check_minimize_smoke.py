"""CI smoke test for the minimize + diff subsystem.

Exercises the whole pipeline the way an operator would, twice:

1. **Golden snapshot, via the CLI** — ``tests/golden/mcf_mret.teab``
   is a loose snapshot with no program image beside it, so ``repro
   tools minimize`` is given its program (181.mcf at scale 0.4, as its
   meta records).  The golden MRET recording has nothing to merge, so
   the minimized output must verify ``--strict`` clean and ``repro
   tools diff`` must report it *identical* (exit 0) — the pipeline is
   allowed to find exactly the merges that exist, here none.
2. **A merge-rich in-process recording** (181.mcf, tree traces) — the
   minimizer must actually merge, the TEA052-TEA053 strict report must
   stay clean, replay must be **bit-exact** (stats + coverage + cost
   breakdown) on all four Table 4 configurations, and the diff must
   report exactly the merged states as removed, nothing added, every
   head matched.  The minimized snapshot then round-trips through an
   ``AutomatonStore`` with TEA050-gated provenance.

Run from the repository root with PYTHONPATH=src.  Exits non-zero on
the first violated invariant.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from repro.compare import diff_automata  # noqa: E402
from repro.core import build_tea  # noqa: E402
from repro.core.replay import ReplayConfig  # noqa: E402
from repro.dbt import StarDBT  # noqa: E402
from repro.minimize import minimize_tea  # noqa: E402
from repro.pin import Pin, TeaReplayTool  # noqa: E402
from repro.store import AutomatonStore, dump_tea_binary  # noqa: E402
from repro.traces.recorder import RecorderLimits  # noqa: E402
from repro.verify import (  # noqa: E402
    verify_minimization,
    verify_snapshot_bytes,
)
from repro.workloads import load_benchmark  # noqa: E402

GOLDEN = os.path.join("tests", "golden", "mcf_mret.teab")
WORKDIR = ".ci_minimize"


def fail(message):
    print("FAIL: %s" % message)
    sys.exit(1)


def tools(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.tools"] + list(argv),
        capture_output=True, text=True,
    )


def check_golden_cli():
    minimized_path = os.path.join(WORKDIR, "golden.min.teab")

    proc = tools("tea", "info", GOLDEN, "--format", "json")
    if proc.returncode != 0:
        fail("tea info failed: %s" % proc.stderr)
    info = json.loads(proc.stdout)
    print("golden: %d states, mergeable estimate %d"
          % (info["states"], info["mergeable_estimate"]))

    proc = tools("minimize", GOLDEN, "--benchmark", "181.mcf",
                 "--scale", "0.4", "--out", minimized_path,
                 "--format", "json")
    if proc.returncode != 0:
        fail("minimize exited %d: %s" % (proc.returncode, proc.stderr))
    summary = json.loads(proc.stdout)
    if not summary["verified"]:
        fail("minimize CLI reported an unverified result")
    print("golden minimized: %d -> %d states (%d merged)"
          % (summary["states_before"], summary["states_after"],
             summary["merged"]))

    proc = tools("verify", "--strict", minimized_path)
    if proc.returncode != 0:
        fail("verify --strict rejected the minimized golden snapshot:\n%s"
             % proc.stdout)
    print("verify --strict: clean")

    # The golden MRET recording carries no redundancy: the diff must
    # report only the merges that exist — none — i.e. identical.
    proc = tools("diff", GOLDEN, minimized_path)
    if summary["merged"] == 0 and proc.returncode != 0:
        fail("diff expected identical (no merges), exited %d:\n%s"
             % (proc.returncode, proc.stdout))
    if summary["merged"] > 0 and proc.returncode != 1:
        fail("diff expected differences, exited %d" % proc.returncode)
    print("diff golden vs minimized: exit %d (expected)" % proc.returncode)


def replay_report(program, trace_set, tea, config):
    tool = TeaReplayTool(trace_set=trace_set, tea=tea, config=config)
    Pin(program, tool=tool).run()
    return tool.stats.as_dict(), tool.coverage, tool.snapshot()["cost"]


def check_merge_rich():
    benchmark, scale = "181.mcf", 0.5
    program = load_benchmark(benchmark, scale=scale).program
    trace_set = StarDBT(
        program, strategy="tt", limits=RecorderLimits(hot_threshold=10)
    ).run().trace_set
    tea = build_tea(trace_set)
    result = minimize_tea(tea)
    if result.merged <= 0:
        fail("tree recording of %s produced nothing to merge" % benchmark)
    print("%s/tt: %d -> %d states (%d merged)"
          % (benchmark, result.states_before, result.states_after,
             result.merged))

    report = verify_minimization(result, trace_set=trace_set)
    if not report.ok(strict=True):
        fail("TEA052-TEA053 strict report not clean:\n%s"
             % report.render_text(strict=True))
    print("verify_minimization: clean (%s)"
          % ", ".join(sorted(set(report.rules_run))))

    for factory in (ReplayConfig.global_local, ReplayConfig.global_no_local,
                    ReplayConfig.no_global_local,
                    ReplayConfig.no_global_no_local):
        original = replay_report(program, trace_set, tea, factory())
        minimized = replay_report(program, trace_set, result.tea, factory())
        if original != minimized:
            fail("replay diverged under %s" % factory.__name__)
    print("replay: bit-exact on all four Table 4 configurations")

    diff = diff_automata(tea, result.tea, label_a="original",
                         label_b="minimized")
    if diff.states["removed"] != result.merged or diff.states["added"] != 0:
        fail("diff reports %d removed / %d added; expected exactly the "
             "%d merged states"
             % (diff.states["removed"], diff.states["added"], result.merged))
    if diff.heads["matched"] != tea.n_traces:
        fail("diff lost head matches: %d of %d"
             % (diff.heads["matched"], tea.n_traces))
    print("diff: only the %d merged states removed, all %d heads matched"
          % (result.merged, tea.n_traces))

    store = AutomatonStore(os.path.join(WORKDIR, "store"))
    key = store.put(trace_set, tea=tea,
                    meta={"benchmark": benchmark, "scale": scale,
                          "label": "smoke"}, program=program)
    new_key, _ = store.put_minimized(key)
    snapshot_report = verify_snapshot_bytes(store.get_bytes(new_key))
    if not snapshot_report.ok(strict=True):
        fail("TEA050 rejected genuine provenance:\n%s"
             % snapshot_report.render_text(strict=True))
    if "TEA050" not in snapshot_report.rules_run:
        fail("TEA050 did not run on the minimized snapshot")
    print("store: minimized snapshot %s... gated by TEA050" % new_key[:12])

    # The minimized automaton also serializes standalone and diffs
    # identical against itself across representations.
    data = dump_tea_binary(trace_set, tea=result.tea)
    from repro.store import compile_tea_binary

    if not diff_automata(result.tea,
                         compile_tea_binary(data, verify=False)).identical:
        fail("minimized automaton does not diff identical against its "
             "compiled lowering")
    print("diff: object vs compiled lowering identical")


def main():
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        check_golden_cli()
        check_merge_rich()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print("OK: minimize + diff smoke passed")


if __name__ == "__main__":
    main()
