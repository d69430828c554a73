"""CI smoke test for the fleet audit engine.

Exercises the whole `repro tools audit` story the way CI consumes it:

1. build a store holding >= 50 distinct snapshots (one recorded
   program, meta variants);
2. cold audit with --jobs 4 --format sarif --out audit.sarif must
   exit 0 and report every artifact as a cold run;
3. a warm rerun over the unchanged store must be served entirely from
   the result cache and finish in under 10% of the cold wall-clock;
4. inject a corrupted snapshot and assert --baseline audit.sarif
   exits 1 reporting only the injected artifact's findings;
5. remove it again and assert the baseline run is quiet (exit 0).

The SARIF log written in step 2 is uploaded as the job artifact.
Run from the repository root with PYTHONPATH=src.  Exits non-zero on
the first violated invariant.
"""

import json
import os
import re
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from repro.core import build_tea  # noqa: E402
from repro.dbt import StarDBT  # noqa: E402
from repro.isa import assemble  # noqa: E402
from repro.store import AutomatonStore  # noqa: E402
from repro.traces.recorder import RecorderLimits  # noqa: E402

STORE = ".ci_audit_store"
CACHE = ".ci_audit_cache"
SARIF = "audit.sarif"
N_SNAPSHOTS = 50

SOURCE = """
main:
    mov ecx, 200
    mov eax, 0
outer:
    mov ebx, 8
inner:
    add eax, 1
    test eax, 3
    jnz skip
    add eax, 5
skip:
    dec ebx
    jnz inner
    dec ecx
    jnz outer
    hlt
"""


def fail(message):
    print("FAIL: %s" % message)
    sys.exit(1)


def run_audit(*extra):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools", "audit", STORE,
         "--cache-dir", CACHE, *extra],
        capture_output=True, text=True,
    )
    # The audit's own wall-clock, excluding interpreter start-up —
    # printed on the summary line as "..., 1.23s (catalog ...".
    match = re.search(r", (\d+\.\d+)s \(catalog", proc.stdout)
    return proc, float(match.group(1)) if match else float("inf")


def main():
    shutil.rmtree(STORE, ignore_errors=True)
    shutil.rmtree(CACHE, ignore_errors=True)

    program = assemble(SOURCE)
    recorded = StarDBT(
        program, limits=RecorderLimits(hot_threshold=10)
    ).run()
    trace_set = recorded.trace_set
    tea = build_tea(trace_set)
    store = AutomatonStore(STORE)
    for i in range(N_SNAPSHOTS):
        store.put(trace_set, tea=tea, meta={"variant": i})
    print("store: %d snapshots" % len(store))

    cold, cold_elapsed = run_audit("--jobs", "4",
                                   "--format", "sarif", "--out", SARIF)
    print(cold.stdout.strip())
    if cold.returncode != 0:
        fail("cold audit failed:\n%s" % (cold.stdout + cold.stderr))
    if "0 cached" not in cold.stdout:
        fail("cold audit unexpectedly hit the cache:\n%s" % cold.stdout)
    if not os.path.exists(SARIF):
        fail("no SARIF artifact written")
    sarif = json.load(open(SARIF))
    if sarif.get("version") != "2.1.0":
        fail("SARIF artifact is not version 2.1.0")

    warm, warm_elapsed = run_audit()
    print(warm.stdout.strip())
    if warm.returncode != 0:
        fail("warm audit failed:\n%s" % (warm.stdout + warm.stderr))
    if "0 cold" not in warm.stdout:
        fail("warm audit was not fully cached:\n%s" % warm.stdout)
    if warm_elapsed >= 0.10 * cold_elapsed:
        fail("warm rerun %.2fs is not under 10%% of cold %.2fs"
             % (warm_elapsed, cold_elapsed))
    print("warm/cold: %.2fs / %.2fs (%.1f%%)"
          % (warm_elapsed, cold_elapsed,
             100.0 * warm_elapsed / cold_elapsed))

    # Inject a corrupted snapshot: flip the final CRC byte.
    victim = store.path_for(sorted(store.keys())[0])
    with open(victim, "rb") as handle:
        data = bytearray(handle.read())
    data[-1] ^= 0xFF
    injected_dir = os.path.join(STORE, "zz")
    os.makedirs(injected_dir, exist_ok=True)
    injected = os.path.join(injected_dir, "f" * 64 + ".teab")
    with open(injected, "wb") as handle:
        handle.write(bytes(data))

    diffed, _ = run_audit("--baseline", SARIF,
                          "--format", "sarif", "--out", "new.sarif")
    print(diffed.stdout.strip())
    if diffed.returncode != 1:
        fail("baseline audit must exit 1 on the injected corruption "
             "(got %d):\n%s" % (diffed.returncode,
                                diffed.stdout + diffed.stderr))
    new = json.load(open("new.sarif"))
    uris = {
        loc["physicalLocation"]["artifactLocation"]["uri"]
        for run in new.get("runs", [])
        for res in run.get("results", [])
        for loc in res.get("locations", [])
    }
    if not uris:
        fail("no new findings reported for the injected corruption")
    if not all("f" * 64 in uri for uri in uris):
        fail("baseline leaked pre-existing findings: %s" % sorted(uris))

    os.unlink(injected)
    quiet, _ = run_audit("--baseline", SARIF)
    print(quiet.stdout.strip())
    if quiet.returncode != 0:
        fail("baseline audit over the restored store must be quiet:\n%s"
             % (quiet.stdout + quiet.stderr))

    shutil.rmtree(STORE, ignore_errors=True)
    shutil.rmtree(CACHE, ignore_errors=True)
    os.unlink("new.sarif")
    print("OK: fleet audit cold/warm/baseline invariants hold "
          "(%d artifacts)" % N_SNAPSHOTS)


if __name__ == "__main__":
    main()
