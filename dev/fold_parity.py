"""Print MiniPin's cost totals, exactly, for a fixed set of runs.

One line per run: the program, ``full`` or ``over`` (a budget of two
thirds of the program's instructions, so the run raises), the tool (no
tool, or a TEA replay of StarDBT's MRET traces under one of the four
Table 4 configurations) and its packed batch size, then ``repr(cycles)``
and the cost breakdown as ``category=repr(value)`` in key order.

Each run is made twice on one stream, and the script exits 1 when the
second run's line differs from the first's: the first builds the
stream's charge tape, the second prices and folds from it, with the
charges the first listed for the chunks it folded.  The line printed
is the first run's.

Run it under two Pythons, or on two checkouts, and compare: a line that
differs is a charge folded differently.  With ``--against`` it reads an
earlier output, prints every differing line and exits 1 on any::

    PYTHONPATH=src python3.11 dev/fold_parity.py > ref.txt
    PYTHONPATH=src python3.13 dev/fold_parity.py --against ref.txt

``tests/golden/fold_parity.txt`` is the output of MiniPin when it
folded every charge one at a time; CI compares the current code with
it on the oldest and newest supported Pythons.
"""

import argparse
import sys

from repro import (
    ExecutionStream,
    Pin,
    ReplayConfig,
    StarDBT,
    TeaReplayTool,
    load_benchmark,
)
from repro.errors import InstructionLimitExceeded

BENCHMARKS = ("164.gzip", "176.gcc", "181.mcf")
CONFIGS = ("global_local", "global_no_local", "no_global_local",
           "no_global_no_local")
BATCHES = (1, 7, 4096)


def lines(scale):
    """Per run, its line from a first and a second run on one stream:
    the second prices and folds from the charge tape the first built,
    and folds with the chunk charges it kept."""
    for name in BENCHMARKS:
        program = load_benchmark(name, scale=scale).program
        stream = ExecutionStream.record(program)
        traces = StarDBT(program, stream=stream).run().trace_set
        over = 2 * stream.instrs_dbt // 3
        for label, budget, shared in (
                ("full", stream.max_instructions, stream),
                ("over", over, ExecutionStream.record(program, over))):
            runs = [("no-tool", None, None)] + [
                (config, batch, getattr(ReplayConfig, config))
                for config in CONFIGS for batch in BATCHES]
            for tool_name, batch, config in runs:
                head = ["%s@%s" % (name, scale), label, tool_name, str(batch)]
                pair = []
                for _run in range(2):
                    tool = None if config is None else TeaReplayTool(
                        trace_set=traces, config=config(), batch_size=batch)
                    pin = Pin(program, tool=tool, max_instructions=budget,
                              stream=shared)
                    pair.append(" ".join(head + charged(pin)))
                yield tuple(pair)


def charged(pin):
    """``repr(cycles)`` and the breakdown items of ``pin``'s run."""
    try:
        pin.run()
    except InstructionLimitExceeded:
        pass
    cost = pin.cost
    return [repr(cost.cycles)] + ["%s=%r" % item
                                  for item in cost.breakdown.items()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--against", metavar="FILE",
                        help="an earlier output to compare with")
    args = parser.parse_args(argv)
    pairs = list(lines(args.scale))
    got = [first for first, _second in pairs]
    unstable = [(a, b) for a, b in pairs if a != b]
    for a, b in unstable:
        print("second run differs:\n- %s\n+ %s" % (a, b), file=sys.stderr)
    if args.against is None:
        print("\n".join(got))
        return 1 if unstable else 0
    with open(args.against) as handle:
        want = handle.read().splitlines()
    differ = [(a, b) for a, b in zip(want, got) if a != b]
    for a, b in differ:
        print("- %s\n+ %s" % (a, b))
    if len(want) != len(got):
        print("%d lines, %d expected" % (len(got), len(want)))
        return 1
    print("%d runs, %d differ, %d second runs differ"
          % (len(got), len(differ), len(unstable)))
    return 1 if differ or unstable else 0


if __name__ == "__main__":
    sys.exit(main())
