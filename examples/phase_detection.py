"""Phase detection from trace exit ratios (the paper's §5 extension).

Wimmer et al. detect program phases from trace stability: while the
recorded traces rarely take side exits the program is in a stable phase;
bursts of side exits mark phase transitions.  TEA makes this nearly
free: the replayer already knows, at every block boundary, whether the
automaton stayed inside a trace.

This example builds a three-phase program (a lucas-like FFT pass, a
gzip-like branchy pass, then the FFT again), records traces, replays
them through :meth:`TeaReplayer.step` — the per-row walk over the
recorded stream's lanes, whose ``on_step`` observer sees every
automaton move — with a
:class:`~repro.analysis.phases.PhaseDetector` attached, and prints the
detected phase timeline.

Run:  python examples/phase_detection.py
"""

from repro import ReplayConfig, StarDBT, TeaReplayer, assemble, build_tea
from repro.analysis import PhaseDetector
from repro.cpu.events import END_OF_RUN
from repro.cpu.stream import ExecutionStream
from repro.traces.recorder import RecorderLimits

THREE_PHASE_SOURCE = """
main:
    call fft_pass
    call huffman_pass
    call fft_pass
    hlt

fft_pass:
    mov ecx, 900
f1_loop:
    add eax, 3
    imul edx, 5
    xor edx, eax
    dec ecx
    jnz f1_loop
    ret

huffman_pass:
    mov ecx, 900
    mov eax, 709
h_loop:
    imul eax, 1103515245
    add eax, 12345
    mov ebx, eax
    shr ebx, 7
    and ebx, 15
    jz h_rare           ; 1 in 16 iterations
    add esi, 2
h_end:
    dec ecx
    jnz h_loop
    ret
h_rare:
    sub esi, 1
    jmp h_end
"""


def main():
    program = assemble(THREE_PHASE_SOURCE)
    recorded = StarDBT(program, strategy="mret",
                       limits=RecorderLimits(hot_threshold=15)).run()
    print("recorded %d traces" % len(recorded.trace_set))
    for trace in recorded.trace_set:
        print("  T%d entry %#x (%d blocks)"
              % (trace.trace_id, trace.entry, len(trace)))

    detector = PhaseDetector(window=128, exit_threshold=0.15)
    replayer = TeaReplayer(build_tea(recorded.trace_set),
                           config=ReplayConfig.global_local())
    replayer.on_step = detector.on_step
    rows = ExecutionStream.record(program).transitions
    for next_start, instrs_dbt, instrs_pin in zip(rows[0::3], rows[1::3],
                                                  rows[2::3]):
        replayer.step(None if next_start == END_OF_RUN else next_start,
                      instrs_dbt, instrs_pin)
    detector.finish()

    print("\ndetected phases (block-transition timeline):")
    for index, phase in enumerate(detector.phases, start=1):
        traces = ", ".join("T%d" % t for t in sorted(phase.dominant_traces))
        print("  phase %d: blocks %6d..%-6d dominated by %s"
              % (index, phase.start_block, phase.end_block, traces))
    print("phase transitions observed: %d" % detector.n_transitions)

    first = detector.phases[0].dominant_traces
    last = detector.phases[-1].dominant_traces
    if first & last:
        print("\nthe first and last phases share traces: the program "
              "returned to its initial behaviour (fft - huffman - fft), "
              "and the exit-ratio signal caught it.")


if __name__ == "__main__":
    main()
