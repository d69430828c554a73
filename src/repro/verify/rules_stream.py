"""Execution-stream sidecar rule (TEA027).

A ``TEAS`` sidecar (:mod:`repro.cpu.stream`) stands in for a whole
interpreter run: MiniPin charges its costs from the lanes and the
replay engines consume its transitions, so a damaged sidecar would be
served as a wrong answer rather than fail.  TEA027 checks everything
that can be checked without re-executing the program: the envelope and
version, the CRC, that the key the file is filed under matches the
program digest and budget in its header (and the expected program,
when known), and that the header totals equal the lane sums.
"""

from repro.verify.engine import Rule, register


class StreamSidecar(Rule):
    rule_id = "TEA027"
    name = "stream-sidecar"
    family = "stream"
    description = (
        "An execution-stream sidecar must have a valid TEAS envelope and "
        "version, a matching CRC, a key matching its program digest and "
        "instruction budget, and header totals equal to its lane sums."
    )
    paper = "Table 2 (recorded once, replayed by another system)"
    requires = ("stream",)

    def check(self, subject):
        from repro.cpu.stream import check_stream_bytes

        for problem in check_stream_bytes(subject.stream,
                                          key=subject.stream_key,
                                          program_digest=subject.stream_digest):
            yield self.diag(problem, location=subject.source)


register(StreamSidecar())
