"""Sidecar rule (TEA027): execution streams and program images.

A ``TEAS`` sidecar (:mod:`repro.cpu.stream`) stands in for a whole
interpreter run: MiniPin charges its costs from the lanes and the
replay engines consume its transitions, so a damaged sidecar would be
served as a wrong answer rather than fail.  A ``TEAP`` program image
(:mod:`repro.isa.image`) stands in for the program a snapshot was
recorded against, with the same stakes.  TEA027 checks everything
that can be checked without re-executing the program:

- a sidecar's envelope and version, its CRC, that the key the file is
  filed under matches the program digest and budget in its header
  (and the expected program, when known), and that the header totals
  equal the lane sums;
- an image's envelope and version, its CRC, that it is filed under
  the snapshot its header names, and that it decodes to a program
  whose content digest equals the header's.
"""

from repro.verify.engine import Rule, register


class StreamSidecar(Rule):
    rule_id = "TEA027"
    name = "stream-sidecar"
    family = "stream"
    description = (
        "An execution-stream sidecar must have a valid TEAS envelope and "
        "version, a matching CRC, a key matching its program digest and "
        "instruction budget, and header totals equal to its lane sums; "
        "a program image must have a valid TEAP envelope and version, a "
        "matching CRC, the owner key it is filed under, and decode to "
        "the program digest in its header."
    )
    paper = "Table 2 (recorded once, replayed by another system)"
    requires = ("stream",)

    def check(self, subject):
        from repro.cpu.stream import check_stream_bytes
        from repro.isa.image import IMAGE_MAGIC, check_image_bytes

        data = subject.stream
        if bytes(data[:4]) == IMAGE_MAGIC:
            problems = check_image_bytes(data, owner=subject.stream_key)
        else:
            problems = check_stream_bytes(
                data, key=subject.stream_key,
                program_digest=subject.stream_digest)
        for problem in problems:
            yield self.diag(problem, location=subject.source)


register(StreamSidecar())
