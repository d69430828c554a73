"""Compose kernels into a runnable benchmark program.

A :class:`~repro.workloads.spec.BenchmarkSpec` lists kernel descriptors;
the generator instantiates each (with a deterministic per-kernel RNG
seeded from the spec), lays them out as procedures, and emits a ``main``
that calls them in order — sequential kernels are the program's *phases*.
Kernels emit instruction records, which the assembler's back half lays
out directly: no generated program passes through SX86 text, and its
:attr:`WorkloadProgram.source` is rendered only when read.
``scale`` multiplies hot-loop trip counts so the same workload can run
at smoke-test size or at paper size.
"""

import random

from repro.errors import WorkloadError
from repro.isa.assembler import assemble_records, records_source
from repro.isa.operands import LabelRef
from repro.workloads.kernels import KERNEL_KINDS

#: Spec parameters that scale with the workload size knob.
_SCALED_PARAMS = ("iters", "outer_iters")


class WorkloadProgram:
    """A generated benchmark: the program plus provenance."""

    def __init__(self, name, program, spec, scale=1.0):
        self.name = name
        self.program = program
        self.spec = spec
        self.scale = scale

    @property
    def source(self):
        """The program as SX86 text, generated and rendered on each read:
        :func:`~repro.isa.assemble` builds an equal program from it."""
        return records_source(*_records(self.spec, self.scale))

    def __repr__(self):
        return "<WorkloadProgram %s: %d instructions of code>" % (
            self.name,
            len(self.program),
        )


def build_workload_program(spec, scale=1.0):
    """Instantiate ``spec`` at ``scale``; returns :class:`WorkloadProgram`."""
    program = assemble_records(*_records(spec, scale))
    return WorkloadProgram(spec.name, program, spec, scale=scale)


def _records(spec, scale):
    """The code and data records of ``spec`` at ``scale``."""
    if scale <= 0:
        raise WorkloadError("scale must be positive")
    rng = random.Random(spec.seed)
    code = []
    data = []
    entries = []
    index = 0
    for descriptor in spec.kernels:
        descriptor = dict(descriptor)
        kind = descriptor.pop("kind")
        repeat = descriptor.pop("repeat", 1)
        cold = descriptor.pop("cold", False)
        builder = KERNEL_KINDS.get(kind)
        if builder is None:
            raise WorkloadError(
                "unknown kernel kind %r in %s" % (kind, spec.name)
            )
        if cold:
            # Cold/lukewarm code must keep its sub-threshold trip counts;
            # its share of the run scales through *more distinct kernels*
            # (exactly how large cold footprints behave in real codes).
            repeat = max(1, int(round(repeat * scale)))
        for _ in range(repeat):
            params = dict(descriptor)
            if not cold:
                for name in _SCALED_PARAMS:
                    if name in params:
                        jitter = rng.uniform(0.8, 1.25) if repeat > 1 else 1.0
                        params[name] = max(2, int(params[name] * scale * jitter))
            prefix = "k%d" % index
            index += 1
            kernel_rng = random.Random((spec.seed << 16) ^ (index * 2654435761))
            kernel = builder(prefix, kernel_rng, **params)
            code += kernel.code
            data += kernel.data
            entries.append(kernel.entry_label)

    main = [("main", None, None)]
    main += [(None, "call", (LabelRef(entry),)) for entry in entries]
    main.append((None, "hlt", ()))
    return main + code, data
