"""The 26 SPEC CPU2000 stand-in benchmark definitions.

Each spec lists kernels whose mix shapes the workload to the original
benchmark's qualitative character (see the workload character table in
DESIGN.md).  The knobs and what they steer:

- ``counted_nest`` body size and depth: FP codes get large blocks and
  deep nests (high Table 1 savings, ~100% coverage, small TT trees);
- ``branchy_loop`` / ``branchy_nest`` diamonds and inner trip counts:
  integer branchiness (trace counts, CTT growth, TT explosion);
- ``switch_loop`` / indirect ``call_loop``: interpreter/virtual-dispatch
  codes (eon, perlbmk, gap) — extra Pin overhead, reduced coverage;
- ``rep_copy_loop`` placed cold: the mesa counting quirk (Section 4.1);
- low-trip ``branchy_loop``/``straightline`` kernels: lukewarm code that
  never crosses the hot threshold — it sets each benchmark's coverage
  ceiling (lucas ~90%, perlbmk ~83%, ...).

Trip counts assume the default hot threshold of 50; hot loops iterate
hundreds of times so that, as in the paper's full-length SPEC runs, the
recording warm-up is a small fraction of execution.
"""

import threading

from repro.errors import WorkloadError
from repro.workloads.generator import build_workload_program


class BenchmarkSpec:
    """One benchmark: a name, a suite tag, a seed and its kernel mix."""

    def __init__(self, name, suite, seed, kernels):
        self.name = name
        self.suite = suite
        self.seed = seed
        self.kernels = kernels

    @property
    def is_fp(self):
        return self.suite == "fp"

    def __repr__(self):
        return "<BenchmarkSpec %s (%s)>" % (self.name, self.suite)


def K(kind, repeat=1, **params):
    """Shorthand kernel descriptor."""
    descriptor = {"kind": kind, "repeat": repeat}
    descriptor.update(params)
    return descriptor


def _cold(repeat=4, n_ops=60):
    """Run-once straight-line cold code (scales by count, not trips)."""
    return K("straightline", repeat=repeat, n_ops=n_ops, cold=True)


def _lukewarm(repeat=4, iters=22, diamonds=1, body_ops=8):
    """Loops that stay below the hot threshold: never traced.

    With ``iters`` < 50 the backward-branch counter never fires, so each
    kernel contributes ~iters * (body+5) permanently cold instructions.
    """
    return K("branchy_loop", repeat=repeat, iters=iters, diamonds=diamonds,
             body_ops=body_ops, cold=True)


_FP = [
    BenchmarkSpec("168.wupwise", "fp", 168, [
        K("fp_nest", repeat=2, outer_iters=25, inner_iters=48, body_ops=9),
        K("call_loop", iters=300, n_funcs=2, func_ops=8),
        _cold(repeat=2),
    ]),
    BenchmarkSpec("171.swim", "fp", 171, [
        K("fp_nest", repeat=3, outer_iters=25, inner_iters=48, body_ops=11),
        _cold(repeat=1),
    ]),
    BenchmarkSpec("172.mgrid", "fp", 172, [
        K("counted_nest", depth=3, outer_iters=8, inner_iters=13, body_ops=12),
        K("fp_nest", repeat=2, outer_iters=25, inner_iters=48, body_ops=12),
        _cold(repeat=1),
    ]),
    BenchmarkSpec("173.applu", "fp", 173, [
        K("counted_nest", repeat=2, depth=3, outer_iters=8, inner_iters=12,
          body_ops=11),
        K("fp_nest", outer_iters=25, inner_iters=48, body_ops=11),
        _cold(repeat=2),
    ]),
    BenchmarkSpec("177.mesa", "fp", 177, [
        K("fp_nest", repeat=2, outer_iters=25, inner_iters=48, body_ops=8),
        K("branchy_loop", iters=700, diamonds=2, body_ops=5),
        # REP copies in *cold* code: Pin counts each iteration, StarDBT
        # one instruction -> replay coverage dips below DBT's (the one
        # exception in Table 2).
        K("rep_copy_loop", repeat=3, iters=10, words=220),
        _cold(repeat=2),
    ]),
    BenchmarkSpec("178.galgel", "fp", 178, [
        K("fp_nest", repeat=4, outer_iters=20, inner_iters=48, body_ops=8),
        K("branchy_loop", iters=600, diamonds=2, body_ops=6),
        _cold(repeat=2),
    ]),
    BenchmarkSpec("179.art", "fp", 179, [
        K("fp_nest", repeat=2, outer_iters=25, inner_iters=48, body_ops=6),
        K("branchy_loop", iters=1000, diamonds=2, body_ops=4),
        _cold(repeat=2),
    ]),
    BenchmarkSpec("183.equake", "fp", 183, [
        K("fp_nest", repeat=2, outer_iters=22, inner_iters=48, body_ops=8),
        K("switch_loop", iters=350, cases=4, case_ops=4),
        _cold(repeat=1),
    ]),
    BenchmarkSpec("187.facerec", "fp", 187, [
        K("fp_nest", repeat=2, outer_iters=22, inner_iters=48, body_ops=9),
        K("branchy_loop", iters=300, diamonds=1, body_ops=4),
        _cold(repeat=2),
    ]),
    BenchmarkSpec("188.ammp", "fp", 188, [
        K("fp_nest", repeat=2, outer_iters=22, inner_iters=48, body_ops=8),
        K("call_loop", iters=500, n_funcs=3, func_ops=6),
        _cold(repeat=2),
    ]),
    BenchmarkSpec("189.lucas", "fp", 189, [
        # Two phases of FFT-ish nests plus a sizeable lukewarm share:
        # replay coverage ~90% (Table 2's low FP row).
        K("fp_nest", repeat=2, outer_iters=22, inner_iters=48, body_ops=10),
        _lukewarm(repeat=14, iters=22, body_ops=10),
        _cold(repeat=2),
    ]),
    BenchmarkSpec("191.fma3d", "fp", 191, [
        K("fp_nest", repeat=3, outer_iters=20, inner_iters=48, body_ops=9),
        K("call_loop", iters=400, n_funcs=4, func_ops=7),
        _lukewarm(repeat=8, iters=22, body_ops=9),
        _cold(repeat=3),
    ]),
    BenchmarkSpec("200.sixtrack", "fp", 200, [
        K("fp_nest", repeat=4, outer_iters=20, inner_iters=48, body_ops=9),
        K("counted_nest", depth=3, outer_iters=8, inner_iters=12, body_ops=9),
        K("branchy_loop", repeat=2, iters=500, diamonds=3, body_ops=5),
        _lukewarm(repeat=3, iters=22, body_ops=8),
        _cold(repeat=3),
    ]),
    BenchmarkSpec("301.apsi", "fp", 301, [
        K("fp_nest", repeat=4, outer_iters=20, inner_iters=48, body_ops=9),
        K("branchy_loop", iters=600, diamonds=2, body_ops=5),
        _cold(repeat=2),
    ]),
]

_INT = [
    BenchmarkSpec("164.gzip", "int", 164, [
        K("branchy_nest", repeat=2, outer_iters=350, inner_iters=8,
          diamonds=3, body_ops=3),
        K("branchy_loop", iters=900, diamonds=4, body_ops=3),
        K("counted_nest", depth=2, outer_iters=55, inner_iters=20, body_ops=5),
        _cold(repeat=2),
    ]),
    BenchmarkSpec("175.vpr", "int", 175, [
        K("branchy_loop", repeat=2, iters=800, diamonds=3, body_ops=4),
        K("branchy_nest", outer_iters=200, inner_iters=4, diamonds=1,
          body_ops=3),
        _cold(repeat=2),
    ]),
    BenchmarkSpec("176.gcc", "int", 176, [
        # Huge code footprint, very many moderately hot loops: the most
        # traces by far (the Table 4 linked-list pathology).  Loops are
        # branchy but not nest-explosive (the paper's gcc TT is only
        # ~1.7x its MRET).
        K("branchy_loop", repeat=26, iters=220, diamonds=3, body_ops=4),
        K("branchy_loop", repeat=10, iters=200, diamonds=2, body_ops=5),
        K("call_loop", repeat=5, iters=150, n_funcs=3, func_ops=5),
        K("switch_loop", repeat=3, iters=300, cases=32, case_ops=3,
          case_diamonds=2),
        K("branchy_nest", repeat=2, outer_iters=100, inner_iters=4,
          diamonds=1, body_ops=3),
        _lukewarm(repeat=8, iters=22, body_ops=6),
        _cold(repeat=14, n_ops=80),
    ]),
    BenchmarkSpec("181.mcf", "int", 181, [
        K("branchy_loop", iters=900, diamonds=2, body_ops=3),
        K("branchy_nest", outer_iters=150, inner_iters=3, diamonds=1,
          body_ops=3),
        K("counted_nest", depth=2, outer_iters=55, inner_iters=25, body_ops=5),
        _cold(repeat=1),
    ]),
    BenchmarkSpec("186.crafty", "int", 186, [
        K("branchy_loop", repeat=7, iters=400, diamonds=4, body_ops=4),
        K("branchy_loop", repeat=2, iters=350, diamonds=3, body_ops=3),
        K("branchy_nest", outer_iters=120, inner_iters=5, diamonds=2,
          body_ops=3),
        K("call_loop", repeat=2, iters=300, n_funcs=3, func_ops=5),
        _lukewarm(repeat=7, iters=22, body_ops=8),
        _cold(repeat=6, n_ops=70),
    ]),
    BenchmarkSpec("197.parser", "int", 197, [
        K("branchy_loop", repeat=5, iters=500, diamonds=3, body_ops=4),
        K("call_loop", repeat=2, iters=380, n_funcs=2, func_ops=5),
        K("branchy_nest", outer_iters=90, inner_iters=4, diamonds=2,
          body_ops=3),
        _cold(repeat=3),
    ]),
    BenchmarkSpec("252.eon", "int", 252, [
        # Virtual-dispatch heavy: indirect calls dominate -> highest
        # replay time, reduced coverage.
        K("call_loop", repeat=4, iters=225, n_funcs=16, func_ops=6,
          indirect=True, func_diamonds=2),
        K("branchy_loop", repeat=2, iters=450, diamonds=3, body_ops=4),
        _lukewarm(repeat=3, iters=22, body_ops=9),
        _cold(repeat=5, n_ops=70),
    ]),
    BenchmarkSpec("253.perlbmk", "int", 253, [
        # Interpreter dispatch plus a large lukewarm share: the lowest
        # replay coverage in Table 2 (~83%).
        K("switch_loop", repeat=3, iters=360, cases=32, case_ops=4, case_diamonds=3),
        K("branchy_loop", repeat=3, iters=400, diamonds=3, body_ops=4),
        K("call_loop", iters=250, n_funcs=8, func_ops=5, indirect=True,
          func_diamonds=2),
        _lukewarm(repeat=12, iters=22, body_ops=10),
        _cold(repeat=8, n_ops=70),
    ]),
    BenchmarkSpec("254.gap", "int", 254, [
        K("switch_loop", repeat=2, iters=300, cases=16, case_ops=4, case_diamonds=2),
        K("call_loop", iters=250, n_funcs=8, func_ops=5, indirect=True,
          func_diamonds=2),
        K("branchy_loop", repeat=2, iters=450, diamonds=3, body_ops=4),
        _lukewarm(repeat=6, iters=22, body_ops=9),
        _cold(repeat=5),
    ]),
    BenchmarkSpec("255.vortex", "int", 255, [
        # Large OO code: many call-connected traces (the other Table 4
        # linked-list victim).
        K("call_loop", repeat=6, iters=300, n_funcs=4, func_ops=6),
        K("branchy_loop", repeat=8, iters=280, diamonds=3, body_ops=4),
        K("branchy_loop", repeat=3, iters=260, diamonds=2, body_ops=4),
        _cold(repeat=6, n_ops=70),
    ]),
    BenchmarkSpec("256.bzip2", "int", 256, [
        # The TT worst case: hot outer loops over small-trip, branchy
        # inner loops (sorting/huffman inner loops).
        K("branchy_nest", repeat=2, outer_iters=400, inner_iters=12,
          diamonds=3, body_ops=3),
        K("branchy_nest", outer_iters=280, inner_iters=6, diamonds=2,
          body_ops=3),
        K("counted_nest", depth=2, outer_iters=55, inner_iters=20, body_ops=5),
        _cold(repeat=2),
    ]),
    BenchmarkSpec("300.twolf", "int", 300, [
        K("branchy_loop", repeat=4, iters=550, diamonds=3, body_ops=4),
        K("branchy_nest", outer_iters=70, inner_iters=4, diamonds=1,
          body_ops=3),
        K("counted_nest", depth=2, outer_iters=55, inner_iters=22, body_ops=6),
        _cold(repeat=3),
    ]),
]

FP_BENCHMARKS = [spec.name for spec in _FP]
INT_BENCHMARKS = [spec.name for spec in _INT]

#: name -> BenchmarkSpec for all 26 benchmarks, paper order (FP then INT).
BENCHMARKS = {spec.name: spec for spec in _FP + _INT}


def get_benchmark(name):
    """Look up a spec by name (e.g. ``"176.gcc"``)."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise WorkloadError("unknown benchmark %r" % (name,)) from None


def load_benchmark(name, scale=1.0):
    """Build the program for benchmark ``name`` at ``scale``."""
    return build_workload_program(get_benchmark(name), scale=scale)


#: ``(name, scale)`` -> program content digest, memoised per process.
_DIGEST_CACHE = {}
_DIGEST_CACHE_LOCK = threading.Lock()
_DIGEST_CACHE_LIMIT = 1024


def program_digest(name, scale=1.0, program=None):
    """:meth:`~repro.isa.program.Program.content_digest` of benchmark
    ``name`` at ``scale``, memoised per process.

    Pass the already built ``program`` to seed the memo without
    building it again (the store's ``gc`` maps every snapshot's meta to
    its program digest this way).
    """
    key = (name, float(scale))
    with _DIGEST_CACHE_LOCK:
        found = _DIGEST_CACHE.get(key)
    if found is None:
        if program is None:
            program = load_benchmark(name, scale=scale).program
        found = program.content_digest()
        with _DIGEST_CACHE_LOCK:
            if len(_DIGEST_CACHE) >= _DIGEST_CACHE_LIMIT:
                _DIGEST_CACHE.clear()
            _DIGEST_CACHE[key] = found
    return found
