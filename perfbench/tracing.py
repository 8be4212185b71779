"""Op clock and span recorder for the benchmark.

The recorder times the program as it actually runs: it swaps the
module-level names that ``specvar.harness`` (and, for the two callees that
live elsewhere, ``specvar.jordan`` and ``specvar.blocks``) look up at call
time for thin wrappers, runs the real ``run_sweep``, and puts the originals
back afterwards.  Nothing in ``run_trial`` is re-implemented here, so a
later change that restructures the internals is measured as it runs.

Spans are kept in flat in-memory lists (name, start, end, parent, op id)
and written once, at the end, by :meth:`Recorder.dump`.  A span's self time
is its duration minus the durations of its direct children; because every
call is synchronous, spans nest exactly and the self times of all spans
under the benchmark's ``bench.round`` roots add up to the timed wall time.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

# (module, attribute, span name).  The layer is the span name's prefix.
# A target the program no longer has is skipped and listed in `missing`.
SPAN_TARGETS = (
    ("harness", "run_sweep", "harness.run_sweep"),
    ("harness", "random_conditioned", "generate.random_conditioned"),
    ("harness", "complex_gaussian", "generate.complex_gaussian"),
    ("harness", "rank_one", "generate.rank_one"),
    ("harness", "make_jordan_spec", "jordan.make_jordan_spec"),
    ("harness", "make_instance", "jordan.make_instance"),
    ("harness", "kappa2", "linalg.kappa2"),
    ("jordan", "kappa2", "linalg.kappa2"),
    ("harness", "eq_norm_majorant", "jordan.eq_norm_majorant"),
    ("harness", "perturbed_spectrum", "spectrum.perturbed_spectrum"),
    ("harness", "optimal_match", "spectrum.optimal_match"),
    ("harness", "s_values", "harness.s_values"),
    ("harness", "s_number", "blocks.s_number"),
    ("blocks", "s_number", "blocks.s_number"),
    ("blocks", "commutant_basis", "blocks.commutant_basis"),
    ("harness", "evaluate_bounds", "bounds.evaluate_bounds"),
    ("harness", "verify_instance", "bounds.verify_instance"),
    ("harness", "_margin_ratios", "jordan.margin_ratios"),
    ("harness", "phi", "jordan.phi"),
    ("harness", "envelope_margin", "jordan.envelope_margin"),
    ("harness", "scaling_inequalities", "jordan.scaling_inequalities"),
    ("harness", "summarize", "harness.summarize"),
)

# One sweep op is gen_instance followed by run_trial on its instance.
OP_BEGIN = ("harness", "gen_instance", "generate.gen_instance")
OP_END = ("harness", "run_trial", "harness.run_trial")

ROUND = "bench.round"


def layer_of(name: str) -> str:
    """Layer of a span name; the benchmark's own round span is unattributed."""
    return "unattributed" if name == ROUND else name.split(".", 1)[0]


class Recorder:
    """Per-op latencies, timed wall time and (when ``spans``) a span log."""

    def __init__(self, spans: bool):
        self.spans = spans
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.latencies: list[float] = []
        self.wall = 0.0
        self.rounds: list[tuple[int, float]] = []  # (ops, seconds) per round
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._op_t0 = 0.0

    # -- spans ------------------------------------------------------------
    def enter(self, name: str) -> None:
        self._stack.append(len(self.start))
        self.names.append(name)
        self.parent.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self.start.append(time.perf_counter())

    def exit(self) -> None:
        self.end[self._stack.pop()] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """Span around a call the benchmark makes itself (report I/O)."""
        if not self.spans:
            yield
            return
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @contextmanager
    def round(self):
        """The timed section of one round; adds its duration to ``wall``."""
        ops0, t0 = len(self.latencies), time.perf_counter()
        try:
            with self.span(ROUND):
                yield
        finally:
            secs = time.perf_counter() - t0
            self.wall += secs
            self.rounds.append((len(self.latencies) - ops0, secs))

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- ops --------------------------------------------------------------
    def op_begin(self) -> None:
        self._op_id += 1
        self._op_t0 = time.perf_counter()

    def op_end(self) -> None:
        self.latencies.append(time.perf_counter() - self._op_t0)

    # -- wrappers ---------------------------------------------------------
    def _spanned(self, fn, name):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def _op_begin(self, fn, name):
        inner = self._spanned(fn, name) if self.spans else fn
        op_begin = self.op_begin

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op_begin()
            return inner(*args, **kwargs)

        return wrapper

    def _op_end(self, fn, name):
        inner = self._spanned(fn, name) if self.spans else fn
        op_end = self.op_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                op_end()

        return wrapper

    @contextmanager
    def installed(self, modules: dict):
        """Wrap the target names in ``modules`` (short name -> module) for
        the duration of the block; the originals are always restored."""
        plan = [(OP_BEGIN, self._op_begin), (OP_END, self._op_end)]
        if self.spans:
            plan += [(target, self._spanned) for target in SPAN_TARGETS]
        saved = []
        try:
            for (mod_name, attr, span_name), make in plan:
                module = modules[mod_name]
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, make(fn, span_name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # -- analysis ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def by_name(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds)."""
        out: dict[str, tuple[int, float]] = {}
        for name, own in zip(self.names, self.self_times()):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + own)
        return out

    def by_layer(self) -> dict[str, float]:
        """Layer -> total self seconds; sums to the traced wall time."""
        out: dict[str, float] = {}
        for name, (_, total) in self.by_name().items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + total
        return out

    def dump(self, path, extra: dict) -> None:
        """Write the span log once, as compact JSON (times in microseconds
        from the first span)."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        t0 = self.start[0] if self.start else 0.0
        rows = [
            [index[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, o]
            for n, s, e, p, o in zip(self.names, self.start, self.end, self.parent, self.op)
        ]
        doc = dict(extra, columns=["name", "start_us", "end_us", "parent", "op"],
                   names=names, spans=rows)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
