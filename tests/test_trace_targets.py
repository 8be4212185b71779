"""The benchmark's trace targets resolve on the live modules.

``perfbench/tracing.py`` times each layer by swapping module names that
``harness``, ``jordan`` and ``blocks`` look up at call time, and skips a
name the program no longer has.  The benchmark's own tests are outside
``testpaths``, so a refactor that drops a traced name would leave its layer
untimed without a failing test.  This reads the target tables (the file is
imported, never changed) and resolves every entry.
"""

import importlib.util
from pathlib import Path

from specvar import blocks, harness, jordan

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# targets the program dropped before this check existed; tracing.py still lists them
STALE = {
    "harness.kappa2", "harness.eq_norm_majorant", "harness.phi",
    "harness.envelope_margin", "harness.scaling_inequalities",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_live_trace_target_resolves():
    tracing = load_tracing()
    modules = {"harness": harness, "jordan": jordan, "blocks": blocks}
    missing = set()
    for module_name, attr, _ in (*tracing.SPAN_TARGETS, tracing.OP_BEGIN, tracing.OP_END):
        target = getattr(modules[module_name], attr, None)
        if target is None:
            missing.add(f"{module_name}.{attr}")
        else:
            assert callable(target), f"{module_name}.{attr}"
    assert missing <= STALE, sorted(missing - STALE)
    assert {"harness.gen_instance", "harness.run_trial"}.isdisjoint(missing)
