"""Every pgmq name the benchmark uses still exists in pgmq.

`perfbench/tracing.py` looks each traced function up on its defining module
and each traced method up in its class `__dict__`, with no default, so a
renamed or removed name would break every traced benchmark run.  This test
loads that file by path and only reads its two name tables.  The workloads
and the worker name `pgmq.<module>.<name>` attributes directly; those are
read from the files' text.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


TRACING = _tracing()


@pytest.mark.parametrize("home, attr", TRACING.FUNCTIONS,
                         ids=lambda x: x)
def test_traced_function_exists(home, attr):
    assert callable(getattr(importlib.import_module(f"pgmq.{home}"), attr))


@pytest.mark.parametrize("home, cls_name, attr, span", TRACING.METHODS,
                         ids=[m[3] for m in TRACING.METHODS])
def test_traced_method_is_in_class_dict(home, cls_name, attr, span):
    cls = getattr(importlib.import_module(f"pgmq.{home}"), cls_name)
    assert callable(cls.__dict__[attr])


def _direct_names():
    """Every `pgmq.<module>.<name>` the benchmark's workloads and worker
    use, read from their text (neither file is imported)."""
    names = set()
    for path in ("workloads.py", "worker.py"):
        text = (ROOT / "perfbench" / path).read_text(encoding="utf-8")
        names.update(re.findall(r"pgmq\.(\w+)\.(\w+)", text))
    return sorted(names)


@pytest.mark.parametrize("home, attr", _direct_names(),
                         ids=lambda x: x)
def test_benchmark_name_exists(home, attr):
    assert hasattr(importlib.import_module(f"pgmq.{home}"), attr)


def test_norm_reduction_step_result_is_what_the_tracer_reads():
    # the tracer counts a norm-reduction proposal when result[2] of
    # passes.norm_reduction_step is true; a reordered or reshaped result
    # would silently zero the benchmark's proposal count
    from pgmq.gadgets import GadgetSequence, PhaseGadget
    from pgmq.passes import norm_reduction_step
    seen = set()
    for support in ((0, 1), (0,)):
        result = norm_reduction_step(
            GadgetSequence(2, [PhaseGadget("Z", 0.3, support)]))
        assert isinstance(result, tuple) and len(result) == 3
        applied, seq, improved = result
        assert isinstance(applied, list) and isinstance(seq, GadgetSequence)
        assert improved is bool(applied)
        seen.add(improved)
    assert seen == {True, False}
