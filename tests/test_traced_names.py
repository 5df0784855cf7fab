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


def test_program_reads_the_benchmark_makes_exist():
    # the workloads read these off a compiled corpus program, its metrics
    # and a Monte Carlo result without a default; the mc set-up costs the
    # program through `CompiledProgram.cost()`, which nothing else calls
    import pgmq.cost
    import pgmq.noise
    import pgmq.passes
    import pgmq.qasm
    circ = pgmq.qasm.parse_qasm_file(str(ROOT / "benchmarks" / "ghz_n6.qasm"))
    prog = pgmq.passes.optimize(circ)
    cv = prog.cost()
    assert isinstance(cv.mq_count, int) and isinstance(cv.total_norm, float)
    assert isinstance(prog.iterations, int)
    assert isinstance(prog.commutation_events, int)
    assert prog.body.gadgets and isinstance(prog.scheme, str)
    assert prog.realized_circuit().gates
    m = pgmq.cost.metrics(prog.body, circ, prog.scheme)
    assert (m["compiledMqCount"], m["compiledNorm"]) == (cv.mq_count,
                                                         cv.total_norm)
    res = pgmq.noise.monte_carlo_fidelity(
        prog, circ, pgmq.noise.NoiseModel(1e-2, 1e-2, 7), samples=4, shots=3)
    assert 0.0 <= res.fidelity <= 1.0 and res.ci_low <= res.ci_high
    assert (res.samples, res.shots) == (4, 3)
