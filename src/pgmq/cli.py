"""Command-line interface: compile, verify, bench, simulate.

Exit codes: 0 success, 1 verification failure, 2 parse error or unsupported
input, 3 internal invariant violation or any other unexpected error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import (DEFAULT_ORACLE_CAP, Circuit, CircuitError, InputError,
                      apply_unitary, phase_distance)
from .cost import ANCILLA_MERGED, AUTO, NO_ANCILLA, metrics
from .noise import (MAX_SAMPLE_SHOTS, STATEVECTOR_CAP, NoiseModel,
                    check_simulable, monte_carlo_fidelity, relative_error,
                    success_probability)
from .passes import CompileOptions, CompiledProgram, optimize
from .qasm import QasmError, parse_qasm_file
from .serialize import dumps as program_dumps, load as program_load

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

VERIFY_TOL = 1e-8
LEAK_TOL = 1e-12


def _parse_cost(text: str) -> float | None:
    """Parse a --cost value: "lex" (None) or "weighted:W" with a finite W,
    which orders programs by count + W * norm."""
    if text == "lex":
        return None
    if text.startswith("weighted:"):
        try:
            weight = float(text.split(":", 1)[1])
        except ValueError:
            weight = math.nan
        if math.isfinite(weight):
            return weight
    raise argparse.ArgumentTypeError(
        f"unknown cost order {text!r} (lex or weighted:W with a finite W)")


def _in_range(kind, low, high=math.inf):
    """Parser of a flag value of type `kind` (int or float) in [low, high];
    nan and unparsable text are refused."""
    what = {int: "an integer", float: "a number"}[kind]
    span = f"of at least {low}" if high == math.inf else f"in [{low}, {high}]"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if low <= value <= high:
            return value
        raise argparse.ArgumentTypeError(f"{text!r} is not {what} {span}")
    return parse


_SEED = _in_range(int, 0, 2 ** 63 - 1)  # NoiseModel's seed range


def _compile_options(args) -> CompileOptions:
    scheme = AUTO
    if getattr(args, "ancilla", None) is True:
        scheme = ANCILLA_MERGED
    elif getattr(args, "ancilla", None) is False:
        scheme = NO_ANCILLA
    return CompileOptions(scheme=scheme, cost_weight=args.cost,
                          max_iters=args.max_iters)


def _opts_hash(opts: CompileOptions, seed: int) -> str:
    # "lex|1.0" for the lexicographic order and "greedy", the matching
    # compile uses, keep hash values stable
    cost = "lex|1.0" if opts.cost_weight is None \
        else f"weighted|{opts.cost_weight}"
    text = f"{opts.scheme}|{cost}|{opts.max_iters}|greedy|{seed}"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _json_text(report: dict) -> str:
    """Strict JSON of a report: non-finite floats are written as null (the
    first dump spells them NaN/Infinity, which the reload turns into None)."""
    plain = json.loads(json.dumps(report), parse_constant=lambda _: None)
    return json.dumps(plain, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _load_pair(program: str, source: str) -> tuple[CompiledProgram, Circuit]:
    """The program file and the source circuit it is run against, refused
    unless both registers have the same width."""
    prog = program_load(program)
    circuit = parse_qasm_file(source)
    if prog.num_qubits != circuit.num_qubits:
        raise InputError(f"{program} has {prog.num_qubits} qubits but "
                         f"{source} has {circuit.num_qubits}")
    return prog, circuit


def _verify_program(prog: CompiledProgram, circuit: Circuit, cap: int,
                    seed: int = 0) -> tuple[bool, float, float]:
    """Compare the realized native-gate circuit against the input circuit,
    modulo one global phase, with the ancilla (if any) prepared in |0> and
    projected on |0>.  Both run on the same columns: every basis state up to
    `cap` source qubits (the dense unitaries), 20 seeded random states above.
    Returns (pass, max deviation, ancilla leakage)."""
    realized = prog.realized_circuit()
    check_simulable(realized.num_qubits)
    dim = 2 ** circuit.num_qubits
    if circuit.num_qubits <= cap:
        # the basis states of the source's wires, the ancilla in |0>
        cols = full = circuit.num_qubits
    else:
        rng = np.random.default_rng(seed)
        cols = rng.normal(size=(dim, 20)) + 1j * rng.normal(size=(dim, 20))
        cols /= np.linalg.norm(cols, axis=0)
        # the ancilla is the highest qubit: its |0> block is the first rows
        full = np.zeros((2 ** realized.num_qubits, 20), dtype=complex)
        full[:dim] = cols
    out = apply_unitary(realized, full)
    err = phase_distance(apply_unitary(circuit, cols), out[:dim])
    leak = float(np.max(np.abs(out[dim:]), initial=0.0))
    return err <= VERIFY_TOL and leak <= LEAK_TOL, err, leak


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_compile(args) -> int:
    circuit = parse_qasm_file(args.input)
    opts = _compile_options(args)
    prog = optimize(circuit, opts)
    out = Path(args.out or Path(args.input).with_suffix(".program.json").name)
    out.write_text(program_dumps(prog), encoding="utf-8")

    m = metrics(prog.body, circuit, opts.scheme)
    m.update({"name": Path(args.input).stem, "numQubits": circuit.num_qubits,
              "iterations": prog.iterations, "scheme": prog.scheme,
              "seed": args.seed, "version": __version__,
              "optsHash": _opts_hash(opts, args.seed)})
    metrics_path = out.with_name(out.stem + ".metrics.json")
    metrics_path.write_text(_json_text(m), encoding="utf-8")
    print(f"wrote {out} and {metrics_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    prog, circuit = _load_pair(args.program, args.input)
    ok, err, leak = _verify_program(prog, circuit, args.oracle_cap,
                                    args.seed)
    print(f"{'PASS' if ok else 'FAIL'}: max deviation {err:.3e} "
          f"(tolerance {VERIFY_TOL:.0e}), ancilla leakage {leak:.3e} "
          f"(tolerance {LEAK_TOL:.0e})")
    return EXIT_OK if ok else EXIT_VERIFY


def _check_sample_shots(args) -> None:
    """Refuse a Monte Carlo size above the sampler's cap before anything
    is read or allocated."""
    if args.samples * args.shots > MAX_SAMPLE_SHOTS:
        raise InputError(f"--samples {args.samples} x --shots {args.shots} "
                         f"is above the cap of {MAX_SAMPLE_SHOTS} "
                         f"sample-shots")


def cmd_simulate(args) -> int:
    _check_sample_shots(args)
    if args.input:
        prog, input_circuit = _load_pair(args.program, args.input)
    else:
        prog, input_circuit = program_load(args.program), None
    realized = prog.realized_circuit()
    model = NoiseModel(args.p_dephase, args.p_depol_tq, args.seed)
    report = {"program": str(args.program), "seed": args.seed,
              "pDephase": args.p_dephase, "pDepolTq": args.p_depol_tq,
              "successProbability": success_probability(realized, model)}
    if input_circuit is not None:
        report["successProbabilityInput"] = success_probability(
            input_circuit, model)
        report["relativeErrorSuccessProb"] = relative_error(
            report["successProbability"], report["successProbabilityInput"])
    if args.samples > 0:
        ideal = input_circuit or prog.to_circuit()
        mc = monte_carlo_fidelity(realized, ideal, model,
                                  samples=args.samples, shots=args.shots)
        report["monteCarlo"] = mc.to_dict()
        if input_circuit is not None:
            mc_in = monte_carlo_fidelity(input_circuit, input_circuit, model,
                                         samples=args.samples,
                                         shots=args.shots)
            report["monteCarloInput"] = mc_in.to_dict()
            report["relativeErrorMonteCarlo"] = relative_error(
                mc.fidelity, mc_in.fidelity)
    text = _json_text(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


CSV_COLUMNS = ["name", "numQubits", "twoQubitCount", "baselineMqCount",
               "compiledMqCount", "inputNorm", "compiledNorm",
               "gateCountRatio", "baselineRatio", "normRatio",
               "fInput", "fCompiled", "relativeError", "method", "seed"]


def _num(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "n/a"
        return f"{x:.9g}"
    return str(x)


def bench_record(path: Path, opts: CompileOptions, model: NoiseModel,
                 samples: int, shots: int) -> dict:
    """Compile one file and score it: closed-form success probabilities
    always, Monte Carlo fidelities instead when `samples` > 0 and the realized
    register fits the statevector cap."""
    circuit = parse_qasm_file(path)
    t0 = time.perf_counter()
    prog = optimize(circuit, opts)
    wall = time.perf_counter() - t0
    rec = {"name": path.stem, "numQubits": circuit.num_qubits}
    rec.update(metrics(prog.body, circuit, opts.scheme))
    realized = prog.realized_circuit()
    f_inp = success_probability(circuit, model)
    f_comp = success_probability(realized, model)
    rec.update({"fInput": f_inp, "fCompiled": f_comp,
                "relativeError": relative_error(f_comp, f_inp),
                "method": "success-prob"})
    if samples > 0 and realized.num_qubits <= STATEVECTOR_CAP:
        mc_in = monte_carlo_fidelity(circuit, circuit, model,
                                     samples=samples, shots=shots)
        mc = monte_carlo_fidelity(realized, circuit, model,
                                  samples=samples, shots=shots)
        rec.update({"fInput": mc_in.fidelity, "fCompiled": mc.fidelity,
                    "relativeError": relative_error(mc.fidelity,
                                                    mc_in.fidelity),
                    "method": "monte-carlo"})
    rec.update({"seed": model.seed, "wallTime": wall,
                "version": __version__})
    return rec


def cmd_bench(args) -> int:
    _check_sample_shots(args)
    opts = _compile_options(args)
    model = NoiseModel(args.p_dephase, args.p_depol_tq, args.seed)
    files = sorted(Path(args.directory).glob("*.qasm"))
    if not files:
        print(f"no .qasm files in {args.directory}", file=sys.stderr)
        return EXIT_PARSE
    records, skipped = [], []
    for f in files:
        try:
            records.append(bench_record(f, opts, model, args.samples,
                                        args.shots))
        except (QasmError, InputError) as exc:
            skipped.append({"name": f.stem, "error": str(exc)})
    records.sort(key=lambda r: (r["name"], r["numQubits"]))

    def mean(key):
        vals = [r[key] for r in records if math.isfinite(r[key])]
        return sum(vals) / len(vals) if vals else None

    aggregate = {"note": "aggregate means are qualitative",
                 "meanGateCountRatio": mean("gateCountRatio"),
                 "meanBaselineRatio": mean("baselineRatio"),
                 "meanNormRatio": mean("normRatio"),
                 "meanRelativeError": mean("relativeError")}
    report = {"version": __version__, "seed": args.seed,
              "optsHash": _opts_hash(opts, args.seed),
              "circuits": records, "skipped": skipped,
              "aggregate": aggregate}
    text = _json_text(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\r\n")
            w.writerow(CSV_COLUMNS)
            for r in records:
                w.writerow([_num(r.get(c)) for c in CSV_COLUMNS])
    if not args.out and not args.csv:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports malformed arguments as one located line and exit code 2."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _add_compile_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ancilla", dest="ancilla", action="store_true",
                       default=None, help="force the ancilla-merged scheme")
    group.add_argument("--no-ancilla", dest="ancilla", action="store_false",
                       help="forbid the ancilla-merged scheme")
    p.add_argument("--cost", default="lex", type=_parse_cost,
                   help="cost order: lex or weighted:W (default lex)")
    p.add_argument("--max-iters", type=_in_range(int, 0), default=50)


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p-dephase", type=_in_range(float, 0, 1), default=1e-3)
    p.add_argument("--p-depol-tq", type=_in_range(float, 0, 1), default=1e-3)
    p.add_argument("--samples", type=_in_range(int, 0), default=0,
                   help="Monte Carlo noise samples (0 = closed form only)")
    p.add_argument("--shots", type=_in_range(int, 1), default=10)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pgmq",
        description="Phase-gadget compiler for programmable multiqubit "
                    "entangling gates")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a QASM file to program JSON")
    p.add_argument("input")
    p.add_argument("--out", help="program JSON path")
    p.add_argument("--seed", type=_SEED, default=0)
    _add_compile_flags(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="check a program against its source")
    p.add_argument("program")
    p.add_argument("input")
    p.add_argument("--oracle-cap", type=_in_range(int, 0, DEFAULT_ORACLE_CAP),
                   default=DEFAULT_ORACLE_CAP,
                   help="widest source checked on every basis state; wider "
                        "sources are checked on 20 seeded random states")
    p.add_argument("--seed", type=_SEED, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="fidelity estimates for a program")
    p.add_argument("program")
    p.add_argument("--input", help="source QASM for relative-error reporting")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", help="write the JSON report here")
    _add_noise_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="compile and score a directory of QASM")
    p.add_argument("directory")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--csv", help="report CSV path")
    p.add_argument("--seed", type=_SEED, default=0)
    _add_compile_flags(p)
    _add_noise_flags(p)
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QasmError, OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CircuitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
