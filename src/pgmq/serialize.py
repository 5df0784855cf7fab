"""Lossless JSON serialization of compiled programs.

A CNOT layer is written as its word and as the GF(2) matrix |x> -> |Ax>
that the word performs, derived here by replaying the word; rows are hex
strings (row i encodes sum_j A[i,j] << j), and a loaded matrix must have
numQubits (at most `qasm.MAX_QUBITS`) rows and equal the one derived from
the loaded word.  The body holds phase gadgets only.
"frames" lists each qubit of the trailing Pauli string once, ascending, and
"phase" is [re, im] of magnitude 1 to within 1e-9.
"ancilla" is always null: the ancilla, when the realization uses one, is
qubit numQubits.  Angles are written as `json` writes a float, the shortest
decimal that parses back to the same IEEE-754 double.  Serialization is
deterministic: serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import json
import math

from .circuit import InputError
from .cost import ANCILLA_MERGED, AUTO, NO_ANCILLA
from .gadgets import GadgetSequence, PauliFrame, PhaseGadget
from .passes import CompiledProgram
from .qasm import MAX_QUBITS

SCHEMA_VERSION = "1.0"


def _row_bits(word: list, n: int) -> list[int]:
    """Rows of the GF(2) matrix of a CNOT word on n qubits as integers, by
    replaying the word: CNOT(c, t) adds row c to row t."""
    rows = [1 << i for i in range(n)]
    for c, t in word:
        rows[t] ^= rows[c]
    return rows


def _layer_to_json(word: list, n: int) -> dict:
    return {"matrix": [format(bits, "x") for bits in _row_bits(word, n)],
            "word": [[int(c), int(t)] for c, t in word]}


def _body_to_json(seq: GadgetSequence) -> list:
    return [{"type": "gadget", "axis": g.axis, "alpha": float(g.alpha),
             "support": [int(q) for q in g.support]} for g in seq.gadgets]


# ---------------------------------------------------------------------------
# Loading: every malformed field raises InputError naming it
# ---------------------------------------------------------------------------

_AXES = ("X", "Y", "Z")
_REQUIRED = object()


def _field(obj, key: str, where: str, default=_REQUIRED):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected a JSON object, got {obj!r}")
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise InputError(f"{where}: missing field {key!r}")
    return default


def _list(x, where: str, length: int | None = None) -> list:
    if not isinstance(x, list) or (length is not None and len(x) != length):
        what = "a list" if length is None else f"a list of {length}"
        raise InputError(f"{where}: expected {what}, got {x!r}")
    return x


def _int(x, where: str, stop: int | None = None) -> int:
    """A JSON integer in [0, stop): a count, a bit, or a qubit index."""
    if (isinstance(x, bool) or not isinstance(x, int) or x < 0
            or (stop is not None and x >= stop)):
        span = ">= 0" if stop is None else f"in 0..{stop - 1}"
        raise InputError(f"{where}: expected an integer {span}, got {x!r}")
    return x


def _number(x, where: str) -> float:
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or not math.isfinite(x)):
        raise InputError(f"{where}: expected a finite number, got {x!r}")
    return float(x)


def _choice(x, options: tuple, where: str) -> str:
    if not isinstance(x, str) or x not in options:
        raise InputError(f"{where}: expected one of {', '.join(options)}, "
                         f"got {x!r}")
    return x


def _layer_from_json(obj, n: int, where: str) -> list:
    word = []
    for i, cw in enumerate(_list(_field(obj, "word", where, []),
                                 f"{where}.word")):
        at = f"{where}.word[{i}]"
        c, t = (_int(q, at, n) for q in _list(cw, at, 2))
        if c == t:
            raise InputError(f"{at}: control and target are both qubit {c}")
        word.append((c, t))
    rows = _field(obj, "matrix", where, None)
    if rows is not None:
        if len(_list(rows, f"{where}.matrix")) != n:
            raise InputError(f"{where}.matrix: expected {n} rows, "
                             f"got {len(rows)}")
        try:
            bits = [int(h, 16) for h in rows]
        except (TypeError, ValueError):
            raise InputError(f"{where}.matrix: rows must be hex strings") from None
        if bits != _row_bits(word, n):
            raise InputError(f"{where}.matrix: inconsistent with its CNOT word")
    return word


def _body_from_json(items, n: int) -> list:
    out = []
    for i, obj in enumerate(_list(items, "body")):
        at = f"body[{i}]"
        _choice(_field(obj, "type", at), ("gadget",), f"{at}.type")
        sup = [_int(q, f"{at}.support", n)
               for q in _list(_field(obj, "support", at), f"{at}.support")]
        if not sup or len(set(sup)) != len(sup):
            raise InputError(f"{at}.support: expected distinct qubits, "
                             f"got {sup!r}")
        out.append(PhaseGadget(
            _choice(_field(obj, "axis", at), _AXES, f"{at}.axis"),
            _number(_field(obj, "alpha", at), f"{at}.alpha"), tuple(sup)))
    return out


def program_to_json(prog: CompiledProgram) -> dict:
    """Schema: version, numQubits, ancilla, preLayer, body, frames, phase,
    postLayer, measurementMap."""
    ph = complex(prog.body.phase)
    return {
        "version": SCHEMA_VERSION,
        "numQubits": int(prog.num_qubits),
        "ancilla": None,
        "preLayer": _layer_to_json(prog.pre, prog.num_qubits),
        "body": _body_to_json(prog.body),
        "frames": [[q, p] for q, p in prog.body.frame.paulis],
        "phase": [float(ph.real), float(ph.imag)],
        "postLayer": _layer_to_json(prog.post, prog.num_qubits),
        "measurementMap": sorted([int(q), int(b)] for b, q
                                 in prog.measurement_map.items()),
        "scheme": prog.scheme,
    }


def program_from_json(obj) -> CompiledProgram:
    """Inverse of program_to_json; a document that is not a valid program
    raises InputError naming the field."""
    version = _field(obj, "version", "program")
    if version != SCHEMA_VERSION:
        raise InputError(f"version: unsupported program version {version!r}")
    n = _int(_field(obj, "numQubits", "program"), "numQubits",
             MAX_QUBITS + 1)
    gadgets = _body_from_json(_field(obj, "body", "program"), n)
    ancilla = _field(obj, "ancilla", "program", None)
    if ancilla is not None:
        raise InputError(f"ancilla: expected null (the ancilla, when used, "
                         f"is qubit numQubits), got {ancilla!r}")
    frames = {}
    for i, fq in enumerate(_list(_field(obj, "frames", "program", []),
                                 "frames")):
        at = f"frames[{i}]"
        q, p = _list(fq, at, 2)
        q = _int(q, at, n)
        if q in frames:
            raise InputError(f"{at}: qubit {q} is listed twice")
        frames[q] = _choice(p, _AXES, at)
    phase = complex(*(_number(x, "phase") for x in _list(
        _field(obj, "phase", "program", [1.0, 0.0]), "phase", 2)))
    if abs(abs(phase) - 1.0) > 1e-9:  # compiled programs: under 2e-14
        raise InputError(f"phase: expected magnitude 1, got {abs(phase)!r}")
    mmap = {}
    for i, qb in enumerate(_list(_field(obj, "measurementMap", "program", []),
                                 "measurementMap")):
        at = f"measurementMap[{i}]"
        q, b = _list(qb, at, 2)
        q, b = _int(q, at, n), _int(b, at)
        if b in mmap:
            raise InputError(f"{at}: bit {b} is listed twice")
        mmap[b] = q
    return CompiledProgram(
        n,
        _layer_from_json(_field(obj, "preLayer", "program"), n, "preLayer"),
        GadgetSequence(n, gadgets, PauliFrame.from_letters(frames), phase),
        _layer_from_json(_field(obj, "postLayer", "program"), n, "postLayer"),
        mmap,
        _choice(_field(obj, "scheme", "program", AUTO),
                (AUTO, NO_ANCILLA, ANCILLA_MERGED), "scheme"),
    )


def dumps(prog: CompiledProgram) -> str:
    return json.dumps(program_to_json(prog), indent=2) + "\n"


def loads(text: str | bytes) -> CompiledProgram:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"program is not JSON: {exc}") from None
    return program_from_json(obj)


def load(path) -> CompiledProgram:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return loads(data)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
