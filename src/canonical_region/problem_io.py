"""Reading and writing problem instances as JSON files.

A problem file is a UTF-8 JSON object with these keys:

``m``, ``j``, ``l``
    Dimensions: sources, losslessly observed sources, distortion measures.
``alphabets``
    ``{"X": [|X1|, ..., |XM|], "S": |S|, "V": |V|, "Vhat": [|Vhat1|, ...]}``.
``source``
    Either ``{"probs": <dense nested list over (X1..XM, S, V)>}`` or
    ``{"entries": [{"symbols": [x1..xM, s, v], "p": "9/20"}, ...]}`` where
    omitted cells are zero.  Probabilities may be strings (fractions like
    ``"9/20"`` or decimals like ``"0.45"``) or plain JSON numbers; they
    are parsed as exact rationals either way, so a saved file reloads to
    a bit-identical instance.
``distortions``
    A list of L dense ``|V| x |Vhat_l|`` nonnegative cost tables.
``name``, ``notes``
    Optional free-text metadata.

Total probability mass must be 1: a relative slip up to 1e-9 is repaired
silently (exact renormalization), up to 1e-6 with a warning, and anything
worse is rejected.
"""
from __future__ import annotations

import json
import math
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from .augment import Channel, ProblemSpec, check_layout
from .errors import BudgetError, DegeneracyWarning, InputError, StructuralError
from .functionals import Direction
from .region import source_nondegeneracy_report

MASS_SILENT_TOL = 1e-9
MASS_WARN_TOL = 1e-6
# Loading parses one exact Fraction per source cell and normalizes them as
# integer counts: about 18 us and 0.7 KB of peak memory per cell, so 2^16
# cells take 1.2 s and 44 MB.  Measured on a 2-core Xeon (Python 3.11, numpy
# 2.4) by loading dense binary problems of 2^12 to 2^16 cells written as the
# exact rationals of Dirichlet(1) floats: time from one untraced load, memory
# from tracemalloc's peak over one load, parsed JSON included.  Every channel
# slot then multiplies the cells again in the augmented joint.  The bundled
# and benchmark problems have at most 2^8 cells.
MAX_SOURCE_CELLS = 1 << 16
_ENTRY_KEYS = frozenset({"symbols", "p"})   # built once: every source cell reads it


def _object(value, what: str, keys: set, optional: frozenset = frozenset()) -> dict:
    """``value`` if it is a JSON object with every key of ``keys`` and no key
    outside ``keys`` and ``optional``."""
    if isinstance(value, dict) and (   # the first test alone decides the common case
            value.keys() == keys or keys <= value.keys() <= keys | optional):
        return value
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object")
    missing = sorted(keys - value.keys())
    if missing:
        raise InputError(f"{what} must be an object with key {missing[0]!r}")
    unknown = sorted(value.keys() - keys - optional)
    raise InputError(f"{what} must be an object without keys {unknown}")


def _list(value, what: str, nonempty: bool = False) -> list:
    if not isinstance(value, list) or nonempty and not value:
        raise InputError(f"{what} must be a {'nonempty ' if nonempty else ''}list")
    return value


def _int(value, what: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise InputError(f"{what} must be >= {minimum}, got {value}")
    return value


def _number(value, what: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, got {value!r}")
    return value


def _leaves(node, what: str, shape: tuple, read, out: list) -> list:
    """``out`` extended by ``read(leaf, name)`` for each leaf, in row-major order, of
    a nested list of the given shape (a None size: any length)."""
    if not shape:
        out.append(read(node, what))
    elif isinstance(node, list) and shape[0] in (None, len(node)):
        for idx, child in enumerate(node):
            _leaves(child, f"{what}[{idx}]", shape[1:], read, out)
    else:
        if not isinstance(node, list):
            read(node, what)   # neither a list nor a leaf: named as a bad leaf
        size = "" if shape[0] is None else f" of length {shape[0]}"
        raise InputError(f"{what} must be a list{size}")
    return out


def _floats(node, what: str, ndim: int) -> np.ndarray:
    """A nested list of JSON numbers, ``ndim`` deep, as a float array; the first
    leaf that is not a number is named."""
    _leaves(node, what, (None,) * ndim, _number, [])
    try:
        return np.array(node, dtype=float)
    except (ValueError, OverflowError) as exc:   # ragged, or an integer past the float range
        raise InputError(f"{what}: {exc}") from exc


def _build(what, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a package refusal reported as an InputError naming ``what``."""
    try:
        return make(*args, **kwargs)
    except StructuralError as exc:
        raise InputError(f"{what}: {exc}") from exc


def _parse_prob(value, what: str) -> Fraction:
    try:
        if isinstance(value, str):
            frac = Fraction(value)
        elif isinstance(value, bool):
            raise ValueError("booleans are not probabilities")
        elif isinstance(value, int):
            frac = Fraction(value)
        elif isinstance(value, float):
            # read the decimal literal, not the binary float underneath
            frac = Fraction(str(value))
        else:
            raise ValueError(f"unsupported type {type(value).__name__}")
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{what}: cannot parse probability {value!r} ({exc})") from exc
    if frac < 0:
        raise InputError(f"{what}: probability {value!r} is negative")
    return frac


def _parse_source(data, m: int, shape: tuple[int, ...]) -> list[Fraction]:
    data = _object(data, "source", set(), {"probs", "entries"})
    form = "entries" if "entries" in data else "probs"
    body = _object(data, "source", {form})[form]
    if form == "probs":
        return _leaves(body, "source.probs", shape, _parse_prob, [])
    fracs = [Fraction(0)] * math.prod(shape)
    seen: set[int] = set()
    for pos, entry in enumerate(_list(body, "source.entries", nonempty=True)):
        where = f"source.entries[{pos}]"
        symbols = _object(entry, where, _ENTRY_KEYS)["symbols"]
        if not isinstance(symbols, list) or len(symbols) != len(shape):
            raise InputError(
                f"{where}: symbols must list {len(shape)} indices "
                f"(X1..X{m}, S, V)"
            )
        flat = 0   # the cell's C-order index, built axis by axis
        for axis, (sym, size) in enumerate(zip(symbols, shape)):
            if isinstance(sym, bool) or not isinstance(sym, int) or not 0 <= sym < size:
                raise InputError(
                    f"{where}: symbol {sym!r} at position {axis} outside 0..{size - 1}"
                )
            flat = flat * size + sym
        if flat in seen:
            raise InputError(f"{where}: duplicate cell {tuple(symbols)}")
        seen.add(flat)
        fracs[flat] = _parse_prob(entry["p"], where)
    return fracs


def _read_json(path: Path):
    """The parsed contents of a UTF-8 JSON file; an unreadable, undecodable or
    too deeply nested file is an InputError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:   # bad UTF-8 or JSON, huge ints, deep nesting
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_problem(path) -> ProblemSpec:
    """Parse a problem file into a validated :class:`ProblemSpec`."""
    path = Path(path)
    data = _object(_read_json(path), f"top level of {path}",
                   {"m", "j", "l", "alphabets", "source", "distortions"}, {"name", "notes"})
    m = _int(data["m"], "m", 1)
    j = _int(data["j"], "j", 0)
    l = _int(data["l"], "l", 0)

    alph = _object(data["alphabets"], "alphabets", {"X", "S", "V", "Vhat"})
    xs = _list(alph["X"], "alphabets.X")
    x_sizes = [_int(n, f"alphabets.X[{i}]", 1) for i, n in enumerate(xs)]
    if len(x_sizes) != m:
        raise InputError(f"alphabets.X must list {m} sizes")
    vhats = _list(alph["Vhat"], "alphabets.Vhat")
    vhat_sizes = [_int(n, f"alphabets.Vhat[{i}]", 1) for i, n in enumerate(vhats)]
    shape = (*x_sizes, _int(alph["S"], "alphabets.S", 1), _int(alph["V"], "alphabets.V", 1))
    cells = math.prod(shape)
    if cells > MAX_SOURCE_CELLS:
        raise BudgetError(
            f"{path}: the source tensor has {cells} cells (> {MAX_SOURCE_CELLS})"
        )
    j = _build(path, check_layout, m, j)   # before the source is reshaped to M + 2 axes
    fracs = _parse_source(data["source"], m, shape)
    dists = _list(data["distortions"], "distortions")
    tables = [_floats(tab, f"distortions[{li}]", 2) for li, tab in enumerate(dists)]

    name = data.get("name", "")
    notes = data.get("notes", "")
    if not isinstance(name, str) or not isinstance(notes, str):
        raise InputError("name and notes must be strings")

    # the source's shape pins X, S and V; the declared l and Vhat must match the
    # tables, and a file refused for that is refused before the spec can warn
    if len(tables) != l:
        raise InputError(f"{path}: l is {l}, but distortions lists {len(tables)} table(s)")
    columns = [t.shape[-1] for t in tables]
    if columns != vhat_sizes:
        raise InputError(
            f"{path}: alphabets.Vhat is {vhat_sizes}, but the distortion tables have "
            f"{columns} columns"
        )
    spec = _build(path, ProblemSpec, j, np.array(fracs, dtype=object).reshape(shape), tables,
                  name=name, notes=notes)

    total = spec.source_mass
    slip = abs(total - 1)   # exact, so a mass past the float range is judged too
    if slip > MASS_WARN_TOL:
        off = (f"{float(total)!r}, off by {float(slip):.3e} (> {MASS_WARN_TOL})"
               if total < 1e300 else "1e300 or more")   # else float() overflows
        raise InputError(f"source probabilities sum to {off}; fix the file")
    if slip > MASS_SILENT_TOL:
        warnings.warn(
            f"source probabilities sum to {float(total)!r}; renormalizing",
            UserWarning,
            stacklevel=2,
        )

    # preflight: sources already independent given S stay independent under
    # every channel bank, so corner points of this instance will coincide
    preflight = source_nondegeneracy_report(spec.source)
    if preflight.degenerate:
        a, b, _, value = min(preflight.entries, key=lambda e: e[-1])
        warnings.warn(
            f"sources X{a} and X{b} are nearly independent given S "
            f"(information {value:.3e}); corner points will coincide for "
            "every channel bank",
            DegeneracyWarning,
            stacklevel=2,
        )
    return spec


def save_problem(spec: ProblemSpec, path) -> None:
    """Write a spec as a problem file using exact sparse entries.

    The emitted probabilities are the spec's normalized rationals printed
    exactly, so ``load_problem(save_problem(spec))`` reproduces the spec
    field for field, exact rationals included.
    """
    shape = spec.source.probs.shape
    entries = []
    for flat, frac in enumerate(spec.source_fractions):
        if frac:
            symbols = [int(i) for i in np.unravel_index(flat, shape)]
            entries.append({"symbols": symbols, "p": str(frac)})
    data = {
        "name": spec.name,
        "notes": spec.notes,
        "m": spec.m,
        "j": spec.j,
        "l": spec.l,
        "alphabets": {
            "X": [a.size for a in spec.x_alphabets],
            "S": spec.s_alphabet.size,
            "V": spec.v_alphabet.size,
            "Vhat": [a.size for a in spec.vhat_alphabets],
        },
        "source": {"entries": entries},
        "distortions": [t.tolist() for t in spec.distortions],
    }
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def list_bundled_problems() -> list[str]:
    """Names of the problem files shipped inside the package."""
    root = resources.files("canonical_region") / "fixtures"
    return sorted(
        entry.name[: -len(".json")]
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    )


def bundled_problem_path(name: str) -> Path:
    """Filesystem path of a bundled problem file."""
    root = resources.files("canonical_region") / "fixtures"
    candidate = root / f"{name}.json"
    with resources.as_file(candidate) as real:
        real_path = Path(real)
    if not real_path.is_file():
        raise InputError(
            f"no bundled problem named {name!r}; available: {list_bundled_problems()}"
        )
    return real_path


def resolve_problem(ref: str) -> ProblemSpec:
    """Load a problem from a path, falling back to the bundled set by name."""
    path = Path(ref)
    if path.is_file():
        return load_problem(path)
    try:
        return load_problem(bundled_problem_path(ref))
    except InputError:
        raise InputError(
            f"{ref!r} is neither a readable file nor a bundled problem; "
            f"bundled: {list_bundled_problems()}"
        ) from None


# ---- auxiliary input files -----------------------------------------------------


def load_channels(path, spec: ProblemSpec) -> list[Channel]:
    """Read a channel bank: ``{"channels": [{"slot": k, "rows": [[...]]}]}``.

    Exactly one entry per slot J+1..M, any order; rows are dense
    row-stochastic matrices with ``|X_k|`` rows.
    """
    path = Path(path)
    data = _object(_read_json(path), f"top level of {path}", {"channels"})
    by_slot = {}
    for pos, item in enumerate(_list(data["channels"], "channels")):
        item = _object(item, f"channels[{pos}]", {"slot", "rows"})
        slot = _int(item["slot"], f"channels[{pos}].slot", spec.j + 1)
        if slot in by_slot:
            raise InputError(f"duplicate channel for slot {slot}")
        by_slot[slot] = (pos, item["rows"])
    if set(by_slot) != set(spec.channel_slots):
        raise InputError(
            f"channel file covers slots {sorted(by_slot)}, "
            f"expected {list(spec.channel_slots)}"
        )
    out = []
    for k in spec.channel_slots:
        pos, rows = by_slot[k]
        where = f"channels[{pos}] (slot {k})"
        out.append(_build(where, Channel, spec.x_alphabet(k), _floats(rows, f"{where}: rows", 2)))
    return out


def load_directions(path, spec: ProblemSpec) -> list[Direction]:
    """Read directions: ``{"directions": [{"rates": [...], "distortions": [...]}]}``.

    Each entry lists nonnegative weights for the free rates (descriptions
    J+1..M, in order) and the distortion measures; weights are normalized
    to unit 2-norm on load.
    """
    path = Path(path)
    data = _object(_read_json(path), f"top level of {path}", {"directions"})
    out = []
    for pos, item in enumerate(_list(data["directions"], "directions", nonempty=True)):
        where = f"directions[{pos}]"
        item = _object(item, where, {"rates", "distortions"})
        raw = np.concatenate([_floats(item[k], f"{where}.{k}", 1)
                              for k in ("rates", "distortions")])
        out.append(_build(where, Direction.normalized, spec.m, spec.j, spec.l, raw))
    return out
