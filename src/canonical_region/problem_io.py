"""Reading and writing problem instances as JSON files.

A problem file is a JSON object with these keys:

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

from .augment import Channel, ProblemSpec
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

_TOP_KEYS = {"name", "notes", "m", "j", "l", "alphabets", "source", "distortions"}


def _require_int(value, what: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise InputError(f"{what} must be >= {minimum}, got {value}")
    return value


def _require_numbers(node, what: str) -> None:
    """Reject a nested list with any leaf that is not a JSON number (booleans included)."""
    if isinstance(node, list):
        for idx, child in enumerate(node):
            _require_numbers(child, f"{what}[{idx}]")
    elif isinstance(node, bool) or not isinstance(node, (int, float)):
        raise InputError(f"{what} must be a number, got {node!r}")


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


def _flatten_dense(node, shape: tuple[int, ...], path: str, out: list) -> None:
    if not shape:
        out.append(_parse_prob(node, f"source.probs{path}"))
        return
    if not isinstance(node, list) or len(node) != shape[0]:
        raise InputError(
            f"source.probs{path} must be a list of length {shape[0]}"
        )
    for idx, child in enumerate(node):
        _flatten_dense(child, shape[1:], f"{path}[{idx}]", out)


def _parse_source(data, m: int, shape: tuple[int, ...]) -> list[Fraction]:
    if not isinstance(data, dict) or set(data) - {"probs", "entries"}:
        raise InputError('source must be {"probs": ...} or {"entries": ...}')
    if ("probs" in data) == ("entries" in data):
        raise InputError('source needs exactly one of "probs" and "entries"')
    if "probs" in data:
        fracs: list[Fraction] = []
        _flatten_dense(data["probs"], shape, "", fracs)
        return fracs

    entries = data["entries"]
    if not isinstance(entries, list) or not entries:
        raise InputError("source.entries must be a nonempty list")
    fracs = [Fraction(0)] * math.prod(shape)
    seen: set[int] = set()
    for pos, entry in enumerate(entries):
        where = f"source.entries[{pos}]"
        if not isinstance(entry, dict) or set(entry) != {"symbols", "p"}:
            raise InputError(f'{where} must be {{"symbols": [...], "p": ...}}')
        symbols = entry["symbols"]
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
    """The parsed contents of a JSON file; unreadable or invalid files are InputError."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_problem(path) -> ProblemSpec:
    """Parse a problem file into a validated :class:`ProblemSpec`."""
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise InputError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("m", "j", "l", "alphabets", "source", "distortions"):
        if key not in data:
            raise InputError(f"{path}: missing key {key!r}")

    m = _require_int(data["m"], "m", 1)
    j = _require_int(data["j"], "j", 0)
    l = _require_int(data["l"], "l", 0)

    alph = data["alphabets"]
    if not isinstance(alph, dict) or set(alph) != {"X", "S", "V", "Vhat"}:
        raise InputError('alphabets must have exactly the keys "X", "S", "V", "Vhat"')
    xs = alph["X"]
    if not isinstance(xs, list) or len(xs) != m:
        raise InputError(f"alphabets.X must list {m} sizes")
    x_sizes = [_require_int(n, f"alphabets.X[{i}]", 1) for i, n in enumerate(xs)]
    s_size = _require_int(alph["S"], "alphabets.S", 1)
    v_size = _require_int(alph["V"], "alphabets.V", 1)
    vhats = alph["Vhat"]
    if not isinstance(vhats, list):
        raise InputError("alphabets.Vhat must be a list of sizes")
    vhat_sizes = [_require_int(n, f"alphabets.Vhat[{i}]", 1) for i, n in enumerate(vhats)]

    shape = tuple(x_sizes) + (s_size, v_size)
    cells = math.prod(shape)
    if cells > MAX_SOURCE_CELLS:
        raise BudgetError(
            f"{path}: the source tensor has {cells} cells (> {MAX_SOURCE_CELLS})"
        )
    fracs = _parse_source(data["source"], m, shape)

    dists = data["distortions"]
    if not isinstance(dists, list):
        raise InputError("distortions must be a list of tables")
    tables = []
    for li, tab in enumerate(dists, start=1):
        if not isinstance(tab, list):
            raise InputError(f"distortions[{li - 1}] must be a nested list")
        _require_numbers(tab, f"distortions[{li - 1}]")
        try:
            arr = np.array(tab, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"distortions[{li - 1}]: {exc}") from exc
        tables.append(arr)

    name = data.get("name", "")
    notes = data.get("notes", "")
    if not isinstance(name, str) or not isinstance(notes, str):
        raise InputError("name and notes must be strings")

    # the source's shape pins X, S and V; the declared l and Vhat must match the
    # tables, and a file refused for that is refused before the spec can warn
    if len(tables) != l:
        raise InputError(f"{path}: l is {l}, but distortions lists {len(tables)} table(s)")
    columns = [t.shape[-1] for t in tables]
    if columns != vhat_sizes and all(t.ndim == 2 for t in tables):   # else the spec names it
        raise InputError(
            f"{path}: alphabets.Vhat is {vhat_sizes}, but the distortion tables have "
            f"{columns} columns"
        )
    try:
        spec = ProblemSpec(
            j, np.array(fracs, dtype=object).reshape(shape), tables, name=name, notes=notes,
        )
    except StructuralError as exc:
        raise InputError(f"{path}: {exc}") from exc

    total = spec.source_mass
    err = abs(float(total - 1))
    if err > MASS_WARN_TOL:
        raise InputError(
            f"source probabilities sum to {float(total)!r}, off by {err:.3e} "
            f"(> {MASS_WARN_TOL}); fix the file"
        )
    if err > MASS_SILENT_TOL:
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
    data = _read_json(path)
    if not isinstance(data, dict) or set(data) != {"channels"}:
        raise InputError(f'{path}: expected a single top-level key "channels"')
    items = data["channels"]
    if not isinstance(items, list):
        raise InputError(f"{path}: channels must be a list")
    by_slot = {}
    for pos, item in enumerate(items):
        if not isinstance(item, dict) or set(item) != {"slot", "rows"}:
            raise InputError(f'channels[{pos}] must be {{"slot": k, "rows": [[...]]}}')
        slot = item["slot"]
        if isinstance(slot, bool) or not isinstance(slot, int):
            raise InputError(f"channels[{pos}].slot must be an integer")
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
        _require_numbers(rows, f"channels[{pos}].rows")
        try:
            arr = np.array(rows, dtype=float)
            if arr.ndim != 2:
                raise StructuralError(f"rows must be a matrix, got shape {arr.shape}")
            out.append(Channel(spec.x_alphabet(k), arr))
        except (TypeError, ValueError, OverflowError, StructuralError) as exc:
            raise InputError(f"channels[{pos}] (slot {k}): {exc}") from exc
    return out


def load_directions(path, spec: ProblemSpec) -> list[Direction]:
    """Read directions: ``{"directions": [{"rates": [...], "distortions": [...]}]}``.

    Each entry lists nonnegative weights for the free rates (descriptions
    J+1..M, in order) and the distortion measures; weights are normalized
    to unit 2-norm on load.
    """
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, dict) or set(data) != {"directions"}:
        raise InputError(f'{path}: expected a single top-level key "directions"')
    items = data["directions"]
    if not isinstance(items, list) or not items:
        raise InputError(f"{path}: directions must be a nonempty list")
    out = []
    for pos, item in enumerate(items):
        if not isinstance(item, dict) or set(item) != {"rates", "distortions"}:
            raise InputError(
                f'directions[{pos}] must be {{"rates": [...], "distortions": [...]}}'
            )
        rates = item["rates"]
        dists = item["distortions"]
        if not isinstance(rates, list) or not isinstance(dists, list):
            raise InputError(f"directions[{pos}]: rates and distortions must be lists")
        _require_numbers(rates, f"directions[{pos}].rates")
        _require_numbers(dists, f"directions[{pos}].distortions")
        try:
            raw = np.array([float(x) for x in rates + dists])
            out.append(Direction.normalized(spec.m, spec.j, spec.l, raw))
        except (TypeError, ValueError, OverflowError, StructuralError) as exc:
            raise InputError(f"directions[{pos}]: {exc}") from exc
    return out
