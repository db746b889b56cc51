"""MILP data model and JSON I/O.

A problem is

    min c'x   s.t.  Ax o b,  l <= x <= u,  x_j integer for j with integer[j],

where each row sense o_i is one of <=, =, >=.  The instance is also its own
bipartite constraint-variable graph; there is no separate graph view.  The
matrix A is kept in triplet form; an entry is present iff it is nonzero, so
the edge set of the graph equals the support of A exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from enum import IntEnum
from itertools import chain
from typing import Sequence

import numpy as np

__all__ = [
    "Sense",
    "MilpInstance",
    "MilpGraph",
    "InstanceError",
    "build_graph",
    "load_instance",
    "parse_instance",
    "serialize_instance",
    "permute",
]


class Sense(IntEnum):
    """Row sense with the canonical integer codes used in serialized form."""

    LE = 0
    EQ = 1
    GE = 2


class InstanceError(ValueError):
    """Raised when instance data violates the schema or its invariants."""


_FLOAT_LIMIT = 2**1024 - 2**970  # the least integer that float() rounds past the largest float
_NOT_NUMBERS = (str, bytes, bool, np.bool_, type(None))
_SENSE_RULE = "sense codes must be the integers 0 (<=), 1 (=) or 2 (>=)"


def _floats(name: str, values, what: str) -> np.ndarray:
    """Field ``name``'s values as a float64 array.  An integer beyond the
    float range has no float value; the error names it as
    ``what.format(position)``.  A string, bytes, boolean or None, or any
    other value numpy cannot read as a float, is an InstanceError naming
    the field: numpy would read "1.5" and True as numbers."""
    try:
        raw = np.asarray(values)
        # a list mixing booleans with numbers reads as a number array
        items = values if isinstance(values, (list, tuple)) else raw.ravel() if raw.dtype == object else ()
        if raw.dtype.kind not in "iufO" or any(issubclass(t, _NOT_NUMBERS) for t in set(map(type, items))):
            raise TypeError
        return raw.astype(float, copy=False)
    except OverflowError:
        i = next(i for i, v in enumerate(values) if isinstance(v, int) and abs(v) >= _FLOAT_LIMIT)
        raise InstanceError(f"{what.format(i)} is beyond the float range") from None
    except (TypeError, ValueError):
        raise InstanceError(f"field {name!r} holds a value that is not a number") from None


def _exact(name: str, values, dtype) -> np.ndarray:
    """values as an array of dtype.  A cast that would change a value (1.7
    as an int64, 0.5 as a bool) is an InstanceError naming the field."""
    raw = np.asarray(values)
    try:
        with np.errstate(invalid="ignore"):
            cast = raw.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):
        cast = None
    if cast is None or not np.array_equal(cast, raw):
        raise InstanceError(f"field {name!r} holds a value that {np.dtype(dtype).name} cannot represent exactly")
    return cast


def _first(bad: np.ndarray) -> int | None:
    """Position of the first true entry of bad, or None."""
    return int(np.argmax(bad)) if bad.any() else None


@dataclass(frozen=True)
class MilpInstance:
    """Immutable MILP problem data, read directly as the bipartite graph:
    constraint nodes carry (b_i, sense_i), variable nodes carry
    (c_j, l_j, u_j, is_integer_j), and edges are the nonzero A entries.

    Bounds use IEEE -inf/+inf for absent bounds; they serialize as the
    strings "-inf"/"+inf" so infinities survive a JSON round trip exactly.
    Triplets are stored sorted by (row, col) with no duplicates and no
    explicit zeros, so constraint i's edges are a contiguous run.

    The fields take any array-likes.  Every value rule is checked here, in
    ``_validate``, for the parser and for direct construction alike.
    """

    m: int
    n: int
    c: np.ndarray
    b: np.ndarray
    senses: np.ndarray  # int8 codes, see Sense
    lower: np.ndarray
    upper: np.ndarray
    integer: np.ndarray  # bool
    a_rows: np.ndarray  # int64
    a_cols: np.ndarray  # int64
    a_vals: np.ndarray  # float64

    def __post_init__(self):
        self._validate()

    def _validate(self) -> None:
        """Check lengths, numbers within the float range, finite c, b and A,
        bounds neither NaN nor crossed, sense codes, exact integer and boolean
        casts, index ranges, and no zero or duplicate entry of A (named by its
        (row, col)); then store a read-only copy of each array in its dtype,
        triplets sorted by (row, col), so the caller's arrays stay as they
        were.  An index past int64 is out of range."""
        m, n = self.m, self.n
        if m < 0 or n < 0:
            raise InstanceError("m and n must be nonnegative")
        c, b, lower, upper = (_floats(name, getattr(self, name), name + "[{}]") for name in ("c", "b", "lower", "upper"))
        vals = _floats("a_vals", self.a_vals, "the value of triplet {} of A")
        senses, integer, rows, cols = map(np.asarray, (self.senses, self.integer, self.a_rows, self.a_cols))
        k = vals.size
        sizes = dict(c=(c, n), b=(b, m), senses=(senses, m), lower=(lower, n), upper=(upper, n), integer=(integer, n))
        for name, (arr, size) in dict(sizes, a_rows=(rows, k), a_cols=(cols, k), a_vals=(vals, k)).items():
            if arr.shape != (size,):
                raise InstanceError(f"field {name!r} has length {arr.shape}, expected {size}")
        if (i := _first(~np.isin(senses, (0, 1, 2)))) is not None:
            raise InstanceError(f"field 'senses': {_SENSE_RULE}, not {senses[i]} at row {i}")
        for name, arr in (("c", c), ("b", b)):
            if (i := _first(~np.isfinite(arr))) is not None:
                kind = "NaN" if np.isnan(arr[i]) else "infinite"
                raise InstanceError(f"c and b must be finite numbers, not {kind}: {name}[{i}] is {arr[i]}")
        for name, arr in (("lower", lower), ("upper", upper)):
            if (j := _first(np.isnan(arr))) is not None:
                raise InstanceError(f"{name} bound is NaN at variable {j}")
        if (j := _first(lower > upper)) is not None:
            raise InstanceError(f"lower bound exceeds upper bound at variable {j}")
        for idx, size in ((rows, m), (cols, n)):
            try:
                t = _first((idx < 0) | (idx >= size))
            except TypeError:  # not numbers, which the cast below refuses
                continue
            if t is not None:
                raise InstanceError(f"triplet index out of range: triplet {t} of A is ({rows[t]}, {cols[t]}), A is {m}x{n}")
        rows, cols = _exact("a_rows", rows, np.int64), _exact("a_cols", cols, np.int64)
        # serialize_instance writes the triplets in (row, col) order; only others need sorting
        if not ((rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] >= cols[:-1]))).all():
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
        for bad, rule in [
            (np.isnan(vals), "entries of A must be finite numbers, not NaN"),
            (np.isinf(vals), "entries of A must be finite numbers, not infinite"),
            (vals == 0.0, "explicit zero entry in A; drop zeros from the triplet list"),
            (np.append(False, (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])), "duplicate (row, col) triplet in A"),
        ]:
            if (t := _first(bad)) is not None:
                raise InstanceError(f"{rule}: the entry at ({rows[t]}, {cols[t]})")
        arrays = dict(c=c, b=b, senses=senses.astype(np.int8), lower=lower, upper=upper, a_rows=rows, a_cols=cols, a_vals=vals)
        for name, arr in dict(arrays, integer=_exact("integer", integer, bool)).items():
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def nnz(self) -> int:
        return int(self.a_vals.size)

    def dense_matrix(self) -> np.ndarray:
        """A as a dense (m, n) array; fine at desk scale."""
        a = np.zeros((self.m, self.n))
        a[self.a_rows, self.a_cols] = self.a_vals
        return a

    def __eq__(self, other) -> bool:
        """Same class and every field equal by ``np.array_equal``."""
        if not isinstance(other, MilpInstance):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    __hash__ = None


# The instance is its own bipartite graph; both public names read it as one.
MilpGraph = MilpInstance


def build_graph(inst: MilpInstance) -> MilpInstance:
    """The bipartite graph of ``inst``, which is ``inst`` itself."""
    return inst


_INF_STRINGS = {"-inf": -math.inf, "+inf": math.inf, "inf": math.inf}
_NUMBER = (int, float)


def _list(values, key: str, types: tuple, message: str) -> list:
    """values, which must be a JSON list whose elements each have one of
    exactly ``types``, so that JSON's true and false (type bool) are never
    numbers.  Otherwise an InstanceError naming field ``key``, or ``message``
    formatted with the first other element's position ``i`` and value ``v``."""
    if type(values) is not list:
        raise InstanceError(f"field {key!r} must be a list, not {values!r}")
    if not set(map(type, values)).issubset(types):
        i = next(i for i, v in enumerate(values) if type(v) not in types)
        raise InstanceError(message.format(i=i, v=values[i]))
    return values


def _array(values: list, dtype) -> np.ndarray | list:
    """values, whose JSON types the parser has checked, as an array of
    dtype, so that ``MilpInstance`` reads no list element by element again.
    A list holding an integer that dtype cannot hold stays a list, for
    ``MilpInstance`` to name."""
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        return values


def _bounds(doc: dict, key: str) -> np.ndarray | list:
    """doc[key] with each bound string read as its infinity.  The wire format
    spells an absent bound only as a string, so a JSON number that reads as
    infinite (1e400, or Python's Infinity literal) is refused here."""
    values = _list(doc[key], key, (int, float, str), key + " bound must be a number or a string, not {v!r} at variable {i}")
    for j, v in enumerate(values):
        if (v not in _INF_STRINGS) if type(v) is str else (type(v) is float and math.isinf(v)):
            raise InstanceError(f"bad {key} bound {v!r} at variable {j}")
    return _array([_INF_STRINGS[v] if type(v) is str else v for v in values], float)


def _bound_to_json(v: float):
    if v == -math.inf:
        return "-inf"
    if v == math.inf:
        return "+inf"
    return v


def parse_instance(text: str | bytes) -> MilpInstance:
    """Parse the JSON wire format.  Each malformed input gets a distinct
    diagnostic.

    The parser checks only the document's JSON types and shape: the nine
    fields present, m and n integers, each other field a list whose
    elements have exactly the right JSON types (a boolean is never a
    number), each triplet of A a list ``[row, col, value]``, and each bound
    a number or one of the strings "-inf", "+inf", "inf".  Every value rule
    (lengths, ranges, finiteness, zeros and duplicates in A, numbers beyond
    the float range) is ``MilpInstance``'s, which rejects, not drops, an
    explicit zero in A."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceError(f"not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise InstanceError("JSON nests too deeply to parse") from None
    except ValueError as exc:  # an integer past Python's digit limit
        raise InstanceError(f"unparsable number in JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("top-level JSON value must be an object")
    required = ["m", "n", "c", "b", "senses", "lower", "upper", "integer", "A"]
    for key in required:
        if key not in doc:
            raise InstanceError(f"missing field {key!r}")
    m, n = doc["m"], doc["n"]
    if type(m) is not int or type(n) is not int:
        raise InstanceError("m and n must be integers")
    triplets = _list(doc["A"], "A", (list,), "bad triplet {v!r} at A[{i}]")
    if set(map(len, triplets)) - {3}:
        k = next(k for k, t in enumerate(triplets) if len(t) != 3)
        raise InstanceError(f"bad triplet {triplets[k]!r} at A[{k}]")
    flat = list(chain.from_iterable(triplets))
    rows, cols, vals = flat[0::3], flat[1::3], flat[2::3]
    for idx in (rows, cols):
        _list(idx, "A", (int,), "triplet indices must be integers, not {v!r} in triplet {i} of A")
    return MilpInstance(
        m=m,
        n=n,
        c=_array(_list(doc["c"], "c", _NUMBER, "c[{i}] must be a number, not {v!r}"), float),
        b=_array(_list(doc["b"], "b", _NUMBER, "b[{i}] must be a number, not {v!r}"), float),
        senses=_array(_list(doc["senses"], "senses", (int,), f"field 'senses': {_SENSE_RULE}, not {{v!r}} at row {{i}}"), np.int64),
        lower=_bounds(doc, "lower"),
        upper=_bounds(doc, "upper"),
        integer=_array(_list(doc["integer"], "integer", (bool,), "integer flags must be booleans, not {v!r} at variable {i}"), bool),
        a_rows=_array(rows, np.int64),
        a_cols=_array(cols, np.int64),
        a_vals=_array(_list(vals, "A", _NUMBER, "the value of triplet {i} of A must be a number, not {v!r}"), float),
    )


def serialize_instance(inst: MilpInstance) -> str:
    """Inverse of parse_instance; numbers print in shortest round-trip form."""
    doc = {
        "m": inst.m,
        "n": inst.n,
        "c": inst.c.tolist(),
        "b": inst.b.tolist(),
        "senses": [int(s) for s in inst.senses],
        "lower": [_bound_to_json(v) for v in inst.lower],
        "upper": [_bound_to_json(v) for v in inst.upper],
        "integer": inst.integer.tolist(),
        "A": [[int(r), int(c), float(v)] for r, c, v in zip(inst.a_rows, inst.a_cols, inst.a_vals)],
    }
    return json.dumps(doc)


def load_instance(path) -> MilpInstance:
    with open(path, "rb") as fh:
        return parse_instance(fh.read())


def _check_permutation(sigma: Sequence[int], size: int, what: str) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.int64)
    if sigma.shape != (size,) or not np.array_equal(np.sort(sigma), np.arange(size)):
        raise InstanceError(f"{what} is not a permutation of 0..{size - 1}")
    return sigma


def permute(inst: MilpInstance, sigma_v: Sequence[int], sigma_w: Sequence[int]) -> MilpInstance:
    """Relabel constraints and variables; sigma maps old index -> new index.

    Row i of the result at position sigma_v[i] is row i of the input, and
    similarly for columns, so all aligned vectors move consistently.
    """
    sv = _check_permutation(sigma_v, inst.m, "sigma_v")
    sw = _check_permutation(sigma_w, inst.n, "sigma_w")
    inv_v = np.empty_like(sv)
    inv_v[sv] = np.arange(inst.m)
    inv_w = np.empty_like(sw)
    inv_w[sw] = np.arange(inst.n)
    return MilpInstance(
        m=inst.m,
        n=inst.n,
        c=inst.c[inv_w],
        b=inst.b[inv_v],
        senses=inst.senses[inv_v],
        lower=inst.lower[inv_w],
        upper=inst.upper[inv_w],
        integer=inst.integer[inv_w],
        a_rows=sv[inst.a_rows],
        a_cols=sw[inst.a_cols],
        a_vals=inst.a_vals,
    )
