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


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _exact(name: str, values, dtype) -> np.ndarray:
    """values as an array of dtype.  A cast that would change a value (258
    or 1.7 as an int8, 0.5 as a bool) is an InstanceError naming the field."""
    raw = np.asarray(values)
    try:
        with np.errstate(invalid="ignore"):
            cast = raw.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):
        cast = None
    if cast is None or not np.array_equal(cast, raw):
        raise InstanceError(f"field {name!r} holds a value that {np.dtype(dtype).name} cannot represent exactly")
    return cast


@dataclass(frozen=True)
class MilpInstance:
    """Immutable MILP problem data, read directly as the bipartite graph:
    constraint nodes carry (b_i, sense_i), variable nodes carry
    (c_j, l_j, u_j, is_integer_j), and edges are the nonzero A entries.

    Bounds use IEEE -inf/+inf for absent bounds; they serialize as the
    strings "-inf"/"+inf" so infinities survive a JSON round trip exactly.
    Triplets are stored sorted by (row, col) with no duplicates and no
    explicit zeros, so constraint i's edges are a contiguous run.
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
        object.__setattr__(self, "c", _readonly(np.asarray(self.c, dtype=float)))
        object.__setattr__(self, "b", _readonly(np.asarray(self.b, dtype=float)))
        object.__setattr__(self, "senses", _readonly(_exact("senses", self.senses, np.int8)))
        object.__setattr__(self, "lower", _readonly(np.asarray(self.lower, dtype=float)))
        object.__setattr__(self, "upper", _readonly(np.asarray(self.upper, dtype=float)))
        object.__setattr__(self, "integer", _readonly(_exact("integer", self.integer, bool)))
        rows = _exact("a_rows", self.a_rows, np.int64)
        cols = _exact("a_cols", self.a_cols, np.int64)
        vals = np.asarray(self.a_vals, dtype=float)
        order = np.lexsort((cols, rows))
        object.__setattr__(self, "a_rows", _readonly(rows[order]))
        object.__setattr__(self, "a_cols", _readonly(cols[order]))
        object.__setattr__(self, "a_vals", _readonly(vals[order]))
        self._validate()

    def _validate(self) -> None:
        m, n = self.m, self.n
        if m < 0 or n < 0:
            raise InstanceError("m and n must be nonnegative")
        for name, arr, size in [
            ("c", self.c, n),
            ("b", self.b, m),
            ("senses", self.senses, m),
            ("lower", self.lower, n),
            ("upper", self.upper, n),
            ("integer", self.integer, n),
        ]:
            if arr.shape != (size,):
                raise InstanceError(f"field {name!r} has length {arr.shape}, expected {size}")
        if not np.all(np.isin(self.senses, [0, 1, 2])):
            raise InstanceError("sense codes must be 0 (<=), 1 (=) or 2 (>=)")
        if np.any(np.isnan(self.c)) or np.any(np.isnan(self.b)):
            raise InstanceError("c and b must be finite numbers, not NaN")
        if np.any(np.isinf(self.c)) or np.any(np.isinf(self.b)):
            raise InstanceError("c and b must be finite numbers, not infinite")
        if np.any(np.isnan(self.lower)):
            raise InstanceError(f"lower bound is NaN at variable {int(np.argmax(np.isnan(self.lower)))}")
        if np.any(np.isnan(self.upper)):
            raise InstanceError(f"upper bound is NaN at variable {int(np.argmax(np.isnan(self.upper)))}")
        if np.any(self.lower > self.upper):
            j = int(np.argmax(self.lower > self.upper))
            raise InstanceError(f"lower bound exceeds upper bound at variable {j}")
        k = self.a_rows.size
        if self.a_cols.size != k or self.a_vals.size != k:
            raise InstanceError("triplet arrays must have equal length")
        if np.any(np.isnan(self.a_vals)):
            raise InstanceError("entries of A must be finite numbers, not NaN")
        if np.any(np.isinf(self.a_vals)):
            raise InstanceError("entries of A must be finite numbers, not infinite")
        if k:
            if self.a_rows.min(initial=0) < 0 or (m and self.a_rows.max(initial=-1) >= m):
                raise InstanceError("triplet row index out of range")
            if self.a_cols.min(initial=0) < 0 or (n and self.a_cols.max(initial=-1) >= n):
                raise InstanceError("triplet column index out of range")
            if m == 0 or n == 0:
                raise InstanceError("triplet index out of range for empty dimension")
            if np.any(self.a_vals == 0.0):
                raise InstanceError("explicit zero entry in A; drop zeros from the triplet list")
            keys = self.a_rows * n + self.a_cols
            if np.unique(keys).size != k:
                raise InstanceError("duplicate (row, col) triplet in A")

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


def _is_int(v) -> bool:
    """A JSON integer; JSON's true and false have type bool, not int."""
    return type(v) is int


def _number(v, what: str, *where) -> float:
    """A JSON number as a float.  Booleans and strings are not numbers, and
    an integer beyond the float range has no float value.  The error names
    ``what.format(*where)``, built only when there is an error."""
    if type(v) is float:
        return v
    if type(v) is not int:
        raise InstanceError(f"{what.format(*where)} must be a number, not {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise InstanceError(f"{what.format(*where)} is beyond the float range") from None


def _list(doc: dict, key: str) -> list:
    if not isinstance(doc[key], list):
        raise InstanceError(f"field {key!r} must be a list, not {doc[key]!r}")
    return doc[key]


def _bound_from_json(v, kind: str, j: int) -> float:
    if isinstance(v, str):
        if v in _INF_STRINGS:
            return _INF_STRINGS[v]
        raise InstanceError(f"bad {kind} bound {v!r} at variable {j}")
    x = _number(v, "{} bound at variable {}", kind, j)
    if not math.isfinite(x):
        raise InstanceError(f"bad {kind} bound {v!r} at variable {j}")
    return x


def _bound_to_json(v: float):
    if v == -math.inf:
        return "-inf"
    if v == math.inf:
        return "+inf"
    return v


def parse_instance(text: str | bytes) -> MilpInstance:
    """Parse the JSON wire format.  Each malformed input gets a distinct
    diagnostic; explicit zeros in A are rejected, not dropped."""
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
    if not _is_int(m) or not _is_int(n):
        raise InstanceError("m and n must be integers")
    rows, cols, vals = [], [], []
    for t in _list(doc, "A"):
        if not (isinstance(t, list) and len(t) == 3):
            raise InstanceError(f"bad triplet {t!r}")
        r, ccol, v = t
        if not _is_int(r) or not _is_int(ccol):
            raise InstanceError(f"triplet indices must be integers: {t!r}")
        v = _number(v, "triplet value at ({}, {})", r, ccol)
        if not math.isfinite(v):
            raise InstanceError(f"triplet value must be a finite number: {t!r}")
        if v == 0:
            raise InstanceError(f"explicit zero at ({r}, {ccol}); the support of A must not contain zeros")
        rows.append(r)
        cols.append(ccol)
        vals.append(v)
    c = [_number(v, "c[{}]", j) for j, v in enumerate(_list(doc, "c"))]
    b = [_number(v, "b[{}]", i) for i, v in enumerate(_list(doc, "b"))]
    senses = _list(doc, "senses")
    if not all(_is_int(s) and 0 <= s <= 2 for s in senses):
        raise InstanceError("sense codes must be the integers 0 (<=), 1 (=) or 2 (>=)")
    lower = [_bound_from_json(v, "lower", j) for j, v in enumerate(_list(doc, "lower"))]
    upper = [_bound_from_json(v, "upper", j) for j, v in enumerate(_list(doc, "upper"))]
    integer = _list(doc, "integer")
    if not all(isinstance(v, bool) for v in integer):
        raise InstanceError("integer flags must be booleans")
    try:
        a_rows, a_cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    except OverflowError:
        raise InstanceError("triplet index out of range") from None
    return MilpInstance(
        m=m,
        n=n,
        c=np.asarray(c, dtype=float),
        b=np.asarray(b, dtype=float),
        senses=np.asarray(senses, dtype=np.int8),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        integer=np.asarray(integer, dtype=bool),
        a_rows=a_rows,
        a_cols=a_cols,
        a_vals=np.asarray(vals, dtype=float),
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
