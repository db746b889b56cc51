import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milpgnn.instance import (
    InstanceError,
    MilpGraph,
    MilpInstance,
    Sense,
    build_graph,
    parse_instance,
    permute,
    serialize_instance,
)
from milpgnn.gen import counterexample_pair, gen_random


def tiny():
    return MilpInstance(
        m=2,
        n=3,
        c=np.array([1.0, -1.0, 0.5]),
        b=np.array([1.0, 2.0]),
        senses=np.array([Sense.LE, Sense.GE], dtype=np.int8),
        lower=np.array([0.0, -np.inf, 0.0]),
        upper=np.array([1.0, np.inf, 2.0]),
        integer=np.array([True, False, True]),
        a_rows=np.array([0, 0, 1]),
        a_cols=np.array([0, 2, 1]),
        a_vals=np.array([2.0, 1.0, -3.0]),
    )


class TestValidation:
    def test_valid_instance_accepted(self):
        inst = tiny()
        assert inst.m == 2 and inst.n == 3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InstanceError, match="c"):
            MilpInstance(
                m=1, n=2, c=np.array([1.0]), b=np.array([0.0]),
                senses=np.array([0], dtype=np.int8),
                lower=np.zeros(2), upper=np.ones(2),
                integer=np.zeros(2, dtype=bool),
                a_rows=np.array([0]), a_cols=np.array([0]), a_vals=np.array([1.0]),
            )

    @pytest.mark.parametrize("field", ["c", "b"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_cost_or_rhs_rejected(self, field, value):
        inst = tiny()
        arr = getattr(inst, field).copy()
        arr[0] = value
        with pytest.raises(InstanceError, match="infinite"):
            dataclasses.replace(inst, **{field: arr})

    @pytest.mark.parametrize("field", ["lower", "upper"])
    def test_nan_bound_rejected(self, field):
        inst = tiny()
        arr = getattr(inst, field).copy()
        arr[2] = np.nan
        with pytest.raises(InstanceError, match=f"{field} bound is NaN at variable 2"):
            dataclasses.replace(inst, **{field: arr})

    def test_nan_matrix_entry_rejected(self):
        with pytest.raises(InstanceError, match="entries of A .* not NaN"):
            dataclasses.replace(tiny(), a_vals=np.array([2.0, np.nan, -3.0]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_matrix_entry_rejected(self, value):
        with pytest.raises(InstanceError, match="entries of A .* not infinite"):
            dataclasses.replace(tiny(), a_vals=np.array([2.0, value, -3.0]))

    def test_explicit_zero_rejected(self):
        with pytest.raises(InstanceError, match="zero"):
            MilpInstance(
                m=1, n=1, c=np.ones(1), b=np.zeros(1),
                senses=np.array([0], dtype=np.int8),
                lower=np.zeros(1), upper=np.ones(1), integer=np.zeros(1, dtype=bool),
                a_rows=np.array([0]), a_cols=np.array([0]), a_vals=np.array([0.0]),
            )

    def test_duplicate_triplet_rejected(self):
        with pytest.raises(InstanceError, match="duplicate"):
            MilpInstance(
                m=1, n=1, c=np.ones(1), b=np.zeros(1),
                senses=np.array([0], dtype=np.int8),
                lower=np.zeros(1), upper=np.ones(1), integer=np.zeros(1, dtype=bool),
                a_rows=np.array([0, 0]), a_cols=np.array([0, 0]), a_vals=np.array([1.0, 2.0]),
            )

    @pytest.mark.parametrize("order", [[0, 1, 2], [2, 1, 0], [1, 2, 0]])
    def test_triplets_are_stored_sorted_from_any_order(self, order):
        inst = tiny()
        rows, cols, vals = (getattr(inst, f)[order] for f in ("a_rows", "a_cols", "a_vals"))
        assert dataclasses.replace(inst, a_rows=rows, a_cols=cols, a_vals=vals) == inst
        # a duplicate of (0, 2) that lands apart from it in the input order
        with pytest.raises(InstanceError, match=r"duplicate \(row, col\) triplet in A: the entry at \(0, 2\)"):
            dataclasses.replace(inst, a_rows=[*rows, 0], a_cols=[*cols, 2], a_vals=[*vals, 5.0])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InstanceError):
            MilpInstance(
                m=1, n=1, c=np.ones(1), b=np.zeros(1),
                senses=np.array([0], dtype=np.int8),
                lower=np.zeros(1), upper=np.ones(1), integer=np.zeros(1, dtype=bool),
                a_rows=np.array([0]), a_cols=np.array([5]), a_vals=np.array([1.0]),
            )

    def test_bad_sense_rejected(self):
        with pytest.raises(InstanceError, match="sense"):
            MilpInstance(
                m=1, n=1, c=np.ones(1), b=np.zeros(1),
                senses=np.array([7], dtype=np.int8),
                lower=np.zeros(1), upper=np.ones(1), integer=np.zeros(1, dtype=bool),
                a_rows=np.array([]), a_cols=np.array([]), a_vals=np.array([]),
            )

    def test_nan_rejected(self):
        with pytest.raises(InstanceError):
            MilpInstance(
                m=1, n=1, c=np.array([np.nan]), b=np.zeros(1),
                senses=np.array([0], dtype=np.int8),
                lower=np.zeros(1), upper=np.ones(1), integer=np.zeros(1, dtype=bool),
                a_rows=np.array([]), a_cols=np.array([]), a_vals=np.array([]),
            )

    # the constructor casts each index and flag field; a cast that changes a
    # value must be rejected, not stored

    @pytest.mark.parametrize("senses", [np.array([258, 0]), np.array([1.7, 0]), np.array([-254, 0]), [258, 0]])
    def test_lossy_sense_cast_rejected(self, senses):
        with pytest.raises(InstanceError, match="'senses'"):
            dataclasses.replace(tiny(), senses=senses)

    def test_lossy_row_cast_rejected(self):
        with pytest.raises(InstanceError, match="'a_rows'"):
            dataclasses.replace(tiny(), a_rows=np.array([0.7, 0.0, 1.0]))

    def test_lossy_column_cast_rejected(self):
        with pytest.raises(InstanceError, match="'a_cols'"):
            dataclasses.replace(tiny(), a_cols=np.array([0.0, 2.5, 1.0]))

    @pytest.mark.parametrize("integer", [[0.5, 0, 1], [2, 0, 1]])
    def test_lossy_integrality_cast_rejected(self, integer):
        with pytest.raises(InstanceError, match="'integer'"):
            dataclasses.replace(tiny(), integer=integer)

    @pytest.mark.parametrize("field", ["c", "b", "lower", "upper", "a_vals"])
    def test_a_value_that_is_no_number_names_its_field(self, field):
        # numpy would read the strings, bytes and booleans as numbers and None as NaN
        cycle8 = counterexample_pair()[0]
        for value in ["x", "1.5", "-inf", b"1", True, None]:
            with pytest.raises(InstanceError, match=f"field '{field}' holds a value that is not a number"):
                dataclasses.replace(cycle8, **{field: [value] * getattr(cycle8, field).size})

    @pytest.mark.parametrize("field", ["c", "upper", "integer", "a_rows"])
    def test_the_callers_array_stays_writeable(self, field):
        cycle8 = counterexample_pair()[0]
        theirs = getattr(cycle8, field).copy()
        inst = dataclasses.replace(cycle8, **{field: theirs})
        assert theirs.flags.writeable and not getattr(inst, field).flags.writeable
        theirs.fill(0)  # every field above holds a nonzero entry
        assert np.array_equal(getattr(inst, field), getattr(cycle8, field))

    def test_exact_casts_accepted(self):
        inst = dataclasses.replace(
            tiny(), senses=[0, 2], integer=[1, 0, 1.0], a_rows=np.array([0.0, 0.0, 1.0]), a_cols=[0, 2, 1]
        )
        assert inst == tiny()


class TestSerialization:
    def test_roundtrip_preserves_equality(self):
        inst = tiny()
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    def test_infinities_survive_json(self):
        inst = tiny()
        text = serialize_instance(inst)
        assert "-inf" in text and "+inf" in text
        again = parse_instance(text)
        assert np.isneginf(again.lower[1]) and np.isposinf(again.upper[1])

    def test_json_is_plain_json(self):
        json.loads(serialize_instance(tiny()))

    def test_counterexample_roundtrip(self):
        for inst in counterexample_pair():
            assert parse_instance(serialize_instance(inst)) == inst

    def test_malformed_raises(self):
        with pytest.raises((InstanceError, json.JSONDecodeError, KeyError, TypeError, ValueError)):
            parse_instance('{"m": 1}')


def tiny_json(**changes) -> str:
    doc = json.loads(serialize_instance(tiny()))
    doc.update(changes)
    return json.dumps(doc)


class TestWrongJsonTypes:
    """A value of the wrong JSON type gets its own InstanceError: it is not
    cast to a neighbouring type, and no OverflowError or TypeError escapes."""

    def test_fractional_sense_rejected(self):
        with pytest.raises(InstanceError, match="sense codes must be the integers"):
            parse_instance(tiny_json(senses=[1.5, 2]))

    def test_boolean_sense_rejected(self):
        with pytest.raises(InstanceError, match="sense codes must be the integers"):
            parse_instance(tiny_json(senses=[True, 2]))

    def test_sense_beyond_int8_rejected(self):
        with pytest.raises(InstanceError, match="sense codes must be the integers"):
            parse_instance(tiny_json(senses=[300, 2]))

    def test_boolean_size_rejected(self):
        with pytest.raises(InstanceError, match="m and n must be integers"):
            parse_instance(tiny_json(m=True))

    def test_boolean_cost_rejected(self):
        with pytest.raises(InstanceError, match=r"c\[0\] must be a number, not True"):
            parse_instance(tiny_json(c=[True, False, 1.0]))

    def test_boolean_triplet_index_rejected(self):
        with pytest.raises(InstanceError, match="triplet indices must be integers"):
            parse_instance(tiny_json(A=[[True, 0, 2.0]]))

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(InstanceError, match=r"c\[1\] is beyond the float range"):
            parse_instance(tiny_json(c=[1.0, 10**400, 0.5]))

    def test_triplet_index_beyond_int64_rejected(self):
        with pytest.raises(InstanceError, match="triplet index out of range"):
            parse_instance(tiny_json(A=[[2**70, 0, 2.0]]))

    def test_scalar_bounds_rejected(self):
        with pytest.raises(InstanceError, match="field 'lower' must be a list"):
            parse_instance(tiny_json(lower=5))

    def test_scalar_integrality_rejected(self):
        with pytest.raises(InstanceError, match="field 'integer' must be a list"):
            parse_instance(tiny_json(integer=3))


# Every kind of JSON value Python's reader yields: NaN and Infinity literals
# (json.dumps writes them for non-finite floats), integers past int64 and
# past the float range, strings, null, booleans, nested lists and objects.
BIG = [2**63, -(2**63) - 1, 2**64, 2**1024 - 2**970 - 1, 2**1024 - 2**970, -(2**1024), 10**400]
SPECIAL = st.sampled_from(BIG) | st.sampled_from(
    [None, True, False, "", "x", "-inf", "+inf", "inf", "nan", "Infinity", 0, 1, 3, -1, -0.0, 0.5, math.nan, math.inf, -math.inf]
)
JSON_VALUES = st.recursive(
    SPECIAL | st.text(max_size=3) | st.integers() | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=5,
)
FIELDS = ["A", "lower", "upper", "c", "b", "senses", "integer", "m", "n"]


@st.composite
def documents(draw) -> str:
    """Instance documents from 1x1 to 3x3, half of them with one field that
    holds any JSON value in place of its list or of one of its elements, or
    that is missing."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), unique=True, max_size=m * n))
    valid = {
        "c": (st.one_of(st.integers(-3, 3), st.floats(-10, 10)), n),
        "b": (st.one_of(st.integers(-3, 3), st.floats(-10, 10)), m),
        "senses": (st.integers(0, 2), m),
        "lower": (st.sampled_from(["-inf", 0, -1.5]), n),
        "upper": (st.sampled_from(["+inf", "inf", 1, 2.5]), n),
        "integer": (st.booleans(), n),
    }
    doc = {key: draw(st.lists(elements, min_size=size, max_size=size)) for key, (elements, size) in valid.items()}
    doc.update(m=m, n=n, A=[[i, j, draw(st.sampled_from([1, -2, 0.5, 3.0]))] for i, j in cells])
    if draw(st.booleans()):
        key = draw(st.sampled_from(FIELDS))
        action = draw(st.sampled_from(["element", "element", "element", "replace", "drop"]))
        if action == "drop":
            doc.pop(key, None)
        elif action == "replace" or not isinstance(doc.get(key), list) or not doc[key]:
            doc[key] = draw(JSON_VALUES)
        elif key == "A":
            triplet = list(doc["A"][draw(st.integers(0, len(doc["A"]) - 1))])
            triplet[draw(st.integers(0, 2))] = draw(SPECIAL | JSON_VALUES)
            doc["A"].append((triplet + [1])[: draw(st.integers(2, 4))] if draw(st.booleans()) else triplet)
        else:
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(SPECIAL)
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(text=documents())
@example(text=tiny_json(lower=[0.0, "-inf", 10**400]))  # math.isfinite(10**400) raises OverflowError
@example(text=tiny_json(A=[[0, 0, 2**1024], [1, 1, -3.0]]))
def test_parser_raises_only_instance_errors_and_accepted_documents_round_trip(text):
    try:
        inst = parse_instance(text)
    except InstanceError:
        return
    assert parse_instance(serialize_instance(inst)) == inst


class TestUnparsableText:
    """Text that the JSON reader cannot take in, however it fails, is an
    InstanceError with its own message."""

    @settings(max_examples=200, deadline=None)
    @given(raw=st.one_of(st.binary(max_size=64), st.text(max_size=64).map(str.encode)))
    def test_arbitrary_bytes_raise_only_instance_errors(self, raw):
        try:
            parse_instance(raw)
        except InstanceError:
            pass

    def test_non_utf8_rejected(self):
        with pytest.raises(InstanceError, match="not UTF-8 text"):
            parse_instance(b"\x80")

    def test_deep_nesting_rejected(self):
        with pytest.raises(InstanceError, match="nests too deeply"):
            parse_instance(b"[" * 100_000)

    def test_integer_past_the_digit_limit_rejected(self):
        with pytest.raises(InstanceError, match="unparsable number"):
            parse_instance('{"m": ' + "1" * 5000 + "}")


class TestGraph:
    def test_build_graph_is_the_instance(self):
        inst = tiny()
        assert build_graph(inst) is inst
        assert MilpGraph is MilpInstance

    def test_edges_match_support(self):
        inst = tiny()
        g = build_graph(inst)
        assert set(zip(g.a_rows.tolist(), g.a_cols.tolist())) == {(0, 0), (0, 2), (1, 1)}
        assert set(zip(*np.nonzero(inst.dense_matrix()))) == {(0, 0), (0, 2), (1, 1)}

    def test_adjacency_sorted(self):
        inst = gen_random(3)
        keys = inst.a_rows * inst.n + inst.a_cols
        assert np.all(np.diff(keys) > 0)

    def test_equality_compares_fields(self):
        cycle8, split = counterexample_pair()
        assert cycle8 == counterexample_pair()[0]
        assert not cycle8 == split
        assert cycle8 != split
        upper = cycle8.upper.copy()
        upper[3] = 2.0
        assert cycle8 != dataclasses.replace(cycle8, upper=upper)


class TestPermute:
    def test_identity_permutation(self):
        inst = tiny()
        assert permute(inst, np.arange(2), np.arange(3)) == inst

    def test_matrix_permutes_consistently(self):
        inst = gen_random(5, m=4, n=6, nnz=10)
        sv = np.array([2, 0, 3, 1])
        sw = np.array([5, 3, 0, 1, 4, 2])
        p = permute(inst, sv, sw)
        a, ap = inst.dense_matrix(), p.dense_matrix()
        for i in range(4):
            for j in range(6):
                assert ap[sv[i], sw[j]] == a[i, j]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), perm_seed=st.integers(0, 10_000))
    def test_double_permutation_composes(self, seed, perm_seed):
        inst = gen_random(seed, m=3, n=5, nnz=7)
        rng = np.random.default_rng(perm_seed)
        sv1, sw1 = rng.permutation(3), rng.permutation(5)
        sv2, sw2 = rng.permutation(3), rng.permutation(5)
        once = permute(permute(inst, sv1, sw1), sv2, sw2)
        composed = permute(inst, sv2[sv1], sw2[sw1])
        assert once == composed
