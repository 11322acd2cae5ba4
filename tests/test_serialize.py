import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpsd import (
    Kernel,
    KolmogorovDecomposition,
    SemigroupMapT,
    StarRepresentation,
    hermitian_space,
)
from wpsd import serialize as sz


def per_entry(a):
    """Reference encoding: one ``[re, im]`` pair per entry, built one entry at a time."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 0:
        return [float(np.real(a)), float(np.imag(a))]
    return [per_entry(x) for x in a]


def signed_array(shape, rng):
    """Random complex array with about a quarter of its real and imaginary parts -0.0."""
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    re[rng.random(shape) < 0.25] = -0.0
    im[rng.random(shape) < 0.25] = -0.0
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def same(encoded, a) -> bool:
    """Report payloads hold arrays, written as their ``tolist()``."""
    return json.dumps(encoded, default=np.ndarray.tolist) == json.dumps(per_entry(a))


def test_vectorised_encoding_matches_per_entry():
    rng = np.random.default_rng(5)
    for shape in [(3,), (3, 4), (3, 0), (0, 0), (2, 2, 2, 2)]:
        a = signed_array(shape, rng)
        assert same(sz.carray_to_json(a), a)

    table = signed_array((3, 3, 2, 2), rng)
    assert np.signbit(table.real).any() and np.signbit(table.imag).any()
    assert same(sz.kernel_to_json(Kernel(hermitian_space(2), table))["table"], table)

    gram, V = signed_array((2, 2, 2, 2), rng), signed_array((3, 2), rng)
    dec = sz.decomposition_to_json(KolmogorovDecomposition(Kernel(hermitian_space(2), gram), (0, 1), V))
    assert same(dec["gram"], gram) and same(dec["V"], V)

    mats = signed_array((4, 3, 3), rng)
    assert same(sz.representation_to_json(StarRepresentation(mats))["matrices"], mats)

    tensors = signed_array((4, 2, 2, 2, 2), rng)
    T = SemigroupMapT(hermitian_space(2), tensors)
    assert same(sz.semigroup_map_to_json(T)["tensors"], tensors)


def test_decoding_inverts_encoding_bit_for_bit():
    rng = np.random.default_rng(6)
    for shape in [(3,), (3, 4), (2, 2, 2, 2), (3, 0), (0, 0, 1, 1)]:
        a = signed_array(shape, rng)
        back = sz.carray_from_json(json.loads(json.dumps(sz.carray_to_json(a))), shape, "a")
        assert back.shape == a.shape
        assert np.array_equal(back.view(float), a.view(float))
        assert np.array_equal(np.signbit(back.real), np.signbit(a.real))
        assert np.array_equal(np.signbit(back.imag), np.signbit(a.imag))


# ------------------------------------------------------------ report text

SPECIAL_FLOATS = [-0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
TEXT = st.text(st.one_of(st.sampled_from('[]{},:"\\ \x00é☃'), st.characters()), max_size=6)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)


@st.composite
def uniform_arrays(draw):
    """Nested lists of one shape with a float at every leaf, as ``ndarray.tolist()`` gives."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    size = math.prod(shape)
    out = draw(st.lists(FLOATS, min_size=size, max_size=size))
    for n in reversed(shape[1:]):
        out = [out[i : i + n] for i in range(0, len(out), n)]
    return out


TREES = st.recursive(
    st.one_of(SCALARS, uniform_arrays()),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tree=TREES)
@example(tree=[[1.0, 2.0], 3.0])
@example(tree=[[[1.0]], [2.0]])
@example(tree=[[1.0, [2.0]]])
@example(tree=[[1.0], []])
@example(tree=[[], [[]]])
@example(tree=[[{}], [1.0], {}])
@example(tree={"a": [[0.5, -0.0], [1e308, 5e-324]], "b": {}, "c": [True, None, "]],[["]})
def test_report_text_equals_indented_dumps(tree):
    # The same containers again, at the same depth and one level deeper.
    shared = {"tree": tree, "again": tree, "deeper": [tree, {"tree": tree}]}
    for obj in (tree, shared):
        assert sz.report_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@st.composite
def report_arrays(draw):
    """Float arrays with an ``[re, im]`` axis last, or int64 tables; axes may have length 0 or 1."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    if draw(st.booleans()):
        shape.append(2)
        values, dtype = FLOATS, np.float64
    else:
        values, dtype = st.integers(-(2**63), 2**63 - 1), np.int64
    size = math.prod(shape)
    return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=dtype).reshape(shape)


ARRAY_TREES = st.recursive(
    st.one_of(SCALARS, uniform_arrays(), report_arrays()),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tree=ARRAY_TREES)
@example(tree=np.array([[[-0.0, 0.0], [0.0, -0.0]], [[math.nan, -math.nan], [math.inf, -math.inf]]]))
@example(tree={"a": np.array([[5e-324, 1e308], [-5e-324, 5e-324]]), "b": [np.zeros((2, 0, 2))]})
@example(tree=[np.arange(6, dtype=np.int64).reshape(1, 3, 2, 1), np.zeros((1, 1, 2))])
@example(tree=np.zeros((0,), dtype=np.int64))
def test_report_text_writes_arrays_as_their_lists(tree):
    # The same containers again, at the same depth and one level deeper.
    shared = {"tree": tree, "again": tree, "deeper": [tree, {"tree": tree}]}
    for obj in (tree, shared):
        assert sz.report_text(obj) == json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist)
