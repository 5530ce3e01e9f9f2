"""The canonical JSON of reports, and the row norms, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waistlab._util import ROW_NORM_ROWS, canonical_dumps, row_norms


def test_canonical_dumps_golden_string():
    obj = {
        "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 0.1,
                   np.float64(1 / 3), np.float64("nan"), np.float32(0.5)],
        "ints": [7, np.int64(-7), 10**20, True, False, None],
        "nested": (1, (2.5, ("x", [])), {}),
        "array": np.array([[1.0, -0.0], [np.inf, 2.0]]),
        "keys": {2: "two", 10: "ten", 1.5: 'q"é'},
    }
    assert canonical_dumps(obj) == (
        '{"array": [[1, -0], ["inf", 2]], '
        '"floats": ["nan", "inf", "-inf", -0, 0.10000000000000001, '
        '0.33333333333333331, "nan", 0.5], '
        '"ints": [7, -7, 100000000000000000000, true, false, null], '
        '"keys": {"1.5": "q\\"\\u00e9", "2": "two", "10": "ten"}, '
        '"nested": [1, [2.5, ["x", []]], {}]}')


@pytest.mark.parametrize("value", [np.bool_(True), object(), {1, 2}])
def test_canonical_dumps_rejects_other_types(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_dumps({"x": [value]})


# zeros, subnormals, squares that underflow or overflow, and NaN
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1e-160, 1e-200, 1e200, -1e200, 1e155, np.nan]
LAYOUTS = ("C", "F", "reversed", "row-stepped", "column-sliced")


@st.composite
def row_arrays(draw):
    """A float64 array of 1 to 3 dimensions whose last axis holds 1 to 12
    values, in one of LAYOUTS: Gaussian values over twelve decades, with
    some entries replaced by SPECIAL values.  Two-dimensional arrays reach
    past ROW_NORM_ROWS (k - 2) rows, where row_norms sums by columns."""
    k = draw(st.integers(1, 12))
    ndim = draw(st.integers(1, 3))
    if ndim == 1:
        shape = (k,)
    elif ndim == 2:
        shape = (draw(st.integers(0, ROW_NORM_ROWS * max(k - 2, 1) + 64)), k)
    else:
        shape = (draw(st.integers(1, 9)), draw(st.integers(0, 60)), k)
    layout = draw(st.sampled_from(LAYOUTS if ndim > 1 else ("C", "reversed", "column-sliced")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = list(shape)
    if layout == "row-stepped":
        wide[0] *= 2
    elif layout == "column-sliced":
        wide[-1] += 3
    X = rng.standard_normal(wide) * 10.0 ** rng.uniform(-6, 6, wide)
    specials = draw(st.lists(st.sampled_from(SPECIAL), max_size=12))
    if X.size:
        X.flat[rng.integers(0, X.size, len(specials))] = specials
    if layout == "F":
        return np.asfortranarray(X)
    if layout == "reversed":
        return X[::-1]
    if layout == "row-stepped":
        return X[::2]
    if layout == "column-sliced":
        return X[..., 2:2 + k]
    return X


@settings(max_examples=300, deadline=None, derandomize=True)
@given(row_arrays())
def test_row_norms_equal_numpy_bit_for_bit(X):
    with np.errstate(all="ignore"):
        got, want = row_norms(X), np.linalg.norm(X, axis=-1)
    assert np.shape(got) == np.shape(want) and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
