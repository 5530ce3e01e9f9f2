"""The canonical JSON of reports, byte for byte."""

import numpy as np
import pytest

from waistlab._util import canonical_dumps


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
