"""The one valuation rule of the optimizer's answers: every stage and the
polish take the first least of their candidates through optimize._least,
each candidate with the bits of a one-row call of the field."""

import csv
import json
import sys

import numpy as np
import pytest

from waistlab import optimize
from waistlab.bodies import ball, cube, ellipsoid, truncated_cylinder, vertex_polytope
from waistlab.cli import main
from waistlab.geometry import haar_rotation
from waistlab.optimize import OptimizerConfig, minimize_on_sphere
from waistlab.pieces import Piece, map_pieces, sum_pieces

CFG = OptimizerConfig(restarts=8, iters=60, seed=0)
E3 = ellipsoid([1.0, 1.4, 0.8])
ZERO = Piece("smooth", value=lambda V: np.zeros(len(V)))  # leaves any field as it is
SIMPLEX = np.array([[1.0, 0.2, -0.3], [-0.4, 1.1, 0.0], [-0.5, -0.6, 0.9], [0.1, -0.3, -1.0]])
# the simplex moved off the origin: its gauge is the smooth facet gauge,
# +inf off the cone over it, and its support rows have no hull around the
# origin
OFF_ORIGIN = vertex_polytope(SIMPLEX + [2.0, 0.5, 0.0])


def _batch_dependent(V):
    """A callable field that is not row-local: a batch of more than one
    row reads 1e-9 higher than the same rows one at a time."""
    return np.abs(V @ [0.3, -1.0, 0.5]) + 0.2 + 1e-9 * (len(V) > 1)


FIELDS = {
    "0-sphere, callable": (lambda V: np.abs(V[:, 0] - 0.7) + 0.4 * V[:, 0], 1,
                           {"_zero_sphere"}),
    "0-sphere, pieces": ((Piece("l1", np.array([[2.0]])), Piece("linear", np.array([[0.5]]))), 1,
                         {"_zero_sphere"}),
    "S-lemma, ellipsoids": (E3.gauge_pieces + map_pieces(ellipsoid([0.6, 2.0, 1.1]).gauge_pieces,
                                                         haar_rotation(3, seed=1)), 3,
                            {"_s_lemma"}),
    "S-lemma, cylinder": (truncated_cylinder(ball(4, 0.5), 8).gauge_pieces
                          + map_pieces(ball(8, 0.7).gauge_pieces, haar_rotation(8, seed=2)), 8,
                          {"_s_lemma"}),
    "floor": (ball(4, 1.2).support_pieces
              + map_pieces(cube(4, 1.0).support_pieces, haar_rotation(4, seed=1)), 4,
              {"_floor"}),
    "convex hull": (cube(4, 1.0).gauge_pieces, 4, {"_cutting_planes"}),
    "cutting planes": (ellipsoid([0.5, 0.6, 0.4]).support_pieces
                       + map_pieces(vertex_polytope(SIMPLEX).support_pieces,
                                    haar_rotation(3, seed=1)), 3,
                       {"_floor", "_cutting_planes"}),
    "facets and polish": (sum_pieces((ellipsoid([0.1, 3.0, 0.2, 2.5, 1.0]).support_pieces,
                                      map_pieces(cube(5, 1.0).support_pieces,
                                                 haar_rotation(5, seed=3)))), 5,
                          {"_cutting_planes", "_finish"}),
    "polish, smooth piece": (E3.gauge_pieces + (ZERO,), 3, {"_finish"}),
    "polish, callable": (_batch_dependent, 3, {"_finish"}),
    "polish, off-origin gauge": (OFF_ORIGIN.gauge_pieces, 3, {"_finish"}),
    "polish, off-origin support": (OFF_ORIGIN.support_pieces, 3, {"_finish"}),
}


@pytest.mark.parametrize("name", list(FIELDS))
def test_every_answer_is_the_first_least_lone_value(monkeypatch, name):
    field, n, callers = FIELDS[name]
    real, seen = optimize._least, set()

    def least(pieces, C):
        i, value = real(pieces, C)
        lone = np.array([optimize._finite_values(pieces, c[None])[0] for c in C])
        assert i == int(np.argmin(lone))  # the first least
        assert np.float64(value).tobytes() == lone[i].tobytes()
        seen.add(sys._getframe(1).f_code.co_name)
        return i, value

    monkeypatch.setattr(optimize, "_least", least)
    res = minimize_on_sphere(field, n, CFG)
    assert callers <= seen
    # the reported value is its direction's one-row value
    pieces = (Piece("smooth", value=lambda V: field(optimize._normalize_rows(V))),) \
        if callable(field) else field
    assert res.value == optimize._finite_values(pieces, res.direction[None])[0]


def test_a_polished_point_is_kept_only_below_the_descents_lone_value(monkeypatch):
    # the polish returns its starts, the descent's best distinct rows: the
    # first ties the descent's best row, and the row is kept
    monkeypatch.setattr(optimize._Epigraph, "solve", lambda self, u0: u0)
    res = minimize_on_sphere(E3.gauge_pieces + (ZERO,), 3, CFG)
    assert res.stage == "descent" and res.polish_nit == 0


def test_readme_two_bodies_trial_takes_its_least_lone_value(tmp_path):
    # README's two-bodies example at four trials: trial 3's field takes the
    # least lone value of its S-lemma candidates, below the lone value of
    # the candidate that a batched argmin picks, so its diameter, 2 over
    # that value, reads one ulp higher (2.4760131051030401 from the batch)
    config = {
        "experiment": "two-bodies", "n": 8, "k": 4, "trials": 4,
        "K": {"kind": "truncated_cylinder",
              "core": {"kind": "ball", "dim": 4, "radius": 0.5}, "dim": 8},
        "L": {"kind": "product",
              "first": {"kind": "ball", "dim": 1, "radius": 1e6},
              "second": {"kind": "ball", "dim": 7, "radius": 0.5}},
        "a_frac": 0.25,
        "section_L": {"k": 7, "offset": 1},
    }
    path = tmp_path / "two_bodies.json"
    path.write_text(json.dumps(config))
    assert main(["experiment", "two-bodies", "--config", str(path), "--seed", "7",
                 "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "trials.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[3]["diameter"] == "2.4760131051030405"
