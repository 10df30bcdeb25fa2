import json
import time

import numpy as np
import pytest

from chiralwalk.cantor import Cylinder, ProductMeasure
from chiralwalk.index import s_index_exact
from chiralwalk.tree import truncated_tree
from chiralwalk.walk import (LineWalkSpec, SphereCoeff, ValidationError, WalkSpec,
                             eval_boundary, eval_vertex, line_coeff,
                             line_walk_to_json, parse_line_walk, parse_walk,
                             walk_to_json)
from helpers import (random_partition, random_walk_spec, scan_eval_boundary,
                     scan_eval_vertex, sphere_coeff)


def test_coeff_normalization():
    c = SphereCoeff.make(0.6, 0.8)
    assert c.a == pytest.approx(0.6) and c.b == pytest.approx(0.8)
    assert c.a ** 2 + abs(c.b) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_coeff_rejects_off_sphere():
    with pytest.raises(ValidationError, match="sphere"):
        SphereCoeff.make(0.8, 0.7)


def test_coeff_rejects_degenerate_a():
    with pytest.raises(ValidationError, match="close to 1"):
        SphereCoeff.make(1.0, 0.0)
    with pytest.raises(ValidationError):
        SphereCoeff.make(-0.9999999, np.sqrt(1 - 0.9999999 ** 2))


def test_walkspec_validates_partition():
    with pytest.raises(ValidationError, match="prefix code"):
        WalkSpec.make(0.0, 1.0, [("0", sphere_coeff(0.5))])
    # a repeated prefix with distinct coefficients must not reach a
    # comparison of the coefficients
    with pytest.raises(ValidationError, match="prefix code"):
        WalkSpec.make(0.0, 1.0, [("0", sphere_coeff(0.5)), ("0", sphere_coeff(0.2)),
                                 ("1", sphere_coeff(0.2))])


def test_walkspec_normalizes_pq():
    w = WalkSpec.make(0.3, np.sqrt(1 - 0.09), [("", sphere_coeff(0.5))])
    assert w.p ** 2 + abs(w.q) ** 2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        WalkSpec.make(0.9, 0.9, [("", sphere_coeff(0.5))])


def test_eval_boundary_examples():
    a, b = sphere_coeff(0.5), sphere_coeff(-0.5)
    w = WalkSpec.make(0.0, 1.0, [("0", a), ("1", b)])
    assert eval_boundary(w, Cylinder("01")) == a
    assert eval_boundary(w, Cylinder("1101")) == b
    constant = WalkSpec.make(0.0, 1.0, [("", a)])
    assert eval_boundary(constant, Cylinder("1101")) == a
    with pytest.raises(ValidationError, match="coarser"):
        eval_boundary(w, Cylinder(""))


def test_eval_boundary_refinement_invariant():
    rng = np.random.default_rng(8)
    w = random_walk_spec(rng)
    for prefix, coeff in w.cells:
        for extension in ("0", "11", "010"):
            assert eval_boundary(w, Cylinder(prefix + extension)) == coeff


def test_eval_vertex_at_or_below_cells():
    a, b = sphere_coeff(0.5), sphere_coeff(-0.5)
    w = WalkSpec.make(0.0, 1.0, [("0", a), ("1", b)])
    assert eval_vertex(w, "011") == a
    constant = WalkSpec.make(0.0, 1.0, [("", a)])
    assert eval_vertex(constant, "") == a


def test_eval_vertex_shallow_leftmost_rule():
    a, b, c = sphere_coeff(0.3), sphere_coeff(0.6), sphere_coeff(-0.6)
    w = WalkSpec.make(0.0, 1.0, [("00", a), ("01", b), ("1", c)])
    # "0" continues as "00..." under the leftmost rule
    assert eval_vertex(w, "0") == a
    assert eval_vertex(w, "0", rule="rightmost") == b
    assert eval_vertex(w, "") == a
    assert eval_vertex(w, "", rule="rightmost") == c


def test_eval_vertex_constant_on_cell_subtrees():
    rng = np.random.default_rng(5)
    w = random_walk_spec(rng)
    level = w.max_level
    for prefix, coeff in w.cells:
        pad = prefix + "0" * (level - len(prefix))
        for tail in ("", "0", "1", "01"):
            assert eval_vertex(w, pad + tail) == coeff


def _lookup_walks():
    """Random partitions of levels 1-6 and the level-40 comb."""
    rng = np.random.default_rng(18)
    codes = [random_partition(rng, level, splits=4 * level)
             for level in range(1, 7) for _ in range(3)]
    codes.append(["0" * k + "1" for k in range(40)] + ["0" * 40])
    return [WalkSpec.make(0.3, np.sqrt(1 - 0.09),
                          [(prefix, sphere_coeff(float(rng.uniform(-0.9, 0.9))))
                           for prefix in code])
            for code in codes]


def test_lookup_matches_the_scan():
    vertices = truncated_tree(8).addresses
    for w in _lookup_walks():
        for v in vertices:
            for rule in ("leftmost", "rightmost"):
                assert eval_vertex(w, v, rule) is scan_eval_vertex(w, v, rule), (w.prefixes, v)
            try:
                expected = scan_eval_boundary(w, Cylinder(v))
            except ValidationError as exc:
                with pytest.raises(ValidationError) as err:
                    eval_boundary(w, Cylinder(v))
                assert str(err.value) == str(exc)
            else:
                assert eval_boundary(w, Cylinder(v)) is expected


def test_eval_vertex_rejects_an_unknown_rule_everywhere():
    a, b, c = sphere_coeff(0.3), sphere_coeff(0.6), sphere_coeff(-0.6)
    w = WalkSpec.make(0.0, 1.0, [("00", a), ("01", b), ("1", c)])
    # the scan raised only above the partition, and answered below it
    assert scan_eval_vertex(w, "1", rule="middle") == c
    for v in truncated_tree(4).addresses:
        with pytest.raises(ValueError, match="unknown interior rule"):
            eval_vertex(w, v, rule="middle")


def test_level_14_code_parses_and_indexes_fast():
    level = 14
    rng = np.random.default_rng(14)
    cells = [{"prefix": format(i, f"0{level}b"), "a": a, "b": {"re": float(np.sqrt(1 - a * a)),
                                                               "im": 0.0}}
             for i, a in enumerate(rng.uniform(-0.9, 0.9, 1 << level))]
    rng.shuffle(cells)
    text = json.dumps({"p": 0.0, "q": {"re": 1.0, "im": 0.0}, "cells": cells})
    start = time.perf_counter()
    report = s_index_exact(parse_walk(text), ProductMeasure.uniform())
    assert time.perf_counter() - start < 2.0
    assert len(report.per_cell) == 1 << level


def test_parse_examples():
    doc = {"p": 0.0, "q": {"re": 1.0, "im": 0.0},
           "cells": [{"prefix": "", "a": 0.6, "b": {"re": 0.8, "im": 0.0}}]}
    w = parse_walk(json.dumps(doc))
    assert w.cells[0][1].a == pytest.approx(0.6)

    doc["cells"][0]["a"] = 0.8
    doc["cells"][0]["b"] = {"re": 0.7, "im": 0.0}
    with pytest.raises(ValidationError, match="sphere"):
        parse_walk(json.dumps(doc))

    doc["cells"] = [{"prefix": "0", "a": 0.6, "b": {"re": 0.8, "im": 0.0}}]
    with pytest.raises(ValidationError, match="prefix code"):
        parse_walk(json.dumps(doc))


def test_parse_rejects_garbage():
    with pytest.raises(ValidationError, match="JSON"):
        parse_walk("{nope")
    with pytest.raises(ValidationError, match="cells"):
        parse_walk("{}")


def test_roundtrip_exact():
    rng = np.random.default_rng(17)
    for _ in range(20):
        w = random_walk_spec(rng)
        assert parse_walk(walk_to_json(w)) == w


def test_line_spec_and_roundtrip():
    left, right = sphere_coeff(0.9), sphere_coeff(0.3)
    spec = LineWalkSpec.make(left, right, [(0, sphere_coeff(0.5))])
    assert line_coeff(spec, -7) == left
    assert line_coeff(spec, 7) == right
    assert line_coeff(spec, 0) == sphere_coeff(0.5)
    assert parse_line_walk(line_walk_to_json(spec)) == spec


def test_line_spec_duplicate_positions():
    with pytest.raises(ValidationError, match="duplicate"):
        LineWalkSpec.make(sphere_coeff(0.9), sphere_coeff(0.3),
                          [(0, sphere_coeff(0.5)), (0, sphere_coeff(0.4))])


def test_line_parse_errors():
    with pytest.raises(ValidationError, match="tails"):
        parse_line_walk("{}")
