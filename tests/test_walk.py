import json
import time

import numpy as np
import pytest

from chiralwalk.cantor import Cylinder, ProductMeasure, refine_partition
from chiralwalk.index import s_index_exact
from chiralwalk.tree import truncated_tree
from chiralwalk.treeop import coin_values
from chiralwalk.walk import (LineWalkSpec, SphereCoeff, ValidationError, WalkSpec,
                             line_coeff, line_walk_to_json, parse_line_walk, parse_walk,
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


def coin_at(w: WalkSpec, v: str, rule: str = "leftmost") -> tuple[float, complex]:
    """The coin data (a, b) that ``treeop.coin_values`` gives the vertex v."""
    t = truncated_tree(max(len(v), 1))
    a, b = coin_values(w, t, rule)
    i = t.addresses.index(v)
    return a[i], b[i]


def test_eval_vertex_at_or_below_cells():
    a, b = sphere_coeff(0.5), sphere_coeff(-0.5)
    w = WalkSpec.make(0.0, 1.0, [("0", a), ("1", b)])
    assert coin_at(w, "011") == (a.a, a.b)
    constant = WalkSpec.make(0.0, 1.0, [("", a)])
    assert coin_at(constant, "") == (a.a, a.b)


def test_eval_vertex_shallow_leftmost_rule():
    a, b, c = sphere_coeff(0.3), sphere_coeff(0.6), sphere_coeff(-0.6)
    w = WalkSpec.make(0.0, 1.0, [("00", a), ("01", b), ("1", c)])
    # "0" continues as "00..." under the leftmost rule
    assert coin_at(w, "0") == (a.a, a.b)
    assert coin_at(w, "0", rule="rightmost") == (b.a, b.b)
    assert coin_at(w, "") == (a.a, a.b)
    assert coin_at(w, "", rule="rightmost") == (c.a, c.b)


def test_eval_vertex_constant_on_cell_subtrees():
    rng = np.random.default_rng(5)
    w = random_walk_spec(rng)
    level = w.max_level
    for prefix, coeff in w.cells:
        pad = prefix + "0" * (level - len(prefix))
        for tail in ("", "0", "1", "01"):
            assert coin_at(w, pad + tail) == (coeff.a, coeff.b)


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
    # the vertex lookup of coin_values on every vertex to depth 8, and the
    # boundary lookup of refine_partition on every level-8 cylinder
    t = truncated_tree(8)
    for w in _lookup_walks():
        for rule in ("leftmost", "rightmost"):
            a, b = coin_values(w, t, rule)
            expected = [scan_eval_vertex(w, v, rule) for v in t.addresses]
            assert a.tolist() == [c.a for c in expected], (w.prefixes, rule)
            assert b.tolist() == [c.b for c in expected], (w.prefixes, rule)
        if w.max_level <= 8:
            coeffs = dict(w.cells)
            for cylinder, cell in refine_partition([Cylinder(p) for p in w.prefixes], 8):
                assert coeffs[cell.prefix] is scan_eval_boundary(w, cylinder), w.prefixes


def test_eval_vertex_rejects_an_unknown_rule_everywhere():
    a, b, c = sphere_coeff(0.3), sphere_coeff(0.6), sphere_coeff(-0.6)
    w = WalkSpec.make(0.0, 1.0, [("00", a), ("01", b), ("1", c)])
    # the scan raised only above the partition, and answered below it
    assert scan_eval_vertex(w, "1", rule="middle") == c
    for depth in range(1, 5):
        with pytest.raises(ValueError, match="unknown interior rule"):
            coin_values(w, truncated_tree(depth), rule="middle")


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
    # past the interpreter's limit on integer digits
    for parse in (parse_walk, parse_line_walk):
        with pytest.raises(ValidationError, match="JSON"):
            parse('{"p": 1' + "0" * 5000 + "}")


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
