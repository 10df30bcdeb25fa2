from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chiralwalk.cantor import (Cylinder, Dyadic, ProductMeasure,
                               check_prefix_partition, check_vertex, cylinder_measure)
from helpers import refine_partition, scan_check_prefix_partition

dyadics = st.builds(Dyadic.make,
                    st.integers(min_value=-10**6, max_value=10**6),
                    st.integers(min_value=0, max_value=40))
prefixes = st.text(alphabet="01", max_size=10)


# --- Dyadic -----------------------------------------------------------------

def test_make_canonicalizes():
    assert Dyadic.make(4, 2) == Dyadic(1, 0)
    assert Dyadic.make(6, 1) == Dyadic(3, 0)
    assert Dyadic.make(0, 7) == Dyadic(0, 0)
    assert Dyadic.make(-8, 3) == Dyadic(-1, 0)
    assert Dyadic.make(3, 2) == Dyadic(3, 2)


def test_arithmetic_examples():
    half = Dyadic.make(1, 1)
    quarter = Dyadic.make(1, 2)
    assert half + quarter == Dyadic(3, 2)
    assert half + (-1) * quarter == quarter
    assert half * quarter == Dyadic(1, 3)
    assert 3 * quarter == Dyadic(3, 2)
    assert float(Dyadic.make(3, 2)) == 0.75


def test_exact_addition_many_random_pairs():
    # (x + y) - y == x exactly, 10^4 seeded pairs
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        x = Dyadic.make(int(rng.integers(-10**9, 10**9)), int(rng.integers(0, 50)))
        y = Dyadic.make(int(rng.integers(-10**9, 10**9)), int(rng.integers(0, 50)))
        assert (x + y) + (-1) * y == x


@given(dyadics, dyadics)
def test_addition_commutes_and_cancels(x, y):
    assert x + y == y + x
    assert (x + y) + (-1) * y == x


def test_json_form():
    assert asdict(Dyadic.make(1, 2)) == {"num": 1, "exp": 2}


# --- cylinders and measures ---------------------------------------------------

def test_uniform_measure_examples():
    uniform = ProductMeasure.uniform()
    assert cylinder_measure(uniform, Cylinder("")) == Dyadic(1, 0)
    assert cylinder_measure(uniform, Cylinder("01")) == Dyadic(1, 2)


def test_bernoulli_measure_weights():
    third = ProductMeasure.bernoulli(1 / 3)
    assert cylinder_measure(third, Cylinder("1")) == pytest.approx(2 / 3)
    assert cylinder_measure(third, Cylinder("0")) == pytest.approx(1 / 3)


def test_bernoulli_rejects_bad_theta():
    with pytest.raises(ValueError):
        ProductMeasure.bernoulli(0.0)
    with pytest.raises(ValueError):
        ProductMeasure.bernoulli(1.0)


@given(prefixes)
def test_uniform_additivity_exact(prefix):
    uniform = ProductMeasure.uniform()
    whole = cylinder_measure(uniform, Cylinder(prefix))
    left = cylinder_measure(uniform, Cylinder(prefix + "0"))
    right = cylinder_measure(uniform, Cylinder(prefix + "1"))
    assert left + right == whole


@given(prefixes, st.floats(min_value=0.05, max_value=0.95))
def test_bernoulli_additivity(prefix, theta):
    m = ProductMeasure.bernoulli(theta)
    whole = float(cylinder_measure(m, Cylinder(prefix)))
    split = (float(cylinder_measure(m, Cylinder(prefix + "0")))
             + float(cylinder_measure(m, Cylinder(prefix + "1"))))
    assert abs(whole - split) <= 1e-15


# --- partitions ---------------------------------------------------------------

def test_partition_recognition():
    check_prefix_partition([""])
    check_prefix_partition(["0", "10", "11"])
    for prefixes in (["0"], ["0", "1", "11"], ["0", "0", "1"]):
        with pytest.raises(ValueError, match="prefix code"):
            check_prefix_partition(prefixes)


def test_refine_whole_space():
    cells = refine_partition([Cylinder("")], 1)
    assert [c.prefix for c, _ in cells] == ["0", "1"]
    assert all(anc.prefix == "" for _, anc in cells)


def test_refine_level_two():
    cells = refine_partition([Cylinder("0"), Cylinder("1")], 2)
    assert [c.prefix for c, _ in cells] == ["00", "01", "10", "11"]
    assert [anc.prefix for _, anc in cells] == ["0", "0", "1", "1"]


def test_refine_cannot_coarsen():
    with pytest.raises(ValueError, match="finer"):
        refine_partition([Cylinder("0"), Cylinder("10"), Cylinder("11")], 1)


def test_refine_rejects_non_partition():
    with pytest.raises(ValueError, match="prefix code"):
        refine_partition([Cylinder("0")], 2)


def test_check_partition_raises():
    with pytest.raises(ValueError):
        check_prefix_partition(["0", "00"])


def test_rejects_non_bits():
    with pytest.raises(ValueError):
        check_vertex("0a1")


@pytest.mark.parametrize("prefixes", [
    ["00", "1000", "1001", "1010", "1011", "0"],   # Kraft sum 1, only the nesting fails
    ["0", "0"],                                    # Kraft sum 1, only the repeat fails
    ["0", "10"],
    ["0", "1", "11", "10"],
], ids=["nested-far-apart", "duplicate", "incomplete", "over-complete"])
def test_partition_check_raises_the_pairwise_message(prefixes):
    with pytest.raises(ValueError) as oracle:
        scan_check_prefix_partition(prefixes)
    with pytest.raises(ValueError) as sorted_check:
        check_prefix_partition(prefixes)
    assert str(sorted_check.value) == str(oracle.value)
