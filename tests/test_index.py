import tracemalloc

import numpy as np
import pytest

from chiralwalk.cantor import Cylinder, Dyadic, ProductMeasure
from chiralwalk.index import (classify_point, s_index_exact, s_index_montecarlo)
from chiralwalk.symbol import SymbolSingularError
from chiralwalk.walk import WalkSpec
from helpers import (random_partition, random_walk_spec, reference_montecarlo,
                     refine_partition, sphere_coeff)


def level2_walk():
    return WalkSpec.make(0.5, np.sqrt(0.75), [
        ("00", sphere_coeff(0.9)), ("01", sphere_coeff(0.9)),
        ("10", sphere_coeff(0.2)), ("11", sphere_coeff(-0.9))])


def two_cell_walk():
    return WalkSpec.make(0.0, 1.0, [("0", sphere_coeff(0.8)),
                                    ("1", sphere_coeff(-0.8))])


def test_classify_point():
    assert classify_point(0.8, 0.5) == 1
    assert classify_point(0.2, 0.5) == 0
    assert classify_point(-0.8, 0.5) == -1
    assert classify_point(0.2, -0.5) == 0
    assert classify_point(0.8, -0.5) == 1
    with pytest.raises(SymbolSingularError):
        classify_point(0.5, 0.5)
    with pytest.raises(SymbolSingularError):
        classify_point(-0.5, 0.5)
    with pytest.raises(SymbolSingularError):
        classify_point(0.5, 0.5 + 1e-12)
    # a NaN margin is on the locus, never classified
    with pytest.raises(SymbolSingularError):
        classify_point(float("nan"), 0.5)


def test_exact_constant_walk():
    w = WalkSpec.make(0.0, 1.0, [("", sphere_coeff(0.9, 0.4))])
    report = s_index_exact(w, ProductMeasure.uniform())
    assert report.exact == Dyadic(1, 0)
    assert report.numeric == 1.0
    assert report.classification_counts == {"plus": 1, "zero": 0, "minus": 0}


def test_exact_antisymmetric_walk():
    report = s_index_exact(two_cell_walk(), ProductMeasure.uniform())
    assert report.exact == Dyadic(0, 0)
    assert report.numeric == 0.0


def test_exact_level2_worked_example():
    report = s_index_exact(level2_walk(), ProductMeasure.uniform())
    assert report.exact == Dyadic(1, 2)
    assert [c.winding for c in report.per_cell] == [1, 1, 0, -1]
    assert report.classification_counts == {"plus": 2, "zero": 1, "minus": 1}


def test_exact_bernoulli_third():
    report = s_index_exact(two_cell_walk(), ProductMeasure.bernoulli(1 / 3))
    assert report.exact is None
    assert report.numeric == pytest.approx(-1 / 3, abs=1e-12)


def test_numeric_matches_per_cell_sum():
    rng = np.random.default_rng(31)
    for _ in range(10):
        w = random_walk_spec(rng, a_margin_from_p=0.05)
        report = s_index_exact(w, ProductMeasure.uniform())
        total = sum(c.winding * c.measure for c in report.per_cell)
        assert abs(report.numeric - total) < 1e-12


def test_exact_range_bound_and_dyadic_group():
    rng = np.random.default_rng(77)
    for _ in range(20):
        w = random_walk_spec(rng, a_margin_from_p=0.05)
        report = s_index_exact(w, ProductMeasure.uniform())
        assert -1.0 <= report.numeric <= 1.0
        assert report.exact is not None  # uniform pairing stays dyadic
        assert float(report.exact) == report.numeric


def test_refinement_invariance():
    w = level2_walk()
    report = s_index_exact(w, ProductMeasure.uniform())
    refined_cells = refine_partition([Cylinder(p) for p, _ in w.cells], 4)
    coeffs = dict(w.cells)
    refined = WalkSpec.make(w.p, w.q,
                            [(c.prefix, coeffs[anc.prefix]) for c, anc in refined_cells])
    refined_report = s_index_exact(refined, ProductMeasure.uniform())
    assert refined_report.exact == report.exact

    third = ProductMeasure.bernoulli(1 / 3)
    assert (s_index_exact(refined, third).numeric
            == pytest.approx(s_index_exact(w, third).numeric, abs=1e-12))


def test_degenerate_cell_aborts_with_name():
    w = WalkSpec.make(0.5, np.sqrt(0.75), [("0", sphere_coeff(0.5)),
                                           ("1", sphere_coeff(-0.9))])
    with pytest.raises(SymbolSingularError) as err:
        s_index_exact(w, ProductMeasure.uniform())
    assert err.value.cell == "0"
    with pytest.raises(SymbolSingularError):
        s_index_montecarlo(w, ProductMeasure.uniform(), 10, seed=0)


def test_mc_constant_walk_is_exact():
    w = WalkSpec.make(0.0, 1.0, [("", sphere_coeff(0.9))])
    report = s_index_montecarlo(w, ProductMeasure.uniform(), 1000, seed=0)
    assert report.numeric == 1.0
    assert report.mc_stderr == 0.0
    assert report.samples == 1000


def test_mc_deterministic_for_seed():
    w = level2_walk()
    a = s_index_montecarlo(w, ProductMeasure.uniform(), 500, seed=9)
    b = s_index_montecarlo(w, ProductMeasure.uniform(), 500, seed=9)
    assert a.to_json() == b.to_json()
    c = s_index_montecarlo(w, ProductMeasure.uniform(), 500, seed=10)
    assert c.to_json() != a.to_json()


def comb_walk(level):
    """Cells "1", "01", ..., "0" * (level - 1) + "1" and "0" * level."""
    prefixes = ["0" * k + "1" for k in range(level)] + ["0" * level]
    a_values = [0.9, 0.1, -0.8]
    return WalkSpec.make(0.3, np.sqrt(0.91), [
        (prefix, sphere_coeff(a_values[i % 3], 0.7 * i)) for i, prefix in enumerate(prefixes)])


MEASURES = [ProductMeasure.uniform(), ProductMeasure.bernoulli(0.3)]


def random_code(rng, family: str, depth: int) -> list[str]:
    """A complete prefix code no deeper than ``depth``: a comb along a random
    path of that depth, every string of that depth, or random splits of
    random cells, which leave a lopsided code."""
    if family == "comb":
        path = "".join(rng.choice(["0", "1"], size=depth))
        return [path[:k] + "10"[int(path[k])] for k in range(depth)] + [path]
    if family == "balanced":
        return [format(i, f"0{depth}b") for i in range(1 << depth)]
    return random_partition(rng, depth, splits=3 * depth)


def code_walk(rng, prefixes: list[str]) -> WalkSpec:
    return WalkSpec.make(0.3, np.sqrt(0.91), [
        (prefix, sphere_coeff(float(rng.choice([0.9, 0.1, -0.8])), float(rng.uniform(0, 6.3))))
        for prefix in prefixes])


# (code family, depth, samples, decoded in blocks of five uniforms)
CODE_CASES = [("comb", 1, 1, False), ("balanced", 1, 2, True), ("split", 2, 37, False),
              ("comb", 4, 1000, True), ("balanced", 4, 20000, False), ("split", 5, 2, True),
              ("comb", 7, 37, False), ("balanced", 7, 1000, True), ("split", 8, 20000, False),
              ("comb", 10, 20000, False), ("balanced", 10, 1000, False),
              ("split", 10, 1000, True)]


@pytest.mark.parametrize("m", MEASURES, ids=lambda m: m.kind)
def test_mc_matches_scalar_reference_on_random_walks(m, monkeypatch):
    import chiralwalk.index as index_module
    rng = np.random.default_rng(808)
    for trial in range(12):
        w = random_walk_spec(rng, max_level=int(rng.integers(1, 7)), a_margin_from_p=0.05)
        samples = int(rng.choice([1, 2, 37, 1000]))
        seed = int(rng.integers(0, 2 ** 31))
        assert (s_index_montecarlo(w, m, samples, seed=seed).to_json()
                == reference_montecarlo(w, m, samples, seed=seed).to_json()), trial
    # random complete prefix codes of depths 1-10, some decoded in blocks of
    # five uniforms, across whose ends most points run
    block = index_module.MC_BLOCK
    for family, depth, samples, tiny_blocks in CODE_CASES:
        w = code_walk(rng, random_code(rng, family, depth))
        seed = int(rng.integers(0, 2 ** 31))
        monkeypatch.setattr(index_module, "MC_BLOCK", 5 if tiny_blocks else block)
        assert (s_index_montecarlo(w, m, samples, seed=seed).to_json()
                == reference_montecarlo(w, m, samples, seed=seed).to_json()), (family, depth)


def test_mc_decode_makes_no_sorted_search(monkeypatch):
    # the trie decode walks the code bit by bit; it never looks a code up
    # among the sorted cell prefixes
    def refuse(*args, **kwargs):
        raise AssertionError("a sorted search in the Monte Carlo decode")

    cases = [(w, m, reference_montecarlo(w, m, 700, seed=5).to_json())
             for w in (level2_walk(), comb_walk(40)) for m in MEASURES]
    monkeypatch.setattr(np, "searchsorted", refuse)
    for w, m, want in cases:
        assert s_index_montecarlo(w, m, 700, seed=5).to_json() == want


@pytest.mark.parametrize("m", [ProductMeasure.uniform(), ProductMeasure.bernoulli(0.9)],
                         ids=lambda m: m.kind)
def test_mc_matches_scalar_reference_on_level40_comb(m):
    w = comb_walk(40)
    for samples, seed in [(1, 3), (2500, 17)]:
        assert (s_index_montecarlo(w, m, samples, seed=seed).to_json()
                == reference_montecarlo(w, m, samples, seed=seed).to_json())


def test_mc_block_boundaries_keep_the_stream(monkeypatch):
    # tiny blocks: most points straddle a block boundary and are decoded again
    # after the next draw
    import chiralwalk.index as index_module
    monkeypatch.setattr(index_module, "MC_BLOCK", 5)
    for w in (level2_walk(), comb_walk(40)):
        for m in MEASURES:
            assert (s_index_montecarlo(w, m, 700, seed=5).to_json()
                    == reference_montecarlo(w, m, 700, seed=5).to_json())


def test_mc_decode_memory_stays_bounded_on_a_deep_comb():
    # the trie decode holds one node per start of a block, whatever the
    # depth: a block of MC_BLOCK uniforms peaks near 5 MB at level 2000,
    # where one L-byte code per start would hold 33 MB
    w = comb_walk(2000)
    tracemalloc.start()
    try:
        s_index_montecarlo(w, ProductMeasure.uniform(), 20_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


def test_mc_within_three_stderr_battery():
    # fixed battery over 100 seeds on two walks; at most 1 excursion beyond
    # three standard errors
    walks = [level2_walk(), two_cell_walk()]
    measures = [ProductMeasure.uniform(), ProductMeasure.bernoulli(1 / 3)]
    failures = 0
    runs = 0
    for w, m in zip(walks, measures):
        exact = s_index_exact(w, m).numeric
        for seed in range(50):
            mc = s_index_montecarlo(w, m, 1000, seed=seed)
            runs += 1
            if abs(mc.numeric - exact) > 3 * mc.mc_stderr:
                failures += 1
    assert runs == 100
    assert failures <= 1


def test_mc_empirical_frequencies():
    w = two_cell_walk()
    report = s_index_montecarlo(w, ProductMeasure.bernoulli(1 / 3), 3000, seed=4)
    freq = {c.prefix: c.measure for c in report.per_cell}
    assert freq["0"] == pytest.approx(1 / 3, abs=0.03)
    assert freq["0"] + freq["1"] == pytest.approx(1.0)
    counts = report.classification_counts
    assert counts["plus"] + counts["zero"] + counts["minus"] == 3000


def test_report_json_roundtrip():
    import json
    report = s_index_exact(level2_walk(), ProductMeasure.uniform())
    doc = json.loads(report.to_json())
    assert doc["exact"] == {"num": 1, "exp": 2}
    assert doc["numeric"] == 0.25
    assert len(doc["per_cell"]) == 4
