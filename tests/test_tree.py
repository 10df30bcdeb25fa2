import pytest

from chiralwalk.tree import MAX_DEPTH, ROOT, check_vertex, truncated_tree


def test_rejects_non_bits():
    with pytest.raises(ValueError):
        check_vertex("0a1")


@pytest.mark.parametrize("d,size", [(1, 3), (2, 7), (3, 15), (10, 2047)])
def test_vertex_counts(d, size):
    assert truncated_tree(d).size == size


@pytest.mark.parametrize("d", [0, -1, MAX_DEPTH + 1])
def test_depth_out_of_range(d):
    with pytest.raises(ValueError):
        truncated_tree(d)


def test_breadth_first_indexing():
    t = truncated_tree(4)
    assert t.addresses[0] == ROOT
    # breadth-first, lexicographic within a level
    for i, v in enumerate(t.addresses):
        assert (1 << len(v)) - 1 + (int(v, 2) if v else 0) == i
    # depth-k block occupies [2^k - 1, 2^(k+1) - 2]
    for k in range(t.depth + 1):
        block = range((1 << k) - 1, (1 << (k + 1)) - 1)
        assert all(len(t.addresses[i]) == k for i in block)
    # lexicographic within each level
    level2 = [t.addresses[i] for i in range(3, 7)]
    assert level2 == sorted(level2)


def test_parent_index_consistency():
    t = truncated_tree(3)
    for i, v in enumerate(t.addresses):
        if v == ROOT:
            assert t.parent_index[i] == -1
        else:
            assert t.parent_index[i] == (i - 1) // 2
            assert t.addresses[t.parent_index[i]] == v[:-1]

