from fractions import Fraction

import numpy as np
import pytest

from treeshell.tree import generation_start, label_axes, label_path

from oracles import TreeIndex, path_of_point, point_path


def test_parent_drops_last_label():
    j = TreeIndex.from_labels([1, 3, 2], 4)
    assert j.parent().labels == (1, 3)
    assert TreeIndex.from_labels([5], 8).parent().is_root


def test_parent_of_root_is_a_domain_error():
    with pytest.raises(ValueError):
        TreeIndex.root(2).parent()


def test_parent_decreases_generation_and_is_prefix():
    j = TreeIndex.from_labels([2, 1, 2, 2], 2)
    p = j.parent()
    assert p.generation == j.generation - 1
    assert p.is_prefix_of(j) and not j.is_prefix_of(p)


@pytest.mark.parametrize("arity", [2, 8])
def test_offspring(arity):
    root = TreeIndex.root(arity)
    kids = root.offspring()
    assert len(kids) == arity
    assert [k.labels for k in kids] == [(lab,) for lab in range(1, arity + 1)]
    j = TreeIndex.from_labels([2], 2)
    assert [k.labels for k in j.offspring()] == [(2, 1), (2, 2)]
    assert all(k.parent() == j for k in j.offspring())


def test_cube_of_root_is_unit_cube():
    c = TreeIndex.root(8).cube()
    assert c.origin == (0, 0, 0)
    assert c.side == 1
    assert c.volume == 1


def test_cube_side_and_volume_at_generation_three():
    j = TreeIndex.from_labels([3, 7, 2], 8)
    c = j.cube()
    assert c.side == Fraction(1, 8)
    assert c.volume == Fraction(1, 2**9)


def test_self_similar_labeling():
    # child 1 of child 1 keeps the origin of child 1, in any dimension
    for d in (1, 2, 3):
        one = TreeIndex.from_labels([1], 2**d).cube()
        oneone = TreeIndex.from_labels([1, 1], 2**d).cube()
        assert oneone.origin == one.origin
    # homothety consistency: cube(jk) has origin cube(j).origin + side_j * cube(k).origin
    j = TreeIndex.from_labels([2, 3], 4)
    k = TreeIndex.from_labels([4, 1], 4)
    cj, ck, cjk = j.cube(), k.cube(), j.append(k).cube()
    assert cjk.side == cj.side * ck.side
    assert all(ojk == oj + cj.side * ok
               for ojk, oj, ok in zip(cjk.origin, cj.origin, ck.origin))


def test_children_tile_parent_exactly():
    j = TreeIndex.from_labels([2], 4)
    kids = [k.cube() for k in j.offspring()]
    assert sum(c.volume for c in kids) == j.cube().volume
    origins = {c.origin for c in kids}
    assert len(origins) == 4


def test_generation_volumes_sum_to_one_exactly():
    for d, n in [(1, 6), (2, 4), (3, 3)]:
        total = sum(TreeIndex(2**d, n, code).cube().volume
                    for code in range((2**d) ** n))
        assert total == 1


def test_path_of_point_binary_expansion():
    # 0.3 = 0.0100... in binary: first digit 0 -> label 1, second 1 -> label 2
    assert path_of_point([0.3], 2, 1).labels == (1, 2)


def test_path_of_point_center_recovers_node(rng):
    for _ in range(20):
        d = int(rng.choice([1, 2, 3]))
        n = int(rng.integers(1, 6))
        j = TreeIndex(2**d, n, int(rng.integers(0, (2**d) ** n)))
        assert path_of_point(j.cube().center(), n, d) == j


def test_path_of_point_origin_is_all_ones():
    assert path_of_point([0.0, 0.0, 0.0], 4, 3).labels == (1, 1, 1, 1)


def test_path_extension_property(rng):
    for _ in range(50):
        d = int(rng.choice([1, 2]))
        x = rng.uniform(0, 1, size=d)
        n = int(rng.integers(1, 10))
        shorter = path_of_point(x, n, d)
        longer = path_of_point(x, n + 1, d)
        assert shorter.is_prefix_of(longer)


def test_point_path_iterator_matches_path_of_point():
    x = [0.7243, 0.11]
    it = point_path(x, 2)
    nodes = [next(it) for _ in range(5)]
    assert nodes[0].is_root
    for n, node in enumerate(nodes):
        assert node == path_of_point(x, n, 2)


def test_prefix_chain_is_unique_and_complete(rng):
    j = TreeIndex(4, 7, int(rng.integers(0, 4**7)))
    chain = list(j.ancestors())
    assert len(chain) == 8
    assert chain[0].is_root and chain[-1] == j
    for a, b in zip(chain, chain[1:]):
        assert b.parent() == a


def test_packed_code_is_generation_rank():
    # enumeration order by code agrees with lexicographic label order
    labels = [(1, 1), (1, 2), (2, 1), (2, 2)]
    codes = [TreeIndex.from_labels(lab, 2).code for lab in labels]
    assert codes == [0, 1, 2, 3]


@pytest.mark.parametrize("arity, depth", [(2, 6), (4, 4), (8, 3)])
def test_heap_index_covers_the_layout_once(arity, depth):
    size = generation_start(arity, depth + 1)
    index = [generation_start(arity, g) + code
             for g in range(depth + 1) for code in range(arity**g)]
    assert index == list(range(size))  # each index once, generation-major
    # the parent of heap index i >= 1 is (i - 1) // N
    for g in range(1, depth + 1):
        for code in range(arity**g):
            i = generation_start(arity, g) + code
            assert (i - 1) // arity == (generation_start(arity, g - 1)
                                        + code // arity)


@pytest.mark.parametrize("arity", [2, 8])
def test_generation_start_rejects_a_negative_generation(arity):
    assert generation_start(arity, 0) == 0
    for g in (-1, -2):
        with pytest.raises(ValueError, match="generation"):
            generation_start(arity, g)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_label_axes_follows_the_cube_origins(dim):
    N = 2**dim
    arranged = label_axes(np.arange(1, N + 1), dim)
    assert arranged.shape == (2,) * dim
    for label in range(1, N + 1):
        origin = TreeIndex.from_labels([label], N).cube().origin
        assert arranged[tuple(int(2 * o) for o in origin)] == label


def test_point_outside_cube_rejected():
    with pytest.raises(ValueError):
        path_of_point([1.0], 3, 1)
    with pytest.raises(ValueError):
        path_of_point([-0.1, 0.5], 3, 2)


def test_point_of_wrong_dimension_rejected():
    with pytest.raises(ValueError):
        next(point_path([0.3, 0.4, 0.9], 2))
    with pytest.raises(ValueError):
        path_of_point([0.3, 0.4, 0.9], 2, 2)


def test_bad_labels_rejected():
    with pytest.raises(ValueError):
        TreeIndex.from_labels([0], 2)
    with pytest.raises(ValueError):
        TreeIndex.from_labels([3], 2)
    with pytest.raises(ValueError):
        TreeIndex(3, 1, 0)  # arity not a power of two


@pytest.mark.parametrize("d", [1, 2, 3])
def test_label_path_is_the_oracle_path(rng, d):
    # binary digit n of coordinate a is bit a of the generation-n label;
    # past a double's 53 significant bits the digits are zeros
    points = [rng.random(d).tolist() for _ in range(10)]
    points += [[0.0] * d, [1.0 - 2.0**-53] * d]
    for x in points:
        for n in (1, 2, 17, 53, 54, 60):
            want = path_of_point(x, n, d).labels
            assert label_path(x, n).tolist() == list(want)
