import math

import pytest
from hypothesis import given, strategies as st

from cascadekit.errors import TooSmallError
from cascadekit.virality import wiener_index_bruteforce, wiener_index_exact

from conftest import path_tree, random_tree, star_tree, tree_from_parents


def star_formula(n):
    """Mean distance in a star of n nodes (one hub, n-1 leaves)."""
    pairs = n * (n - 1) / 2
    return ((n - 1) + 2 * math.comb(n - 1, 2)) / pairs


def test_two_node_path():
    tree = path_tree(1)
    assert wiener_index_exact(tree) == 1.0
    assert wiener_index_bruteforce(tree) == 1.0


def test_star_with_three_leaves():
    tree = star_tree(3)
    assert wiener_index_exact(tree) == 1.5
    assert wiener_index_bruteforce(tree) == 1.5


def test_path_of_four():
    tree = path_tree(3)
    assert wiener_index_exact(tree) == pytest.approx(5 / 3, abs=1e-12)
    assert wiener_index_bruteforce(tree) == pytest.approx(5 / 3, abs=1e-12)


def test_too_small():
    tree = tree_from_parents([])
    with pytest.raises(TooSmallError):
        wiener_index_exact(tree)
    with pytest.raises(TooSmallError):
        wiener_index_bruteforce(tree)


@pytest.mark.parametrize("n", range(2, 51))
def test_closed_forms(n):
    star = star_tree(n - 1)
    path = path_tree(n - 1)
    assert wiener_index_exact(star) == pytest.approx(star_formula(n), rel=1e-12)
    assert wiener_index_exact(path) == pytest.approx((n + 1) / 3, rel=1e-12)


def test_exact_matches_bruteforce_on_random_trees(rng):
    for _ in range(200):
        n = int(rng.integers(2, 120))
        tree = random_tree(rng, n)
        exact = wiener_index_exact(tree)
        brute = wiener_index_bruteforce(tree)
        assert abs(exact - brute) < 1e-9
        assert 1.0 <= exact < n


def test_path_exceeds_star_for_fixed_n():
    for n in range(4, 40):
        assert wiener_index_exact(path_tree(n - 1)) > wiener_index_exact(
            star_tree(n - 1)
        )


def test_single_reshare_value_is_one():
    assert wiener_index_exact(star_tree(1)) == 1.0


@st.composite
def parent_lists(draw):
    """Parent index of each node after the root: any earlier node."""
    n = draw(st.integers(1, 60))
    return [draw(st.integers(0, i)) for i in range(n)]


@given(parent_lists())
def test_exact_equals_bruteforce_on_arbitrary_trees(parents):
    tree = tree_from_parents(parents)
    # Both divide an integer distance total by the pair count, so they agree exactly.
    assert wiener_index_exact(tree) == wiener_index_bruteforce(tree)
