"""Determinism and distribution contracts for the keyed PRNG streams."""

import numpy as np
import pytest

from fairlens.rand import Stream


def key(stream):
    """The Philox key a stream was started with."""
    return stream._bg.state["state"]["key"].tolist()


def test_same_ids_same_stream():
    a = Stream("compas", 3, "fold", 1).raw(32)
    b = Stream("compas", 3, "fold", 1).raw(32)
    assert np.array_equal(a, b)


def test_different_ids_diverge():
    seen = set()
    for ids in [("a",), ("b",), ("a", 0), ("a", 1), (0, "a"), ("a0",)]:
        seen.add(tuple(Stream(*ids).raw(4).tolist()))
    assert len(seen) == 6


def test_key_type_tags_prevent_collision():
    # int 1 and string "1" must key different streams
    assert key(Stream(1)) != key(Stream("1"))


def test_rejects_unknown_id_type():
    with pytest.raises(TypeError):
        Stream(1.5)


def test_randbelow_bounds_and_coverage():
    s = Stream("rb")
    draws = [s.randbelow(7) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 6
    assert set(draws) == set(range(7))


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        Stream("rb").randbelow(0)


def test_randint_inclusive_endpoints():
    s = Stream("ri")
    draws = {s.randint(3, 5) for _ in range(500)}
    assert draws == {3, 4, 5}


def test_uniform_range_and_mean():
    s = Stream("u")
    u = np.array([s.uniform() for _ in range(20000)])
    assert float(u.min()) >= 0.0 and float(u.max()) < 1.0
    assert abs(float(u.mean()) - 0.5) < 0.01


def test_uniform_interval_scaling():
    s = Stream("u2")
    u = np.array([s.uniform(0.1, 10.0) for _ in range(5000)])
    assert float(u.min()) >= 0.1 and float(u.max()) < 10.0


def test_normal_moments():
    z = Stream("n").normal(size=40000)
    assert abs(float(z.mean())) < 0.03
    assert abs(float(z.std()) - 1.0) < 0.03


def test_shuffle_is_permutation_and_deterministic():
    items1 = list(range(50))
    items2 = list(range(50))
    Stream("sh", 0).shuffle(items1)
    Stream("sh", 0).shuffle(items2)
    assert items1 == items2
    assert sorted(items1) == list(range(50))
    assert items1 != list(range(50))  # astronomically unlikely to be identity


def test_permutation_covers_range():
    p = Stream("perm").permutation(64)
    assert sorted(p.tolist()) == list(range(64))


def _fresh(prefix):
    """Stream("blk"), after an optional first draw."""
    s = Stream("blk")
    if prefix == "raw":
        s.raw(5)
    elif prefix == "randbelow":
        s.randbelow(7)  # fills the 64-word buffer of _next_word
        assert len(s._buf) == 63
    return s


@pytest.mark.parametrize("prefix", ["none", "raw", "randbelow"])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 17])
@pytest.mark.parametrize("count", [1, 7, 64, 200])
def test_permutations_equal_successive_permutation_calls(prefix, n, count):
    block = _fresh(prefix).permutations(count, n)
    one = _fresh(prefix)
    rows = [one.permutation(n) for _ in range(count)]
    assert block.shape == (count, n)
    assert np.array_equal(block.astype(np.int64).view(np.int64),
                          np.array(rows).astype(np.int64).view(np.int64))


def test_permutations_continue_the_stream():
    a, b = Stream("blk", 1), Stream("blk", 1)
    a.permutations(3, 5)
    for _ in range(3):
        b.permutation(5)
    assert np.array_equal(a.raw(4), b.raw(4))


def test_choice_indices_in_range():
    idx = Stream("ci").choice_indices(1000, 17)
    assert idx.min() >= 0 and idx.max() < 17
    assert idx.shape == (1000,)


@pytest.mark.parametrize("parent, more, again", [
    (("rf", 3), ("tree", 7), ("node", 0)),
    (("hypers", "knn", 0), (12,), ("é", -5, "")),
    ((), ("a",), (2**63 - 1,)),
    ((0,), (), ("x", 1)),
])
def test_child_is_the_stream_of_the_joined_ids(parent, more, again):
    # a child folds only its own ids into its parent's, and a child of a
    # child does too; the keys and streams are those of the joined ids
    child = Stream(*parent).child(*more)
    grandchild = child.child(*again)
    for got, ids in ((child, parent + more),
                     (grandchild, parent + more + again)):
        want = Stream(*ids)
        assert got.ids == ids
        assert key(got) == key(want)
        assert np.array_equal(got.raw(16), want.raw(16))
