"""Unit tests for named RNG streams."""

import pytest

from repro.sim.rng import RngStreams


def test_same_name_same_object():
    streams = RngStreams(42)
    assert streams.stream("a") is streams.stream("a")


def test_streams_reproducible_across_instances():
    a = RngStreams(42).stream("backoff").random(10).tolist()
    b = RngStreams(42).stream("backoff").random(10).tolist()
    assert a == b


def test_different_names_independent():
    streams = RngStreams(42)
    a = streams.stream("a").random(10).tolist()
    b = streams.stream("b").random(10).tolist()
    assert a != b


def test_different_seeds_differ():
    a = RngStreams(1).stream("x").random(10).tolist()
    b = RngStreams(2).stream("x").random(10).tolist()
    assert a != b


def test_creation_order_does_not_matter():
    first = RngStreams(7)
    first.stream("alpha")
    alpha_then_beta = first.stream("beta").random(5).tolist()

    second = RngStreams(7)
    beta_only = second.stream("beta").random(5).tolist()
    assert alpha_then_beta == beta_only


def test_fork_changes_streams():
    base = RngStreams(3)
    forked = base.fork(1)
    assert base.stream("x").random(5).tolist() != forked.stream("x").random(5).tolist()


def test_fork_reproducible():
    a = RngStreams(3).fork(5).stream("x").random(5).tolist()
    b = RngStreams(3).fork(5).stream("x").random(5).tolist()
    assert a == b


def test_non_int_seed_rejected():
    with pytest.raises(TypeError):
        RngStreams("seed")  # type: ignore[arg-type]


def test_stream_many_matches_stream():
    streams = RngStreams(42)
    names = [f"fading.tx{i}.rx{j}" for i in range(4) for j in range(4)]
    scalar = [RngStreams(42).stream(n).random(8).tolist() for n in names]
    batch = [g.random(8).tolist() for g in streams.stream_many(names)]
    assert batch == scalar


def test_stream_many_shares_cache_with_stream():
    streams = RngStreams(7)
    first = streams.stream("fading.a.b")
    (batched,) = streams.stream_many(["fading.a.b"])
    assert batched is first
    (again,) = streams.stream_many(["fading.c.d"])
    assert streams.stream("fading.c.d") is again


def test_stream_many_empty_is_noop():
    assert RngStreams(1).stream_many([]) == []


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover
    given = None

if given is not None:
    @given(
        st.integers(min_value=0, max_value=2**200 + 999),
        st.lists(st.integers(min_value=0, max_value=2**16),
                 min_size=1, max_size=8, unique=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_many_bit_identical_property(root, keys):
        """The vectorised SeedSequence replica must match numpy bit-for-bit
        for arbitrary root entropy (including > 2**128) and spawn keys."""
        names = [f"s{k}" for k in keys]
        scalar = [
            RngStreams(root).stream(n).standard_normal(4).tolist()
            for n in names
        ]
        batch = [
            g.standard_normal(4).tolist()
            for g in RngStreams(root).stream_many(names)
        ]
        assert batch == scalar

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=50),
                      st.integers(min_value=1, max_value=16)),
            max_size=6,
        ),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_late_stream_matches_stream_built_first_property(root, earlier, key):
        """Streams are created on first draw (per-radio bit errors, per-node
        MAC backoff): one fetched after other streams were created and
        drawn from must yield the bits it would have yielded if built first."""
        name = f"late.{key}"
        first = RngStreams(root).stream(name).random(8).tolist()
        streams = RngStreams(root)
        for other_key, draws in earlier:
            if other_key != key:
                streams.stream(f"late.{other_key}").integers(0, 2**20, draws)
        assert streams.stream(name).random(8).tolist() == first
