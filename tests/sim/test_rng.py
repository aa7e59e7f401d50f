"""Unit tests for named random streams."""

from repro.sim.rng import RandomStreams


def test_same_name_returns_same_stream_object():
    streams = RandomStreams(1)
    assert streams.stream("net") is streams.stream("net")


def test_streams_are_deterministic_across_instances():
    a = RandomStreams(7).stream("workload")
    b = RandomStreams(7).stream("workload")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_give_independent_sequences():
    streams = RandomStreams(7)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_seeds_differ():
    a = RandomStreams(1).stream("x").random()
    b = RandomStreams(2).stream("x").random()
    assert a != b


def test_adding_a_consumer_does_not_perturb_others():
    """The point of named streams: draws are stable under new consumers."""
    first = RandomStreams(3)
    baseline = [first.stream("net").random() for _ in range(3)]

    second = RandomStreams(3)
    second.stream("brand-new-consumer").random()  # extra consumer
    perturbed = [second.stream("net").random() for _ in range(3)]
    assert baseline == perturbed
