"""Generator determinism: the seed is the only input."""

from bench.streams import ResponseStream, stream_sha256


def _first(seed, responses=10_000, **kwargs):
    stream = ResponseStream(seed, **kwargs)
    arrivals = []
    while len(arrivals) < responses:
        arrivals.extend(stream.take(500))
    return arrivals[:responses]


def test_same_seed_same_first_10k_responses_and_sha():
    first, second = _first(15), _first(15)
    assert [(t, s, repr(r), r.entry) for t, s, r in first] == \
           [(t, s, repr(r), r.entry) for t, s, r in second]
    assert stream_sha256(first) == stream_sha256(second)


def test_development_and_held_out_seeds_differ():
    assert stream_sha256(_first(15)) != stream_sha256(_first(16))


def test_arrival_order_and_refill_size_independence():
    whole = ResponseStream(15, corrupt_rate=0.1, silent_rate=0.05)
    pieces = ResponseStream(15, corrupt_rate=0.1, silent_rate=0.05)
    one = whole.take(3000) + whole.flush()
    many = []
    for step in (1, 999, 1500, 500):
        many.extend(pieces.take(step))
    many.extend(pieces.flush())
    times = [t for t, _, _ in one]
    assert times == sorted(times)
    assert stream_sha256(one) == stream_sha256(many)
    assert whole.corrupted == pieces.corrupted
    assert whole.silent == pieces.silent


def test_ground_truth_matches_the_responses():
    stream = ResponseStream(15, k=6, corrupt_rate=0.1, silent_rate=0.05)
    arrivals = stream.take(2000) + stream.flush()
    per_trigger = {}
    for _, _, response in arrivals:
        per_trigger.setdefault(response.trigger_id[1], []).append(response)
    assert len(per_trigger) == 2000
    assert stream.corrupted and stream.silent
    assert not stream.corrupted & stream.silent
    for index, responses in per_trigger.items():
        expected = 12 if index in stream.silent else 14
        assert len(responses) == expected
        relays = {r.entry for r in responses if r.kind.value == "cache"}
        assert (len(relays) == 2) == (index in stream.corrupted)
