"""Exchange fabrics: every implementation honors one barrier contract."""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.sharding.exchange import (
    InProcessExchange,
    PipeExchange,
    ShardExchangeAborted,
    ShardExchangeTimeout,
    SpoolExchange,
)


def _payload(value):
    return {"data": np.asarray([value, value + 1]), "scalar": np.int64(value)}


@pytest.fixture(params=["inprocess", "spool"])
def fabric(request, tmp_path):
    if request.param == "inprocess":
        return InProcessExchange(shards=3, timeout=5.0)
    return SpoolExchange(tmp_path / "spool", shards=3, timeout=5.0)


def test_post_then_collect_round_trips(fabric):
    fabric.post(0, 1, src=1, dst=0, payload=_payload(10))
    fabric.post(0, 1, src=2, dst=0, payload=_payload(20))
    got = fabric.collect(0, 1, dst=0, srcs=[1, 2])
    assert sorted(got) == [1, 2]
    np.testing.assert_array_equal(got[1]["data"], [10, 11])
    assert int(got[2]["scalar"]) == 20


def test_empty_payload_still_completes_barrier(fabric):
    fabric.post(3, 2, src=1, dst=0, payload={})
    got = fabric.collect(3, 2, dst=0, srcs=[1])
    assert got[1] == {}


def test_collect_times_out_on_missing_peer(tmp_path):
    for fabric in (
        InProcessExchange(shards=2, timeout=0.1),
        SpoolExchange(tmp_path / "s", shards=2, timeout=0.1, poll=0.01),
    ):
        with pytest.raises(ShardExchangeTimeout):
            fabric.collect(0, 1, dst=0, srcs=[1])


def test_collect_blocks_until_peer_posts():
    fabric = InProcessExchange(shards=2, timeout=5.0)
    result = {}

    def consumer():
        result.update(fabric.collect(0, 1, dst=0, srcs=[1]))

    thread = threading.Thread(target=consumer)
    thread.start()
    fabric.post(0, 1, src=1, dst=0, payload=_payload(7))
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    np.testing.assert_array_equal(result[1]["data"], [7, 8])


def test_abort_fails_pending_collect():
    fabric = InProcessExchange(shards=2, timeout=5.0)
    errors = []

    def consumer():
        try:
            fabric.collect(0, 1, dst=0, srcs=[1])
        except ShardExchangeAborted as exc:
            errors.append(exc)

    thread = threading.Thread(target=consumer)
    thread.start()
    fabric.abort("peer shard 1 died")
    thread.join(timeout=5.0)
    assert errors and "peer shard 1 died" in str(errors[0])


def test_abort_spares_a_leg_that_is_already_complete():
    """A peer that posted its last payload and hung up is done, not dead."""
    fabric = InProcessExchange(shards=2, timeout=5.0)
    fabric.post(0, 3, src=1, dst=0, payload=_payload(4))
    fabric.abort("shard 1 hung up")
    got = fabric.collect(0, 3, dst=0, srcs=[1])
    np.testing.assert_array_equal(got[1]["data"], [4, 5])
    with pytest.raises(ShardExchangeAborted, match="shard 1 hung up"):
        fabric.collect(1, 1, dst=0, srcs=[1])


def _pipe_end(me, conn, done):
    """Post 2 MB at the peer, then collect the peer's 2 MB, same leg."""
    peer = 1 - me
    fabric = PipeExchange(2, me, {peer: conn})
    fabric.post(0, 1, me, peer, {"data": np.full(250_000, me, dtype=np.int64)})
    got = fabric.collect(0, 1, me, [peer])
    done.send(int(got[peer]["data"].sum()))


def test_pipe_ends_posting_at_each_other_do_not_deadlock():
    """Both posts exceed the 64 kB pipe buffer: without the reader
    threads each ``send`` waits for a ``recv`` that never comes."""
    ctx = multiprocessing.get_context()
    ends = ctx.Pipe()
    reports = [ctx.Pipe(duplex=False) for _ in range(2)]
    procs = [
        ctx.Process(target=_pipe_end, args=(me, ends[me], reports[me][1]),
                    daemon=True)
        for me in range(2)
    ]
    try:
        for proc in procs:
            proc.start()
        for me, (receiver, _) in enumerate(reports):
            assert receiver.poll(5.0), f"shard {me} is stuck"
            assert receiver.recv() == 250_000 * (1 - me)
    finally:
        for proc in procs:
            proc.terminate()
            proc.join(5.0)
    assert not any(proc.is_alive() for proc in procs)


def test_pipe_peer_hanging_up_aborts_post_and_collect():
    mine, theirs = multiprocessing.Pipe()
    fabric = PipeExchange(2, 0, {1: mine})
    theirs.send((0, 1, _payload(3)))
    theirs.close()
    got = fabric.collect(0, 1, 0, [1])  # what arrived before EOF counts
    assert int(got[1]["scalar"]) == 3
    with pytest.raises(ShardExchangeAborted, match="shard 1 hung up"):
        fabric.collect(0, 2, 0, [1])
    with pytest.raises(ShardExchangeAborted, match="shard 1 hung up"):
        fabric.post(0, 2, 0, 1, {"data": np.zeros(1_000_000)})


def test_pipe_peer_that_finished_early_does_not_abort_the_others():
    """Three shards: shard 1 posts its last status and exits while
    shard 2 is still on its way; the leg must wait for shard 2."""
    early_mine, early = multiprocessing.Pipe()
    late_mine, late = multiprocessing.Pipe()
    fabric = PipeExchange(3, 0, {1: early_mine, 2: late_mine})
    early.send((0, 3, _payload(1)))
    early.close()
    with pytest.raises(ShardExchangeAborted):  # shard 1's EOF has landed
        fabric.collect(1, 1, 0, [1])
    timer = threading.Timer(0.05, late.send, [(0, 3, _payload(2))])
    timer.start()
    got = fabric.collect(0, 3, 0, [1, 2])
    timer.join()
    assert [int(got[src]["scalar"]) for src in (1, 2)] == [1, 2]


def test_spool_posts_are_idempotent(tmp_path):
    fabric = SpoolExchange(tmp_path / "spool", shards=2, timeout=5.0)
    fabric.post(0, 1, src=1, dst=0, payload=_payload(1))
    # a replaying worker re-posts the (deterministic) payload; the
    # original file must win untouched
    fabric.post(0, 1, src=1, dst=0, payload=_payload(999))
    got = fabric.collect(0, 1, dst=0, srcs=[1])
    np.testing.assert_array_equal(got[1]["data"], [1, 2])


def test_spool_collect_is_rereadable(tmp_path):
    """Files persist: a respawned worker can re-collect history."""
    fabric = SpoolExchange(tmp_path / "spool", shards=2, timeout=5.0)
    fabric.post(0, 1, src=1, dst=0, payload=_payload(5))
    first = fabric.collect(0, 1, dst=0, srcs=[1])
    second = fabric.collect(0, 1, dst=0, srcs=[1])
    np.testing.assert_array_equal(first[1]["data"], second[1]["data"])
