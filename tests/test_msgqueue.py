import json
import multiprocessing as mp
import threading
import time

import pytest

from rtmcloud.msgqueue import FileQueue, QueueMessage, StaleReceiptError


def msg(i: int, leaves: int = 1) -> QueueMessage:
    return QueueMessage(blob_id=f"{i:064x}", leaf_count=leaves)


def test_enqueue_dequeue_roundtrip(queue):
    queue.enqueue(msg(1, leaves=3))
    got = queue.dequeue(1, visibility_timeout=30)
    assert len(got) == 1
    m, receipt = got[0]
    assert m.blob_id == f"{1:064x}"
    assert m.leaf_count == 3
    assert m.enqueue_time  # stamped on enqueue


def test_dequeue_returns_all_available(queue):
    for i in range(3):
        queue.enqueue(msg(i))
    got = queue.dequeue(10, visibility_timeout=30)
    assert {m.blob_id for m, _ in got} == {f"{i:064x}" for i in range(3)}


def test_empty_queue_gives_empty_list(queue):
    assert queue.dequeue(5, visibility_timeout=1) == []


def test_message_payload_is_single_line_json(queue):
    queue.enqueue(msg(7, leaves=2))
    (path,) = list(queue.visible_dir.iterdir())
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    doc = json.loads(text)
    assert set(doc) == {"blob_id", "leaf_count", "enqueue_time"}


def test_redelivery_after_visibility_timeout(queue):
    queue.enqueue(msg(1))
    first = queue.dequeue(1, visibility_timeout=0.2)
    assert len(first) == 1
    assert queue.dequeue(1, visibility_timeout=0.2) == []  # invisible while claimed
    time.sleep(0.3)
    again = queue.dequeue(1, visibility_timeout=30)
    assert len(again) == 1
    assert again[0][0].blob_id == first[0][0].blob_id


def test_delete_prevents_redelivery(queue):
    queue.enqueue(msg(1))
    ((m, receipt),) = queue.dequeue(1, visibility_timeout=0.2)
    queue.delete(receipt)
    time.sleep(0.3)
    assert queue.dequeue(1, visibility_timeout=1) == []
    assert queue.approximate_count() == 0


def test_delete_with_expired_receipt_after_redelivery(queue):
    queue.enqueue(msg(1))
    ((m, receipt),) = queue.dequeue(1, visibility_timeout=0.1)
    time.sleep(0.2)
    ((m2, receipt2),) = queue.dequeue(1, visibility_timeout=30)  # redelivered
    with pytest.raises(StaleReceiptError):
        queue.delete(receipt)
    queue.delete(receipt2)


def test_double_delete_is_safe(queue):
    queue.enqueue(msg(1))
    ((_, receipt),) = queue.dequeue(1, visibility_timeout=30)
    queue.delete(receipt)
    queue.delete(receipt)  # no-op, never corruption
    assert queue.approximate_count() == 0


def test_released_message_dequeued_again_at_once(queue):
    queue.enqueue(msg(1))
    ((m, receipt),) = queue.dequeue(1, visibility_timeout=30)
    queue.release(receipt)
    ((again, _),) = queue.dequeue(1, visibility_timeout=30)
    assert again == m


@pytest.mark.parametrize("redelivered_to", ["visible", "other_consumer"])
def test_release_with_expired_receipt_keeps_one_copy(queue, redelivered_to):
    queue.enqueue(msg(1))
    ((_, stale),) = queue.dequeue(1, visibility_timeout=0.1)
    time.sleep(0.2)
    ((_, fresh),) = queue.dequeue(1, visibility_timeout=30)  # redelivered
    if redelivered_to == "visible":
        queue.release(fresh)
    queue.release(stale)
    assert queue.approximate_count() == 1
    if redelivered_to == "other_consumer":
        assert queue.dequeue(1, visibility_timeout=30) == []  # still claimed
        queue.delete(fresh)
        assert queue.approximate_count() == 0


def test_release_after_delete_is_noop(queue):
    queue.enqueue(msg(1))
    ((_, receipt),) = queue.dequeue(1, visibility_timeout=30)
    queue.delete(receipt)
    queue.release(receipt)
    assert queue.approximate_count() == 0
    assert queue.dequeue(1, visibility_timeout=30) == []


def test_approximate_count_sequence(queue):
    for i in range(5):
        queue.enqueue(msg(i))
    assert queue.approximate_count() == 5
    got = queue.dequeue(2, visibility_timeout=30)
    assert queue.approximate_count() == 5  # claimed messages still counted
    for _, receipt in got:
        queue.delete(receipt)
    assert queue.approximate_count() == 3


def test_dequeue_batch_limits(queue):
    with pytest.raises(ValueError):
        queue.dequeue(0, visibility_timeout=1)
    with pytest.raises(ValueError):
        queue.dequeue(33, visibility_timeout=1)
    with pytest.raises(ValueError):
        queue.dequeue(1, visibility_timeout=0)


def test_leaf_count_validated():
    with pytest.raises(ValueError):
        QueueMessage(blob_id="a" * 64, leaf_count=0)


def test_no_double_claim_within_visibility_window(queue):
    for i in range(10):
        queue.enqueue(msg(i))
    claims: list[set] = [set(), set()]

    def consume(slot):
        got = queue.dequeue(10, visibility_timeout=30)
        claims[slot] = {m.blob_id for m, _ in got}

    threads = [threading.Thread(target=consume, args=(s,)) for s in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert claims[0] & claims[1] == set()
    assert claims[0] | claims[1] == {f"{i:064x}" for i in range(10)}


def _producer(root, worker, count):
    queue = FileQueue(root)
    for i in range(count):
        queue.enqueue(QueueMessage(blob_id=f"{worker:032x}{i:032x}", leaf_count=1))


def _consumer(root, out):
    queue = FileQueue(root)
    seen = []
    idle_since = time.monotonic()
    while time.monotonic() - idle_since < 1.5:
        got = queue.dequeue(10, visibility_timeout=30)
        if got:
            idle_since = time.monotonic()
        for m, receipt in got:
            seen.append(m.blob_id)
            queue.delete(receipt)
        time.sleep(0.01)
    out.put(seen)


def test_concurrent_producers_consumers_no_loss(tmp_path):
    root = str(tmp_path / "queue")
    FileQueue(root)
    ctx = mp.get_context("spawn")
    out = ctx.Queue()
    producers = [ctx.Process(target=_producer, args=(root, w, 25)) for w in range(4)]
    consumers = [ctx.Process(target=_consumer, args=(root, out)) for _ in range(4)]
    for p in producers + consumers:
        p.start()
    consumed = [blob_id for _ in consumers for blob_id in out.get(timeout=120)]
    for p in producers + consumers:
        p.join()
    expected = {f"{w:032x}{i:032x}" for w in range(4) for i in range(25)}
    assert set(consumed) == expected  # every message delivered at least once
    assert len(consumed) == len(expected)  # and, absent crashes, exactly once
    assert FileQueue(root).approximate_count() == 0
