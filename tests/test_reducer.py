import math
import pickle
import threading

import numpy as np
import pytest

from rtmcloud.blobstore import BlobNotFoundError, ImageBlob, encode_image
from rtmcloud import reducer
from rtmcloud.msgqueue import FileQueue, QueueMessage
from rtmcloud.reducer import (
    IncompleteReductionError,
    LeafOvercountError,
    ReductionConfig,
    reduce_step,
    run_reduction_service,
)


def leaf_blob(values, leaf_count=1, dz=1.0, dx=1.0):
    values = np.asarray(values, dtype=float)
    return ImageBlob("image", values.shape[0], values.shape[1], dz, dx, 0.0, 0.0,
                     leaf_count, values)


def put_leaf(store, values, leaf_count=1, **kw):
    blob_id = store.put(encode_image(leaf_blob(values, leaf_count, **kw)))
    return QueueMessage(blob_id=blob_id, leaf_count=leaf_count)


class TestReduceStep:
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_messages_rejected(self, store, n):
        msgs = [put_leaf(store, np.ones((2, 2)), leaf_count=5)][:n]
        files_before = sum(1 for p in store.root.rglob("*") if p.is_file())
        with pytest.raises(ValueError, match="at least two messages"):
            reduce_step(msgs, store)
        assert sum(1 for p in store.root.rglob("*") if p.is_file()) == files_before

    def test_hand_computed_sum(self, store):
        m1 = put_leaf(store, [[1.0, 2.0], [3.0, 4.0]], leaf_count=1)
        m2 = put_leaf(store, [[10.0, 20.0], [30.0, 40.0]], leaf_count=3)
        out = reduce_step([m1, m2], store)
        assert out.leaf_count == 4
        summed = store.get_image(out.blob_id)
        np.testing.assert_array_equal(summed.values, [[11.0, 22.0], [33.0, 44.0]])

    def test_ten_zero_images(self, store):
        msgs = [put_leaf(store, np.zeros((3, 3))) for _ in range(10)]
        out = reduce_step(msgs, store)
        assert out.leaf_count == 10
        assert (store.get_image(out.blob_id).values == 0).all()

    def test_dimension_mismatch_rejected(self, store):
        m1 = put_leaf(store, np.zeros((2, 2)))
        m2 = put_leaf(store, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            reduce_step([m1, m2], store)

    def test_grid_spacing_mismatch_rejected(self, store):
        m1 = put_leaf(store, np.zeros((2, 2)), dz=1.0)
        m2 = put_leaf(store, np.zeros((2, 2)), dz=2.0)
        with pytest.raises(ValueError):
            reduce_step([m1, m2], store)

    def test_missing_blob_propagates(self, store):
        m1 = put_leaf(store, np.zeros((2, 2)))
        ghost = QueueMessage(blob_id="0" * 64, leaf_count=1)
        with pytest.raises(BlobNotFoundError):
            reduce_step([m1, ghost], store)


def enqueue_leaves(queue, store, images):
    for img in images:
        queue.enqueue(put_leaf(store, img))


def service_config(total, **kw):
    defaults = dict(
        total_leaves=total,
        fan_in=10,
        poll_interval=0.01,
        max_parallel_invocations=1,
        visibility_seconds=30.0,
        deadline_seconds=60.0,
    )
    defaults.update(kw)
    return ReductionConfig(**defaults)


class TestReductionService:
    def test_single_leaf_is_final_without_summing(self, queue, store):
        enqueue_leaves(queue, store, [np.full((4, 4), 2.5)])
        report = run_reduction_service(service_config(1), queue, store)
        assert report.invocation_count == 0
        final = store.get_image(report.final_blob_id)
        assert final.leaf_count == 1
        np.testing.assert_array_equal(final.values, np.full((4, 4), 2.5))

    def test_ten_at_once_single_invocation(self, queue, store):
        rng = np.random.default_rng(0)
        images = [rng.uniform(0.1, 1.0, (8, 8)) for _ in range(10)]
        enqueue_leaves(queue, store, images)
        report = run_reduction_service(service_config(10), queue, store)
        assert report.invocation_count == 1
        final = store.get_image(report.final_blob_id)
        assert final.leaf_count == 10
        np.testing.assert_allclose(final.values, np.sum(images, axis=0), rtol=1e-12)

    @pytest.mark.parametrize("n_leaves", [12, 37, 100])
    def test_sequential_invocation_count(self, queue, store, n_leaves):
        rng = np.random.default_rng(n_leaves)
        images = [rng.uniform(0.1, 1.0, (8, 8)) for _ in range(n_leaves)]
        enqueue_leaves(queue, store, images)
        report = run_reduction_service(service_config(n_leaves), queue, store)
        assert report.invocation_count == math.ceil((n_leaves - 1) / 9)
        final = store.get_image(report.final_blob_id)
        assert final.leaf_count == n_leaves
        np.testing.assert_allclose(final.values, np.sum(images, axis=0), rtol=1e-12)

    def test_parallel_invocations_correct_sum(self, queue, store):
        rng = np.random.default_rng(99)
        images = [rng.uniform(0.1, 1.0, (16, 16)) for _ in range(37)]
        enqueue_leaves(queue, store, images)
        report = run_reduction_service(
            service_config(37, max_parallel_invocations=4), queue, store
        )
        final = store.get_image(report.final_blob_id)
        assert final.leaf_count == 37
        np.testing.assert_allclose(final.values, np.sum(images, axis=0), rtol=1e-12)

    def test_leaf_conservation_in_logs(self, queue, store):
        rng = np.random.default_rng(5)
        images = [rng.uniform(0.1, 1.0, (4, 4)) for _ in range(25)]
        enqueue_leaves(queue, store, images)
        report = run_reduction_service(service_config(25), queue, store)
        for inv in report.invocations:
            assert inv["output"] == sum(inv["inputs"])

    def test_overcount_fails_loudly(self, queue, store):
        queue.enqueue(put_leaf(store, np.zeros((2, 2)), leaf_count=4))
        with pytest.raises(LeafOvercountError):
            run_reduction_service(service_config(3), queue, store)

    def test_timeout_reports_leaf_tally(self, queue, store):
        enqueue_leaves(queue, store, [np.zeros((2, 2)), np.zeros((2, 2))])
        cfg = service_config(5, deadline_seconds=0.6)
        with pytest.raises(IncompleteReductionError) as err:
            run_reduction_service(cfg, queue, store)
        assert err.value.leaf_tally == 2  # the two leaves were merged

    def test_incomplete_error_pickles_with_tally(self):
        # the error crosses a pipe from the reduction process to the driver
        err = pickle.loads(pickle.dumps(IncompleteReductionError("x", 3)))
        assert type(err) is IncompleteReductionError
        assert (str(err), err.leaf_tally) == ("x", 3)

    def test_stop_event_aborts_early(self, queue, store):
        stop = threading.Event()
        stop.set()
        cfg = service_config(5, deadline_seconds=30.0)
        with pytest.raises(IncompleteReductionError):
            run_reduction_service(cfg, queue, store, stop_event=stop)

    @pytest.mark.parametrize("stop", ["deadline", "stop_event"])
    def test_unmerged_messages_visible_after_exit(self, queue, store, stop):
        # An invocation that stops must not leave what it claimed invisible
        # for the visibility window: a reducer started next must find it.
        enqueue_leaves(queue, store, [np.ones((2, 2)), np.ones((2, 2))])
        stop_event = threading.Event()
        if stop == "deadline":
            cfg = service_config(5, max_parallel_invocations=2, deadline_seconds=1.0)
        else:
            cfg = service_config(5, max_parallel_invocations=2, deadline_seconds=30.0)
            threading.Timer(0.5, stop_event.set).start()
        with pytest.raises(IncompleteReductionError) as err:
            run_reduction_service(cfg, queue, store, stop_event=stop_event)
        assert err.value.leaf_tally == 2
        assert list(queue.inflight_dir.iterdir()) == []
        ((partial, _),) = queue.dequeue(10, visibility_timeout=30)
        assert partial.leaf_count == 2
        np.testing.assert_array_equal(store.get_image(partial.blob_id).values, np.full((2, 2), 2.0))

    def test_claimed_messages_visible_after_error(self, queue, store, monkeypatch):
        enqueue_leaves(queue, store, [np.ones((2, 2)), np.ones((2, 2))])

        def failing_step(messages, store):
            raise OSError("blob store unavailable")

        monkeypatch.setattr(reducer, "reduce_step", failing_step)
        with pytest.raises(OSError):
            run_reduction_service(service_config(5), queue, store)
        assert list(queue.inflight_dir.iterdir()) == []
        assert [m.leaf_count for m, _ in queue.dequeue(10, visibility_timeout=30)] == [1, 1]

    def test_lone_message_never_copied(self, queue, store, monkeypatch):
        # Leaves arriving one by one leave lone messages for two invocations
        # to hand back.  A hand-back that enqueued a copy before deleting the
        # original would put two copies on the queue for a moment; the only
        # enqueues a reducer makes must be its partial sums.
        reducer_enqueues = []
        enqueue = queue.enqueue

        def counted_enqueue(msg):
            reducer_enqueues.append(msg)
            enqueue(msg)

        monkeypatch.setattr(queue, "enqueue", counted_enqueue)
        producer = FileQueue(queue.root)
        rng = np.random.default_rng(17)
        images = [rng.uniform(0.1, 1.0, (4, 4)) for _ in range(6)]
        cfg = service_config(6, max_parallel_invocations=2)
        result = {}

        def _serve():
            result["report"] = run_reduction_service(cfg, queue, store)

        t = threading.Thread(target=_serve)
        t.start()
        for img in images:
            producer.enqueue(put_leaf(store, img))
            threading.Event().wait(0.2)
        t.join(timeout=30)
        assert not t.is_alive()
        assert len(reducer_enqueues) == result["report"].invocation_count
        final = store.get_image(result["report"].final_blob_id)
        assert final.leaf_count == 6
        np.testing.assert_allclose(final.values, np.sum(images, axis=0), rtol=1e-12)

    def test_trickling_arrivals_complete(self, queue, store):
        rng = np.random.default_rng(11)
        images = [rng.uniform(0.1, 1.0, (4, 4)) for _ in range(9)]
        cfg = service_config(9, max_parallel_invocations=2)
        result = {}

        def _serve():
            result["report"] = run_reduction_service(cfg, queue, store)

        t = threading.Thread(target=_serve)
        t.start()
        for img in images:
            queue.enqueue(put_leaf(store, img))
            threading.Event().wait(0.03)
        t.join(timeout=30)
        assert not t.is_alive()
        final = store.get_image(result["report"].final_blob_id)
        assert final.leaf_count == 9
        np.testing.assert_allclose(final.values, np.sum(images, axis=0), rtol=1e-12)

    def test_crash_between_put_and_enqueue_recovers(self, queue, store):
        # An invocation stores its partial sum, then dies before enqueueing
        # the output or deleting its inputs.  The inputs redeliver after the
        # visibility timeout; recomputing puts bitwise-identical bytes under
        # the same content hash, so the final sum stays correct.
        rng = np.random.default_rng(13)
        images = [rng.uniform(0.1, 1.0, (4, 4)) for _ in range(3)]
        enqueue_leaves(queue, store, images)
        claimed = queue.dequeue(2, visibility_timeout=0.2)
        reduce_step([m for m, _ in claimed], store)  # put happens, then "crash"
        threading.Event().wait(0.3)  # let the claims expire
        report = run_reduction_service(service_config(3), queue, store)
        final = store.get_image(report.final_blob_id)
        assert final.leaf_count == 3
        np.testing.assert_allclose(final.values, np.sum(images, axis=0), rtol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="^total_leaves must be"):
            ReductionConfig(total_leaves=0)
        with pytest.raises(ValueError, match="^fan_in must be"):
            ReductionConfig(total_leaves=1, fan_in=1)
        with pytest.raises(ValueError, match="^fan_in must be"):
            ReductionConfig(total_leaves=1, fan_in=40)
        with pytest.raises(ValueError, match="^max_parallel_invocations must be"):
            ReductionConfig(total_leaves=1, max_parallel_invocations=0)
