"""Event-driven recursive image summation.

Invocations pull up to ``fan_in`` image references from the queue, sum the
referenced grids, store the partial sum, and enqueue its reference; the
recursion ends when a message's leaf_count reaches the expected shot count.
Each message carries the number of original per-shot leaves merged into its
blob, so no global coordinator is needed for termination.

The rule, applied on every poll with no state kept between polls: claim up to
``fan_in`` messages; a message holding every leaf ends the run, two or more
are summed at once, and a lone one is released straight back to the queue.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .blobstore import KIND_IMAGE, BlobStore, encode_image
from .config import PipelineConfig
from .msgqueue import FileQueue, QueueMessage


class LeafOvercountError(RuntimeError):
    """A message claims more leaves than the run expects.

    This is how double-summation caused by queue redelivery after a crash
    between enqueue and delete surfaces: loudly, instead of as a silently
    wrong image.
    """


class IncompleteReductionError(TimeoutError):
    """Deadline passed before all leaves were merged."""

    def __init__(self, msg: str, leaf_tally: int):
        super().__init__(msg)
        self.leaf_tally = leaf_tally

    def __reduce__(self):
        # OSError pickles as cls(*args), which would drop leaf_tally; the
        # error crosses a pipe when the service runs in its own process.
        return type(self), (self.args[0], self.leaf_tally)


@dataclass(frozen=True)
class ReductionConfig:
    total_leaves: int
    fan_in: int = 10
    poll_interval: float = 0.05
    max_parallel_invocations: int = 1
    visibility_seconds: float = 120.0
    deadline_seconds: float = 600.0

    def __post_init__(self):
        if not 2 <= self.fan_in <= 32:
            raise ValueError(f"fan_in must be in [2, 32], not {self.fan_in}")
        if self.total_leaves < 1:
            raise ValueError(f"total_leaves must be >= 1, not {self.total_leaves}")
        if self.max_parallel_invocations < 1:
            raise ValueError(
                f"max_parallel_invocations must be >= 1, not {self.max_parallel_invocations}")


def reduction_config(config: PipelineConfig) -> ReductionConfig:
    """Reduction service settings for a pipeline config: one leaf per shot.
    A value out of range raises ValueError naming its config key."""
    try:
        return ReductionConfig(
            total_leaves=config.survey.n_receivers,
            fan_in=config.reduce.fan_in,
            poll_interval=config.reduce.poll_interval,
            max_parallel_invocations=config.reduce.parallel,
            visibility_seconds=config.queue.visibility_seconds,
            deadline_seconds=config.reduce.deadline,
        )
    except ValueError as exc:  # name the config key the field was read from
        field_name, _, rest = str(exc).partition(" ")
        keys = {"fan_in": "reduce.fan_in", "total_leaves": "survey.n_receivers",
                "max_parallel_invocations": "reduce.parallel"}
        raise ValueError(f"{keys[field_name]} {rest}") from None


@dataclass
class ReductionReport:
    invocation_count: int
    final_blob_id: str
    wall_time: float
    invocations: list = field(default_factory=list)  # per-invocation log dicts

    def to_dict(self) -> dict:
        return asdict(self)


def reduce_step(messages: list[QueueMessage], store: BlobStore) -> QueueMessage:
    """Sum the images referenced by two or more ``messages`` into one stored blob."""
    if len(messages) < 2:
        raise ValueError(f"reduce_step needs at least two messages, got {len(messages)}")
    blobs = [store.get_image(m.blob_id) for m in messages]
    meta = blobs[0].grid_meta()
    for b in blobs[1:]:
        if b.grid_meta() != meta:
            raise ValueError(f"grid mismatch across inputs: {b.grid_meta()} vs {meta}")
    total = np.zeros_like(blobs[0].values)
    for b in blobs:
        total += b.values
    leaf_count = sum(m.leaf_count for m in messages)
    out = blobs[0].with_values(total, leaf_count=leaf_count)
    if out.kind != KIND_IMAGE:
        raise ValueError(f"cannot reduce blobs of kind {out.kind!r}")
    blob_id = store.put(encode_image(out))
    return QueueMessage(blob_id=blob_id, leaf_count=leaf_count)


class _ServiceState:
    def __init__(self, stop_event: threading.Event | None = None):
        self.stop = stop_event if stop_event is not None else threading.Event()
        self.lock = threading.Lock()
        self.final: QueueMessage | None = None
        self.invocations: list[dict] = []
        self.error: BaseException | None = None
        self.max_leaf_seen = 0


def _poll(cfg: ReductionConfig, queue: FileQueue, store: BlobStore, state: _ServiceState) -> bool:
    """Claim up to ``fan_in`` messages and act on them; True when it summed.

    Everything this poll claimed is released before it returns or raises
    (a no-op for what it deleted), so an invocation never holds a message
    between polls.
    """
    held = queue.dequeue(cfg.fan_in, cfg.visibility_seconds)
    try:
        for msg, receipt in held:
            state.max_leaf_seen = max(state.max_leaf_seen, msg.leaf_count)
            if msg.leaf_count > cfg.total_leaves:
                raise LeafOvercountError(
                    f"message claims {msg.leaf_count} leaves but only "
                    f"{cfg.total_leaves} exist; a redelivered partial sum "
                    "was merged twice"
                )
            if msg.leaf_count == cfg.total_leaves:
                with state.lock:
                    if state.final is None:
                        state.final = msg
                queue.delete(receipt)
                state.stop.set()
                return False
        if len(held) < 2:
            return False
        msgs = [m for m, _ in held]
        out = reduce_step(msgs, store)
        with state.lock:
            state.invocations.append(
                {
                    "time": time.time(),
                    "inputs": [m.leaf_count for m in msgs],
                    "output": out.leaf_count,
                }
            )
        queue.enqueue(out)
        for _, receipt in held:
            queue.delete(receipt)
        return True
    finally:
        for _, receipt in held:
            queue.release(receipt)


def _worker_loop(cfg: ReductionConfig, queue: FileQueue, store: BlobStore, state: _ServiceState, deadline: float):
    # Unsynchronized jitter keeps parallel invocations from splitting the
    # last two partials between them on every poll in lockstep.
    jitter = random.Random()
    try:
        while not state.stop.is_set() and time.monotonic() <= deadline:
            if not _poll(cfg, queue, store, state):
                state.stop.wait(cfg.poll_interval * jitter.uniform(0.5, 1.5))
    except BaseException as exc:
        with state.lock:
            if state.error is None:
                state.error = exc
        state.stop.set()


def run_reduction_service(
    config: ReductionConfig,
    queue: FileQueue,
    store: BlobStore,
    stop_event: threading.Event | None = None,
) -> ReductionReport:
    """Run reducer invocations until a single all-leaves image remains.

    ``stop_event`` lets a caller abort the service early (e.g. when the map
    phase producing the leaves has failed); the service sets it when it ends.
    """
    start = time.time()
    deadline = time.monotonic() + config.deadline_seconds
    state = _ServiceState(stop_event)
    threads = [
        threading.Thread(
            target=_worker_loop,
            args=(config, queue, store, state, deadline),
            name=f"reducer-{i}",
            daemon=True,
        )
        for i in range(config.max_parallel_invocations)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if state.error is not None:
        raise state.error
    if state.final is None:
        raise IncompleteReductionError(
            f"no complete image after {config.deadline_seconds:g}s; "
            f"largest partial holds {state.max_leaf_seen} of {config.total_leaves} leaves",
            state.max_leaf_seen,
        )
    invocations = sorted(state.invocations, key=lambda e: e["time"])
    return ReductionReport(
        invocation_count=len(invocations),
        final_blob_id=state.final.blob_id,
        wall_time=time.time() - start,
        invocations=invocations,
    )
