"""File-backed message queue with visibility timeouts.

Emulates cloud queue storage semantics on a local directory: at-least-once
delivery, per-message visibility windows, no ordering guarantee.  A message
is one JSON file; claiming it is an atomic rename from ``visible/`` to
``inflight/``, so any number of producer and consumer processes can share a
queue directory without a server or locks.
"""

from __future__ import annotations

import json
import os
import secrets
import tempfile
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

MAX_DEQUEUE_BATCH = 32


class StaleReceiptError(RuntimeError):
    """The visibility window expired and the message was redelivered."""


@dataclass(frozen=True)
class QueueMessage:
    blob_id: str
    leaf_count: int
    enqueue_time: str = ""

    def __post_init__(self):
        if self.leaf_count < 1:
            raise ValueError("leaf_count must be >= 1")

    def to_json(self) -> str:
        return json.dumps(
            {
                "blob_id": self.blob_id,
                "leaf_count": self.leaf_count,
                "enqueue_time": self.enqueue_time,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "QueueMessage":
        obj = json.loads(text)
        return cls(obj["blob_id"], obj["leaf_count"], obj.get("enqueue_time", ""))


@dataclass(frozen=True)
class Receipt:
    """Claim on a dequeued message: its name and where it sits in ``inflight/``."""

    name: str
    inflight_path: Path


def _utcnow_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


class FileQueue:
    """Queue rooted at a local directory (``visible/`` + ``inflight/``)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.visible_dir = self.root / "visible"
        self.inflight_dir = self.root / "inflight"
        self.visible_dir.mkdir(parents=True, exist_ok=True)
        self.inflight_dir.mkdir(parents=True, exist_ok=True)

    def enqueue(self, msg: QueueMessage) -> None:
        if not msg.enqueue_time:
            msg = QueueMessage(msg.blob_id, msg.leaf_count, _utcnow_iso())
        name = f"{time.time_ns():020d}-{os.getpid()}-{secrets.token_hex(4)}"
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".enq-")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(msg.to_json() + "\n")
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.visible_dir / name)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _reclaim_expired(self) -> None:
        now = time.time_ns()
        for entry in self._list(self.inflight_dir):
            name, _, rest = entry.partition("@")
            deadline_txt = rest.split(".", 1)[0]
            try:
                deadline = int(deadline_txt)
            except ValueError:
                continue
            if deadline <= now:
                # Lost race with delete() or another reclaimer is fine.
                self.release(Receipt(name, self.inflight_dir / entry))

    @staticmethod
    def _list(path: Path) -> list[str]:
        try:
            return sorted(os.listdir(path))
        except FileNotFoundError:
            return []

    def dequeue(
        self, max_messages: int, visibility_timeout: float
    ) -> list[tuple[QueueMessage, Receipt]]:
        """Claim up to ``max_messages`` visible messages for ``visibility_timeout`` seconds.

        Claimed messages become invisible to other consumers; if not deleted
        before the deadline they return to the visible set (at-least-once).
        """
        if not 1 <= max_messages <= MAX_DEQUEUE_BATCH:
            raise ValueError(f"max_messages must be in [1, {MAX_DEQUEUE_BATCH}]")
        if visibility_timeout <= 0:
            raise ValueError("visibility_timeout must be positive")
        self._reclaim_expired()
        claimed: list[tuple[QueueMessage, Receipt]] = []
        for name in self._list(self.visible_dir):
            if len(claimed) >= max_messages:
                break
            deadline_ns = time.time_ns() + int(visibility_timeout * 1e9)
            target = self.inflight_dir / f"{name}@{deadline_ns}.{secrets.token_hex(4)}"
            try:
                os.replace(self.visible_dir / name, target)
            except FileNotFoundError:
                continue  # another consumer won the claim
            msg = QueueMessage.from_json(target.read_text())
            claimed.append((msg, Receipt(name, target)))
        return claimed

    def delete(self, receipt: Receipt) -> None:
        """Remove a claimed message permanently.

        Raises StaleReceiptError if the visibility window expired and the
        message is back in circulation; deleting an already-deleted message
        is a no-op.
        """
        try:
            os.unlink(receipt.inflight_path)
            return
        except FileNotFoundError:
            pass
        if (self.visible_dir / receipt.name).exists():
            raise StaleReceiptError(receipt.name)
        prefix = receipt.name + "@"
        if any(entry.startswith(prefix) for entry in self._list(self.inflight_dir)):
            raise StaleReceiptError(receipt.name)
        # Fully gone: a competing delete won; treat as success.

    def release(self, receipt: Receipt) -> None:
        """Make a claimed message visible again at once (visibility timeout 0).

        A receipt whose window expired (the message was reclaimed, perhaps
        claimed again) or whose message was deleted names no file any more,
        so releasing it does nothing: a message never comes back twice.
        """
        try:
            os.replace(receipt.inflight_path, self.visible_dir / receipt.name)
        except FileNotFoundError:
            pass

    def approximate_count(self) -> int:
        """Visible plus in-flight messages; may lag under concurrency."""
        return len(self._list(self.visible_dir)) + len(self._list(self.inflight_dir))
