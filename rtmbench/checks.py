"""Output checks made apart from the program under test.

Every check here recomputes what the program should have produced from the
benchmark's own inputs, or tests a property the method must have, and raises
``CheckError`` with a message naming what is wrong.  Blobs are parsed from raw
bytes with the byte layout of docs/formats.md, never with the package's codec,
and the cost curve is recomputed without calling the simulator.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import math
import struct
from pathlib import Path

import numpy as np

# docs/formats.md: magic | version u2 | reserved u2 | kind 8s | nz u4 | nx u4
#                  | dz dx oz ox f8 | leaf_count u8, little-endian, 64 bytes
_RTMB_HEADER = struct.Struct("<4sHH8sII4dQ")
# Float reordering between the reducer's tree and a straight numpy sum moves
# the result by a few ulps of the largest partial; a missing or doubled leaf
# moves it by a whole leaf.
SUM_RTOL = 1e-10
FOCUS_CELLS = 3
RATIO_BAND = (1.5, 2.2)


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def parse_rtmb(data: bytes) -> dict:
    """Decode an RTMB blob from raw bytes; reject anything off the layout."""
    if len(data) < _RTMB_HEADER.size:
        raise CheckError(f"RTMB blob of {len(data)} bytes is shorter than its header")
    magic, version, _, kind, nz, nx, dz, dx, oz, ox, leaf_count = _RTMB_HEADER.unpack_from(data)
    if magic != b"RTMB" or version != 1:
        raise CheckError(f"bad RTMB magic/version {magic!r}/{version}")
    if len(data) != _RTMB_HEADER.size + 8 * nz * nx:
        raise CheckError(f"RTMB length {len(data)} does not match {nz}x{nx} payload")
    values = np.frombuffer(data, dtype="<f8", offset=_RTMB_HEADER.size).reshape(nz, nx)
    return {
        "kind": kind.rstrip(b"\0").decode("ascii"),
        "nz": nz, "nx": nx, "dz": dz, "dx": dx, "oz": oz, "ox": ox,
        "leaf_count": leaf_count,
        "values": values,
    }


def read_stored_blob(store_root: Path, blob_id: str) -> dict:
    """Read ``<root>/<id[0:2]>/<id>``, verify its sha256 against the name, parse it."""
    data = (Path(store_root) / blob_id[:2] / blob_id).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != blob_id:
        raise CheckError(f"blob {blob_id[:12]}... hashes to {digest[:12]}...")
    return parse_rtmb(data)


def check_shot_ids(shot_ids: list[int], n_shots: int) -> None:
    """Every shot in 0..n-1 appears in exactly one done trace."""
    seen: dict[int, int] = {}
    for s in shot_ids:
        seen[s] = seen.get(s, 0) + 1
    dup = sorted(s for s, c in seen.items() if c > 1)
    missing = sorted(set(range(n_shots)) - set(seen))
    extra = sorted(set(seen) - set(range(n_shots)))
    if dup or missing or extra:
        raise CheckError(f"shot ids: duplicated {dup}, missing {missing}, unknown {extra}")


def check_leaf_count(blob: dict, expected: int) -> None:
    if blob["kind"] != "image" or blob["leaf_count"] != expected:
        raise CheckError(
            f"final blob is {blob['kind']!r} with leaf_count {blob['leaf_count']}, "
            f"expected image with {expected}"
        )


def check_sum(final: np.ndarray, expected: np.ndarray) -> None:
    """The final image equals the benchmark's own sum of the leaves."""
    if final.shape != expected.shape:
        raise CheckError(f"final image shape {final.shape} != {expected.shape}")
    scale = float(np.abs(expected).max())
    err = float(np.abs(final - expected).max())
    if not err <= SUM_RTOL * scale:
        raise CheckError(f"final image differs from the leaf sum by {err:.3e} (scale {scale:.3e})")


def check_focus(values: np.ndarray, iz: int, ix: int) -> None:
    """The strongest reflector in the image sits on the configured scatterer."""
    pz, px = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
    dist = max(abs(int(pz) - iz), abs(int(px) - ix))
    if dist > FOCUS_CELLS:
        raise CheckError(f"image peak at ({pz},{px}) is {dist} cells from scatterer ({iz},{ix})")


def check_invocations(invocations: int, n_leaves: int, fan_in: int) -> None:
    least = math.ceil((n_leaves - 1) / (fan_in - 1))
    if invocations < least:
        raise CheckError(f"{invocations} summing invocations for {n_leaves} leaves; need >= {least}")


# ---------------------------------------------------------------------------
# cost curve


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def lognormal_runtimes_h(mean_minutes: float, spread: float, seed: int, n: int) -> np.ndarray:
    """Job durations (hours) drawn as docs/formats.md describes.

    PCG64 standard normals, each draw outside |z| <= 3 redrawn in place, then
    scale * exp(spread * z) with scale chosen so the truncated-lognormal mean
    equals the requested mean.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    bad = np.abs(z) > 3.0
    while bad.any():
        z[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(z) > 3.0
    trunc_mean = (
        math.exp(0.5 * spread**2) * (_phi(3.0 - spread) - _phi(-3.0 - spread)) / (_phi(3.0) - _phi(-3.0))
    )
    return (mean_minutes / 60.0 / trunc_mean) * np.exp(spread * z)


def event_list_makespan(durations_h, n_vms: int) -> float:
    """FCFS by simulated events: start head-of-line jobs on idle VMs, then
    jump to the next completion."""
    order = iter(durations_h)
    running: list[float] = []
    now = 0.0
    pending = len(durations_h)
    while pending or running:
        while pending and len(running) < n_vms:
            heapq.heappush(running, now + next(order))
            pending -= 1
        now = heapq.heappop(running)
    return now


def _ceil_seconds(hours: float) -> int:
    return math.ceil(hours * 3600.0 - 1e-9)


def _close_cents(reported: float, expected: float) -> bool:
    # the CSV prints costs to the cent
    return abs(reported - expected) <= 0.005 + 1e-9 * max(1.0, abs(expected))


def check_cost_curve(csv_text: str, durations_h: np.ndarray, rate: float, vm_counts: list[int]) -> dict:
    """Check every row of an idle-cost CSV against the benchmark's own model.

    Returns {"peak_ratio", "rows"} for the caller's records.
    """
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if [int(r["n_vms"]) for r in rows] != list(vm_counts):
        raise CheckError("curve rows do not list the requested cluster sizes in order")
    total = float(durations_h.sum())
    longest = float(durations_h.max())
    batch_cost = sum(_ceil_seconds(d) for d in durations_h.tolist()) / 3600.0 * rate
    durations = durations_h.tolist()
    ratios = []
    for r in rows:
        m = int(r["n_vms"])
        makespan = float(r["makespan_h"])
        lo, hi = max(total / m, longest), total / m + longest
        if not lo - 1e-6 <= makespan <= hi + 1e-6:
            raise CheckError(f"{m} VMs: makespan {makespan} h outside list-scheduling bounds [{lo}, {hi}]")
        exact = event_list_makespan(durations, m)
        if abs(makespan - exact) > 5e-7 + 1e-12 * exact:
            raise CheckError(f"{m} VMs: makespan {makespan} h, event-list FCFS gives {exact} h")
        if not _close_cents(float(r["batch_cost"]), batch_cost):
            raise CheckError(f"{m} VMs: batch_cost {r['batch_cost']} != {batch_cost:.4f}")
        fixed_cost = m * _ceil_seconds(exact) / 3600.0 * rate
        if not _close_cents(float(r["fixed_cost"]), fixed_cost):
            raise CheckError(f"{m} VMs: fixed_cost {r['fixed_cost']} != {fixed_cost:.4f}")
        ratios.append(fixed_cost / batch_cost)
    peak = max(ratios)
    if not RATIO_BAND[0] <= peak <= RATIO_BAND[1]:
        raise CheckError(f"peak fixed/batch ratio {peak:.3f} outside {RATIO_BAND}")
    return {"peak_ratio": peak, "rows": len(rows)}
