"""Bounded-heap proof: on the disk backend, per-message corpus state
stays off the Python heap.

The disk backend exists so that what grows with the corpus — each
message's encoded ID row (and never its email or token set) — lives in
SQLite and file-backed mmap instead of private heap.  A message handle
itself costs about a hundred bytes; everything else on the heap is
bounded or grows with the vocabulary, not the message count.

So the property is stated on the disk backend alone: play one tick
and five ticks of the same stream (a 3,840- and a 16,000-message
corpus), each leg in its own interpreter under ``tracemalloc``, and
compare the two legs' peak traced heap.  The ticks are the same size
in both legs, so a tick's transient working set cancels out and the
difference is what the extra 12,160 messages leave on the heap.
Growing the corpus about fourfold may raise the peak by at most
:data:`MAX_GROWTH_RATIO` of the one-tick leg's peak.  Keeping each
message's row in RAM (about 750 bytes a message) already breaks that
bound; keeping emails or token sets breaks it by a wide margin.

``tracemalloc`` counts Python allocations only (objects, ``array``
and NumPy buffers), which is the heap the property is about: SQLite's
page cache and the mmap'd count columns are deliberately outside it.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.storage import STORE_DIR_ENV, STORE_ENV

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")

# Heap growth from the one-tick to the five-tick leg, as a fraction of
# the one-tick leg's peak.  Measured on a 2-core x86-64 Linux VM:
# 16.2 -> 23.2 MiB (0.44) on the nd kernel, 16.2 -> 22.7 MiB (0.40)
# on the pure one.
MAX_GROWTH_RATIO = 0.6

# Ticks of (1520 ham + 1520 spam) arrivals + 800 held-out messages, the
# held-out set evaluated every tick.  5 ticks: a 16,000-message corpus
# and 19,200 messages processed; 1 tick: 3,840 of each.
_STREAM_SCRIPT = """
import sys
import tracemalloc
from repro.stream.runner import StreamRunner
from repro.stream.spec import StreamSpec

spec = StreamSpec(
    ticks=int(sys.argv[1]), ham_per_tick=1520, spam_per_tick=1520,
    attack_start_tick=3, attack_per_tick=0, test_size=800, seed=1,
)
tracemalloc.start()
result = StreamRunner(spec).run()
peak = tracemalloc.get_traced_memory()[1]
# No attack mail and no clean twin: each tick ingests its arrivals and
# scores the held-out set once.
per_tick = spec.ham_per_tick + spec.spam_per_tick + spec.test_size
print(f"OK messages={len(result.ticks) * per_tick} heap_peak={peak}")
"""

_REPORT = re.compile(r"OK messages=(\d+) heap_peak=(\d+)")


def _start_leg(ticks: int, store_dir: Path) -> subprocess.Popen:
    """Start the disk-backend stream for ``ticks`` ticks."""
    env = os.environ.copy()
    env[STORE_ENV] = "disk"
    env[STORE_DIR_ENV] = str(store_dir)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-c", _STREAM_SCRIPT, str(ticks)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _finish_leg(leg: subprocess.Popen) -> tuple[int, int]:
    """Wait for a leg; return (messages processed, peak heap bytes)."""
    stdout, stderr = leg.communicate(timeout=600)
    assert leg.returncode == 0, stderr
    match = _REPORT.search(stdout)
    assert match, stdout
    return int(match.group(1)), int(match.group(2))


@pytest.mark.slow
class TestBoundedHeap:
    def test_disk_heap_does_not_grow_with_the_corpus(self, tmp_path):
        # The two legs are independent interpreters: run them side by side.
        small, large = _start_leg(1, tmp_path), _start_leg(5, tmp_path)
        small_messages, small_peak = _finish_leg(small)
        messages, large_peak = _finish_leg(large)
        assert small_messages == 3_840
        assert messages >= 16_000, "the stream must process >=16,000 messages"
        # Each leg's interpreter cleaned up its store directory.
        assert not list(tmp_path.glob("repro_store_*"))

        growth = (large_peak - small_peak) / small_peak
        assert growth <= MAX_GROWTH_RATIO, (
            f"disk heap peak grew by {growth:.0%} of the one-tick peak "
            f"({small_peak / 2**20:.1f} -> {large_peak / 2**20:.1f} MiB): "
            "per-message state is on the heap"
        )
