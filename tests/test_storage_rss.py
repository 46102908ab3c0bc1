"""Bounded-RSS proof: the disk backend streams a corpus in a fraction
of the resident memory the in-memory backend needs.

The whole point of ``REPRO_STORE=disk`` is that corpus and vocabulary
state spills to SQLite and file-backed mmap instead of private heap.
Both legs play the *same* stream, each uncapped in its own
interpreter, and each reports its peak resident set (``VmHWM`` from
``/proc/<pid>/status``, read by the leg itself just before it exits).
The disk leg's peak must sit well below the memory leg's.

Resident memory is what the property is about, so that is what is
measured: an ``RLIMIT_DATA`` cap would bound virtual size instead,
where malloc arenas and thread stacks decide the outcome.

The stream processes at least 16,000 messages (arrivals plus
held-out evaluations), big enough that the corpus, not interpreter
start-up, sets both peaks.
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

# The disk leg must peak below this fraction of the memory leg's peak.
# Measured on a 2-core x86-64 Linux VM: 83 MiB (disk) vs 261 MiB
# (memory), a ratio of 0.32.
MAX_PEAK_RATIO = 0.6

# 5 ticks x (1520 ham + 1520 spam) arrivals + 800 held-out messages
# evaluated per tick: 19,200 messages processed, 16,000-message corpus.
_STREAM_SCRIPT = """
import os
from repro.stream.runner import StreamRunner
from repro.stream.spec import StreamSpec

spec = StreamSpec(
    ticks=5, ham_per_tick=1520, spam_per_tick=1520,
    attack_start_tick=3, attack_per_tick=0, test_size=800, seed=1,
)
result = StreamRunner(spec).run()
with open(f"/proc/{os.getpid()}/status", encoding="ascii") as status:
    hwm_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(f"OK messages={result.messages_processed()} hwm_kib={hwm_kib}")
"""

_REPORT = re.compile(r"OK messages=(\d+) hwm_kib=(\d+)")


def _run_leg(store: str, store_dir: Path) -> tuple[int, int]:
    """Play the stream on one backend; return (messages, peak KiB)."""
    env = os.environ.copy()
    env[STORE_ENV] = store
    env[STORE_DIR_ENV] = str(store_dir)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    leg = subprocess.run(
        [sys.executable, "-c", _STREAM_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=False,
        timeout=600,
    )
    assert leg.returncode == 0, leg.stderr
    match = _REPORT.search(leg.stdout)
    assert match, leg.stdout
    return int(match.group(1)), int(match.group(2))


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
class TestBoundedRss:
    def test_disk_backend_peaks_well_below_memory_backend(self, tmp_path):
        messages, disk_kib = _run_leg("disk", tmp_path)
        assert messages >= 16_000, "the stream must process >=16,000 messages"
        # The leg's interpreter cleaned up its store directory.
        assert not list(tmp_path.glob("repro_store_*"))

        memory_messages, memory_kib = _run_leg("memory", tmp_path)
        assert memory_messages == messages
        assert disk_kib < MAX_PEAK_RATIO * memory_kib, (
            f"disk peak {disk_kib / 1024:.0f} MiB is not well below "
            f"memory peak {memory_kib / 1024:.0f} MiB"
        )

