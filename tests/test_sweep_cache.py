"""Resumable result cache: robustness, resume, and concurrency contracts.

The cache's promise is *never stale, never fatal*: any defective entry —
truncated, bit-flipped, written by a different code version, half-visible
from a concurrent writer — must read as a miss that silently re-executes,
and a resumed sweep must merge cached and fresh payloads bit-identically
to an uninterrupted serial run, at every jobs count and backend.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.framework.campaign import FaultCampaignSpec
from repro.parallel import (
    CACHE_SALT,
    ResultCache,
    RunSpec,
    SweepExecutor,
    run_specs,
    spec_key,
)

NODES, TASKS = 10, 40


def campaign(partial=True, seed=3, tasks=TASKS):
    return FaultCampaignSpec(
        nodes=NODES, configs=8, tasks=tasks, partial=partial, seed=seed
    )


def spec_list(backend=None, count=4):
    """Distinct digest-collecting specs: both modes x consecutive seeds."""
    return [
        RunSpec(
            campaign=campaign(partial=(i % 2 == 0), seed=3 + i // 2),
            backend=backend,
            collect_digest=True,
        )
        for i in range(count)
    ]


def payload_essence(payloads):
    """The bit-identity fingerprint: order, report, digest, final time."""
    return [(p.index, p.report, p.digest, p.final_time) for p in payloads]


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------


def test_spec_key_is_content_addressed() -> None:
    a = spec_list()[0]
    assert spec_key(a) == spec_key(a)
    # Any spec field participates: campaign knobs, backend, collection.
    assert spec_key(a) != spec_key(replace(a, backend="scan"))
    assert spec_key(a) != spec_key(replace(a, collect_digest=False))
    assert spec_key(a) != spec_key(
        replace(a, campaign=replace(a.campaign, seed=99))
    )
    # Version skew: a different code salt addresses a different entry.
    assert spec_key(a) != spec_key(a, salt=CACHE_SALT + "-next")


# ---------------------------------------------------------------------------
# roundtrip and resume
# ---------------------------------------------------------------------------


def test_roundtrip_store_then_load(tmp_path) -> None:
    cache = ResultCache(tmp_path)
    specs = spec_list()
    cold = run_specs(specs, jobs=1, cache=cache)
    assert cache.stats.misses == len(specs)
    assert cache.stats.stored == len(specs)
    cache.reset_stats()
    warm = run_specs(specs, jobs=1, cache=cache)
    assert cache.stats.hits == len(specs)
    assert cache.stats.misses == 0 and cache.stats.stored == 0
    assert payload_essence(warm) == payload_essence(cold)


def test_load_at_rekeys_to_submission_index(tmp_path) -> None:
    cache = ResultCache(tmp_path)
    specs = spec_list()
    run_specs(specs, jobs=1, cache=cache)
    # The same entry serves the spec at any position in any later sweep.
    hit = cache.load_at(7, specs[0])
    assert hit is not None and hit.index == 7


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("backend", ["array", "scan"])
def test_interrupted_sweep_resumes_bit_identical(tmp_path, jobs, backend) -> None:
    """A cache holding only a prefix of the sweep (the on-disk state an
    interrupted run leaves behind) merges with the re-executed remainder
    into exactly the uncached serial payloads."""
    specs = spec_list(backend=backend, count=6)
    reference = run_specs(specs, jobs=1)
    cache = ResultCache(tmp_path)
    run_specs(specs[:3], jobs=1, cache=cache)  # the "killed" sweep's progress
    cache.reset_stats()
    resumed = run_specs(specs, jobs=jobs, cache=cache)
    assert cache.stats.hits == 3
    assert cache.stats.misses == 3
    assert payload_essence(resumed) == payload_essence(reference)


def test_editing_one_arm_reexecutes_only_that_arm(tmp_path) -> None:
    """The edit-one-arm recipe: changing a single spec's knobs leaves every
    other entry valid, so the re-sweep executes exactly one spec."""
    cache = ResultCache(tmp_path)
    specs = spec_list()
    run_specs(specs, jobs=1, cache=cache)
    edited = list(specs)
    edited[2] = replace(specs[2], campaign=replace(specs[2].campaign, seed=77))
    cache.reset_stats()
    payloads = run_specs(edited, jobs=1, cache=cache)
    assert cache.stats.hits == 3 and cache.stats.misses == 1
    assert payload_essence(payloads) == payload_essence(run_specs(edited, jobs=1))


# ---------------------------------------------------------------------------
# corruption: every defect is a silent miss, never a crash or a stale hit
# ---------------------------------------------------------------------------


def _single_entry(cache: ResultCache, spec: RunSpec) -> Path:
    run_specs([spec], jobs=1, cache=cache)
    path = cache.path_for(cache.key(spec))
    assert path.exists()
    return path


def test_truncated_entry_is_a_miss_and_reexecutes(tmp_path) -> None:
    cache = ResultCache(tmp_path)
    spec = spec_list()[0]
    path = _single_entry(cache, spec)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    cache.reset_stats()
    payloads = run_specs([spec], jobs=1, cache=cache)
    assert cache.stats.hits == 0
    assert cache.stats.misses == 1 and cache.stats.invalid == 1
    assert cache.stats.stored == 1  # repaired in place
    assert payload_essence(payloads) == payload_essence(run_specs([spec], jobs=1))


def test_flipped_payload_byte_is_a_miss(tmp_path) -> None:
    cache = ResultCache(tmp_path)
    spec = spec_list()[0]
    path = _single_entry(cache, spec)
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0xFF  # corrupt the pickled body, not the header
    path.write_bytes(bytes(raw))
    cache.reset_stats()
    payloads = run_specs([spec], jobs=1, cache=cache)
    assert cache.stats.invalid == 1 and cache.stats.hits == 0
    assert payload_essence(payloads) == payload_essence(run_specs([spec], jobs=1))


def test_header_garbage_is_a_miss(tmp_path) -> None:
    cache = ResultCache(tmp_path)
    spec = spec_list()[0]
    path = _single_entry(cache, spec)
    path.write_bytes(b"not json at all\n\x00\x01\x02")
    cache.reset_stats()
    assert cache.load(spec) is None
    assert cache.stats.invalid == 1
    assert not path.exists()  # defective entry dropped


def test_version_skew_salt_change_reexecutes(tmp_path) -> None:
    """Entries written under an older code-version salt must never serve a
    newer sweep: the key differs, so the lookup is a clean miss."""
    spec = spec_list()[0]
    old = ResultCache(tmp_path, salt="dreamsim-sweep-cache-v0")
    run_specs([spec], jobs=1, cache=old)
    new = ResultCache(tmp_path)
    payloads = run_specs([spec], jobs=1, cache=new)
    assert new.stats.hits == 0 and new.stats.misses == 1
    assert payload_essence(payloads) == payload_essence(run_specs([spec], jobs=1))


def _legacy_key(spec: RunSpec) -> str:
    """The key older builds derived: their canonical doc also carried the
    retired ``indexed`` manager switch (and ``backend=None`` meant it)."""
    doc = {
        "salt": CACHE_SALT,
        "campaign": asdict(spec.campaign),
        "indexed": True,
        "backend": None,
        "collect_digest": spec.collect_digest,
        "collect_events": spec.collect_events,
        "collect_monitor": spec.collect_monitor,
    }
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode("utf-8"), digest_size=16).hexdigest()


def test_entries_keyed_with_the_retired_indexed_field_are_clean_misses(
    tmp_path,
) -> None:
    """A cache directory filled by a build that still had the ``indexed``
    backend serves nothing to this one: the default-backend spec derives a
    different key, so the lookup is a plain miss (not an invalid entry) and
    the run re-executes."""
    cache = ResultCache(tmp_path)
    spec = spec_list()[0]
    path = _single_entry(cache, spec)
    legacy = cache.path_for(_legacy_key(spec))
    assert legacy != path
    legacy.parent.mkdir(parents=True, exist_ok=True)
    path.rename(legacy)
    cache.reset_stats()
    payloads = run_specs([spec], jobs=1, cache=cache)
    assert cache.stats.hits == 0
    assert cache.stats.misses == 1 and cache.stats.invalid == 0
    assert legacy.exists()  # foreign entries are left alone, never unlinked
    assert payload_essence(payloads) == payload_essence(run_specs([spec], jobs=1))


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------


def test_concurrent_sweeps_share_one_cache_dir(tmp_path) -> None:
    """Two sweeps racing over the same directory both finish correct —
    entries publish atomically, so a reader sees a whole entry or none."""
    specs = spec_list()
    reference = payload_essence(run_specs(specs, jobs=1))
    outcomes: dict[int, object] = {}

    def sweep(slot: int) -> None:
        try:
            cache = ResultCache(tmp_path)
            outcomes[slot] = payload_essence(run_specs(specs, jobs=1, cache=cache))
        except Exception as exc:  # pragma: no cover — the assert below reports
            outcomes[slot] = exc

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert outcomes[0] == reference
    assert outcomes[1] == reference


def test_mid_sweep_kill_then_resume(tmp_path) -> None:
    """A real SIGKILL mid-sweep: the dead sweep's completed specs are on
    disk, and the resumed run serves them as hits while re-executing the
    rest, landing byte-identical to an uninterrupted serial run."""
    cache_dir = tmp_path / "cache"
    script = (
        "import sys\n"
        "sys.path.insert(0, 'src')\n"
        "from tests.test_sweep_cache import spec_list\n"
        "from repro.parallel import ResultCache, run_specs\n"
        f"run_specs(spec_list(count=8), jobs=1, cache=ResultCache({str(cache_dir)!r}))\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        cwd=str(Path(__file__).resolve().parent.parent),
        env={**os.environ, "PYTHONPATH": "src:."},
    )
    # Kill as soon as some (but not all) entries are published.
    deadline = time.time() + 60
    while time.time() < deadline:
        entries = list(cache_dir.glob("*/[!.]*.payload"))
        if entries:
            break
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    specs = spec_list(count=8)
    # Published entries only: a kill between mkstemp and the rename leaves a
    # ``.tmp-*.payload`` behind, which pathlib's ``*`` would also match.
    surviving = len(list(cache_dir.glob("*/[!.]*.payload")))
    cache = ResultCache(cache_dir)
    resumed = run_specs(specs, jobs=1, cache=cache)
    assert cache.stats.hits == surviving
    if surviving < len(specs):
        assert cache.stats.misses == len(specs) - surviving
    assert payload_essence(resumed) == payload_essence(run_specs(specs, jobs=1))


# ---------------------------------------------------------------------------
# executor integration
# ---------------------------------------------------------------------------


def test_executor_reports_cache_stats_line(tmp_path) -> None:
    messages: list[str] = []
    cache = ResultCache(tmp_path)
    specs = spec_list()
    SweepExecutor(jobs=1, cache=cache, on_message=messages.append).run(specs)
    SweepExecutor(jobs=1, cache=cache, on_message=messages.append).run(specs)
    cache_lines = [m for m in messages if m.startswith("sweep cache:")]
    assert cache_lines == [
        "sweep cache: 0 hit(s), 4 miss(es), 4 stored",
        "sweep cache: 4 hit(s), 0 miss(es), 0 stored",
    ]


def test_pool_sweep_stores_incrementally_for_resume(tmp_path) -> None:
    """Under a pool the parent persists each chunk's payloads as the chunk
    completes — so a killed parallel sweep also leaves resumable state."""
    cache = ResultCache(tmp_path)
    specs = spec_list(count=6)
    parallel = run_specs(specs, jobs=2, cache=cache)
    assert cache.stats.stored == len(specs)
    cache.reset_stats()
    warm = run_specs(specs, jobs=2, cache=cache)
    assert cache.stats.hits == len(specs)
    assert payload_essence(warm) == payload_essence(parallel)
    assert payload_essence(warm) == payload_essence(run_specs(specs, jobs=1))
