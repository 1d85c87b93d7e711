"""The suspension queue — Fig. 4's ``SusList``.

When no placement is possible but some *busy* node could eventually host the
task, the scheduler "puts the task in a suspension queue to later re-allocate
it" (§V).  Each time any node finishes a task, the suspension queue is
checked for a suitable waiting task (``RemoveTaskFromSusQueue``).

The queue is FIFO by default.  The reference implementation's
completion-time check is a linear traversal of the queue; its cost — one
search step per record — is what makes the search-effort metrics grow with
queue length (Fig. 9).  This implementation *charges* exactly that traversal
cost but answers the common query ("earliest record whose matched
configuration is one of these") from a per-key index, so wall-clock cost
stays O(1) per lookup while the simulated counters match the reference
traversal.  Callers provide the key function (the scheduler keys records by
matched configuration number).  :meth:`SuspensionQueue.search` keeps the
reference walk itself, predicate by predicate, for the scheduler's
reconfiguration fallback; the array hot loop answers that fallback from
the key index instead, and the backend differentials hold the two to the
same charges.

Records live in parallel columns with free-list slot recycling; the record
handle is the (truthy, ≥ 1) slot integer, so both backends and the array
hot loop (which inlines ``add``/``remove``) share one queue.

Beyond the paper, the queue supports alternative service *disciplines*
(``order=``): ``"sjf"`` serves shortest required time first, ``"area"``
serves largest preferred area first (an anti-starvation rule for big
tasks).  Discipline changes only the order among queued records; all
charging semantics are identical.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Hashable, Iterable, Iterator, Optional

from repro.model.errors import ConfigurationError
from repro.model.task import Task, TaskStatus
from repro.resources.counters import SearchCounters
from repro.resources.invariants import InvariantViolation
from repro.trace.bus import TraceBus
from repro.trace.events import RESUMED, line_encoder

NO_KEY = object()  # index key for records whose key_fn returned None

_RESUMED = line_encoder(RESUMED, "task", "retry")  # trace shape (TraceBus.emit)

_DISCIPLINES: dict[str, Callable[[Task], float]] = {
    "fifo": lambda task: 0.0,  # dreamlint: disable=DL002 (service-order rank keys are floats, never accounted quantities)
    "sjf": lambda task: float(task.required_time),  # dreamlint: disable=DL002 (rank key: exact int-to-float, ordering only)
    "area": lambda task: -float(task.needed_area),  # dreamlint: disable=DL002 (rank key: exact int-to-float, ordering only)
}


class SuspensionQueue:
    """Bounded suspension queue with a per-key secondary index.

    The record handle returned by :meth:`add` (and accepted by
    :meth:`remove`) is the record's *slot number* — a truthy integer ≥ 1
    (slot 0 is reserved), so the scheduler's ``if susqueue.add(...):``
    idiom works; :meth:`task_of` resolves a handle to its task.  Columns:

    * ``_task``  — the suspended task (``None`` marks a free slot);
    * ``_seq_c`` — arrival sequence numbers;
    * ``_key_c`` — the caller's record keys (``NO_KEY`` for ``None``);
    * ``_rank_c`` — service-discipline ranks.

    ``_order`` is the service-order list of ``(rank, seq, slot)`` triples
    (plain-tuple bisect, no record objects), ``_by_key`` the per-key
    secondary index over the same triples, and ``_free`` the recycled-slot
    stack exercised by the property-based fail/repair interleaving tests.
    """

    def __init__(
        self,
        counters: Optional[SearchCounters] = None,
        max_retries: Optional[int] = None,
        max_length: Optional[int] = None,
        key_fn: Optional[Callable[[Task], Hashable]] = None,
        order: str = "fifo",
        trace: Optional[TraceBus] = None,
    ) -> None:
        if order not in _DISCIPLINES:
            raise ValueError(
                f"unknown queue discipline {order!r}; options: {sorted(_DISCIPLINES)}"
            )
        self.counters = counters if counters is not None else SearchCounters()
        self.trace = trace
        self.max_retries = max_retries
        self.max_length = max_length
        self.key_fn = key_fn
        self.order = order
        self._rank_fn = _DISCIPLINES[order]
        self._task: list[Optional[Task]] = [None]  # slot 0 reserved (falsy handle)
        self._seq_c: list[int] = [0]
        self._key_c: list[Hashable] = [None]
        self._rank_c: list[float] = [0.0]  # dreamlint: disable=DL002 (rank keys, ordering only)
        self._free: list[int] = []
        self._order: list[tuple[float, int, int]] = []
        self._by_key: dict[Hashable, list[tuple[float, int, int]]] = {}
        self._seq = 0
        self.total_suspended = 0  # lifetime additions (statistics)

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __bool__(self) -> bool:
        return bool(self._order)

    def __iter__(self) -> Iterator[int]:
        """Yield live record handles (slots) in service order."""
        return (slot for _rank, _seq, slot in list(self._order))

    def __contains__(self, rec: int) -> bool:
        return 0 < rec < len(self._task) and self._task[rec] is not None

    @property
    def head(self) -> Optional[int]:
        return self._order[0][2] if self._order else None

    def task_of(self, rec: int) -> Task:
        """The task held by a live record handle (test/inspection hook)."""
        task = self._task[rec]
        if task is None:
            raise KeyError(f"slot {rec} is free")
        return task

    # -- mutations ---------------------------------------------------------------

    def add(self, task: Task, now: int) -> Optional[int]:
        """``AddTaskToSusQueue``: append unless the queue is full.

        Returns the record's slot handle (truthy int), or ``None`` when
        ``max_length`` would be exceeded (caller discards the task).
        """
        if self.max_length is not None and len(self._order) >= self.max_length:
            # dreamlint: disable=DL011 (full-queue rejection is a constant-time refusal the reference never bills; charging would shift every golden digest)
            return None
        task.mark_suspended(now)
        self._seq += 1
        slot = self._insert(task, self._seq)
        self.counters.housekeeping_steps += 1
        self.total_suspended += 1
        return slot

    def _insert(self, task: Task, seq: int) -> int:
        """File ``task`` under ``seq`` in a slot and both indexes (uncharged)."""
        key = self.key_fn(task) if self.key_fn is not None else None
        if key is None:
            key = NO_KEY
        rank = self._rank_fn(task)
        free = self._free
        if free:
            slot = free.pop()
            self._task[slot] = task
            self._seq_c[slot] = seq
            self._key_c[slot] = key
            self._rank_c[slot] = rank
        else:
            slot = len(self._task)
            self._task.append(task)
            self._seq_c.append(seq)
            self._key_c.append(key)
            self._rank_c.append(rank)
        triple = (rank, seq, slot)
        insort(self._order, triple)
        insort(self._by_key.setdefault(key, []), triple)
        return slot

    def _unlink(self, slot: int) -> Task:
        """Remove a slot from every structure and recycle it (uncharged)."""
        task = self._task[slot]
        if task is None:
            raise KeyError(f"slot {slot} is already free")
        triple = (self._rank_c[slot], self._seq_c[slot], slot)
        order = self._order
        i = bisect_left(order, triple)
        del order[i]
        key = self._key_c[slot]
        bucket = self._by_key[key]
        j = bisect_left(bucket, triple)
        del bucket[j]
        if not bucket:
            del self._by_key[key]
        self._task[slot] = None
        self._key_c[slot] = None
        self._free.append(slot)
        return task

    def remove(self, rec: int) -> Task:
        """``RemoveTaskFromSusQueue``: unlink a record for re-dispatch.

        Increments the task's retry counter.
        """
        task = self._unlink(rec)
        self.counters.housekeeping_steps += 1
        task.sus_retry += 1
        if self.trace is not None:
            self.trace.emit(_RESUMED, task.task_no, task.sus_retry)
        return task

    # -- queries ----------------------------------------------------------------------

    def first_with_key(self, keys: Iterable[Hashable]) -> Optional[int]:
        """Earliest queued record whose key is in ``keys`` (service order).

        Answered from the index in O(|keys|); the caller is responsible for
        charging the simulated traversal cost (see
        :meth:`charge_full_scan`).
        """
        by_key = self._by_key
        best: Optional[tuple[float, int, int]] = None
        for key in keys:
            bucket = by_key.get(key)
            if bucket and (best is None or bucket[0] < best):
                best = bucket[0]
        return best[2] if best is not None else None

    def charge_full_scan(self) -> int:
        """Bill one scheduling step per queued record — the simulated cost of
        the reference's linear ``SearchSusQueue`` traversal.  Returns the
        number of steps charged."""
        n = len(self._order)
        self.counters.scheduling_steps += n
        return n

    def search(self, predicate: Callable[[Task], bool]) -> Optional[int]:
        """``SearchSusQueue``: first record whose task satisfies ``predicate``.

        Linear walk charging one housekeeping step per record examined.
        """
        tasks = self._task
        counters = self.counters
        for _rank, _seq, slot in self._order:
            counters.housekeeping_steps += 1
            task = tasks[slot]
            assert task is not None
            if predicate(task):
                return slot
        return None

    def expired(self) -> list[Task]:
        """Remove and return tasks that exhausted their retry budget."""
        if self.max_retries is None:
            return []
        tasks = self._task
        budget = self.max_retries
        hits = [
            slot
            for _rank, _seq, slot in self._order
            if tasks[slot].sus_retry >= budget  # type: ignore[union-attr]
        ]
        return [self._unlink(slot) for slot in hits]

    # -- snapshot support --------------------------------------------------------

    def export_state(self) -> dict:
        """Backend-neutral queue state: ``[task_no, seq]`` records in service
        order.

        Keys and ranks are recomputed on restore from the same deterministic
        functions that produced them, and the task's own row carries its
        status, so only the identifying pair travels.
        """
        tasks = self._task
        items = []
        for _rank, seq, slot in self._order:
            task = tasks[slot]
            assert task is not None
            items.append([task.task_no, seq])
        return {
            "seq": self._seq,
            "total_suspended": self.total_suspended,
            "items": items,
        }

    def restore_state(self, state: dict, task_of: Callable[[int], Task]) -> None:
        """Rebuild from :meth:`export_state` output.  Slots are renumbered
        1..N — service order is fully determined by ``(rank, seq)``, which
        is unique, so slot numbers are unobservable.  No charging, no task
        mutation — restored tasks already carry their SUSPENDED status.

        Raises :class:`ConfigurationError` for a record that is not a
        ``[task_no, seq]`` pair, names an unknown or non-suspended task,
        repeats a task or sequence number, or has a sequence number outside
        ``1..state["seq"]``.
        """
        if self._order or len(self._task) > 1:
            raise ValueError("restore_state requires an empty suspension queue")
        top = state["seq"]
        seen_tasks: set[int] = set()
        seen_seqs: set[int] = set()
        for record in state["items"]:
            if type(record) is not list or len(record) != 2:
                raise ConfigurationError(
                    f"snapshot queue record {record!r} is not a [task_no, seq] pair"
                )
            task_no, seq = record
            if type(task_no) is not int or type(seq) is not int:
                raise ConfigurationError(
                    f"snapshot queue record [{task_no!r}, seq {seq!r}] "
                    "must carry integers"
                )
            try:
                task = task_of(task_no)
            except KeyError:
                raise ConfigurationError(
                    f"snapshot queue record names unknown task {task_no}"
                ) from None
            if task.status is not TaskStatus.SUSPENDED:
                raise ConfigurationError(
                    f"snapshot queue record names task {task_no}, which is "
                    f"{task.status.name}, not SUSPENDED"
                )
            if task_no in seen_tasks or seq in seen_seqs:
                raise ConfigurationError(
                    f"snapshot queue record [{task_no}, seq {seq}] repeats "
                    "a task or sequence number"
                )
            if not 1 <= seq <= top:
                raise ConfigurationError(
                    f"snapshot queue record seq {seq} is outside 1..{top}"
                )
            seen_tasks.add(task_no)
            seen_seqs.add(seq)
            self._insert(task, seq)
        self._seq = top
        self.total_suspended = state["total_suspended"]

    def validate_index(self) -> None:
        """Cross-check columns, free list, order list and key index.

        Raises :class:`~repro.resources.invariants.InvariantViolation`; the
        simulator's debug invariant mode runs it alongside the manager
        checks.
        """
        live = {
            slot
            for slot in range(1, len(self._task))
            if self._task[slot] is not None
        }
        order_slots = [slot for _rank, _seq, slot in self._order]
        if sorted(order_slots) != sorted(live):
            raise InvariantViolation("service-order list out of sync with slot columns")
        if self._order != sorted(self._order):
            raise InvariantViolation("queue not in service order")
        bucketed = sorted(t for bucket in self._by_key.values() for t in bucket)
        if bucketed != sorted(self._order):
            raise InvariantViolation("suspension-queue index out of sync with order list")
        for key, bucket in self._by_key.items():
            if bucket != sorted(bucket):
                raise InvariantViolation(f"bucket {key!r} not in service order")
            for _rank, _seq, slot in bucket:
                if self._key_c[slot] != key:
                    raise InvariantViolation(f"record filed under wrong key {key!r}")
        free = set(self._free)
        if len(free) != len(self._free):
            raise InvariantViolation("duplicate slots on the free list")
        if free & live:
            raise InvariantViolation("free list holds live slots")
        if free | live | {0} != set(range(len(self._task))):
            raise InvariantViolation("slots leaked: neither live nor free")


__all__ = ["SuspensionQueue", "NO_KEY"]
