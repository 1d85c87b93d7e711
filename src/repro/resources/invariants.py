"""Full-state consistency checker for the resource information manager.

The dynamic data structures of §IV-B are redundant by design (node entries
vs. idle/busy chains vs. the blank list), which is exactly what makes them
fast — and exactly what can drift.  :func:`check_invariants` cross-validates
every view:

I1.  Eq. 4 per node: ``AvailableArea == TotalArea − Σ ReqArea(entries)``.
I2.  Chain well-formedness: pointer symmetry, no cycles, size agreement.
I3.  Idle chains contain exactly the idle entries of that configuration,
     each on a node of the manager's table.
I4.  Busy chains contain exactly the busy entries of that configuration.
I5.  The blank chain contains exactly the nodes with no entries.
I6.  A busy entry's task points back: ``task.assigned_config is entry.config``
     and the task is RUNNING.
I7.  No task appears on two entries.
I8.  Failed nodes hold no entries.
I9.  Incremental aggregates (state counts, wasted area, running tasks,
     per-node busy count/area) match brute-force recomputation.
I10. The array backend's sorted query arrays and step-formula aggregates
     agree with the node table and chains (contents, keys, and tie-break
     ordering); checked by ``ArrayRIM.validate_structures``.
I11. Quarantined nodes are consistently held out: each quarantine-table
     entry keys its node's number, the node is out of service, holds no
     entries, and appears in no chain or index (implied by I5/I8/I10).

The simulator calls this every N events in debug mode; the property-based
tests call it after every random operation sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro.model.task import TaskStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.resources.arraycore import ArrayRIM
    from repro.resources.manager import ResourceInformationManager

    AnyRIM = Union["ResourceInformationManager", "ArrayRIM"]


class InvariantViolation(AssertionError):
    """A redundancy cross-check failed; message names the invariant."""


def check_invariants(rim: "AnyRIM") -> None:
    """Validate every invariant; raises :class:`InvariantViolation`.

    Backend-neutral: the object-level invariants (I1, I3–I9, I11) read only
    the public manager surface (``nodes``, ``configs``, the chain views and
    the aggregate accessors), so they run unchanged against every backend.
    The structural half is backend-specific: a manager exposing a
    ``validate_structures`` hook (the array backend) verifies its own flat
    tables through it (I2, I10); the scan manager validates its intrusive
    chains here (I2).
    """
    node_set = set(id(n) for n in rim.nodes)

    # I1 — area accounting per node.
    for node in rim.nodes:
        expected = node.total_area - sum(e.config.req_area for e in node.entries)
        if node.available_area != expected:
            raise InvariantViolation(
                f"I1: node {node.node_no} available_area={node.available_area}, "
                f"recomputed {expected}"
            )
        if node.available_area < 0:
            raise InvariantViolation(f"I1: node {node.node_no} negative available area")

    # I2/I10 — backend-specific structure validation (see the docstring).
    structured = getattr(rim, "validate_structures", None)
    if structured is not None:
        structured()
    else:
        for chain in list(rim._idle.values()) + list(rim._busy.values()) + [rim.blank_chain]:
            chain.validate()

    # Gather ground truth from the node table.
    idle_truth: dict[int, set[int]] = {}
    busy_truth: dict[int, set[int]] = {}
    seen_tasks: dict[int, int] = {}
    for node in rim.nodes:
        for entry in node.entries:
            cno = entry.config.config_no
            if entry.is_idle:
                idle_truth.setdefault(cno, set()).add(id(entry))
            else:
                busy_truth.setdefault(cno, set()).add(id(entry))
                task = entry.task
                assert task is not None
                # I7 — uniqueness.
                if task.task_no in seen_tasks:
                    raise InvariantViolation(
                        f"I7: task {task.task_no} on two entries "
                        f"(nodes incl. {node.node_no})"
                    )
                seen_tasks[task.task_no] = node.node_no
                # I6 — back-pointer coherence.
                if task.assigned_config is not entry.config:
                    raise InvariantViolation(
                        f"I6: task {task.task_no} assigned_config mismatch on "
                        f"node {node.node_no}"
                    )
                if task.status is not TaskStatus.RUNNING:
                    raise InvariantViolation(
                        f"I6: task {task.task_no} on node {node.node_no} has "
                        f"status {task.status.value}, expected running"
                    )

    # I3 — idle chains == idle truth.
    for config in rim.configs:
        cno = config.config_no
        chain = rim.idle_chain(config)
        members = set()
        for entry in chain:
            if not entry.is_idle:
                raise InvariantViolation(f"I3: busy entry in idle chain C{cno}")
            if entry.config.config_no != cno:
                raise InvariantViolation(f"I3: foreign-config entry in idle chain C{cno}")
            members.add(id(entry))
        truth = idle_truth.get(cno, set())
        if members != truth:
            raise InvariantViolation(
                f"I3: idle chain C{cno} has {len(members)} entries, "
                f"node table has {len(truth)}"
            )

    # I4 — busy chains == busy truth.
    for config in rim.configs:
        cno = config.config_no
        chain = rim.busy_chain(config)
        members = set()
        for entry in chain:
            if not entry.is_busy:
                raise InvariantViolation(f"I4: idle entry in busy chain C{cno}")
            if entry.config.config_no != cno:
                raise InvariantViolation(f"I4: foreign-config entry in busy chain C{cno}")
            members.add(id(entry))
        truth = busy_truth.get(cno, set())
        if members != truth:
            raise InvariantViolation(
                f"I4: busy chain C{cno} has {len(members)} entries, "
                f"node table has {len(truth)}"
            )

    # I5 — blank chain == blank nodes in service (failed nodes are chained
    # nowhere until repaired).
    blank_members = set()
    for node in rim.blank_chain:
        if id(node) not in node_set:
            raise InvariantViolation("I5: foreign node in blank chain")
        if not node.is_blank:
            raise InvariantViolation(f"I5: configured node {node.node_no} in blank chain")
        if not node.in_service:
            raise InvariantViolation(f"I5: failed node {node.node_no} in blank chain")
        blank_members.add(id(node))
    blank_truth = set(id(n) for n in rim.nodes if n.is_blank and n.in_service)
    if blank_members != blank_truth:
        raise InvariantViolation(
            f"I5: blank chain size {len(blank_members)} != "
            f"actual in-service blank nodes {len(blank_truth)}"
        )

    # I8 — failed nodes hold no entries (configurations lost on failure).
    for node in rim.nodes:
        if not node.in_service and node.entries:
            raise InvariantViolation(
                f"I8: failed node {node.node_no} still holds {len(node.entries)} entries"
            )

    # I9 — incremental aggregates match brute-force recomputation.
    expected_states = {"blank": 0, "idle": 0, "busy": 0}
    expected_wasted = 0
    expected_running = 0
    for node in rim.nodes:
        busy_entries = sum(1 for e in node.entries if e.is_busy)
        if node.busy_count != busy_entries:
            raise InvariantViolation(
                f"I9: node {node.node_no} busy counter {node.busy_count} != "
                f"actual {busy_entries}"
            )
        busy_area = sum(e.config.req_area for e in node.entries if e.is_busy)
        if node.busy_area != busy_area:
            raise InvariantViolation(
                f"I9: node {node.node_no} busy area {node.busy_area} != "
                f"actual {busy_area}"
            )
        if node.is_blank:
            expected_states["blank"] += 1
        elif busy_entries:
            expected_states["busy"] += 1
        else:
            expected_states["idle"] += 1
        if not node.is_blank:
            expected_wasted += node.available_area
        expected_running += busy_entries
    if rim.state_counts != expected_states:
        raise InvariantViolation(
            f"I9: state counts {rim.state_counts} != recomputed {expected_states}"
        )
    if rim.total_wasted_area() != expected_wasted:
        raise InvariantViolation(
            f"I9: wasted aggregate {rim.total_wasted_area()} != {expected_wasted}"
        )
    if rim.running_tasks_count != expected_running:
        raise InvariantViolation(
            f"I9: running-task aggregate {rim.running_tasks_count} != "
            f"{expected_running}"
        )

    # I11 — quarantine-table consistency: a quarantined node is a failed node
    # (out of service, blank) registered under its own number; it can appear
    # in no chain or index because I5/I8/I10 already exclude failed nodes.
    for node_no, (node, _until) in rim._quarantined.items():
        if node.node_no != node_no:
            raise InvariantViolation(
                f"I11: quarantine table keys node {node.node_no} under {node_no}"
            )
        if id(node) not in node_set:
            raise InvariantViolation(f"I11: foreign node {node_no} quarantined")
        if node.in_service:
            raise InvariantViolation(f"I11: quarantined node {node_no} is in service")
        if node.entries:
            raise InvariantViolation(
                f"I11: quarantined node {node_no} still holds {len(node.entries)} entries"
            )


__all__ = ["check_invariants", "InvariantViolation"]
