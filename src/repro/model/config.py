"""Processor configurations — Eq. 2 of the system model.

``Cᵢ(ReqArea, Ptype, param, BSize, ConfigTime)``: a configuration is a
specific processor implementation that can be loaded onto a reconfigurable
region.  ``param`` carries the architectural details of the ``Ptype`` — the
paper's example is the parameterizable ρ-VEX VLIW soft-core (issue width,
functional-unit counts, memory slots), which :class:`ProcessorParams` models
directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.model.family import DeviceFamily


class Ptype(enum.Enum):
    """Processor configuration types named in §IV-A."""

    MULTIPLIER = "multiplier"
    SYSTOLIC_ARRAY = "systolic_array"
    SOFT_CORE = "soft_core"
    SIGNAL_PROCESSOR = "signal_processor"
    VLIW = "vliw"  # e.g. the ρ-VEX soft-core of [16]
    CUSTOM = "custom"


@dataclass(frozen=True, slots=True)
class ProcessorParams:
    """Architectural parameters of a ``Ptype`` (the ``param`` set of Eq. 2).

    Field names follow the ρ-VEX description in the paper: "the number and
    types of functional units (multipliers and ALUs), cluster cores, the
    number of issues, or the number of memory slots."
    """

    issue_width: int = 1
    alus: int = 1
    multipliers: int = 0
    cluster_cores: int = 1
    memory_slots: int = 1
    extras: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("issue_width", "alus", "cluster_cores", "memory_slots"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.multipliers < 0:
            raise ValueError("multipliers must be >= 0")

    def as_dict(self) -> dict[str, float]:
        """Flat parameter mapping, including the free-form extras."""
        d: dict[str, float] = {
            "issue_width": self.issue_width,
            "alus": self.alus,
            "multipliers": self.multipliers,
            "cluster_cores": self.cluster_cores,
            "memory_slots": self.memory_slots,
        }
        d.update(dict(self.extras))
        return d


# The one parameter set every configuration built without ``params`` shares
# (frozen, so sharing is safe; the generator fabricates thousands of them).
_DEFAULT_PARAMS = ProcessorParams()


@dataclass(frozen=True, eq=False, slots=True)
class Configuration:
    """A loadable processor configuration (Eq. 2).

    Parameters
    ----------
    config_no:
        Index in the global configurations list.
    req_area:
        Reconfigurable area units consumed when loaded on a node.
    config_time:
        Timeticks to configure a region with this bitstream
        (``ConfigTime``); Table II draws it from [10, 20].
    bsize:
        Bitstream file size (bytes); proportional to ``req_area`` on real
        devices, generated that way by the resource-spec module.
    ptype / params:
        Processor type and its architectural parameter set.
    family:
        Device family the bitstream was built for.

    Identity semantics: configurations are compared by object identity (two
    generated configurations with equal areas are still distinct entries in
    the configurations list, as in the original's pointer-based design).
    """

    config_no: int
    req_area: int
    config_time: int
    bsize: int = 0
    ptype: Ptype = Ptype.SOFT_CORE
    params: ProcessorParams = _DEFAULT_PARAMS
    family: Optional[DeviceFamily] = None

    def __post_init__(self) -> None:
        if self.config_no < 0:
            raise ValueError("config_no must be non-negative")
        if self.req_area <= 0:
            raise ValueError(f"req_area must be positive, got {self.req_area}")
        if self.config_time < 0:
            raise ValueError("config_time must be non-negative")
        if self.bsize < 0:
            raise ValueError("bsize must be non-negative")

    def compatible_with_node_family(self, node_family: Optional[DeviceFamily]) -> bool:
        """True if this bitstream can be loaded on a node of ``node_family``."""
        if self.family is None or node_family is None:
            return True  # single-family system (the paper's default)
        return node_family.accepts(self.family)

    def __repr__(self) -> str:
        return (
            f"Configuration(#{self.config_no}, area={self.req_area}, "
            f"ctime={self.config_time}, ptype={self.ptype.value})"
        )


__all__ = ["Configuration", "ProcessorParams", "Ptype"]
