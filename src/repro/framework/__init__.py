"""The DReAMSim framework (S7) — §III's four subsystems wired together.

* **Input subsystem** — specs and generators from :mod:`repro.workload`.
* **Information subsystem** — the job submission manager lives here (arrival
  event feeding) over :mod:`repro.resources`' information manager.
* **Core subsystem** — the task scheduling manager
  (:class:`repro.core.DreamScheduler`), the
  :class:`~repro.framework.monitoring.Monitor` and the
  :class:`~repro.framework.loadbalance.LoadBalancer`.
* **Output subsystem** — the XML simulation report generator
  (:mod:`repro.framework.report`).

:class:`~repro.framework.simulator.DReAMSim` is the user-facing façade: give
it nodes, configurations and a task arrival stream; it runs the discrete-
event simulation to completion and returns a
:class:`~repro.framework.simulator.SimulationResult` with the full Table I
metric report.
"""

from repro.framework.campaign import (
    FaultCampaignSpec,
    build_campaign,
    run_campaign,
)
from repro.framework.expconfig import ExperimentConfig, load_experiment
from repro.framework.failures import FailureInjector
from repro.framework.loadbalance import LoadBalancer
from repro.framework.monitoring import Monitor
from repro.framework.report import (
    parse_report_xml,
    report_to_xml,
    write_report_xml,
)
from repro.framework.simulator import DReAMSim, SimulationResult

__all__ = [
    "DReAMSim",
    "ExperimentConfig",
    "FailureInjector",
    "FaultCampaignSpec",
    "build_campaign",
    "run_campaign",
    "LoadBalancer",
    "Monitor",
    "SimulationResult",
    "load_experiment",
    "parse_report_xml",
    "report_to_xml",
    "write_report_xml",
]
