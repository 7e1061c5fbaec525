"""Workload generators reproducing the paper's traffic sources.

* :class:`~repro.workloads.traffic.TrafficDriver` — paced TCP-connection
  traffic between random host pairs with optional host joins and link
  tear-downs (the §VII-A controlled-traffic experiments).
* :class:`~repro.workloads.tcpreplay.TcpReplayDriver` — the §VII-B
  throughput workload: fresh TCP connections for a fixed window, every
  packet a TCAM miss.
* :class:`~repro.workloads.cbench.CbenchDriver` — Cbench's blocking
  PACKET_IN bursts that overwhelm the controller (Fig 4e).
* :mod:`~repro.workloads.traces` — synthetic stand-ins for the LBNL, UNIV,
  and SMIA benign traces (Fig 4d).
* :mod:`~repro.workloads.synthetic` — seeded ``2k+2`` response sets fed
  straight to a validator, no deployment underneath.
"""

from repro.workloads.cbench import CbenchDriver
from repro.workloads.tcpreplay import TcpReplayDriver
from repro.workloads.traces import LBNL, SMIA, UNIV, TraceProfile, TraceReplayDriver
from repro.workloads.traffic import TrafficDriver

__all__ = [
    "CbenchDriver",
    "LBNL",
    "SMIA",
    "TcpReplayDriver",
    "TraceProfile",
    "TraceReplayDriver",
    "TrafficDriver",
    "UNIV",
]
