"""Seeded synthetic response workload for driving validators directly.

Full ``2k+2`` external response sets with evolving state digests and a
configurable rate of consensus faults, built without a deployment so a
test can feed every engine the same objects and compare what they decide.
:func:`trigger_responses` builds one trigger's set; the seeded workload
here and :mod:`repro.harness.soak`'s indexed workload differ only in how
they draw its flow and fault.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.controllers.context import sort_canonicals
from repro.core.responses import Response, ResponseKind

#: Distinct flows to cycle through — entries repeat, as production flow
#: tables do, which is what makes the engines' memo caches honest.
FLOW_VARIANTS = 50
#: Triggers per digest step: replica views advance slowly relative to the
#: trigger rate, so digests repeat across consecutive triggers.
DIGEST_STRIDE = 10


def entries(flow: int) -> Tuple[Tuple, Tuple]:
    """The (cache, network) entries of one flow's install."""
    cache = (("cache", "FlowsDB", ("flow", 1, ("ip", flow), 100), "create",
              (("actions", (("output", 2),)), ("command", "add"), ("dpid", 1),
               ("match", ("ip", flow)), ("priority", 100),
               ("state", "pending_add"))),)
    net = (("flow_mod", 1, "add", ("ip", flow), (("output", 2),), 100),)
    return cache, net


def trigger_responses(index: int, k: int, flow: int,
                      faulty: bool) -> List[Response]:
    """Trigger ``index``'s ``2k + 2`` responses, installing ``flow``.

    The primary's network write and cache update, then a cache relay and a
    shadow replica result from each of ``k`` secondaries. A ``faulty``
    trigger has secondary 0 relay a corrupted cache entry — a T1-style
    incorrect replicated state that must alarm (and forces the consensus
    slow path).
    """
    tau = ("ext", index)
    cache, net = entries(flow)
    combined = (cache, sort_canonicals(set(net)))
    digest = (("c1", index // DIGEST_STRIDE),)
    responses = [
        Response("c1", tau, ResponseKind.NETWORK_WRITE, net,
                 state_digest=digest),
        Response("c1", tau, ResponseKind.CACHE_UPDATE, cache,
                 state_digest=digest, origin="c1"),
    ]
    for s in range(k):
        sid = f"s{s}"
        relayed = cache
        if faulty and s == 0:
            corrupted_cache, _ = entries(FLOW_VARIANTS + index)
            relayed = corrupted_cache
        responses.append(Response(sid, tau, ResponseKind.CACHE_UPDATE,
                                  relayed, state_digest=digest, origin="c1"))
        responses.append(Response(sid, tau, ResponseKind.REPLICA_RESULT,
                                  combined, tainted=True, state_digest=digest,
                                  primary_hint="c1"))
    return responses


def synthetic_validation_workload(
        triggers: int, k: int = 6, seed: int = 0,
        fault_rate: float = 0.02) -> List[List[Response]]:
    """``triggers`` full external response sets, in arrival order.

    A seeded PRNG draws each trigger's flow and then, with probability
    ``fault_rate``, whether it carries a corrupted relay
    (:func:`trigger_responses`).
    """
    rng = random.Random(seed)
    workload: List[List[Response]] = []
    for index in range(triggers):
        flow = rng.randrange(FLOW_VARIANTS)
        faulty = rng.random() < fault_rate
        workload.append(trigger_responses(index, k, flow, faulty))
    return workload
