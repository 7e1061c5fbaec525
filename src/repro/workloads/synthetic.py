"""Seeded synthetic response workload for driving validators directly.

Full ``2k+2`` external response sets with evolving state digests and a
configurable rate of consensus faults, built without a deployment so a
test can feed the sequential :class:`~repro.core.validator.Validator` and
the sharded :class:`~repro.core.pipeline.ValidationPipeline` the same
objects and compare what they decide. :mod:`repro.harness.soak` reuses the
entry shapes for its indexed workload.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.responses import Response, ResponseKind

#: Distinct flows to cycle through — entries repeat, as production flow
#: tables do, which is what makes the pipeline's memo caches honest.
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


def synthetic_validation_workload(
        triggers: int, k: int = 6, seed: int = 0,
        fault_rate: float = 0.02) -> List[List[Response]]:
    """``triggers`` full external response sets, in arrival order.

    Each trigger contributes ``2k + 2`` responses: the primary's network
    write and cache update, plus a cache relay and a shadow replica result
    from each of ``k`` secondaries. With probability ``fault_rate`` one
    secondary's cache relay is corrupted — a T1-style incorrect replicated
    state that must alarm (and forces the consensus slow path).
    """
    rng = random.Random(seed)
    workload: List[List[Response]] = []
    for index in range(triggers):
        tau = ("ext", index)
        cache, net = entries(rng.randrange(FLOW_VARIANTS))
        combined = (cache, tuple(sorted(set(net), key=repr)))
        digest = (("c1", index // DIGEST_STRIDE),)
        faulty = rng.random() < fault_rate
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
                                      relayed, state_digest=digest,
                                      origin="c1"))
            responses.append(Response(sid, tau, ResponseKind.REPLICA_RESULT,
                                      combined, tainted=True,
                                      state_digest=digest,
                                      primary_hint="c1"))
        workload.append(responses)
    return workload
