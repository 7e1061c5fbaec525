"""Span wrappers around each layer's public callables (deployment workload).

The traced run attributes wall time to the program's layers without
editing ``src/``: :class:`LayerTracer` patches the callables below with
:meth:`bench.trace.SpanRecorder.wrap` for the length of the traced window
and restores every one of them afterwards.

Two kinds of boundary are recorded:

* **calls** — the public method one layer calls on another
  (``ControlChannel.send``, ``DatastoreNode.put``, the replicator hook on
  each proxy, ...). The table in :func:`_class_wraps` is the whole list.
* **events** — everything else runs as a simulator callback. While the
  tracer is installed ``Simulator.schedule_at`` tags each new event with
  the layer that owns its callback (by module), and the event fires inside
  a ``<layer>.event`` span. Callbacks that belong to no layer, and events
  scheduled before the tracer was installed, end up in ``unattributed``.

``sim`` self time is therefore the kernel proper: ``Simulator.run`` minus
every callback it dispatched.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.trace import SpanRecorder

#: Module prefix → layer, longest prefix first.
LAYER_BY_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.core.replicator", "replicator"),
    ("repro.core.selection", "replicator"),
    ("repro.core.module", "module"),
    ("repro.core", "validator"),
    ("repro.policy", "validator"),
    ("repro.controllers", "controllers"),
    ("repro.datastore", "datastore"),
    ("repro.workloads", "workloads"),
    ("repro.openflow", "net"),
    ("repro.net", "net"),
    ("repro.sim", "sim"),
)

LAYERS = ("sim", "net", "controllers", "datastore", "replicator", "module",
          "validator", "workloads")


def _ext_index(tau: Any) -> int:
    """``("ext", n)`` → ``n``; anything else has no integer trigger id."""
    if isinstance(tau, tuple) and len(tau) == 2 and tau[0] == "ext":
        return tau[1]
    return -1


def _tau_of_response(self, channel, response) -> int:
    return _ext_index(getattr(response, "trigger_id", None))


def _tau_of_ctx(self, *args, **kwargs) -> int:
    ctx = kwargs.get("ctx")
    if ctx is None:
        ctx = next((a for a in args if hasattr(a, "trigger_id")), None)
    return _ext_index(getattr(ctx, "trigger_id", None))


def _tau_of_replicated(self, trigger) -> int:
    return _ext_index(trigger.taint.trigger_id)


def _class_wraps():
    """``(span name, class, attribute, trigger-id extractor)`` rows."""
    from repro.controllers.base import Controller
    from repro.core.module import JuryModule
    from repro.core.replicator import Replicator
    from repro.core.validator import Validator
    from repro.datastore.store import DatastoreNode
    from repro.net.channel import ControlChannel
    from repro.net.hosts import Host
    from repro.net.ovs import ReplicatingProxy
    from repro.net.switch import SoftSwitch
    from repro.sim.simulator import Simulator

    return (
        ("sim.run", Simulator, "run", None),
        ("net.channel_send", ControlChannel, "send", None),
        ("net.switch_receive_packet", SoftSwitch, "receive_packet", None),
        ("net.switch_control", SoftSwitch, "handle_control_message", None),
        ("net.proxy_control", ReplicatingProxy, "handle_control_message",
         None),
        ("net.host_open_connection", Host, "open_connection", None),
        ("net.host_send_arp", Host, "send_arp_request", None),
        ("controllers.handle_control_message", Controller,
         "handle_control_message", None),
        ("controllers.cache_write", Controller, "cache_write", _tau_of_ctx),
        ("controllers.send_flow_mod", Controller, "send_flow_mod",
         _tau_of_ctx),
        ("controllers.send_packet_out", Controller, "send_packet_out",
         _tau_of_ctx),
        ("datastore.put", DatastoreNode, "put", None),
        ("datastore.apply_remote", DatastoreNode, "apply_remote", None),
        ("replicator.intercept_rest", Replicator, "intercept_rest", None),
        ("module.on_replicated_trigger", JuryModule, "on_replicated_trigger",
         _tau_of_replicated),
        ("module.handle_control_message", JuryModule,
         "handle_control_message", None),
        ("validator.ingest", Validator, "handle_control_message",
         _tau_of_response),
    )


class LayerTracer:
    """Installs and removes the span wrappers for one experiment."""

    def __init__(self, recorder: SpanRecorder, experiment):
        self.recorder = recorder
        self.experiment = experiment
        self._restore: List[Callable[[], None]] = []
        self._layer_of_func: Dict[Any, int] = {}
        self._event_name_ids = {
            layer: recorder.name_id(f"{layer}.event")
            for layer in LAYERS + ("unattributed",)}

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._restore:
            raise RuntimeError("layer tracer is already installed")
        for name, owner, attr, trigger_of in _class_wraps():
            self._patch(owner, attr, name, trigger_of)
        store = self.experiment.store
        self._patch(type(store), "propagate", "datastore.propagate")
        self._patch_cache_canonical()
        self._patch_hooks()
        self._patch_schedule()

    def remove(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        own = vars(owner)
        had_own, original = attr in own, own.get(attr)

        def restore() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        setattr(owner, attr, value)
        self._restore.append(restore)

    def _patch(self, owner: Any, attr: str, name: str,
               trigger_of: Optional[Callable] = None) -> None:
        self._set(owner, attr,
                  self.recorder.wrap(name, getattr(owner, attr), trigger_of))

    def _patch_cache_canonical(self) -> None:
        """``cache_canonical`` is imported by name: patch every importer."""
        from repro.datastore import events
        original = events.cache_canonical
        wrapped = self.recorder.wrap("datastore.canonical", original)
        for module_name, module in list(sys.modules.items()):
            if (module_name.startswith("repro.")
                    and getattr(module, "cache_canonical", None) is original):
                self._set(module, "cache_canonical", wrapped)

    def _patch_hooks(self) -> None:
        """Per-instance hooks: replicator, JURY module taps, store listeners."""
        experiment = self.experiment
        wrap = self.recorder.wrap
        for proxy in experiment.cluster.proxies.values():
            if proxy.on_switch_to_controller is not None:
                self._set(proxy, "on_switch_to_controller", wrap(
                    "replicator.on_switch_trigger",
                    proxy.on_switch_to_controller))
        for controller in experiment.cluster.controllers.values():
            for hook in ("network_tap", "trigger_done_hook",
                         "network_promise_hook"):
                target = getattr(controller, hook, None)
                if target is not None:
                    self._set(controller, hook,
                              wrap(f"module.{hook}", target))
            listeners = controller.store.listeners
            originals = list(listeners)
            for index, listener in enumerate(originals):
                layer = self._layer_name(listener, ())
                listeners[index] = wrap(f"{layer}.on_cache_event", listener)
            self._restore.append(
                lambda listeners=listeners, originals=originals:
                listeners.__setitem__(slice(None), originals))

    def _patch_schedule(self) -> None:
        from repro.sim.simulator import Simulator

        recorder = self.recorder
        begin, end = recorder.begin, recorder.end
        event_name_id = self._event_name_id
        original = Simulator.schedule_at

        def fire(name_id: int, callback: Callable, *args) -> None:
            if not recorder.on:
                callback(*args)
                return
            begin(name_id)
            try:
                callback(*args)
            finally:
                end()

        def schedule_at(sim, time, callback, *args):
            return original(sim, time, fire, event_name_id(callback, args),
                            callback, *args)

        self._set(Simulator, "schedule_at", schedule_at)

    # ------------------------------------------------------------------
    def _layer_name(self, callback: Callable, args: Tuple) -> str:
        func = getattr(callback, "__func__", callback)
        func = getattr(func, "__wrapped__", func)
        module = getattr(func, "__module__", "") or ""
        if module == "repro.sim.station" and args and callable(args[-1]):
            # ServiceStation._finish(work, done): the work is ``done``'s.
            return self._layer_name(args[-1], ())
        for prefix, layer in LAYER_BY_MODULE:
            if module == prefix or module.startswith(prefix + "."):
                return layer
        return "unattributed"

    def _event_name_id(self, callback: Callable, args: Tuple) -> int:
        func = getattr(callback, "__func__", callback)
        if getattr(func, "__module__", "") == "repro.sim.station":
            return self._event_name_ids[self._layer_name(callback, args)]
        name_id = self._layer_of_func.get(func)
        if name_id is None:
            name_id = self._event_name_ids[self._layer_name(callback, ())]
            self._layer_of_func[func] = name_id
        return name_id
