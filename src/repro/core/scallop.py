"""The integrated Scallop SFU: data plane + switch agent + controller on the
simulated network.

:class:`ScallopSfu` is a network endpoint (it has an address and a
``handle_datagram`` method) that wires the three tiers together:

* every arriving packet traverses the :class:`~repro.dataplane.pipeline.ScallopPipeline`
  with a fixed hardware forwarding delay,
* copies punted to the CPU reach the :class:`~repro.core.switch_agent.SwitchAgent`
  after a software processing delay,
* the :class:`~repro.core.controller.ScallopController` handles signaling
  (off the packet path entirely), and
* a periodic task runs the agent's best-downlink filter function.

It also exposes convenience helpers to sign clients into meetings so the
examples and experiments read like the paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..dataplane.pipeline import BoxState, ScallopPipeline, SWITCH_FORWARDING_DELAY_S
from ..dataplane.rebalance import RebalancerConfig
from ..obs.hooks import ObsConfig
from ..dataplane.resources import DEFAULT_CAPACITIES, TofinoCapacities
from ..dataplane.sharding import ShardedScallopPipeline
from ..netsim.datagram import Address, Datagram
from ..netsim.link import Network, SFU_PORT_PROFILE, LinkProfile
from ..netsim.simulator import Simulator
from ..signaling.messages import join_message, leave_message
from ..webrtc.client import WebRtcClient
from .capacity import RewriteVariant
from .controller import ScallopController
from .rate_control import select_decode_target
from .switch_agent import AGENT_PROCESSING_DELAY_S, FILTER_RESELECT_INTERVAL_S, SwitchAgent


@dataclass
class SfuForwardingStats:
    """End-to-end accounting of what the SFU did on the packet path."""

    packets_in: int = 0
    packets_out: int = 0
    packets_to_cpu: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    bytes_to_cpu: int = 0


class ScallopSfu:
    """Scallop deployed as a single switch plus its software control plane."""

    def __init__(
        self,
        address: Address,
        simulator: Simulator,
        network: Network,
        rewrite_variant: RewriteVariant = RewriteVariant.S_LR,
        capacities: TofinoCapacities = DEFAULT_CAPACITIES,
        uplink_profile: Optional[LinkProfile] = None,
        downlink_profile: Optional[LinkProfile] = None,
        adaptation_thresholds_bps: Optional[Tuple[float, float]] = None,
        n_shards: int = 1,
        rebalance: Union[bool, RebalancerConfig, None] = None,
        obs: Union[bool, ObsConfig, None] = None,
    ) -> None:
        self.address = address
        self.simulator = simulator
        self.network = network
        if rebalance is True:
            rebalance = RebalancerConfig()
        elif rebalance is False:
            rebalance = None
        #: ``n_shards=1`` keeps the single-datapath reference engine;
        #: ``n_shards>=2`` (or the load-aware rebalancer, the one
        #: sharded-only feature) partitions every ingress burst by flow
        #: across share-nothing datapath shards behind the same pipeline API
        #: (the outputs are byte-identical either way).
        if n_shards > 1 or rebalance is not None:
            self.pipeline = ShardedScallopPipeline(
                address,
                n_shards=n_shards,
                capacities=capacities,
                rebalance_config=rebalance,
                obs=obs,
            )
        else:
            obs_config = ObsConfig() if obs is True else (obs or None)
            self.pipeline = ScallopPipeline(address, capacities, obs=obs_config)
        if adaptation_thresholds_bps is not None:
            high, low = adaptation_thresholds_bps

            def select_fn(current, history, estimate, _high=high, _low=low):
                return select_decode_target(
                    current, history, estimate, threshold_high_bps=_high, threshold_low_bps=_low
                )

        else:
            select_fn = select_decode_target
        self.agent = SwitchAgent(
            self.pipeline,
            send_fn=self._agent_send,
            rewrite_variant=rewrite_variant,
            select_fn=select_fn,
            clock=lambda: simulator.now,
        )
        self.controller = ScallopController(address, self.agent)
        self.stats = SfuForwardingStats()
        #: Per-packet SFU-induced forwarding latency samples in milliseconds
        #: (the quantity compared in Figure 19).
        self.forwarding_latency_samples_ms: List[float] = []
        self._running = False

        network.attach(
            self,
            uplink=uplink_profile or SFU_PORT_PROFILE,
            downlink=downlink_profile or SFU_PORT_PROFILE,
        )

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Start the agent's periodic filter-function task."""
        if self._running:
            return
        self._running = True
        self.simulator.schedule(FILTER_RESELECT_INTERVAL_S, self._filter_tick)

    def stop(self) -> None:
        self._running = False

    def close(self) -> None:
        """Stop periodic work and release pipeline backend resources."""
        self.stop()
        self.pipeline.close()

    def _filter_tick(self) -> None:
        if not self._running:
            return
        self.agent.run_filter_function()
        self.simulator.schedule(FILTER_RESELECT_INTERVAL_S, self._filter_tick)

    # ------------------------------------------------------------------ packet path

    def handle_datagram(self, datagram: Datagram) -> None:
        """Entry point for every packet the switch receives."""
        result = self.pipeline.process(datagram)
        self._account_result(datagram, result)
        if result.outputs:
            # one event for the fan-out: per-replica events would carry
            # consecutive order numbers, so nothing could run between them
            self.simulator.schedule(result.forwarding_delay_s, self._send_replicas, result.outputs)

    def _send_replicas(self, replicas: Sequence[Datagram]) -> None:
        send = self.network.send
        for replica in replicas:
            send(replica)

    def handle_datagram_batch(self, datagrams: Sequence[Datagram]) -> None:
        """Entry point for a packet burst (batch-mode network delivery).

        Runs the whole burst through :meth:`ScallopPipeline.process_batch`
        (same outputs as per-packet processing, amortized overhead) and ships
        all resulting replicas onward as one burst after the hardware
        forwarding delay.
        """
        results = self.pipeline.process_batch(datagrams)
        outputs: List[Datagram] = []
        forwarding_delay_s = SWITCH_FORWARDING_DELAY_S
        for datagram, result in zip(datagrams, results):
            self._account_result(datagram, result)
            if result.outputs:
                outputs.extend(result.outputs)
                forwarding_delay_s = max(forwarding_delay_s, result.forwarding_delay_s)
        if outputs:
            # the replicas carry their per-packet switch-egress times
            # (ingress arrival + forwarding delay) in ``arrived_at``, so the
            # network admits each one on its true schedule even though the
            # whole burst rides this single event
            self.simulator.schedule(forwarding_delay_s, self.network.send_burst, outputs)

    def _account_result(self, datagram: Datagram, result) -> None:
        """Per-packet stats/latency/CPU-copy bookkeeping shared by both the
        per-packet and batch ingress paths."""
        stats = self.stats
        stats.packets_in += 1
        stats.bytes_in += datagram.size
        latency_samples = self.forwarding_latency_samples_ms
        for output in result.outputs:
            stats.packets_out += 1
            stats.bytes_out += output.size
            if len(latency_samples) < 500_000:
                latency_samples.append(result.forwarding_delay_s * 1000.0)
        now = self.simulator.now
        for copy in result.cpu_copies:
            stats.packets_to_cpu += 1
            stats.bytes_to_cpu += copy.size
            # under burst ingest the copy's true arrival can precede this
            # (coalesced) event; anchor the agent delay on the schedule so
            # CPU-path timing matches per-packet delivery
            arrived = copy.arrived_at
            delay = AGENT_PROCESSING_DELAY_S if arrived is None else max(
                0.0, arrived + AGENT_PROCESSING_DELAY_S - now
            )
            self.simulator.schedule(delay, self.agent.handle_cpu_packet, copy)

    def _agent_send(self, datagram: Datagram) -> None:
        """Packets originated by the switch agent (e.g. STUN responses)."""
        out = datagram.redirect(self.address, datagram.dst)
        self.stats.packets_out += 1
        self.stats.bytes_out += out.size
        self.network.send(out)

    # ------------------------------------------------------------------ signaling helpers

    def join(self, client: WebRtcClient) -> None:
        """Run the signaling exchange for a client joining its meeting."""
        offer = client.create_offer()
        message = join_message(client.config.meeting_id, client.config.participant_id, offer)
        reply = self.controller.handle_signal(message)
        if reply is not None:
            answer = reply.session_description()
            if answer is not None:
                client.apply_answer(answer)

    def leave(self, client: WebRtcClient) -> None:
        """Run the signaling exchange for a client leaving its meeting."""
        self.controller.handle_signal(
            leave_message(client.config.meeting_id, client.config.participant_id)
        )

    # ------------------------------------------------------------------ reporting

    def data_plane_fraction(self) -> Dict[str, float]:
        """Fraction of packets and bytes handled entirely in the data plane."""
        counters = self.pipeline.counters
        total_packets = counters.data_plane_packets + counters.cpu_packets
        total_bytes = counters.data_plane_bytes + counters.cpu_bytes
        if total_packets == 0:
            return {"packets": 0.0, "bytes": 0.0}
        return {
            "packets": counters.data_plane_packets / total_packets,
            "bytes": counters.data_plane_bytes / total_bytes if total_bytes else 0.0,
        }

    def state(self) -> BoxState:
        """What the box has installed (:meth:`SwitchAgent.state`)."""
        return self.agent.state()

    @property
    def forwarding_delay_s(self) -> float:
        return SWITCH_FORWARDING_DELAY_S
