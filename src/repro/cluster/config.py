"""Cluster simulation configuration.

Every knob of the warehouse simulation lives here, with defaults chosen
to model "Cluster A" of the paper at reduced block density (the
``block_scale`` factor extrapolates counts back to production density so
the benches can compare against the published medians directly).

The calibration constants published by the paper are collected in
:class:`PaperTargets` so that traces, benches, and documentation all
refer to a single source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigError

#: Seconds in a simulated day.
SECONDS_PER_DAY = 86_400.0

#: The cluster flags a machine as unavailable after 15 minutes
#: (Section 2.2, item 1).
UNAVAILABILITY_THRESHOLD_SECONDS = 15 * 60.0


@dataclass(frozen=True)
class PaperTargets:
    """The published measurements this reproduction calibrates against.

    All values are taken verbatim from Section 2 of the paper.
    """

    #: Median machine-unavailability events (>15 min) per day (Fig. 3a).
    median_unavailability_events_per_day: float = 52.0
    #: Largest daily unavailability spike visible in Fig. 3a.
    max_unavailability_events_per_day: float = 350.0
    #: Median RS blocks reconstructed per day (Fig. 3b).
    median_blocks_recovered_per_day: float = 95_500.0
    #: Median cross-rack bytes moved per day for RS recovery (Fig. 3b).
    median_cross_rack_bytes_per_day: float = 180e12
    #: Stripe-degradation split over degraded stripes (Section 2.2 item 2).
    fraction_one_missing: float = 0.9808
    fraction_two_missing: float = 0.0187
    fraction_three_plus_missing: float = 0.0005
    #: Production code parameters and block size (Section 2.1).
    k: int = 10
    r: int = 4
    block_size_bytes: int = 256 * 1024 * 1024
    #: Machines in the studied cluster ("a few thousand", Section 2.1).
    machines: int = 3_000
    #: Paper's §3.2 projection: savings of the Piggybacked-RS code.
    projected_savings_fraction: float = 0.30
    projected_cross_rack_savings_bytes_per_day: float = 50e12


#: Singleton targets instance used across the library.
PAPER_TARGETS = PaperTargets()


@dataclass
class ClusterConfig:
    """Configuration of a :class:`~repro.cluster.simulation.WarehouseSimulation`.

    Attributes
    ----------
    num_racks, nodes_per_rack:
        Topology (default 100 x 30 = 3000 machines, the paper's scale).
    placement_policy:
        ``"distinct-rack"`` (production, Section 2.1),
        ``"distinct-node"`` (ablation: distinct machines, racks may
        repeat), or ``"d3"`` (deterministic keyed round-robin with
        least-loaded replacement; requires
        ``destination_draws="hashed"``).
    parallel_repair:
        CR-SIM-style multi-failure recovery: a stripe with ``a``
        concurrent erasures is rebuilt in one wave costing
        ``k + a - 1`` unit transfers (one decode plus one forward per
        extra unit) instead of ``a`` independent ``k``-unit repairs.
        Requires ``destination_draws="hashed"``.
    code_name, code_params:
        Which registered erasure code protects the cold data.
    block_size_bytes:
        Maximum (full) block size; 256 MB in production.
    full_block_fraction, min_tail_block_fraction:
        Per-stripe block-size mix: a stripe is full-size with probability
        ``full_block_fraction``; otherwise its width is uniform in
        ``[min_tail_block_fraction, 1) x block_size``.  Calibrated so the
        mean RS recovery transfer matches Fig. 3b (~1.9 GB per block).
    stripes_per_node:
        RS-coded block density: how many stripe *members* each node
        holds on average in the simulation.  Production density is
        ~4,700 blocks/node; simulations run lighter and extrapolate with
        :attr:`block_scale`.
    target_stripes_per_node:
        Production density used for extrapolation.
    daily_event_median, daily_event_sigma:
        Lognormal model of unavailability events per day (Fig. 3a).
    event_spike_probability, event_spike_multiplier:
        Heavy upper tail: occasional maintenance/software-rollout days
        multiply the event count (the 200-350 spikes of Fig. 3a).
    mean_downtime_seconds:
        Mean of the exponential tail of unavailability durations beyond
        :attr:`duration_floor_seconds`.  Governs how many machines are
        concurrently down and hence the rate of doubly degraded stripes
        (Section 2.2 item 2).
    downtime_distribution, downtime_weibull_shape:
        Shape of the duration tail beyond the floor: ``"exponential"``
        (default, memoryless) or ``"weibull"`` with the given shape.
        Disk/machine repair-time studies (e.g. Schroeder-Gibson FAST'07,
        cited by the paper as [6]) find heavy-tailed, Weibull-like
        distributions with shape < 1; the knob exists to test the
        conclusions' sensitivity to that tail.
    duration_floor_seconds:
        Minimum outage duration in the trace.  Defaults to the 15-minute
        flag threshold (the trace models the >15-min events Fig. 3a
        counts); kept separate from
        :attr:`unavailability_threshold_seconds` so threshold-policy
        ablations can sweep the flag threshold against a fixed outage
        population.
    correlated_event_probability, correlated_batch_size:
        Rare correlated incidents (a maintenance batch or shared-switch
        event) take a whole group of machines down *simultaneously*.
        Independent failures alone cannot reproduce the paper's 0.05%
        triply-degraded stripes -- simultaneous group outages are what
        populate that tail (and they show up as moderate Fig. 3a spike
        days, consistent with the plot).
    recovery_trigger_fraction:
        Fraction of >15-min events whose blocks are actually
        reconstructed (some machines return before the re-replication
        queue reaches them; calibrated against Fig. 3b).
    recovery_bandwidth_bytes_per_sec:
        Aggregate cluster bandwidth dedicated to reconstruction.  None
        (default) models recovery as instantaneous at flag time (the
        right model for daily byte accounting); a finite value makes
        recoveries occupy a shared pipe so per-block repair *latency*
        and degraded exposure become measurable (the Section 3.2
        recovery-time experiments).
    batched_recovery:
        Run flag-time recoveries through the vectorised per-node batch
        path (results are identical to the scalar path; False keeps the
        scalar oracle, mainly for equivalence tests and benchmarks).
    days:
        Simulated duration.
    seed:
        Master RNG seed; every sub-component derives its own stream.
    chaos_seed, chaos_node_flaps, chaos_corrupt_units:
        Explicit fault injection (see :mod:`repro.faults`):
        ``chaos_node_flaps`` appends that many flagged-length node
        flaps to the unavailability trace, and ``chaos_corrupt_units``
        marks that many stored units corrupt so repair planning must
        route around them.  Both default to 0 (off); ``chaos_seed``
        defaults to the master seed.  Deliberately config-driven rather
        than environment-driven: a simulation that silently injected
        faults under an env var would stop being a reproduction.
    destination_draws:
        How recovery destinations are chosen.  ``"stream"`` (default)
        draws them from the shared recovery rng stream in per-unit
        order -- the historical semantics every committed trajectory
        pins.  ``"hashed"`` derives each destination from a counter
        hash of ``(unit id, flag ordinal)`` seeded off ``seed``: the
        draw depends only on the unit and the flag event, not on how
        many draws other stripes consumed before it, which is what
        lets :class:`~repro.cluster.shard.ShardedSimulation` partition
        a run across shards and still match the serial oracle
        bit-for-bit.  Both modes are uniform over the same candidate
        sets; they just replay *different* (equally valid) random
        choices, so summary statistics are equivalent but trajectories
        differ.  This is a semantic knob, hence config rather than an
        engine argument: a result is a function of its config alone.
    repair_queue_discipline:
        How queued repairs are ordered when the shared recovery pipe (or
        the per-link model) is saturated.  ``"fifo"`` (default) is the
        historical flat queue; ``"priority"`` serves 2+-erasure stripes
        strictly before single-erasure ones -- the paper's 1.87%+0.05%
        multi-erasure tail carries nearly all the data-loss risk, so it
        should never wait behind the 98.08% single-erasure bulk.
    priority_aging_seconds:
        Starvation guard for the priority discipline: a single-erasure
        job that has waited this long is served at urgent class.  None
        disables aging.  Only meaningful with ``"priority"``; setting it
        under ``"fifo"`` is a loud error rather than a silent no-op.
    lazy_repair, lazy_repair_delay_seconds, lazy_repair_threshold:
        Lazy repair defers single-erasure stripes (multi-erasure ones
        are never deferred): each deferred job activates after the delay
        (default 900 s, the paper's 15-minute flag-threshold semantics),
        or the whole deferred set is flushed as soon as it reaches the
        threshold count.  Machines that come back before the timer make
        their repairs cancel instead of moving bytes -- the transient
        win the paper attributes to the 15-minute flag delay.
    hot_spares_per_rack:
        Pre-reserved replacement capacity: each rack gets this many
        spare nodes that hold no stripe members at placement time, so
        repair destinations never block on a full rack under correlated
        failures.  0 (default) reproduces the historical topology
        exactly.  Spares fail like any other machine (the trace samples
        the full topology), so a spared config replays a different
        trace than the same config without spares.
    repair_link_gbps, repair_oversubscription:
        Per-link bandwidth model: each rack's TOR uplink carries
        ``repair_link_gbps`` and the aggregation layer carries the sum
        of TOR capacity divided by ``repair_oversubscription`` (the
        analysis-layer :class:`~repro.analysis.oversubscription.UplinkModel`
        defaults: 40 Gbps x 8).  When set, repairs queue per destination
        TOR *and* the shared aggregation trunk, and degraded reads
        observe queueing latency instead of just byte counts.  Requires
        ``destination_draws="hashed"`` (the destination must be known at
        enqueue time, before earlier stream draws have resolved).  None
        (default) keeps the single aggregate pipe.
    """

    num_racks: int = 100
    nodes_per_rack: int = 30
    placement_policy: str = "distinct-rack"
    code_name: str = "rs"
    code_params: Dict[str, int] = field(default_factory=lambda: {"k": 10, "r": 4})
    block_size_bytes: int = PAPER_TARGETS.block_size_bytes
    full_block_fraction: float = 0.5
    min_tail_block_fraction: float = 0.0625
    stripes_per_node: float = 60.0
    target_stripes_per_node: float = 4_700.0
    daily_event_median: float = 50.0
    daily_event_sigma: float = 0.55
    event_spike_probability: float = 0.06
    event_spike_multiplier: float = 2.5
    mean_downtime_seconds: float = 3_500.0
    downtime_distribution: str = "exponential"
    downtime_weibull_shape: float = 0.7
    correlated_event_probability: float = 0.05
    correlated_batch_size: int = 35
    recovery_trigger_fraction: float = 0.33
    unavailability_threshold_seconds: float = UNAVAILABILITY_THRESHOLD_SECONDS
    duration_floor_seconds: float = UNAVAILABILITY_THRESHOLD_SECONDS
    reads_per_stripe_per_day: float = 0.0
    recovery_bandwidth_bytes_per_sec: Optional[float] = None
    batched_recovery: bool = True
    days: float = 24.0
    seed: int = 20130901  # arXiv submission date of the paper
    chaos_seed: Optional[int] = None
    chaos_node_flaps: int = 0
    chaos_corrupt_units: int = 0
    destination_draws: str = "stream"
    repair_queue_discipline: str = "fifo"
    priority_aging_seconds: Optional[float] = None
    lazy_repair: bool = False
    lazy_repair_delay_seconds: float = UNAVAILABILITY_THRESHOLD_SECONDS
    lazy_repair_threshold: Optional[int] = None
    hot_spares_per_rack: int = 0
    repair_link_gbps: Optional[float] = None
    repair_oversubscription: float = 8.0
    parallel_repair: bool = False

    def __post_init__(self):
        if self.num_racks < 2:
            raise ConfigError("need at least 2 racks for cross-rack placement")
        if self.nodes_per_rack < 1:
            raise ConfigError("nodes_per_rack must be >= 1")
        n = sum(self.code_params.get(key, 0) for key in ("k", "r", "l", "g"))
        if self.code_name != "replication" and n > self.num_racks:
            raise ConfigError(
                f"stripe of {n} units cannot be placed on {self.num_racks} "
                f"distinct racks"
            )
        if not 0.0 <= self.full_block_fraction <= 1.0:
            raise ConfigError("full_block_fraction must be in [0, 1]")
        if not 0.0 < self.min_tail_block_fraction <= 1.0:
            raise ConfigError("min_tail_block_fraction must be in (0, 1]")
        if self.days <= 0:
            raise ConfigError("days must be positive")
        if self.stripes_per_node <= 0 or self.target_stripes_per_node <= 0:
            raise ConfigError("stripe densities must be positive")
        if not 0.0 <= self.recovery_trigger_fraction <= 1.0:
            raise ConfigError("recovery_trigger_fraction must be in [0, 1]")
        if self.reads_per_stripe_per_day < 0:
            raise ConfigError("reads_per_stripe_per_day must be >= 0")
        if self.recovery_bandwidth_bytes_per_sec is not None and (
            not math.isfinite(self.recovery_bandwidth_bytes_per_sec)
            or self.recovery_bandwidth_bytes_per_sec <= 0
        ):
            raise ConfigError(
                "recovery bandwidth must be finite and positive, or None; "
                f"got {self.recovery_bandwidth_bytes_per_sec!r}"
            )
        if self.downtime_distribution not in ("exponential", "weibull"):
            raise ConfigError(
                f"unknown downtime distribution "
                f"{self.downtime_distribution!r}; expected 'exponential' "
                f"or 'weibull'"
            )
        if self.downtime_weibull_shape <= 0:
            raise ConfigError("Weibull shape must be positive")
        if not 0.0 <= self.correlated_event_probability <= 1.0:
            raise ConfigError("correlated_event_probability must be in [0, 1]")
        if self.correlated_batch_size < 1:
            raise ConfigError("correlated_batch_size must be >= 1")
        if self.chaos_node_flaps < 0 or self.chaos_corrupt_units < 0:
            raise ConfigError("chaos fault counts must be >= 0")
        if self.destination_draws not in ("stream", "hashed"):
            raise ConfigError(
                f"unknown destination_draws {self.destination_draws!r}; "
                f"expected 'stream' or 'hashed'"
            )
        if self.repair_queue_discipline not in ("fifo", "priority"):
            raise ConfigError(
                f"unknown repair_queue_discipline "
                f"{self.repair_queue_discipline!r}; expected 'fifo' or "
                f"'priority'"
            )
        if self.priority_aging_seconds is not None:
            if self.repair_queue_discipline != "priority":
                raise ConfigError(
                    "priority_aging_seconds only applies to the "
                    "'priority' discipline; set repair_queue_discipline "
                    "or drop the aging knob"
                )
            if (
                not math.isfinite(self.priority_aging_seconds)
                or self.priority_aging_seconds <= 0
            ):
                raise ConfigError(
                    "priority_aging_seconds must be finite and positive"
                )
        if self.repair_queue_discipline == "priority" and not (
            self.recovery_bandwidth_bytes_per_sec is not None
            or self.repair_link_gbps is not None
        ):
            raise ConfigError(
                "the 'priority' discipline needs something to contend "
                "for: set recovery_bandwidth_bytes_per_sec or "
                "repair_link_gbps"
            )
        if (
            not math.isfinite(self.lazy_repair_delay_seconds)
            or self.lazy_repair_delay_seconds <= 0
        ):
            raise ConfigError(
                "lazy_repair_delay_seconds must be finite and positive"
            )
        if (
            self.lazy_repair_threshold is not None
            and self.lazy_repair_threshold < 1
        ):
            raise ConfigError("lazy_repair_threshold must be >= 1 or None")
        if self.hot_spares_per_rack < 0:
            raise ConfigError("hot_spares_per_rack must be >= 0")
        if self.repair_link_gbps is not None and (
            not math.isfinite(self.repair_link_gbps)
            or self.repair_link_gbps <= 0
        ):
            raise ConfigError(
                "repair_link_gbps must be finite and positive, or None"
            )
        if (
            not math.isfinite(self.repair_oversubscription)
            or self.repair_oversubscription < 1.0
        ):
            raise ConfigError("repair_oversubscription must be >= 1")
        if (
            self.repair_link_gbps is not None
            and self.destination_draws != "hashed"
        ):
            raise ConfigError(
                "the per-link repair model needs destinations known at "
                "enqueue time; set destination_draws='hashed'"
            )
        if self.placement_policy not in (
            "distinct-rack", "distinct-node", "d3"
        ):
            raise ConfigError(
                f"unknown placement_policy {self.placement_policy!r}; "
                f"expected 'distinct-rack', 'distinct-node', or 'd3'"
            )
        if self.placement_policy == "d3" and self.destination_draws != "hashed":
            raise ConfigError(
                "d3 placement replaces the shared destination rng with "
                "deterministic least-loaded picks; set "
                "destination_draws='hashed' (stream draws would "
                "silently desynchronise)"
            )
        if self.parallel_repair and self.destination_draws != "hashed":
            raise ConfigError(
                "parallel_repair repairs a stripe's concurrent failures "
                "in one wave, which needs order-free destination draws; "
                "set destination_draws='hashed'"
            )

    @property
    def total_nodes_per_rack(self) -> int:
        """Data nodes plus hot spares in every rack."""
        return self.nodes_per_rack + self.hot_spares_per_rack

    @property
    def num_nodes(self) -> int:
        return self.num_racks * self.total_nodes_per_rack

    @property
    def num_data_nodes(self) -> int:
        """Nodes that hold stripe members at placement time."""
        return self.num_racks * self.nodes_per_rack

    @property
    def repair_scheduler_active(self) -> bool:
        """Whether runs route repairs through the policy scheduler."""
        return (
            self.recovery_bandwidth_bytes_per_sec is not None
            or self.repair_link_gbps is not None
            or self.lazy_repair
        )

    @property
    def stripe_width_units(self) -> int:
        """Units per stripe under the configured code."""
        params = self.code_params
        if self.code_name == "replication":
            return params.get("replicas", 3)
        if self.code_name == "lrc":
            return params["k"] + params["l"] + params["g"]
        return params["k"] + params["r"]

    @property
    def num_stripes(self) -> int:
        """Stripes to place so each node holds ~``stripes_per_node`` members."""
        members = self.stripe_width_units
        return max(
            1,
            int(round(self.stripes_per_node * self.num_data_nodes / members)),
        )

    @property
    def block_scale(self) -> float:
        """Extrapolation factor from simulated to production block density."""
        return self.target_stripes_per_node / self.stripes_per_node

    def with_code(self, code_name: str, **code_params) -> "ClusterConfig":
        """Copy of this config with a different protecting code."""
        from dataclasses import replace

        params = dict(code_params) if code_params else dict(self.code_params)
        return replace(self, code_name=code_name, code_params=params)
