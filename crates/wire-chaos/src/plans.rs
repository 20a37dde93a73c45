//! Canonical wire chaos plans shared by the `star-wire-chaos` binary and
//! the test suites: the probabilistic fault sweep, the SIGKILL/recover
//! cycle, and the deliberately-unsafe negative control.

use star_chaos::{ChaosPlan, FaultOp, FaultSchedule, InjectionPoint, WorkloadSpec};
use star_common::{ClusterConfig, ReplicationStrategy};
use star_net::LinkFaults;
use std::time::Duration;

/// The bootstrap-expressible cluster shape (what `Bootstrap::parse` builds
/// from a rendered file), so in-process and `star-serverd` runs of the
/// same plan agree on every derived quantity.
pub fn parity_config(
    nodes: usize,
    full_replicas: usize,
    partitions: usize,
    seed: u64,
) -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(nodes)
        .full_replicas(full_replicas)
        .workers_per_node(1)
        .partitions(partitions)
        .seed(seed)
        .network_latency(Duration::ZERO)
        .build()
        .expect("parity config is valid")
}

/// A probabilistic wire-fault sweep plan: duplicates, delays and reorders
/// on every link for two full iterations, then a clean tail iteration.
/// Drops and corruption stay out — those lose committed replication writes,
/// which only a fence-revert (a scheduled crash) may do. Reordering is safe
/// only under value replication (the Thomas write rule), so the plan
/// replicates values: a reordered operation stream leaves replicas that
/// disagree with the oracle.
pub fn sweep_plan(seed: u64) -> ChaosPlan {
    let faults = LinkFaults {
        duplicate_probability: 0.2,
        reorder_probability: 0.2,
        delay_probability: 0.25,
        extra_delay: Duration::from_millis(1),
        ..LinkFaults::none()
    };
    let config = parity_config(3, 1, 6, seed);
    ChaosPlan {
        seed,
        label: format!("wire-fault sweep (seed {seed})"),
        config: ClusterConfig { replication_strategy: ReplicationStrategy::Value, ..config },
        workload: WorkloadSpec::Ycsb { rows_per_partition: 64 },
        iterations: 3,
        partitioned_txns: 12,
        single_master_txns: 8,
        schedule: FaultSchedule::new()
            .at(0, InjectionPoint::PartitionedStart, FaultOp::SetDefaultFaults(faults))
            .at(1, InjectionPoint::IterationEnd, FaultOp::ClearFaults),
        expect_disk_recovery: false,
    }
}

/// The kill/recover cycle: a non-coordinator partial
/// node dies mid-epoch and is caught back up, then the master itself is
/// killed (electing nobody — no full replica remains), recovered, and
/// deterministically re-elected.
pub fn kill_recover_plan(seed: u64) -> ChaosPlan {
    ChaosPlan {
        seed,
        label: format!("SIGKILL/recover cycle (seed {seed})"),
        config: parity_config(3, 1, 6, seed),
        workload: WorkloadSpec::Ycsb { rows_per_partition: 64 },
        iterations: 5,
        partitioned_txns: 12,
        single_master_txns: 8,
        schedule: FaultSchedule::new()
            .at(0, InjectionPoint::MidPartitioned, FaultOp::Crash(2))
            .at(1, InjectionPoint::IterationEnd, FaultOp::Recover(2))
            .at(2, InjectionPoint::MidSingleMaster, FaultOp::Crash(0))
            .at(3, InjectionPoint::IterationEnd, FaultOp::Recover(0)),
        expect_disk_recovery: false,
    }
}

/// The negative parity control: the proxy silently drops every frame from
/// partition 1's primary to the master during a *committed* epoch, with no
/// crash to revert it — the same deliberately-unsafe schedule as the
/// simulator's `unforgiven_message_loss` control. The twin loses the same
/// frames, so wire and twin stay byte-identical — and both are wrong: the
/// serializability checker must go red. Proves the wire harness detects
/// real protocol violations rather than vacuously passing.
pub fn negative_control_plan(seed: u64) -> ChaosPlan {
    ChaosPlan {
        seed,
        label: format!("unforgiven message loss (seed {seed})"),
        config: ClusterConfig::builder()
            .nodes(4)
            .full_replicas(1)
            .workers_per_node(1)
            .partitions(4)
            .replication_factor(3)
            .iteration(Duration::from_millis(5))
            .network_latency(Duration::from_micros(20))
            .seed(seed)
            .build()
            .expect("negative control config is valid"),
        workload: WorkloadSpec::Kv { rows_per_partition: 4 },
        iterations: 4,
        partitioned_txns: 16,
        single_master_txns: 32,
        schedule: FaultSchedule::new()
            .at(1, InjectionPoint::PartitionedStart, FaultOp::CutLink(1, 0))
            .at(1, InjectionPoint::BeforeFirstFence, FaultOp::HealLink(1, 0)),
        expect_disk_recovery: false,
    }
}
