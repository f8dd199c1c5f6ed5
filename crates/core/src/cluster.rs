//! The [`NowCluster`] and its builder.

use now_glunix::cosched::{self, AppSpec, CoschedConfig, Scheduling};
use now_glunix::membership::{Membership, MembershipConfig};
use now_glunix::migrate::MigrationModel;
use now_glunix::mixed::{self, MixedConfig, RunOutcome};
use now_mem::multigrid::{self, MemoryConfig, RunResult};
use now_mem::RemoteAccessCost;
use now_models::gator::{CommFabric, GatorPrediction, GatorWorkload, Machine};
use now_net::{presets, Network};
use now_sim::SimDuration;
use now_trace::lanl::JobTrace;
use now_trace::usage::UsageTrace;
use now_xfs::{Xfs, XfsConfig};
use serde::{Deserialize, Serialize};

/// The interconnect + software-stack combinations the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Interconnect {
    /// Shared 10-Mbps Ethernet with kernel TCP — the status quo ante.
    EthernetTcp,
    /// Shared Ethernet with PVM — Table 4's dreadful baseline.
    EthernetPvm,
    /// Switched 155-Mbps ATM with kernel TCP.
    AtmTcp,
    /// Switched ATM with user-level Active Messages — the NOW target.
    AtmActiveMessages,
    /// Myrinet with Active Messages — the retargeted-MPP-network option.
    MyrinetActiveMessages,
    /// A multi-floor ATM building (25 nodes per floor switch, OC-12
    /// backbone) with Active Messages — the enterprise-scale NOW.
    AtmBuildingActiveMessages,
}

impl Interconnect {
    pub(crate) fn network(self, nodes: u32) -> Network {
        match self {
            Interconnect::EthernetTcp => presets::tcp_ethernet(nodes),
            Interconnect::EthernetPvm => presets::pvm_ethernet(nodes),
            Interconnect::AtmTcp => presets::tcp_atm(nodes),
            Interconnect::AtmActiveMessages => presets::am_atm(nodes),
            Interconnect::MyrinetActiveMessages => presets::am_myrinet(nodes),
            Interconnect::AtmBuildingActiveMessages => {
                // 25 nodes per floor, rounded up to cover `nodes`.
                let floors = nodes.div_ceil(25).max(1);
                presets::am_atm_building(floors, 25)
            }
        }
    }

    /// Whether this configuration meets the paper's bar for recruiting
    /// remote memory (switched fabric and sub-100-µs software).
    pub fn supports_network_ram(self) -> bool {
        matches!(
            self,
            Interconnect::AtmActiveMessages
                | Interconnect::MyrinetActiveMessages
                | Interconnect::AtmBuildingActiveMessages
        )
    }
}

/// Errors from cluster operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NowError {
    /// The requested operation needs a capability this interconnect lacks.
    InterconnectTooSlow {
        /// What was attempted.
        operation: &'static str,
    },
}

impl std::fmt::Display for NowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NowError::InterconnectTooSlow { operation } => {
                write!(
                    f,
                    "{operation} requires a switched, low-overhead interconnect"
                )
            }
        }
    }
}

impl std::error::Error for NowError {}

/// Builder for [`NowCluster`] (see [`NowCluster::builder`]).
#[derive(Debug, Clone)]
pub struct NowBuilder {
    nodes: u32,
    interconnect: Interconnect,
    mem_mb_per_node: u64,
    storage_disks: u32,
    block_bytes: usize,
    seed: u64,
}

impl NowBuilder {
    /// Number of workstations (default 32; the Berkeley prototype targets
    /// 100).
    pub fn nodes(&mut self, nodes: u32) -> &mut Self {
        self.nodes = nodes;
        self
    }

    /// Interconnect and stack (default ATM + Active Messages).
    pub fn interconnect(&mut self, interconnect: Interconnect) -> &mut Self {
        self.interconnect = interconnect;
        self
    }

    /// DRAM per workstation in MB (default 32, the era's norm).
    pub fn mem_mb_per_node(&mut self, mb: u64) -> &mut Self {
        self.mem_mb_per_node = mb;
        self
    }

    /// Disks in the xFS stripe group (default 8).
    pub fn storage_disks(&mut self, disks: u32) -> &mut Self {
        self.storage_disks = disks;
        self
    }

    /// File-system block size in bytes (default 8 KB, as in Table 2).
    pub fn block_bytes(&mut self, bytes: usize) -> &mut Self {
        self.block_bytes = bytes;
        self
    }

    /// Master seed for all derived randomness.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Boots the cluster.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (fewer than 2 nodes, fewer than 3
    /// storage disks).
    pub fn build(&self) -> NowCluster {
        assert!(self.nodes >= 2, "a NOW needs at least two workstations");
        let network = self.interconnect.network(self.nodes);
        debug_assert!(network.nodes() >= self.nodes);
        let fs = Xfs::new(XfsConfig {
            clients: self.nodes,
            managers: (self.nodes / 4).max(1),
            storage_disks: self.storage_disks,
            stripe_groups: 1,
            block_bytes: self.block_bytes,
            client_cache_blocks: ((self.mem_mb_per_node / 2) * 1024 * 1024
                / self.block_bytes as u64)
                .max(4) as usize,
        });
        NowCluster {
            nodes: self.nodes,
            interconnect: self.interconnect,
            mem_mb_per_node: self.mem_mb_per_node,
            network,
            membership: Membership::new(self.nodes, MembershipConfig::default()),
            fs,
            seed: self.seed,
        }
    }
}

/// A simulated building-wide Network of Workstations.
///
/// Construct with [`NowCluster::builder`]; see the crate docs for a tour.
#[derive(Debug)]
pub struct NowCluster {
    nodes: u32,
    interconnect: Interconnect,
    mem_mb_per_node: u64,
    network: Network,
    membership: Membership,
    fs: Xfs,
    seed: u64,
}

impl NowCluster {
    /// Starts building a cluster with the defaults described on each
    /// builder method.
    pub fn builder() -> NowBuilder {
        NowBuilder {
            nodes: 32,
            interconnect: Interconnect::AtmActiveMessages,
            mem_mb_per_node: 32,
            storage_disks: 8,
            block_bytes: 8_192,
            seed: 1,
        }
    }

    /// Number of workstations.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// The configured interconnect.
    pub fn interconnect(&self) -> Interconnect {
        self.interconnect
    }

    /// The serverless file system.
    pub fn fs(&mut self) -> &mut Xfs {
        &mut self.fs
    }

    /// The cluster membership service.
    pub fn membership_mut(&mut self) -> &mut Membership {
        &mut self.membership
    }

    /// The raw interconnect, for microbenchmarks.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// One-way small-message time on this cluster's interconnect, µs.
    pub fn small_message_us(&mut self) -> f64 {
        self.network.one_way_small_message_us()
    }

    /// Runs an out-of-core job of `problem_mb` MB on one workstation,
    /// paging to the other workstations' idle DRAM.
    ///
    /// # Errors
    ///
    /// [`NowError::InterconnectTooSlow`] when the interconnect cannot
    /// support network RAM (shared Ethernet or kernel-TCP overhead — the
    /// paper's Table 2 point).
    pub fn run_out_of_core(&mut self, problem_mb: u64) -> Result<RunResult, NowError> {
        if !self.interconnect.supports_network_ram() {
            return Err(NowError::InterconnectTooSlow {
                operation: "network RAM",
            });
        }
        let cost = RemoteAccessCost::from_network(&mut self.network, 8_192);
        let config = MemoryConfig::LocalWithNetRam {
            mb: self.mem_mb_per_node,
            hosts: self.nodes - 1,
            mb_per_host: self.mem_mb_per_node / 2,
            cost,
        };
        Ok(multigrid::run(problem_mb, config))
    }

    /// The same job thrashing to the local disk, for comparison.
    pub fn run_out_of_core_on_disk(&self, problem_mb: u64) -> RunResult {
        multigrid::run(
            problem_mb,
            MemoryConfig::LocalWithDisk {
                mb: self.mem_mb_per_node,
            },
        )
    }

    /// Runs a parallel application across the cluster under the given
    /// scheduling discipline with `competing_jobs` timeshared against it.
    pub fn run_parallel(
        &self,
        app: &AppSpec,
        scheduling: Scheduling,
        competing_jobs: u32,
    ) -> SimDuration {
        let mut config = CoschedConfig::paper_defaults(competing_jobs);
        config.nodes = self.nodes.min(16); // app models are sized for ≤16
        config.seed = self.seed;
        cosched::run(app, scheduling, &config, &now_probe::Probe::disabled())
    }

    /// Overlays a parallel job trace on this cluster while its owners keep
    /// using their machines (the Figure 3 scenario).
    pub fn run_mixed_workload(&self, jobs: &JobTrace, usage: &UsageTrace) -> RunOutcome {
        let config = MixedConfig {
            process_mem_mb: self.mem_mb_per_node,
            migration: MigrationModel::now_atm_pfs(),
        };
        mixed::now_cluster(jobs, usage, &config)
    }

    /// Maps `cells` replicated scenario cells onto engine partitions:
    /// `result[c]` is the partition cell `c` is homed in.
    ///
    /// The planner is topology-aware in the sense that matters for this
    /// cluster: every cell owns a *disjoint* copy of the interconnect
    /// (its fabric occupancy is shared with nobody), so any cell map is
    /// event-closed and the only resource partitions contend for is the
    /// host machine's cores. The best cut is therefore balanced,
    /// contiguous blocks — partition sizes differ by at most one cell,
    /// and neighbouring cells (which the building-scale interconnect
    /// would place on the same floor switch) stay together.
    ///
    /// `requested = 0` asks for auto: one partition per available core,
    /// never more than one per cell. Any request is clamped to
    /// `[1, cells]`; a single cell always yields the serial plan `[0]`.
    pub fn plan_partitions(&self, cells: u32, requested: u32) -> Vec<u32> {
        let cells = cells.max(1);
        let want = if requested == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get() as u32)
        } else {
            requested
        };
        let p = want.clamp(1, cells);
        (0..cells)
            .map(|c| (u64::from(c) * u64::from(p) / u64::from(cells)) as u32)
            .collect()
    }

    /// Predicts the Gator atmospheric-model run time on this cluster using
    /// the Demmel–Smith model with this cluster's parameters.
    pub fn predict_gator(&self) -> GatorPrediction {
        let (fabric, overhead_us) = match self.interconnect {
            Interconnect::EthernetTcp => (
                CommFabric::SharedMedia {
                    aggregate_mb_s: 1.25,
                },
                440.0,
            ),
            Interconnect::EthernetPvm => (
                CommFabric::SharedMedia {
                    aggregate_mb_s: 1.25,
                },
                1_000.0,
            ),
            Interconnect::AtmTcp => (
                CommFabric::Switched {
                    per_node_mb_s: 19.4,
                },
                626.0,
            ),
            Interconnect::AtmActiveMessages => (
                CommFabric::Switched {
                    per_node_mb_s: 19.4,
                },
                10.0,
            ),
            Interconnect::MyrinetActiveMessages => (
                CommFabric::Switched {
                    per_node_mb_s: 80.0,
                },
                8.0,
            ),
            Interconnect::AtmBuildingActiveMessages => (
                CommFabric::Switched {
                    per_node_mb_s: 19.4,
                },
                10.0,
            ),
        };
        let machine = Machine {
            name: format!("NOW ({} nodes, {:?})", self.nodes, self.interconnect),
            nodes: self.nodes,
            mflops_per_node: 40.0,
            fabric,
            msg_overhead_us: overhead_us,
            io_mb_s: f64::from(self.nodes) * 2.0 * 0.8,
            cost_millions: f64::from(self.nodes) / 64.0,
        };
        machine.predict(&GatorWorkload::paper_defaults())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(interconnect: Interconnect) -> NowCluster {
        NowCluster::builder()
            .nodes(16)
            .interconnect(interconnect)
            .build()
    }

    #[test]
    fn builder_defaults_are_sane() {
        let now = NowCluster::builder().build();
        assert_eq!(now.nodes(), 32);
        assert_eq!(now.interconnect(), Interconnect::AtmActiveMessages);
    }

    #[test]
    fn fs_round_trip_through_the_cluster() {
        let mut now = cluster(Interconnect::AtmActiveMessages);
        let f = now.fs().create("/x").unwrap();
        let block = vec![7u8; now.fs().block_bytes()];
        now.fs().write(3, f, 0, &block).unwrap();
        assert_eq!(&now.fs().read(11, f, 0).unwrap()[..], &block[..]);
    }

    #[test]
    fn out_of_core_needs_a_fast_interconnect() {
        let mut slow = cluster(Interconnect::EthernetTcp);
        assert_eq!(
            slow.run_out_of_core(64).unwrap_err(),
            NowError::InterconnectTooSlow {
                operation: "network RAM"
            }
        );
        let mut fast = cluster(Interconnect::AtmActiveMessages);
        let r = fast.run_out_of_core(64).unwrap();
        assert!(r.pager.netram_faults > 0);
    }

    #[test]
    fn netram_beats_disk_on_the_cluster() {
        let mut now = cluster(Interconnect::AtmActiveMessages);
        let netram = now.run_out_of_core(96).unwrap();
        let disk = now.run_out_of_core_on_disk(96);
        assert!(disk.total.as_secs_f64() > 2.0 * netram.total.as_secs_f64());
    }

    #[test]
    fn small_message_ordering_across_interconnects() {
        let mut am = cluster(Interconnect::AtmActiveMessages);
        let mut tcp = cluster(Interconnect::AtmTcp);
        let mut eth = cluster(Interconnect::EthernetTcp);
        assert!(am.small_message_us() < tcp.small_message_us());
        // TCP fixed costs dominate: Ethernet and ATM are comparable, with
        // ATM's longer adapter path actually slower for small messages.
        assert!(eth.small_message_us() < tcp.small_message_us());
    }

    #[test]
    fn gang_scheduling_beats_local_for_connect() {
        let now = cluster(Interconnect::AtmActiveMessages);
        let connect = AppSpec::figure4_apps()[3];
        let gang = now.run_parallel(&connect, Scheduling::Gang, 2);
        let local = now.run_parallel(&connect, Scheduling::Local, 2);
        assert!(local > gang * 2);
    }

    #[test]
    fn gator_prediction_improves_along_the_upgrade_path() {
        let ladder = [
            Interconnect::EthernetPvm,
            Interconnect::AtmTcp,
            Interconnect::AtmActiveMessages,
        ];
        let mut last = f64::INFINITY;
        for i in ladder {
            let total = NowCluster::builder()
                .nodes(256)
                .interconnect(i)
                .build()
                .predict_gator()
                .total_s();
            assert!(total < last, "{i:?} should improve on its predecessor");
            last = total;
        }
    }

    #[test]
    fn mixed_workload_runs_through_the_cluster() {
        use now_trace::lanl::JobTraceConfig;
        use now_trace::usage::UsageTraceConfig;
        let now = NowCluster::builder().nodes(64).build();
        let jobs = JobTrace::generate(&JobTraceConfig::paper_defaults(), 3);
        let mut ucfg = UsageTraceConfig::paper_defaults();
        ucfg.machines = 64;
        let usage = UsageTrace::generate(&ucfg, 4);
        let out = now.run_mixed_workload(&jobs, &usage);
        assert_eq!(out.jobs.len(), jobs.len());
        assert!(out.mean_dilation() >= 1.0);
    }

    #[test]
    fn building_interconnect_supports_everything() {
        let mut now = NowCluster::builder()
            .nodes(100)
            .interconnect(Interconnect::AtmBuildingActiveMessages)
            .build();
        assert!(now.run_out_of_core(64).is_ok());
        let t = now.small_message_us();
        assert!(t < 40.0, "building small message {t} µs");
        let f = now.fs().create("/b").unwrap();
        let block = vec![1u8; now.fs().block_bytes()];
        now.fs().write(0, f, 0, &block).unwrap();
        assert_eq!(&now.fs().read(99, f, 0).unwrap()[..], &block[..]);
    }

    #[test]
    fn membership_is_wired_in() {
        let mut now = cluster(Interconnect::AtmActiveMessages);
        assert_eq!(now.membership_mut().up_nodes().len(), 16);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_node_cluster_rejected() {
        NowCluster::builder().nodes(1).build();
    }
}
