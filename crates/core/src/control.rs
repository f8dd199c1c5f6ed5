//! Cluster-level fault handling: detection, spare dispatch, and repair.
//!
//! The injector ([`now_fault::FaultInjectorComponent`]) only *announces*
//! faults; this module owns the cluster's reaction. [`ClusterControl`]
//! receives every [`Fault`], applies the physical consequences at the
//! injection instant (a crashed host's network-RAM pages vanish, a dead
//! client's cache blocks are invalidated, a worker stops computing), and
//! models the *detection* path separately: crashed and partitioned nodes
//! merely fall silent, and the cluster learns of the failure the way
//! GLUnix does — after [`MembershipConfig::miss_limit`] missed heartbeats,
//! via the monitor's periodic [`ControlEvent::Tick`]. Once a dead worker
//! is detected, the control waits a restart delay, then dispatches a
//! spare workstation to take over its BSP rank and its cache-client seat.
//! Disk failures put the storage array in degraded mode (reads pay the
//! reconstruction penalty); a replacement disk triggers rebuild traffic
//! that streams chunk by chunk over the same shared fabric every other
//! subsystem is using.

use std::collections::{BTreeMap, BTreeSet};

use now_cache::CacheEvent;
use now_fault::{Fault, HeartbeatMonitor};
use now_glunix::membership::MembershipConfig;
use now_mem::PageEvent;
use now_probe::causal::category;
use now_probe::Probe;
use now_sim::{Component, ComponentId, CostMode, Ctx, EventCast, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::scenario::JobEvent;

/// Bytes of reconstruction data moved per rebuild event.
const REBUILD_CHUNK_BYTES: u64 = 256 * 1024;

/// Events driving a [`ClusterControl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlEvent {
    /// A fault announced by the injector.
    Fault(Fault),
    /// One heartbeat interval elapses: heartbeat the live nodes, sweep
    /// for silent ones, and re-arm the next tick.
    Tick,
    /// The restart delay after detecting worker `worker`'s crash expires:
    /// dispatch a spare workstation to take over its rank.
    Restart {
        /// Index of the worker (BSP rank and cache-client id) to re-home.
        worker: u32,
    },
    /// Move the next chunk of reconstruction data for `disk`.
    RebuildChunk {
        /// Index of the disk being rebuilt.
        disk: u32,
    },
}

/// Wiring a [`ClusterControl`] needs: who to notify, and which cluster
/// nodes play which role.
#[derive(Debug, Clone)]
pub struct ControlWiring {
    /// The BSP job component.
    pub job_id: ComponentId,
    /// The paging (multigrid) component.
    pub solver_id: ComponentId,
    /// The cooperative-cache component.
    pub cache_id: ComponentId,
    /// Initial node of each worker/cache client, by rank.
    pub workers: Vec<u32>,
    /// First network-RAM host node (hosts are `host_base..host_base+hosts`).
    pub host_base: u32,
    /// Number of network-RAM host nodes.
    pub hosts: u32,
    /// Idle workstations available as replacements, lowest dispatched
    /// first.
    pub spares: Vec<u32>,
    /// Nodes holding the storage array's disks (rebuild endpoints).
    pub storage: Vec<u32>,
}

/// Aggregate fault statistics of one scenario run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultOutcome {
    /// Faults the injector broadcast.
    pub injected: u64,
    /// Silent nodes the heartbeat sweep declared failed.
    pub detected: u64,
    /// Mean delay from a node falling silent to its detection, ms.
    pub mean_detection_ms: Option<f64>,
    /// Spare workstations dispatched to replace dead workers.
    pub restarts: u64,
    /// Reconstruction bytes streamed over the fabric.
    pub rebuilt_bytes: u64,
    /// Total time the BSP job spent stalled at a barrier waiting for a
    /// dead worker's replacement.
    pub job_stall: SimDuration,
}

/// The cluster's fault-handling brain (see the module docs).
#[derive(Debug)]
pub struct ClusterControl {
    monitor: HeartbeatMonitor,
    wiring: ControlWiring,
    /// Current node of each worker rank (updated on spare dispatch).
    assignment: Vec<u32>,
    /// Nodes physically down due to a crash.
    crashed: BTreeSet<u32>,
    /// Nodes silenced by a link partition (memory intact).
    partitioned: BTreeSet<u32>,
    /// When each currently-silent node fell silent.
    silent_since: BTreeMap<u32, SimTime>,
    /// Worker ranks whose restart is scheduled but not yet fired.
    pending_restart: BTreeSet<u32>,
    /// Crashed ex-worker nodes that were replaced; on reboot they join
    /// the spare pool instead of reclaiming their rank.
    former: BTreeSet<u32>,
    degraded_disks: BTreeSet<u32>,
    rebuild_remaining: BTreeMap<u32, u64>,
    rebuild_seq: u64,
    rebuild_bytes_per_disk: u64,
    restart_delay: SimDuration,
    tick_until: SimTime,
    detected: u64,
    detection_latency: SimDuration,
    restarts: u64,
    rebuilt_bytes: u64,
    probe: Probe,
}

impl ClusterControl {
    /// Creates a control over nodes `0..nodes` with the given detection
    /// config and wiring. Heartbeat ticks self-arm until `tick_until`,
    /// which must cover the plan's last fault plus a detection window.
    pub fn new(
        nodes: u32,
        membership: MembershipConfig,
        restart_delay: SimDuration,
        rebuild_bytes_per_disk: u64,
        wiring: ControlWiring,
        tick_until: SimTime,
    ) -> Self {
        let assignment = wiring.workers.clone();
        ClusterControl {
            monitor: HeartbeatMonitor::new(nodes, membership),
            wiring,
            assignment,
            crashed: BTreeSet::new(),
            partitioned: BTreeSet::new(),
            silent_since: BTreeMap::new(),
            pending_restart: BTreeSet::new(),
            former: BTreeSet::new(),
            degraded_disks: BTreeSet::new(),
            rebuild_remaining: BTreeMap::new(),
            rebuild_seq: 0,
            rebuild_bytes_per_disk,
            restart_delay,
            tick_until,
            detected: 0,
            detection_latency: SimDuration::ZERO,
            restarts: 0,
            rebuilt_bytes: 0,
            probe: Probe::disabled(),
        }
    }

    /// Attaches a telemetry probe counting `fault.detected`,
    /// `fault.restarts`, and `fault.rebuild_chunks`.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Silent nodes detected so far.
    pub fn detected(&self) -> u64 {
        self.detected
    }

    /// Mean silence-to-detection delay in milliseconds.
    pub fn mean_detection_ms(&self) -> Option<f64> {
        (self.detected > 0)
            .then(|| self.detection_latency.as_micros_f64() / 1e3 / self.detected as f64)
    }

    /// Spares dispatched so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Reconstruction bytes streamed so far.
    pub fn rebuilt_bytes(&self) -> u64 {
        self.rebuilt_bytes
    }

    /// Pool index of `node` if it is a network-RAM host.
    fn host_index(&self, node: u32) -> Option<u32> {
        (self.wiring.host_base..self.wiring.host_base + self.wiring.hosts)
            .contains(&node)
            .then(|| node - self.wiring.host_base)
    }

    /// Rank currently assigned to `node`, if any.
    fn worker_of(&self, node: u32) -> Option<u32> {
        self.assignment
            .iter()
            .position(|&n| n == node)
            .map(|w| w as u32)
    }

    fn on_fault<M>(&mut self, ctx: &mut Ctx<'_, M>, fault: Fault)
    where
        M: EventCast<ControlEvent>
            + EventCast<PageEvent>
            + EventCast<CacheEvent>
            + EventCast<JobEvent>
            + 'static,
    {
        let now = ctx.now();
        match fault {
            Fault::NodeCrash { node } => {
                self.monitor.silence(node);
                self.crashed.insert(node);
                self.silent_since.insert(node, now);
                if let Some(idx) = self.host_index(node) {
                    let ev = <M as EventCast<PageEvent>>::upcast(PageEvent::HostCrashed(idx));
                    ctx.send_to(self.wiring.solver_id, ev);
                }
                if let Some(w) = self.worker_of(node) {
                    let ev = <M as EventCast<CacheEvent>>::upcast(CacheEvent::ClientFailed(w));
                    ctx.send_to(self.wiring.cache_id, ev);
                    let ev = <M as EventCast<JobEvent>>::upcast(JobEvent::WorkerDown(node));
                    ctx.send_to(self.wiring.job_id, ev);
                }
            }
            Fault::NodeReboot { node } => {
                self.monitor.unsilence(node, now);
                self.crashed.remove(&node);
                self.silent_since.remove(&node);
                if let Some(idx) = self.host_index(node) {
                    let ev = <M as EventCast<PageEvent>>::upcast(PageEvent::HostRejoined(idx));
                    ctx.send_to(self.wiring.solver_id, ev);
                }
                if self.former.remove(&node) {
                    // Its rank was re-homed while it was down; the fresh
                    // reboot joins the spare pool.
                    self.wiring.spares.push(node);
                } else if let Some(w) = self.worker_of(node) {
                    // Came back before any spare was dispatched: resume
                    // in place, cold.
                    self.pending_restart.remove(&w);
                    let ev = <M as EventCast<CacheEvent>>::upcast(CacheEvent::ClientRecovered {
                        client: w,
                        node,
                    });
                    ctx.send_to(self.wiring.cache_id, ev);
                    let ev = <M as EventCast<JobEvent>>::upcast(JobEvent::WorkerReplaced {
                        node,
                        replacement: node,
                    });
                    ctx.send_to(self.wiring.job_id, ev);
                }
            }
            Fault::LinkDown { node } => {
                self.monitor.silence(node);
                self.partitioned.insert(node);
                self.silent_since.insert(node, now);
                if self.worker_of(node).is_some() {
                    let ev = <M as EventCast<JobEvent>>::upcast(JobEvent::WorkerDown(node));
                    ctx.send_to(self.wiring.job_id, ev);
                }
            }
            Fault::LinkUp { node } => {
                self.monitor.unsilence(node, now);
                self.partitioned.remove(&node);
                self.silent_since.remove(&node);
                if let Some(w) = self.worker_of(node) {
                    // The partition never destroyed state: the worker
                    // resumes on its own node with its memory intact.
                    self.pending_restart.remove(&w);
                    let ev = <M as EventCast<JobEvent>>::upcast(JobEvent::WorkerReplaced {
                        node,
                        replacement: node,
                    });
                    ctx.send_to(self.wiring.job_id, ev);
                }
            }
            Fault::DiskFail { disk } => {
                self.rebuild_remaining.remove(&disk);
                let was_healthy = self.degraded_disks.is_empty();
                self.degraded_disks.insert(disk);
                if was_healthy {
                    let ev =
                        <M as EventCast<CacheEvent>>::upcast(CacheEvent::StorageDegraded(true));
                    ctx.send_to(self.wiring.cache_id, ev);
                }
            }
            Fault::DiskReplace { disk } => {
                if self.degraded_disks.contains(&disk) {
                    self.rebuild_remaining
                        .insert(disk, self.rebuild_bytes_per_disk);
                    let ev =
                        <M as EventCast<ControlEvent>>::upcast(ControlEvent::RebuildChunk { disk });
                    ctx.schedule_at(now, ev);
                }
            }
        }
    }

    fn on_tick<M>(&mut self, ctx: &mut Ctx<'_, M>)
    where
        M: EventCast<ControlEvent> + 'static,
    {
        let now = ctx.now();
        for node in self.monitor.tick(now) {
            self.detected += 1;
            self.probe.count("fault.detected", 1);
            if let Some(t0) = self.silent_since.get(&node) {
                self.detection_latency += now.saturating_since(*t0);
            }
            if self.crashed.contains(&node) {
                if let Some(w) = self.worker_of(node) {
                    self.pending_restart.insert(w);
                    // The edge to the Restart event is pure recovery
                    // latency: the spare waits out the restart delay.
                    ctx.blame(category::FAULT_RECOVERY, self.restart_delay);
                    let ev =
                        <M as EventCast<ControlEvent>>::upcast(ControlEvent::Restart { worker: w });
                    ctx.schedule_at(now + self.restart_delay, ev);
                }
            }
        }
        let next = now + self.monitor.config().heartbeat;
        if next <= self.tick_until {
            // Tick-to-tick edges are the failure detector's sweep cadence;
            // a path stalled on an undetected crash runs through them.
            ctx.blame(category::FAULT_DETECTION, self.monitor.config().heartbeat);
            ctx.schedule_at(
                next,
                <M as EventCast<ControlEvent>>::upcast(ControlEvent::Tick),
            );
        }
    }

    fn on_restart<M>(&mut self, ctx: &mut Ctx<'_, M>, worker: u32)
    where
        M: EventCast<CacheEvent> + EventCast<JobEvent> + 'static,
    {
        if !self.pending_restart.remove(&worker) {
            // The node rebooted (or its link came back) before the spare
            // shipped: nothing to do.
            return;
        }
        let Some(replacement) = self.wiring.spares.pop() else {
            // No spare left: the job stays stalled until the node's own
            // reboot arrives.
            return;
        };
        let node = self.assignment[worker as usize];
        self.former.insert(node);
        self.assignment[worker as usize] = replacement;
        self.restarts += 1;
        self.probe.count("fault.restarts", 1);
        let ev = <M as EventCast<JobEvent>>::upcast(JobEvent::WorkerReplaced { node, replacement });
        ctx.send_to(self.wiring.job_id, ev);
        let ev = <M as EventCast<CacheEvent>>::upcast(CacheEvent::ClientRecovered {
            client: worker,
            node: replacement,
        });
        ctx.send_to(self.wiring.cache_id, ev);
    }

    fn on_rebuild_chunk<M>(&mut self, ctx: &mut Ctx<'_, M>, disk: u32)
    where
        M: EventCast<ControlEvent> + EventCast<CacheEvent> + 'static,
    {
        let Some(&remaining) = self.rebuild_remaining.get(&disk) else {
            return; // the disk re-failed mid-rebuild
        };
        let chunk = REBUILD_CHUNK_BYTES.min(remaining);
        let done_at = match ctx.cost_mode() {
            CostMode::Fixed => ctx.now(),
            CostMode::Fabric => {
                // Reconstruction reads stripe data from the surviving
                // disks' nodes (rotating) and writes to the replacement.
                let dst = self.wiring.storage[disk as usize % self.wiring.storage.len()];
                let peers: Vec<u32> = self
                    .wiring
                    .storage
                    .iter()
                    .copied()
                    .filter(|&n| n != dst)
                    .collect();
                let src = if peers.is_empty() {
                    dst
                } else {
                    peers[(self.rebuild_seq % peers.len() as u64) as usize]
                };
                self.rebuild_seq += 1;
                if src == dst {
                    ctx.now()
                } else {
                    ctx.transfer(src, dst, chunk, ctx.now()).delivered
                }
            }
        };
        self.rebuilt_bytes += chunk;
        self.probe.count("fault.rebuild_chunks", 1);
        let left = remaining - chunk;
        if left == 0 {
            self.rebuild_remaining.remove(&disk);
            self.degraded_disks.remove(&disk);
            if self.degraded_disks.is_empty() {
                let ev = <M as EventCast<CacheEvent>>::upcast(CacheEvent::StorageDegraded(false));
                ctx.send_to_at(self.wiring.cache_id, done_at, ev);
            }
            ctx.blame(
                category::FAULT_RECOVERY,
                done_at.saturating_since(ctx.now()),
            );
            ctx.mark("rebuild.complete", done_at);
        } else {
            self.rebuild_remaining.insert(disk, left);
            ctx.blame(
                category::FAULT_RECOVERY,
                done_at.saturating_since(ctx.now()),
            );
            let ev = <M as EventCast<ControlEvent>>::upcast(ControlEvent::RebuildChunk { disk });
            ctx.schedule_at(done_at, ev);
        }
    }
}

impl<M> Component<M> for ClusterControl
where
    M: EventCast<ControlEvent>
        + EventCast<PageEvent>
        + EventCast<CacheEvent>
        + EventCast<JobEvent>
        + 'static,
{
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        match <M as EventCast<ControlEvent>>::downcast(event) {
            ControlEvent::Fault(fault) => self.on_fault(ctx, fault),
            ControlEvent::Tick => self.on_tick(ctx),
            ControlEvent::Restart { worker } => self.on_restart(ctx, worker),
            ControlEvent::RebuildChunk { disk } => self.on_rebuild_chunk(ctx, disk),
        }
    }
}
