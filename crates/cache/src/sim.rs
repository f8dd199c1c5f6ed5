//! The trace-driven cooperative-caching simulator.

use std::collections::{BTreeSet, HashMap, HashSet};

use now_mem::{LruCache, Touch};
use now_probe::causal::category;
use now_probe::{Gauge, Probe};
use now_sim::{
    Component, CostMode, Ctx, Engine, EventCast, IdBuildHasher, SimDuration, SimRng, SimTime,
};
use now_trace::fs::{AccessKind, BlockId, FsTrace};
use serde::{Deserialize, Serialize};

/// Which caching algorithm manages the cluster's memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Private client caches in front of a shared server cache.
    ClientServer,
    /// Server forwards misses to clients that cache the block.
    GreedyForwarding,
    /// Greedy forwarding plus singlet recirculation: a client evicting the
    /// last cached copy pushes it to a random peer, up to `n` times.
    NChance {
        /// Recirculation budget per block.
        n: u32,
    },
    /// Centralized coordination: each client keeps `local_fraction` of its
    /// cache under private LRU; the remainder of the aggregate client
    /// memory is one globally-LRU-managed pool (Dahlin et al.'s upper
    /// bound on practical policies).
    Centralized {
        /// Fraction of each client cache managed privately.
        local_fraction: f64,
    },
}

/// Where a read was served from, with its cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessCosts {
    /// Hit in the requesting client's own memory.
    pub local_mem: SimDuration,
    /// Hit in the server's memory or another client's memory (one network
    /// round trip for an 8-KB block over switched ATM — Table 2).
    pub remote_mem: SimDuration,
    /// Served from the server disk (network + disk — Table 2).
    pub disk: SimDuration,
}

impl AccessCosts {
    /// The constants behind Table 3 (derived from Table 2's ATM column):
    /// 250 µs local, 1,050 µs remote memory, 15,850 µs disk.
    pub fn paper_defaults() -> Self {
        AccessCosts {
            local_mem: SimDuration::from_micros(250),
            remote_mem: SimDuration::from_micros(1_050),
            disk: SimDuration::from_micros(15_850),
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Blocks each client caches (16 MB at 8 KB/block = 2,048).
    pub client_blocks: usize,
    /// Blocks the server caches (128 MB = 16,384).
    pub server_blocks: usize,
    /// Algorithm under test.
    pub policy: Policy,
    /// Service-time constants.
    pub costs: AccessCosts,
    /// Seed for the (deterministic) random peer choice in N-Chance.
    pub seed: u64,
}

impl CacheConfig {
    /// Table 3's configuration: 16-MB clients, 128-MB server.
    pub fn table3(policy: Policy) -> Self {
        CacheConfig {
            client_blocks: 2_048,
            server_blocks: 16_384,
            policy,
            costs: AccessCosts::paper_defaults(),
            seed: 1,
        }
    }

    /// A small configuration proportioned like Table 3, for fast tests
    /// with [`now_trace::fs::FsTraceConfig::small`].
    pub fn small(policy: Policy) -> Self {
        CacheConfig {
            client_blocks: 64,
            server_blocks: 512,
            policy,
            costs: AccessCosts::paper_defaults(),
            seed: 1,
        }
    }
}

/// Aggregate results of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Read accesses simulated.
    pub reads: u64,
    /// Write accesses simulated.
    pub writes: u64,
    /// Reads served from the requester's own cache.
    pub local_hits: u64,
    /// Reads served from another client's cache (forwarding policies).
    pub remote_client_hits: u64,
    /// Reads served from the server's memory.
    pub server_hits: u64,
    /// Reads that went to disk.
    pub disk_reads: u64,
    /// Total read service time.
    pub read_time: SimDuration,
    /// Singlet forwards performed (N-Chance).
    pub forwards: u64,
    /// Trace accesses skipped because their client was dead.
    pub skipped_accesses: u64,
    /// Cached blocks invalidated when a holder crashed.
    pub invalidated_blocks: u64,
    /// Disk reads served while the storage array ran degraded.
    pub degraded_reads: u64,
}

impl SimResult {
    /// Fraction of reads served from disk — Table 3's "cache miss rate".
    pub fn disk_read_rate(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.disk_reads as f64 / self.reads as f64
    }

    /// Mean read response time — Table 3's second column.
    pub fn avg_read_response(&self) -> SimDuration {
        if self.reads == 0 {
            return SimDuration::ZERO;
        }
        self.read_time / self.reads
    }

    /// Fraction of reads hitting the requester's own cache.
    pub fn local_hit_rate(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.local_hits as f64 / self.reads as f64
    }
}

struct Cluster {
    clients: Vec<LruCache<BlockId>>,
    server: LruCache<BlockId>,
    /// The globally coordinated pool (Centralized policy only).
    global: Option<LruCache<BlockId>>,
    /// Which clients cache each block (maintained for all policies; only
    /// consulted by the forwarding ones).
    directory: HashMap<BlockId, HashSet<u32, IdBuildHasher>, IdBuildHasher>,
    /// Recirculation counts for blocks currently recirculating (N-Chance).
    recirc: HashMap<BlockId, u32, IdBuildHasher>,
    rng: SimRng,
}

impl Cluster {
    fn remove_from_directory(&mut self, block: BlockId, client: u32) {
        if let Some(set) = self.directory.get_mut(&block) {
            set.remove(&client);
            if set.is_empty() {
                self.directory.remove(&block);
            }
        }
    }

    /// Inserts `block` into `client`'s cache, handling the eviction chain
    /// according to `policy`.
    fn insert_into_client(&mut self, client: u32, block: BlockId, write: bool, policy: Policy) {
        let touch = self.clients[client as usize].touch(block, write);
        self.directory.entry(block).or_default().insert(client);
        if let Touch::MissEvicted { victim, .. } = touch {
            self.handle_eviction(client, victim, policy);
        }
    }

    fn handle_eviction(&mut self, client: u32, victim: BlockId, policy: Policy) {
        self.remove_from_directory(victim, client);
        if let Policy::Centralized { .. } = policy {
            // A locally evicted block moves to the coordinated pool (if it
            // is not already there) — global LRU decides when it truly
            // leaves client memory.
            if let Some(global) = self.global.as_mut() {
                global.touch(victim, false);
            }
            return;
        }
        let Policy::NChance { n } = policy else {
            self.recirc.remove(&victim);
            return;
        };
        let still_cached = self.directory.contains_key(&victim);
        if still_cached {
            // Not a singlet: safe to drop (another client still has it).
            self.recirc.remove(&victim);
            return;
        }
        let count = self.recirc.get(&victim).copied().unwrap_or(0);
        if count >= n || self.clients.len() < 2 {
            self.recirc.remove(&victim);
            return; // recirculation budget exhausted: drop
        }
        // Forward the singlet to a random *other* client.
        let mut target = self.rng.index(self.clients.len()) as u32;
        if target == client {
            target = (target + 1) % self.clients.len() as u32;
        }
        self.recirc.insert(victim, count + 1);
        // The forwarded block lands as that client's MRU block; its own
        // eviction chain is handled recursively.
        let touch = self.clients[target as usize].touch(victim, false);
        self.directory.entry(victim).or_default().insert(target);
        if let Touch::MissEvicted { victim: next, .. } = touch {
            self.handle_eviction(target, next, policy);
        }
    }
}

/// Bytes per cached block (8 KB, as in Table 2).
const BLOCK_BYTES: u64 = 8_192;
/// Bytes of a read request / forward control message.
const REQUEST_BYTES: u64 = 64;

/// Events driving a [`CacheComponent`]: each `Access(i)` replays trace
/// entry `i` and schedules the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// Replay trace entry `i`.
    Access(usize),
    /// A client workstation crashed: its cached blocks are invalidated
    /// (peers fall back to the server and its disk) and its trace
    /// accesses are skipped until it recovers.
    ClientFailed(u32),
    /// A failed client recovers — rebooted, or a spare workstation on
    /// fabric node `node` took over its trace stream — with a cold cache.
    ClientRecovered {
        /// The client slot that comes back.
        client: u32,
        /// Fabric node now hosting it.
        node: u32,
    },
    /// The server's storage array entered (`true`) or left (`false`)
    /// degraded mode: reads keep flowing but disk service doubles while
    /// the surviving disks reconstruct on the fly.
    StorageDegraded(bool),
}

/// Where a remotely served read came from — the one distinction the
/// shared remote-memory cost branches actually need.
#[derive(Debug, Clone, Copy)]
enum RemoteSource {
    /// The centralized policy's coordinated pool, through the manager.
    Pool,
    /// The server's memory.
    Server,
    /// Another client's memory, forwarded through the server.
    Peer {
        /// The client holding the block.
        holder: u32,
    },
}

/// The cooperative-caching simulator as an engine [`Component`]: one trace
/// access per event, replayed in trace order at trace timestamps.
///
/// Under [`CostMode::Fixed`] reads are charged the [`AccessCosts`]
/// constants — identical to the legacy loop, byte-for-byte. Under
/// [`CostMode::Fabric`] every remote read moves real messages over the
/// engine's shared transport: a request/response through the server for
/// server (and pool) hits, a three-hop forward for peer hits, and the
/// network leg of a disk read — so file traffic both suffers and causes
/// fabric contention.
pub struct CacheComponent {
    trace: FsTrace,
    config: CacheConfig,
    cluster: Cluster,
    result: SimResult,
    forwarding: bool,
    /// Fabric node of each client (identity when unset).
    client_nodes: Vec<u32>,
    /// Fabric node of the file server.
    server_node: u32,
    /// Clients currently dead (ordered, for deterministic iteration).
    dead_clients: BTreeSet<u32>,
    /// Whether the server's storage array is running degraded.
    degraded: bool,
    hit_rate_gauge: Gauge,
    read_ms_gauge: Gauge,
}

impl CacheComponent {
    /// Builds the cluster for `config` and takes ownership of the trace.
    ///
    /// # Panics
    ///
    /// Panics if a centralized policy's `local_fraction` is outside
    /// `[0, 1)`.
    pub fn new(trace: FsTrace, config: CacheConfig) -> Self {
        let (client_blocks, global) = match config.policy {
            Policy::Centralized { local_fraction } => {
                assert!(
                    (0.0..1.0).contains(&local_fraction),
                    "local fraction must be in [0, 1)"
                );
                let local = ((config.client_blocks as f64 * local_fraction) as usize).max(1);
                let pool = (config.client_blocks - local) * trace.clients as usize;
                (local, Some(LruCache::new(pool.max(1))))
            }
            _ => (config.client_blocks, None),
        };
        let cluster = Cluster {
            clients: (0..trace.clients)
                .map(|_| LruCache::new(client_blocks))
                .collect(),
            server: LruCache::new(config.server_blocks),
            global,
            directory: HashMap::default(),
            recirc: HashMap::default(),
            rng: SimRng::new(config.seed),
        };
        let forwarding = matches!(
            config.policy,
            Policy::GreedyForwarding | Policy::NChance { .. }
        );
        CacheComponent {
            trace,
            config,
            cluster,
            result: SimResult {
                reads: 0,
                writes: 0,
                local_hits: 0,
                remote_client_hits: 0,
                server_hits: 0,
                disk_reads: 0,
                read_time: SimDuration::ZERO,
                forwards: 0,
                skipped_accesses: 0,
                invalidated_blocks: 0,
                degraded_reads: 0,
            },
            forwarding,
            client_nodes: Vec::new(),
            server_node: 0,
            dead_clients: BTreeSet::new(),
            degraded: false,
            hit_rate_gauge: Gauge::default(),
            read_ms_gauge: Gauge::default(),
        }
    }

    /// Attaches a telemetry probe publishing the `cache.hit_rate`
    /// (fraction of reads served from memory anywhere in the cluster) and
    /// `cache.read_ms` (mean read response) gauges.
    pub fn set_probe(&mut self, probe: &Probe) {
        self.hit_rate_gauge = probe.gauge("cache.hit_rate");
        self.read_ms_gauge = probe.gauge("cache.read_ms");
    }

    /// Places client `i` on fabric node `client_nodes[i]` and the server
    /// on `server_node`. Required for [`CostMode::Fabric`] engines;
    /// ignored under [`CostMode::Fixed`].
    #[must_use]
    pub fn with_placement(mut self, client_nodes: Vec<u32>, server_node: u32) -> Self {
        self.client_nodes = client_nodes;
        self.server_node = server_node;
        self
    }

    /// Timestamp of the first trace access, for seeding `Access(0)`.
    /// `None` for an empty trace (nothing to schedule).
    pub fn first_access_time(&self) -> Option<SimTime> {
        self.trace.accesses.first().map(|a| a.time)
    }

    /// The results accumulated so far (complete once the engine drains).
    pub fn result(&self) -> SimResult {
        self.result
    }

    fn node_of(&self, client: u32) -> u32 {
        self.client_nodes
            .get(client as usize)
            .copied()
            .unwrap_or(client)
    }

    /// The service time of a remotely served read. One code path prices
    /// all three sources; only the hop pattern differs.
    fn remote_cost<M>(
        &self,
        ctx: &mut Ctx<'_, M>,
        client: u32,
        source: RemoteSource,
    ) -> SimDuration {
        match ctx.cost_mode() {
            CostMode::Fixed => self.config.costs.remote_mem,
            CostMode::Fabric => {
                let now = ctx.now();
                let c = self.node_of(client);
                let delivered = match source {
                    // One round trip through the manager/server.
                    RemoteSource::Pool | RemoteSource::Server => {
                        let cost = ctx.rpc(c, self.server_node, REQUEST_BYTES, BLOCK_BYTES);
                        ctx.blame(category::AM_OVERHEAD, cost.overhead);
                        ctx.blame(category::FABRIC_WAIT, cost.wait);
                        ctx.blame(category::WIRE, cost.wire);
                        cost.delivered
                    }
                    // Request to the server, forward to the holder, block
                    // back to the requester.
                    RemoteSource::Peer { holder } => {
                        let h = self.node_of(holder);
                        let server = self.server_node;
                        let at_server = ctx.transfer(c, server, REQUEST_BYTES, now).delivered;
                        let at_holder = ctx.transfer(server, h, REQUEST_BYTES, at_server).delivered;
                        let delivered = ctx.transfer(h, c, BLOCK_BYTES, at_holder).delivered;
                        // The whole three-hop detour is the price of
                        // forwarding; charge it as one term.
                        ctx.blame(category::CACHE_FORWARD, delivered.saturating_since(now));
                        delivered
                    }
                };
                delivered.saturating_since(now)
            }
        }
    }

    /// A read served from somewhere remote: bump the right counters,
    /// charge the shared cost path, cache the block locally. This is the
    /// single code path behind what used to be three copy-pasted
    /// remote-memory branches.
    fn remote_hit<M>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        client: u32,
        block: BlockId,
        source: RemoteSource,
    ) {
        match source {
            RemoteSource::Pool => self.result.remote_client_hits += 1,
            RemoteSource::Server => self.result.server_hits += 1,
            RemoteSource::Peer { .. } => {
                self.result.remote_client_hits += 1;
                self.result.forwards += 1;
            }
        }
        self.result.read_time += self.remote_cost(ctx, client, source);
        self.cluster
            .insert_into_client(client, block, false, self.config.policy);
    }

    /// The service time of a disk read: under a fabric, the network leg is
    /// live and only the disk residue stays constant. While the storage
    /// array runs degraded, the disk residue doubles — a read of a lost
    /// block reconstructs from the surviving disks on the fly.
    fn disk_cost<M>(&self, ctx: &mut Ctx<'_, M>, client: u32) -> SimDuration {
        let residue = self
            .config
            .costs
            .disk
            .saturating_sub(self.config.costs.remote_mem);
        let base = match ctx.cost_mode() {
            CostMode::Fixed => self.config.costs.disk,
            CostMode::Fabric => {
                let now = ctx.now();
                let c = self.node_of(client);
                let cost = ctx.rpc(c, self.server_node, REQUEST_BYTES, BLOCK_BYTES);
                ctx.blame(category::AM_OVERHEAD, cost.overhead);
                ctx.blame(category::FABRIC_WAIT, cost.wait);
                ctx.blame(category::WIRE, cost.wire);
                ctx.blame(
                    category::DISK,
                    if self.degraded {
                        residue + residue
                    } else {
                        residue
                    },
                );
                cost.delivered.saturating_since(now) + residue
            }
        };
        if self.degraded {
            base + residue
        } else {
            base
        }
    }

    /// A client crashed: every block it cached is invalidated (it may
    /// have held the only memory copy — peers now fall back to the
    /// server's memory and disk) and its trace accesses are skipped until
    /// recovery.
    fn fail_client(&mut self, client: u32) {
        if self.dead_clients.contains(&client) {
            return;
        }
        if let Some(cache) = self.cluster.clients.get(client as usize) {
            // Iterate the dying client's own cache (deterministic LRU
            // order), not the hash-ordered directory.
            let held: Vec<BlockId> = cache.iter().copied().collect();
            let capacity = cache.capacity();
            self.result.invalidated_blocks += held.len() as u64;
            for block in held {
                self.cluster.remove_from_directory(block, client);
            }
            self.cluster.clients[client as usize] = LruCache::new(capacity);
        }
        self.dead_clients.insert(client);
    }

    /// A dead client comes back — rebooted, or a spare on `node` took
    /// over — cold.
    fn recover_client(&mut self, client: u32, node: u32) {
        self.dead_clients.remove(&client);
        if let Some(slot) = self.client_nodes.get_mut(client as usize) {
            *slot = node;
        }
    }

    /// Replays trace entry `i`. Exactly the legacy loop body (plus the
    /// dead-client skip, which never fires in fault-free runs).
    fn step<M>(&mut self, ctx: &mut Ctx<'_, M>, i: usize) {
        let access = self.trace.accesses[i];
        let client = access.client;
        assert!(client < self.trace.clients, "client out of range in trace");
        if self.dead_clients.contains(&client) {
            // The workstation issuing this access is down; its user's
            // requests simply don't happen until it recovers.
            self.result.skipped_accesses += 1;
            return;
        }
        let block = access.block;
        let write = access.kind == AccessKind::Write;
        let policy = self.config.policy;

        if write {
            self.result.writes += 1;
            // Write-through: update local cache, invalidate other copies
            // and the server's cached copy (it will re-read from disk).
            let mut holders: Vec<u32> = self
                .cluster
                .directory
                .get(&block)
                .map(|s| s.iter().copied().filter(|&c| c != client).collect())
                .unwrap_or_default();
            // Invalidate in client order, not the HashSet's hash order:
            // the final state is order-independent, but hash order is
            // arbitrary, and a walk in client order keeps replays
            // independent of it.
            holders.sort_unstable();
            for holder in holders {
                self.cluster.clients[holder as usize].remove(&block);
                self.cluster.remove_from_directory(block, holder);
            }
            self.cluster.server.remove(&block);
            if let Some(global) = self.cluster.global.as_mut() {
                global.remove(&block);
            }
            self.cluster.recirc.remove(&block);
            self.cluster.insert_into_client(client, block, true, policy);
            return;
        }

        self.result.reads += 1;
        // Reads reset a block's recirculation budget: it earned its keep.
        self.cluster.recirc.remove(&block);

        // 1. Local cache.
        if self.cluster.clients[client as usize].contains(&block) {
            self.cluster
                .insert_into_client(client, block, false, policy);
            self.result.local_hits += 1;
            self.result.read_time += self.config.costs.local_mem;
            return;
        }

        // 1b. The globally coordinated pool (Centralized policy): another
        // client's memory, reached through the manager in one hop.
        let pool_hit = self.cluster.global.as_mut().is_some_and(|global| {
            if global.contains(&block) {
                global.touch(block, false);
                true
            } else {
                false
            }
        });
        if pool_hit {
            self.remote_hit(ctx, client, block, RemoteSource::Pool);
            return;
        }

        // 2. Server memory.
        if self.cluster.server.contains(&block) {
            self.cluster.server.touch(block, false);
            self.remote_hit(ctx, client, block, RemoteSource::Server);
            return;
        }

        // 3. Another client's memory (forwarding policies only; the
        // baseline server has no directory).
        if self.forwarding {
            // Lowest-numbered holder, not `find`: the directory set's hash
            // order is arbitrary, and the chosen holder decides which
            // fabric links the forward crosses, so the pick must not
            // depend on it.
            let other = self
                .cluster
                .directory
                .get(&block)
                .and_then(|s| s.iter().copied().filter(|&c| c != client).min());
            if let Some(holder) = other {
                self.remote_hit(ctx, client, block, RemoteSource::Peer { holder });
                return;
            }
        }

        // 4. Server disk; the block also lands in the server cache.
        self.result.disk_reads += 1;
        if self.degraded {
            self.result.degraded_reads += 1;
        }
        self.result.read_time += self.disk_cost(ctx, client);
        self.cluster.server.touch(block, false);
        self.cluster
            .insert_into_client(client, block, false, policy);
    }
}

impl<M: EventCast<CacheEvent> + 'static> Component<M> for CacheComponent {
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        match event.downcast() {
            CacheEvent::Access(i) => {
                self.step(ctx, i);
                if self.result.reads > 0 {
                    self.hit_rate_gauge.set(1.0 - self.result.disk_read_rate());
                    self.read_ms_gauge
                        .set(self.result.avg_read_response().as_micros_f64() / 1e3);
                }
                if i + 1 < self.trace.accesses.len() {
                    // The fabric may push the clock past the next trace
                    // timestamp; replay order (and thus the result) is
                    // preserved regardless.
                    let t = self.trace.accesses[i + 1].time.max(ctx.now());
                    ctx.schedule_at(t, M::upcast(CacheEvent::Access(i + 1)));
                } else {
                    ctx.mark("cache.complete", ctx.now());
                }
            }
            CacheEvent::ClientFailed(client) => self.fail_client(client),
            CacheEvent::ClientRecovered { client, node } => self.recover_client(client, node),
            CacheEvent::StorageDegraded(on) => self.degraded = on,
        }
    }
}

/// Runs the trace through the cluster under `config`.
///
/// # Panics
///
/// Panics if the trace names a client beyond its own `clients` count.
pub fn simulate(trace: &FsTrace, config: &CacheConfig) -> SimResult {
    simulate_probed(trace, config, &Probe::disabled())
}

/// [`simulate`] with telemetry: counters under `cache.*` mirror the
/// returned [`SimResult`] (reads, writes, the four read-service classes,
/// and forwards), so a registry-wide snapshot can cross-check Table 3.
///
/// # Panics
///
/// Panics if the trace names a client beyond its own `clients` count.
pub fn simulate_probed(trace: &FsTrace, config: &CacheConfig, probe: &Probe) -> SimResult {
    let mut engine = Engine::new();
    let component = CacheComponent::new(trace.clone(), config.clone());
    let start = component.first_access_time();
    let id = engine.register(component);
    if let Some(t) = start {
        engine.schedule_at(id, t, CacheEvent::Access(0));
    }
    engine.run();
    let r = engine.component::<CacheComponent>(id).result();
    if probe.is_enabled() {
        probe.count("cache.reads", r.reads);
        probe.count("cache.writes", r.writes);
        probe.count("cache.local_hits", r.local_hits);
        probe.count("cache.remote_client_hits", r.remote_client_hits);
        probe.count("cache.server_hits", r.server_hits);
        probe.count("cache.disk_reads", r.disk_reads);
        probe.count("cache.forwards", r.forwards);
        probe.record("cache.read_time.ns", r.read_time);
    }
    r
}

/// Sweeps client-cache capacity, returning `(client_mb, disk_read_rate)`
/// for a fixed policy — the ablation behind "how much client memory does
/// cooperation need?".
pub fn sweep_client_cache(trace: &FsTrace, policy: Policy, client_mbs: &[u64]) -> Vec<(u64, f64)> {
    client_mbs
        .iter()
        .map(|&mb| {
            let mut config = CacheConfig::table3(policy);
            config.client_blocks = (mb * 1024 * 1024 / 8_192) as usize;
            (mb, simulate(trace, &config).disk_read_rate())
        })
        .collect()
}

/// Sweeps the N-Chance recirculation budget, returning `(n, disk_read_rate)`.
pub fn sweep_nchance(trace: &FsTrace, ns: &[u32]) -> Vec<(u32, f64)> {
    ns.iter()
        .map(|&n| {
            let config = CacheConfig::table3(Policy::NChance { n });
            (n, simulate(trace, &config).disk_read_rate())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_trace::fs::{FsTrace, FsTraceConfig};

    fn trace() -> FsTrace {
        FsTrace::generate(&FsTraceConfig::small(), 42)
    }

    #[test]
    fn every_read_is_classified_once() {
        let t = trace();
        for policy in [
            Policy::ClientServer,
            Policy::GreedyForwarding,
            Policy::NChance { n: 2 },
        ] {
            let r = simulate(&t, &CacheConfig::small(policy));
            assert_eq!(
                r.local_hits + r.remote_client_hits + r.server_hits + r.disk_reads,
                r.reads,
                "{policy:?}"
            );
            assert_eq!(r.reads + r.writes, t.len() as u64);
        }
    }

    #[test]
    fn baseline_never_uses_remote_clients() {
        let r = simulate(&trace(), &CacheConfig::small(Policy::ClientServer));
        assert_eq!(r.remote_client_hits, 0);
        assert_eq!(r.forwards, 0);
    }

    #[test]
    fn forwarding_reduces_disk_reads() {
        let t = trace();
        let base = simulate(&t, &CacheConfig::small(Policy::ClientServer));
        let greedy = simulate(&t, &CacheConfig::small(Policy::GreedyForwarding));
        assert!(
            greedy.disk_reads < base.disk_reads,
            "greedy {} vs base {}",
            greedy.disk_reads,
            base.disk_reads
        );
        assert!(greedy.remote_client_hits > 0);
    }

    #[test]
    fn nchance_beats_greedy() {
        // Recirculating singlets into idle clients' caches keeps more of
        // the aggregate memory useful.
        let t = trace();
        let greedy = simulate(&t, &CacheConfig::small(Policy::GreedyForwarding));
        let nchance = simulate(&t, &CacheConfig::small(Policy::NChance { n: 2 }));
        assert!(
            nchance.disk_read_rate() <= greedy.disk_read_rate(),
            "n-chance {} vs greedy {}",
            nchance.disk_read_rate(),
            greedy.disk_read_rate()
        );
    }

    #[test]
    fn response_time_tracks_disk_rate() {
        let t = trace();
        let base = simulate(&t, &CacheConfig::small(Policy::ClientServer));
        let coop = simulate(&t, &CacheConfig::small(Policy::NChance { n: 2 }));
        assert!(coop.avg_read_response() < base.avg_read_response());
    }

    #[test]
    fn deterministic_given_seed() {
        let t = trace();
        let a = simulate(&t, &CacheConfig::small(Policy::NChance { n: 2 }));
        let b = simulate(&t, &CacheConfig::small(Policy::NChance { n: 2 }));
        assert_eq!(a, b);
    }

    #[test]
    fn writes_invalidate_other_copies() {
        // Build a tiny trace by hand: client 0 reads a block, client 1
        // writes it, client 0 reads again — the second read must not be a
        // local hit on a stale copy.
        use now_sim::SimTime;
        use now_trace::fs::{FileId, FsAccess};
        let block = BlockId {
            file: FileId(0),
            block: 0,
        };
        let t = FsTrace {
            accesses: vec![
                FsAccess {
                    time: SimTime::from_secs(1),
                    client: 0,
                    block,
                    kind: AccessKind::Read,
                },
                FsAccess {
                    time: SimTime::from_secs(2),
                    client: 1,
                    block,
                    kind: AccessKind::Write,
                },
                FsAccess {
                    time: SimTime::from_secs(3),
                    client: 0,
                    block,
                    kind: AccessKind::Read,
                },
            ],
            file_blocks: vec![1],
            clients: 2,
        };
        let r = simulate(&t, &CacheConfig::small(Policy::NChance { n: 2 }));
        assert_eq!(r.reads, 2);
        // First read: disk. Second read after invalidation: served from
        // client 1 (the writer) — a remote client hit, not a local hit.
        assert_eq!(r.local_hits, 0);
        assert_eq!(r.disk_reads, 1);
        assert_eq!(r.remote_client_hits, 1);
    }

    #[test]
    fn centralized_is_at_least_as_good_as_nchance() {
        // The coordinated pool is the near-optimal upper bound the
        // practical algorithms chase.
        let t = trace();
        let nchance = simulate(&t, &CacheConfig::small(Policy::NChance { n: 2 }));
        let central = simulate(
            &t,
            &CacheConfig::small(Policy::Centralized {
                local_fraction: 0.2,
            }),
        );
        assert!(
            central.disk_read_rate() <= nchance.disk_read_rate() * 1.15,
            "centralized {} vs n-chance {}",
            central.disk_read_rate(),
            nchance.disk_read_rate()
        );
        assert!(central.remote_client_hits > 0, "pool must be used");
    }

    #[test]
    fn centralized_writes_invalidate_the_pool() {
        use now_sim::SimTime;
        use now_trace::fs::{FileId, FsAccess};
        let block = BlockId {
            file: FileId(0),
            block: 0,
        };
        let mk = |client, secs, kind| FsAccess {
            time: SimTime::from_secs(secs),
            client,
            block,
            kind,
        };
        let t = FsTrace {
            accesses: vec![
                mk(0, 1, AccessKind::Read),  // 0 caches it
                mk(1, 2, AccessKind::Read),  // 1 caches it
                mk(1, 3, AccessKind::Write), // 1 rewrites: all copies stale
                mk(2, 4, AccessKind::Read),  // must not see a stale pool copy
            ],
            file_blocks: vec![1],
            clients: 3,
        };
        let r = simulate(
            &t,
            &CacheConfig::small(Policy::Centralized {
                local_fraction: 0.2,
            }),
        );
        // Reads: 0 -> disk; 1 -> pool/peer or disk; 2 -> writer's cache is
        // not reachable under Centralized (no directory), so pool miss ->
        // disk. The key property: never a stale hit, which would show as 3
        // remote hits with only 1 disk read.
        assert_eq!(r.reads, 3);
        assert!(r.disk_reads >= 2, "stale pool data served: {r:?}");
    }

    #[test]
    fn cache_size_sweep_is_monotone() {
        let t = trace();
        let sweep = sweep_client_cache(&t, Policy::GreedyForwarding, &[1, 4, 16]);
        assert_eq!(sweep.len(), 3);
        assert!(
            sweep[0].1 >= sweep[2].1,
            "more cache cannot mean more misses: {sweep:?}"
        );
    }

    #[test]
    fn nchance_budget_sweep_helps_then_saturates() {
        let t = trace();
        let sweep = sweep_nchance(&t, &[0, 1, 2, 4]);
        assert!(sweep[0].1 >= sweep[1].1, "{sweep:?}");
        // Returns are diminishing: n=4 is not much better than n=2.
        assert!(sweep[3].1 >= sweep[2].1 * 0.8, "{sweep:?}");
    }

    fn run_with_faults(
        trace: &FsTrace,
        config: &CacheConfig,
        faults: Vec<(SimTime, CacheEvent)>,
    ) -> SimResult {
        let mut engine = Engine::new();
        let component = CacheComponent::new(trace.clone(), config.clone());
        let start = component.first_access_time();
        let id = engine.register(component);
        if let Some(t) = start {
            engine.schedule_at(id, t, CacheEvent::Access(0));
        }
        for (t, ev) in faults {
            engine.schedule_at(id, t, ev);
        }
        engine.run();
        engine.component::<CacheComponent>(id).result()
    }

    use now_sim::SimTime;

    #[test]
    fn dead_client_skips_accesses_and_loses_its_cache() {
        use now_trace::fs::{FileId, FsAccess};
        let block = BlockId {
            file: FileId(0),
            block: 0,
        };
        let mk = |secs, kind| FsAccess {
            time: SimTime::from_secs(secs),
            client: 0,
            block,
            kind,
        };
        let t = FsTrace {
            accesses: vec![
                mk(1, AccessKind::Read), // disk, then cached locally
                mk(2, AccessKind::Read), // local hit
                mk(3, AccessKind::Read), // skipped: client is dead
                mk(5, AccessKind::Read), // recovered, cold: remote/server
            ],
            file_blocks: vec![1],
            clients: 2,
        };
        let cfg = CacheConfig::small(Policy::NChance { n: 2 });
        let r = run_with_faults(
            &t,
            &cfg,
            vec![
                (SimTime::from_millis(2_500), CacheEvent::ClientFailed(0)),
                (
                    SimTime::from_millis(4_000),
                    CacheEvent::ClientRecovered { client: 0, node: 0 },
                ),
            ],
        );
        assert_eq!(r.skipped_accesses, 1);
        assert_eq!(r.invalidated_blocks, 1);
        assert_eq!(r.reads, 3, "the skipped access is not a read");
        assert_eq!(r.local_hits, 1);
        // The post-recovery read cannot hit the (cold) local cache.
        assert_eq!(r.server_hits, 1);
        // Fault-free baseline differs: 4 reads, 3 of them local hits.
        let clean = simulate(&t, &cfg);
        assert_eq!(clean.reads, 4);
        assert_eq!(clean.local_hits, 3);
        assert_eq!(clean.skipped_accesses, 0);
    }

    #[test]
    fn degraded_storage_doubles_the_disk_residue() {
        use now_trace::fs::{FileId, FsAccess};
        let t = FsTrace {
            accesses: vec![FsAccess {
                time: SimTime::from_secs(1),
                client: 0,
                block: BlockId {
                    file: FileId(0),
                    block: 0,
                },
                kind: AccessKind::Read,
            }],
            file_blocks: vec![1],
            clients: 1,
        };
        let cfg = CacheConfig::small(Policy::ClientServer);
        let clean = simulate(&t, &cfg);
        let degraded = run_with_faults(
            &t,
            &cfg,
            vec![(SimTime::from_millis(500), CacheEvent::StorageDegraded(true))],
        );
        assert_eq!(clean.disk_reads, 1);
        assert_eq!(degraded.disk_reads, 1);
        assert_eq!(degraded.degraded_reads, 1);
        let penalty = cfg.costs.disk.saturating_sub(cfg.costs.remote_mem);
        assert_eq!(degraded.read_time, clean.read_time + penalty);
    }

    #[test]
    fn costs_are_ordered() {
        let c = AccessCosts::paper_defaults();
        assert!(c.local_mem < c.remote_mem);
        assert!(c.remote_mem.as_micros_f64() * 10.0 < c.disk.as_micros_f64() * 1.05);
    }

    #[test]
    fn zero_reads_yield_zero_rates() {
        use now_trace::fs::FsTrace;
        let t = FsTrace {
            accesses: vec![],
            file_blocks: vec![],
            clients: 1,
        };
        let r = simulate(&t, &CacheConfig::small(Policy::ClientServer));
        assert_eq!(r.disk_read_rate(), 0.0);
        assert_eq!(r.avg_read_response(), SimDuration::ZERO);
    }
}
