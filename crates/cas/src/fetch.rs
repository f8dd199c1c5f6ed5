//! Image-distribution strategies as engine components.
//!
//! A set of fetcher nodes cold-start container images whose manifests
//! they already hold (the [`PartialCache`] keeps hierarchies resident);
//! the missing block *data* must come over the fabric. Two strategies
//! compete:
//!
//! * [`RegistryFetch`] — every node pulls every missing block from the
//!   registry, whose handful of NICs serialize under load. This is the
//!   classic `docker pull` stampede: cold-start time grows with the
//!   node count once the registry links saturate.
//! * [`CooperativeFetch`] — nodes first ask the registry's tracker which
//!   peer already holds a block and fetch it peer-to-peer, falling back
//!   to the registry for blocks nobody has yet. Data legs spread over
//!   the per-node links, so cold-start time flattens as nodes are added.
//!
//! Under [`CostMode::Fabric`] every leg reserves real occupancy on the
//! shared interconnect and the crossover between the strategies *emerges*
//! from contention; under [`CostMode::Fixed`] constant per-leg costs are
//! charged instead (fast unit tests). Time on the critical path is blamed
//! to [`category::CAS_REGISTRY`], [`category::CAS_PEER`] and
//! [`category::CAS_DISK`], so the blame table partitions the cold-start
//! makespan by *cause*.

use std::collections::{HashMap, HashSet};

use now_probe::causal::category;
use now_probe::{Gauge, Probe};
use now_sim::{Component, CostMode, Ctx, EventCast, IdBuildHasher, SimDuration, SimRng, SimTime};

use crate::cache::PartialCache;
use crate::image::ImageCatalog;
use crate::manifest::ImageManifest;
use crate::store::{BlockHash, BlockStore, LANES};

/// Events of the distribution scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasEvent {
    /// Kick-off: every fetcher starts its download plan at once (the
    /// synchronized cold start — a cluster-wide rollout).
    Start,
    /// One fetcher finished its previous step and fetches its next block.
    NodeStep {
        /// Fetcher index in `0..fetchers`.
        node: u32,
    },
}

/// Which distribution strategy a component runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchStrategy {
    /// All block data comes from the registry NICs.
    Registry,
    /// Peers first, registry fallback.
    Cooperative,
}

impl FetchStrategy {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FetchStrategy::Registry => "registry",
            FetchStrategy::Cooperative => "cooperative",
        }
    }
}

/// Shape of one distribution run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchConfig {
    /// Fetcher nodes, on fabric nodes `0..fetchers`.
    pub fetchers: u32,
    /// Registry NICs, on fabric nodes `fetchers..fetchers + registry_nics`.
    /// Requests round-robin over them; each NIC's link serializes.
    pub registry_nics: u32,
    /// Per-node block-data budget in bytes (the partial cache's limit).
    pub cache_budget: u64,
    /// Size of a block request message.
    pub request_bytes: u64,
    /// Size of a tracker lookup request (cooperative only).
    pub lookup_bytes: u64,
    /// Size of a tracker lookup reply (cooperative only).
    pub lookup_reply_bytes: u64,
    /// Registry disk service per cold (first-touch) block; later touches
    /// hit the registry's page cache.
    pub disk_read: SimDuration,
    /// CPU time a peer spends serving one block from its cache.
    pub peer_service: SimDuration,
    /// Seed for the per-node download-order shuffle.
    pub seed: u64,
    /// Fixed-mode cost of one network leg (replaces fabric pricing).
    pub fixed_hop: SimDuration,
    /// Fixed-mode serialization cost per payload byte, in nanoseconds.
    pub fixed_ns_per_byte: u64,
}

impl FetchConfig {
    /// A config with the workload knobs set and the cost constants at
    /// their defaults (128 B requests, 96/32 B lookups, 2 ms cold disk
    /// reads, 50 µs peer service).
    pub fn new(fetchers: u32, registry_nics: u32, cache_budget: u64, seed: u64) -> Self {
        assert!(fetchers > 0, "need at least one fetcher");
        assert!(registry_nics > 0, "the registry needs at least one NIC");
        FetchConfig {
            fetchers,
            registry_nics,
            cache_budget,
            request_bytes: 128,
            lookup_bytes: 96,
            lookup_reply_bytes: 32,
            disk_read: SimDuration::from_millis(2),
            peer_service: SimDuration::from_micros(50),
            seed,
            fixed_hop: SimDuration::from_micros(10),
            fixed_ns_per_byte: 50,
        }
    }
}

/// Counters of one distribution run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Blocks delivered to fetchers (every node counts its own).
    pub delivered_blocks: u64,
    /// Blocks served off the registry NICs.
    pub registry_blocks: u64,
    /// Payload bytes served off the registry NICs.
    pub registry_bytes: u64,
    /// Blocks served peer-to-peer.
    pub peer_blocks: u64,
    /// Payload bytes served peer-to-peer.
    pub peer_bytes: u64,
    /// Cold first-touch registry disk reads.
    pub disk_reads: u64,
    /// Tracker lookups issued (cooperative only).
    pub lookups: u64,
    /// Tracker lookups that found a peer holding the block.
    pub lookup_hits: u64,
    /// Blocks evicted from partial caches under the byte budget.
    pub evictions: u64,
    /// Delivered blocks whose bytes did not re-hash to the manifest's
    /// hash — always zero unless the simulation corrupts data. Final once
    /// [`FetchCore::complete`] is true.
    pub verify_failures: u64,
}

/// A set of fetchers, one bit per node in `ceil(fetchers / 64)` words.
#[derive(Debug, Clone)]
struct NodeSet(Box<[u64]>);

impl NodeSet {
    /// An empty set able to hold nodes `0..nodes`.
    fn new(nodes: u32) -> Self {
        NodeSet(vec![0; (nodes as usize).div_ceil(64)].into_boxed_slice())
    }

    fn insert(&mut self, node: u32) {
        self.0[node as usize / 64] |= 1 << (node % 64);
    }

    fn remove(&mut self, node: u32) {
        self.0[node as usize / 64] &= !(1 << (node % 64));
    }

    /// The set's words with `node` left out.
    fn words_without(&self, node: u32) -> impl Iterator<Item = u64> + '_ {
        let (home, bit) = (node as usize / 64, 1u64 << (node % 64));
        let words = self.0.iter().enumerate();
        words.map(move |(w, &word)| if w == home { word & !bit } else { word })
    }

    /// Counting the members other than `node` in ascending order, the
    /// `rr % others`-th of them; `None` if there are none.
    fn nth_other(&self, node: u32, rr: u64) -> Option<u32> {
        let others: u32 = self.words_without(node).map(u64::count_ones).sum();
        if others == 0 {
            return None;
        }
        let mut nth = (rr % u64::from(others)) as u32;
        for (w, mut word) in self.words_without(node).enumerate() {
            let ones = word.count_ones();
            if nth < ones {
                for _ in 0..nth {
                    word &= word - 1; // drop the lowest member
                }
                return Some(w as u32 * 64 + word.trailing_zeros());
            }
            nth -= ones;
        }
        unreachable!("nth < others")
    }
}

/// A delivered block waiting to be re-hashed.
struct Delivery {
    node: u32,
    hash: BlockHash,
    bytes: bytes::Bytes,
}

/// Shared mechanics of both strategies: per-node plans, the partial
/// caches, holder tracking, and the cost/blame accounting. The strategy
/// only decides where each block's data leg comes from.
pub struct FetchCore {
    strategy: FetchStrategy,
    config: FetchConfig,
    store: BlockStore,
    manifests: Vec<ImageManifest>,
    /// Per node: the image it boots (index into `manifests`).
    images: Vec<usize>,
    /// Per node: its download order (unique blocks, shuffled per node so
    /// simultaneous cold starts don't convoy on the same first block).
    plans: Vec<Vec<BlockHash>>,
    /// Per node: position in its plan.
    pos: Vec<usize>,
    caches: Vec<PartialCache>,
    /// Block-data bytes resident over all caches: the `cas.cached_bytes`
    /// gauge, kept as inserts and evictions happen.
    cached_bytes: u64,
    /// Which fetchers currently hold each block resident (maintained
    /// through evictions) — the tracker's state. A set may be empty.
    holders: HashMap<BlockHash, NodeSet, IdBuildHasher>,
    /// Blocks already read off the registry disk (its page cache).
    warmed: HashSet<BlockHash, IdBuildHasher>,
    /// Per node: manifest hash → recomputed hash of the bytes received,
    /// read in manifest order only.
    delivered: Vec<HashMap<BlockHash, BlockHash, IdBuildHasher>>,
    /// Deliveries not yet re-hashed, verified [`LANES`] at a time.
    pending: Vec<Delivery>,
    /// Round-robin cursors: registry NIC per request, peer per hit.
    rr_nic: u64,
    rr_peer: u64,
    /// Nodes still downloading.
    remaining: u32,
    /// Per node: completion time.
    completions: Vec<SimTime>,
    makespan: SimTime,
    stats: FetchStats,
    delivered_gauge: Gauge,
    registry_bytes_gauge: Gauge,
    peer_bytes_gauge: Gauge,
    disk_reads_gauge: Gauge,
    cached_bytes_gauge: Gauge,
    probe: Probe,
}

impl FetchCore {
    fn new(catalog: ImageCatalog, strategy: FetchStrategy, config: FetchConfig) -> Self {
        assert!(
            !catalog.manifests.is_empty(),
            "catalog needs at least one image"
        );
        let mut rng = SimRng::new(config.seed);
        let n = config.fetchers as usize;
        let images: Vec<usize> = (0..n).map(|i| i % catalog.manifests.len()).collect();
        let plans: Vec<Vec<BlockHash>> = images
            .iter()
            .map(|&img| {
                let mut plan = catalog.manifests[img].unique_blocks();
                let mut fork = rng.fork();
                fork.shuffle(&mut plan);
                plan
            })
            .collect();
        let caches = images
            .iter()
            .map(|&img| PartialCache::new(catalog.manifests[img].clone(), config.cache_budget))
            .collect();
        FetchCore {
            strategy,
            config,
            store: catalog.store,
            manifests: catalog.manifests,
            images,
            plans,
            pos: vec![0; n],
            caches,
            cached_bytes: 0,
            holders: HashMap::default(),
            warmed: HashSet::default(),
            delivered: vec![HashMap::default(); n],
            pending: Vec::with_capacity(LANES),
            rr_nic: 0,
            rr_peer: 0,
            remaining: config.fetchers,
            completions: vec![SimTime::ZERO; n],
            makespan: SimTime::ZERO,
            stats: FetchStats::default(),
            delivered_gauge: Gauge::default(),
            registry_bytes_gauge: Gauge::default(),
            peer_bytes_gauge: Gauge::default(),
            disk_reads_gauge: Gauge::default(),
            cached_bytes_gauge: Gauge::default(),
            probe: Probe::disabled(),
        }
    }

    /// Attaches the `cas.*` gauges the flight recorder samples, plus the
    /// `cas.disk` utilization ledger (registry disk busy time on cold
    /// first-touch reads).
    pub fn set_probe(&mut self, probe: &Probe) {
        self.delivered_gauge = probe.gauge("cas.delivered_blocks");
        self.registry_bytes_gauge = probe.gauge("cas.registry_bytes");
        self.peer_bytes_gauge = probe.gauge("cas.peer_bytes");
        self.disk_reads_gauge = probe.gauge("cas.disk_reads");
        self.cached_bytes_gauge = probe.gauge("cas.cached_bytes");
        self.probe = probe.clone();
    }

    /// The strategy this core runs.
    pub fn strategy(&self) -> FetchStrategy {
        self.strategy
    }

    /// The run's configuration.
    pub fn config(&self) -> &FetchConfig {
        &self.config
    }

    /// The registry's block store (dedup stats live here).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The image manifests being distributed.
    pub fn manifests(&self) -> &[ImageManifest] {
        &self.manifests
    }

    /// The partial caches, one per fetcher.
    pub fn caches(&self) -> &[PartialCache] {
        &self.caches
    }

    /// Counters so far.
    pub fn stats(&self) -> FetchStats {
        self.stats
    }

    /// Per-node completion times (zero until a node finishes).
    pub fn completions(&self) -> &[SimTime] {
        &self.completions
    }

    /// When the last fetcher finished — the cold-start makespan.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Whether every fetcher has finished its plan. Every delivery is
    /// verified by then, so the stats and [`FetchCore::content_digest`]
    /// are final.
    pub fn complete(&self) -> bool {
        self.remaining == 0
    }

    /// A digest over the *bytes each node actually received*: for every
    /// node, the recomputed hashes of its delivered blocks are folded in
    /// the manifest's unique-block order. Arrival order, strategy, and
    /// later evictions cannot change it — only the content can — so a
    /// registry run and a cooperative run of the same catalog must digest
    /// equal.
    pub fn content_digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for node in 0..self.config.fetchers as usize {
            let manifest = &self.manifests[self.images[node]];
            for hash in manifest.unique_blocks() {
                let got = self.delivered[node].get(&hash).copied().unwrap_or_default();
                for &b in &got.0.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(PRIME);
                }
            }
        }
        h
    }

    /// Approximate resident footprint: store, caches, plans, tracker,
    /// the registry's warmed set, the per-node delivery records, and the
    /// verification queue (whose block data the caches already count).
    /// A hash-table bucket costs its entry plus one control byte.
    pub fn approx_bytes(&self) -> usize {
        let caches: usize = self.caches.iter().map(PartialCache::approx_bytes).sum();
        let plans: usize = self.plans.iter().map(|p| p.len() * 8).sum();
        let set_words = (self.config.fetchers as usize).div_ceil(64);
        let holders = self.holders.capacity() * (std::mem::size_of::<(BlockHash, NodeSet)>() + 1)
            + self.holders.len() * set_words * 8;
        let warmed = self.warmed.capacity() * (std::mem::size_of::<BlockHash>() + 1);
        let record = 2 * std::mem::size_of::<BlockHash>() + 1;
        let delivered: usize = self.delivered.iter().map(|d| d.capacity() * record).sum();
        let pending = self.pending.capacity() * std::mem::size_of::<Delivery>();
        self.store.approx_bytes() + caches + plans + holders + warmed + delivered + pending
    }

    /// Fabric node of fetcher `node` (identity placement).
    fn fetcher_fabric(&self, node: u32) -> u32 {
        node
    }

    /// Next registry NIC, round-robin per request.
    fn next_nic(&mut self) -> u32 {
        let nic =
            self.config.fetchers + (self.rr_nic % u64::from(self.config.registry_nics)) as u32;
        self.rr_nic += 1;
        nic
    }

    /// A peer (not `node`) holding `hash`, round-robin over the holder
    /// set so serving load spreads; `None` if nobody else has it.
    fn pick_peer(&mut self, node: u32, hash: BlockHash) -> Option<u32> {
        let peer = self.holders.get(&hash)?.nth_other(node, self.rr_peer)?;
        self.rr_peer += 1;
        Some(peer)
    }

    /// Fixed-mode cost of one network leg carrying `bytes` of payload.
    fn fixed_leg(&self, bytes: u64) -> SimDuration {
        self.config.fixed_hop + SimDuration::from_nanos(bytes * self.config.fixed_ns_per_byte)
    }

    /// Accepts a delivered block at `node`: queue the bytes for
    /// verification against the manifest hash, cache them, and update the
    /// tracker through any evictions the insert forced.
    fn accept(&mut self, node: u32, hash: BlockHash, bytes: bytes::Bytes) {
        self.pending.push(Delivery {
            node,
            hash,
            bytes: bytes.clone(),
        });
        if self.pending.len() == LANES {
            self.verify_pending();
        }
        self.stats.delivered_blocks += 1;
        let cache = &mut self.caches[node as usize];
        let before = cache.used_bytes();
        let victims = cache.insert(hash, bytes);
        self.cached_bytes = self.cached_bytes - before + cache.used_bytes();
        for victim in victims {
            self.stats.evictions += 1;
            if let Some(set) = self.holders.get_mut(&victim) {
                set.remove(node);
            }
        }
        // A block is never the victim of its own insert.
        let fetchers = self.config.fetchers;
        self.holders
            .entry(hash)
            .or_insert_with(|| NodeSet::new(fetchers))
            .insert(node);
    }

    /// Re-hashes every queued delivery from the bytes it received, side by
    /// side ([`BlockHash::of_chunks`]), and records what it found.
    fn verify_pending(&mut self) {
        let seed = self.store.seed();
        let hashes = BlockHash::of_chunks(seed, self.pending.iter().map(|d| &d.bytes[..]));
        for (delivery, recomputed) in self.pending.drain(..).zip(hashes) {
            if recomputed != delivery.hash {
                self.stats.verify_failures += 1;
            }
            self.delivered[delivery.node as usize].insert(delivery.hash, recomputed);
        }
    }

    /// Records fetcher `idx` finishing its plan at `now`. The last one
    /// first verifies the deliveries still queued, so results are final
    /// by the time [`FetchCore::complete`] is true.
    fn finish_node(&mut self, idx: usize, now: SimTime) {
        self.completions[idx] = now;
        if self.remaining == 1 {
            self.verify_pending();
            self.makespan = now;
        }
        self.remaining -= 1;
    }

    fn publish_gauges(&self) {
        self.delivered_gauge.set(self.stats.delivered_blocks as f64);
        self.registry_bytes_gauge
            .set(self.stats.registry_bytes as f64);
        self.peer_bytes_gauge.set(self.stats.peer_bytes as f64);
        self.disk_reads_gauge.set(self.stats.disk_reads as f64);
        self.cached_bytes_gauge.set(self.cached_bytes as f64);
    }

    /// Kick-off: one step event per fetcher, all at `now` (synchronized
    /// cold start). Children of the root, so one trace covers the run.
    fn on_start<M: EventCast<CasEvent>>(&mut self, ctx: &mut Ctx<'_, M>) {
        let now = ctx.now();
        for node in 0..self.config.fetchers {
            ctx.schedule_at(now, M::upcast(CasEvent::NodeStep { node }));
        }
    }

    /// One fetch step: price the next block of `node`'s plan, blame the
    /// legs, and schedule the node's next step at the delivery time.
    fn on_node_step<M: EventCast<CasEvent>>(&mut self, ctx: &mut Ctx<'_, M>, node: u32) {
        let idx = node as usize;
        if self.pos[idx] >= self.plans[idx].len() {
            // Plan exhausted: the edge into this event was the last
            // block's delivery, so `now` is this node's completion.
            self.finish_node(idx, ctx.now());
            if self.complete() {
                ctx.mark("distribute.complete", ctx.now());
            }
            self.publish_gauges();
            return;
        }
        let hash = self.plans[idx][self.pos[idx]];
        self.pos[idx] += 1;
        let delivered_at = match self.strategy {
            FetchStrategy::Registry => self.fetch_registry(ctx, node, hash, false),
            FetchStrategy::Cooperative => self.fetch_cooperative(ctx, node, hash),
        };
        ctx.schedule_at(delivered_at, M::upcast(CasEvent::NodeStep { node }));
    }

    /// Pulls `hash` from a registry NIC: request leg, first-touch disk,
    /// data leg. With `looked_up` the request already travelled as a
    /// tracker lookup (cooperative fallback), so only disk + data are
    /// priced here. Returns the delivery time and leaves the blame for
    /// the caller's schedule to drain.
    fn fetch_registry<M: EventCast<CasEvent>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        node: u32,
        hash: BlockHash,
        looked_up: bool,
    ) -> SimTime {
        let bytes = self.store.get(hash).expect("registry holds the catalog");
        let len = bytes.len() as u64;
        let cold = self.warmed.insert(hash);
        let disk = if cold {
            self.stats.disk_reads += 1;
            ctx.blame(category::CAS_DISK, self.config.disk_read);
            self.config.disk_read
        } else {
            SimDuration::ZERO
        };
        let src = self.fetcher_fabric(node);
        let (disk_starts, delivered_at) = match ctx.cost_mode() {
            CostMode::Fixed => {
                let request = if looked_up {
                    SimDuration::ZERO
                } else {
                    self.fixed_leg(self.config.request_bytes)
                };
                let data = self.fixed_leg(len);
                ctx.blame(category::CAS_REGISTRY, request + data);
                let disk_starts = ctx.now() + request;
                (disk_starts, disk_starts + disk + data)
            }
            CostMode::Fabric => {
                let nic = self.next_nic();
                let disk_starts = if looked_up {
                    ctx.now()
                } else {
                    let req = ctx.transfer(src, nic, self.config.request_bytes, ctx.now());
                    ctx.blame(category::CAS_REGISTRY, req.total());
                    req.delivered
                };
                let data = ctx.transfer(nic, src, len, disk_starts + disk);
                ctx.blame(category::CAS_REGISTRY, data.total());
                (disk_starts, data.delivered)
            }
        };
        if cold {
            // The registry disk seeks exactly once per block; feed the
            // read into its utilization ledger.
            self.probe.busy("cas.disk", disk_starts, disk_starts + disk);
        }
        self.stats.registry_blocks += 1;
        self.stats.registry_bytes += len;
        self.accept(node, hash, bytes);
        self.publish_gauges();
        delivered_at
    }

    /// Asks the tracker who holds `hash`, then fetches from a peer's
    /// cache or falls back to the registry.
    fn fetch_cooperative<M: EventCast<CasEvent>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        node: u32,
        hash: BlockHash,
    ) -> SimTime {
        self.stats.lookups += 1;
        let src = self.fetcher_fabric(node);
        // The lookup travels to a registry NIC in both outcomes; on a
        // miss it doubles as the block request.
        let lookup_done = match ctx.cost_mode() {
            CostMode::Fixed => {
                let cost =
                    self.fixed_leg(self.config.lookup_bytes + self.config.lookup_reply_bytes);
                ctx.blame(category::CAS_REGISTRY, cost);
                ctx.now() + cost
            }
            CostMode::Fabric => {
                let nic = self.next_nic();
                let cost = ctx.rpc(
                    src,
                    nic,
                    self.config.lookup_bytes,
                    self.config.lookup_reply_bytes,
                );
                ctx.blame(category::CAS_REGISTRY, cost.total());
                cost.delivered
            }
        };
        match self.pick_peer(node, hash) {
            Some(peer) => {
                self.stats.lookup_hits += 1;
                let bytes = self.caches[peer as usize]
                    .get(hash)
                    .expect("tracker only lists resident holders");
                let len = bytes.len() as u64;
                let delivered_at = match ctx.cost_mode() {
                    CostMode::Fixed => {
                        let data = self.fixed_leg(len);
                        ctx.blame(category::CAS_PEER, self.config.peer_service + data);
                        lookup_done + self.config.peer_service + data
                    }
                    CostMode::Fabric => {
                        let departs = lookup_done + self.config.peer_service;
                        let data = ctx.transfer(self.fetcher_fabric(peer), src, len, departs);
                        ctx.blame(category::CAS_PEER, self.config.peer_service + data.total());
                        data.delivered
                    }
                };
                self.stats.peer_blocks += 1;
                self.stats.peer_bytes += len;
                self.accept(node, hash, bytes);
                self.publish_gauges();
                delivered_at
            }
            None => self.fetch_registry(ctx, node, hash, true),
        }
    }

    fn on_event<M: EventCast<CasEvent>>(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        match event.downcast() {
            CasEvent::Start => self.on_start(ctx),
            CasEvent::NodeStep { node } => self.on_node_step(ctx, node),
        }
    }
}

impl std::fmt::Debug for FetchCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchCore")
            .field("strategy", &self.strategy)
            .field("fetchers", &self.config.fetchers)
            .field("remaining", &self.remaining)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// The registry-only strategy as an engine [`Component`].
#[derive(Debug)]
pub struct RegistryFetch(FetchCore);

impl RegistryFetch {
    /// A registry-only distribution of `catalog` under `config`.
    pub fn new(catalog: ImageCatalog, config: FetchConfig) -> Self {
        RegistryFetch(FetchCore::new(catalog, FetchStrategy::Registry, config))
    }

    /// The shared mechanics (stats, caches, makespan).
    pub fn core(&self) -> &FetchCore {
        &self.0
    }

    /// Attaches the `cas.*` gauges.
    pub fn set_probe(&mut self, probe: &Probe) {
        self.0.set_probe(probe);
    }
}

impl<M: EventCast<CasEvent> + 'static> Component<M> for RegistryFetch {
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        self.0.on_event(ctx, event);
    }
}

/// The cooperative (peers-first) strategy as an engine [`Component`].
#[derive(Debug)]
pub struct CooperativeFetch(FetchCore);

impl CooperativeFetch {
    /// A cooperative distribution of `catalog` under `config`.
    pub fn new(catalog: ImageCatalog, config: FetchConfig) -> Self {
        CooperativeFetch(FetchCore::new(catalog, FetchStrategy::Cooperative, config))
    }

    /// The shared mechanics (stats, caches, makespan).
    pub fn core(&self) -> &FetchCore {
        &self.0
    }

    /// Attaches the `cas.*` gauges.
    pub fn set_probe(&mut self, probe: &Probe) {
        self.0.set_probe(probe);
    }
}

impl<M: EventCast<CasEvent> + 'static> Component<M> for CooperativeFetch {
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        self.0.on_event(ctx, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageCatalogSpec;
    use now_sim::Engine;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Runs one fixed-cost distribution of the smoke catalog to
    /// completion and hands the finished core to `read`.
    fn run_with<T>(
        strategy: FetchStrategy,
        fetchers: u32,
        budget: u64,
        read: impl FnOnce(&FetchCore) -> T,
    ) -> T {
        let catalog = ImageCatalog::generate(&ImageCatalogSpec::smoke(42));
        let config = FetchConfig::new(fetchers, 2, budget, 7);
        let mut engine: Engine<CasEvent> = Engine::new();
        let id = match strategy {
            FetchStrategy::Registry => engine.register(RegistryFetch::new(catalog, config)),
            FetchStrategy::Cooperative => engine.register(CooperativeFetch::new(catalog, config)),
        };
        engine.schedule_at(id, SimTime::ZERO, CasEvent::Start);
        engine.run();
        let core = match strategy {
            FetchStrategy::Registry => engine.component::<RegistryFetch>(id).core(),
            FetchStrategy::Cooperative => engine.component::<CooperativeFetch>(id).core(),
        };
        assert!(core.complete(), "every fetcher must drain its plan");
        read(core)
    }

    fn run(strategy: FetchStrategy, fetchers: u32, budget: u64) -> (FetchStats, SimTime, u64) {
        run_with(strategy, fetchers, budget, |c| {
            (c.stats(), c.makespan(), c.content_digest())
        })
    }

    #[test]
    fn registry_delivers_and_verifies_every_block() {
        let (stats, makespan, _) = run(FetchStrategy::Registry, 4, u64::MAX);
        assert!(stats.delivered_blocks > 0);
        assert_eq!(stats.registry_blocks, stats.delivered_blocks);
        assert_eq!(stats.peer_blocks, 0);
        assert_eq!(stats.lookups, 0);
        assert_eq!(stats.verify_failures, 0);
        assert!(makespan > SimTime::ZERO);
    }

    #[test]
    fn cooperative_offloads_the_registry() {
        let (stats, _, _) = run(FetchStrategy::Cooperative, 8, u64::MAX);
        assert_eq!(stats.lookups, stats.delivered_blocks);
        assert_eq!(
            stats.peer_blocks + stats.registry_blocks,
            stats.delivered_blocks
        );
        assert!(
            stats.peer_blocks > stats.registry_blocks,
            "with 8 nodes sharing 4 images most blocks should come from \
             peers: {stats:?}"
        );
        assert_eq!(stats.verify_failures, 0);
    }

    #[test]
    fn both_strategies_deliver_identical_content() {
        let (_, _, registry) = run(FetchStrategy::Registry, 6, u64::MAX);
        let (_, _, cooperative) = run(FetchStrategy::Cooperative, 6, u64::MAX);
        assert_eq!(
            registry, cooperative,
            "the bytes a node boots from must not depend on the strategy"
        );
    }

    #[test]
    fn tight_budgets_evict_but_still_deliver() {
        // Budget of 3 chunks per node: far below any image.
        let (stats, _, digest) = run(FetchStrategy::Cooperative, 6, 3 * 16 * 1024);
        assert!(stats.evictions > 0, "budget must force evictions");
        assert_eq!(stats.verify_failures, 0);
        let (_, _, full) = run(FetchStrategy::Cooperative, 6, u64::MAX);
        assert_eq!(digest, full, "evictions must not change delivered bytes");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(FetchStrategy::Cooperative, 8, 64 * 1024);
        let b = run(FetchStrategy::Cooperative, 8, 64 * 1024);
        assert_eq!(a, b);
    }

    /// Eviction order and peer choice, pinned: the full stats, makespan,
    /// completion times (folded) and content digest of fixed-cost runs
    /// under budgets that evict (20,000 B and 64 KiB) and one that does
    /// not (1 MiB). Seventy fetchers span two words of a holder set.
    /// Captured from the B-tree holder sets and clock-stamped LRU these
    /// structures replaced.
    #[test]
    fn eviction_order_and_peer_choice_are_pinned() {
        use FetchStrategy::{Cooperative, Registry};
        #[rustfmt::skip]
        const PINNED: [(FetchStrategy, u32, u64, [u64; 13]); 18] = [
            (Registry, 3, 20_000, [
                183, 183, 2611115, 0, 0, 101, 0, 0, 179, 0,
                114914350, 0x67332670d2fb76e5, 0xa67f189fe8657963,
            ]),
            (Registry, 3, 64 * 1024, [
                183, 183, 2611115, 0, 0, 101, 0, 0, 169, 0,
                114914350, 0x67332670d2fb76e5, 0xa67f189fe8657963,
            ]),
            (Registry, 3, 1024 * 1024, [
                183, 183, 2611115, 0, 0, 101, 0, 0, 0, 0,
                114914350, 0x67332670d2fb76e5, 0xa67f189fe8657963,
            ]),
            (Registry, 16, 20_000, [
                980, 980, 13948148, 0, 0, 122, 0, 0, 961, 0,
                67042550, 0x7db6a0402fa20905, 0x5c555127961ec5e5,
            ]),
            (Registry, 16, 64 * 1024, [
                980, 980, 13948148, 0, 0, 122, 0, 0, 911, 0,
                67042550, 0x7db6a0402fa20905, 0x5c555127961ec5e5,
            ]),
            (Registry, 16, 1024 * 1024, [
                980, 980, 13948148, 0, 0, 122, 0, 0, 0, 0,
                67042550, 0x7db6a0402fa20905, 0x5c555127961ec5e5,
            ]),
            (Registry, 70, 20_000, [
                4287, 4287, 61014351, 0, 0, 122, 0, 0, 4201, 0,
                51432900, 0x11cd05ca788ab423, 0xa9e7853314e79701,
            ]),
            (Registry, 70, 64 * 1024, [
                4287, 4287, 61014351, 0, 0, 122, 0, 0, 3981, 0,
                51432900, 0x11cd05ca788ab423, 0xa9e7853314e79701,
            ]),
            (Registry, 70, 1024 * 1024, [
                4287, 4287, 61014351, 0, 0, 122, 0, 0, 0, 0,
                51432900, 0x11cd05ca788ab423, 0xa9e7853314e79701,
            ]),
            (Cooperative, 3, 20_000, [
                183, 178, 2542112, 5, 69003, 101, 183, 5, 179, 0,
                114113150, 0x3a8e13854c220235, 0xa67f189fe8657963,
            ]),
            (Cooperative, 3, 64 * 1024, [
                183, 168, 2408627, 15, 202488, 101, 183, 15, 169, 0,
                114312350, 0xb95117e5a24afe35, 0xa67f189fe8657963,
            ]),
            (Cooperative, 3, 1024 * 1024, [
                183, 101, 1454999, 82, 1156116, 101, 183, 82, 0, 0,
                115640350, 0xe61b5f03578fc055, 0xa67f189fe8657963,
            ]),
            (Cooperative, 16, 20_000, [
                980, 814, 11570616, 166, 2377532, 122, 980, 166, 961, 0,
                66772550, 0xbe5e56fd43165a05, 0x5c555127961ec5e5,
            ]),
            (Cooperative, 16, 64 * 1024, [
                980, 543, 7870741, 437, 6077407, 122, 980, 437, 910, 0,
                67834950, 0x927df0f111be3fe5, 0x5c555127961ec5e5,
            ]),
            (Cooperative, 16, 1024 * 1024, [
                980, 122, 1752863, 858, 12195285, 122, 980, 858, 0, 0,
                69362150, 0x3d578757e4e9b4c5, 0x5c555127961ec5e5,
            ]),
            (Cooperative, 70, 20_000, [
                4287, 1884, 26535307, 2403, 34479044, 122, 4287, 2403, 4200, 0,
                52952850, 0x1f4db779ea439d33, 0xa9e7853314e79701,
            ]),
            (Cooperative, 70, 64 * 1024, [
                4287, 664, 9532928, 3623, 51481423, 122, 4287, 3623, 3978, 0,
                53882450, 0x7c881e77520f5333, 0xa9e7853314e79701,
            ]),
            (Cooperative, 70, 1024 * 1024, [
                4287, 122, 1752863, 4165, 59261488, 122, 4287, 4165, 0, 0,
                54333700, 0x480e6ee6e17cfdb3, 0xa9e7853314e79701,
            ]),
        ];
        for (strategy, fetchers, budget, want) in PINNED {
            let got = run_with(strategy, fetchers, budget, |c| {
                let s = c.stats();
                let completions = c
                    .completions()
                    .iter()
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, t| {
                        (h ^ t.as_nanos()).wrapping_mul(0x0000_0100_0000_01b3)
                    });
                [
                    s.delivered_blocks,
                    s.registry_blocks,
                    s.registry_bytes,
                    s.peer_blocks,
                    s.peer_bytes,
                    s.disk_reads,
                    s.lookups,
                    s.lookup_hits,
                    s.evictions,
                    s.verify_failures,
                    c.makespan().as_nanos(),
                    completions,
                    c.content_digest(),
                ]
            });
            assert_eq!(got, want, "{strategy:?}, {fetchers} fetchers, {budget} B");
        }
    }

    proptest! {
        /// A holder bitset picks the peer an ordered set picks: the
        /// `rr % others`-th member other than the caller. Up to 130 nodes
        /// (three words), with the caller inside or outside the set.
        #[test]
        fn holder_bitset_picks_like_an_ordered_set(
            nodes in 1u32..131,
            ops in prop::collection::vec((any::<u32>(), 0u8..4), 0..80),
            caller in any::<u32>(),
            caller_holds in any::<bool>(),
            rr in any::<u64>(),
        ) {
            let mut set = NodeSet::new(nodes);
            let mut reference = BTreeSet::new();
            for (node, op) in ops {
                let node = node % nodes;
                if op == 0 {
                    set.remove(node);
                    reference.remove(&node);
                } else {
                    set.insert(node);
                    reference.insert(node);
                }
            }
            let node = caller % nodes;
            if caller_holds {
                set.insert(node);
                reference.insert(node);
            } else {
                set.remove(node);
                reference.remove(&node);
            }
            let others: Vec<u32> = reference.iter().copied().filter(|&h| h != node).collect();
            let want = (!others.is_empty()).then(|| others[(rr % others.len() as u64) as usize]);
            prop_assert_eq!(set.nth_other(node, rr), want);
        }
    }

    /// Delivers every plan of `fetchers` nodes straight through `accept`,
    /// node after node, finishing each after its last block. The
    /// deliveries numbered in `corrupt` (in arrival order) get one bit
    /// flipped. Returns the stats, the content digest and the number of
    /// deliveries.
    fn deliver_in_order(fetchers: u32, corrupt: &[usize]) -> (FetchStats, u64, usize) {
        let catalog = ImageCatalog::generate(&ImageCatalogSpec::smoke(42));
        let config = FetchConfig::new(fetchers, 1, u64::MAX, 7);
        let mut core = FetchCore::new(catalog, FetchStrategy::Registry, config);
        let mut arrivals = 0;
        for node in 0..fetchers as usize {
            for hash in core.plans[node].clone() {
                let mut bytes = core.store.get(hash).expect("registry holds the catalog");
                if corrupt.contains(&arrivals) {
                    let mut flipped = bytes.to_vec();
                    flipped[0] ^= 1;
                    bytes = bytes::Bytes::from(flipped);
                }
                core.accept(node as u32, hash, bytes);
                arrivals += 1;
            }
            core.finish_node(node, SimTime::from_micros(arrivals as u64));
        }
        assert!(core.complete());
        (core.stats(), core.content_digest(), arrivals)
    }

    #[test]
    fn corrupt_deliveries_fail_verification_in_every_batch_slot() {
        // A fetcher count whose deliveries leave the last batch partial.
        let fetchers = (2..8)
            .find(|&n| !deliver_in_order(n, &[]).2.is_multiple_of(LANES))
            .expect("some fetcher count leaves a partial last batch");
        let (clean, clean_digest, arrivals) = deliver_in_order(fetchers, &[]);
        assert_eq!(clean.verify_failures, 0);
        assert_eq!(clean.delivered_blocks, arrivals as u64);
        // The first slot of the second batch, and the last delivery,
        // which only the completion flush verifies.
        let (first_slot, last) = (LANES, arrivals - 1);
        let (stats, digest, _) = deliver_in_order(fetchers, &[first_slot, last]);
        assert_eq!(stats.verify_failures, 2, "both corrupt blocks counted");
        assert_ne!(digest, clean_digest);
        let (stats, digest, _) = deliver_in_order(fetchers, &[last]);
        assert_eq!(
            stats.verify_failures, 1,
            "the final partial batch is verified"
        );
        assert_ne!(digest, clean_digest);
    }

    #[test]
    fn cold_registry_reads_feed_the_disk_ledger() {
        let catalog = ImageCatalog::generate(&ImageCatalogSpec::smoke(42));
        let config = FetchConfig::new(4, 2, u64::MAX, 7);
        let registry = now_probe::Registry::new();
        let mut engine: Engine<CasEvent> = Engine::new();
        let mut fetch = RegistryFetch::new(catalog, config);
        fetch.set_probe(&registry.probe());
        let id = engine.register(fetch);
        engine.schedule_at(id, SimTime::ZERO, CasEvent::Start);
        engine.run();
        let core = engine.component::<RegistryFetch>(id).core();
        let disk_reads = core.stats().disk_reads;
        assert!(disk_reads > 0);
        let snap = registry.snapshot();
        let util = snap.util("cas.disk").expect("cas.disk ledger");
        // One interval per cold read; concurrent fetchers overlap in sim
        // time, so clipping may trim, but busy never exceeds wall.
        assert_eq!(util.intervals, disk_reads);
        assert!(util.busy_ns > 0);
        assert_eq!(util.busy_ns + util.idle_ns(), util.wall_ns);
        assert!(util.busy_ns <= util.wall_ns);
    }
}
