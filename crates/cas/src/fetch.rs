//! Image distribution as an engine component.
//!
//! A set of fetcher nodes cold-start container images whose manifests
//! they already hold (the [`PartialCache`] keeps hierarchies resident);
//! the missing block *data* must come over the fabric. One
//! [`FetchCore`] runs either of two competing strategies:
//!
//! * [`FetchStrategy::Registry`] — every node pulls every missing block
//!   from the registry, whose handful of NICs serialize under load. This
//!   is the classic `docker pull` stampede: cold-start time grows with
//!   the node count once the registry links saturate.
//! * [`FetchStrategy::Cooperative`] — nodes first ask the registry's
//!   tracker which peer already holds a block and fetch it peer-to-peer,
//!   falling back to the registry for blocks nobody has yet. Data legs
//!   spread over the per-node links, so cold-start time flattens as nodes
//!   are added.
//!
//! Every leg reserves real occupancy on the engine's shared interconnect
//! ([`Engine::with_transport`](now_sim::Engine::with_transport)), so the
//! crossover between the strategies *emerges* from contention. Time on
//! the critical path is blamed to [`category::CAS_REGISTRY`],
//! [`category::CAS_PEER`] and [`category::CAS_DISK`], so the blame table
//! partitions the cold-start makespan by *cause*.

use std::collections::{HashMap, HashSet};

use now_probe::causal::category;
use now_probe::{Gauge, Probe};
use now_sim::{Component, Ctx, EventCast, IdBuildHasher, SimDuration, SimRng, SimTime};

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

/// Which distribution strategy a [`FetchCore`] runs.
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

/// Size of a block request message.
const REQUEST_BYTES: u64 = 128;
/// Size of a tracker lookup request (cooperative only).
const LOOKUP_BYTES: u64 = 96;
/// Size of a tracker lookup reply (cooperative only).
const LOOKUP_REPLY_BYTES: u64 = 32;
/// Registry disk service per cold (first-touch) block; later touches hit
/// the registry's page cache.
const DISK_READ: SimDuration = SimDuration::from_millis(2);
/// CPU time a peer spends serving one block from its cache.
const PEER_SERVICE: SimDuration = SimDuration::from_micros(50);

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
    /// Seed for the per-node download-order shuffle.
    pub seed: u64,
}

impl FetchConfig {
    /// A config of `fetchers` fetchers, `registry_nics` registry NICs, a
    /// `cache_budget`-byte partial cache per node and a shuffle `seed`.
    /// Every run prices 128 B requests, 96/32 B lookups, 2 ms cold disk
    /// reads and 50 µs peer service.
    pub fn new(fetchers: u32, registry_nics: u32, cache_budget: u64, seed: u64) -> Self {
        assert!(fetchers > 0, "need at least one fetcher");
        assert!(registry_nics > 0, "the registry needs at least one NIC");
        FetchConfig {
            fetchers,
            registry_nics,
            cache_budget,
            seed,
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
    /// hash — always zero unless the simulation corrupts data. Every
    /// delivery counts on its own, including one that carries a buffer
    /// already re-hashed for an earlier node and takes that result. Final
    /// once [`FetchCore::complete`] is true.
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

/// A distribution cold start as an engine [`Component`]: per-node plans,
/// the partial caches, holder tracking, and the cost/blame accounting.
/// The strategy only decides where each block's data leg comes from.
/// Fetcher `i` is fabric node `i`, and the registry's NICs follow them.
pub struct FetchCore {
    strategy: FetchStrategy,
    config: FetchConfig,
    store: BlockStore,
    manifests: Vec<ImageManifest>,
    /// Per image: its unique blocks in manifest order, built once.
    blocks: Vec<Vec<BlockHash>>,
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
    /// Deliveries whose buffer no earlier re-hash covers, verified
    /// [`LANES`] at a time. Never holds two deliveries to one node of one
    /// block: each node's plan lists a block once.
    pending: Vec<Delivery>,
    /// Manifest hash → the buffer last re-hashed for it and the hash its
    /// bytes gave. A `Bytes` is immutable and this clone keeps its
    /// allocation alive, so a delivery of the same buffer (same pointer,
    /// same length) carries the same bytes and takes the stored result.
    verified: HashMap<BlockHash, (bytes::Bytes, BlockHash), IdBuildHasher>,
    /// Bytes re-hashed so far, to check the memo's traffic.
    #[cfg(test)]
    rehashed_bytes: u64,
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
    /// A distribution of `catalog` under `config`, by `strategy`.
    ///
    /// # Panics
    ///
    /// Panics if the catalog has no image.
    pub fn new(catalog: ImageCatalog, strategy: FetchStrategy, config: FetchConfig) -> Self {
        assert!(
            !catalog.manifests.is_empty(),
            "catalog needs at least one image"
        );
        let mut rng = SimRng::new(config.seed);
        let n = config.fetchers as usize;
        let images: Vec<usize> = (0..n).map(|i| i % catalog.manifests.len()).collect();
        let blocks: Vec<Vec<BlockHash>> = catalog
            .manifests
            .iter()
            .map(ImageManifest::unique_blocks)
            .collect();
        let plans: Vec<Vec<BlockHash>> = images
            .iter()
            .map(|&img| {
                let mut plan = blocks[img].clone();
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
            blocks,
            images,
            plans,
            pos: vec![0; n],
            caches,
            cached_bytes: 0,
            holders: HashMap::default(),
            warmed: HashSet::default(),
            delivered: vec![HashMap::default(); n],
            pending: Vec::with_capacity(LANES),
            verified: HashMap::default(),
            #[cfg(test)]
            rehashed_bytes: 0,
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

    /// The registry's block store (dedup stats live here).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The image manifests being distributed.
    pub fn manifests(&self) -> &[ImageManifest] {
        &self.manifests
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
        for (node, &img) in self.images.iter().enumerate() {
            for hash in &self.blocks[img] {
                let got = self.delivered[node].get(hash).copied().unwrap_or_default();
                for &b in &got.0.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(PRIME);
                }
            }
        }
        h
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

    /// Accepts a delivered block at `node`: verify the bytes against the
    /// manifest hash, cache them, and update the tracker through any
    /// evictions the insert forced.
    ///
    /// A delivery of the very buffer last re-hashed for `hash` records
    /// that result at once; any other buffer (a corrupt copy, another
    /// block's bytes, a fresh allocation of the same content) is queued
    /// for the next batch. Recording a hit ahead of an earlier queued
    /// delivery cannot change a verdict or the digest: a node's plan lists
    /// a block once, so the two never share an entry, and the completion
    /// flush in [`FetchCore::finish_node`] records every queued one.
    fn accept(&mut self, node: u32, hash: BlockHash, bytes: bytes::Bytes) {
        match self.verified.get(&hash) {
            Some((seen, recomputed))
                if seen.as_ptr() == bytes.as_ptr() && seen.len() == bytes.len() =>
            {
                if *recomputed != hash {
                    self.stats.verify_failures += 1;
                }
                self.delivered[node as usize].insert(hash, *recomputed);
            }
            _ => {
                self.pending.push(Delivery {
                    node,
                    hash,
                    bytes: bytes.clone(),
                });
                if self.pending.len() == LANES {
                    self.verify_pending();
                }
            }
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
    /// side ([`BlockHash::of_chunks`]), records what it found, and keeps
    /// each buffer with its result for [`FetchCore::accept`] to reuse.
    fn verify_pending(&mut self) {
        let seed = self.store.seed();
        let hashes = BlockHash::of_chunks(seed, self.pending.iter().map(|d| &d.bytes[..]));
        #[cfg(test)]
        {
            self.rehashed_bytes += self
                .pending
                .iter()
                .map(|d| d.bytes.len() as u64)
                .sum::<u64>();
        }
        for (delivery, recomputed) in self.pending.drain(..).zip(hashes) {
            if recomputed != delivery.hash {
                self.stats.verify_failures += 1;
            }
            self.delivered[delivery.node as usize].insert(delivery.hash, recomputed);
            self.verified
                .insert(delivery.hash, (delivery.bytes, recomputed));
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
            ctx.blame(category::CAS_DISK, DISK_READ);
            DISK_READ
        } else {
            SimDuration::ZERO
        };
        let src = self.fetcher_fabric(node);
        let nic = self.next_nic();
        let disk_starts = if looked_up {
            ctx.now()
        } else {
            let req = ctx.transfer(src, nic, REQUEST_BYTES, ctx.now());
            ctx.blame(category::CAS_REGISTRY, req.total());
            req.delivered
        };
        let data = ctx.transfer(nic, src, len, disk_starts + disk);
        ctx.blame(category::CAS_REGISTRY, data.total());
        if cold {
            // The registry disk seeks exactly once per block; feed the
            // read into its utilization ledger.
            self.probe.busy("cas.disk", disk_starts, disk_starts + disk);
        }
        self.stats.registry_blocks += 1;
        self.stats.registry_bytes += len;
        self.accept(node, hash, bytes);
        self.publish_gauges();
        data.delivered
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
        let nic = self.next_nic();
        let lookup = ctx.rpc(src, nic, LOOKUP_BYTES, LOOKUP_REPLY_BYTES);
        ctx.blame(category::CAS_REGISTRY, lookup.total());
        match self.pick_peer(node, hash) {
            Some(peer) => {
                self.stats.lookup_hits += 1;
                let bytes = self.caches[peer as usize]
                    .get(hash)
                    .expect("tracker only lists resident holders");
                let len = bytes.len() as u64;
                let departs = lookup.delivered + PEER_SERVICE;
                let data = ctx.transfer(self.fetcher_fabric(peer), src, len, departs);
                ctx.blame(category::CAS_PEER, PEER_SERVICE + data.total());
                self.stats.peer_blocks += 1;
                self.stats.peer_bytes += len;
                self.accept(node, hash, bytes);
                self.publish_gauges();
                data.delivered
            }
            None => self.fetch_registry(ctx, node, hash, true),
        }
    }
}

impl<M: EventCast<CasEvent> + 'static> Component<M> for FetchCore {
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageCatalogSpec;
    use now_net::presets;
    use now_sim::Engine;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    /// An engine on the AM-over-ATM fabric, with a node for each of
    /// `fetchers` fetchers and two registry NICs.
    fn fabric_engine(fetchers: u32) -> Engine<CasEvent> {
        Engine::with_transport(Box::new(presets::am_atm(fetchers + 2)))
    }

    /// Runs one distribution of the smoke catalog to completion and
    /// hands the finished core to `read`.
    fn run_with<T>(
        strategy: FetchStrategy,
        fetchers: u32,
        budget: u64,
        read: impl FnOnce(&FetchCore) -> T,
    ) -> T {
        let catalog = ImageCatalog::generate(&ImageCatalogSpec::smoke(42));
        let config = FetchConfig::new(fetchers, 2, budget, 7);
        let mut engine = fabric_engine(fetchers);
        let id = engine.register(FetchCore::new(catalog, strategy, config));
        engine.schedule_at(id, SimTime::ZERO, CasEvent::Start);
        engine.run();
        let core = engine.component::<FetchCore>(id);
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
    /// completion times (folded) and content digest of runs on the fabric
    /// under budgets that evict (20,000 B and 64 KiB) and one that does
    /// not (1 MiB). Seventy fetchers span two words of a holder set.
    /// Captured beside a fixed-cost table of the same runs, which had been
    /// captured from the B-tree holder sets and clock-stamped LRU these
    /// structures replaced, and kept when fixed costs went.
    #[test]
    fn eviction_order_and_peer_choice_are_pinned() {
        use FetchStrategy::{Cooperative, Registry};
        #[rustfmt::skip]
        const FABRIC: [(FetchStrategy, u32, u64, [u64; 13]); 18] = [
            (Registry, 3, 20_000, [
                183, 183, 2611115, 0, 0, 101, 0, 0, 179, 0,
                134014284, 0xa5dbdaf8558a2215, 0xa67f189fe8657963,
            ]),
            (Registry, 3, 64 * 1024, [
                183, 183, 2611115, 0, 0, 101, 0, 0, 169, 0,
                134014284, 0xa5dbdaf8558a2215, 0xa67f189fe8657963,
            ]),
            (Registry, 3, 1024 * 1024, [
                183, 183, 2611115, 0, 0, 101, 0, 0, 0, 0,
                134014284, 0xa5dbdaf8558a2215, 0xa67f189fe8657963,
            ]),
            (Registry, 16, 20_000, [
                980, 980, 13948148, 0, 0, 122, 0, 0, 961, 0,
                368184382, 0x92481fa7acc9b359, 0x5c555127961ec5e5,
            ]),
            (Registry, 16, 64 * 1024, [
                980, 980, 13948148, 0, 0, 122, 0, 0, 911, 0,
                368184382, 0x92481fa7acc9b359, 0x5c555127961ec5e5,
            ]),
            (Registry, 16, 1024 * 1024, [
                980, 980, 13948148, 0, 0, 122, 0, 0, 0, 0,
                368184382, 0x92481fa7acc9b359, 0x5c555127961ec5e5,
            ]),
            (Registry, 70, 20_000, [
                4287, 4287, 61014351, 0, 0, 122, 0, 0, 4201, 0,
                1597270301, 0x2c0c1a2f216f0995, 0xa9e7853314e79701,
            ]),
            (Registry, 70, 64 * 1024, [
                4287, 4287, 61014351, 0, 0, 122, 0, 0, 3981, 0,
                1597270301, 0x2c0c1a2f216f0995, 0xa9e7853314e79701,
            ]),
            (Registry, 70, 1024 * 1024, [
                4287, 4287, 61014351, 0, 0, 122, 0, 0, 0, 0,
                1597270301, 0x2c0c1a2f216f0995, 0xa9e7853314e79701,
            ]),
            (Cooperative, 3, 20_000, [
                183, 183, 2611115, 0, 0, 101, 183, 0, 179, 0,
                160494388, 0x2c80796ac89cda11, 0xa67f189fe8657963,
            ]),
            (Cooperative, 3, 64 * 1024, [
                183, 170, 2441395, 13, 169720, 101, 183, 13, 169, 0,
                155049978, 0x44762d076285cd9, 0xa67f189fe8657963,
            ]),
            (Cooperative, 3, 1024 * 1024, [
                183, 101, 1454999, 82, 1156116, 101, 183, 82, 0, 0,
                142449246, 0x295123baec10f53d, 0xa67f189fe8657963,
            ]),
            (Cooperative, 16, 20_000, [
                980, 788, 11377896, 192, 2570252, 122, 980, 192, 961, 0,
                399900692, 0x47f5d6c95c54130e, 0x5c555127961ec5e5,
            ]),
            (Cooperative, 16, 64 * 1024, [
                980, 526, 7573763, 454, 6374385, 122, 980, 454, 913, 0,
                283524514, 0x9e157e08a8fc9570, 0x5c555127961ec5e5,
            ]),
            (Cooperative, 16, 1024 * 1024, [
                980, 122, 1752863, 858, 12195285, 122, 980, 858, 0, 0,
                234524654, 0xbd7a40952fe9ecc8, 0x5c555127961ec5e5,
            ]),
            (Cooperative, 70, 20_000, [
                4287, 1854, 27054351, 2433, 33960000, 122, 4287, 2433, 4200, 0,
                909619320, 0x143f803efe80a96d, 0xa9e7853314e79701,
            ]),
            (Cooperative, 70, 64 * 1024, [
                4287, 670, 9715368, 3617, 51298983, 122, 4287, 3617, 3984, 0,
                498055712, 0xae20df46cce0342a, 0xa9e7853314e79701,
            ]),
            (Cooperative, 70, 1024 * 1024, [
                4287, 122, 1752863, 4165, 59261488, 122, 4287, 4165, 0, 0,
                393572727, 0x3c20904a249116a4, 0xa9e7853314e79701,
            ]),
        ];
        for (strategy, fetchers, budget, want) in FABRIC {
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

    /// A registry run of `fetchers` nodes over the smoke catalog, which
    /// is generated once and cloned.
    fn smoke_core(fetchers: u32) -> FetchCore {
        static CATALOG: OnceLock<ImageCatalog> = OnceLock::new();
        let catalog = CATALOG.get_or_init(|| ImageCatalog::generate(&ImageCatalogSpec::smoke(42)));
        let config = FetchConfig::new(fetchers, 1, u64::MAX, 7);
        FetchCore::new(catalog.clone(), FetchStrategy::Registry, config)
    }

    /// Per node, in plan order, the block and the buffer it is delivered
    /// in: the registry's own, except that the deliveries numbered in
    /// `corrupt` (in arrival order, node after node) get a fresh copy with
    /// one bit flipped.
    fn deliveries(core: &FetchCore, corrupt: &[usize]) -> Vec<Vec<(BlockHash, bytes::Bytes)>> {
        let mut arrival = 0;
        let mut deliver = |hash: BlockHash| {
            let mut bytes = core.store.get(hash).expect("registry holds the catalog");
            if corrupt.contains(&arrival) {
                let mut flipped = bytes.to_vec();
                flipped[0] ^= 1;
                bytes = bytes::Bytes::from(flipped);
            }
            arrival += 1;
            (hash, bytes)
        };
        let plans = core.plans.iter();
        plans
            .map(|plan| plan.iter().map(|&h| deliver(h)).collect())
            .collect()
    }

    /// Delivers every plan of `fetchers` nodes straight through `accept`,
    /// node after node, finishing each after its last block. The
    /// deliveries numbered in `corrupt` (in arrival order) get one bit
    /// flipped. Returns the stats, the content digest and the number of
    /// deliveries.
    fn deliver_in_order(fetchers: u32, corrupt: &[usize]) -> (FetchStats, u64, usize) {
        let mut core = smoke_core(fetchers);
        let mut arrivals = 0;
        for (node, blocks) in deliveries(&core, corrupt).into_iter().enumerate() {
            for (hash, bytes) in blocks {
                core.accept(node as u32, hash, bytes);
                arrivals += 1;
            }
            core.finish_node(node, SimTime::from_micros(arrivals as u64));
        }
        assert!(core.complete());
        (core.stats(), core.content_digest(), arrivals)
    }

    /// The verify failures and content digest of the deliveries
    /// [`deliver_in_order`] makes, with every delivery hashed on its own
    /// by [`BlockHash::of`] and the digest folded as
    /// [`FetchCore::content_digest`] folds it.
    fn reference_verdicts(fetchers: u32, corrupt: &[usize]) -> (u64, u64) {
        let core = smoke_core(fetchers);
        let seed = core.store.seed();
        let (mut failures, mut digest) = (0, 0xcbf2_9ce4_8422_2325u64);
        for (node, blocks) in deliveries(&core, corrupt).into_iter().enumerate() {
            let got: HashMap<BlockHash, BlockHash> = blocks
                .iter()
                .map(|(hash, bytes)| (*hash, BlockHash::of(seed, bytes)))
                .collect();
            failures += got.iter().filter(|(want, got)| want != got).count() as u64;
            for hash in core.manifests[core.images[node]].unique_blocks() {
                for &b in &got[&hash].0.to_le_bytes() {
                    digest ^= u64::from(b);
                    digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        (failures, digest)
    }

    proptest! {
        // A case hashes up to 7 nodes' deliveries one at a time: about
        // 0.4 s in a debug build.
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Re-hashing each buffer once gives every delivery the verdict
        /// hashing it on its own gives: the same verify failures and
        /// content digest, over 1-7 fetchers (from 5 on, two nodes boot
        /// one image) and random sets of corrupt deliveries.
        #[test]
        fn memoised_verdicts_match_hashing_every_delivery(
            fetchers in 1u32..8,
            picks in prop::collection::vec(any::<u32>(), 0..12),
        ) {
            let arrivals: usize = smoke_core(fetchers).plans.iter().map(Vec::len).sum();
            let corrupt: Vec<usize> = picks.iter().map(|&p| p as usize % arrivals).collect();
            let (stats, digest, _) = deliver_in_order(fetchers, &corrupt);
            prop_assert_eq!(
                (stats.verify_failures, digest),
                reference_verdicts(fetchers, &corrupt)
            );
        }
    }

    #[test]
    fn a_block_keeps_its_own_verdict_after_a_clean_or_corrupt_copy() {
        let fetchers = 5;
        let order = smoke_core(fetchers).plans.concat();
        // A block delivered again more than a batch after its first
        // delivery, which is verified by then.
        let (first, again) = (0..order.len())
            .find_map(|j| {
                let i = order[..j].iter().position(|&h| h == order[j])?;
                (j - i > LANES).then_some((i, j))
            })
            .expect("five fetchers share blocks");
        // Corrupt after an earlier node received it clean, then clean
        // after corrupt.
        for corrupt in [again, first] {
            let (stats, digest, _) = deliver_in_order(fetchers, &[corrupt]);
            assert_eq!(stats.verify_failures, 1, "corrupt delivery {corrupt}");
            assert_eq!(reference_verdicts(fetchers, &[corrupt]), (1, digest));
        }
    }

    #[test]
    fn a_registry_run_rehashes_each_buffer_not_each_delivery() {
        run_with(FetchStrategy::Registry, 16, u64::MAX, |c| {
            let distinct: HashSet<BlockHash> = c.plans.iter().flatten().copied().collect();
            let distinct_bytes: u64 = distinct
                .iter()
                .map(|&h| c.store.get(h).expect("registry holds the catalog").len() as u64)
                .sum();
            let delivered = c.stats().registry_bytes;
            assert!(
                c.rehashed_bytes < delivered,
                "{} B re-hashed of {delivered} B delivered",
                c.rehashed_bytes
            );
            assert!(
                c.rehashed_bytes >= distinct_bytes,
                "{} B re-hashed, {distinct_bytes} B distinct",
                c.rehashed_bytes
            );
        });
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
        let mut engine = fabric_engine(4);
        let mut fetch = FetchCore::new(catalog, FetchStrategy::Registry, config);
        fetch.set_probe(&registry.probe());
        let id = engine.register(fetch);
        engine.schedule_at(id, SimTime::ZERO, CasEvent::Start);
        engine.run();
        let core = engine.component::<FetchCore>(id);
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
