//! Open-loop population serving workload: the "building as server" story.
//!
//! The paper's closing pitch is a NOW serving an entire campus. This module
//! generates that load: a *population* of simulated users (up to millions)
//! issuing requests open-loop — arrivals keep coming at the population's
//! aggregate rate whether or not earlier requests have finished, which is
//! what makes saturation visible as a latency explosion rather than a
//! gentle slowdown. Object popularity is Zipf (a few hot objects dominate),
//! think times are exponential or Pareto, and each request walks the
//! client-cache → server-cache → disk hierarchy of [`crate::CacheConfig`]
//! fame, contending for the engine's shared fabric
//! ([`Engine::with_transport`](now_sim::Engine::with_transport)).
//!
//! Observation is streaming by construction: every latency lands in a
//! [`QuantileSketch`] (O(buckets) memory), and causal tracing uses the
//! engine's 1-in-N trace sampling — each request chain is rooted via
//! `Ctx::schedule_root_at`, so sampled chains are traced end-to-end while
//! the rest cost nothing. Nothing in this module retains per-request state
//! (the open-loop generator needs no per-user state either: only the
//! aggregate arrival rate depends on the population), so memory stays
//! O(nodes + sketch buckets + sampled traces) regardless of run length.

use now_probe::causal::category;
use now_probe::{Gauge, Probe, QuantileSketch};
use now_sim::{
    Component, Ctx, DenseIndex, EventCast, LruCache, SimDuration, SimRng, SimTime, Touch,
    ZipfSampler,
};

use crate::AccessCosts;

/// Request message to the server (object id plus header).
const REQUEST_BYTES: u64 = 64;

/// Per-user pause between finishing one request and issuing the next.
/// Open-loop arrivals at aggregate rate `population / mean_think`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThinkTime {
    /// Memoryless think time with the given mean.
    Exponential {
        /// Mean think time in milliseconds.
        mean_ms: f64,
    },
    /// Heavy-tailed think time (humans: many quick follow-ups, a few long
    /// coffee breaks). Mean is `min_ms * alpha / (alpha - 1)`.
    Pareto {
        /// Scale (minimum) in milliseconds.
        min_ms: f64,
        /// Tail exponent; must be `> 1` for a finite mean.
        alpha: f64,
    },
}

impl ThinkTime {
    /// Mean think time in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        match *self {
            ThinkTime::Exponential { mean_ms } => mean_ms * 1e6,
            ThinkTime::Pareto { min_ms, alpha } => min_ms * 1e6 * alpha / (alpha - 1.0),
        }
    }

    /// Draws one think time in nanoseconds.
    fn draw_ns(&self, rng: &mut SimRng) -> f64 {
        match *self {
            ThinkTime::Exponential { mean_ms } => rng.exponential(mean_ms * 1e6),
            ThinkTime::Pareto { min_ms, alpha } => rng.pareto(min_ms * 1e6, alpha),
        }
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Simulated users generating load. Only the aggregate arrival rate
    /// depends on this, so memory does not grow with it.
    pub population: u64,
    /// Per-user think-time distribution.
    pub think: ThinkTime,
    /// Distinct objects users can request.
    pub catalog_objects: usize,
    /// Zipf skew of object popularity (0 = uniform; ~0.9 is web-like).
    pub zipf_theta: f64,
    /// Blocks each front-end workstation caches.
    pub client_blocks: usize,
    /// Blocks the server caches.
    pub server_blocks: usize,
    /// Size of one served object in bytes.
    pub object_bytes: u64,
    /// Service-time constants. The fabric prices the network legs, so
    /// only a local hit's cost and the disk's increment over a remote
    /// memory read are taken from here.
    pub costs: AccessCosts,
    /// Arrivals stop at this simulated time; in-flight requests drain.
    pub horizon: SimTime,
    /// Workload seed (arrivals, object choice, client assignment).
    pub seed: u64,
    /// Test-only exhaustive mode: additionally retain every raw latency so
    /// tests can compare sketch quantiles against exact ones. Never enable
    /// outside tests — it makes memory O(events) by design.
    pub retain_exact: bool,
}

/// Events driving a [`ServeComponent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEvent {
    /// One user request arrives at a front-end workstation. Each arrival
    /// roots a fresh causal trace and schedules its successor.
    Arrival,
    /// The request reached the server: consult its cache.
    ServerRead {
        /// Requested object.
        object: u32,
        /// Front-end client slot that owns the request.
        client: u32,
        /// Arrival time, for end-to-end latency.
        started: SimTime,
    },
    /// The server's disk finished reading the object; send the response.
    DiskDone {
        /// Requested object.
        object: u32,
        /// Front-end client slot that owns the request.
        client: u32,
        /// Arrival time, for end-to-end latency.
        started: SimTime,
    },
}

/// Where a request was ultimately served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    Local,
    ServerMem,
    Disk,
}

/// The population serving workload as an engine [`Component`].
///
/// Front-end workstations hold private LRU caches over the object catalog;
/// misses travel to the server (whose cache fronts its disk) and the
/// response travels back. Object ids are Zipf ranks, dense in
/// `0..catalog_objects`, so every cache finds an object's slot in a
/// [`DenseIndex`] over the catalog (4 bytes per object per cache) instead
/// of a hash map. Both legs reserve real occupancy on the engine's shared
/// fabric, so the saturation point emerges from contention.
pub struct ServeComponent {
    config: ServeConfig,
    /// Fabric node of each front-end.
    client_nodes: Vec<u32>,
    /// Fabric node of the server.
    server_node: u32,
    clients: Vec<LruCache<u32, DenseIndex>>,
    server: LruCache<u32, DenseIndex>,
    rng: SimRng,
    zipf: ZipfSampler,
    /// Pure-disk service increment (the constants' disk cost includes a
    /// network round trip; the fabric charges that live).
    disk_service: SimDuration,
    sketch: QuantileSketch,
    requests: u64,
    completed: u64,
    local_hits: u64,
    server_hits: u64,
    disk_reads: u64,
    exact: Vec<u64>,
    requests_gauge: Gauge,
    mean_ms_gauge: Gauge,
    local_gauge: Gauge,
    server_gauge: Gauge,
    disk_gauge: Gauge,
}

impl ServeComponent {
    /// Builds the serving cluster: front-end `i` on fabric node
    /// `client_nodes[i]` and the server on `server_node`.
    ///
    /// # Panics
    ///
    /// Panics if `client_nodes` is empty, the catalog is empty, or the
    /// population is zero.
    pub fn new(config: ServeConfig, client_nodes: Vec<u32>, server_node: u32) -> Self {
        assert!(
            !client_nodes.is_empty(),
            "need at least one front-end workstation"
        );
        assert!(config.catalog_objects > 0, "catalog must be non-empty");
        assert!(config.population > 0, "population must be positive");
        let mut rng = SimRng::new(config.seed);
        let zipf = ZipfSampler::new(config.catalog_objects, config.zipf_theta);
        let cache = |blocks| LruCache::with_index(blocks, DenseIndex::new(config.catalog_objects));
        let clients = (0..client_nodes.len())
            .map(|_| cache(config.client_blocks))
            .collect();
        let server = cache(config.server_blocks);
        let disk_service = config.costs.disk.saturating_sub(config.costs.remote_mem);
        // Burn one draw so the arrival stream differs from the fork chain
        // other components derive from the same master seed.
        let _ = rng.f64();
        ServeComponent {
            config,
            client_nodes,
            server_node,
            clients,
            server,
            rng,
            zipf,
            disk_service,
            sketch: QuantileSketch::new(),
            requests: 0,
            completed: 0,
            local_hits: 0,
            server_hits: 0,
            disk_reads: 0,
            exact: Vec::new(),
            requests_gauge: Gauge::default(),
            mean_ms_gauge: Gauge::default(),
            local_gauge: Gauge::default(),
            server_gauge: Gauge::default(),
            disk_gauge: Gauge::default(),
        }
    }

    /// Attaches a telemetry probe publishing the `serve.*` gauges the
    /// flight recorder samples.
    pub fn set_probe(&mut self, probe: &Probe) {
        self.requests_gauge = probe.gauge("serve.requests");
        self.mean_ms_gauge = probe.gauge("serve.mean_ms");
        self.local_gauge = probe.gauge("serve.local_hits");
        self.server_gauge = probe.gauge("serve.server_hits");
        self.disk_gauge = probe.gauge("serve.disk_reads");
    }

    /// The streaming latency sketch (exact count/sum/min/max, bounded-
    /// error quantiles).
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Requests issued.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests completed (equals [`ServeComponent::requests`] once the
    /// engine drains).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests served from the front-end's own cache.
    pub fn local_hits(&self) -> u64 {
        self.local_hits
    }

    /// Requests served from the server's memory.
    pub fn server_hits(&self) -> u64 {
        self.server_hits
    }

    /// Requests that went to the server disk.
    pub fn disk_reads(&self) -> u64 {
        self.disk_reads
    }

    /// Raw latencies in nanoseconds when `retain_exact` was set (tests
    /// only); empty otherwise.
    pub fn exact_latencies(&self) -> &[u64] {
        &self.exact
    }

    /// Approximate footprint of this component's *observation* state (the
    /// latency sketch; the causal log and recorder account for themselves).
    pub fn observation_bytes(&self) -> usize {
        self.sketch.approx_bytes()
    }

    fn node_of(&self, client: u32) -> u32 {
        self.client_nodes[client as usize]
    }

    /// Mean interarrival of the aggregate open-loop stream: one user's
    /// think-time draw divided by the population.
    fn next_gap(&mut self) -> SimDuration {
        let ns = self.config.think.draw_ns(&mut self.rng) / self.config.population as f64;
        SimDuration::from_nanos((ns.max(1.0)) as u64)
    }

    fn complete<M>(&mut self, ctx: &mut Ctx<'_, M>, started: SimTime, end: SimTime, via: Served) {
        let latency = end.saturating_since(started);
        self.sketch.record(latency.as_nanos());
        if self.config.retain_exact {
            self.exact.push(latency.as_nanos());
        }
        self.completed += 1;
        match via {
            Served::Local => self.local_hits += 1,
            Served::ServerMem => self.server_hits += 1,
            Served::Disk => self.disk_reads += 1,
        }
        ctx.mark("serve.done", end);
        self.requests_gauge.set(self.requests as f64);
        self.local_gauge.set(self.local_hits as f64);
        self.server_gauge.set(self.server_hits as f64);
        self.disk_gauge.set(self.disk_reads as f64);
        if let Some(mean) = self.sketch.mean() {
            self.mean_ms_gauge.set(mean / 1e6);
        }
    }

    fn on_arrival<M: EventCast<ServeEvent>>(&mut self, ctx: &mut Ctx<'_, M>) {
        let now = ctx.now();
        // Root the next arrival first, while no blame is pending: each
        // request chain is its own trace, so the engine's 1-in-N sampler
        // picks whole chains and causal memory tracks sampled chains.
        let next = now + self.next_gap();
        if next <= self.config.horizon {
            ctx.schedule_root_at(next, M::upcast(ServeEvent::Arrival));
        }
        let client = self.rng.index(self.clients.len()) as u32;
        // A rank below `catalog_objects`, which `ZipfSampler::new` bounds
        // by `u32::MAX`.
        let object = self.zipf.sample(&mut self.rng) as u32;
        self.requests += 1;
        if self.clients[client as usize].touch(object, false) == Touch::Hit {
            let end = now + self.config.costs.local_mem;
            ctx.blame(category::LOCAL_MEM, self.config.costs.local_mem);
            self.complete(ctx, now, end, Served::Local);
            return;
        }
        // Miss: the request travels to the server.
        let read = ServeEvent::ServerRead {
            object,
            client,
            started: now,
        };
        let (src, dst) = (self.node_of(client), self.server_node);
        let cost = ctx.transfer(src, dst, REQUEST_BYTES, now);
        ctx.blame(category::AM_OVERHEAD, cost.overhead);
        ctx.blame(category::FABRIC_WAIT, cost.wait);
        ctx.blame(category::WIRE, cost.wire);
        ctx.schedule_at(cost.delivered, M::upcast(read));
    }

    fn on_server_read<M: EventCast<ServeEvent>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        object: u32,
        client: u32,
        started: SimTime,
    ) {
        if self.server.touch(object, false) == Touch::Hit {
            let end = self.respond(ctx, client);
            self.complete(ctx, started, end, Served::ServerMem);
            return;
        }
        // Disk read, then the response.
        ctx.blame(category::DISK, self.disk_service);
        ctx.schedule_at(
            ctx.now() + self.disk_service,
            M::upcast(ServeEvent::DiskDone {
                object,
                client,
                started,
            }),
        );
    }

    /// Sends the object back to the requester over the fabric, returning
    /// the delivery time.
    fn respond<M>(&mut self, ctx: &mut Ctx<'_, M>, client: u32) -> SimTime {
        let (src, dst) = (self.server_node, self.node_of(client));
        let cost = ctx.transfer(src, dst, self.config.object_bytes, ctx.now());
        ctx.blame(category::AM_OVERHEAD, cost.overhead);
        ctx.blame(category::FABRIC_WAIT, cost.wait);
        ctx.blame(category::WIRE, cost.wire);
        cost.delivered
    }
}

impl<M: EventCast<ServeEvent> + 'static> Component<M> for ServeComponent {
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        match event.downcast() {
            ServeEvent::Arrival => self.on_arrival(ctx),
            ServeEvent::ServerRead {
                object,
                client,
                started,
            } => self.on_server_read(ctx, object, client, started),
            ServeEvent::DiskDone {
                object: _,
                client,
                started,
            } => {
                let end = self.respond(ctx, client);
                self.complete(ctx, started, end, Served::Disk);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_net::presets;
    use now_sim::{ComponentId, Engine};

    fn config(population: u64) -> ServeConfig {
        ServeConfig {
            population,
            think: ThinkTime::Exponential { mean_ms: 10_000.0 },
            catalog_objects: 512,
            zipf_theta: 0.9,
            client_blocks: 32,
            server_blocks: 128,
            object_bytes: 8_192,
            costs: AccessCosts::paper_defaults(),
            horizon: SimTime::from_millis(500),
            seed: 7,
            retain_exact: false,
        }
    }

    /// Runs `cfg` to completion on a five-node AM-over-ATM fabric:
    /// four front-ends on nodes 0..4, the server on node 4.
    fn run_to_end(cfg: ServeConfig) -> (Engine<ServeEvent>, ComponentId) {
        let mut engine = Engine::with_transport(Box::new(presets::am_atm(5)));
        let serve = ServeComponent::new(cfg, (0..4).collect(), 4);
        let id = engine.register(serve);
        engine.schedule_at(id, SimTime::ZERO, ServeEvent::Arrival);
        engine.run();
        (engine, id)
    }

    fn run(cfg: ServeConfig) -> (u64, u64, u64, u64, u64) {
        let (engine, id) = run_to_end(cfg);
        let c = engine.component::<ServeComponent>(id);
        (
            c.requests(),
            c.completed(),
            c.local_hits(),
            c.server_hits(),
            c.disk_reads(),
        )
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let (requests, completed, local, server, disk) = run(config(20_000));
        assert!(requests > 100, "expected real load, got {requests}");
        assert_eq!(completed, requests);
        assert_eq!(local + server + disk, requests);
    }

    #[test]
    fn popular_catalog_mostly_hits_memory() {
        let (requests, _, local, server, _) = run(config(50_000));
        assert!(
            (local + server) as f64 > 0.5 * requests as f64,
            "zipf traffic should mostly hit a cache: {local}+{server} of {requests}"
        );
    }

    #[test]
    fn arrival_rate_scales_with_population() {
        let (small, ..) = run(config(10_000));
        let (big, ..) = run(config(100_000));
        let ratio = big as f64 / small as f64;
        assert!(
            (5.0..20.0).contains(&ratio),
            "10x population should mean ~10x arrivals, got {ratio:.1}x ({small} -> {big})"
        );
    }

    #[test]
    fn equal_seeds_replay_identically_and_observation_stays_bounded() {
        let a = run(config(30_000));
        let b = run(config(30_000));
        assert_eq!(a, b);

        let (engine, id) = run_to_end(config(30_000));
        let c = engine.component::<ServeComponent>(id);
        assert!(c.observation_bytes() < 64 * 1024);
        assert!(c.exact_latencies().is_empty(), "exact mode is opt-in");
    }

    #[test]
    fn exhaustive_mode_matches_sketch_within_alpha() {
        let mut cfg = config(50_000);
        cfg.retain_exact = true;
        let (engine, id) = run_to_end(cfg);
        let c = engine.component::<ServeComponent>(id);
        let mut exact = c.exact_latencies().to_vec();
        assert_eq!(exact.len() as u64, c.completed());
        exact.sort_unstable();
        for p in [0.5, 0.99, 0.999] {
            let rank = ((p * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1] as f64;
            let est = c.sketch().quantile(p).unwrap();
            assert!(
                (est - truth).abs() <= c.sketch().alpha() * truth + 1.0,
                "p{p}: sketch {est} vs exact {truth}"
            );
        }
    }
}
