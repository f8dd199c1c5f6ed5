//! Host time by layer: the split of a traced run's wall time across the
//! simulator's modules, and the layer timings taken from outside the
//! crates through their public functions.

use std::hint::black_box;
use std::time::{Duration, Instant};

use now_cas::{BlockHash, ImageCatalog};
use now_sim::HostProfile;

use crate::stats::median;
use crate::workloads::{self, Bench, Spec, Workload};

/// Host nanoseconds of traced runs, by layer.
///
/// `span_ns` is the benchmark's own span around each run call; the
/// profile covers the part inside `Engine::run`, and the rest of the span
/// (engine, fabric and component construction, outcome assembly) is
/// `core` build time. The parts sum to the span.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Wall time of the spans around the run calls.
    pub span_ns: u64,
    /// Wall time inside `Engine::run`.
    pub engine_ns: u64,
    /// Events dispatched.
    pub events: u64,
    /// Queue, routing and dispatch loop: time no component claimed (`sim`).
    pub dispatch_ns: u64,
    /// Cost-model (fabric and batching transport) time (`net`/`am`).
    pub fabric_ns: u64,
    /// The out-of-core paging process (`mem`).
    pub paging_ns: u64,
    /// The cooperative file cache of the coupled scenario (`cache`).
    pub cache_sim_ns: u64,
    /// The population serving component (`cache`).
    pub serve_ns: u64,
    /// The image fetchers (`cas`).
    pub cas_ns: u64,
    /// The BSP job and the fault machinery that drives it (`core`).
    pub job_ns: u64,
    /// The background traffic generator (`core`).
    pub traffic_ns: u64,
}

impl Ledger {
    /// Adds one traced run: its span and the engine's profile of it.
    pub fn add(&mut self, span: Duration, profile: &HostProfile) {
        self.span_ns += span.as_nanos() as u64;
        self.engine_ns += profile.wall_ns;
        self.events += profile.events;
        self.dispatch_ns += profile.unattributed_ns();
        for c in &profile.components {
            self.fabric_ns += c.fabric_ns;
            let slot = match c.label.as_str() {
                "paging" => &mut self.paging_ns,
                "cache" => &mut self.cache_sim_ns,
                "serve" => &mut self.serve_ns,
                "cas" => &mut self.cas_ns,
                "traffic" => &mut self.traffic_ns,
                // "job", plus "control" and "injector", which only act
                // when a fault plan stalls the job.
                _ => &mut self.job_ns,
            };
            *slot += c.self_ns;
        }
    }

    /// Span time outside `Engine::run`.
    pub fn build_ns(&self) -> u64 {
        self.span_ns.saturating_sub(self.engine_ns)
    }

    /// Each layer's share of the span, as `(metric, share)`. The shares
    /// sum to 1 up to clock skew between the profiler and the span.
    pub fn shares(&self) -> [(&'static str, f64); 9] {
        let share = |ns: u64| ratio(ns as f64, self.span_ns as f64);
        [
            ("sim.dispatch_share", share(self.dispatch_ns)),
            ("net.fabric_share", share(self.fabric_ns)),
            ("mem.paging_share", share(self.paging_ns)),
            ("cache.sim_share", share(self.cache_sim_ns)),
            ("cache.serve_share", share(self.serve_ns)),
            ("cas.fetch_share", share(self.cas_ns)),
            ("core.build_share", share(self.build_ns())),
            ("core.job_share", share(self.job_ns)),
            ("core.traffic_share", share(self.traffic_ns)),
        ]
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Layer timings measured from outside the crates, independent of the
/// workload being run.
#[derive(Debug, Clone)]
pub struct OutsideIn {
    /// `BlockHash::of` throughput over the distribution catalog's chunks.
    pub hash_mb_per_s: f64,
    /// `ImageCatalog::generate` of the distribution catalog.
    pub catalog_gen_ms: f64,
    /// One 8-cell run ÷ the sum of its 8 single-cell runs, minus 1.
    pub partition_overhead: f64,
    /// 8 single-cell runs batched at the `cells_batched` quantum ÷ the
    /// same runs unbatched, minus 1.
    pub batching_host_cost: f64,
    /// Catalog chunks whose recomputed hash differed from the stored one.
    pub hash_mismatches: u64,
}

/// Passes over the catalog per hash-throughput sample.
const HASH_PASSES: usize = 4;

/// Takes each outside-in timing `reps` times at `seed` and reports the
/// medians.
pub fn outside_in(seed: u64, reps: usize) -> OutsideIn {
    let catalog_spec = workloads::catalog_spec(seed);
    let mut gen_ms = Vec::with_capacity(reps);
    let mut hash_mb_s = Vec::with_capacity(reps);
    let mut hash_mismatches = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let catalog = black_box(ImageCatalog::generate(black_box(&catalog_spec)));
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let store = &catalog.store;
        let chunks: Vec<_> = store
            .hashes()
            .filter_map(|h| Some((h, store.get(h)?)))
            .collect();
        let bytes: usize = chunks.iter().map(|(_, b)| b.len()).sum();
        let t = Instant::now();
        for _ in 0..HASH_PASSES {
            for (stored, chunk) in &chunks {
                let h = BlockHash::of(store.seed(), black_box(chunk));
                hash_mismatches += u64::from(h != *stored);
            }
        }
        let secs = t.elapsed().as_secs_f64();
        hash_mb_s.push(ratio((bytes * HASH_PASSES) as f64 / 1e6, secs));
    }

    // The middle flow count of the `cells_batched` sweep (8 flows).
    let bench = Bench::new(Workload::CellsBatched, seed);
    let multi = bench.spec(3);
    let batched = workloads::single_cells(&multi);
    let unbatched: Vec<Spec> = batched
        .iter()
        .map(|s| workloads::with_batch_quantum(s, 0))
        .collect();
    let time = |specs: &[Spec]| -> f64 {
        specs
            .iter()
            .map(|s| {
                let t = Instant::now();
                black_box(bench.run(s));
                t.elapsed().as_secs_f64()
            })
            .sum()
    };
    let mut partition = Vec::with_capacity(reps);
    let mut batching = Vec::with_capacity(reps);
    for _ in 0..reps {
        let whole = time(std::slice::from_ref(&multi));
        let cells_batched = time(&batched);
        let cells_unbatched = time(&unbatched);
        partition.push(ratio(whole, cells_batched) - 1.0);
        batching.push(ratio(cells_batched, cells_unbatched) - 1.0);
    }

    OutsideIn {
        hash_mb_per_s: median(&hash_mb_s),
        catalog_gen_ms: median(&gen_ms),
        partition_overhead: median(&partition),
        batching_host_cost: median(&batching),
        hash_mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_sim::ComponentProfile;

    #[test]
    fn ledger_parts_sum_to_the_span() {
        let profile = HostProfile {
            wall_ns: 800,
            events: 10,
            components: vec![
                ComponentProfile {
                    label: "paging".to_string(),
                    events: 6,
                    self_ns: 300,
                    fabric_ns: 100,
                },
                ComponentProfile {
                    label: "job".to_string(),
                    events: 4,
                    self_ns: 200,
                    fabric_ns: 50,
                },
            ],
        };
        let mut ledger = Ledger::default();
        ledger.add(Duration::from_nanos(1_000), &profile);
        let sum: f64 = ledger.shares().iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12, "shares sum to {sum}");
        assert_eq!(ledger.dispatch_ns, 150);
        assert_eq!(ledger.fabric_ns, 150);
        assert_eq!(ledger.build_ns(), 200);
    }
}
