//! The correctness oracle: a digest of each run's simulated behaviour,
//! the per-run invariants, and the committed seed-42 digests.
//!
//! The digest covers simulated-behaviour fields only. Memory
//! self-accounting (`workload_bytes`, `observation_bytes`) and causal-log
//! counts are left out, so a change that only saves host memory or
//! observes differently still passes.

use std::collections::BTreeMap;

use crate::workloads::{Outcome, Workload};

/// The seed the committed digests were generated at.
pub const EXPECTED_SEED: u64 = 42;

const EXPECTED: &str = include_str!("../expected/seed42.txt");

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Fnv {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn words(self, ws: &[u64]) -> Fnv {
        ws.iter().fold(self, |h, &w| h.word(w))
    }

    fn float(self, x: Option<f64>) -> Fnv {
        match x {
            Some(v) => self.word(1).word(v.to_bits()),
            None => self.word(0),
        }
    }
}

/// The digest of `outcome`'s simulated-behaviour fields.
pub fn digest(outcome: &Outcome) -> u64 {
    match outcome {
        Outcome::Serve(o) => {
            let s = &o.sketch;
            Fnv::new()
                .words(&[o.requests, o.completed, o.local_hits, o.server_hits])
                .words(&[o.disk_reads, s.count(), s.sum()])
                .words(&[s.min().unwrap_or(0), s.max().unwrap_or(0)])
                .float(s.quantile(0.5))
                .float(s.quantile(0.99))
                .float(s.quantile(0.999))
                .0
        }
        Outcome::Scenario(o) => {
            let p = &o.paging.pager;
            let c = &o.cache;
            let f = &o.faults;
            Fnv::new()
                .word(o.job_makespan.as_nanos())
                .float(o.mean_netram_fetch_us)
                .words(&[
                    o.paging.compute.as_nanos(),
                    o.paging.stall.as_nanos(),
                    o.paging.total.as_nanos(),
                ])
                .words(&[p.accesses, p.hits, p.soft_faults, p.netram_faults])
                .words(&[p.disk_faults, p.writebacks, p.host_evicted_pages])
                .words(&[p.host_lost_pages, p.stall.as_nanos()])
                .words(&[c.reads, c.writes, c.local_hits, c.remote_client_hits])
                .words(&[c.server_hits, c.disk_reads, c.read_time.as_nanos()])
                .words(&[c.forwards, c.skipped_accesses, c.invalidated_blocks])
                .words(&[c.degraded_reads, o.background_frames])
                .float(o.mean_background_latency_us)
                .words(&[f.injected, f.detected, f.restarts, f.rebuilt_bytes])
                .float(f.mean_detection_ms)
                .word(f.job_stall.as_nanos())
                .0
        }
        Outcome::Distribute(o) => {
            Fnv::new()
                .words(&[
                    u64::from(o.fetchers),
                    o.images as u64,
                    o.unique_blocks as u64,
                ])
                .words(&[o.logical_bytes, o.unique_bytes, o.makespan.as_nanos()])
                .words(&[o.registry_blocks, o.registry_bytes, o.peer_blocks])
                .words(&[o.peer_bytes, o.disk_reads, o.lookups, o.lookup_hits])
                .words(&[o.evictions, o.verify_failures, o.content_digest])
                .0
        }
    }
}

/// The invariants every run of any seed must hold.
pub fn invariants(outcome: &Outcome) -> Result<(), String> {
    match outcome {
        Outcome::Serve(o) => {
            if o.completed != o.requests {
                return Err(format!(
                    "completed {} != requests {}",
                    o.completed, o.requests
                ));
            }
            let served = o.local_hits + o.server_hits + o.disk_reads;
            if served != o.requests {
                return Err(format!("served {served} != requests {}", o.requests));
            }
        }
        Outcome::Scenario(o) => {
            if o.job_makespan.is_zero() {
                return Err("job makespan missing".to_string());
            }
        }
        Outcome::Distribute(o) => {
            if o.verify_failures != 0 {
                return Err(format!("{} blocks failed verification", o.verify_failures));
            }
        }
    }
    Ok(())
}

/// The committed digests of `workload` at [`EXPECTED_SEED`], by run.
pub fn expected(workload: Workload) -> BTreeMap<u64, u64> {
    EXPECTED
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            (fields.next()? == workload.name()).then_some(())?;
            let run = fields.next()?.parse().ok()?;
            let digest = u64::from_str_radix(fields.next()?, 16).ok()?;
            Some((run, digest))
        })
        .collect()
}

/// One line of the expected-digest file.
pub fn expected_line(workload: Workload, run: u64, digest: u64) -> String {
    format!("{} {run} {digest:016x}", workload.name())
}
