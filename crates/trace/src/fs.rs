//! Synthetic file-system access trace, standing in for the paper's two-day
//! trace of 42 Berkeley workstations (the input to Table 3).
//!
//! What makes cooperative caching win in that trace — and what this
//! generator therefore reproduces — is structural:
//!
//! * **Cross-client sharing.** A small pool of hot shared files
//!   (executables, fonts) is touched by many clients, so a block evicted
//!   from one client's cache is often still warm in another's.
//! * **Skewed popularity.** Accesses follow a Zipf-like law; the head fits
//!   in memory somewhere on the network even when it doesn't fit in any one
//!   client.
//! * **Unequal activity.** Some clients are nearly idle, donating cache
//!   capacity that active clients can borrow.
//! * **Sequential runs.** Files are read in multi-block sequential runs, as
//!   file systems actually see.

use now_sim::{SimDuration, SimRng, SimTime, ZipfSampler};
use serde::{Deserialize, Serialize};

/// Identifies a file within one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileId(pub u32);

/// A globally unique block: file plus block index within the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId {
    /// Owning file.
    pub file: FileId,
    /// Block index within the file.
    pub block: u32,
}

/// Whether an access reads or writes the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Read access.
    Read,
    /// Write access.
    Write,
}

/// One record of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FsAccess {
    /// When the access is issued.
    pub time: SimTime,
    /// Issuing client workstation (0-based).
    pub client: u32,
    /// Block touched.
    pub block: BlockId,
    /// Read or write.
    pub kind: AccessKind,
}

/// Generator parameters.
///
/// Defaults are calibrated so the *client-server baseline* cache simulator
/// in `now-cache` reproduces Table 3's 16 percent miss rate with 16-MB
/// client caches and a 128-MB server cache (see that crate's tests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FsTraceConfig {
    /// Number of client workstations (paper: 42).
    pub clients: u32,
    /// Trace length (paper: two days).
    pub duration: SimDuration,
    /// Number of hot shared files (executables, fonts, shared data).
    pub shared_files: u32,
    /// Private files per client (home directories, build trees).
    pub private_files_per_client: u32,
    /// Mean file size in blocks (Pareto-distributed; block = 8 KB).
    pub mean_file_blocks: u32,
    /// Zipf skew for file popularity within each pool.
    pub zipf_theta: f64,
    /// Mean accesses per second for an *active* client. Zero generates
    /// no accesses.
    pub accesses_per_sec: f64,
    /// Probability an access targets the shared pool rather than the
    /// client's private files.
    pub shared_fraction: f64,
    /// Fraction of accesses that are writes (paper workloads are
    /// read-dominated).
    pub write_fraction: f64,
    /// Mean sequential run length in blocks once a file is opened.
    pub mean_run_blocks: u32,
    /// Fraction of clients that are highly active; the rest issue accesses
    /// at one tenth the rate, donating cache capacity.
    pub active_client_fraction: f64,
}

impl FsTraceConfig {
    /// The Table 3 configuration: 42 clients, two days.
    pub fn paper_defaults() -> Self {
        FsTraceConfig {
            clients: 42,
            duration: SimDuration::from_secs(2 * 24 * 3600),
            shared_files: 250,
            private_files_per_client: 155,
            mean_file_blocks: 24,
            zipf_theta: 0.96,
            accesses_per_sec: 0.12,
            shared_fraction: 0.45,
            write_fraction: 0.15,
            mean_run_blocks: 6,
            active_client_fraction: 0.5,
        }
    }

    /// A scaled-down configuration for fast unit tests: same structure, a
    /// few thousand accesses.
    pub fn small() -> Self {
        FsTraceConfig {
            clients: 8,
            duration: SimDuration::from_secs(2_000),
            shared_files: 50,
            private_files_per_client: 40,
            mean_file_blocks: 12,
            zipf_theta: 0.85,
            accesses_per_sec: 0.5,
            shared_fraction: 0.45,
            write_fraction: 0.15,
            mean_run_blocks: 4,
            active_client_fraction: 0.5,
        }
    }
}

/// A generated trace: the access sequence plus the file-size table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FsTrace {
    /// Accesses in non-decreasing time order.
    pub accesses: Vec<FsAccess>,
    /// Size (in blocks) of every file; indexed by [`FileId`].
    pub file_blocks: Vec<u32>,
    /// Number of clients that generated the trace.
    pub clients: u32,
}

impl FsTrace {
    /// Generates a trace from `config` with the given seed.
    ///
    /// Deterministic: the same `(config, seed)` yields the same trace.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero clients or files),
    /// or if `accesses_per_sec` is negative or not finite.
    pub fn generate(config: &FsTraceConfig, seed: u64) -> FsTrace {
        assert!(config.clients > 0, "trace needs at least one client");
        assert!(
            config.shared_files > 0 && config.private_files_per_client > 0,
            "trace needs files"
        );
        assert!(
            config.accesses_per_sec >= 0.0 && config.accesses_per_sec.is_finite(),
            "accesses_per_sec must be finite and non-negative, got {}",
            config.accesses_per_sec
        );
        let mut rng = SimRng::new(seed);

        // File size table: shared files first, then each client's private
        // pool. Pareto sizes give the long tail real file systems have.
        let total_files = config.shared_files + config.clients * config.private_files_per_client;
        let mut file_blocks = Vec::with_capacity(total_files as usize);
        for _ in 0..total_files {
            let size = rng.pareto(1.0, 1.3) * config.mean_file_blocks as f64 / 4.0;
            file_blocks.push((size.ceil() as u32).clamp(1, 4_096));
        }

        let shared_zipf = ZipfSampler::new(config.shared_files as usize, config.zipf_theta);
        let private_zipf =
            ZipfSampler::new(config.private_files_per_client as usize, config.zipf_theta);

        let mut accesses = Vec::new();
        for client in 0..config.clients {
            let mut crng = rng.fork();
            let frac = (client as f64 + 0.5) / config.clients as f64;
            let active = frac < config.active_client_fraction;
            let rate = if active {
                config.accesses_per_sec
            } else {
                config.accesses_per_sec / 10.0
            };
            let mean_gap = 1.0 / rate;
            if !mean_gap.is_finite() {
                // A zero rate (or one too small to invert): no accesses.
                continue;
            }
            let mut t = SimTime::ZERO + SimDuration::from_secs_f64(crng.exponential(mean_gap));
            let horizon = SimTime::ZERO + config.duration;
            while t < horizon {
                // Pick a file: shared pool or this client's private pool.
                let file = if crng.chance(config.shared_fraction) {
                    FileId(shared_zipf.sample(&mut crng) as u32)
                } else {
                    let base = config.shared_files + client * config.private_files_per_client;
                    FileId(base + private_zipf.sample(&mut crng) as u32)
                };
                let size = file_blocks[file.0 as usize];
                // Sequential run from a random start within the file.
                let run =
                    (crng.exponential(config.mean_run_blocks as f64).ceil() as u32).clamp(1, size);
                let start = crng.gen_range(0..u64::from(size)) as u32;
                let is_write = crng.chance(config.write_fraction);
                let mut bt = t;
                for i in 0..run {
                    let block = (start + i) % size;
                    accesses.push(FsAccess {
                        time: bt,
                        client,
                        block: BlockId { file, block },
                        kind: if is_write {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                    });
                    bt += SimDuration::from_millis(2); // intra-run spacing
                }
                t += SimDuration::from_secs_f64(crng.exponential(mean_gap));
            }
        }
        accesses.sort_by_key(|a| (a.time, a.client));
        FsTrace {
            accesses,
            file_blocks,
            clients: config.clients,
        }
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True if the trace has no accesses.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Fraction of accesses that are reads.
    pub fn read_fraction(&self) -> f64 {
        if self.accesses.is_empty() {
            return 0.0;
        }
        let reads = self
            .accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Read)
            .count();
        reads as f64 / self.accesses.len() as f64
    }

    /// Fraction of *distinct blocks* that are touched by two or more
    /// clients — the sharing that cooperative caching exploits.
    pub fn shared_block_fraction(&self) -> f64 {
        use std::collections::HashMap;
        let mut touchers: HashMap<BlockId, (u32, bool)> = HashMap::new();
        for a in &self.accesses {
            let entry = touchers.entry(a.block).or_insert((a.client, false));
            if entry.0 != a.client {
                entry.1 = true;
            }
        }
        if touchers.is_empty() {
            return 0.0;
        }
        let shared = touchers.values().filter(|(_, s)| *s).count();
        shared as f64 / touchers.len() as f64
    }

    /// Number of distinct blocks in the trace.
    pub fn unique_blocks(&self) -> usize {
        use std::collections::HashSet;
        self.accesses
            .iter()
            .map(|a| a.block)
            .collect::<HashSet<_>>()
            .len()
    }

    /// Serialises to the line format: a header, the file-size table, then
    /// one access per line (`time_ns client file block R|W`).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fstrace v1 clients={} files={}",
            self.clients,
            self.file_blocks.len()
        );
        let sizes: Vec<String> = self.file_blocks.iter().map(|b| b.to_string()).collect();
        let _ = writeln!(out, "sizes {}", sizes.join(" "));
        for a in &self.accesses {
            let _ = writeln!(
                out,
                "{} {} {} {} {}",
                a.time.as_nanos(),
                a.client,
                a.block.file.0,
                a.block.block,
                match a.kind {
                    AccessKind::Read => 'R',
                    AccessKind::Write => 'W',
                }
            );
        }
        out
    }

    /// Parses the format produced by [`FsTrace::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseTraceError`] describing the first malformed line.
    pub fn from_text(text: &str) -> Result<FsTrace, ParseTraceError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| ParseTraceError::new(0, "empty input"))?;
        if !header.starts_with("fstrace v1") {
            return Err(ParseTraceError::new(1, "missing `fstrace v1` header"));
        }
        let clients: u32 = header
            .split("clients=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ParseTraceError::new(1, "bad clients field"))?;
        let sizes_line = lines
            .next()
            .ok_or_else(|| ParseTraceError::new(2, "missing sizes line"))?;
        let file_blocks: Vec<u32> = sizes_line
            .strip_prefix("sizes ")
            .ok_or_else(|| ParseTraceError::new(2, "missing `sizes` prefix"))?
            .split_whitespace()
            .map(|s| s.parse().map_err(|_| ParseTraceError::new(2, "bad size")))
            .collect::<Result<_, _>>()?;
        let mut accesses = Vec::new();
        for (i, line) in lines.enumerate() {
            let lineno = i + 3;
            let mut parts = line.split_whitespace();
            let mut next =
                |what: &'static str| parts.next().ok_or(ParseTraceError::new(lineno, what));
            let time: u64 = next("missing time")?
                .parse()
                .map_err(|_| ParseTraceError::new(lineno, "bad time"))?;
            let client: u32 = next("missing client")?
                .parse()
                .map_err(|_| ParseTraceError::new(lineno, "bad client"))?;
            let file: u32 = next("missing file")?
                .parse()
                .map_err(|_| ParseTraceError::new(lineno, "bad file"))?;
            let block: u32 = next("missing block")?
                .parse()
                .map_err(|_| ParseTraceError::new(lineno, "bad block"))?;
            let kind = match next("missing kind")? {
                "R" => AccessKind::Read,
                "W" => AccessKind::Write,
                _ => return Err(ParseTraceError::new(lineno, "kind must be R or W")),
            };
            accesses.push(FsAccess {
                time: SimTime::from_nanos(time),
                client,
                block: BlockId {
                    file: FileId(file),
                    block,
                },
                kind,
            });
        }
        Ok(FsTrace {
            accesses,
            file_blocks,
            clients,
        })
    }
}

/// Error from [`FsTrace::from_text`] and the other trace parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    what: &'static str,
}

impl ParseTraceError {
    pub(crate) fn new(line: usize, what: &'static str) -> Self {
        ParseTraceError { line, what }
    }
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for ParseTraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> FsTrace {
        FsTrace::generate(&FsTraceConfig::small(), 1)
    }

    #[test]
    fn zero_rate_generates_no_accesses() {
        let mut config = FsTraceConfig::small();
        config.accesses_per_sec = 0.0;
        let t = FsTrace::generate(&config, 7);
        assert!(t.is_empty());
        assert_eq!(t.clients, config.clients);
        let nonzero = FsTrace::generate(&FsTraceConfig::small(), 7);
        assert_eq!(t.file_blocks, nonzero.file_blocks);
    }

    #[test]
    #[should_panic(expected = "accesses_per_sec must be finite and non-negative")]
    fn negative_rate_is_rejected() {
        let mut config = FsTraceConfig::small();
        config.accesses_per_sec = -1.0;
        FsTrace::generate(&config, 7);
    }

    #[test]
    #[should_panic(expected = "accesses_per_sec must be finite and non-negative")]
    fn non_finite_rate_is_rejected() {
        let mut config = FsTraceConfig::small();
        config.accesses_per_sec = f64::NAN;
        FsTrace::generate(&config, 7);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FsTrace::generate(&FsTraceConfig::small(), 7);
        let b = FsTrace::generate(&FsTraceConfig::small(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = FsTrace::generate(&FsTraceConfig::small(), 1);
        let b = FsTrace::generate(&FsTraceConfig::small(), 2);
        assert_ne!(a.accesses, b.accesses);
    }

    #[test]
    fn accesses_are_time_sorted() {
        let t = small_trace();
        assert!(t.accesses.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn accesses_stay_within_horizon_and_bounds() {
        let cfg = FsTraceConfig::small();
        let t = FsTrace::generate(&cfg, 3);
        // Runs may spill a few ms past the horizon; allow 1 s slack.
        let horizon = SimTime::ZERO + cfg.duration + SimDuration::from_secs(1);
        for a in &t.accesses {
            assert!(a.time < horizon);
            assert!(a.client < cfg.clients);
            let size = t.file_blocks[a.block.file.0 as usize];
            assert!(a.block.block < size, "block index within file size");
        }
    }

    #[test]
    fn trace_is_read_dominated() {
        let t = small_trace();
        let rf = t.read_fraction();
        assert!(rf > 0.7, "read fraction {rf}");
    }

    #[test]
    fn shared_files_are_actually_shared() {
        let t = FsTrace::generate(&FsTraceConfig::small(), 5);
        let frac = t.shared_block_fraction();
        assert!(
            frac > 0.05,
            "some blocks must be touched by multiple clients, got {frac}"
        );
    }

    #[test]
    fn inactive_clients_issue_fewer_accesses() {
        let cfg = FsTraceConfig::small();
        let t = FsTrace::generate(&cfg, 9);
        let mut per_client = vec![0u32; cfg.clients as usize];
        for a in &t.accesses {
            per_client[a.client as usize] += 1;
        }
        let actives = cfg.clients as usize / 2;
        let active_sum: u32 = per_client[..actives].iter().sum();
        let idle_sum: u32 = per_client[actives..].iter().sum();
        assert!(
            active_sum > idle_sum * 3,
            "active clients ({active_sum}) should dominate idle ones ({idle_sum})"
        );
    }

    #[test]
    fn popularity_is_skewed() {
        use std::collections::HashMap;
        let t = FsTrace::generate(&FsTraceConfig::small(), 11);
        let mut per_file: HashMap<u32, u32> = HashMap::new();
        for a in &t.accesses {
            *per_file.entry(a.block.file.0).or_default() += 1;
        }
        let mut counts: Vec<u32> = per_file.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u32 = counts[..counts.len() / 10].iter().sum();
        let total: u32 = counts.iter().sum();
        assert!(
            top_decile as f64 / total as f64 > 0.4,
            "top 10% of files should draw >40% of accesses"
        );
    }

    #[test]
    fn text_roundtrip_preserves_everything() {
        let t = small_trace();
        let text = t.to_text();
        let back = FsTrace::from_text(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn parse_rejects_bad_header() {
        assert!(FsTrace::from_text("bogus\n").is_err());
        assert!(FsTrace::from_text("").is_err());
    }

    #[test]
    fn parse_rejects_bad_record() {
        let mut text = small_trace().to_text();
        text.push_str("not a record\n");
        let err = FsTrace::from_text(&text).unwrap_err();
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn parse_rejects_bad_kind() {
        let t = small_trace();
        let text = t.to_text().replace(" R", " Q");
        assert!(FsTrace::from_text(&text).is_err());
    }

    #[test]
    fn paper_config_produces_substantial_trace() {
        // Keep this moderately sized but structurally checked: generate one
        // hour of the paper config.
        let mut cfg = FsTraceConfig::paper_defaults();
        cfg.duration = SimDuration::from_secs(3_600);
        let t = FsTrace::generate(&cfg, 42);
        assert_eq!(t.clients, 42);
        assert!(t.len() > 5_000, "one hour of 42 clients, got {}", t.len());
        assert!(t.shared_block_fraction() > 0.03);
    }
}
