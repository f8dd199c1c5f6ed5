//! The instrument registry and the [`Probe`] handle subsystems hold.

use crate::histogram::{HistogramCore, HistogramSummary};
use crate::trace::{TraceEvent, TraceRing};
use crate::util::{UtilCore, UtilSnapshot};
use now_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default trace-ring capacity: generous for span-level tracing, bounded
/// against per-event tracing of million-access workloads.
const DEFAULT_TRACE_CAPACITY: usize = 65_536;

#[derive(Debug)]
pub(crate) struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    /// Gauges store `f64::to_bits`.
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    /// Busy/idle utilization ledgers, one per priced resource.
    utils: Mutex<BTreeMap<String, Arc<UtilCore>>>,
    /// Bumped once per observed run (see [`Probe::util_epoch`]); ledgers
    /// use it to tell sweep points apart when simulated time restarts.
    util_epoch: Arc<AtomicU64>,
    trace: TraceRing,
    /// Latest simulated time any trace operation has seen (nanoseconds).
    /// A span dropped without [`Span::end`] closes at this time, since the
    /// registry has no other notion of "now".
    last_seen: AtomicU64,
}

impl RegistryInner {
    fn observe_time(&self, at: SimTime) {
        self.last_seen.fetch_max(at.as_nanos(), Ordering::Relaxed);
    }

    fn last_seen(&self) -> SimTime {
        SimTime::from_nanos(self.last_seen.load(Ordering::Relaxed))
    }
}

/// Owns every instrument and the event trace for one instrumented run.
///
/// Instrument names are free-form dotted paths (`"am.requests"`); maps are
/// ordered, so every exporter emits names in one canonical order.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A fresh registry with the default trace capacity.
    pub fn new() -> Self {
        Registry::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A fresh registry whose trace ring holds at most `capacity` events.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                utils: Mutex::new(BTreeMap::new()),
                util_epoch: Arc::new(AtomicU64::new(1)),
                trace: TraceRing::new(capacity),
                last_seen: AtomicU64::new(0),
            }),
        }
    }

    /// An enabled probe attributed to node 0. Use [`Probe::for_node`] to
    /// re-attribute.
    pub fn probe(&self) -> Probe {
        Probe {
            inner: Some(Arc::clone(&self.inner)),
            node: 0,
            prefix: None,
        }
    }

    /// The event trace.
    pub fn trace(&self) -> &TraceRing {
        &self.inner.trace
    }

    /// A consistent point-in-time digest of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("counters poisoned")
            .iter()
            .map(|(name, c)| (name.clone(), c.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("gauges poisoned")
            .iter()
            .map(|(name, g)| (name.clone(), f64::from_bits(g.load(Ordering::Relaxed))))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("histograms poisoned")
            .iter()
            .map(|(name, h)| (name.clone(), h.summary()))
            .collect();
        let utils = self
            .inner
            .utils
            .lock()
            .expect("utils poisoned")
            .iter()
            .map(|(name, u)| (name.clone(), u.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            utils,
            trace_events: self.inner.trace.len(),
            trace_dropped: self.inner.trace.dropped(),
        }
    }
}

/// A point-in-time digest of a [`Registry`], ordered by instrument name.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// `(name, snapshot)` for every utilization ledger.
    pub utils: Vec<(String, UtilSnapshot)>,
    /// Events currently buffered in the trace ring.
    pub trace_events: usize,
    /// Events dropped because the ring filled.
    pub trace_dropped: u64,
}

impl Snapshot {
    /// The value of counter `name`, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, if it exists.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The summary of histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// The utilization ledger for resource `name`, if it exists.
    pub fn util(&self, name: &str) -> Option<&UtilSnapshot> {
        self.utils.iter().find(|(n, _)| n == name).map(|(_, u)| u)
    }
}

/// The handle simulation code holds. Disabled (the [`Default`]) it is a
/// `None` and every operation returns immediately; enabled it points at a
/// [`Registry`].
///
/// Probes always compare equal: embedding one in a `PartialEq` simulator
/// must not change the simulator's identity, exactly as instrumentation
/// must not change behaviour.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    inner: Option<Arc<RegistryInner>>,
    node: u32,
    /// Prepended to every instrument name this probe touches (see
    /// [`Probe::scoped`]). `None` — the common case — resolves names
    /// verbatim.
    prefix: Option<Arc<str>>,
}

impl PartialEq for Probe {
    fn eq(&self, _other: &Probe) -> bool {
        true
    }
}

impl Eq for Probe {}

impl Probe {
    /// The no-op probe.
    pub fn disabled() -> Probe {
        Probe::default()
    }

    /// Whether this probe reaches a registry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This probe re-attributed to `node` (a Chrome-trace `pid`).
    pub fn for_node(&self, node: u32) -> Probe {
        Probe {
            inner: self.inner.clone(),
            node,
            prefix: self.prefix.clone(),
        }
    }

    /// The node this probe attributes events to.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// This probe with `prefix` prepended to every instrument name it
    /// resolves (counters, gauges, histograms, and span latency
    /// histograms; trace-ring events keep their static names). Scopes
    /// compose: `p.scoped("cell0.").scoped("net.")` resolves under
    /// `"cell0.net."`. The partitioned scenario layer uses one scope per
    /// replicated cell so identical subsystems write disjoint instruments
    /// instead of racing on shared ones.
    pub fn scoped(&self, prefix: &str) -> Probe {
        if prefix.is_empty() || self.inner.is_none() {
            return self.clone();
        }
        let combined = match &self.prefix {
            Some(existing) => Arc::from(format!("{existing}{prefix}")),
            None => Arc::from(prefix),
        };
        Probe {
            inner: self.inner.clone(),
            node: self.node,
            prefix: Some(combined),
        }
    }

    /// `name` under this probe's scope prefix.
    fn resolve(&self, name: &str) -> String {
        match &self.prefix {
            Some(prefix) => format!("{prefix}{name}"),
            None => name.to_string(),
        }
    }

    /// A counter handle. On a disabled probe this is free and the returned
    /// handle is itself a no-op.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .counters
                    .lock()
                    .expect("counters poisoned")
                    .entry(self.resolve(name))
                    .or_default(),
            )
        }))
    }

    /// A gauge handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .gauges
                    .lock()
                    .expect("gauges poisoned")
                    .entry(self.resolve(name))
                    .or_default(),
            )
        }))
    }

    /// A histogram handle.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .histograms
                    .lock()
                    .expect("histograms poisoned")
                    .entry(self.resolve(name))
                    .or_insert_with(|| Arc::new(HistogramCore::new())),
            )
        }))
    }

    /// A utilization-ledger handle for resource `name`. On a disabled
    /// probe this is free and the returned handle is itself a no-op.
    pub fn util(&self, name: &str) -> Util {
        Util(self.inner.as_ref().map(|inner| {
            let core = Arc::clone(
                inner
                    .utils
                    .lock()
                    .expect("utils poisoned")
                    .entry(self.resolve(name))
                    .or_default(),
            );
            (core, Arc::clone(&inner.util_epoch))
        }))
    }

    /// One-shot: report `[start, end)` as busy time on resource `name`.
    pub fn busy(&self, name: &str, start: SimTime, end: SimTime) {
        if self.inner.is_some() {
            self.util(name).busy(start, end);
        }
    }

    /// Starts a new utilization epoch. Called once at the start of every
    /// observed run sharing this registry; ledgers close the previous
    /// run's wall span when they first record under the new epoch, so
    /// busy and wall both sum across a sweep even though each run
    /// restarts simulated time at zero.
    pub fn util_epoch(&self) {
        if let Some(inner) = &self.inner {
            inner.util_epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One-shot: add `n` to counter `name`.
    pub fn count(&self, name: &str, n: u64) {
        if self.inner.is_some() {
            self.counter(name).add(n);
        }
    }

    /// One-shot: set gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if self.inner.is_some() {
            self.gauge(name).set(value);
        }
    }

    /// One-shot: record `duration` (as nanoseconds) in histogram `name`.
    pub fn record(&self, name: &str, duration: SimDuration) {
        if self.inner.is_some() {
            self.histogram(name).record(duration.as_nanos());
        }
    }

    /// Opens a simulated-time span attributed to `(cat, name)`. End it
    /// with [`Span::end`]. A span dropped without `end()` is still
    /// emitted — as an unterminated span closed at the registry's
    /// last-seen sim time, flagged `"unfinished"` — and counted under
    /// `probe.spans_dropped`.
    pub fn span(&self, cat: &'static str, name: &'static str, start: SimTime) -> Span {
        if let Some(inner) = &self.inner {
            inner.observe_time(start);
        }
        Span {
            probe: self.clone(),
            cat,
            name,
            start,
            args: Vec::new(),
            ended: false,
        }
    }

    /// Records an instant event with structured numeric fields.
    pub fn instant(
        &self,
        cat: &'static str,
        name: &'static str,
        at: SimTime,
        args: &[(&'static str, f64)],
    ) {
        if let Some(inner) = &self.inner {
            inner.observe_time(at);
            inner.trace.push(TraceEvent {
                ts: at,
                dur: None,
                node: self.node,
                cat,
                name,
                args: args.to_vec(),
            });
        }
    }
}

/// Cheap counter handle; cloneable, shareable, no-op when detached.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Cheap gauge handle storing an `f64`.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        if let Some(g) = &self.0 {
            g.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when detached).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

/// Cheap utilization-ledger handle; cloneable, shareable, no-op when
/// detached. Carries the registry's epoch counter so recorded intervals
/// land in the current run's ledger span.
#[derive(Debug, Clone, Default)]
pub struct Util(Option<(Arc<UtilCore>, Arc<AtomicU64>)>);

impl Util {
    /// Reports `[start, end)` as busy time on this resource.
    pub fn busy(&self, start: SimTime, end: SimTime) {
        if let Some((core, epoch)) = &self.0 {
            core.record(
                epoch.load(Ordering::Relaxed),
                start.as_nanos(),
                end.as_nanos(),
            );
        }
    }

    /// Current snapshot (`None` when detached).
    pub fn snapshot(&self) -> Option<UtilSnapshot> {
        self.0.as_ref().map(|(core, _)| core.snapshot())
    }
}

/// Cheap histogram handle recording `u64` values (conventionally
/// nanoseconds of simulated time).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one value.
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    /// Current summary (`None` when detached).
    pub fn summary(&self) -> Option<HistogramSummary> {
        self.0.as_ref().map(|h| h.summary())
    }
}

/// An open simulated-time interval. [`Span::end`] records it as both a
/// latency sample (histogram `"{cat}.{name}.ns"`) and a complete event in
/// the trace ring.
///
/// Dropping a span without ending it does **not** lose it: the drop
/// handler emits the span into the trace closed at the registry's
/// last-seen simulated time with an `"unfinished"` flag, and bumps the
/// `probe.spans_dropped` counter. Unfinished spans are excluded from the
/// latency histogram so partial intervals cannot skew the statistics.
#[derive(Debug, Clone)]
pub struct Span {
    probe: Probe,
    cat: &'static str,
    name: &'static str,
    start: SimTime,
    args: Vec<(&'static str, f64)>,
    ended: bool,
}

impl Span {
    /// Attaches a structured numeric field.
    pub fn arg(mut self, key: &'static str, value: f64) -> Span {
        if self.probe.is_enabled() {
            self.args.push((key, value));
        }
        self
    }

    /// Closes the span at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the span's start (simulated time is
    /// monotone within a span).
    pub fn end(mut self, at: SimTime) {
        self.ended = true;
        let Some(inner) = &self.probe.inner else {
            return;
        };
        assert!(
            at >= self.start,
            "span {}.{} ends before it starts",
            self.cat,
            self.name
        );
        inner.observe_time(at);
        let dur = at.saturating_since(self.start);
        self.probe
            .histogram(&format!("{}.{}.ns", self.cat, self.name))
            .record(dur.as_nanos());
        inner.trace.push(TraceEvent {
            ts: self.start,
            dur: Some(dur),
            node: self.probe.node,
            cat: self.cat,
            name: self.name,
            args: self.args.clone(),
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.ended {
            return;
        }
        let Some(inner) = &self.probe.inner else {
            return;
        };
        // The registry's best guess at "now": a span can't end before it
        // started, so clamp from below by the start time.
        let at = inner.last_seen().max(self.start);
        self.probe.count("probe.spans_dropped", 1);
        let mut args = std::mem::take(&mut self.args);
        args.push(("unfinished", 1.0));
        inner.trace.push(TraceEvent {
            ts: self.start,
            dur: Some(at.saturating_since(self.start)),
            node: self.probe.node,
            cat: self.cat,
            name: self.name,
            args,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probe_is_inert() {
        let p = Probe::disabled();
        assert!(!p.is_enabled());
        p.count("x", 5);
        p.gauge_set("y", 1.0);
        p.record("z", SimDuration::from_micros(1));
        p.span("a", "b", SimTime::ZERO).end(SimTime::from_micros(1));
        p.instant("a", "c", SimTime::ZERO, &[("k", 1.0)]);
        let c = p.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn enabled_probe_accumulates() {
        let r = Registry::new();
        let p = r.probe().for_node(2);
        p.count("am.requests", 3);
        p.count("am.requests", 2);
        p.gauge_set("pool.pages", 42.0);
        p.record("svc", SimDuration::from_micros(7));
        let s = r.snapshot();
        assert_eq!(s.counter("am.requests"), Some(5));
        assert_eq!(s.gauge("pool.pages"), Some(42.0));
        assert_eq!(s.histogram("svc").unwrap().count, 1);
    }

    #[test]
    fn spans_record_histogram_and_trace() {
        let r = Registry::new();
        let p = r.probe();
        p.span("mem", "fault", SimTime::from_micros(10))
            .arg("page", 3.0)
            .end(SimTime::from_micros(25));
        let s = r.snapshot();
        let h = s.histogram("mem.fault.ns").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.min, Some(15_000));
        assert_eq!(s.trace_events, 1);
        let events = r.trace().sorted_events();
        assert_eq!(events[0].name, "fault");
        assert_eq!(events[0].args, vec![("page", 3.0)]);
    }

    #[test]
    fn dropped_span_is_emitted_unfinished() {
        let r = Registry::new();
        let p = r.probe();
        // Something else advances the registry's notion of time.
        p.instant("mem", "tick", SimTime::from_micros(90), &[]);
        {
            let _span = p
                .span("mem", "fault", SimTime::from_micros(10))
                .arg("page", 7.0);
            // Dropped without end().
        }
        let s = r.snapshot();
        assert_eq!(s.counter("probe.spans_dropped"), Some(1));
        // Excluded from the latency histogram.
        assert!(s.histogram("mem.fault.ns").is_none());
        let events = r.trace().sorted_events();
        let span_ev = events.iter().find(|e| e.name == "fault").unwrap();
        assert_eq!(span_ev.dur, Some(SimDuration::from_micros(80)));
        assert!(span_ev.args.contains(&("unfinished", 1.0)));
        assert!(span_ev.args.contains(&("page", 7.0)));
    }

    #[test]
    fn dropped_span_never_ends_before_it_starts() {
        let r = Registry::new();
        let p = r.probe();
        // Nothing has advanced last_seen past the span's start.
        drop(p.span("mem", "fault", SimTime::from_micros(40)));
        let events = r.trace().sorted_events();
        assert_eq!(events[0].dur, Some(SimDuration::ZERO));
        assert_eq!(r.snapshot().counter("probe.spans_dropped"), Some(1));
    }

    #[test]
    fn ended_span_does_not_double_record_on_drop() {
        let r = Registry::new();
        let p = r.probe();
        p.span("a", "b", SimTime::ZERO).end(SimTime::from_micros(5));
        let s = r.snapshot();
        assert_eq!(s.counter("probe.spans_dropped"), None);
        assert_eq!(s.trace_events, 1);
    }

    #[test]
    fn probes_always_compare_equal() {
        let r = Registry::new();
        assert_eq!(r.probe(), Probe::disabled());
        assert_eq!(r.probe().for_node(1), r.probe().for_node(9));
    }

    #[test]
    fn scoped_probes_write_disjoint_instruments() {
        let r = Registry::new();
        let p = r.probe();
        let cell0 = p.scoped("cell0.");
        let cell1 = p.scoped("cell1.");
        cell0.count("net.transfers", 2);
        cell1.count("net.transfers", 5);
        cell0.gauge_set("job.rounds_done", 7.0);
        cell1.record("net.wire.ns", SimDuration::from_micros(3));
        let s = r.snapshot();
        assert_eq!(s.counter("cell0.net.transfers"), Some(2));
        assert_eq!(s.counter("cell1.net.transfers"), Some(5));
        assert_eq!(s.counter("net.transfers"), None, "no unscoped leak");
        assert_eq!(s.gauge("cell0.job.rounds_done"), Some(7.0));
        assert_eq!(s.histogram("cell1.net.wire.ns").unwrap().count, 1);
        // Scopes compose and survive re-attribution.
        let nested = cell0.scoped("fs.").for_node(9);
        nested.count("reads", 1);
        assert_eq!(r.snapshot().counter("cell0.fs.reads"), Some(1));
        // An empty scope is the probe itself; scoping a disabled probe
        // stays disabled.
        p.scoped("").count("plain", 1);
        assert_eq!(r.snapshot().counter("plain"), Some(1));
        assert!(!Probe::disabled().scoped("x.").is_enabled());
    }

    #[test]
    fn util_handles_record_through_probe_and_respect_scopes() {
        let r = Registry::new();
        let p = r.probe();
        let nic = p.util("net.nic.0");
        nic.busy(SimTime::ZERO, SimTime::from_micros(10));
        nic.busy(SimTime::from_micros(20), SimTime::from_micros(25));
        p.scoped("cell1.")
            .busy("net.nic.0", SimTime::ZERO, SimTime::from_micros(3));
        let s = r.snapshot();
        let u = s.util("net.nic.0").unwrap();
        assert_eq!(u.busy_ns, 15_000);
        assert_eq!(u.wall_ns, 25_000);
        assert_eq!(s.util("cell1.net.nic.0").unwrap().busy_ns, 3_000);
        // Snapshot utils are name-ordered like every other instrument.
        let names: Vec<_> = s.utils.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["cell1.net.nic.0", "net.nic.0"]);
    }

    #[test]
    fn util_epoch_separates_runs_sharing_one_registry() {
        let r = Registry::new();
        let p = r.probe();
        p.util_epoch();
        p.busy("disk", SimTime::ZERO, SimTime::from_micros(100));
        p.util_epoch(); // next sweep point, time restarts at zero
        p.busy("disk", SimTime::ZERO, SimTime::from_micros(40));
        let u = r.snapshot().util("disk").cloned().unwrap();
        assert_eq!(u.busy_ns, 140_000);
        assert_eq!(u.wall_ns, 140_000);
        assert_eq!(u.idle_ns(), 0);
    }

    #[test]
    fn disabled_probe_util_is_inert() {
        let p = Probe::disabled();
        let u = p.util("x");
        u.busy(SimTime::ZERO, SimTime::from_micros(5));
        p.busy("x", SimTime::ZERO, SimTime::from_micros(5));
        p.util_epoch();
        assert!(u.snapshot().is_none());
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let r = Registry::new();
        let p = r.probe();
        p.count("z.last", 1);
        p.count("a.first", 1);
        p.count("m.middle", 1);
        let names: Vec<_> = r
            .snapshot()
            .counters
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert_eq!(names, ["a.first", "m.middle", "z.last"]);
    }
}
