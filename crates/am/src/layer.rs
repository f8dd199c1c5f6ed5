//! The Active Messages protocol engine.

use std::collections::{HashMap, HashSet, VecDeque};

use now_net::{Network, NodeId};
use now_probe::Probe;
use now_sim::{EventId, EventQueue, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Identifies one logical request for its whole lifetime (across
/// retransmissions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MsgId(pub u64);

/// Protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmConfig {
    /// Outstanding requests allowed per (sender, destination) pair before
    /// the sender stalls.
    pub credits: u32,
    /// How long a sender waits for a reply before retransmitting.
    pub timeout: SimDuration,
    /// Retransmissions attempted before the request is declared failed.
    pub max_retries: u32,
    /// Messages buffered at a descheduled receiver before arrivals are
    /// dropped (to be recovered by sender timeout).
    pub recv_buffer_msgs: u32,
    /// Probability that any single wire crossing is lost.
    pub loss_probability: f64,
    /// Size of a reply message on the wire, bytes.
    pub reply_bytes: u64,
    /// Per-destination aggregation (disabled by default: a zero flush
    /// quantum reproduces the per-message protocol byte-identically).
    #[serde(default)]
    pub batch: BatchConfig,
}

impl Default for AmConfig {
    /// CM-5-like defaults: 4 credits, generous buffer, lossless wire.
    fn default() -> Self {
        AmConfig {
            credits: 4,
            timeout: SimDuration::from_millis(10),
            max_retries: 10,
            recv_buffer_msgs: 64,
            loss_probability: 0.0,
            reply_bytes: 16,
            batch: BatchConfig::disabled(),
        }
    }
}

/// Per-`(src, dst)` request aggregation: small requests issued within one
/// flush quantum coalesce into a single wire transfer, so the per-message
/// software overhead `o` — the term the paper shows dominating small
/// messages — is paid once per batch instead of once per message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// How long the first request of a batch waits for company before the
    /// batch is flushed. Zero disables batching entirely: every request
    /// takes the classic per-message path, byte-identically.
    pub flush_quantum: SimDuration,
    /// Payload bytes that flush a batch early.
    pub max_batch_bytes: u64,
    /// Member count that flushes a batch early. Clamped to at least 1;
    /// exactly 1 makes every message its own batch.
    pub max_batch_msgs: u32,
}

impl BatchConfig {
    /// Batching off: the per-message protocol, unchanged.
    pub fn disabled() -> Self {
        BatchConfig {
            flush_quantum: SimDuration::ZERO,
            max_batch_bytes: 32 * 1024,
            max_batch_msgs: 32,
        }
    }

    /// Batching with a `quantum_us`-microsecond flush quantum and the
    /// default size bounds (`0` yields [`BatchConfig::disabled`]).
    pub fn quantum_us(quantum_us: u64) -> Self {
        BatchConfig {
            flush_quantum: SimDuration::from_micros(quantum_us),
            ..BatchConfig::disabled()
        }
    }

    /// Is aggregation active?
    pub fn enabled(&self) -> bool {
        self.flush_quantum > SimDuration::ZERO
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::disabled()
    }
}

/// What the protocol engine reports back as simulation advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Notification {
    /// A request's handler ran at the destination.
    RequestDelivered {
        /// The request.
        id: MsgId,
        /// Sender.
        src: NodeId,
        /// Destination whose handler ran.
        dst: NodeId,
        /// Handler execution time.
        at: SimTime,
    },
    /// The reply reached the original sender (its credit is home).
    ReplyDelivered {
        /// The request being acknowledged.
        id: MsgId,
        /// When the sender processed the reply.
        at: SimTime,
    },
    /// The request exhausted its retries.
    RequestFailed {
        /// The request.
        id: MsgId,
        /// When the sender gave up.
        at: SimTime,
    },
}

/// Counters exposed for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmStats {
    /// Requests accepted from the application.
    pub requests: u64,
    /// Handler invocations (exactly one per delivered request).
    pub delivered: u64,
    /// Replies received by senders.
    pub replies: u64,
    /// Wire retransmissions.
    pub retransmits: u64,
    /// Arrivals dropped because the receiver buffer was full.
    pub buffer_drops: u64,
    /// Wire crossings lost to the loss model.
    pub wire_losses: u64,
    /// Requests that exhausted retries.
    pub failed: u64,
    /// Duplicate requests suppressed at receivers.
    pub duplicates: u64,
    /// Batches assembled (one wire transfer each). Zero with batching off.
    pub batches: u64,
    /// Requests that rode a batch. With batching on, every accepted
    /// request batches, so this reconciles with `requests`.
    pub batched_msgs: u64,
    /// Batches flushed by the quantum timer expiring.
    pub flush_timeouts: u64,
    /// Batches flushed early by a size bound (bytes or member count).
    /// `batches == flush_timeouts + flush_on_size` always.
    pub flush_on_size: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireKind {
    Request { bytes: u64, attempt: u32 },
    Reply,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A message finished arriving at `dst` (CPU-side delivery point).
    Arrive {
        id: MsgId,
        src: NodeId,
        dst: NodeId,
        kind: WireKind,
    },
    /// Sender-side retransmission timer for `id`.
    Timeout { id: MsgId },
    /// Application-scheduled send.
    UserSend { id: MsgId },
    /// The flush-quantum timer of the open `(src, dst)` batch expired.
    Flush { src: NodeId, dst: NodeId },
}

/// Why a batch left its aggregation queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushCause {
    /// The flush quantum expired.
    Quantum,
    /// A size bound (bytes or member count) was hit.
    Size,
}

/// An open aggregation queue: requests from one `(src, dst)` pair waiting
/// out the flush quantum together.
#[derive(Debug, Default)]
struct Aggregation {
    /// `(member id, payload bytes)` in arrival order — the FIFO order
    /// delivery notifications fan back out in.
    members: Vec<(MsgId, u64)>,
    /// Payload bytes aggregated so far.
    bytes: u64,
    /// The pending [`Event::Flush`], cancelled on an early size flush.
    flush_event: Option<EventId>,
}

#[derive(Debug, Clone)]
struct OutstandingReq {
    src: NodeId,
    dst: NodeId,
    attempt: u32,
    timeout_event: EventId,
    /// When the *first* attempt went on the wire (for RTT accounting).
    issued: SimTime,
}

#[derive(Debug, Default)]
struct EndpointState {
    /// Is the owning process currently scheduled (able to run handlers)?
    running: bool,
    /// Buffered arrivals awaiting the process being scheduled.
    inbox: VecDeque<(MsgId, NodeId, u64)>,
    /// Request ids already handled here (for duplicate suppression).
    handled: HashSet<MsgId>,
}

/// The Active Messages engine: a deterministic discrete-event simulation of
/// the protocol over a [`Network`].
///
/// Drive it with [`ActiveMessages::request_at`] and
/// [`ActiveMessages::advance`]; integrate with a scheduler through
/// [`ActiveMessages::set_running`].
#[derive(Debug)]
pub struct ActiveMessages {
    net: Network,
    config: AmConfig,
    queue: EventQueue<Event>,
    rng: SimRng,
    endpoints: Vec<EndpointState>,
    /// Credits available from each sender to each destination.
    credits: HashMap<(NodeId, NodeId), u32>,
    /// Requests awaiting credits, FIFO per (src, dst).
    stalled: HashMap<(NodeId, NodeId), VecDeque<MsgId>>,
    /// In-flight requests by id.
    outstanding: HashMap<MsgId, OutstandingReq>,
    /// Parameters of requests not yet sent (scheduled or stalled).
    pending_params: HashMap<MsgId, (NodeId, NodeId, u64)>,
    /// Open aggregation queues, one per `(src, dst)` with batching on.
    agg: HashMap<(NodeId, NodeId), Aggregation>,
    /// In-flight batches keyed by their wire-level [`MsgId`]: the unit the
    /// credit/timeout/retry machinery sees. Each holds its `(member id,
    /// payload bytes)` in FIFO order, the order its notifications fan out.
    batches: HashMap<MsgId, Vec<(MsgId, u64)>>,
    /// Free list of member buffers recycled across batches, so the
    /// steady-state batching path allocates nothing once warm.
    batch_pool: Vec<Vec<(MsgId, u64)>>,
    /// Notifications fanned out of a batch beyond the first, drained by
    /// [`ActiveMessages::advance`] before the event queue is popped so
    /// per-member notifications come out in FIFO order.
    pending_notes: VecDeque<Notification>,
    next_id: u64,
    stats: AmStats,
    probe: Probe,
}

impl ActiveMessages {
    /// Creates an engine over `net` with all processes initially running.
    pub fn new(net: Network, config: AmConfig, seed: u64) -> Self {
        let nodes = net.nodes() as usize;
        let mut endpoints = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            endpoints.push(EndpointState {
                running: true,
                ..Default::default()
            });
        }
        ActiveMessages {
            net,
            config,
            queue: EventQueue::new(),
            rng: SimRng::new(seed),
            endpoints,
            credits: HashMap::new(),
            stalled: HashMap::new(),
            outstanding: HashMap::new(),
            pending_params: HashMap::new(),
            agg: HashMap::new(),
            batches: HashMap::new(),
            batch_pool: Vec::new(),
            pending_notes: VecDeque::new(),
            next_id: 0,
            stats: AmStats::default(),
            probe: Probe::disabled(),
        }
    }

    /// Attaches a telemetry probe. Counters mirror [`AmStats`] under
    /// `am.*` names, the `am.rtt.ns` histogram tracks request-to-reply
    /// round trips (measured from the first wire attempt), and the probe
    /// is propagated to the underlying [`Network`].
    pub fn set_probe(&mut self, probe: Probe) {
        self.net.set_probe(probe.clone());
        self.probe = probe;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Protocol counters so far.
    pub fn stats(&self) -> AmStats {
        self.stats
    }

    /// The underlying network (for probes).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Schedules a request of `bytes` from `src` to `dst` at time `at`.
    ///
    /// Returns the request's [`MsgId`]; completion is reported through
    /// [`Notification::ReplyDelivered`] (or `RequestFailed`).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`, a node is out of range, or `at` is in the
    /// simulation's past.
    pub fn request_at(&mut self, at: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> MsgId {
        assert_ne!(src, dst, "Active Messages are remote by definition");
        assert!(
            src.0 < self.net.nodes() && dst.0 < self.net.nodes(),
            "node out of range"
        );
        let id = MsgId(self.next_id);
        self.next_id += 1;
        self.pending_params.insert(id, (src, dst, bytes));
        self.queue.schedule_at(at, Event::UserSend { id });
        self.stats.requests += 1;
        self.probe.count("am.requests", 1);
        id
    }

    /// Marks the process on `node` as scheduled (`true`) or descheduled
    /// (`false`). Scheduling a node drains its buffered arrivals: handlers
    /// run and replies go out, timestamped at the engine's current time.
    pub fn set_running(&mut self, node: NodeId, running: bool) -> Vec<Notification> {
        let was = self.endpoints[node.0 as usize].running;
        self.endpoints[node.0 as usize].running = running;
        let mut notes = Vec::new();
        if running && !was {
            let drained: Vec<_> = self.endpoints[node.0 as usize].inbox.drain(..).collect();
            let now = self.queue.now();
            for (id, src, _bytes) in drained {
                notes.push(self.handle_request(id, src, node, now));
                // A drained batch fans its remaining members out here, in
                // the same FIFO order `advance` would deliver them.
                while let Some(n) = self.pending_notes.pop_front() {
                    notes.push(n);
                }
            }
        }
        notes
    }

    /// Advances the simulation by one event, returning a notification when
    /// the event is application-visible. Returns `None` when no events
    /// remain.
    pub fn advance(&mut self) -> Option<Notification> {
        // Per-member notifications fanned out of a batch drain before the
        // next event pops, keeping the one-notification-per-advance API
        // while a single arrival delivers many requests.
        if let Some(note) = self.pending_notes.pop_front() {
            return Some(note);
        }
        while let Some((now, ev)) = self.queue.pop() {
            if let Some(note) = self.dispatch(now, ev) {
                return Some(note);
            }
        }
        None
    }

    /// Runs the simulation to quiescence, collecting all notifications.
    pub fn run_to_completion(&mut self) -> Vec<Notification> {
        let mut out = Vec::new();
        while let Some(n) = self.advance() {
            out.push(n);
        }
        out
    }

    /// Processes every event with timestamp at or before `t`, collecting
    /// notifications, then stops (the clock does not advance past the last
    /// processed event). Lets a caller interleave protocol time with
    /// external decisions such as scheduling.
    pub fn advance_until(&mut self, t: SimTime) -> Vec<Notification> {
        let mut out = Vec::new();
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked event exists");
            if let Some(n) = self.dispatch(now, ev) {
                out.push(n);
            }
            while let Some(n) = self.pending_notes.pop_front() {
                out.push(n);
            }
        }
        out
    }

    fn credits_mut(&mut self, src: NodeId, dst: NodeId) -> &mut u32 {
        let cap = self.config.credits;
        self.credits.entry((src, dst)).or_insert(cap)
    }

    fn dispatch(&mut self, now: SimTime, ev: Event) -> Option<Notification> {
        match ev {
            Event::UserSend { id } => {
                let (src, dst, _bytes) = *self
                    .pending_params
                    .get(&id)
                    .expect("user send for unknown id");
                if self.config.batch.enabled() {
                    self.enqueue_into_batch(id, src, dst, now);
                } else if *self.credits_mut(src, dst) > 0 {
                    self.launch(id, now, 0, now);
                } else {
                    self.stalled.entry((src, dst)).or_default().push_back(id);
                }
                None
            }
            Event::Flush { src, dst } => {
                self.flush_batch(src, dst, now, FlushCause::Quantum);
                None
            }
            Event::Timeout { id } => {
                let Some(req) = self.outstanding.get(&id).cloned() else {
                    return None; // reply already arrived
                };
                if req.attempt >= self.config.max_retries {
                    self.outstanding.remove(&id);
                    // Release the credit so the pair does not deadlock.
                    self.return_credit(req.src, req.dst, now);
                    if let Some(mut members) = self.batches.remove(&id) {
                        // The whole batch fails: one RequestFailed per
                        // member, FIFO, the first returned directly.
                        self.pending_params.remove(&id);
                        let n = members.len() as u64;
                        self.stats.failed += n;
                        self.probe.count("am.failed", n);
                        let mut it = members.drain(..);
                        let (first, _) = it.next().expect("a batch is never empty");
                        for (m, _) in it {
                            self.pending_notes
                                .push_back(Notification::RequestFailed { id: m, at: now });
                        }
                        self.batch_pool.push(members);
                        return Some(Notification::RequestFailed { id: first, at: now });
                    }
                    self.stats.failed += 1;
                    self.probe.count("am.failed", 1);
                    return Some(Notification::RequestFailed { id, at: now });
                }
                self.stats.retransmits += 1;
                self.probe.count("am.retransmits", 1);
                self.outstanding.remove(&id);
                self.launch(id, now, req.attempt + 1, req.issued);
                None
            }
            Event::Arrive { id, src, dst, kind } => {
                if self.rng.chance(self.config.loss_probability) {
                    self.stats.wire_losses += 1;
                    self.probe.count("am.wire_losses", 1);
                    return None;
                }
                match kind {
                    WireKind::Request { bytes, .. } => {
                        self.arrive_request(id, src, dst, bytes, now)
                    }
                    WireKind::Reply => self.arrive_reply(id, dst, now),
                }
            }
        }
    }

    /// Puts a request on the wire (first attempt or retransmission).
    /// `issued` is when the request's first attempt launched, carried
    /// across retransmissions for RTT accounting.
    fn launch(&mut self, id: MsgId, now: SimTime, attempt: u32, issued: SimTime) {
        let (src, dst, bytes) = *self.pending_params.get(&id).expect("launch for unknown id");
        if attempt == 0 {
            let c = self.credits_mut(src, dst);
            debug_assert!(*c > 0, "launch without credit");
            *c -= 1;
        }
        let out = self.net.transfer(src, dst, bytes, now);
        self.queue.schedule_at(
            out.delivered_at,
            Event::Arrive {
                id,
                src,
                dst,
                kind: WireKind::Request { bytes, attempt },
            },
        );
        let timeout_event = self
            .queue
            .schedule_at(now + self.config.timeout, Event::Timeout { id });
        let _ = bytes;
        self.outstanding.insert(
            id,
            OutstandingReq {
                src,
                dst,
                attempt,
                timeout_event,
                issued,
            },
        );
    }

    /// Adds a scheduled request to its pair's aggregation queue. A full
    /// queue (member or byte bound) flushes immediately — without ever
    /// arming the quantum timer when the first member already fills it,
    /// so `max_batch_msgs == 1` performs exactly the same event-queue
    /// operations as the unbatched path. Otherwise the first member of a
    /// fresh queue arms one [`Event::Flush`] a quantum out.
    fn enqueue_into_batch(&mut self, id: MsgId, src: NodeId, dst: NodeId, now: SimTime) {
        let bytes = self.pending_params.get(&id).expect("batching unknown id").2;
        let cfg = self.config.batch;
        let max_msgs = cfg.max_batch_msgs.max(1);
        let (full, armed) = {
            let entry = self.agg.entry((src, dst)).or_default();
            if entry.members.capacity() == 0 {
                if let Some(buf) = self.batch_pool.pop() {
                    entry.members = buf;
                }
            }
            entry.members.push((id, bytes));
            entry.bytes += bytes;
            (
                entry.members.len() as u32 >= max_msgs || entry.bytes >= cfg.max_batch_bytes,
                entry.flush_event.is_some(),
            )
        };
        if full {
            self.flush_batch(src, dst, now, FlushCause::Size);
        } else if !armed {
            let ev = self
                .queue
                .schedule_at(now + cfg.flush_quantum, Event::Flush { src, dst });
            self.agg
                .get_mut(&(src, dst))
                .expect("queue just populated")
                .flush_event = Some(ev);
        }
    }

    /// Closes the `(src, dst)` aggregation queue: its members become one
    /// wire-level batch message — one overhead and one wire charge for the
    /// summed payload — that the credit/timeout/retry machinery carries
    /// exactly like a single request.
    fn flush_batch(&mut self, src: NodeId, dst: NodeId, now: SimTime, cause: FlushCause) {
        let Some(agg) = self.agg.remove(&(src, dst)) else {
            return; // already flushed by a size bound
        };
        if let (FlushCause::Size, Some(ev)) = (cause, agg.flush_event) {
            self.queue.cancel(ev);
        }
        debug_assert!(!agg.members.is_empty(), "a batch is never empty");
        self.stats.batches += 1;
        self.probe.count("am.batches", 1);
        match cause {
            FlushCause::Quantum => {
                self.stats.flush_timeouts += 1;
                self.probe.count("am.flush_timeouts", 1);
            }
            FlushCause::Size => {
                self.stats.flush_on_size += 1;
                self.probe.count("am.flush_on_size", 1);
            }
        }
        let n = agg.members.len() as u64;
        self.stats.batched_msgs += n;
        self.probe.count("am.batched_msgs", n);
        // Member parameters are subsumed by the batch header from here on.
        for &(m, _) in &agg.members {
            self.pending_params.remove(&m);
        }
        let batch_id = MsgId(self.next_id);
        self.next_id += 1;
        self.pending_params.insert(batch_id, (src, dst, agg.bytes));
        self.batches.insert(batch_id, agg.members);
        if *self.credits_mut(src, dst) > 0 {
            self.launch(batch_id, now, 0, now);
        } else {
            self.stalled
                .entry((src, dst))
                .or_default()
                .push_back(batch_id);
        }
    }

    fn arrive_request(
        &mut self,
        id: MsgId,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
    ) -> Option<Notification> {
        let ep = &mut self.endpoints[dst.0 as usize];
        if ep.handled.contains(&id) {
            // Duplicate (our reply was lost): re-reply, do not re-run the
            // handler.
            self.stats.duplicates += 1;
            self.probe.count("am.duplicates", 1);
            self.send_reply(id, dst, src, now);
            return None;
        }
        if ep.running {
            Some(self.handle_request(id, src, dst, now))
        } else if ep.inbox.iter().any(|&(qid, _, _)| qid == id) {
            // A retransmission of a message we already buffered.
            self.stats.duplicates += 1;
            self.probe.count("am.duplicates", 1);
            None
        } else if (ep.inbox.len() as u32) < self.config.recv_buffer_msgs {
            ep.inbox.push_back((id, src, bytes));
            None
        } else {
            self.stats.buffer_drops += 1;
            self.probe.count("am.buffer_drops", 1);
            None // sender's timeout recovers it
        }
    }

    /// Runs the handler at `dst` and sends the reply.
    fn handle_request(
        &mut self,
        id: MsgId,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
    ) -> Notification {
        let inserted = self.endpoints[dst.0 as usize].handled.insert(id);
        debug_assert!(inserted, "handler must run exactly once");
        if self.batches.contains_key(&id) {
            // A batch header: the unpacking handler runs each member in
            // FIFO order. One reply acknowledges the whole batch.
            let n = self.batches[&id].len() as u64;
            self.stats.delivered += n;
            self.probe.count("am.delivered", n);
            self.send_reply(id, dst, src, now);
            let mut it = self.batches[&id].iter();
            let &(first, _) = it.next().expect("a batch is never empty");
            for &(m, _) in it {
                self.pending_notes
                    .push_back(Notification::RequestDelivered {
                        id: m,
                        src,
                        dst,
                        at: now,
                    });
            }
            return Notification::RequestDelivered {
                id: first,
                src,
                dst,
                at: now,
            };
        }
        self.stats.delivered += 1;
        self.probe.count("am.delivered", 1);
        self.send_reply(id, dst, src, now);
        Notification::RequestDelivered {
            id,
            src,
            dst,
            at: now,
        }
    }

    fn send_reply(&mut self, id: MsgId, from: NodeId, to: NodeId, now: SimTime) {
        let out = self.net.transfer(from, to, self.config.reply_bytes, now);
        self.queue.schedule_at(
            out.delivered_at,
            Event::Arrive {
                id,
                src: from,
                dst: to,
                kind: WireKind::Reply,
            },
        );
    }

    fn arrive_reply(&mut self, id: MsgId, at: NodeId, now: SimTime) -> Option<Notification> {
        let Some(req) = self.outstanding.remove(&id) else {
            return None; // duplicate reply
        };
        debug_assert_eq!(req.src, at, "reply must return to the sender");
        self.queue.cancel(req.timeout_event);
        if let Some(mut members) = self.batches.remove(&id) {
            // The batch acknowledgment completes every member; the RTT
            // histogram records the batch round trip once.
            let n = members.len() as u64;
            self.stats.replies += n;
            self.probe.count("am.replies", n);
            self.probe
                .record("am.rtt.ns", now.saturating_since(req.issued));
            self.pending_params.remove(&id);
            self.return_credit(req.src, req.dst, now);
            let mut it = members.drain(..);
            let (first, _) = it.next().expect("a batch is never empty");
            for (m, _) in it {
                self.pending_notes
                    .push_back(Notification::ReplyDelivered { id: m, at: now });
            }
            self.batch_pool.push(members);
            return Some(Notification::ReplyDelivered { id: first, at: now });
        }
        self.stats.replies += 1;
        self.probe.count("am.replies", 1);
        self.probe
            .record("am.rtt.ns", now.saturating_since(req.issued));
        self.pending_params.remove(&id);
        self.return_credit(req.src, req.dst, now);
        Some(Notification::ReplyDelivered { id, at: now })
    }

    /// Returns a credit to the pair and unstalls the next queued request.
    fn return_credit(&mut self, src: NodeId, dst: NodeId, now: SimTime) {
        *self.credits_mut(src, dst) += 1;
        if let Some(queue) = self.stalled.get_mut(&(src, dst)) {
            if let Some(next) = queue.pop_front() {
                let c = self.credits_mut(src, dst);
                debug_assert!(*c > 0);
                self.launch(next, now, 0, now);
            }
        }
    }

    /// Total credits currently available plus consumed by in-flight
    /// first-attempt requests for a pair — used by tests to check credit
    /// conservation.
    pub fn credits_available(&self, src: NodeId, dst: NodeId) -> u32 {
        self.credits
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.config.credits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_net::presets;

    fn engine(nodes: u32) -> ActiveMessages {
        ActiveMessages::new(presets::am_atm(nodes), AmConfig::default(), 7)
    }

    #[test]
    fn single_request_delivers_and_replies() {
        let mut am = engine(2);
        let id = am.request_at(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        let notes = am.run_to_completion();
        assert_eq!(notes.len(), 2);
        assert!(matches!(
            notes[0],
            Notification::RequestDelivered { id: got, src: NodeId(0), dst: NodeId(1), .. } if got == id
        ));
        assert!(matches!(notes[1], Notification::ReplyDelivered { id: got, .. } if got == id));
        let s = am.stats();
        assert_eq!(s.requests, 1);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.replies, 1);
        assert_eq!(s.retransmits, 0);
    }

    #[test]
    fn credits_limit_outstanding_requests() {
        let mut am = engine(2);
        // Fire 10 requests at once with 4 credits.
        for _ in 0..10 {
            am.request_at(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        }
        // After the UserSend events fire, only 4 are on the wire.
        // Advance until the first delivery to check stall occurred.
        let notes = am.run_to_completion();
        let delivered = notes
            .iter()
            .filter(|n| matches!(n, Notification::RequestDelivered { .. }))
            .count();
        assert_eq!(delivered, 10, "all eventually delivered");
        assert_eq!(am.stats().replies, 10);
        // All credits returned at the end.
        assert_eq!(am.credits_available(NodeId(0), NodeId(1)), 4);
    }

    #[test]
    fn descheduled_receiver_buffers_until_scheduled() {
        let mut am = engine(2);
        am.set_running(NodeId(1), false);
        am.request_at(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        // Run well past the arrival: nothing delivered yet.
        let early = am.advance_until(SimTime::from_micros(500));
        assert!(early.is_empty(), "handler must not run while descheduled");
        assert_eq!(am.stats().delivered, 0);
        // Schedule it: drains the inbox.
        let notes = am.set_running(NodeId(1), true);
        assert_eq!(notes.len(), 1);
        assert!(matches!(notes[0], Notification::RequestDelivered { .. }));
        // The reply then flows back.
        let rest = am.run_to_completion();
        assert!(rest
            .iter()
            .any(|n| matches!(n, Notification::ReplyDelivered { .. })));
    }

    #[test]
    fn buffer_overflow_drops_and_timeout_recovers() {
        let net = presets::am_atm(2);
        let config = AmConfig {
            credits: 16,
            recv_buffer_msgs: 2,
            timeout: SimDuration::from_micros(500),
            ..AmConfig::default()
        };
        let mut am = ActiveMessages::new(net, config, 3);
        am.set_running(NodeId(1), false);
        for _ in 0..6 {
            am.request_at(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        }
        // Let the arrivals and a few timeout rounds pass, then schedule the
        // receiver before retries are exhausted.
        let early = am.advance_until(SimTime::from_micros(2_000));
        assert!(early.is_empty(), "nothing delivers while descheduled");
        assert!(am.stats().buffer_drops > 0, "buffer must overflow");
        am.set_running(NodeId(1), true);
        let _ = am.run_to_completion();
        let s = am.stats();
        assert_eq!(s.delivered, 6, "every request eventually handled");
        assert!(s.retransmits > 0, "recovery is via retransmission");
        assert_eq!(s.failed, 0);
    }

    #[test]
    fn lossy_wire_still_delivers_exactly_once() {
        let net = presets::am_atm(4);
        let config = AmConfig {
            loss_probability: 0.3,
            timeout: SimDuration::from_micros(800),
            max_retries: 50,
            ..AmConfig::default()
        };
        let mut am = ActiveMessages::new(net, config, 11);
        let n = 40;
        for i in 0..n {
            am.request_at(
                SimTime::from_micros(i * 5),
                NodeId((i % 3) as u32),
                NodeId(3),
                128,
            );
        }
        let _ = am.run_to_completion();
        let s = am.stats();
        assert_eq!(s.delivered, n, "exactly-once delivery under loss");
        assert_eq!(s.replies, n);
        assert_eq!(s.failed, 0);
        assert!(s.wire_losses > 0, "the loss model must have fired");
        assert!(s.retransmits >= s.wire_losses / 2);
    }

    #[test]
    fn duplicates_are_suppressed_not_rehandled() {
        // Force duplicates: lossy replies with fast timeout.
        let net = presets::am_atm(2);
        let config = AmConfig {
            loss_probability: 0.4,
            timeout: SimDuration::from_micros(600),
            max_retries: 100,
            ..AmConfig::default()
        };
        let mut am = ActiveMessages::new(net, config, 5);
        for i in 0..20 {
            am.request_at(SimTime::from_micros(i * 3), NodeId(0), NodeId(1), 64);
        }
        let _ = am.run_to_completion();
        let s = am.stats();
        assert_eq!(s.delivered, 20);
        assert!(s.duplicates > 0, "this seed should produce duplicates");
    }

    #[test]
    fn exhausted_retries_fail_and_release_credit() {
        let net = presets::am_atm(2);
        let config = AmConfig {
            loss_probability: 1.0, // nothing ever arrives
            timeout: SimDuration::from_micros(100),
            max_retries: 3,
            credits: 1,
            ..AmConfig::default()
        };
        let mut am = ActiveMessages::new(net, config, 2);
        let id = am.request_at(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        let id2 = am.request_at(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        let notes = am.run_to_completion();
        let failed: Vec<MsgId> = notes
            .iter()
            .filter_map(|n| match n {
                Notification::RequestFailed { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(
            failed,
            vec![id, id2],
            "both fail, second after credit release"
        );
        assert_eq!(am.stats().failed, 2);
        assert_eq!(am.credits_available(NodeId(0), NodeId(1)), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut am = ActiveMessages::new(
                presets::am_atm(4),
                AmConfig {
                    loss_probability: 0.2,
                    timeout: SimDuration::from_micros(700),
                    ..AmConfig::default()
                },
                99,
            );
            for i in 0..30u64 {
                am.request_at(
                    SimTime::from_micros(i * 7),
                    NodeId((i % 3) as u32),
                    NodeId(((i + 1) % 4) as u32).max(NodeId(3)),
                    64 + i,
                );
            }
            let notes = am.run_to_completion();
            (notes, am.stats())
        };
        let (n1, s1) = run();
        let (n2, s2) = run();
        assert_eq!(n1, n2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn round_trip_time_is_tens_of_microseconds_on_am_atm() {
        let mut am = engine(2);
        let t0 = SimTime::from_micros(100);
        am.request_at(t0, NodeId(0), NodeId(1), 64);
        let notes = am.run_to_completion();
        let reply_at = notes
            .iter()
            .find_map(|n| match n {
                Notification::ReplyDelivered { at, .. } => Some(*at),
                _ => None,
            })
            .unwrap();
        let rtt = reply_at.saturating_since(t0).as_micros_f64();
        assert!(
            (20.0..120.0).contains(&rtt),
            "AM/ATM round trip {rtt} µs out of expected range"
        );
    }

    #[test]
    #[should_panic(expected = "remote by definition")]
    fn self_request_panics() {
        engine(2).request_at(SimTime::ZERO, NodeId(0), NodeId(0), 64);
    }
}
