//! The composable simulation engine: typed components over one
//! [`EventQueue`].
//!
//! Every simulator in this workspace used to hand-roll the same loop:
//! `while let Some((now, ev)) = q.pop() { ... }`. That shape made each
//! subsystem its own closed world — paging, cooperative caching, and
//! parallel jobs could never contend for the same wires because each loop
//! owned a private clock and charged *constant* costs for remote traffic.
//!
//! The [`Engine`] keeps the queue's determinism (timestamp order, FIFO
//! among equal timestamps) and adds two things:
//!
//! * **Routing** — events carry a destination [`ComponentId`]; registered
//!   [`Component`]s receive their events through [`Component::on_event`]
//!   and schedule follow-ups or message other components through [`Ctx`].
//!   Delivery order among equal timestamps is the order the events were
//!   scheduled, regardless of component registration order.
//! * **A cost model** — components ask [`Ctx::transfer`] /
//!   [`Ctx::rpc`] what remote traffic costs. On an
//!   [`Engine::new`] engine there is no shared fabric and components
//!   charge their own constants (the legacy behaviour, bit-for-bit). On an
//!   [`Engine::with_transport`] engine every transfer reserves real
//!   occupancy on one shared [`Transport`], so independent workloads slow
//!   each other down — the composition the paper argues for.
//!
//! Heterogeneous engines (several subsystems on one fabric) wrap each
//! subsystem's event enum in one routed enum via [`EventCast`]; a
//! component written against its own event type then drops into any engine
//! whose event type embeds it.

use std::any::Any;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use crate::profile::{ComponentProfile, HostProfile};
use crate::{EventId, EventQueue, SimDuration, SimTime};

/// Identifies a component registered with an [`Engine`], in registration
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId(pub usize);

/// Lossless embedding of a component's event type `E` into an engine's
/// routed event type `M`.
///
/// The identity embedding (`M = E`) is provided for every type, so a
/// single-component engine needs no wrapper enum. A coupled engine defines
/// one variant per subsystem and implements `EventCast` per variant;
/// [`EventCast::downcast`] may panic when handed the wrong variant — that
/// only happens when an event was routed to the wrong component, which is
/// a simulation bug.
pub trait EventCast<E>: Sized {
    /// Wraps a component-level event for the engine's queue.
    fn upcast(ev: E) -> Self;
    /// Unwraps an event delivered to the component.
    ///
    /// # Panics
    ///
    /// Implementations panic if `self` does not hold an `E` — the event
    /// was routed to the wrong component.
    fn downcast(self) -> E;
}

impl<E> EventCast<E> for E {
    fn upcast(ev: E) -> E {
        ev
    }
    fn downcast(self) -> E {
        self
    }
}

/// Implements [`EventCast`] for each `Variant(Payload)` of an engine's
/// event enum: `upcast` wraps the payload in its variant, and `downcast`
/// unwraps it, panicking on any other variant (a routing bug).
///
/// ```
/// use now_sim::EventCast;
///
/// #[derive(Debug)]
/// enum Ev {
///     Tick(u32),
///     Stop(bool),
/// }
/// now_sim::event_cast!(Ev { Tick(u32), Stop(bool) });
///
/// assert!(matches!(Ev::upcast(7u32), Ev::Tick(7)));
/// assert!(<Ev as EventCast<bool>>::downcast(Ev::Stop(true)));
/// ```
#[macro_export]
macro_rules! event_cast {
    ($event:ident { $($variant:ident($payload:ty)),+ $(,)? }) => {
        $(
            impl $crate::EventCast<$payload> for $event {
                fn upcast(ev: $payload) -> Self {
                    $event::$variant(ev)
                }
                fn downcast(self) -> $payload {
                    match self {
                        $event::$variant(ev) => ev,
                        other => panic!(
                            concat!("expected a ", stringify!($variant), " event, got {:?}"),
                            other
                        ),
                    }
                }
            }
        )+
    };
}

/// A shared communication fabric the engine charges remote traffic
/// against.
///
/// Implementations are occupancy models: each call reserves wire and
/// software time and returns when the payload is *delivered*, so back-to-
/// back calls from competing components queue behind each other.
///
/// `Send` so that an engine owning one stays `Send` (see [`Component`]);
/// the transport is still only ever called from one thread at a time.
pub trait Transport: Send {
    /// Moves `bytes` from node `src` to node `dst`, requested at `now`,
    /// and returns when the payload was delivered and where the time
    /// went. `src == dst` is a local copy and must cost nothing
    /// ([`TransferCost::free`]).
    fn transfer(&mut self, src: u32, dst: u32, bytes: u64, now: SimTime) -> TransferCost;
}

/// Where the time of one fabric exchange went, as reported by
/// [`Transport::transfer`]. The pieces partition the interval between
/// request and delivery: `overhead + wait + wire` equals
/// `delivered - requested_at` exactly for occupancy transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferCost {
    /// When the payload (or, for rpcs, the response) was delivered.
    pub delivered: SimTime,
    /// Software send/receive processing charged to the endpoints
    /// (the LogP `o` term).
    pub overhead: SimDuration,
    /// Time spent queued behind competing traffic before the wire was
    /// free — the fabric-contention term.
    pub wait: SimDuration,
    /// Serialization plus propagation once transmission started.
    pub wire: SimDuration,
}

impl TransferCost {
    /// A free local copy: delivered at `now`, nothing charged.
    pub fn free(now: SimTime) -> Self {
        TransferCost {
            delivered: now,
            overhead: SimDuration::ZERO,
            wait: SimDuration::ZERO,
            wire: SimDuration::ZERO,
        }
    }

    /// Total charged time (`overhead + wait + wire`).
    pub fn total(&self) -> SimDuration {
        self.overhead + self.wait + self.wire
    }
}

/// Provenance of one scheduled event (or synthetic mark): which event
/// caused it, which components are involved, when it was scheduled and
/// when it fires, plus any blame segments attached via [`Ctx::blame`].
///
/// Records form a DAG rooted at seed events ([`Engine::schedule_at`],
/// `parent == None`): a child's `scheduled_at` is its parent's firing
/// time, so walking parents from any record back to a root telescopes
/// into an exact account of elapsed simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalRecord {
    /// The scheduled event's queue sequence number ([`EventId::seq`]).
    /// Synthetic marks use a disjoint id space (high bit set).
    pub seq: u64,
    /// Sequence number of the event during whose handling this one was
    /// scheduled; `None` for seeds.
    pub parent: Option<u64>,
    /// Trace id: every seed starts a fresh trace, descendants inherit it.
    pub trace: u64,
    /// Component that scheduled the event; `None` for seeds.
    pub src: Option<ComponentId>,
    /// Component the event is addressed to.
    pub dst: ComponentId,
    /// Simulated time at which the event was scheduled.
    pub scheduled_at: SimTime,
    /// Simulated time at which the event fires (for marks: the labelled
    /// completion time).
    pub fires_at: SimTime,
    /// Label attached via [`Ctx::mark`]; empty for ordinary events.
    pub label: &'static str,
    /// Attribution segments explaining the edge leading to this event:
    /// `(category, duration)` pairs queued via [`Ctx::blame`].
    pub blame: Vec<(&'static str, SimDuration)>,
}

/// Consumer of [`CausalRecord`]s produced by an [`Engine`] with causal
/// tracing enabled (see [`Engine::set_causal_sink`]).
///
/// `Send + Sync` because a multi-cell run shares one sink across its cell
/// engines, which record from their worker threads concurrently.
pub trait CausalSink: Send + Sync {
    /// Accepts one record. Called during event dispatch; implementations
    /// should be cheap and must not re-enter the engine.
    fn record(&self, record: CausalRecord);
}

/// Seq-space base for synthetic marks, disjoint from queue sequence
/// numbers (a queue would need 2^63 events to collide).
const MARK_SEQ_BASE: u64 = 1 << 63;

/// Moves the queued blame segments into an owned `Vec` for a
/// [`CausalRecord`], leaving the shared buffer (and its capacity) behind
/// for the next event. An empty buffer yields `Vec::new()` — no
/// allocation — so events that attach no blame stay free.
fn drain_blame(buf: &mut Vec<(&'static str, SimDuration)>) -> Vec<(&'static str, SimDuration)> {
    if buf.is_empty() {
        Vec::new()
    } else {
        buf.split_off(0)
    }
}

/// Schedules `event` for `dst` at `time` as the root of a fresh trace
/// (no parent, no pending blame), recording it when the new trace is
/// sampled. `src` is the scheduling component; `None` for seeds placed
/// before the run.
fn schedule_root<M>(
    queue: &mut EventQueue<Envelope<M>>,
    mut causal: Option<&mut CausalState>,
    src: Option<ComponentId>,
    dst: ComponentId,
    time: SimTime,
    event: M,
) -> EventId {
    let trace = match &mut causal {
        Some(causal) => {
            causal.next_trace += 1;
            causal.global_seq(causal.next_trace)
        }
        None => 0,
    };
    let id = queue.schedule_at(time, Envelope { dst, trace, event });
    if let Some(causal) = causal.filter(|c| c.sampled(trace)) {
        causal.sink.record(CausalRecord {
            seq: causal.global_seq(id.seq()),
            parent: None,
            trace,
            src,
            dst,
            scheduled_at: queue.now(),
            fires_at: time,
            label: "",
            blame: Vec::new(),
        });
    }
    id
}

struct CausalState {
    sink: Arc<dyn CausalSink>,
    next_trace: u64,
    next_mark: u64,
    /// Record provenance only for traces where `trace % sample_every == 0`
    /// (1 = every trace; see [`Engine::set_causal_sink`]).
    /// Trace ids are assigned deterministically in scheduling order, so
    /// which chains are sampled is a pure function of the workload — equal
    /// seeds sample equal chains and output stays byte-identical.
    sample_every: u64,
    /// Added to every emitted seq and trace id (and to parent links) so
    /// the cell engines of a multi-cell run write into disjoint id ranges
    /// of one shared sink — cell `c` gets `c << 44`, leaving 2^44 local
    /// events per cell before a collision could occur. Zero for
    /// single-cell engines. Sampling applies to the *offset* trace id, so
    /// multi-cell runs that sample should use `sample_every == 1` (the
    /// scenario layer's blame path does).
    seq_offset: u64,
}

impl CausalState {
    fn sampled(&self, trace: u64) -> bool {
        trace.is_multiple_of(self.sample_every)
    }

    /// A local queue seq (or parent seq) lifted into the shared id space.
    fn global_seq(&self, local: u64) -> u64 {
        debug_assert!(
            self.seq_offset == 0 || local < (1 << 44),
            "cell overflowed its causal id range"
        );
        self.seq_offset + local
    }
}

/// How an [`Engine`] prices remote traffic.
pub(crate) enum CostModel {
    /// No shared fabric: components charge their own constant costs.
    /// Legacy single-subsystem runs use this mode and reproduce the
    /// pre-engine results byte-for-byte.
    Fixed,
    /// All traffic traverses one live fabric and contends for its
    /// occupancy.
    Fabric(Box<dyn Transport>),
}

/// How an engine prices remote traffic, for components that branch on it
/// without needing the transport itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostMode {
    /// No shared fabric ([`Engine::new`]): components charge their own
    /// constant costs.
    Fixed,
    /// Every transfer occupies one live fabric
    /// ([`Engine::with_transport`]).
    Fabric,
}

/// A simulated subsystem driven by an [`Engine`].
///
/// The `Any` supertrait lets callers recover the concrete component (and
/// its accumulated results) after a run via [`Engine::component`]. The
/// `Send` supertrait keeps an [`Engine`], components included, free to
/// move between threads. A multi-cell run builds, runs and drops cell
/// `c`'s engine on the worker thread that claims the cell, so each
/// component is only ever driven from one thread.
pub trait Component<M>: Any + Send {
    /// Handles one event addressed to this component.
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M);
}

struct Envelope<M> {
    dst: ComponentId,
    /// Trace id the event belongs to (0 when causal tracing is off).
    trace: u64,
    event: M,
}

/// The view a component gets of the engine while handling an event:
/// the clock, scheduling, the message bus, and the cost model.
pub struct Ctx<'a, M> {
    queue: &'a mut EventQueue<Envelope<M>>,
    cost: &'a mut CostModel,
    self_id: ComponentId,
    causal: Option<&'a mut CausalState>,
    /// Seq of the event currently being handled.
    current_seq: u64,
    /// Trace id of the event currently being handled.
    current_trace: u64,
    /// Blame segments queued via [`Ctx::blame`], attached to the next
    /// scheduled event or mark. Borrowed from the engine's reusable
    /// buffer, so dispatch allocates nothing per envelope: the buffer's
    /// capacity survives across events, and the disabled path never
    /// pushes into it at all.
    pending_blame: &'a mut Vec<(&'static str, SimDuration)>,
    /// Host-time accumulator for cost-model calls, present only with the
    /// profiler enabled (see [`Engine::enable_profiler`]). Dispatch
    /// subtracts what lands here from the component's own time, so
    /// component and fabric host time stay separable. A `Cell` because
    /// the engine reads it back after the handler returns while the
    /// transfer methods only hold `&self`-style access through `Ctx`.
    fabric_ns: Option<&'a Cell<u64>>,
}

/// Runs `f`, adding its wall time to `cell` when profiling is on. The
/// disabled path is a single `match` on `None`.
fn fabric_timed<R>(cell: Option<&Cell<u64>>, f: impl FnOnce() -> R) -> R {
    match cell {
        None => f(),
        Some(cell) => {
            let start = Instant::now();
            let result = f();
            cell.set(cell.get() + start.elapsed().as_nanos() as u64);
            result
        }
    }
}

impl<M> Ctx<'_, M> {
    /// Schedules an envelope and, when causal tracing is on, records its
    /// provenance (parent = current event) with any pending blame.
    fn schedule_envelope(&mut self, dst: ComponentId, time: SimTime, event: M) -> EventId {
        let trace = self.current_trace;
        let id = self.queue.schedule_at(time, Envelope { dst, trace, event });
        if let Some(causal) = self.causal.as_ref().filter(|c| c.sampled(trace)) {
            causal.sink.record(CausalRecord {
                seq: causal.global_seq(id.seq()),
                parent: Some(causal.global_seq(self.current_seq)),
                trace,
                src: Some(self.self_id),
                dst,
                scheduled_at: self.queue.now(),
                fires_at: time,
                label: "",
                blame: drain_blame(self.pending_blame),
            });
        }
        id
    }

    /// True when the engine records causal provenance. Components may use
    /// this to skip work that only feeds attribution.
    pub fn causal_enabled(&self) -> bool {
        self.causal.is_some()
    }

    /// True when the *current* event's trace is among the sampled 1-in-N
    /// (always true with tracing on at the default sampling of 1; always
    /// false with tracing off). Components may use this to skip work that
    /// only feeds attribution of this specific chain.
    pub fn trace_sampled(&self) -> bool {
        self.causal
            .as_ref()
            .is_some_and(|c| c.sampled(self.current_trace))
    }

    /// Schedules an event to this component at absolute time `time` as the
    /// root of a *fresh* trace, exactly as [`Engine::schedule_at`] seeds
    /// one before the run. Open-loop workload generators use this so every
    /// request chain is its own trace: the engine can then sample 1-in-N
    /// chains end-to-end ([`Engine::set_causal_sink`]) and causal
    /// memory stays proportional to sampled chains, not events. Pending
    /// [`Ctx::blame`] is left for the current chain, not attached here.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn schedule_root_at(&mut self, time: SimTime, event: M) -> EventId {
        let (me, causal) = (self.self_id, self.causal.as_deref_mut());
        schedule_root(self.queue, causal, Some(me), me, time, event)
    }

    /// Attributes `amount` of the time leading up to the *next* scheduled
    /// event (or [`Ctx::mark`]) to `category`. Segments accumulate in call
    /// order and are drained by the next `schedule_*`/`send_to*`/`mark`;
    /// anything left when the handler returns is discarded. A no-op when
    /// causal tracing is off, the current trace is not sampled, or
    /// `amount` is zero.
    pub fn blame(&mut self, category: &'static str, amount: SimDuration) {
        if self.trace_sampled() && amount > SimDuration::ZERO {
            self.pending_blame.push((category, amount));
        }
    }

    /// Emits a labelled terminal record at time `at` (e.g. a scenario
    /// completion) without scheduling anything. The mark's parent is the
    /// current event, so critical-path extraction can start from it.
    /// Pending blame attaches to the mark. A no-op when tracing is off or
    /// the current trace is not sampled.
    pub fn mark(&mut self, label: &'static str, at: SimTime) {
        let trace_sampled = self.trace_sampled();
        if let Some(causal) = &mut self.causal {
            if !trace_sampled {
                return;
            }
            let seq = MARK_SEQ_BASE + causal.seq_offset + causal.next_mark;
            causal.next_mark += 1;
            causal.sink.record(CausalRecord {
                seq,
                parent: Some(causal.global_seq(self.current_seq)),
                trace: self.current_trace,
                src: Some(self.self_id),
                dst: self.self_id,
                scheduled_at: self.queue.now(),
                fires_at: at,
                label,
                blame: drain_blame(self.pending_blame),
            });
        }
    }
    /// Current simulated time (the timestamp of the event being handled).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The id of the component handling the current event.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Which cost model the engine is running under.
    pub fn cost_mode(&self) -> CostMode {
        match self.cost {
            CostModel::Fixed => CostMode::Fixed,
            CostModel::Fabric(_) => CostMode::Fabric,
        }
    }

    /// Schedules an event to this component at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (see [`EventQueue::schedule_at`]).
    pub fn schedule_at(&mut self, time: SimTime, event: M) -> EventId {
        let dst = self.self_id;
        self.schedule_envelope(dst, time, event)
    }

    /// Schedules an event to this component `delay` from now.
    pub fn schedule_after(&mut self, delay: SimDuration, event: M) -> EventId {
        self.schedule_at(self.queue.now() + delay, event)
    }

    /// Sends an event to another component, delivered at the current
    /// timestamp after everything already scheduled for it (FIFO).
    pub fn send_to(&mut self, dst: ComponentId, event: M) -> EventId {
        self.send_to_at(dst, self.queue.now(), event)
    }

    /// Sends an event to another component at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn send_to_at(&mut self, dst: ComponentId, time: SimTime, event: M) -> EventId {
        self.schedule_envelope(dst, time, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if it was
    /// still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// The shared fabric every pricing call charges.
    ///
    /// # Panics
    ///
    /// Panics on an [`Engine::new`] engine, which has no fabric:
    /// fixed-mode components charge their own constants instead.
    fn transport(&mut self) -> &mut dyn Transport {
        match self.cost {
            CostModel::Fixed => panic!(
                "fabric transfer requested under CostModel::Fixed; \
                 fixed-mode components charge their own constants"
            ),
            CostModel::Fabric(t) => t.as_mut(),
        }
    }

    /// Charges a one-way transfer of `bytes` from node `src` to node
    /// `dst` against the shared fabric, departing at `at` (now, or later
    /// for the next hop of a multi-hop exchange, which departs when the
    /// previous one delivered). Returns the delivery time and its cost
    /// breakdown ([`TransferCost`]), for components attributing their
    /// service time via [`Ctx::blame`].
    ///
    /// # Panics
    ///
    /// Panics on an [`Engine::new`] engine, which has no fabric:
    /// fixed-mode components charge their own constants instead.
    pub fn transfer(&mut self, src: u32, dst: u32, bytes: u64, at: SimTime) -> TransferCost {
        let fabric_ns = self.fabric_ns;
        let t = self.transport();
        fabric_timed(fabric_ns, || t.transfer(src, dst, bytes, at))
    }

    /// Charges a request/response exchange against the shared fabric:
    /// `request_bytes` from `src` to `dst` now, then `response_bytes` back
    /// when the request lands. `delivered` is when the response lands;
    /// the breakdown is summed over both legs.
    ///
    /// # Panics
    ///
    /// Panics without a fabric (see [`Ctx::transfer`]).
    pub fn rpc(
        &mut self,
        src: u32,
        dst: u32,
        request_bytes: u64,
        response_bytes: u64,
    ) -> TransferCost {
        let now = self.queue.now();
        let fabric_ns = self.fabric_ns;
        let t = self.transport();
        fabric_timed(fabric_ns, || {
            let there = t.transfer(src, dst, request_bytes, now);
            let back = t.transfer(dst, src, response_bytes, there.delivered);
            TransferCost {
                delivered: back.delivered,
                overhead: there.overhead + back.overhead,
                wait: there.wait + back.wait,
                wire: there.wire + back.wire,
            }
        })
    }
}

/// A deterministic discrete-event engine routing typed events to
/// registered [`Component`]s.
///
/// # Example
///
/// ```
/// use now_sim::{Component, Ctx, Engine, SimDuration, SimTime};
///
/// struct Counter {
///     left: u32,
///     fired: u32,
/// }
///
/// impl Component<u32> for Counter {
///     fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
///         self.fired += ev;
///         if self.left > 0 {
///             self.left -= 1;
///             ctx.schedule_after(SimDuration::from_micros(10), 1);
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// let id = engine.register(Counter { left: 3, fired: 0 });
/// engine.schedule_at(id, SimTime::ZERO, 1);
/// engine.run();
/// assert_eq!(engine.component::<Counter>(id).fired, 4);
/// assert_eq!(engine.now(), SimTime::from_micros(30));
/// ```
pub struct Engine<M> {
    queue: EventQueue<Envelope<M>>,
    /// Indexed by [`ComponentId`].
    components: Vec<Box<dyn Component<M>>>,
    cost: CostModel,
    causal: Option<CausalState>,
    /// Reusable [`Ctx::blame`] staging buffer: allocated at most once per
    /// engine, lent to each dispatch's `Ctx` instead of constructing a
    /// fresh `Vec` per envelope.
    blame_buf: Vec<(&'static str, SimDuration)>,
    /// Host-time profiler state; `None` (the default) keeps dispatch free
    /// of any timing work.
    profiler: Option<ProfilerState>,
}

/// Accumulators behind [`Engine::enable_profiler`]: per-component host
/// time with the cost-model share split out.
struct ProfilerState {
    /// Display labels in registration order; indices past the end render
    /// as `component<i>`.
    labels: Vec<String>,
    /// Handler wall-ns per component, cost model excluded.
    self_ns: Vec<u64>,
    /// Cost-model wall-ns charged while handling each component's events.
    fabric_ns: Vec<u64>,
    /// Events dispatched per component.
    events: Vec<u64>,
    /// Wall-ns inside [`Engine::run`].
    wall_ns: u64,
    /// Scratch cell the dispatch lends to [`Ctx`] so transfer calls can
    /// report their wall time back.
    fabric_cell: Cell<u64>,
}

impl ProfilerState {
    fn new(labels: &[&str]) -> ProfilerState {
        ProfilerState {
            labels: labels.iter().map(|l| l.to_string()).collect(),
            self_ns: Vec::new(),
            fabric_ns: Vec::new(),
            events: Vec::new(),
            wall_ns: 0,
            fabric_cell: Cell::new(0),
        }
    }

    fn charge(&mut self, component: usize, total_ns: u64, fabric_ns: u64) {
        if component >= self.events.len() {
            self.self_ns.resize(component + 1, 0);
            self.fabric_ns.resize(component + 1, 0);
            self.events.resize(component + 1, 0);
        }
        self.self_ns[component] += total_ns.saturating_sub(fabric_ns);
        self.fabric_ns[component] += fabric_ns;
        self.events[component] += 1;
    }

    fn into_profile(self) -> HostProfile {
        let components = self
            .events
            .iter()
            .enumerate()
            .filter(|&(_, &events)| events > 0)
            .map(|(i, &events)| ComponentProfile {
                label: self
                    .labels
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| format!("component{i}")),
                events,
                self_ns: self.self_ns[i],
                fabric_ns: self.fabric_ns[i],
            })
            .collect();
        HostProfile {
            wall_ns: self.wall_ns,
            events: self.events.iter().sum(),
            components,
        }
    }
}

impl<M: 'static> Default for Engine<M> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<M: 'static> Engine<M> {
    /// An engine with no shared fabric ([`CostMode::Fixed`]): components
    /// charge their own constant costs.
    pub fn new() -> Self {
        Engine::with_cost_model(CostModel::Fixed)
    }

    /// An engine whose remote traffic traverses `transport`
    /// ([`CostMode::Fabric`]).
    pub fn with_transport(transport: Box<dyn Transport>) -> Self {
        Engine::with_cost_model(CostModel::Fabric(transport))
    }

    fn with_cost_model(cost: CostModel) -> Self {
        Engine {
            queue: EventQueue::new(),
            components: Vec::new(),
            cost,
            causal: None,
            blame_buf: Vec::new(),
            profiler: None,
        }
    }

    /// Enables host-time profiling: every subsequent dispatch is timed
    /// with the wall clock and attributed to its component (`labels` by
    /// registration order), with time inside [`Transport`] calls split
    /// out per component. Profiling observes the host, not the
    /// simulation — event history is identical with it on or off — and
    /// without this call dispatch does no timing work at all.
    pub fn enable_profiler(&mut self, labels: &[&str]) {
        self.profiler = Some(ProfilerState::new(labels));
    }

    /// Takes the accumulated [`HostProfile`], disabling the profiler.
    /// `None` if [`Engine::enable_profiler`] was never called.
    pub fn take_profile(&mut self) -> Option<HostProfile> {
        self.profiler.take().map(ProfilerState::into_profile)
    }

    /// Enables causal tracing with 1-in-N trace sampling: every event
    /// scheduled from here on in a chain whose trace id is a multiple of
    /// `sample_every` gets a [`CausalRecord`] (provenance link, trace id,
    /// blame) delivered to `sink`; blame, provenance and marks of other
    /// chains are skipped entirely. `sample_every` of 0 is treated as 1
    /// (every chain). Trace ids are assigned in deterministic scheduling
    /// order, so sampling is a pure function of the workload — runs stay
    /// byte-identical — and *which events fire and when is identical at
    /// every sampling rate*: observation never feeds back into the
    /// simulation. Without a sink the engine does no causal work at all —
    /// no records, no allocation, identical event history.
    pub fn set_causal_sink(&mut self, sink: Arc<dyn CausalSink>, sample_every: u64) {
        self.causal = Some(CausalState {
            sink,
            next_trace: 0,
            next_mark: 0,
            sample_every: sample_every.max(1),
            seq_offset: 0,
        });
    }

    /// Shifts every causal id this engine emits (seqs, trace ids, mark
    /// seqs, and the parent links between them) by `offset`, so the cell
    /// engines of a multi-cell run can share one sink without id
    /// collisions. Must be called after enabling a sink and before
    /// scheduling anything; a no-op without a sink. Cell `c` uses
    /// `c << 44`.
    pub fn set_causal_seq_offset(&mut self, offset: u64) {
        if let Some(causal) = &mut self.causal {
            causal.seq_offset = offset;
        }
    }

    /// Registers a component and returns its routing id.
    pub fn register<C: Component<M>>(&mut self, component: C) -> ComponentId {
        self.components.push(Box::new(component));
        ComponentId(self.components.len() - 1)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Seeds an event for `dst` at absolute time `time` (used to start a
    /// simulation before [`Engine::run`]).
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn schedule_at(&mut self, dst: ComponentId, time: SimTime, event: M) -> EventId {
        let causal = self.causal.as_mut();
        schedule_root(&mut self.queue, causal, None, dst, time, event)
    }

    /// Runs until the queue is empty, dispatching each event to its
    /// component in deterministic order (timestamp, then FIFO).
    ///
    /// # Panics
    ///
    /// Panics if an event addresses an unregistered component.
    pub fn run(&mut self) {
        let run_start = self.profiler.as_ref().map(|_| Instant::now());
        while let Some((_, id, envelope)) = self.queue.pop_with_id() {
            self.dispatch(id, envelope);
        }
        if let (Some(start), Some(profiler)) = (run_start, self.profiler.as_mut()) {
            profiler.wall_ns += start.elapsed().as_nanos() as u64;
        }
    }

    /// Delivers one event to its component.
    ///
    /// # Panics
    ///
    /// Panics if the destination is unregistered.
    fn dispatch(&mut self, id: EventId, envelope: Envelope<M>) {
        let Some(component) = self.components.get_mut(envelope.dst.0) else {
            panic!(
                "event addressed to unregistered component {:?}",
                envelope.dst
            )
        };
        let timing = self.profiler.as_ref().map(|p| {
            p.fabric_cell.set(0);
            Instant::now()
        });
        let mut ctx = Ctx {
            queue: &mut self.queue,
            cost: &mut self.cost,
            self_id: envelope.dst,
            causal: self.causal.as_mut(),
            current_seq: id.seq(),
            current_trace: envelope.trace,
            pending_blame: &mut self.blame_buf,
            fabric_ns: self.profiler.as_ref().map(|p| &p.fabric_cell),
        };
        component.on_event(&mut ctx, envelope.event);
        // Blame not drained by a schedule/mark is discarded, as the
        // Ctx contract states; clearing here keeps the shared buffer
        // from leaking one event's segments into the next.
        self.blame_buf.clear();
        if let Some(start) = timing {
            let total = start.elapsed().as_nanos() as u64;
            let profiler = self
                .profiler
                .as_mut()
                .expect("profiler vanished mid-dispatch");
            let fabric = profiler.fabric_cell.get();
            profiler.charge(envelope.dst.0, total, fabric);
        }
    }

    /// Borrows a registered component as its concrete type, typically to
    /// read results after [`Engine::run`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is unregistered or the component is not a `C`.
    pub fn component<C: Component<M>>(&self, id: ComponentId) -> &C {
        let component: &dyn Component<M> = &*self.components[id.0];
        let any: &dyn Any = component;
        any.downcast_ref::<C>()
            .expect("component type mismatch: wrong ComponentId for this type")
    }

    /// Mutably borrows a registered component as its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unregistered or the component is not a `C`.
    pub fn component_mut<C: Component<M>>(&mut self, id: ComponentId) -> &mut C {
        let component: &mut dyn Component<M> = &mut *self.components[id.0];
        let any: &mut dyn Any = component;
        any.downcast_mut::<C>()
            .expect("component type mismatch: wrong ComponentId for this type")
    }
}

impl<M> std::fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("components", &self.components.len())
            .field("pending", &self.queue.len())
            .field("now", &self.queue.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Ping(u32),
        Echo(u32),
    }

    struct Pinger {
        target: ComponentId,
        sent: u32,
        echoes: Vec<u32>,
    }

    impl Component<Ev> for Pinger {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
            match ev {
                Ev::Ping(n) => {
                    self.sent += 1;
                    ctx.send_to(self.target, Ev::Ping(n));
                }
                Ev::Echo(n) => self.echoes.push(n),
            }
        }
    }

    struct Echoer {
        heard: Vec<(SimTime, u32)>,
    }

    impl Component<Ev> for Echoer {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
            let Ev::Ping(n) = ev else {
                panic!("echoer only receives pings")
            };
            self.heard.push((ctx.now(), n));
            let origin = ComponentId(0);
            ctx.send_to(origin, Ev::Echo(n));
        }
    }

    #[test]
    fn routed_messages_round_trip() {
        let mut engine = Engine::new();
        let echoer = ComponentId(1);
        let pinger = engine.register(Pinger {
            target: echoer,
            sent: 0,
            echoes: Vec::new(),
        });
        engine.register(Echoer { heard: Vec::new() });
        engine.schedule_at(pinger, SimTime::from_micros(5), Ev::Ping(7));
        engine.run();
        assert_eq!(engine.component::<Pinger>(pinger).echoes, vec![7]);
        let heard = &engine.component::<Echoer>(echoer).heard;
        assert_eq!(heard, &[(SimTime::from_micros(5), 7)]);
    }

    #[test]
    fn same_timestamp_bus_delivery_is_fifo() {
        struct Recorder {
            log: Vec<u32>,
        }
        impl Component<u32> for Recorder {
            fn on_event(&mut self, _: &mut Ctx<'_, u32>, ev: u32) {
                self.log.push(ev);
            }
        }
        let mut engine = Engine::new();
        let id = engine.register(Recorder { log: Vec::new() });
        for n in 0..50 {
            engine.schedule_at(id, SimTime::from_micros(3), n);
        }
        engine.run();
        assert_eq!(
            engine.component::<Recorder>(id).log,
            (0..50).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "unregistered component")]
    fn unregistered_destination_panics() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_at(ComponentId(3), SimTime::ZERO, 1);
        engine.run();
    }

    #[test]
    #[should_panic(expected = "CostModel::Fixed")]
    fn fixed_mode_rejects_fabric_transfers() {
        struct Greedy;
        impl Component<u32> for Greedy {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, _: u32) {
                ctx.transfer(0, 1, 4_096, ctx.now());
            }
        }
        let mut engine = Engine::new();
        let id = engine.register(Greedy);
        engine.schedule_at(id, SimTime::ZERO, 1);
        engine.run();
    }

    /// A transport whose wire takes one nanosecond per byte, with no
    /// software overhead and no contention: the whole interval is wire.
    struct WireDelay;

    impl Transport for WireDelay {
        fn transfer(&mut self, src: u32, dst: u32, bytes: u64, now: SimTime) -> TransferCost {
            if src == dst {
                return TransferCost::free(now);
            }
            let wire = SimDuration::from_nanos(bytes);
            TransferCost {
                delivered: now + wire,
                overhead: SimDuration::ZERO,
                wait: SimDuration::ZERO,
                wire,
            }
        }
    }

    #[test]
    fn fabric_mode_charges_the_transport() {
        struct Sender {
            delivered: Option<SimTime>,
        }
        impl Component<u32> for Sender {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, _: u32) {
                assert_eq!(ctx.cost_mode(), CostMode::Fabric);
                self.delivered = Some(ctx.transfer(0, 1, 1_000, ctx.now()).delivered);
            }
        }
        let mut engine = Engine::with_transport(Box::new(WireDelay));
        let id = engine.register(Sender { delivered: None });
        engine.schedule_at(id, SimTime::from_micros(2), 0);
        engine.run();
        assert_eq!(
            engine.component::<Sender>(id).delivered,
            Some(SimTime::from_micros(3))
        );
    }

    use std::sync::Mutex;

    #[derive(Default)]
    struct VecSink(Mutex<Vec<CausalRecord>>);

    impl CausalSink for VecSink {
        fn record(&self, record: CausalRecord) {
            self.0.lock().unwrap().push(record);
        }
    }

    struct Chainer {
        hops: u32,
        peer: ComponentId,
    }

    impl Component<u32> for Chainer {
        fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, hop: u32) {
            ctx.blame("compute", SimDuration::from_micros(3));
            if hop < self.hops {
                ctx.send_to_at(self.peer, ctx.now() + SimDuration::from_micros(5), hop + 1);
            } else {
                ctx.mark("chain.done", ctx.now());
            }
        }
    }

    #[test]
    fn causal_records_link_children_to_parents() {
        let sink = Arc::new(VecSink::default());
        let mut engine = Engine::new();
        engine.set_causal_sink(sink.clone(), 1);
        let b = ComponentId(1);
        let a = engine.register(Chainer { hops: 3, peer: b });
        engine.register(Chainer { hops: 3, peer: a });
        engine.schedule_at(a, SimTime::from_micros(1), 1);
        engine.run();

        let records = sink.0.lock().unwrap();
        // Seed + 2 hops + terminal mark.
        assert_eq!(records.len(), 4);
        let seed = &records[0];
        assert_eq!(seed.parent, None);
        assert_eq!(seed.src, None);
        assert_eq!(seed.dst, a);
        for pair in records.windows(2) {
            let (parent, child) = (&pair[0], &pair[1]);
            assert_eq!(child.parent, Some(parent.seq), "chain is fully linked");
            assert_eq!(child.trace, seed.trace, "descendants inherit the trace");
            assert_eq!(child.scheduled_at, parent.fires_at);
        }
        let mark = records.last().unwrap();
        assert_eq!(mark.label, "chain.done");
        assert!(mark.seq >= MARK_SEQ_BASE, "marks use a disjoint seq space");
        // Every non-seed record carries the blame queued before scheduling.
        for child in &records[1..] {
            assert_eq!(child.blame, vec![("compute", SimDuration::from_micros(3))]);
        }
    }

    #[test]
    fn seeds_start_fresh_traces() {
        let sink = Arc::new(VecSink::default());
        let mut engine: Engine<u32> = Engine::new();
        engine.set_causal_sink(sink.clone(), 1);
        struct Quiet;
        impl Component<u32> for Quiet {
            fn on_event(&mut self, _: &mut Ctx<'_, u32>, _: u32) {}
        }
        let id = engine.register(Quiet);
        engine.schedule_at(id, SimTime::ZERO, 0);
        engine.schedule_at(id, SimTime::ZERO, 1);
        engine.run();
        let records = sink.0.lock().unwrap();
        assert_eq!(records.len(), 2);
        assert_ne!(records[0].trace, records[1].trace);
    }

    #[test]
    fn disabled_engine_runs_identically_to_traced_engine() {
        fn history(traced: bool) -> Vec<(u64, u32)> {
            struct Log {
                peer: ComponentId,
                seen: Vec<(u64, u32)>,
            }
            impl Component<u32> for Log {
                fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, n: u32) {
                    self.seen.push((ctx.now().as_nanos(), n));
                    ctx.blame("x", SimDuration::from_micros(1));
                    if n > 0 {
                        ctx.send_to_at(self.peer, ctx.now() + SimDuration::from_micros(2), n - 1);
                    }
                }
            }
            let mut engine = Engine::new();
            if traced {
                engine.set_causal_sink(Arc::new(VecSink::default()), 1);
            }
            let id = engine.register(Log {
                peer: ComponentId(0),
                seen: Vec::new(),
            });
            engine.schedule_at(id, SimTime::ZERO, 5);
            engine.run();
            std::mem::take(&mut engine.component_mut::<Log>(id).seen)
        }
        assert_eq!(history(false), history(true));
    }

    /// An open-loop generator: each firing roots the next request chain
    /// via `schedule_root_at`, blames some compute, and marks completion.
    struct OpenLoop {
        remaining: u32,
        fired_at: Vec<u64>,
    }

    impl Component<u32> for OpenLoop {
        fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, n: u32) {
            self.fired_at.push(ctx.now().as_nanos());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule_root_at(ctx.now() + SimDuration::from_micros(10), n + 1);
            }
            ctx.blame("compute", SimDuration::from_micros(4));
            ctx.mark("req.done", ctx.now() + SimDuration::from_micros(4));
        }
    }

    #[test]
    fn sampled_sink_records_one_in_n_chains_end_to_end() {
        let sink = Arc::new(VecSink::default());
        let mut engine = Engine::new();
        engine.set_causal_sink(sink.clone(), 3);
        let id = engine.register(OpenLoop {
            remaining: 8,
            fired_at: Vec::new(),
        });
        engine.schedule_at(id, SimTime::ZERO, 0);
        engine.run();

        let records = sink.0.lock().unwrap();
        // 9 chains rooted (traces 1..=9); only 3, 6, 9 are sampled.
        let mut traces: Vec<u64> = records.iter().map(|r| r.trace).collect();
        traces.dedup();
        assert_eq!(traces, vec![3, 6, 9]);
        // Each sampled chain is complete: its root plus its blamed mark.
        for t in [3u64, 6, 9] {
            let chain: Vec<_> = records.iter().filter(|r| r.trace == t).collect();
            assert_eq!(chain.len(), 2, "root + mark for trace {t}");
            assert_eq!(chain[0].parent, None);
            assert_eq!(chain[1].label, "req.done");
            assert_eq!(
                chain[1].blame,
                vec![("compute", SimDuration::from_micros(4))]
            );
        }
    }

    #[test]
    fn sampling_rate_does_not_change_event_history() {
        let history = |sample: Option<u64>| -> Vec<u64> {
            let mut engine = Engine::new();
            if let Some(n) = sample {
                engine.set_causal_sink(Arc::new(VecSink::default()), n);
            }
            let id = engine.register(OpenLoop {
                remaining: 20,
                fired_at: Vec::new(),
            });
            engine.schedule_at(id, SimTime::ZERO, 0);
            engine.run();
            std::mem::take(&mut engine.component_mut::<OpenLoop>(id).fired_at)
        };
        let untraced = history(None);
        assert_eq!(untraced, history(Some(1)));
        assert_eq!(untraced, history(Some(7)));
    }

    #[test]
    fn default_sink_samples_every_trace() {
        let sink = Arc::new(VecSink::default());
        let mut engine = Engine::new();
        engine.set_causal_sink(sink.clone(), 1);
        let id = engine.register(OpenLoop {
            remaining: 3,
            fired_at: Vec::new(),
        });
        engine.schedule_at(id, SimTime::ZERO, 0);
        engine.run();
        let records = sink.0.lock().unwrap();
        let roots = records.iter().filter(|r| r.parent.is_none()).count();
        assert_eq!(roots, 4, "sampling of 1 keeps every chain");
    }

    #[test]
    fn profiler_attributes_events_without_changing_history() {
        struct Talker {
            peer: ComponentId,
            hops_left: u32,
            seen: Vec<u64>,
        }
        impl Component<u32> for Talker {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, n: u32) {
                self.seen.push(ctx.now().as_nanos());
                let delivered = ctx.transfer(0, 1, 1_000, ctx.now()).delivered;
                if self.hops_left > 0 {
                    self.hops_left -= 1;
                    ctx.send_to_at(self.peer, delivered, n + 1);
                }
            }
        }
        let run = |profiled: bool| {
            let mut engine = Engine::with_transport(Box::new(WireDelay));
            if profiled {
                engine.enable_profiler(&["talker-a", "talker-b"]);
            }
            let b = ComponentId(1);
            let a = engine.register(Talker {
                peer: b,
                hops_left: 6,
                seen: Vec::new(),
            });
            engine.register(Talker {
                peer: a,
                hops_left: 6,
                seen: Vec::new(),
            });
            engine.schedule_at(a, SimTime::ZERO, 0);
            engine.run();
            let history = engine.component::<Talker>(a).seen.clone();
            (history, engine.take_profile())
        };
        let (plain_history, no_profile) = run(false);
        assert!(no_profile.is_none());
        let (profiled_history, profile) = run(true);
        assert_eq!(
            plain_history, profiled_history,
            "profiling is pure observation"
        );
        let profile = profile.unwrap();
        // 13 events total: the seed plus 6 hops from each side.
        assert_eq!(profile.events, 13);
        assert_eq!(profile.components.len(), 2);
        assert_eq!(profile.components[0].label, "talker-a");
        assert_eq!(profile.components[0].events, 7);
        assert_eq!(profile.components[1].label, "talker-b");
        assert_eq!(profile.components[1].events, 6);
        // Taking the profile disabled the profiler.
        let collapsed = profile.collapsed();
        for line in collapsed.lines() {
            let (_, count) = line.rsplit_once(' ').unwrap();
            count.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn profiler_labels_default_past_the_given_list() {
        struct Quiet;
        impl Component<u32> for Quiet {
            fn on_event(&mut self, _: &mut Ctx<'_, u32>, _: u32) {}
        }
        let mut engine = Engine::new();
        engine.enable_profiler(&["only"]);
        let a = engine.register(Quiet);
        let b = engine.register(Quiet);
        engine.schedule_at(a, SimTime::ZERO, 0);
        engine.schedule_at(b, SimTime::ZERO, 0);
        engine.run();
        let profile = engine.take_profile().unwrap();
        let labels: Vec<_> = profile
            .components
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        assert_eq!(labels, ["only", "component1"]);
    }

    #[test]
    fn transfer_cost_breakdown_partitions_the_interval() {
        let free = TransferCost::free(SimTime::from_micros(4));
        assert_eq!(free.total(), SimDuration::ZERO);
        assert_eq!(free.delivered, SimTime::from_micros(4));
    }

    #[test]
    fn default_rpc_is_request_then_response() {
        struct Caller {
            cost: Option<TransferCost>,
        }
        impl Component<u32> for Caller {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, _: u32) {
                self.cost = Some(ctx.rpc(0, 1, 100, 900));
            }
        }
        let mut engine = Engine::with_transport(Box::new(WireDelay));
        let id = engine.register(Caller { cost: None });
        engine.schedule_at(id, SimTime::ZERO, 0);
        engine.run();
        let cost = engine.component::<Caller>(id).cost.unwrap();
        assert_eq!(cost.delivered, SimTime::from_micros(1));
        // Both legs are all wire on this transport, and they sum.
        assert_eq!(cost.wire, SimDuration::from_micros(1));
        assert_eq!(cost.total(), SimDuration::from_micros(1));
    }
}
