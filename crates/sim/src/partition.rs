//! Conservative parallel execution: one run sharded across cores.
//!
//! A [`PartitionedEngine`] runs N [`Engine`]s — one per partition, each
//! owning a disjoint set of component ids with its own event queue — and
//! synchronizes them with a conservative window protocol:
//!
//! 1. **Window negotiation.** The next window starts at the earliest
//!    pending event across all partitions and extends one *lookahead* `L`
//!    into the future. `L` is a hard lower bound on the delay of any
//!    cross-partition event: in this workspace it comes from the priced
//!    fabric — software overhead plus wire time of the smallest message is
//!    the least any remote delivery can cost, so an event a partition
//!    sends while processing time `t < start + L` fires at
//!    `t + L >= start + L`, past the window edge.
//! 2. **Parallel drain.** Every partition processes its own events
//!    *strictly before* the edge on its own thread (scoped threads, no
//!    locks — each engine is moved to a worker for the window). Sends to
//!    components homed elsewhere are diverted into a per-partition outbox
//!    instead of any queue.
//! 3. **Barrier merge.** Back on the coordinating thread, the outboxes
//!    are concatenated in partition order and stably sorted by
//!    `(fires_at, sender)`. A component lives in exactly one partition
//!    and its sends sit in one outbox in emission order, so this total
//!    order is independent of the partition count: the same stream of
//!    envelopes is injected in the same order whether the run used 1, 2,
//!    or 8 partitions. Injection draws fresh seqs from each destination
//!    queue, preserving FIFO among equal timestamps.
//!
//! Safety of the edge: a partition's clock never passes the last event it
//! processed, which is `< edge`; injected envelopes fire `>= edge`, so the
//! queue's schedule-into-past panic can never trip at a window boundary —
//! and if a protocol bug ever drained past the edge, that panic is the
//! backstop that turns silent history corruption into a loud failure.
//!
//! [`Lookahead::Closed`] is the degenerate — and fastest — case: the
//! partition map promises *no* cross-partition traffic at all (the
//! scenario layer's replicated cells, which share nothing but the causal
//! log). One unbounded window drains everything in parallel with a single
//! barrier, and any remote send panics as a partitioning bug.

use std::sync::Arc;

use crate::engine::{Component, CostModel, RemoteEnvelope, WindowRouting};
use crate::{CausalSink, ComponentId, Engine, EventId, SimDuration, SimTime};

/// The cross-partition synchronization contract of a [`PartitionedEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookahead {
    /// Conservative window of this width: every cross-partition event
    /// must fire at least this long after the moment it is scheduled.
    /// Use the minimum cross-partition delivery latency of the cost
    /// model (e.g. `Network::min_remote_latency`).
    Window(SimDuration),
    /// The partition map is event-closed: no cross-partition events
    /// exist, so the whole run is one unbounded window with a single
    /// barrier. Remote sends panic.
    Closed,
}

/// N partition engines coordinated by conservative windows (see the
/// module docs for the protocol and its determinism argument).
///
/// Component ids are global: every partition's engine shares one id
/// space, with gaps where a component is homed elsewhere, so components
/// address each other exactly as they would on a serial [`Engine`] and
/// need no logic changes. With one partition the coordinator degenerates
/// to the serial engine — no threads are spawned — which is the baseline
/// the speedup harness times against.
pub struct PartitionedEngine<M> {
    parts: Vec<Engine<M>>,
    /// `home[c]` = partition owning component `c`.
    home: Vec<u32>,
    lookahead: Lookahead,
    /// Per-partition outbox buffers, recycled across windows (and runs):
    /// each window borrows its partition's buffer, drains it at the
    /// barrier, and hands the empty allocation back, so the window loop
    /// allocates nothing once the buffers are warm.
    outboxes: Vec<Vec<RemoteEnvelope<M>>>,
    /// The barrier merge buffer, recycled the same way.
    merge: Vec<RemoteEnvelope<M>>,
}

impl<M: Send + 'static> PartitionedEngine<M> {
    /// One engine per cost model, under the given lookahead contract.
    /// Each partition prices its own traffic on its own cost model; a
    /// fabric shared *across* partitions cannot be priced deterministically
    /// in parallel, so partition maps must cut along cost-model seams.
    ///
    /// # Panics
    ///
    /// Panics on an empty cost-model list.
    pub fn new(cost_models: Vec<CostModel>, lookahead: Lookahead) -> Self {
        assert!(!cost_models.is_empty(), "need at least one partition");
        let partitions = cost_models.len();
        PartitionedEngine {
            parts: cost_models
                .into_iter()
                .map(Engine::with_cost_model)
                .collect(),
            home: Vec::new(),
            lookahead,
            outboxes: (0..partitions).map(|_| Vec::new()).collect(),
            merge: Vec::new(),
        }
    }

    /// `partitions` engines in [`CostModel::Fixed`] mode — the shape unit
    /// and property tests use.
    pub fn with_fixed(partitions: usize, lookahead: Lookahead) -> Self {
        PartitionedEngine::new(
            (0..partitions).map(|_| CostModel::Fixed).collect(),
            lookahead,
        )
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Registers `component` homed in `partition` and returns its global
    /// routing id. Every other partition records a gap so the id spaces
    /// stay congruent.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn register<C: Component<M>>(&mut self, partition: u32, component: C) -> ComponentId {
        assert!(
            (partition as usize) < self.parts.len(),
            "partition {partition} out of range ({} partitions)",
            self.parts.len()
        );
        let id = self.parts[partition as usize].register(component);
        for (p, engine) in self.parts.iter_mut().enumerate() {
            if p != partition as usize {
                let gap = engine.register_gap();
                debug_assert_eq!(gap, id, "partition id spaces diverged");
            }
        }
        self.home.push(partition);
        debug_assert_eq!(self.home.len() - 1, id.0);
        id
    }

    /// Seeds an event for `dst` at absolute time `time` into `dst`'s home
    /// partition, rooting a fresh trace exactly like
    /// [`Engine::schedule_at`].
    pub fn schedule_at(&mut self, dst: ComponentId, time: SimTime, event: M) -> EventId {
        self.parts[self.home[dst.0] as usize].schedule_at(dst, time, event)
    }

    /// Enables causal tracing on every partition, sharing one sink. Each
    /// partition writes seqs and trace ids offset by `p << 44` so the
    /// shared log never collides; provenance links across partition
    /// boundaries are expressed in the same offset space.
    pub fn set_causal_sink(&mut self, sink: Arc<dyn CausalSink>) {
        self.set_causal_sink_sampled(sink, 1);
    }

    /// [`PartitionedEngine::set_causal_sink`] with 1-in-N trace sampling
    /// (see [`Engine::set_causal_sink_sampled`]; sampling applies to
    /// per-partition offset trace ids, so rates other than 1 sample
    /// *different* chains than a serial run would — the byte-diffed
    /// scenario paths use 1).
    pub fn set_causal_sink_sampled(&mut self, sink: Arc<dyn CausalSink>, sample_every: u64) {
        for (p, engine) in self.parts.iter_mut().enumerate() {
            engine.set_causal_sink_sampled(sink.clone(), sample_every);
            engine.set_causal_seq_offset((p as u64) << 44);
        }
    }

    /// Runs every partition to completion under the window protocol.
    ///
    /// # Panics
    ///
    /// Panics if a component violates the lookahead contract (see
    /// [`Lookahead`]), if an event addresses a component not homed where
    /// the partition map says, or if a worker thread panics (the panic is
    /// propagated).
    pub fn run(&mut self) {
        let home: Arc<[u32]> = self.home.clone().into();
        let lookahead = match self.lookahead {
            Lookahead::Window(l) => Some(l),
            Lookahead::Closed => None,
        };
        // Window negotiation: the earliest pending event anywhere opens
        // the window; the lookahead closes it. No events left anywhere
        // means the run is complete.
        while let Some(start) = self.parts.iter().filter_map(Engine::next_event_time).min() {
            // A `None` edge (closed map, or a window reaching past the
            // end of representable time) drains everything in one pass.
            let edge = lookahead.and_then(|l| start.checked_add(l));
            if self.parts.len() == 1 {
                let mut routing = WindowRouting {
                    home: home.clone(),
                    my_partition: 0,
                    lookahead,
                    outbox: std::mem::take(&mut self.outboxes[0]),
                };
                self.parts[0].run_window(edge, &mut routing);
                self.merge.append(&mut routing.outbox);
                self.outboxes[0] = routing.outbox;
            } else {
                let home = &home;
                let merge = &mut self.merge;
                let outboxes = &mut self.outboxes;
                std::thread::scope(|scope| {
                    let workers: Vec<_> = self
                        .parts
                        .iter_mut()
                        .zip(outboxes.iter_mut())
                        .enumerate()
                        .map(|(p, (engine, slot))| {
                            let outbox = std::mem::take(slot);
                            scope.spawn(move || {
                                let mut routing = WindowRouting {
                                    home: home.clone(),
                                    my_partition: p as u32,
                                    lookahead,
                                    outbox,
                                };
                                engine.run_window(edge, &mut routing);
                                routing.outbox
                            })
                        })
                        .collect();
                    for (w, slot) in workers.into_iter().zip(outboxes.iter_mut()) {
                        match w.join() {
                            Ok(mut outbox) => {
                                merge.append(&mut outbox);
                                *slot = outbox;
                            }
                            Err(payload) => std::panic::resume_unwind(payload),
                        }
                    }
                });
            }
            // Deterministic merge: stable sort by (time, sender). Each
            // sender's envelopes live in exactly one outbox in emission
            // order, so the resulting total order — and therefore the
            // seqs the destination queues assign — does not depend on
            // how components were divided into partitions.
            self.merge.sort_by_key(|env| (env.fires_at, env.src.0));
            for env in self.merge.drain(..) {
                let dst_part = home[env.dst.0] as usize;
                self.parts[dst_part].inject_remote(env);
            }
        }
    }

    /// Borrows a component as its concrete type from its home partition
    /// (see [`Engine::component`]).
    pub fn component<C: Component<M>>(&self, id: ComponentId) -> &C {
        self.parts[self.home[id.0] as usize].component(id)
    }

    /// Mutably borrows a component as its concrete type from its home
    /// partition (see [`Engine::component_mut`]).
    pub fn component_mut<C: Component<M>>(&mut self, id: ComponentId) -> &mut C {
        self.parts[self.home[id.0] as usize].component_mut(id)
    }

    /// The latest partition clock — after [`PartitionedEngine::run`],
    /// when the whole simulation has ended.
    pub fn now(&self) -> SimTime {
        self.parts
            .iter()
            .map(Engine::now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Pending events across all partitions.
    pub fn pending(&self) -> usize {
        self.parts.iter().map(Engine::pending).sum()
    }
}

impl<M> std::fmt::Debug for PartitionedEngine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedEngine")
            .field("partitions", &self.parts.len())
            .field("components", &self.home.len())
            .field("lookahead", &self.lookahead)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ctx;

    /// Forwards each received value around a ring with a fixed delay,
    /// recording (time, value) — the canonical cross-partition workload.
    struct RingHop {
        next: ComponentId,
        delay: SimDuration,
        hops_left: u32,
        seen: Vec<(u64, u64)>,
    }

    impl Component<u64> for RingHop {
        fn on_event(&mut self, ctx: &mut Ctx<'_, u64>, v: u64) {
            self.seen.push((ctx.now().as_nanos(), v));
            if self.hops_left > 0 {
                self.hops_left -= 1;
                ctx.send_to_at(self.next, ctx.now() + self.delay, v + 1);
            }
        }
    }

    fn ring_histories(partitions: usize, components: usize, hops: u32) -> Vec<Vec<(u64, u64)>> {
        let delay = SimDuration::from_micros(50);
        let mut engine = PartitionedEngine::with_fixed(partitions, Lookahead::Window(delay));
        let ids: Vec<ComponentId> = (0..components)
            .map(|i| {
                engine.register(
                    (i % partitions) as u32,
                    RingHop {
                        next: ComponentId((i + 1) % components),
                        delay,
                        hops_left: hops,
                        seen: Vec::new(),
                    },
                )
            })
            .collect();
        engine.schedule_at(ids[0], SimTime::from_micros(1), 0);
        engine.run();
        ids.iter()
            .map(|&id| engine.component::<RingHop>(id).seen.clone())
            .collect()
    }

    #[test]
    fn ring_is_identical_at_any_partition_count() {
        let serial = ring_histories(1, 6, 40);
        assert_eq!(serial, ring_histories(2, 6, 40));
        assert_eq!(serial, ring_histories(3, 6, 40));
        assert_eq!(serial, ring_histories(6, 6, 40));
        // The ring actually ran: every component saw hops.
        assert!(serial.iter().all(|h| !h.is_empty()));
    }

    #[test]
    fn closed_partitions_drain_in_one_window() {
        // Two disjoint rings, one per partition: a closed map.
        let delay = SimDuration::from_micros(10);
        let mut engine = PartitionedEngine::with_fixed(2, Lookahead::Closed);
        let mut ids = Vec::new();
        for p in 0..2u32 {
            let base = ids.len();
            for i in 0..3usize {
                ids.push(engine.register(
                    p,
                    RingHop {
                        next: ComponentId(base + (i + 1) % 3),
                        delay,
                        hops_left: 9,
                        seen: Vec::new(),
                    },
                ));
            }
        }
        engine.schedule_at(ids[0], SimTime::ZERO, 0);
        engine.schedule_at(ids[3], SimTime::ZERO, 100);
        engine.run();
        // Each of the 3 ring members forwards 9 times, so the chain makes
        // 27 hops after the seed; member 2 is visited on every third hop.
        assert_eq!(engine.component::<RingHop>(ids[2]).seen.len(), 9);
        assert_eq!(engine.component::<RingHop>(ids[5]).seen.len(), 9);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "closed partitioning")]
    fn remote_send_under_closed_map_panics() {
        let mut engine = PartitionedEngine::with_fixed(2, Lookahead::Closed);
        let b = ComponentId(1);
        let a = engine.register(
            0,
            RingHop {
                next: b,
                delay: SimDuration::from_micros(1),
                hops_left: 1,
                seen: Vec::new(),
            },
        );
        engine.register(
            1,
            RingHop {
                next: a,
                delay: SimDuration::from_micros(1),
                hops_left: 1,
                seen: Vec::new(),
            },
        );
        engine.schedule_at(a, SimTime::ZERO, 0);
        engine.run();
    }

    #[test]
    #[should_panic(expected = "violates the lookahead")]
    fn undercutting_the_lookahead_panics() {
        // Components promise 50µs lookahead but send with a 10µs delay.
        let mut engine =
            PartitionedEngine::with_fixed(2, Lookahead::Window(SimDuration::from_micros(50)));
        let b = ComponentId(1);
        let a = engine.register(
            0,
            RingHop {
                next: b,
                delay: SimDuration::from_micros(10),
                hops_left: 1,
                seen: Vec::new(),
            },
        );
        engine.register(
            1,
            RingHop {
                next: a,
                delay: SimDuration::from_micros(10),
                hops_left: 1,
                seen: Vec::new(),
            },
        );
        engine.schedule_at(a, SimTime::ZERO, 0);
        engine.run();
    }

    #[test]
    fn single_partition_matches_the_serial_engine() {
        let delay = SimDuration::from_micros(5);
        let run_serial = || {
            let mut engine = Engine::new();
            let b = ComponentId(1);
            let a = engine.register(RingHop {
                next: b,
                delay,
                hops_left: 20,
                seen: Vec::new(),
            });
            engine.register(RingHop {
                next: a,
                delay,
                hops_left: 20,
                seen: Vec::new(),
            });
            engine.schedule_at(a, SimTime::ZERO, 0);
            engine.run();
            (
                engine.component::<RingHop>(a).seen.clone(),
                engine.component::<RingHop>(b).seen.clone(),
            )
        };
        let mut engine = PartitionedEngine::with_fixed(1, Lookahead::Window(delay));
        let b = ComponentId(1);
        let a = engine.register(
            0,
            RingHop {
                next: b,
                delay,
                hops_left: 20,
                seen: Vec::new(),
            },
        );
        engine.register(
            0,
            RingHop {
                next: a,
                delay,
                hops_left: 20,
                seen: Vec::new(),
            },
        );
        engine.schedule_at(a, SimTime::ZERO, 0);
        engine.run();
        assert_eq!(
            run_serial(),
            (
                engine.component::<RingHop>(a).seen.clone(),
                engine.component::<RingHop>(b).seen.clone(),
            )
        );
    }
}
