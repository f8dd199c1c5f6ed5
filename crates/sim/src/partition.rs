//! Multi-cell execution: independent engines run side by side.
//!
//! A [`PartitionedEngine`] holds N [`Engine`]s — one per partition, each
//! owning a disjoint set of component ids with its own event queue and
//! cost model. The partition map must be event-closed: a component only
//! ever sends to components homed in its own partition. The scenario
//! layer's replicated cells are exactly that — they share nothing but the
//! causal log — so each partition is an ordinary serial run, and
//! [`PartitionedEngine::run`] drains every one to completion over a pool
//! of worker threads with no windows, barriers, or message exchange.
//!
//! Determinism follows from closure: a partition's history depends only
//! on its own components and seeds, so it is the same whichever thread
//! runs it, in whatever order, at any worker count. A send that crosses
//! the map is a partitioning bug and panics at dispatch.

use std::sync::{Arc, Mutex};

use crate::engine::{Component, CostModel};
use crate::parallel::run_indexed;
use crate::{CausalSink, ComponentId, Engine, EventId, SimTime};

/// N independent partition engines under one global component id space
/// (see the module docs).
///
/// Component ids are global: every partition's engine shares one id
/// space, with gaps where a component is homed elsewhere, so components
/// address each other exactly as they would on a serial [`Engine`] and
/// need no logic changes.
pub struct PartitionedEngine<M> {
    parts: Vec<Engine<M>>,
    /// `home[c]` = partition owning component `c`.
    home: Vec<u32>,
    /// Worker threads [`PartitionedEngine::run`] spreads partitions over.
    workers: usize,
}

impl<M: Send + 'static> PartitionedEngine<M> {
    /// One engine per cost model, run over at most `workers` threads
    /// (clamped to `[1, partitions]`). Each partition prices its own
    /// traffic on its own cost model.
    ///
    /// # Panics
    ///
    /// Panics on an empty cost-model list.
    pub fn new(cost_models: Vec<CostModel>, workers: usize) -> Self {
        assert!(!cost_models.is_empty(), "need at least one partition");
        PartitionedEngine {
            parts: cost_models
                .into_iter()
                .map(Engine::with_cost_model)
                .collect(),
            home: Vec::new(),
            workers,
        }
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

    /// Enables causal tracing on every partition with 1-in-N trace
    /// sampling (see [`Engine::set_causal_sink_sampled`]), sharing one
    /// sink. Each partition writes seqs and trace ids offset by `p << 44`
    /// so the shared log never collides. Sampling applies to the offset
    /// trace ids, so rates other than 1 sample *different* chains than a
    /// serial run would — the byte-diffed scenario paths use 1.
    pub fn set_causal_sink_sampled(&mut self, sink: Arc<dyn CausalSink>, sample_every: u64) {
        for (p, engine) in self.parts.iter_mut().enumerate() {
            engine.set_causal_sink_sampled(sink.clone(), sample_every);
            engine.set_causal_seq_offset((p as u64) << 44);
        }
    }

    /// Runs every partition to completion, spreading them over the
    /// configured worker threads. With one worker the partitions run one
    /// after another on the calling thread and no thread is spawned.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses a component homed in another
    /// partition, or if a worker panics (its payload is propagated).
    pub fn run(&mut self) {
        // Each engine is claimed by exactly one worker; the lock only
        // lends the `&mut` across the thread boundary and is never
        // contended.
        let parts: Vec<Mutex<&mut Engine<M>>> = self.parts.iter_mut().map(Mutex::new).collect();
        run_indexed(self.workers, &parts, |_, engine| {
            engine.lock().expect("each partition runs once").run();
        });
    }

    /// Borrows a component as its concrete type from its home partition
    /// (see [`Engine::component`]).
    pub fn component<C: Component<M>>(&self, id: ComponentId) -> &C {
        self.parts[self.home[id.0] as usize].component(id)
    }
}

impl<M> std::fmt::Debug for PartitionedEngine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedEngine")
            .field("partitions", &self.parts.len())
            .field("components", &self.home.len())
            .field("workers", &self.workers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, SimDuration};

    /// Forwards each received value around a ring with a fixed delay,
    /// recording (time, value).
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

    fn ring_hop(next: ComponentId, delay: SimDuration, hops_left: u32) -> RingHop {
        RingHop {
            next,
            delay,
            hops_left,
            seen: Vec::new(),
        }
    }

    /// `partitions` engines in [`CostModel::Fixed`] mode over `workers`.
    fn fixed(partitions: usize, workers: usize) -> PartitionedEngine<u64> {
        PartitionedEngine::new((0..partitions).map(|_| CostModel::Fixed).collect(), workers)
    }

    /// Six independent three-member rings, ring `r` homed in partition
    /// `r % partitions`; returns every member's history.
    fn ring_histories(partitions: usize, workers: usize) -> Vec<Vec<(u64, u64)>> {
        let delay = SimDuration::from_micros(50);
        let mut engine = fixed(partitions, workers);
        let mut ids = Vec::new();
        for r in 0..6usize {
            let base = ids.len();
            for i in 0..3 {
                let next = ComponentId(base + (i + 1) % 3);
                ids.push(engine.register((r % partitions) as u32, ring_hop(next, delay, 40)));
            }
        }
        for r in 0..6u64 {
            engine.schedule_at(ids[3 * r as usize], SimTime::from_micros(r), 100 * r);
        }
        engine.run();
        ids.iter()
            .map(|&id| engine.component::<RingHop>(id).seen.clone())
            .collect()
    }

    #[test]
    fn ring_is_identical_at_any_partition_count() {
        let serial = ring_histories(1, 1);
        for (partitions, workers) in [(2, 1), (2, 2), (3, 2), (6, 4), (6, 6)] {
            assert_eq!(
                serial,
                ring_histories(partitions, workers),
                "{partitions} partitions over {workers} workers"
            );
        }
        // The rings actually ran: every component saw hops.
        assert!(serial.iter().all(|h| !h.is_empty()));
    }

    #[test]
    fn closed_partitions_drain_in_one_window() {
        // Two disjoint rings, one per partition: a closed map.
        let delay = SimDuration::from_micros(10);
        let mut engine = fixed(2, 2);
        let mut ids = Vec::new();
        for p in 0..2u32 {
            let base = ids.len();
            for i in 0..3usize {
                ids.push(engine.register(p, ring_hop(ComponentId(base + (i + 1) % 3), delay, 9)));
            }
        }
        engine.schedule_at(ids[0], SimTime::ZERO, 0);
        engine.schedule_at(ids[3], SimTime::ZERO, 100);
        engine.run();
        // Each of the 3 ring members forwards 9 times, so the chain makes
        // 27 hops after the seed; member 2 is visited on every third hop.
        assert_eq!(engine.component::<RingHop>(ids[2]).seen.len(), 9);
        assert_eq!(engine.component::<RingHop>(ids[5]).seen.len(), 9);
    }

    /// The send lands in partition 0's queue, whose engine holds only a
    /// gap for the destination; the worker's panic reaches the caller
    /// with its own message.
    #[test]
    #[should_panic(expected = "not homed in this partition")]
    fn remote_send_under_closed_map_panics() {
        let mut engine = fixed(2, 2);
        let delay = SimDuration::from_micros(1);
        let a = engine.register(0, ring_hop(ComponentId(1), delay, 1));
        engine.register(1, ring_hop(a, delay, 1));
        engine.schedule_at(a, SimTime::ZERO, 0);
        engine.run();
    }

    #[test]
    fn single_partition_matches_the_serial_engine() {
        let delay = SimDuration::from_micros(5);
        let b = ComponentId(1);
        let run_serial = || {
            let mut engine = Engine::new();
            let a = engine.register(ring_hop(b, delay, 20));
            engine.register(ring_hop(a, delay, 20));
            engine.schedule_at(a, SimTime::ZERO, 0);
            engine.run();
            (
                engine.component::<RingHop>(a).seen.clone(),
                engine.component::<RingHop>(b).seen.clone(),
            )
        };
        let mut engine = fixed(1, 1);
        let a = engine.register(0, ring_hop(b, delay, 20));
        engine.register(0, ring_hop(a, delay, 20));
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
