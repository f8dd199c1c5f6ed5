//! Property tests for the partitioned engine's core contract: for *any*
//! event-closed component-to-partition map (components send only within
//! their own group, at any delay) and *any* event stream, the partitioned
//! execution replays the serial engine's history bit-for-bit at every
//! worker count.

use now_sim::{
    Component, ComponentId, CostModel, Ctx, Engine, PartitionedEngine, SimDuration, SimRng, SimTime,
};
use proptest::prelude::*;

/// A component driving a random-but-deterministic event cascade: on every
/// delivery it logs `(time, payload)`, then fans out 0..=2 sends to
/// targets drawn from its own seeded [`SimRng`]. The rng advances only on
/// deliveries, so two runs that deliver the same events in the same order
/// make identical choices — which is exactly what the test asserts.
struct Hopper {
    rng: SimRng,
    targets: Vec<ComponentId>,
    /// Sends remaining to this component, so every cascade terminates.
    budget: u32,
    seen: Vec<(u64, u64)>,
}

impl Component<u64> for Hopper {
    fn on_event(&mut self, ctx: &mut Ctx<'_, u64>, v: u64) {
        self.seen.push((ctx.now().as_nanos(), v));
        let fanout = self.rng.gen_range(0..3);
        for _ in 0..fanout {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let dst = *self.rng.pick(&self.targets);
            let extra = self.rng.gen_range(0..100);
            let at = ctx.now() + SimDuration::from_micros(extra);
            ctx.send_to_at(dst, at, v.wrapping_mul(31).wrapping_add(extra));
        }
    }
}

/// One randomized workload: component count, per-component rng seeds and
/// send budgets, initial events, and a target list per component.
struct Workload {
    seeds: Vec<u64>,
    budget: u32,
    /// `(component, time µs, payload)` seed events.
    initial: Vec<(usize, u64, u64)>,
    /// Target pool of component `i` (indices; identical across engines).
    targets: Vec<Vec<usize>>,
}

impl Workload {
    fn hopper(&self, i: usize) -> Hopper {
        Hopper {
            rng: SimRng::new(self.seeds[i]),
            targets: self.targets[i].iter().map(|&t| ComponentId(t)).collect(),
            budget: self.budget,
            seen: Vec::new(),
        }
    }
}

/// Runs the workload on the plain serial engine.
fn serial_histories(w: &Workload) -> Vec<Vec<(u64, u64)>> {
    let mut engine: Engine<u64> = Engine::new();
    let ids: Vec<ComponentId> = (0..w.seeds.len())
        .map(|i| engine.register(w.hopper(i)))
        .collect();
    for &(c, t, v) in &w.initial {
        engine.schedule_at(ids[c], SimTime::from_micros(t), v);
    }
    engine.run();
    ids.iter()
        .map(|&id| engine.component::<Hopper>(id).seen.clone())
        .collect()
}

/// Runs the workload partitioned under `map` (component -> partition)
/// over `workers` threads.
fn partitioned_histories(
    w: &Workload,
    partitions: usize,
    map: &[u32],
    workers: usize,
) -> Vec<Vec<(u64, u64)>> {
    let cost_models = (0..partitions).map(|_| CostModel::Fixed).collect();
    let mut engine: PartitionedEngine<u64> = PartitionedEngine::new(cost_models, workers);
    let ids: Vec<ComponentId> = (0..w.seeds.len())
        .map(|i| engine.register(map[i], w.hopper(i)))
        .collect();
    for &(c, t, v) in &w.initial {
        engine.schedule_at(ids[c], SimTime::from_micros(t), v);
    }
    engine.run();
    ids.iter()
        .map(|&id| engine.component::<Hopper>(id).seen.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Components are clustered into groups that never exchange events,
    /// so any delay is legal — including zero. Any map that keeps groups
    /// whole replays the serial history exactly, whether the partitions
    /// run on one thread, two, or one each.
    #[test]
    fn random_closed_groups_replay_the_serial_history(
        group_sizes in prop::collection::vec(1usize..4, 2..5),
        seeds in prop::collection::vec(any::<u64>(), 16),
        raw_initial in prop::collection::vec((0usize..16, 0u64..500, any::<u64>()), 2..8),
        budget in 1u32..32,
        rotation in 0u32..4,
    ) {
        // Component i belongs to the group covering its index.
        let n: usize = group_sizes.iter().sum();
        let mut group_of = Vec::with_capacity(n);
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (g, &size) in group_sizes.iter().enumerate() {
            let start = group_of.len();
            group_of.extend(std::iter::repeat_n(g, size));
            members.push((start..start + size).collect());
        }
        let w = Workload {
            seeds: seeds[..n].to_vec(),
            budget,
            initial: raw_initial.iter().map(|&(c, t, v)| (c % n, t, v)).collect(),
            targets: (0..n).map(|i| members[group_of[i]].clone()).collect(),
        };
        let serial = serial_histories(&w);
        for partitions in 2..=4usize {
            // Groups stay whole; rotation varies which partition is whose.
            let map: Vec<u32> = (0..n)
                .map(|i| (group_of[i] as u32 + rotation) % partitions as u32)
                .collect();
            for workers in [1, 2, partitions] {
                let sharded = partitioned_histories(&w, partitions, &map, workers);
                prop_assert_eq!(
                    &serial, &sharded,
                    "closed history diverged at {} partitions over {} workers under map {:?}",
                    partitions, workers, map
                );
            }
        }
    }
}
