//! Per-event dispatch overhead of the [`Engine`] vs a raw
//! [`EventQueue`] loop.
//!
//! The engine wraps every event in a routing envelope, dispatches through
//! a `dyn Component`, and rebuilds a `Ctx` per event. This bench times
//! that cost: both sides run the same 100,000-event self-chaining
//! workload, so the difference between the two timings is pure dispatch
//! overhead. It asserts no budget; EXPERIMENTS.md records the measured
//! ratios to the raw loop.
//!
//! A `u64` event moves in a register. The third case chains an event
//! shaped like the coupled scenario's (a byte tag and `u32`, `usize` and
//! `bool` payloads, 16 bytes), so it also times moving the event and its
//! routing envelope through the queue and into the handler.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use now_sim::{Component, Ctx, Engine, EventQueue, SimDuration, SimTime};

const EVENTS: u64 = 100_000;

fn raw_queue(events: u64) -> SimTime {
    let mut q = EventQueue::new();
    q.schedule_at(SimTime::ZERO, 0u64);
    let mut left = events;
    while let Some((_, n)) = q.pop() {
        black_box(n);
        left -= 1;
        if left > 0 {
            q.schedule_at(q.now() + SimDuration::from_micros(1), 0u64);
        }
    }
    q.now()
}

struct Chain {
    left: u64,
}

impl Component<u64> for Chain {
    fn on_event(&mut self, ctx: &mut Ctx<'_, u64>, ev: u64) {
        black_box(ev);
        self.left -= 1;
        if self.left > 0 {
            ctx.schedule_after(SimDuration::from_micros(1), 0);
        }
    }
}

fn engine_chain(events: u64) -> SimTime {
    let mut engine = Engine::new();
    let id = engine.register(Chain { left: events });
    engine.schedule_at(id, SimTime::ZERO, 0u64);
    engine.run();
    engine.now()
}

/// An event shaped like `ScenarioEvent`: several variants behind a byte
/// tag, with `u32`, `usize` and `bool` payloads.
#[derive(Debug, Clone, Copy)]
enum Shaped {
    Step,
    Host(u32),
    Access { client: u32, index: usize },
    Flag(bool),
}

struct ShapedChain {
    left: u64,
}

impl Component<Shaped> for ShapedChain {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Shaped>, ev: Shaped) {
        // Each variant schedules the next one, so every shape is moved.
        let next = match black_box(ev) {
            Shaped::Step => Shaped::Host(7),
            Shaped::Host(client) => Shaped::Access {
                client,
                index: self.left as usize,
            },
            Shaped::Access { client, index } => Shaped::Flag(index % 2 == client as usize % 2),
            Shaped::Flag(true) => Shaped::Step,
            Shaped::Flag(false) => Shaped::Host(3),
        };
        self.left -= 1;
        if self.left > 0 {
            ctx.schedule_after(SimDuration::from_micros(1), next);
        }
    }
}

fn engine_shaped_chain(events: u64) -> SimTime {
    let mut engine = Engine::new();
    let id = engine.register(ShapedChain { left: events });
    engine.schedule_at(id, SimTime::ZERO, Shaped::Step);
    engine.run();
    engine.now()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_dispatch");
    g.bench_function("raw_event_queue_100k", |b| {
        b.iter(|| raw_queue(black_box(EVENTS)))
    });
    g.bench_function("engine_component_100k", |b| {
        b.iter(|| engine_chain(black_box(EVENTS)))
    });
    g.bench_function("engine_scenario_shaped_100k", |b| {
        b.iter(|| engine_shaped_chain(black_box(EVENTS)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
