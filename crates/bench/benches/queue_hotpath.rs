//! Hot-path cost of the [`EventQueue`] itself: schedule/pop churn,
//! cancel-heavy churn, and a deep monotone backlog.
//!
//! The queue is a radix heap on firing time: events sit in a slab of
//! slots, linked into FIFO buckets by the highest bit in which their time
//! differs from the last anchor, and `pop` relinks only the lowest
//! occupied bucket. Cancels leave tombstones that are unlinked in bulk.
//! These workloads pin the hot path from three sides:
//!
//! * `schedule_pop_churn` — the dispatch loop every simulator runs: a
//!   standing population of events, each pop scheduling a successor.
//! * `cancel_heavy_churn` — the mixed-workload simulators' pattern:
//!   provisional finish events scheduled, cancelled, and rescheduled,
//!   so tombstones pile up and are unlinked constantly.
//! * `deep_monotone_churn` — the serving workload's shape: a backlog of
//!   1,024 standing events, half re-armed a 15 ms think time ahead, so
//!   pops walk far below a deep, slowly draining tail.
//!
//! Before/after numbers for this bench live in `EXPERIMENTS.md`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use now_sim::{EventQueue, SimDuration, SimTime};

const EVENTS: u64 = 100_000;
/// Standing event population for the churn loops (events in flight at
/// once — deep enough that heap reshuffling is real work).
const POPULATION: u64 = 256;

/// Dispatch-loop shape: keep `POPULATION` events in flight; every pop
/// schedules one successor. Exercises schedule + pop with no cancels.
fn schedule_pop_churn(events: u64) -> SimTime {
    let mut q = EventQueue::new();
    for i in 0..POPULATION {
        q.schedule_at(SimTime::from_micros(i % 17 + 1), i);
    }
    let mut left = events;
    while left > 0 {
        let Some((_, n)) = q.pop() else { break };
        black_box(n);
        left -= 1;
        q.schedule_after(SimDuration::from_micros(n % 17 + 1), n + 1);
    }
    q.now()
}

/// Timer-reset shape: every pop cancels a provisional event and
/// reschedules it, so two-thirds of all heap traffic is tombstones and
/// the compaction threshold is crossed constantly.
fn cancel_heavy_churn(events: u64) -> SimTime {
    let mut q = EventQueue::new();
    let mut provisional = Vec::with_capacity(POPULATION as usize);
    for i in 0..POPULATION {
        q.schedule_at(SimTime::from_micros(i % 17 + 1), i);
        provisional.push(q.schedule_at(SimTime::from_secs(3_600), u64::MAX));
    }
    let mut left = events;
    while left > 0 {
        let Some((_, n)) = q.pop() else { break };
        if n == u64::MAX {
            continue; // a provisional timer actually fired (horizon reached)
        }
        black_box(n);
        left -= 1;
        // Reset this worker's provisional finish time: cancel + reschedule.
        let slot = (n % POPULATION) as usize;
        q.cancel(provisional[slot]);
        provisional[slot] = q.schedule_at(q.now() + SimDuration::from_secs(3_600), u64::MAX);
        q.schedule_after(SimDuration::from_micros(n % 17 + 1), n + 1);
    }
    q.now()
}

/// Backlog of the serve-shaped churn: about the pending-set depth of one
/// `serve` benchmark run.
const DEEP: u64 = 1_024;

/// Serving shape: `DEEP` standing events; the even ones re-arm 15 ms
/// ahead (a user's think time), the odd ones a few microseconds ahead (a
/// request's service steps). Exercises schedule + pop under a deep,
/// monotone backlog.
fn deep_monotone_churn(events: u64) -> SimTime {
    let mut q = EventQueue::new();
    for i in 0..DEEP {
        q.schedule_at(SimTime::from_micros(i * 15_000 / DEEP + 1), i);
    }
    let mut left = events;
    while left > 0 {
        let Some((_, n)) = q.pop() else { break };
        black_box(n);
        left -= 1;
        let delay = if n % 2 == 0 {
            SimDuration::from_millis(15)
        } else {
            SimDuration::from_micros(n % 17 + 1)
        };
        q.schedule_after(delay, n);
    }
    q.now()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_hotpath");
    g.bench_function("schedule_pop_churn_100k", |b| {
        b.iter(|| schedule_pop_churn(black_box(EVENTS)))
    });
    g.bench_function("cancel_heavy_churn_100k", |b| {
        b.iter(|| cancel_heavy_churn(black_box(EVENTS)))
    });
    g.bench_function("deep_monotone_churn_100k", |b| {
        b.iter(|| deep_monotone_churn(black_box(EVENTS)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
