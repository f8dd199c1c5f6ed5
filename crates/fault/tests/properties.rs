//! Property tests for fault plans and the Monte-Carlo estimators.

use now_fault::{montecarlo, Fault, FaultPlan};
use now_raid::availability::FailureModel;
use now_sim::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// A plan built by pushing events in any order is sorted by time, and
    /// rebuilding it from the same inputs reproduces it exactly.
    #[test]
    fn pushed_plans_are_sorted_and_reproducible(
        raw in prop::collection::vec((0u64..5_000, 0u32..16), 0..64),
    ) {
        let build = || {
            let mut p = FaultPlan::new();
            for &(ms, node) in &raw {
                p.push(SimTime::from_millis(ms), Fault::NodeCrash { node });
            }
            p
        };
        let a = build();
        prop_assert!(a.events().windows(2).all(|w| w[0].0 <= w[1].0));
        prop_assert_eq!(a.len(), raw.len());
        prop_assert_eq!(build(), a);
    }

    /// Model-drawn plans are deterministic per seed, sorted, inside the
    /// horizon, and alternate fail/repair per element.
    #[test]
    fn model_plans_are_deterministic_and_well_formed(
        seed in 0u64..1_000,
        hosts in 1u32..6,
        horizon_h in 100u64..30_000,
    ) {
        let m = FailureModel::paper_defaults();
        let nodes: Vec<u32> = (0..hosts).collect();
        let horizon = SimDuration::from_secs(horizon_h * 3600);
        let a = FaultPlan::from_model(&m, &nodes, &[0], horizon, seed);
        let b = FaultPlan::from_model(&m, &nodes, &[0], horizon, seed);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.events().windows(2).all(|w| w[0].0 <= w[1].0));
        let end = SimTime::ZERO + horizon;
        prop_assert!(a.events().iter().all(|&(t, _)| t < end));
        // Per-node alternation: a node can only reboot while down.
        for node in nodes {
            let mut down = false;
            for &(_, f) in a.events() {
                match f {
                    Fault::NodeCrash { node: n } if n == node => {
                        prop_assert!(!down);
                        down = true;
                    }
                    Fault::NodeReboot { node: n } if n == node => {
                        prop_assert!(down);
                        down = false;
                    }
                    _ => {}
                }
            }
        }
    }

    /// The Monte-Carlo RAID-5 MTTDL stays within 15% of the closed form
    /// across group sizes and seeds (the ISSUE's acceptance tolerance).
    #[test]
    fn raid5_mttdl_converges_to_the_closed_form(
        seed in 0u64..20,
        wide in any::<bool>(),
    ) {
        let n: u32 = if wide { 16 } else { 8 };
        let m = FailureModel::paper_defaults();
        let mc = montecarlo::raid5_mttdl_hours(&m, n, 1_500, seed, 1);
        let closed = m.raid5_mttdl_hours(n);
        let err = (mc - closed).abs() / closed;
        prop_assert!(err < 0.15, "n={}, seed={}: MC {:.0} vs closed {:.0} ({:.1}%)", n, seed, mc, closed, err * 100.0);
    }
}

/// The MC estimators reproduce the paper's ordering: serverless software
/// RAID service outlives hardware RAID service, which is host-bound.
#[test]
fn monte_carlo_reproduces_the_availability_ordering() {
    let m = FailureModel::paper_defaults();
    for n in [8u32, 16] {
        let sw = montecarlo::software_service_mttf_hours(&m, n, 2_000, 42, 1);
        let hw = montecarlo::hardware_service_mttf_hours(&m, n, 2_000, 42, 1);
        assert!(
            sw > hw,
            "n={n}: software {sw:.0} h must beat hardware {hw:.0} h"
        );
        assert!(
            (hw - m.host_mttf_hours).abs() / m.host_mttf_hours < 0.2,
            "hardware service is host-bound: {hw:.0} h vs host {} h",
            m.host_mttf_hours
        );
    }
}

/// Scripted fault plans on the engine: every fault a plan scripts reaches
/// its injector's subscriber, at its scripted instant, in plan order.
mod delivery {
    use now_fault::{Fault, FaultInjectorComponent, FaultPlan, InjectorEvent};
    use now_sim::{Component, Ctx, Engine, EventCast, SimTime};
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Inject(InjectorEvent),
        Fault(Fault),
    }

    now_sim::event_cast!(Ev {
        Inject(InjectorEvent),
        Fault(Fault),
    });

    #[derive(Debug, Default)]
    struct Sink {
        seen: Vec<(SimTime, Fault)>,
    }

    impl Component<Ev> for Sink {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, event: Ev) {
            let fault = <Ev as EventCast<Fault>>::downcast(event);
            self.seen.push((ctx.now(), fault));
        }
    }

    fn crash_plan(raw: &[(u64, u32)]) -> FaultPlan {
        let mut p = FaultPlan::new();
        for &(ms, node) in raw {
            p.push(SimTime::from_millis(ms), Fault::NodeCrash { node });
        }
        p
    }

    /// Registers one injector/sink pair per plan on one engine and seeds
    /// each plan's first firing; returns each sink's delivery log.
    fn delivery_logs(plans: &[FaultPlan]) -> Vec<Vec<(SimTime, Fault)>> {
        let mut engine: Engine<Ev> = Engine::new();
        let mut registered = Vec::new();
        for plan in plans {
            let sink = engine.register(Sink::default());
            let injector = engine.register(FaultInjectorComponent::new(plan.clone(), vec![sink]));
            registered.push((sink, injector));
        }
        for (plan, &(_, injector)) in plans.iter().zip(&registered) {
            if let Some(t) = plan.first_time() {
                engine.schedule_at(injector, t, Ev::Inject(InjectorEvent::Fire));
            }
        }
        engine.run();
        registered
            .iter()
            .map(|&(sink, _)| engine.component::<Sink>(sink).seen.clone())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn every_scripted_fault_is_delivered(
            raw_plans in prop::collection::vec(
                prop::collection::vec((0u64..2_000, 0u32..16), 0..24),
                2..5,
            ),
        ) {
            let plans: Vec<FaultPlan> = raw_plans.iter().map(|r| crash_plan(r)).collect();
            let logs = delivery_logs(&plans);
            prop_assert_eq!(
                logs.iter().map(Vec::len).sum::<usize>(),
                plans.iter().map(FaultPlan::len).sum::<usize>(),
                "every scripted fault must be delivered"
            );
            for (plan, log) in plans.iter().zip(&logs) {
                prop_assert_eq!(plan.events(), &log[..], "delivered off its script");
            }
        }
    }
}
