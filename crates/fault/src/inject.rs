//! The engine component that fires a [`FaultPlan`].

use now_probe::Probe;
use now_sim::{Component, ComponentId, Ctx, EventCast};

use crate::{Fault, FaultPlan};

/// The injector's private wake-up event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectorEvent {
    /// Fire every fault scheduled for the current instant, then sleep
    /// until the next one.
    Fire,
}

/// An engine [`Component`] that walks a [`FaultPlan`] and broadcasts each
/// fault to its subscribers at the scripted instant.
///
/// The caller registers the component, then kicks it with one
/// [`InjectorEvent::Fire`] at [`FaultPlan::first_time`]; the injector
/// re-arms itself for each later instant in the plan. Subscribers receive
/// the plan's `Fault` values (upcast into the scenario's event type) in
/// plan order, each fanned out in subscriber order — all FIFO at the
/// injection timestamp, so delivery is deterministic.
#[derive(Debug)]
pub struct FaultInjectorComponent {
    plan: FaultPlan,
    next: usize,
    subscribers: Vec<ComponentId>,
    injected: u64,
    probe: Probe,
}

impl FaultInjectorComponent {
    /// Creates an injector for `plan` that fans each fault out to
    /// `subscribers`.
    pub fn new(plan: FaultPlan, subscribers: Vec<ComponentId>) -> Self {
        FaultInjectorComponent {
            plan,
            next: 0,
            subscribers,
            injected: 0,
            probe: Probe::disabled(),
        }
    }

    /// Attaches a telemetry probe counting `fault.injected` plus one
    /// `fault.injected.<kind>` counter per fault variant, and gauging
    /// `fault.pending` (plan entries not yet fired).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Faults broadcast so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    fn kind_counter(fault: &Fault) -> &'static str {
        match fault {
            Fault::NodeCrash { .. } => "fault.injected.node_crash",
            Fault::NodeReboot { .. } => "fault.injected.node_reboot",
            Fault::LinkDown { .. } => "fault.injected.link_down",
            Fault::LinkUp { .. } => "fault.injected.link_up",
            Fault::DiskFail { .. } => "fault.injected.disk_fail",
            Fault::DiskReplace { .. } => "fault.injected.disk_replace",
        }
    }
}

impl<M> Component<M> for FaultInjectorComponent
where
    M: EventCast<InjectorEvent> + EventCast<Fault> + 'static,
{
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        let InjectorEvent::Fire = <M as EventCast<InjectorEvent>>::downcast(event);
        let now = ctx.now();
        while let Some(&(t, fault)) = self.plan.events().get(self.next) {
            if t != now {
                break;
            }
            self.next += 1;
            self.injected += 1;
            self.probe.count("fault.injected", 1);
            self.probe.count(Self::kind_counter(&fault), 1);
            for &sub in &self.subscribers {
                ctx.send_to(sub, <M as EventCast<Fault>>::upcast(fault));
            }
        }
        self.probe.gauge_set(
            "fault.pending",
            self.plan.events().len().saturating_sub(self.next) as f64,
        );
        if let Some(&(t, _)) = self.plan.events().get(self.next) {
            ctx.schedule_at(
                t,
                <M as EventCast<InjectorEvent>>::upcast(InjectorEvent::Fire),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_sim::{Engine, SimTime};

    /// Minimal event bus for the injector alone plus a recording sink.
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

    #[test]
    fn plan_events_arrive_at_their_instants_in_order() {
        let plan = FaultPlan::new()
            .at(SimTime::from_millis(10), Fault::NodeCrash { node: 3 })
            .at(SimTime::from_millis(10), Fault::LinkDown { node: 5 })
            .at(SimTime::from_millis(40), Fault::NodeReboot { node: 3 });
        let mut engine: Engine<Ev> = Engine::new();
        let sink = engine.register(Sink::default());
        let injector = engine.register(FaultInjectorComponent::new(plan.clone(), vec![sink]));
        engine.schedule_at(
            injector,
            plan.first_time().unwrap(),
            Ev::Inject(InjectorEvent::Fire),
        );
        engine.run();
        let sink = engine.component::<Sink>(sink);
        assert_eq!(
            sink.seen,
            vec![
                (SimTime::from_millis(10), Fault::NodeCrash { node: 3 }),
                (SimTime::from_millis(10), Fault::LinkDown { node: 5 }),
                (SimTime::from_millis(40), Fault::NodeReboot { node: 3 }),
            ]
        );
        assert_eq!(
            engine
                .component::<FaultInjectorComponent>(injector)
                .injected(),
            3
        );
    }

    #[test]
    fn empty_plan_schedules_nothing() {
        let mut engine: Engine<Ev> = Engine::new();
        let sink = engine.register(Sink::default());
        let injector = engine.register(FaultInjectorComponent::new(FaultPlan::new(), vec![sink]));
        // Never kicked: the engine has no events at all and runs to
        // completion immediately.
        engine.run();
        assert!(engine.component::<Sink>(sink).seen.is_empty());
        assert_eq!(
            engine
                .component::<FaultInjectorComponent>(injector)
                .injected(),
            0
        );
    }
}
