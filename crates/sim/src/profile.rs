//! Host-time (wall-clock) profiling of the engine dispatch loop.
//!
//! The trace ring and causal layer answer "where did *simulated* time
//! go"; this module answers "where did the *host CPU* go while producing
//! it" — the question every optimisation PR against the ROADMAP's
//! as-fast-as-the-hardware-allows goal has to measure. The engine, with
//! [`crate::Engine::enable_profiler`], attributes each dispatched event's
//! wall time to its component, and splits out time spent inside the cost
//! model (the shared-fabric [`crate::Transport`]) so "the job component is
//! slow" and "the fabric pricing under the job component is slow" stay
//! distinguishable.
//!
//! The result exports two ways: a plain-text occupancy table
//! ([`HostProfile::render_text`]) and collapsed stacks
//! ([`HostProfile::collapsed`], `frame;frame count` lines) that drop
//! straight into flamegraph tooling — the host-time sibling of the
//! Chrome-trace sim-time export.
//!
//! Profiling is wall-clock measurement of the host, so its numbers are
//! *not* deterministic and never feed back into the simulation: with the
//! profiler disabled the dispatch path does no timing work at all and the
//! event history is byte-identical.

use crate::report::TextTable;

/// Host time attributed to one engine component.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentProfile {
    /// Display label (see [`crate::Engine::enable_profiler`]).
    pub label: String,
    /// Events dispatched to this component.
    pub events: u64,
    /// Wall nanoseconds inside the component's handler, excluding its
    /// [`crate::Transport`] calls.
    pub self_ns: u64,
    /// Wall nanoseconds inside [`crate::Transport`] calls made while
    /// handling this component's events.
    pub fabric_ns: u64,
}

impl ComponentProfile {
    /// Handler time including its transport calls.
    pub fn total_ns(&self) -> u64 {
        self.self_ns + self.fabric_ns
    }
}

/// Host-time attribution for one or more engine runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostProfile {
    /// Wall nanoseconds spent inside [`crate::Engine::run`].
    pub wall_ns: u64,
    /// Events dispatched in total.
    pub events: u64,
    /// Per-component attribution, in registration order (merged profiles
    /// keep the order of first appearance).
    pub components: Vec<ComponentProfile>,
}

impl HostProfile {
    /// Folds `other` into `self`, summing wall time, events, and
    /// per-component time by label. Report sweeps merge each run's
    /// profile into one scenario-level digest this way.
    pub fn merge(&mut self, other: &HostProfile) {
        self.wall_ns += other.wall_ns;
        self.events += other.events;
        for theirs in &other.components {
            match self
                .components
                .iter_mut()
                .find(|ours| ours.label == theirs.label)
            {
                Some(ours) => {
                    ours.events += theirs.events;
                    ours.self_ns += theirs.self_ns;
                    ours.fabric_ns += theirs.fabric_ns;
                }
                None => self.components.push(theirs.clone()),
            }
        }
    }

    /// Dispatch-loop time not attributed to any component (queue
    /// operations, routing, the loop itself).
    pub fn unattributed_ns(&self) -> u64 {
        let attributed: u64 = self.components.iter().map(|c| c.total_ns()).sum();
        self.wall_ns.saturating_sub(attributed)
    }

    /// The profile as collapsed stacks — one `frame;frame count` line per
    /// stack, counts in nanoseconds — the input format of flamegraph
    /// tooling (`flamegraph.pl`, inferno, speedscope). Lines are sorted,
    /// so equal profiles render identical files.
    pub fn collapsed(&self) -> String {
        let mut lines = Vec::new();
        for c in &self.components {
            if c.self_ns > 0 {
                lines.push(format!("engine;{} {}", c.label, c.self_ns));
            }
            if c.fabric_ns > 0 {
                lines.push(format!("engine;{};fabric {}", c.label, c.fabric_ns));
            }
        }
        let unattributed = self.unattributed_ns();
        if unattributed > 0 {
            lines.push(format!("engine;dispatch {unattributed}"));
        }
        lines.sort_unstable();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// The profile as a host-occupancy table: per-component self and
    /// fabric time with each component's share of the run's wall time.
    pub fn render_text(&self) -> String {
        let mut t = TextTable::new(&[
            "component",
            "events",
            "self_ms",
            "fabric_ms",
            "total_ms",
            "wall_%",
        ]);
        t.title(&format!(
            "Host-time profile ({} events, {:.3} ms wall)",
            self.events,
            self.wall_ns as f64 / 1e6
        ));
        let share = |ns: u64| {
            if self.wall_ns == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", ns as f64 * 100.0 / self.wall_ns as f64)
            }
        };
        for c in &self.components {
            t.row_owned(vec![
                c.label.clone(),
                c.events.to_string(),
                fmt_ms(c.self_ns),
                fmt_ms(c.fabric_ns),
                fmt_ms(c.total_ns()),
                share(c.total_ns()),
            ]);
        }
        t.row_owned(vec![
            "(dispatch)".to_string(),
            "-".to_string(),
            fmt_ms(self.unattributed_ns()),
            "-".to_string(),
            fmt_ms(self.unattributed_ns()),
            share(self.unattributed_ns()),
        ]);
        t.render()
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HostProfile {
        HostProfile {
            wall_ns: 10_000,
            events: 30,
            components: vec![
                ComponentProfile {
                    label: "job".to_string(),
                    events: 20,
                    self_ns: 4_000,
                    fabric_ns: 2_000,
                },
                ComponentProfile {
                    label: "traffic".to_string(),
                    events: 10,
                    self_ns: 1_000,
                    fabric_ns: 0,
                },
            ],
        }
    }

    #[test]
    fn merge_sums_by_label_and_keeps_new_components() {
        let mut a = sample();
        let mut other = sample();
        other.components[1].label = "recorder".to_string();
        a.merge(&other);
        assert_eq!(a.wall_ns, 20_000);
        assert_eq!(a.events, 60);
        assert_eq!(a.components.len(), 3);
        let job = &a.components[0];
        assert_eq!(job.self_ns, 8_000);
        assert_eq!(job.fabric_ns, 4_000);
        assert_eq!(a.components[2].label, "recorder");
    }

    #[test]
    fn collapsed_stacks_match_frame_semicolon_count() {
        let stacks = sample().collapsed();
        for line in stacks.lines() {
            let (frames, count) = line.rsplit_once(' ').expect("`frames count` shape");
            assert!(!frames.is_empty() && frames.starts_with("engine"));
            count.parse::<u64>().expect("count is an integer");
        }
        assert!(stacks.contains("engine;job 4000\n"));
        assert!(stacks.contains("engine;job;fabric 2000\n"));
        assert!(stacks.contains("engine;dispatch 3000\n"));
        // Sorted and stable.
        let lines: Vec<_> = stacks.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert_eq!(stacks, sample().collapsed());
    }

    #[test]
    fn unattributed_never_underflows() {
        let mut p = sample();
        p.wall_ns = 1; // attributed exceeds wall (clock skew)
        assert_eq!(p.unattributed_ns(), 0);
    }

    #[test]
    fn text_render_reports_occupancy_shares() {
        let text = sample().render_text();
        assert!(text.contains("Host-time profile"));
        assert!(text.contains("job"));
        assert!(text.contains("60.0")); // job: 6000/10000 of wall
        assert!(text.contains("(dispatch)"));
        // Empty profiles render without dividing by zero.
        assert!(HostProfile::default().render_text().contains("0.000"));
    }
}
