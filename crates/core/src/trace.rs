//! Execution tracing: per-node activity intervals and a text timeline.
//!
//! When enabled (see [`Runtime::enable_trace`]), the runtime records one
//! interval per scheduling round — which node was busy, when, for how
//! long, and what it was doing. [`Trace::timeline`] renders the classic
//! utilization Gantt as text, which is how we inspected the Gröbner
//! idle-phase structure during development; the harness exposes it for
//! any experiment.
//!
//! [`Runtime::enable_trace`]: crate::Runtime::enable_trace

use earth_machine::NodeId;
use earth_sim::{VirtualDuration, VirtualTime};
use std::fmt::Write as _;

/// What a node spent a scheduling round doing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Activity {
    /// Servicing messages in the polling watchdog.
    Poll,
    /// Executing an application thread.
    Thread,
    /// Instantiating and running a token.
    TokenRun,
    /// Load-balancer traffic (steal requests).
    Steal,
    /// Reliability-layer retransmissions (fault plans only).
    Retransmit,
    /// Hedged retransmit of a still-unacked first transmission
    /// (straggler defenses only).
    Hedge,
    /// Failure-detector probe traffic (crash plans only).
    Heartbeat,
    /// Taking a periodic checkpoint (crash plans only).
    Checkpoint,
    /// Restoring a checkpoint and re-executing lost work after a crash
    /// (crash plans only).
    Recover,
    /// Synchronization Unit message service (dual-processor mode; only
    /// appears in earth-profile's SU spans, never in the EU trace).
    Su,
}

impl Activity {
    /// Number of activities: the length of a node's per-activity time
    /// array, indexed by `activity as usize`.
    pub(crate) const COUNT: usize = 10;
}

/// One recorded busy interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The node.
    pub node: NodeId,
    /// Interval start.
    pub start: VirtualTime,
    /// Interval end.
    pub end: VirtualTime,
    /// Dominant activity of the round.
    pub what: Activity,
}

/// A recorded execution trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Busy intervals in completion order.
    pub spans: Vec<Span>,
}

impl Trace {
    pub(crate) fn record(
        &mut self,
        node: NodeId,
        start: VirtualTime,
        end: VirtualTime,
        what: Activity,
    ) {
        if end > start {
            self.spans.push(Span {
                node,
                start,
                end,
                what,
            });
        }
    }

    /// Total busy time of `node` in the trace.
    pub fn busy(&self, node: NodeId) -> VirtualDuration {
        self.spans
            .iter()
            .filter(|s| s.node == node)
            .map(|s| s.end.since(s.start))
            .sum()
    }

    /// Render a text Gantt: one row per node, `width` columns spanning
    /// the trace; `#` thread execution, `t` token runs, `R` recovery,
    /// `k` checkpoints, `h` heartbeats, `H` hedged retransmits, `s`
    /// stealing, `r` retransmissions, `u` SU service, `.` polling,
    /// space idle.
    pub fn timeline(&self, nodes: u16, width: usize) -> String {
        assert!(width >= 10);
        let end = self
            .spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(VirtualTime::ZERO);
        if end == VirtualTime::ZERO {
            return String::from("(empty trace)\n");
        }
        let total = end.since(VirtualTime::ZERO).as_ns() as f64;
        let mut out = String::new();
        for node in 0..nodes {
            let mut row = vec![b' '; width];
            for s in self.spans.iter().filter(|s| s.node.0 == node) {
                let a = ((s.start.as_ns() as f64 / total) * width as f64) as usize;
                let b = ((s.end.as_ns() as f64 / total) * width as f64).ceil() as usize;
                let ch = match s.what {
                    Activity::Thread => b'#',
                    Activity::TokenRun => b't',
                    Activity::Recover => b'R',
                    Activity::Checkpoint => b'k',
                    Activity::Heartbeat => b'h',
                    Activity::Hedge => b'H',
                    Activity::Poll => b'.',
                    Activity::Steal => b's',
                    Activity::Retransmit => b'r',
                    Activity::Su => b'u',
                };
                for cell in row.iter_mut().take(b.min(width)).skip(a) {
                    // Busier activities win the cell. Every activity has
                    // its own rank, so a steal marker is never hidden by a
                    // poll span covering the same columns.
                    let rank = |c: u8| match c {
                        b'#' => 10,
                        b't' => 9,
                        b'R' => 8,
                        b'k' => 7,
                        b'h' => 6,
                        b'H' => 5,
                        b's' => 4,
                        b'r' => 3,
                        b'u' => 2,
                        b'.' => 1,
                        _ => 0,
                    };
                    if rank(ch) > rank(*cell) {
                        *cell = ch;
                    }
                }
            }
            let _ = writeln!(out, "n{node:<3} |{}|", String::from_utf8(row).unwrap());
        }
        let _ = writeln!(
            out,
            "      0{:>width$}",
            format!("{}", end),
            width = width - 1
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> VirtualTime {
        VirtualTime::from_ns(us * 1000)
    }

    #[test]
    fn busy_accounts_per_node() {
        let mut tr = Trace::default();
        tr.record(NodeId(0), t(0), t(10), Activity::Thread);
        tr.record(NodeId(0), t(20), t(25), Activity::Poll);
        tr.record(NodeId(1), t(5), t(9), Activity::TokenRun);
        assert_eq!(tr.busy(NodeId(0)), VirtualDuration::from_us(15));
        assert_eq!(tr.busy(NodeId(1)), VirtualDuration::from_us(4));
        assert_eq!(tr.busy(NodeId(2)), VirtualDuration::ZERO);
    }

    #[test]
    fn zero_length_spans_are_dropped() {
        let mut tr = Trace::default();
        tr.record(NodeId(0), t(5), t(5), Activity::Poll);
        assert!(tr.spans.is_empty());
    }

    #[test]
    fn timeline_renders_rows() {
        let mut tr = Trace::default();
        tr.record(NodeId(0), t(0), t(50), Activity::Thread);
        tr.record(NodeId(1), t(50), t(100), Activity::TokenRun);
        let s = tr.timeline(2, 20);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('#'));
        assert!(lines[1].contains('t'));
        // node 0 busy first half, node 1 second half
        assert!(lines[0].find('#').unwrap() < lines[1].find('t').unwrap());
    }

    #[test]
    fn empty_timeline_is_graceful() {
        let tr = Trace::default();
        assert_eq!(tr.timeline(3, 20), "(empty trace)\n");
    }

    #[test]
    fn steal_survives_overlapping_poll() {
        // A steal round often shares its columns with poll spans of
        // neighbouring rounds; the steal marker must win the cell (the
        // old renderer ranked 's' equal to '.', so whichever came later
        // in the span list erased the other).
        let mut tr = Trace::default();
        tr.record(NodeId(0), t(0), t(100), Activity::Poll);
        tr.record(NodeId(0), t(40), t(60), Activity::Steal);
        let s = tr.timeline(1, 20);
        assert!(s.lines().next().unwrap().contains('s'), "{s}");
        // and the reverse recording order gives the same row
        let mut rev = Trace::default();
        rev.record(NodeId(0), t(40), t(60), Activity::Steal);
        rev.record(NodeId(0), t(0), t(100), Activity::Poll);
        assert_eq!(tr.timeline(1, 20), rev.timeline(1, 20));
    }

    #[test]
    fn every_activity_has_a_distinct_rank() {
        // All ten activities stacked on the same interval: the busiest
        // ('#') wins, and removing it promotes the next rank, so no two
        // activities can silently tie.
        let acts = [
            (Activity::Poll, '.'),
            (Activity::Su, 'u'),
            (Activity::Retransmit, 'r'),
            (Activity::Steal, 's'),
            (Activity::Hedge, 'H'),
            (Activity::Heartbeat, 'h'),
            (Activity::Checkpoint, 'k'),
            (Activity::Recover, 'R'),
            (Activity::TokenRun, 't'),
            (Activity::Thread, '#'),
        ];
        for top in 0..acts.len() {
            let mut tr = Trace::default();
            for &(a, _) in &acts[..=top] {
                tr.record(NodeId(0), t(0), t(50), a);
            }
            let row = tr.timeline(1, 20);
            let want = acts[top].1;
            assert!(
                row.lines().next().unwrap().contains(want),
                "expected {want:?} to win in:\n{row}"
            );
        }
    }

    #[test]
    fn timeline_is_deterministic() {
        let build = || {
            let mut tr = Trace::default();
            tr.record(NodeId(0), t(0), t(30), Activity::Thread);
            tr.record(NodeId(1), t(10), t(20), Activity::Steal);
            tr.record(NodeId(1), t(5), t(25), Activity::Poll);
            tr.record(NodeId(0), t(30), t(90), Activity::TokenRun);
            tr
        };
        assert_eq!(build().timeline(2, 40), build().timeline(2, 40));
    }
}
