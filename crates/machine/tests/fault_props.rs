//! Property tests for the fault plane: the fault schedule is a pure
//! function of `(seed, plan)` — independent of draw interleaving across
//! links — and the network resolves the same sends to the same fates on
//! every same-seeded replay.

use earth_machine::{FaultState, MachineConfig, Network, NodeId};
use earth_sim::VirtualTime;
use earth_testkit::domain::{crash_plan, fault_plan};
use earth_testkit::prelude::*;

fn t(us: u64) -> VirtualTime {
    VirtualTime::from_ns(us * 1000)
}

props! {
    #![config(Config::with_cases(40))]

    #[test]
    fn same_seed_and_plan_replay_the_same_fate_schedule(
        plan in fault_plan(0.3, 0.2),
        seed in any::<u64>(),
    ) {
        let mut a = FaultState::new(plan.clone(), seed, 4);
        let mut b = FaultState::new(plan, seed, 4);
        for step in 0u64..200 {
            let (src, dst) = ((step % 4) as u16, ((step / 4) % 4) as u16);
            if src == dst {
                continue;
            }
            prop_assert_eq!(
                format!("{:?}", a.fate(src, dst)),
                format!("{:?}", b.fate(src, dst)),
                "fate diverged at step {}", step
            );
        }
    }

    #[test]
    fn fate_stream_per_link_ignores_other_links_interleaving(
        plan in fault_plan(0.3, 0.2),
        seed in any::<u64>(),
        noise in collection::vec((0u16..3, 0u16..3), 1..60),
    ) {
        // Draw 30 fates on link 0->1 back to back...
        let mut solo = FaultState::new(plan.clone(), seed, 3);
        let clean: Vec<String> = (0..30)
            .map(|_| format!("{:?}", solo.fate(0, 1)))
            .collect();
        // ...then replay with arbitrary draws on other links woven in.
        let mut woven = FaultState::new(plan, seed, 3);
        let mut noise_iter = noise.iter().cycle();
        let mixed: Vec<String> = (0..30)
            .map(|k| {
                for _ in 0..(k % 4) {
                    let &(s, d) = noise_iter.next().expect("cycled");
                    // only *other* links: drawing on 0->1 itself would
                    // legitimately advance its per-link counter
                    if s != d && (s, d) != (0, 1) {
                        woven.fate(s, d);
                    }
                }
                format!("{:?}", woven.fate(0, 1))
            })
            .collect();
        prop_assert_eq!(clean, mixed, "link 0->1 stream must be self-contained");
    }

    #[test]
    fn network_resolves_same_sends_identically_across_replays(
        plan in fault_plan(0.3, 0.2),
        seed in any::<u64>(),
        sends in collection::vec((0u16..4, 0u16..4, 16u32..2048), 1..80),
    ) {
        let run = || {
            let cfg = MachineConfig::manna(4).with_faults(plan.clone());
            let mut net = Network::new(cfg, seed);
            let mut log = String::new();
            for (i, &(src, dst, bytes)) in sends.iter().enumerate() {
                if src == dst {
                    continue;
                }
                let r = net.send_resolved(t(i as u64 * 7), NodeId(src), NodeId(dst), bytes);
                log.push_str(&format!("{r:?}\n"));
            }
            log.push_str(&format!("{:?}", net.stats()));
            log
        };
        prop_assert_eq!(run(), run(), "same (seed, plan) must replay byte-identically");
    }

    #[test]
    fn crash_windows_do_not_perturb_the_fate_stream(
        plan in fault_plan(0.3, 0.2),
        crashes in crash_plan(4, 10..2_000),
        seed in any::<u64>(),
    ) {
        // Crash windows are schedule-driven, not fate-driven: arming
        // them must not consume (or shift) a single SplitMix64 draw, so
        // the drop/dup/delay schedule stays byte-identical.
        let mut with = plan.clone();
        with.crashes = crashes.crashes;
        let mut a = FaultState::new(plan, seed, 4);
        let mut b = FaultState::new(with, seed, 4);
        for step in 0u64..200 {
            let (src, dst) = ((step % 4) as u16, ((step / 4) % 4) as u16);
            if src == dst {
                continue;
            }
            prop_assert_eq!(
                format!("{:?}", a.fate(src, dst)),
                format!("{:?}", b.fate(src, dst)),
                "fate diverged at step {}", step
            );
        }
    }
}
