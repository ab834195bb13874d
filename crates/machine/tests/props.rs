//! Property tests for the machine simulator: accounting invariants and
//! coherence sanity over random access streams, and the three ways of
//! issuing one stream (`access`, unobserved `access_seg`, observed
//! `access_seg`) leaving one machine.

#![allow(clippy::needless_range_loop)]

use dct_machine::{AccessLevel, Machine, MachineConfig, MemProbe, ProcStats, SegAccess};
use proptest::prelude::*;

/// A random access stream: (proc, small address, write).
fn stream(nprocs: usize) -> impl Strategy<Value = Vec<(usize, u64, bool)>> {
    proptest::collection::vec((0..nprocs, 0u64..2048, any::<bool>()), 1..300)
}

/// One step of a multi-processor stream: a single access, or a strided
/// vector executed for some rounds.
#[derive(Clone, Debug)]
enum Op {
    One(usize, u64, bool),
    Seg(usize, Vec<SegAccess>, u64),
}

/// Streams that mix single accesses with strided vectors: unit stride, a
/// stride of a line or more (either sign), a stationary slot among moving
/// ones, slots one L1 apart (the same set of the direct-mapped tiny
/// config), and a vector of 33 to 36 slots. Addresses are dense enough
/// that processors share lines.
fn ops(nprocs: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..7, 0..nprocs, 0u64..1536, any::<u64>(), 1u64..40, 1usize..5).prop_map(
        |(shape, proc, at, bits, rounds, k)| {
            let base = 4096 + at;
            let write = |j: usize| bits >> (j % 64) & 1 == 1;
            let slots = |n: usize, gap: u64, dbyte: &dyn Fn(usize) -> i64| -> Vec<SegAccess> {
                (0..n).map(|j| SegAccess { byte: base + j as u64 * gap, dbyte: dbyte(j), write: write(j) }).collect()
            };
            let accs = match shape {
                0 | 1 => return Op::One(proc, base, write(0)),
                2 => slots(k, 272, &|j| if j % 2 == 0 { 4 } else { 8 }),
                3 => slots(k, 100, &|j| [16, -16, 32, -48][(j + bits as usize) % 4]),
                4 => slots(k, 36, &|j| if j == 0 { 0 } else { 4 }),
                5 => slots(k.max(2), 256, &|_| 4),
                _ => slots(32 + k, 20, &|_| 4),
            };
            Op::Seg(proc, accs, rounds)
        },
    );
    proptest::collection::vec(op, 1..60)
}

/// What a probe is told, counted the way `ProcStats` counts.
#[derive(Default)]
struct Tally {
    seen: Vec<ProcStats>,
}

impl Tally {
    fn of(&mut self, proc: usize) -> &mut ProcStats {
        if self.seen.len() <= proc {
            self.seen.resize(proc + 1, ProcStats::default());
        }
        &mut self.seen[proc]
    }
}

impl MemProbe for Tally {
    fn access(&mut self, proc: usize, _line: u64, _word: u32, _write: bool, level: AccessLevel, cost: u64) {
        let st = self.of(proc);
        st.accesses += 1;
        st.mem_cycles += cost;
        match level {
            AccessLevel::L1 => st.l1_hits += 1,
            AccessLevel::L2 => st.l2_hits += 1,
            AccessLevel::LocalMem => st.local_mem += 1,
            AccessLevel::RemoteMem => st.remote_mem += 1,
            AccessLevel::RemoteDirty => st.remote_dirty += 1,
        }
    }

    fn invalidated(&mut self, victim: usize, _line: u64, _writer: usize, _word: u32) {
        self.of(victim).invalidations_received += 1;
    }
}

/// Issue `ops` three ways — every access through `Machine::access`, the
/// vectors through `access_seg`, and everything under an attached probe
/// (which sends `access_seg` down its per-access observed loop) — and
/// require one outcome: the same cost for every step, the same counters,
/// the same state, and a probe that was told exactly what was counted.
fn assert_three_ways_agree(cfg: &MachineConfig, ops: &[Op]) {
    let (mut one, mut seg, mut obs) =
        (Machine::new(cfg.clone()), Machine::new(cfg.clone()), Machine::new(cfg.clone()));
    let mut tally = Tally::default();
    for (n, op) in ops.iter().enumerate() {
        let costs = match op {
            Op::One(p, a, w) => [
                one.access(*p, *a, *w),
                seg.access(*p, *a, *w),
                obs.access_probed(*p, *a, *w, Some(&mut tally)),
            ],
            Op::Seg(p, accs, rounds) => {
                let mut by_one = 0;
                let mut walk = accs.clone();
                for _ in 0..*rounds {
                    for a in walk.iter_mut() {
                        by_one += one.access(*p, a.byte, a.write);
                        a.byte = (a.byte as i64 + a.dbyte) as u64;
                    }
                }
                let (mut v, mut w) = (accs.clone(), accs.clone());
                let by_seg = seg.access_seg(*p, &mut v, *rounds, None);
                let by_obs = obs.access_seg(*p, &mut w, *rounds, Some(&mut tally));
                for ((a, b), c) in walk.iter().zip(&v).zip(&w) {
                    assert_eq!((a.byte, a.byte), (b.byte, c.byte), "op {n}: slots end where the walk ends");
                }
                [by_one, by_seg, by_obs]
            }
        };
        assert_eq!(costs, [costs[0]; 3], "op {n} {op:?}: cost by access / access_seg / observed");
        assert_eq!(one.stats, seg.stats, "op {n} {op:?}: counters, access vs access_seg");
    }
    assert_eq!(one.stats, obs.stats, "counters, access vs observed access_seg");
    assert_eq!(one.state_digest(), seg.state_digest(), "state, access vs access_seg");
    assert_eq!(one.state_digest(), obs.state_digest(), "state, access vs observed access_seg");
    tally.seen.resize(cfg.nprocs, ProcStats::default());
    for (p, (told, counted)) in tally.seen.iter().zip(&one.stats.per_proc).enumerate() {
        // A probe is not told which L1 hits were memo hits or upgrades.
        let counted = ProcStats { l1_fast_hits: 0, upgrades: 0, ..*counted };
        assert_eq!(*told, counted, "processor {p}: what the probe was told");
    }
    // An associative machine has no digest; either way the three machines
    // must answer what comes next alike.
    for addr in (4096..6144u64).step_by(52) {
        for p in 0..cfg.nprocs {
            let w = (addr / 52 + p as u64).is_multiple_of(3);
            let c = one.access(p, addr, w);
            assert_eq!((c, c), (seg.access(p, addr, w), obs.access(p, addr, w)), "follow-up at {addr}");
        }
    }
    assert_eq!((&one.stats, &one.stats), (&seg.stats, &obs.stats), "counters after the follow-up");
}

/// The L1-hit leg's decision table with the counters written out, so that
/// the three ways above cannot agree on a wrong answer: each touch goes
/// through `access`, a stationary one-slot vector and a full-line-stride one.
#[test]
fn l1_hit_leg_decision_table() {
    let cfg = MachineConfig::tiny(2);
    let (x, y) = (4096u64, 4096 + 48);
    // (address, write, l1 hit, memo hit, upgrade, cost)
    let table = [
        (x, false, false, false, false, cfg.lat_local), // cold
        (x, false, true, true, false, cfg.lat_l1),      // the last line again
        (y, false, false, false, false, cfg.lat_local),
        (x, false, true, false, false, cfg.lat_l1),     // resident, not the last line
        (x, true, true, false, true, cfg.lat_l1),       // the last line, but Shared: upgrade
        (x, true, true, true, false, cfg.lat_l1),       // now Modified
        (y, false, true, false, false, cfg.lat_l1),
        (x, true, true, false, false, cfg.lat_l1),      // resident Modified
        (y, true, true, false, true, cfg.lat_l1),       // resident Shared: upgrade
    ];
    for way in 0..3 {
        let mut m = Machine::new(cfg.clone());
        let mut want = ProcStats::default();
        for (n, &(byte, write, l1, memo, upgrade, cost)) in table.iter().enumerate() {
            let got = match way {
                0 => m.access(0, byte, write),
                1 => m.access_seg(0, &mut [SegAccess { byte, dbyte: 0, write }], 1, None),
                _ => m.access_seg(0, &mut [SegAccess { byte, dbyte: 16, write }], 1, None),
            };
            want.accesses += 1;
            want.l1_hits += l1 as u64;
            want.l1_fast_hits += memo as u64;
            want.upgrades += upgrade as u64;
            want.local_mem += !l1 as u64;
            want.mem_cycles += cost;
            assert_eq!(got, cost, "way {way}, touch {n}");
            assert_eq!(m.stats.per_proc[0], want, "way {way}, touch {n}");
        }
    }
}

/// A write slot on a line the processor holds Shared takes the upgrade
/// inside the vector, on every path.
#[test]
fn segment_write_to_a_shared_line_upgrades() {
    let cfg = MachineConfig::tiny(2);
    let shared = [Op::One(0, 4096, false), Op::One(1, 4096, false)];
    let vector = [
        SegAccess { byte: 4096, dbyte: 4, write: false },
        SegAccess { byte: 4096, dbyte: 4, write: true },
    ];
    for dbyte in [4, 16] {
        let accs: Vec<SegAccess> = vector.iter().map(|a| SegAccess { dbyte, ..*a }).collect();
        let mut ops = shared.to_vec();
        ops.push(Op::Seg(0, accs.clone(), 6));
        assert_three_ways_agree(&cfg, &ops);
        let mut m = Machine::new(cfg.clone());
        m.access(0, 4096, false);
        m.access(1, 4096, false);
        m.access_seg(0, &mut accs.clone(), 1, None);
        assert_eq!(m.stats.per_proc[0].upgrades, 1, "stride {dbyte}");
        assert_eq!(m.stats.per_proc[1].invalidations_received, 1, "stride {dbyte}");
    }
}

/// A processor's last-line memo names a line that another processor then
/// writes: the next touch must not be served from the memo.
#[test]
fn memo_invalidated_between_two_touches() {
    let cfg = MachineConfig::tiny(2);
    for dbyte in [0, 4, 32] {
        let touch = vec![SegAccess { byte: 4100, dbyte, write: false }];
        let ops = [Op::Seg(0, touch.clone(), 2), Op::One(1, 4104, true), Op::Seg(0, touch.clone(), 2)];
        assert_three_ways_agree(&cfg, &ops);
        let mut m = Machine::new(cfg.clone());
        m.access_seg(0, &mut touch.clone(), 1, None);
        m.access(1, 4104, true);
        let cost = m.access_seg(0, &mut touch.clone(), 1, None);
        assert_eq!(cost, cfg.lat_remote_dirty, "stride {dbyte}: the line is dirty at the writer");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `access`, `access_seg` and observed `access_seg` are one machine, on
    /// the direct-mapped config and on a 2-way associative L1.
    #[test]
    fn three_ways_of_issuing_a_stream_agree(stream in ops(4)) {
        assert_three_ways_agree(&MachineConfig::tiny(4), &stream);
        assert_three_ways_agree(&MachineConfig { l1_assoc: 2, ..MachineConfig::tiny(4) }, &stream);
        assert_three_ways_agree(&MachineConfig { l1_assoc: 2, l2_assoc: 2, ..MachineConfig::tiny(3) },
            &stream.iter().map(|op| match op {
                Op::One(p, a, w) => Op::One(p % 3, *a, *w),
                Op::Seg(p, v, r) => Op::Seg(p % 3, v.clone(), *r),
            }).collect::<Vec<_>>());
    }

    /// Hits plus misses account for every access; costs are within the
    /// configured latencies.
    #[test]
    fn accounting_invariants(accs in stream(4)) {
        let cfg = MachineConfig::tiny(4);
        let mut m = Machine::new(cfg.clone());
        for &(p, a, w) in &accs {
            let c = m.access(p, a, w);
            prop_assert!(c >= cfg.lat_l1);
            prop_assert!(c <= cfg.lat_remote_dirty + cfg.lat_invalidate + 2 * 4);
        }
        let t = m.stats.total();
        prop_assert_eq!(t.accesses, accs.len() as u64);
        let classified = t.l1_hits + t.l2_hits + t.local_mem + t.remote_mem + t.remote_dirty;
        prop_assert_eq!(classified, t.accesses);
        prop_assert!(m.stats.memory_miss_rate() <= 1.0);
    }

    /// Single-processor streams never see coherence traffic.
    #[test]
    fn uniprocessor_no_coherence(accs in stream(1)) {
        let mut m = Machine::new(MachineConfig::tiny(1));
        for &(_, a, w) in &accs {
            m.access(0, a, w);
        }
        let t = m.stats.total();
        prop_assert_eq!(t.invalidations_received, 0);
        prop_assert_eq!(t.remote_dirty, 0);
        prop_assert_eq!(t.remote_mem, 0, "single cluster: everything is local");
    }

    /// Immediately repeated accesses always hit L1, regardless of history.
    #[test]
    fn repeat_access_hits_l1(accs in stream(4), p in 0usize..4, a in 0u64..2048) {
        let cfg = MachineConfig::tiny(4);
        let mut m = Machine::new(cfg.clone());
        for &(q, b, w) in &accs {
            m.access(q, b, w);
        }
        m.access(p, a, true);
        let c = m.access(p, a, false);
        prop_assert_eq!(c, cfg.lat_l1);
        let c = m.access(p, a, true);
        prop_assert_eq!(c, cfg.lat_l1, "writer keeps ownership until someone intervenes");
    }

    /// The state digest is a function of the access stream, and a digest
    /// that recurs at the start of a repeated stream means the repeat
    /// costs and counts exactly what the previous round did — the property
    /// the executor's time-step replay rests on. (That the digest covers
    /// every component of the state is a unit test beside it.)
    #[test]
    fn recurring_state_digest_means_a_repeating_round(
        warm in stream(4),
        round in proptest::collection::vec((0usize..4, 0u64..512, any::<bool>()), 1..80),
    ) {
        let warmed = || {
            let mut m = Machine::new(MachineConfig::tiny(4));
            for &(p, a, w) in &warm {
                m.access(p, a, w);
            }
            m
        };
        let (mut m, twin) = (warmed(), warmed());
        prop_assert_eq!(m.state_digest(), twin.state_digest(), "same stream, different digest");
        let mut prev: Option<(Option<u128>, Vec<u64>, Vec<dct_machine::ProcStats>)> = None;
        let mut recurred = false;
        for _ in 0..6 {
            let digest = m.state_digest();
            let before = m.stats.per_proc.clone();
            let costs: Vec<u64> = round.iter().map(|&(p, a, w)| m.access(p, a, w)).collect();
            let delta: Vec<_> =
                m.stats.per_proc.iter().zip(&before).map(|(now, was)| now.since(was)).collect();
            if let Some((d, c, s)) = &prev {
                if *d == digest {
                    recurred = true;
                    prop_assert_eq!(c, &costs, "state recurred, costs did not");
                    prop_assert_eq!(s, &delta, "state recurred, counters did not");
                }
            }
            prev = Some((digest, costs, delta));
        }
        // A direct-mapped machine driven by one repeated round settles.
        prop_assert!(recurred, "no recurrence in six rounds");
    }

    /// Disjoint per-processor address regions never interfere: every
    /// processor's stream behaves as if it ran alone.
    #[test]
    fn disjoint_regions_isolated(accs in proptest::collection::vec((0usize..4, 0u64..256, any::<bool>()), 1..200)) {
        let cfg = MachineConfig::tiny(4);
        let mut m = Machine::new(cfg.clone());
        for &(p, a, w) in &accs {
            // 1 MB apart per processor.
            m.access(p, (p as u64) << 20 | a, w);
        }
        let t = m.stats.total();
        prop_assert_eq!(t.invalidations_received, 0);
        prop_assert_eq!(t.remote_dirty, 0);
        // Note: upgrades may still occur (read-then-write by the sole
        // sharer), but they must be free of invalidation traffic, which
        // the two assertions above capture.
    }
}
