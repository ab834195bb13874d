//! Machine micro-streams: `Machine::access` and `Machine::access_seg`
//! called directly on synthetic streams, one stream per level at which
//! an access can resolve. Each stream reports host ns per simulated
//! access, and the share of its accesses that resolved at the level it
//! is built for (a stream that misses its level measures something
//! else, so the caller counts that as a failure).

use dct_machine::{Machine, MachineConfig, ProcStats, SegAccess};
use std::time::Instant;

const LINE: u64 = 16;
const PAGE: u64 = 4096;
const L1: u64 = 64 * 1024;
const L2: u64 = 256 * 1024;
/// Timed accesses per stream.
const N: u64 = 2_000_000;

pub struct Stream {
    pub name: &'static str,
    pub ns_per_access: f64,
    pub on_level: f64,
}

/// Time `body` on a DASH machine of 8 processors (two clusters) after
/// `warm` has put the caches and directory into the stream's steady
/// state; `level` picks the counter the stream is built to exercise.
fn stream(
    name: &'static str,
    warm: impl Fn(&mut Machine),
    body: impl Fn(&mut Machine) -> u64,
    level: impl Fn(&ProcStats) -> u64,
) -> Stream {
    let mut m = Machine::new(MachineConfig::dash(8));
    warm(&mut m);
    let before = m.stats.total();
    let t = Instant::now();
    let cost = body(&mut m);
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(cost);
    let after = m.stats.total();
    let n = after.accesses - before.accesses;
    Stream {
        name,
        ns_per_access: 1e9 * secs / n as f64,
        on_level: (level(&after) - level(&before)) as f64 / n as f64,
    }
}

/// Read `n` lines cyclically over `[base, base + span)` from `proc`.
fn sweep(m: &mut Machine, proc: usize, base: u64, span: u64, n: u64, write: bool) -> u64 {
    let (mut off, mut cost) = (0, 0);
    for _ in 0..n {
        cost += m.access(proc, base + off, write);
        off += LINE;
        if off == span {
            off = 0;
        }
    }
    cost
}

fn seg(m: &mut Machine, slots: &[(u64, bool)], rounds: u64, repeats: u64) -> u64 {
    let mut cost = 0;
    for _ in 0..repeats {
        let mut accs: Vec<SegAccess> =
            slots.iter().map(|&(byte, write)| SegAccess { byte, dbyte: 8, write }).collect();
        cost += m.access_seg(0, &mut accs, rounds, None);
    }
    cost
}

/// All eight streams. The seed moves the streams' base address by whole
/// L2 sizes, which changes nothing a direct-mapped cache can see.
pub fn streams(seed: u64) -> Vec<Stream> {
    let base = (seed % 16) * 4 * L2;
    let words = LINE / 4;
    vec![
        // One line over and over: the last-line memo answers.
        stream(
            "l1_fast",
            |m| {
                m.access(0, base, false);
            },
            |m| (0..N).map(|i| m.access(0, base + (i % words) * 4, false)).sum(),
            |s| s.l1_fast_hits,
        ),
        // A working set of half the L1, line by line: a full L1 probe.
        stream(
            "l1",
            |m| {
                sweep(m, 0, base, L1 / 2, L1 / 2 / LINE, false);
            },
            |m| sweep(m, 0, base, L1 / 2, N, false),
            |s| s.l1_hits - s.l1_fast_hits,
        ),
        // Twice the L1, half the L2: every access misses L1, hits L2.
        stream(
            "l2",
            |m| {
                sweep(m, 0, base, L2 / 2, L2 / 2 / LINE, false);
            },
            |m| sweep(m, 0, base, L2 / 2, N, false),
            |s| s.l2_hits,
        ),
        // Four times the L2, pages first touched by the reader itself.
        stream(
            "local",
            |m| {
                sweep(m, 0, base, 4 * L2, 4 * L2 / LINE, false);
            },
            |m| sweep(m, 0, base, 4 * L2, N, false),
            |s| s.local_mem,
        ),
        // The same, with every page homed in the other cluster.
        stream(
            "remote",
            |m| {
                for page in 0..4 * L2 / PAGE {
                    m.place_page(base + page * PAGE, 1);
                }
                sweep(m, 0, base, 4 * L2, 4 * L2 / LINE, false);
            },
            |m| sweep(m, 0, base, 4 * L2, N, false),
            |s| s.remote_mem,
        ),
        // Two processors of different clusters write the same lines in
        // turn: each finds the line dirty in the other's cache.
        stream(
            "remote_dirty",
            |m| {
                sweep(m, 0, base, L1 / 2, L1 / 2 / LINE, true);
            },
            |m| {
                let (mut off, mut cost) = (0, 0);
                for i in 0..N {
                    // Processor 4 sweeps the set, then processor 0, ...
                    let proc = if (i / (L1 / 2 / LINE)).is_multiple_of(2) { 4 } else { 0 };
                    cost += m.access(proc, base + off, true);
                    off = (off + LINE) % (L1 / 2);
                }
                cost
            },
            |s| s.remote_dirty,
        ),
        // Three reads and a write at unit stride, all L1-resident: the
        // line-batched path of `access_seg`.
        stream(
            "seg_batched",
            |m| {
                sweep(m, 0, base, L1 / 2, L1 / 2 / LINE, true);
            },
            |m| {
                let q = L1 / 8;
                let slots =
                    [(base, false), (base + q, false), (base + 2 * q, false), (base + 3 * q, true)];
                seg(m, &slots, q / 8, N / (4 * q / 8))
            },
            |s| s.l1_hits,
        ),
        // The same vector with its four slots one L1 size apart: they
        // fight over one direct-mapped set, the batch never goes steady
        // and `access_seg` bails out to the per-access loop.
        stream(
            "seg_thrash",
            |_| {},
            |m| {
                let slots = [
                    (base, false),
                    (base + L1, false),
                    (base + 2 * L1, false),
                    (base + 3 * L1, true),
                ];
                seg(m, &slots, 1024, N / (4 * 1024))
            },
            |s| s.accesses - s.l1_hits,
        ),
    ]
}
