//! Golden cycle counts for the whole paper suite, captured before the
//! memory profiler existed: with `SimOptions::profile` off (the default),
//! every benchmark must simulate to bit-identical cycles — the probe
//! plumbing through `Machine::access` must be invisible. With the
//! profiler on, cycles must *still* be identical (it is a pure observer)
//! and the profile must obey the conservation law
//! `cold + capacity + conflict + coherence == misses` while agreeing with
//! the machine's own aggregate statistics.

use dct_bench::sweep::fnv64;
use dct_core::{Compiler, Strategy};

/// `(benchmark, strategy, cycles)` at scale 0.25 on 8 processors,
/// captured at commit 3ba7419 (pre-profiler).
const GOLDEN: &[(&str, Strategy, u64)] = &[
    ("vpenta", Strategy::Base, 125222),
    ("vpenta", Strategy::CompDecomp, 47142),
    ("vpenta", Strategy::Full, 49410),
    ("lu", Strategy::Base, 1011609),
    ("lu", Strategy::CompDecomp, 326881),
    ("lu", Strategy::Full, 339608),
    ("stencil", Strategy::Base, 662094),
    ("stencil", Strategy::CompDecomp, 730068),
    ("stencil", Strategy::Full, 827860),
    ("adi", Strategy::Base, 571072),
    ("adi", Strategy::CompDecomp, 301544),
    ("adi", Strategy::Full, 301544),
    ("erlebacher", Strategy::Base, 188372),
    ("erlebacher", Strategy::CompDecomp, 333076),
    ("erlebacher", Strategy::Full, 286972),
    ("swm256", Strategy::Base, 796628),
    ("swm256", Strategy::CompDecomp, 874038),
    ("swm256", Strategy::Full, 1089526),
    ("tomcatv", Strategy::Base, 1131892),
    ("tomcatv", Strategy::CompDecomp, 716396),
    ("tomcatv", Strategy::Full, 752508),
];

#[test]
fn suite_cycles_bit_identical_to_pre_profiler_golden() {
    for b in dct_bench::programs::suite(0.25) {
        let params = b.program.default_params();
        for strategy in Strategy::ALL {
            let c = Compiler::new(strategy);
            let compiled = c.compile(&b.program).unwrap();
            let r = c.simulate(&compiled, 8, &params).unwrap();
            let golden = GOLDEN
                .iter()
                .find(|(n, s, _)| *n == b.name && *s == strategy)
                .unwrap_or_else(|| panic!("no golden entry for {} {strategy:?}", b.name));
            assert_eq!(
                r.cycles, golden.2,
                "{} {strategy:?}: cycles drifted from pre-profiler golden",
                b.name
            );
            assert!(r.mem_profile.is_none(), "profile off must not attach a MemProfile");
        }
    }
}

#[test]
fn profiled_runs_are_cycle_identical_and_conserve_misses() {
    for b in dct_bench::programs::suite(0.25) {
        let params = b.program.default_params();
        for strategy in Strategy::ALL {
            let c = Compiler::new(strategy);
            let compiled = c.compile(&b.program).unwrap();
            let plain = c.simulate(&compiled, 8, &params).unwrap();
            let mut opts = c.sim_options(8, params.clone());
            opts.profile = true;
            let profiled =
                dct_spmd::simulate(&compiled.program, &compiled.decomposition, &opts).unwrap();
            assert_eq!(
                plain.cycles, profiled.cycles,
                "{} {strategy:?}: profiler perturbed cycles",
                b.name
            );
            assert_eq!(plain.checksum, profiled.checksum, "{} {strategy:?}", b.name);
            let prof = profiled.mem_profile.expect("profile on must attach a MemProfile");
            let t = prof.total();
            assert_eq!(
                t.classified(),
                t.misses(),
                "{} {strategy:?}: classification must partition misses",
                b.name
            );
            // The profile's aggregate view must agree with the machine's
            // own statistics exactly.
            let s = profiled.stats.total();
            assert_eq!(t.accesses, s.accesses, "{} {strategy:?}", b.name);
            assert_eq!(t.l1_hits, s.l1_hits, "{} {strategy:?}", b.name);
            assert_eq!(t.l2_hits, s.l2_hits, "{} {strategy:?}", b.name);
            assert_eq!(t.local_mem, s.local_mem, "{} {strategy:?}", b.name);
            assert_eq!(t.remote_mem, s.remote_mem, "{} {strategy:?}", b.name);
            assert_eq!(t.remote_dirty, s.remote_dirty, "{} {strategy:?}", b.name);
            assert_eq!(t.invalidations, s.invalidations_received, "{} {strategy:?}", b.name);
            assert_eq!(t.mem_cycles, s.mem_cycles, "{} {strategy:?}", b.name);
        }
    }
}

/// `fnv64` of a race report's dynamic count, accesses checked, sync edges
/// and each distinct race as printed: the whole report.
fn race_digest(r: &dct_ir::RaceReport) -> u64 {
    let mut s = format!("{} {} {}", r.race_count, r.checked, r.sync_edges);
    for race in &r.races {
        s.push('\n');
        s.push_str(&race.to_string());
    }
    fnv64(s.as_bytes())
}

/// `(benchmark, strategy, fnv64 of MemProfile::encode(), race digest of
/// the schedule as compiled, race digest with every sync deleted)` at
/// scale 0.25 on 8 processors with both observers attached, captured at
/// commit d027405, before the profiler's per-line tables were paged and
/// the race cell packed into 16 bytes. Both execution paths share one
/// profiler and one detector, so a representation bug would move them
/// alike; these pins are the outside reference.
const OBSERVED: &[(&str, Strategy, u64, u64, u64)] = &[
    ("vpenta", Strategy::Base, 0x8478e212e90ed335, 0x3751581290cf6f1c, 0x37515d1290cf779b),
    ("vpenta", Strategy::CompDecomp, 0xc4a92a4378fa103b, 0x37515d1290cf779b, 0x37515d1290cf779b),
    ("vpenta", Strategy::Full, 0x81a21468d98bf187, 0x37515d1290cf779b, 0x37515d1290cf779b),
    ("lu", Strategy::Base, 0xd839e8d1cd95e5bd, 0x539b10c6c05a67f6, 0x3d8141f64b9d2162),
    ("lu", Strategy::CompDecomp, 0x80a469a85327870a, 0x539b10c6c05a67f6, 0x6fc1b03a5e5cf973),
    ("lu", Strategy::Full, 0x69d44f8667201acc, 0x539b10c6c05a67f6, 0x6fc1b03a5e5cf973),
    ("stencil", Strategy::Base, 0x17f2a1aa272719aa, 0xf18bd4386a30f9ac, 0xa95fabafff29b399),
    ("stencil", Strategy::CompDecomp, 0x2683cc3c99fd7ed4, 0xf18bd4386a30f9ac, 0x0ab6f98dbb936723),
    ("stencil", Strategy::Full, 0x9410d2feadbe5d18, 0xf18bd4386a30f9ac, 0x96cc67394d12872c),
    ("adi", Strategy::Base, 0xc4ba77b2076e3ef9, 0xf57a7b8fc9336f5a, 0x761fca94faefb6c7),
    ("adi", Strategy::CompDecomp, 0x9f690243ba9fcb68, 0xa6cf7cd6ae8e7a8a, 0xc9ac81a72dc51ed2),
    ("adi", Strategy::Full, 0x9f690243ba9fcb68, 0xa6cf7cd6ae8e7a8a, 0xc9ac81a72dc51ed2),
    ("erlebacher", Strategy::Base, 0x4c5757b9dbc1b3d7, 0x746f2e6e961f790c, 0x9174879643a3bc7b),
    ("erlebacher", Strategy::CompDecomp, 0xf1d987ca8bd41e62, 0x50aac55982b0a68b, 0x0459f32eaa619b8d),
    ("erlebacher", Strategy::Full, 0x26c48df0589fbf22, 0x50aac55982b0a68b, 0x25bc1af6cf2749aa),
    ("swm256", Strategy::Base, 0x5cb2feefc88fb927, 0x43b97ca2bbba78ac, 0x612c9b6ebed9fe0c),
    ("swm256", Strategy::CompDecomp, 0xd92a8a8e2c1e39da, 0x43b97ca2bbba78ac, 0xac185f7b0bd2a1ab),
    ("swm256", Strategy::Full, 0xd92a8a8e2c1e39da, 0x43b97ca2bbba78ac, 0x9c121820cdf1c8bd),
    ("tomcatv", Strategy::Base, 0xfcec57e656195d25, 0xf48022acf414345a, 0x409c00accefb3199),
    ("tomcatv", Strategy::CompDecomp, 0xf1dfc9dcad9e56aa, 0xf47c9facf4111fea, 0xd11a982740456abe),
    ("tomcatv", Strategy::Full, 0x1fa04868b16aabca, 0xf47c9facf4111fea, 0x746fa3013655d39e),
];

/// The schedule with every barrier, producer-wait and lock handoff
/// deleted: the detector must report the same races as before.
fn unsynced_race_digest(c: &Compiler, compiled: &dct_core::Compiled, procs: usize, params: &[i64]) -> u64 {
    let opts = c.sim_options(procs, params.to_vec());
    let mut sp = dct_spmd::lower(&compiled.program, &compiled.decomposition, &opts).unwrap();
    for nest in &mut sp.nests {
        nest.sync_after = dct_spmd::SyncKind::None;
        nest.pipeline = None;
    }
    let cost = dct_spmd::CostModel { addr_opt: opts.addr_opt, ..Default::default() };
    let mut ex = dct_spmd::Executor::new(&sp, dct_machine::MachineConfig::dash(procs), cost);
    ex.race_detect = true;
    race_digest(&ex.run().race.expect("race report"))
}

#[test]
fn observer_outputs_bit_identical_to_golden() {
    for b in dct_bench::programs::suite(0.25) {
        let params = b.program.default_params();
        for strategy in Strategy::ALL {
            let c = Compiler::new(strategy);
            let compiled = c.compile(&b.program).unwrap();
            let mut opts = c.sim_options(8, params.clone());
            opts.profile = true;
            opts.race_detect = true;
            let r = dct_spmd::simulate(&compiled.program, &compiled.decomposition, &opts).unwrap();
            let &(.., prof, race, unsynced) = OBSERVED
                .iter()
                .find(|(n, s, ..)| *n == b.name && *s == strategy)
                .unwrap_or_else(|| panic!("no observed golden entry for {} {strategy:?}", b.name));
            let what = format!("{} {strategy:?}", b.name);
            let encoded = r.mem_profile.expect("profile on must attach a MemProfile").encode();
            assert_eq!(fnv64(encoded.as_bytes()), prof, "{what}: MemProfile drifted");
            assert_eq!(race_digest(r.race.as_ref().expect("race report")), race, "{what}: race report drifted");
            assert_eq!(unsynced_race_digest(&c, &compiled, 8, &params), unsynced, "{what}: unsynced races drifted");
        }
    }
}

/// Erlebacher under the full strategy at paper scale on 32 processors, both
/// observers on: the peak of the observed benchmark workload. Its input
/// array is replicated, one copy per processor, so the address space is
/// 32 replicas wide; the observers' allocations must follow what each can
/// see instead (the lines each processor touches, 16 bytes per shared
/// element), and their outputs must not move.
#[test]
fn erlebacher_full_observers_sized_by_what_they_see() {
    let b = dct_bench::programs::suite(1.0).into_iter().find(|b| b.name == "erlebacher").unwrap();
    let c = Compiler::new(Strategy::Full);
    let compiled = c.compile(&b.program).unwrap();
    let mut opts = c.sim_options(32, b.program.default_params());
    opts.profile = true;
    opts.race_detect = true;
    let r = dct_spmd::simulate(&compiled.program, &compiled.decomposition, &opts).unwrap();
    assert_eq!(r.cycles, 15065396);
    let encoded = r.mem_profile.as_ref().expect("profile").encode();
    assert_eq!(fnv64(encoded.as_bytes()), 0x122ea17dfad3ecc0, "MemProfile drifted");
    assert_eq!(race_digest(r.race.as_ref().expect("race report")), 0x03a6763bdb31e4ed, "race report drifted");
    assert_eq!((r.fast.replayed_steps, r.fast.steps_simulated), (1, 2));
    // 614 MiB before the profiler's per-processor tables stopped spanning
    // every replica.
    assert!(r.fast.profiler_table_bytes <= 64 << 20, "profiler tables: {} bytes", r.fast.profiler_table_bytes);
    let sp = dct_spmd::lower(&compiled.program, &compiled.decomposition, &opts).unwrap();
    let shared: u64 = (sp.layouts.iter().zip(&sp.repl_stride))
        .filter(|(_, &rs)| rs == 0)
        .map(|(l, _)| l.layout.size() as u64)
        .sum();
    assert!(shared > 0 && sp.repl_stride.iter().any(|&rs| rs > 0));
    assert_eq!(r.fast.race_shadow_bytes, 16 * shared, "16 bytes per shadowed element");
}
