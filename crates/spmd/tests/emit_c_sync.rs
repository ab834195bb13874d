//! Golden-output test for the C backend's synchronization emission: the
//! generated source must contain exactly one `dct_barrier()` per init nest
//! and per `SyncKind::Barrier`, one `dct_lock_handoff()` per
//! `SyncKind::ProducerWait`, an elision comment per `SyncKind::None`, and
//! a doacross banner per pipelined nest — nothing more, nothing less. This
//! pins the backend to the schedule the race detector certifies.
//! (The native backend and the simulator read the same
//! `dct_spmd::schedule` steps `emit_c` renders, so there is no second
//! lowering to pin.)

use dct_bench::programs::suite;
use dct_core::{Compiler, Strategy};
use dct_spmd::{codegen, emit_c, CostModel, SpmdOptions, SyncKind};

#[test]
fn emitted_sync_matches_schedule() {
    let mut kinds_seen = [false; 3];
    for b in suite(0.1) {
        let c = Compiler::new(Strategy::Full);
        let compiled = c.compile(&b.program).expect("compile");
        let sp = codegen(
            &compiled.program,
            &compiled.decomposition,
            &SpmdOptions {
                procs: 8,
                params: b.program.default_params(),
                transform_data: true,
                barrier_elision: true,
                cost: CostModel::default(),
            },
        )
        .expect("codegen");
        let src = emit_c(&compiled.program, &sp);

        let barrier_nests =
            sp.nests.iter().filter(|n| n.sync_after == SyncKind::Barrier).count();
        let handoff_nests =
            sp.nests.iter().filter(|n| n.sync_after == SyncKind::ProducerWait).count();
        let elided_nests = sp.nests.iter().filter(|n| n.sync_after == SyncKind::None).count();
        let pipelined = sp.nests.iter().filter(|n| n.pipeline.is_some()).count();

        assert_eq!(
            src.matches("dct_barrier();").count(),
            sp.init.len() + barrier_nests,
            "{}: barrier emission does not match the schedule",
            b.name
        );
        assert_eq!(
            src.matches("dct_lock_handoff();").count(),
            handoff_nests,
            "{}: lock-handoff emission does not match the schedule",
            b.name
        );
        assert_eq!(
            src.matches("barrier eliminated").count(),
            elided_nests,
            "{}: elision comments do not match the schedule",
            b.name
        );
        assert_eq!(
            src.matches("doacross pipeline along loop").count(),
            pipelined,
            "{}: doacross banners do not match the schedule",
            b.name
        );

        kinds_seen[0] |= barrier_nests > 0;
        kinds_seen[1] |= handoff_nests > 0;
        kinds_seen[2] |= elided_nests > 0;
    }
    assert!(
        kinds_seen.iter().all(|&k| k),
        "suite no longer covers every SyncKind (barrier/handoff/none = {kinds_seen:?})"
    );
}
