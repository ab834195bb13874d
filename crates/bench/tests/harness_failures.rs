//! Failure tolerance of the Table 1 sweep harness: a panicking worker
//! cell becomes a failed cell in its row — the sweep still completes and
//! every other cell keeps its number.

use dct_bench::harness::{render_table1, table1_parallel_with_hook, ThreadBudget};

#[test]
fn injected_panicking_cell_does_not_poison_the_sweep() {
    // Crash the "full" cell (k = 3) of the stencil row only.
    let hook = |bench: &str, k: usize| {
        if bench == "stencil" && k == 3 {
            panic!("injected failure for the fault-tolerance test");
        }
    };
    let rows = table1_parallel_with_hook(4, 0.05, ThreadBudget::clamp(2), Some(&hook));
    assert!(!rows.is_empty());

    let stencil = rows.iter().find(|r| r.program == "stencil").unwrap();
    assert!(stencil.base_speedup.is_some(), "untouched cell survives");
    assert!(stencil.full_speedup.is_none(), "crashed cell is a failed cell");
    assert!(
        stencil.notes.iter().any(|n| n.contains("injected failure")),
        "the panic message is preserved in the row notes: {:?}",
        stencil.notes
    );

    // Every other row is fully populated.
    for r in rows.iter().filter(|r| r.program != "stencil") {
        assert!(r.base_speedup.is_some(), "{}: {:?}", r.program, r.notes);
        assert!(r.full_speedup.is_some(), "{}: {:?}", r.program, r.notes);
    }

    // The renderer prints the failed cell and its note.
    let table = render_table1(&rows, 4);
    assert!(table.contains("fail"), "{table}");
    assert!(table.contains("injected failure"), "{table}");
}
