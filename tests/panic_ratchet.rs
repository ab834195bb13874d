//! The panic-site ratchet: no path listed in `scripts/panic_baseline.txt`
//! (a crate's `src` directory or a single file, then its pinned count)
//! may hold more `panic!` and `.unwrap()` occurrences than its pin. Every
//! `.rs` file under a path counts, test modules included. Lowering a count
//! is fine: lower the pin with it. The 0 pins are the code that runs
//! unattended or inside every simulation and must never take the process
//! down: the profiler, the native backend, the serve service, the race
//! detector, the segment kernels, the shared schedule and the chaos
//! supervisor (its one injected panicking site lives in the sweep worker,
//! under the bench count).

use std::path::Path;

/// `panic!` and `.unwrap()` occurrences in every `.rs` file under `path`
/// (or in `path` itself, when it is a file).
fn sites(path: &Path) -> usize {
    if path.is_dir() {
        let entries = std::fs::read_dir(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return entries.map(|e| sites(&e.expect("directory entry").path())).sum();
    }
    if path.extension().is_some_and(|x| x == "rs") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return text.matches("panic!").count() + text.matches(".unwrap()").count();
    }
    0
}

#[test]
fn panic_sites_stay_at_or_below_their_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let baseline = std::fs::read_to_string(root.join("scripts/panic_baseline.txt")).expect("panic baseline");
    let mut over = Vec::new();
    for line in baseline.lines().filter(|l| !l.trim().is_empty()) {
        let (path, pinned) = line.split_once(' ').unwrap_or_else(|| panic!("malformed baseline line '{line}'"));
        let pinned: usize = pinned.trim().parse().unwrap_or_else(|_| panic!("malformed pin in '{line}'"));
        let full = root.join(path);
        assert!(full.exists(), "baseline path {path} does not exist");
        let count = sites(&full);
        if count > pinned {
            over.push(format!("{path} has {count} panic!/unwrap() sites (baseline {pinned})"));
        }
    }
    assert!(
        over.is_empty(),
        "use DctError/Result instead, or justify and raise the pin in scripts/panic_baseline.txt:\n{}",
        over.join("\n")
    );
}
