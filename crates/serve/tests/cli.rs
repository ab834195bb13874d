//! The `repro` command line: `--procs` reaches the plain `table1` path,
//! and sizes out of range, unknown options and unknown targets are refused
//! before anything runs.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

#[test]
fn table1_honours_procs_on_the_plain_path() {
    let out = repro(&["table1", "--scale", "0.05", "--procs", "4,8"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("Table 1: summary at 8 processors"), "{stdout}");
}

#[test]
fn out_of_range_sizes_are_refused() {
    for args in [
        ["table1", "--procs", "65"],
        ["table1", "--procs", "0"],
        ["table1", "--scale", "nan"],
        ["table1", "--scale", "inf"],
        ["table1", "--scale", "0"],
        ["table1", "--scale", "-1"],
    ] {
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn unknown_options_and_targets_are_refused() {
    let refused: [&[&str]; 4] =
        [&["fig8", "--no-kernels"], &["table1", "--frobnicate"], &["table1", "--proc", "8"], &["fgi8"]];
    for args in refused {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: unknown "), "{args:?}: {stderr}");
    }
}
