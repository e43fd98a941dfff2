//! `ullfio` rejects bad flag values with its usage line and exit code 2
//! instead of panicking inside the `JobSpec` builder.

use std::process::Command;

fn ullfio(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ullfio"))
        .args(args)
        .output()
        .expect("ullfio runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn bad_flag_values_exit_2_with_the_usage_line() {
    for args in [
        ["--bs", "0"],
        ["--bs", "3000"],
        ["--iodepth", "0"],
        ["--rw", "sideways"],
    ] {
        let (code, stderr) = ullfio(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: ullfio"), "{args:?}: {stderr}");
    }
}

#[test]
fn good_flag_values_still_run() {
    let (code, stderr) = ullfio(&[
        "--bs",
        "8192",
        "--iodepth",
        "2",
        "--rw",
        "randrw",
        "--ios",
        "50",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
}
