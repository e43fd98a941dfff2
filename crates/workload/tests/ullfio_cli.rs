//! `ullfio` rejects bad flag values with its usage line and exit code 2
//! instead of panicking inside the `JobSpec` builder, and rejects trace
//! records the device or driver cannot carry with an error instead of a
//! panic in the layers below.

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
        &["--bs", "0"][..],
        &["--bs", "3000"],
        &["--iodepth", "0"],
        &["--rw", "sideways"],
        // Depths the 1,024 driver tags cannot carry: one tag per 128 KiB
        // part of every in-flight request.
        &["--engine", "libaio", "--iodepth", "2000"],
        &[
            "--engine",
            "libaio",
            "--rw",
            "randwrite",
            "--bs",
            "1048576",
            "--iodepth",
            "256",
        ],
        &["--engine", "spdk", "--iodepth", "1025"],
        // Block sizes whose parts alone outnumber the tags, under the
        // default `pvsync2` engine's single in-flight request.
        &["--bs", "536870912"],
        &["--bs", "4294963200"],
    ] {
        let (code, stderr) = ullfio(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: ullfio"), "{args:?}: {stderr}");
    }
}

#[test]
fn depths_that_fill_the_driver_tags_exactly_still_run() {
    for args in [
        ["--bs", "1048576", "--iodepth", "128", "--ios", "256"],
        ["--bs", "4096", "--iodepth", "1024", "--ios", "2048"],
    ] {
        let (code, stderr) = ullfio(&[&["--engine", "libaio"][..], &args].concat());
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
    // One request of the default `pvsync2` engine split into exactly
    // 1,024 parts.
    let (code, stderr) = ullfio(&["--bs", "134217728", "--ios", "2"]);
    assert_eq!(code, Some(0), "{stderr}");
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

/// Writes `text` to a trace file named `name` under the test's scratch
/// directory and returns its path.
fn trace_file(name: &str, text: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("trace file is writable");
    path.to_string_lossy().into_owned()
}

#[test]
fn bad_trace_records_exit_nonzero_without_panicking() {
    for (name, text, why) in [
        (
            "unaligned_offset.csv",
            "0,R,4095,4096\n",
            "multiples of 512",
        ),
        ("unaligned_len.csv", "0,R,0,3000\n", "multiples of 512"),
        ("past_capacity.csv", "0,R,2147483648,4096\n", "capacity"),
        ("too_long.csv", "0,W,0,1073741824\n", "driver tags"),
        ("negative_time.csv", "-5,R,0,4096\n", "bad time"),
        ("nan_time.csv", "NaN,R,0,4096\n", "bad time"),
        ("inf_time.csv", "inf,R,0,4096\n", "bad time"),
    ] {
        let path = trace_file(name, text);
        let (code, stderr) = ullfio(&["--device", "ull", "--replay", &path]);
        assert!(code.is_some_and(|c| c != 0), "{name}: exit {code:?}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(stderr.contains("trace line 1"), "{name}: {stderr}");
        assert!(stderr.contains(why), "{name}: {stderr}");
    }
}

#[test]
fn a_trace_wanting_more_tags_than_the_driver_has_completes() {
    let text: String = (0..600u64)
        .map(|i| format!("0,W,{},524288\n", i * 524_288))
        .collect();
    let path = trace_file("tag_bound.csv", &text);
    let out = Command::new(env!("CARGO_BIN_EXE_ullfio"))
        .args(["--device", "ull", "--replay", &path])
        .output()
        .expect("ullfio runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains(": 600 records in "), "{stdout}");
}
