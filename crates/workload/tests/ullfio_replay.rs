//! `ullfio --replay` must turn a bad trace record into an error message
//! and exit code 1, never a panic inside a library crate.

use std::path::PathBuf;
use std::process::Command;

fn run_replay(name: &str, trace: &str) -> (Option<i32>, String) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("ullfio_{name}.trace"));
    std::fs::write(&path, trace).expect("write trace");
    let out = Command::new(env!("CARGO_BIN_EXE_ullfio"))
        .arg("--replay")
        .arg(&path)
        .output()
        .expect("run ullfio");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_trace_records_exit_1_without_panicking() {
    let cases = [
        ("past_end", "0,R,900000000000000,4096\n", "record 1"),
        (
            "straddles_end",
            "0,R,0,4096\n5,W,2147479552,8192\n",
            "record 2",
        ),
        ("unaligned_offset", "0,R,100,4096\n", "line 1"),
        ("unaligned_len", "0,R,0,100\n", "line 1"),
        ("negative_time", "0,R,0,4096\n-5,R,0,4096\n", "line 2"),
        ("nan_time", "NaN,R,0,4096\n", "line 1"),
        ("overflow", "0,R,18446744073709551104,4096\n", "line 1"),
    ];
    for (name, trace, locus) in cases {
        let (code, stderr) = run_replay(name, trace);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(stderr.contains(locus), "{name}: {stderr}");
    }
}

#[test]
fn good_trace_replays() {
    let (code, stderr) = run_replay("good", "0,R,0,4096\n2.5,W,8192,4096\n");
    assert_eq!(code, Some(0), "{stderr}");
}
