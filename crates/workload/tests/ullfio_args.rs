//! `ullfio` must reject a bad argument value with the usage text and exit
//! code 2, never a panic inside a library crate.

use std::process::Command;

#[test]
fn bad_argument_values_exit_2_without_panicking() {
    let cases: [&[&str]; 7] = [
        &["--bs", "0"],
        &["--bs", "4097"],
        // A 4 KiB multiple, but larger than the 2 GiB simulated device.
        &["--bs", "4294963200"],
        &["--iodepth", "0"],
        &["--rw", "bogus"],
        // More 128 KiB commands in flight than the host's 1,024 tags.
        &["--bs", "134221824"],
        &["--engine", "libaio", "--iodepth", "1025", "--ios", "2000"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ullfio"))
            .args(["--ios", "10"])
            .args(args)
            .output()
            .expect("run ullfio");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: ullfio"), "{args:?}: {stderr}");
    }
}
