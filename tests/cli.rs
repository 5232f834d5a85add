//! The `ipsim` binary at its command line: `info` lists the scheme
//! registry, `run --prefetcher` takes scheme text, and a bad scheme exits
//! 2 with the registry's own error message.

use std::process::{Command, Output};

use ipsim::zoo::{registry, Scheme};

fn ipsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ipsim"))
        .args(args)
        .output()
        .expect("ipsim binary runs")
}

#[test]
fn info_lists_every_registered_scheme() {
    let out = ipsim(&["info"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for def in registry() {
        assert!(
            stdout
                .lines()
                .any(|line| line.split_whitespace().next() == Some(def.name)),
            "`ipsim info` does not list {:?}:\n{stdout}",
            def.name
        );
    }
}

#[test]
fn run_takes_a_registry_spec() {
    let out = ipsim(&[
        "run",
        "--cores",
        "1",
        "--warm",
        "20000",
        "--measure",
        "40000",
        "--prefetcher",
        "disc:ahead=2",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("discont (2NL, 8192)"), "{stdout}");
}

#[test]
fn bad_schemes_exit_2_with_the_registry_error() {
    for text in ["warp_drive", "disc:ahead=0", "mana"] {
        let want = Scheme::parse(text).unwrap_err().to_string();
        let out = ipsim(&["run", "--prefetcher", text]);
        assert_eq!(out.status.code(), Some(2), "{text}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&want), "{text}: want {want:?} in\n{stderr}");
    }
}
