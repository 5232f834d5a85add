//! A minimal interrupt flag for graceful shutdown.
//!
//! The workspace has no registry dependencies, so instead of the `ctrlc`
//! or `signal-hook` crates this module declares the two libc functions it
//! needs (`signal`, `raise`) directly — std already links libc on every
//! supported platform. The handler does the only async-signal-safe thing
//! possible: it sets an atomic flag that long-running loops poll at safe
//! points (between runs).
//!
//! Semantics:
//!
//! * [`install`] registers the handler for `SIGINT` and `SIGTERM`.
//! * The **first** signal sets the flag ([`triggered`] becomes true);
//!   work in flight is expected to finish and flush before exiting with
//!   code 130.
//! * A **second** signal restores the default disposition and re-raises
//!   it, so an impatient second Ctrl-C still kills the process
//!   immediately.
//!
//! This is the only crate in the workspace that uses `unsafe`; the whole
//! surface is the two `extern` declarations below.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicBool, Ordering};

/// POSIX `SIGINT` (Ctrl-C).
pub const SIGINT: i32 = 2;
/// POSIX `SIGTERM` (polite kill).
pub const SIGTERM: i32 = 15;

/// POSIX `SIG_DFL`: the default disposition, represented as handler 0.
const SIG_DFL: usize = 0;

static TRIGGERED: AtomicBool = AtomicBool::new(false);

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn raise(signum: i32) -> i32;
}

extern "C" fn on_signal(signum: i32) {
    if TRIGGERED.swap(true, Ordering::SeqCst) {
        // Second signal: give up on graceful shutdown. Restoring the
        // default disposition and re-raising terminates the process with
        // the conventional "killed by signal" status.
        unsafe {
            signal(signum, SIG_DFL);
            raise(signum);
        }
    }
}

/// Installs the graceful-shutdown handler for `SIGINT` and `SIGTERM`.
/// Idempotent; call once near the top of `main`.
pub fn install() {
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

/// Whether a shutdown signal has arrived. Poll this at safe points; when
/// it turns true, finish the unit of work in flight, flush state, and
/// exit (conventionally with code 130).
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::SeqCst)
}

/// Clears the flag. Intended for tests.
pub fn reset() {
    TRIGGERED.store(false, Ordering::SeqCst);
}

/// Sends `signum` to the current process — the test hook for exercising
/// the handler without an external `kill`.
pub fn raise_self(signum: i32) {
    unsafe {
        raise(signum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test exercises the whole lifecycle: the flag flips on the
    /// first signal and `reset` clears it. (Separate tests would race on
    /// the global flag; the second-signal kill path terminates its
    /// process, so [`second_signal_kills_the_process`] runs it in a
    /// child.)
    #[test]
    fn flag_lifecycle() {
        install();
        assert!(!triggered());
        raise_self(SIGINT);
        assert!(triggered());
        reset();
        assert!(!triggered());
        // Re-arm for any test binary code that runs after this.
        install();
    }

    /// Set in the child process that [`second_signal_kills_the_process`]
    /// spawns from this test binary.
    const CHILD_ENV: &str = "IPSIM_SIGNAL_TEST_CHILD";

    /// A second signal restores the default disposition and re-raises:
    /// the process dies *by* that signal instead of draining. Runs in a
    /// child (this test binary, filtered to this test) because it ends
    /// the process it runs in.
    #[test]
    fn second_signal_kills_the_process() {
        use std::os::unix::process::ExitStatusExt;
        use std::process::{Command, Stdio};

        if std::env::var_os(CHILD_ENV).is_some() {
            install();
            raise_self(SIGINT);
            assert!(triggered(), "the first signal only sets the flag");
            raise_self(SIGINT);
            std::process::exit(0);
        }
        let status = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "tests::second_signal_kills_the_process"])
            .env(CHILD_ENV, "1")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .unwrap();
        assert_eq!(status.signal(), Some(SIGINT), "{status:?}");
    }
}
