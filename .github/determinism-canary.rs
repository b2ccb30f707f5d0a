//! Determinism canary: one violation of each rule the workspace's clippy
//! configuration enforces. CI copies this file into a simulation crate's
//! library and requires `cargo clippy` to fail on it, naming every lint.
//! It is never part of a build.

use std::collections::HashMap;
use std::time::{Instant, SystemTime};

/// D001: a std hash container (`clippy::disallowed_types`).
pub fn hash_order() -> HashMap<u32, u32> {
    HashMap::new()
}

/// D002: the host clock (`clippy::disallowed_types` on `SystemTime`,
/// `clippy::disallowed_methods` on `Instant::now`).
pub fn host_clock() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::UNIX_EPOCH)
}

/// P001: panics in library code (`clippy::unwrap_used`,
/// `clippy::expect_used`, `clippy::panic`).
pub fn library_panics(a: Option<u32>, b: Option<u32>) -> u32 {
    if a == Some(0) {
        panic!("zero");
    }
    a.unwrap() + b.expect("b is set")
}

/// S001: a suppression that is an `allow`, without a reason
/// (`clippy::allow_attributes`, `clippy::allow_attributes_without_reason`).
#[allow(clippy::needless_return)]
pub fn unreasoned() -> u32 {
    return 1;
}

/// S001: a stale expectation (`unfulfilled_lint_expectations`).
#[expect(clippy::unwrap_used, reason = "nothing here unwraps")]
pub fn stale() -> u32 {
    2
}
