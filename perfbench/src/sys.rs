//! Host facts: process memory from `/proc/self/status`, CPU counts, the
//! build's identity, and the checkout's commit.

use std::path::Path;

/// One `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MB.
///
/// # Errors
///
/// Fails where `/proc` is missing or the field is absent: the memory
/// metrics cannot be measured there.
pub fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field).and_then(|rest| rest.strip_prefix(':')))
        .ok_or_else(|| format!("/proc/self/status has no {field}"))?;
    let kb: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("/proc/self/status {field}: {e}"))?;
    Ok(kb * 1024.0 / 1e6)
}

/// Worker threads this process may run at once (what `nproc` prints).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Online CPUs of the host machine, whatever this process is allowed.
pub fn host_parallelism() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(nproc)
}

/// FNV-1a over bytes.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// A fingerprint of this executable: two builds of different source
/// differ, so caches keyed by it never outlive the build that made them.
///
/// # Errors
///
/// Fails when the executable cannot be read back.
pub fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    Ok(format!("{:016x}", fnv1a(&bytes, FNV_BASIS)))
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `None` outside a git checkout.
pub fn commit() -> Option<String> {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_owned())
    })
}
