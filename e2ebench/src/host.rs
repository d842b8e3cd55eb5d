//! Host fingerprint and the `/proc` counters a run is charged with.

use std::fs;
use std::path::Path;

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// Process user+sys CPU seconds, all threads (`/proc/self/stat`).
pub fn process_cpu_s() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after it.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Clock ticks per second in `/proc` times (100 on x86-64 and arm64).
const USER_HZ: f64 = 100.0;

/// Bytes the process passed to write-like syscalls (`/proc/self/io`).
pub fn wchar() -> u64 {
    read("/proc/self/io")
        .lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Aggregate CPU jiffies `(steal, busy)` from `/proc/stat`, where busy
/// is every state but idle and iowait. Steal accrues only while a vCPU
/// has work, so it is measured against busy time, not against all time.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = read("/proc/stat");
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|s| s.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already inside user.
    let idle = v.get(3).copied().unwrap_or(0) + v.get(4).copied().unwrap_or(0);
    let total: u64 = v.iter().take(8).sum();
    (v.get(7).copied().unwrap_or(0), total - idle)
}

/// Share of busy CPU time stolen by the hypervisor between two samples.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let busy = after.1.saturating_sub(before.1);
    if busy == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / busy as f64
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the checkout came from, if it is a git work tree.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(git.join(r)).ok().or_else(|| {
            fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l.split(' ').next().unwrap_or("").to_owned())
        }),
        None if !head.is_empty() => Some(head.to_owned()),
        None => None,
    };
    rev.map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Filesystem type of the mount holding `path` (`/proc/self/mountinfo`).
fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mut best: Option<(usize, String)> = None;
    for line in read("/proc/self/mountinfo").lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount) = left.split(' ').nth(4) else {
            continue;
        };
        let fstype = right.split(' ').next().unwrap_or("?");
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_owned()));
        }
    }
    best.map(|(_, t)| t).unwrap_or_else(|| "unknown".into())
}

/// The run's host block, as a JSON object.
pub fn host_block(root: &Path, data_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"kernel\": {:?}, \"cpu\": {:?}, \"git_rev\": {:?}, \"storage_fs\": {:?}}}",
        read("/proc/sys/kernel/osrelease").trim(),
        cpu_model(),
        git_rev(root),
        fs_type(data_dir),
    )
}
