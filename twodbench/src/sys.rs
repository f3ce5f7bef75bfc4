//! Readers for the process and host figures the benchmark reports:
//! process CPU time (`clock_gettime`), and from `/proc` peak resident
//! memory, the CPU affinity set and host steal time.

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("twodbench reads Linux /proc and a 64-bit `timespec`");

/// `clock_gettime(2)` and the process CPU-time clock: the standard
/// library exposes no CPU clock, and `/proc` counters are tick-granular
/// (4–10 ms) for a thread that does not block.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used by the whole process so far (all threads, including
/// ones that have exited), at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark builds for), and the clock
    // id is a constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

fn status_field(name: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name).map(|v| v.trim().to_string()))
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let kb: f64 = status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is readable");
    kb / 1024.0
}

/// The CPUs this process may run on, as the kernel lists them
/// (`"1"`, `"0-1"`, ...).
pub fn cpu_set() -> String {
    status_field("Cpus_allowed_list:").unwrap_or_default()
}

/// Bitmask of the CPUs in a kernel CPU list such as `"0-3,6"` (CPUs
/// 0–63).
pub fn cpu_mask(list: &str) -> u64 {
    list.split(',')
        .filter(|p| !p.is_empty())
        .flat_map(|part| {
            let (a, b) = part.split_once('-').unwrap_or((part, part));
            a.parse::<u32>().unwrap_or(0)..=b.parse::<u32>().unwrap_or(0)
        })
        .filter(|&c| c < 64)
        .fold(0, |m, c| m | 1 << c)
}

/// Cumulative `(steal, total)` ticks of the CPU the process is pinned to
/// (or of all CPUs when it is not pinned to exactly one).
pub fn steal_ticks() -> (u64, u64) {
    let set = cpu_set();
    let line_name = if cpu_mask(&set).count_ones() == 1 {
        format!("cpu{set}")
    } else {
        "cpu".to_string()
    };
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(line_name.as_str()))
    else {
        return (0, 0);
    };
    let vals: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so it stays out of the total.
    let total: u64 = vals.iter().take(8).sum();
    (vals.get(7).copied().unwrap_or(0), total)
}

/// Share of the pinned CPU's time stolen by the hypervisor between two
/// [`steal_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_reader_sees_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 300 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let used = process_cpu_s() - before;
        assert!(
            (0.1..5.0).contains(&used),
            "300 ms of spinning read as {used} s"
        );
    }

    #[test]
    fn rss_reader_is_sane_and_monotone() {
        let before = peak_rss_mib();
        assert!(before > 0.5 && before < 4096.0, "peak RSS {before} MiB");
        let big = vec![1u8; 32 << 20];
        std::hint::black_box(&big);
        let after = peak_rss_mib();
        assert!(
            after >= before + 16.0,
            "32 MiB touch moved VmHWM {before} -> {after}"
        );
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(cpu_mask("1"), 0b10);
        assert_eq!(cpu_mask("0-3,6"), 0b100_1111);
        assert!(cpu_mask(&cpu_set()).count_ones() >= 1);
        let (steal, total) = steal_ticks();
        assert!(steal <= total);
    }
}
