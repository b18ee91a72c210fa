//! Host-clock readings: wall time, process CPU time and peak memory, read
//! from `/proc/self`.

use std::time::Instant;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at
/// 100 on Linux regardless of the kernel's internal tick rate).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process (every thread).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after it are
    // plain numbers. utime and stime are fields 14 and 15.
    let after_comm = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i - 3]
            .parse::<f64>()
            .expect("numeric tick count in /proc/self/stat")
    };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// Peak resident set size of the process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Wall and CPU seconds of one timed call.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall: f64,
    pub cpu: f64,
}

/// Run `f` once and return its result with the host time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    (out, Cost { wall, cpu })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_and_monotone() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mib() > 0.0);
        let (_, cost) = timed(|| x);
        assert!(cost.wall >= 0.0 && cost.cpu >= 0.0);
    }
}
