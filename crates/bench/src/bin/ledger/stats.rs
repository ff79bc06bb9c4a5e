//! The ledger's own arithmetic: order statistics over a handful of samples
//! and the `/proc` readers behind `eval_cpu_s`, `peak_rss_mb` and
//! `transport.threads_peak`.

use std::time::Instant;

/// Median / min / max of a small sample. The ledger never has ten samples
/// beyond any percentile at its rep counts, so no percentile is reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

/// Summarises `values`; `None` on an empty sample. The median of an even
/// count is the mean of the two middle values.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    };
    Some(Summary {
        median,
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        samples: sorted.len(),
    })
}

/// Median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/<pid>/stat`.
/// It is 100 on every Linux architecture this repo builds on; the ledger has
/// no libc to ask `sysconf`.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in clock
/// ticks. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state).
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The numeric value of a `Key:   123 kB`-style line of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
}

/// Process user+sys CPU seconds so far, all threads (live and joined).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let ticks = parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    ticks as f64 / CLOCK_TICKS_PER_S
}

fn status_field(key: &str) -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_status_field(&status, key).unwrap_or_else(|| panic!("/proc/self/status has {key}"))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Live thread count of this process.
pub fn thread_count() -> u64 {
    status_field("Threads")
}

/// Times `f` per call, in nanoseconds: the median over `BATCHES` batches,
/// each sized so it runs for about `BATCH_MS` (after one calibration batch
/// that also warms caches).
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 7;
    // The ledger's own tests need the kernels to run, not a steady number.
    const BATCH_NS: u128 = if cfg!(test) { 100_000 } else { 12_000_000 };
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t.elapsed().as_nanos();
        if ns >= BATCH_NS / 4 {
            iters = ((iters as u128 * BATCH_NS) / ns.max(1)).max(1) as u64;
            break;
        }
        iters *= 4;
    }
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_even_and_empty_samples() {
        assert_eq!(summarize(&[]), None);
        let odd = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(
            (odd.median, odd.min, odd.max, odd.samples),
            (2.0, 1.0, 3.0, 3)
        );
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(
            (even.median, even.min, even.max, even.samples),
            (2.5, 1.0, 4.0, 4)
        );
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        // utime = 14th field = 250, stime = 15th = 50.
        let plain = "4242 (ledger) S 1 4242 4242 0 -1 4194304 900 0 0 0 250 50 0 0 20 0 3 0 1";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(300));
        let hostile = "4242 (a b) c) R) S 1 4242 4242 0 -1 4194304 900 0 0 0 7 5 0 0 20 0 3 0 1";
        assert_eq!(parse_stat_cpu_ticks(hostile), Some(12));
        assert_eq!(parse_stat_cpu_ticks("4242 (short) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn status_parser_reads_hwm_and_threads() {
        let status = "Name:\tledger\nVmPeak:\t  999999 kB\nVmHWM:\t  396288 kB\nVmRSS:\t  1000 kB\nThreads:\t55\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(396_288));
        assert_eq!(parse_status_field(status, "Threads"), Some(55));
        assert_eq!(parse_status_field(status, "VmSwap"), None);
        // A key that is a prefix of another key must not match it.
        assert_eq!(parse_status_field("VmHWMX:\t5 kB\n", "VmHWM"), None);
    }

    #[test]
    fn proc_readers_work_on_this_host() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(thread_count() >= 1);
    }
}
