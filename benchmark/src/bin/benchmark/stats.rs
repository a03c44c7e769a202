//! Order statistics, the `/proc/self` readers and the FNV checksum.

/// Median, quartiles and range of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let [q1, median, q3] = quartiles(&sorted);
        Some(Summary {
            median,
            q1,
            q3,
            min,
            max,
            n: sorted.len(),
        })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `samples` (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// The three quartile cut points of ascending `sorted`, computed as
/// Python's `statistics.quantiles(values, n=4)` does (exclusive method),
/// so the spread printed here is the spread the driver computes.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    match n {
        0 => [0.0; 3],
        1 => [sorted[0]; 3],
        _ => [1usize, 2, 3].map(|i| {
            // j = i·(n+1) div 4 clamped to [1, n−1]; delta = i·(n+1) − 4j.
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        }),
    }
}

/// The `p`-quantile (0 < p < 1) of ascending `sorted` by nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// utime + stime of this process in clock ticks, from the text of
/// `/proc/self/stat`. The command name may contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3; utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Vm*` line of `/proc/self/status` in KiB.
pub fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Linux reports process times in units of 1/100 s on every supported
/// architecture (`USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_SECOND)
}

/// `field` (`VmRSS`, `VmHWM`) of this process in MiB.
pub fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kib(&s, field))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&[3.0, 9.0]), [1.5, 6.0, 10.5]);
    }

    #[test]
    fn summary_orders_its_input() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).expect("non-empty");
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 3.0, 5.0, 3));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "1234 (bench) mark) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 200 300";
        assert_eq!(parse_stat_ticks(stat), Some(300));
        assert_eq!(parse_stat_ticks("garbage"), None);
    }

    #[test]
    fn status_parser_reads_kib_fields() {
        let status = "Name:\tbenchmark\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(204_800));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(102_400));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
    }

    #[test]
    fn proc_readers_work_on_this_machine() {
        assert!(status_mib("VmRSS") > 0.0);
        assert!(status_mib("VmHWM") >= status_mib("VmRSS") * 0.5);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn fnv_known_vector() {
        let mut h = Fnv::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
