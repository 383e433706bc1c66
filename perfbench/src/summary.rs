//! Summary math and `/proc` readers, kept apart from the runner so they
//! can be unit-tested.

/// Samples a percentile needs beyond its rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The highest nearest-rank percentile, at most `cap`, that has
/// [`MIN_BEYOND`] samples beyond it, as `(value, percentile)`; `None` when
/// that percentile would fall below the median.
pub fn tail(samples: &[f64], cap: f64) -> Option<(f64, f64)> {
    let n = samples.len();
    let rank = ((cap * n as f64).ceil() as usize).min(n.checked_sub(MIN_BEYOND)?);
    if rank == 0 || rank < n.div_ceil(2) {
        return None;
    }
    Some((sorted(samples)[rank - 1], rank as f64 / n as f64))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median (mean of the two middle samples for an even count); `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Geometric mean over cells of each cell's median; `None` when there is
/// no cell, a cell has no sample, or a median is not positive.
pub fn geomean_of_medians(cells: &[Vec<f64>]) -> Option<f64> {
    if cells.is_empty() {
        return None;
    }
    let mut log_sum = 0.0;
    for cell in cells {
        let m = median(cell)?;
        if m <= 0.0 {
            return None;
        }
        log_sum += m.ln();
    }
    Some((log_sum / cells.len() as f64).exp())
}

/// Share of probed rows an AIP filter dropped; 0 when nothing was probed.
pub fn drop_ratio(dropped: u64, probed: u64) -> f64 {
    if probed == 0 {
        0.0
    } else {
        dropped as f64 / probed as f64
    }
}

/// User plus system CPU ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) sits in parentheses and may itself hold
/// spaces and parentheses, so fields are counted from the *last* `)`:
/// after it come state (field 3) ... utime (14) and stime (15).
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value in kB of a `Name:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, name: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(name)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        // Rank 90 of 99 leaves 9 beyond it.
        assert_eq!(percentile(&samples, 0.9), None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        // p50 of 19 samples: rank 10 leaves 9 beyond; of 20, 10 beyond.
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), None);
        let samples: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_is_capped_and_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&samples, 0.9), Some((135.0, 0.9)));
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples, 0.9), Some((90.0, 0.9)));
        // 24 samples: rank 14 is the highest with ten beyond it.
        let samples: Vec<f64> = (1..=24).rev().map(f64::from).collect();
        assert_eq!(tail(&samples, 0.9), Some((14.0, 14.0 / 24.0)));
        // Below 20 samples the tail would sit under the median.
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&samples, 0.9), None);
        assert_eq!(tail(&[1.0; 5], 0.9), None);
    }

    #[test]
    fn geomean_takes_each_cells_median() {
        let cells = vec![vec![1.0, 100.0, 2.0], vec![8.0], vec![4.0, 4.0]];
        // Medians 2, 8, 4: geometric mean 4.
        let g = geomean_of_medians(&cells).expect("all cells sampled");
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean_of_medians(&[vec![1.0], vec![]]), None);
        assert_eq!(geomean_of_medians(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn drop_ratio_is_zero_when_nothing_was_probed() {
        assert_eq!(drop_ratio(0, 0), 0.0);
        assert_eq!(drop_ratio(1, 4), 0.25);
    }

    #[test]
    fn stat_parsing_survives_spaces_and_parens_in_the_command_name() {
        let tail = "S 1 2 3 4 5 6 7 8 9 10 250 31 0 0 20 0 4 0 100";
        let plain = format!("4242 (perfbench) {tail}");
        assert_eq!(parse_stat_cpu_ticks(&plain), Some(281));
        let odd = format!("4242 (a) b (c d)) {tail}");
        assert_eq!(parse_stat_cpu_ticks(&odd), Some(281));
        assert_eq!(parse_stat_cpu_ticks("4242 (x"), None);
        assert_eq!(parse_stat_cpu_ticks("4242 (x) S 1 2"), None);
    }

    #[test]
    fn status_lines_parse_by_name() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  512 kB\nVmRSS:\t 400 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(512));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(400));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }
}
