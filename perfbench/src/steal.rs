//! Time the hypervisor took from this VM's vCPUs, read from the `steal`
//! column of `/proc/stat`. On a shared host it comes in phases that last
//! from seconds to minutes, and while it lasts everything runs slower:
//! at a steal share of 0.3, HPKE seal took twice as long and the served
//! query rate halved. Samples taken under steal are set aside so that
//! the end-to-end figures follow the program, not the neighbours.

/// Highest steal share a sample may have been taken under to count as
/// quiet.
pub const QUIET_SHARE: f64 = 0.03;

/// Cumulative CPU time of all vCPUs, in clock ticks.
#[derive(Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// The current reading, or zeros where `/proc/stat` is absent (no
    /// steal is then ever seen).
    pub fn now() -> CpuTimes {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // cpu  user nice system idle iowait irq softirq steal guest guest_nice
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .filter(|l| l.starts_with("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        CpuTimes {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Share of the vCPUs' time stolen between `self` and `later`.
    pub fn share_until(self, later: CpuTimes) -> f64 {
        crate::stats::ratio(
            later.steal.saturating_sub(self.steal) as f64,
            later.total.saturating_sub(self.total) as f64,
        )
    }
}

/// Indices of the samples to report from, given the steal share each was
/// taken under: those at or below [`QUIET_SHARE`], or, when fewer than a
/// quarter of them are, the quarter with the least steal.
pub fn quiet(shares: &[f64]) -> Vec<usize> {
    let calm: Vec<usize> = (0..shares.len())
        .filter(|&i| shares[i] <= QUIET_SHARE)
        .collect();
    let want = shares.len().div_ceil(4);
    if calm.len() >= want {
        return calm;
    }
    let mut by_steal: Vec<usize> = (0..shares.len()).collect();
    by_steal.sort_by(|&a, &b| shares[a].total_cmp(&shares[b]));
    by_steal.truncate(want);
    by_steal.sort_unstable();
    by_steal
}

/// The `# steal` line: how much steal the samples saw and how many were
/// quiet.
pub fn describe(shares: &[f64]) -> String {
    let calm = shares.iter().filter(|&&s| s <= QUIET_SHARE).count();
    format!(
        "{calm} of {} samples taken at a steal share <= {QUIET_SHARE} \
         (median share {:.3}, max {:.3})",
        shares.len(),
        crate::stats::median(shares),
        shares.iter().copied().fold(0.0, f64::max)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_keeps_calm_samples() {
        assert_eq!(quiet(&[0.0, 0.2, 0.01, 0.3]), vec![0, 2]);
    }

    #[test]
    fn quiet_falls_back_to_least_stolen_quarter() {
        assert_eq!(
            quiet(&[0.2, 0.1, 0.3, 0.15, 0.4, 0.5, 0.6, 0.7]),
            vec![1, 3]
        );
        assert!(quiet(&[]).is_empty());
    }
}
