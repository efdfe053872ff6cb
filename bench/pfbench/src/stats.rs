//! Percentiles, paired ratios and the seeded generator the harness uses.

/// The `p`-th percentile (0..=100) of `values`, linearly interpolated
/// between closest ranks.  Empty input gives 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The drift-cancelled round ratios: round `i` ran between reference call
/// `i` and reference call `i + 1`, so `refs` has one more entry than `ops`
/// and `x_i = op_i / mean(ref_i, ref_{i+1})`.
///
/// The gated latency is the median of these, not `median(ops) /
/// median(refs)`: only the per-round pairing cancels a core that is slow
/// for part of the window.
pub fn paired_ratios(ops: &[f64], refs: &[f64]) -> Vec<f64> {
    assert_eq!(
        refs.len(),
        ops.len() + 1,
        "one reference call on each side of every op"
    );
    ops.iter()
        .zip(refs.windows(2))
        .map(|(op, r)| op / ((r[0] + r[1]) / 2.0))
        .collect()
}

/// The gated ratio: the median of the paired ratios over the quietest
/// `share` of the rounds, those whose two reference calls were fastest.
///
/// No kernel follows a loud box all the way: in an hour in which a
/// neighbour slowed `theta_warm`'s pass by 25 % it slowed the kernel (then
/// 10 MB) by 12 %, so a round's ratio rises with the noise and the median
/// over all rounds depends on how much of the window was loud (10 % spread
/// over eight runs, 6 % over their quietest quarters; `joins_warm` 5 % and
/// 2 %).
/// The reference calls say which rounds were quiet.  A `share` of 1 is the
/// median over all rounds.
pub fn quiet_median(ops: &[f64], refs: &[f64], share: f64) -> f64 {
    let x = paired_ratios(ops, refs);
    let ref_means: Vec<f64> = refs.windows(2).map(|r| (r[0] + r[1]) / 2.0).collect();
    let limit = percentile(&ref_means, share * 100.0);
    let quiet: Vec<f64> = x
        .iter()
        .zip(&ref_means)
        .filter(|(_, ref_mean)| **ref_mean <= limit)
        .map(|(x, _)| *x)
        .collect();
    median(&quiet)
}

/// SplitMix64: the harness's own generator, so request mixes and the
/// reference kernel's data depend on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 25.0), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn paired_ratio_divides_by_the_two_neighbouring_reference_calls() {
        let x = paired_ratios(&[10.0, 30.0], &[1.0, 3.0, 5.0]);
        assert_eq!(x, vec![5.0, 7.5]);
    }

    #[test]
    fn pairing_cancels_a_slow_spell_that_raw_time_keeps() {
        // The core runs at half speed for the last two of five rounds.
        let ops = [10.0, 10.0, 10.0, 20.0, 20.0];
        let refs = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0];
        let x = paired_ratios(&ops, &refs);
        assert_eq!(median(&x), 10.0, "{x:?}");
        // Slow for four of five rounds: the raw median doubles, x stays.
        let ops = [10.0, 20.0, 20.0, 20.0, 20.0];
        let refs = [1.0, 1.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(median(&ops), 20.0);
        assert_eq!(median(&paired_ratios(&ops, &refs)), 10.0);
    }

    #[test]
    fn the_quiet_median_leaves_out_the_rounds_with_slow_reference_calls() {
        // Two loud rounds: the operation ran 3x slower, the kernel 2x.
        let ops = [10.0, 10.0, 30.0, 30.0, 10.0];
        let refs = [1.0, 1.0, 1.0, 3.0, 1.0, 1.0];
        assert_eq!(
            paired_ratios(&ops, &refs),
            vec![10.0, 10.0, 15.0, 15.0, 10.0]
        );
        assert_eq!(quiet_median(&ops, &refs, 0.5), 10.0);
        let all = quiet_median(&ops[1..4], &refs[1..5], 1.0);
        assert_eq!(all, median(&[10.0, 15.0, 15.0]));
        // However small the share, the quietest round counts.
        assert_eq!(quiet_median(&ops, &refs, 0.0), 10.0);
    }

    #[test]
    fn the_generator_repeats_for_a_seed_and_differs_between_seeds() {
        let draw = |seed| {
            let mut g = SplitMix64::new(seed);
            (0..8).map(|_| g.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));

        let mut items: Vec<u32> = (0..20).collect();
        SplitMix64::new(7).shuffle(&mut items);
        assert_ne!(items, (0..20).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..20).collect::<Vec<_>>());
    }
}
