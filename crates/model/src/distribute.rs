//! Greedy object-to-worker assignment, including the skew the paper
//! observes past the balance point.

/// Assign `n` consecutive objects to workers, `k` per worker, the last
/// worker taking the remainder.
///
/// This reproduces the paper's Sec. II-C observation exactly: for 10
/// objects, "the numbers of objects processed by mappers become (5,5),
/// (6,4), (7,3), (8,2) and (9,1) when the number of objects per lambda is
/// set from 5 to 9" — i.e. workers are filled greedily, which makes large
/// `k` skew the load and lengthen the straggler.
pub fn distribute_counts(n: usize, k: usize) -> Vec<usize> {
    assert!(n > 0, "nothing to distribute");
    assert!(k > 0, "k must be positive");
    let workers = n.div_ceil(k);
    let mut counts = vec![k; workers];
    let remainder = n - k * (workers - 1);
    counts[workers - 1] = remainder;
    counts
}

/// Split `sizes` (per-object MB) into per-worker slices of consecutive
/// objects, `k` objects per worker. Returns each worker's object sizes.
pub fn distribute_sizes(sizes: &[f64], k: usize) -> Vec<Vec<f64>> {
    let counts = distribute_counts(sizes.len(), k);
    let mut out = Vec::with_capacity(counts.len());
    let mut idx = 0;
    for c in counts {
        out.push(sizes[idx..idx + c].to_vec());
        idx += c;
    }
    debug_assert_eq!(idx, sizes.len());
    out
}

/// Split `n` objects across exactly `groups` workers as evenly as possible
/// (sizes differ by at most one). Used by explicitly-specified schedules
/// like Baseline 3's "two reducers each process half of the total objects".
pub fn distribute_even(n: usize, groups: usize) -> Vec<usize> {
    assert!(n > 0, "nothing to distribute");
    assert!(groups > 0 && groups <= n, "need 1..=n groups");
    let base = n / groups;
    let extra = n % groups;
    (0..groups).map(|i| base + usize::from(i < extra)).collect()
}

/// Size-aware assignment: Longest-Processing-Time-first (LPT) greedy
/// scheduling of `sizes` onto exactly `workers` workers. Returns each
/// worker's object *indices*, ordered by descending worker load.
///
/// This is the skew-mitigation extension the paper's Sec. II-C
/// observation motivates: the reference framework assigns consecutive
/// objects `k` at a time, so heterogeneous object sizes create
/// stragglers; LPT bounds the makespan within 4/3 of optimal. Not part
/// of the paper's configuration space — evaluated in `exp_skew`.
pub fn assign_lpt(sizes: &[f64], workers: usize) -> Vec<Vec<usize>> {
    assert!(!sizes.is_empty(), "nothing to assign");
    assert!(workers >= 1 && workers <= sizes.len(), "need 1..=n workers");
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&a, &b| sizes[b].total_cmp(&sizes[a]).then(a.cmp(&b)));
    let mut loads = vec![0.0f64; workers];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for idx in order {
        // Least-loaded worker (ties broken by worker index: deterministic).
        let w = (0..workers)
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)))
            .expect("workers >= 1");
        loads[w] += sizes[idx];
        out[w].push(idx);
    }
    out.sort_by(|a, b| {
        let la: f64 = a.iter().map(|&i| sizes[i]).sum();
        let lb: f64 = b.iter().map(|&i| sizes[i]).sum();
        lb.total_cmp(&la)
    });
    out
}

/// Split `sizes` into exactly `groups` consecutive, near-even slices.
pub fn distribute_sizes_even(sizes: &[f64], groups: usize) -> Vec<Vec<f64>> {
    let counts = distribute_even(sizes.len(), groups);
    let mut out = Vec::with_capacity(groups);
    let mut idx = 0;
    for c in counts {
        out.push(sizes[idx..idx + c].to_vec());
        idx += c;
    }
    debug_assert_eq!(idx, sizes.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn even_distribution_balances() {
        assert_eq!(distribute_even(10, 2), vec![5, 5]);
        assert_eq!(distribute_even(10, 3), vec![4, 3, 3]);
        assert_eq!(distribute_even(3, 3), vec![1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "1..=n groups")]
    fn more_groups_than_objects_rejected() {
        distribute_even(2, 3);
    }

    proptest! {
        #[test]
        fn even_counts_sum_and_balance(n in 1usize..500, g in 1usize..50) {
            prop_assume!(g <= n);
            let counts = distribute_even(n, g);
            prop_assert_eq!(counts.len(), g);
            prop_assert_eq!(counts.iter().sum::<usize>(), n);
            let max = counts.iter().max().unwrap();
            let min = counts.iter().min().unwrap();
            prop_assert!(max - min <= 1);
        }
    }

    #[test]
    fn lpt_balances_skewed_sizes() {
        // Sizes (9,1,...,1): the consecutive k=5 split loads the first
        // worker with 9+1+1+1+1 = 13 MB against 5 MB. LPT pairs the big
        // object with the ninth 1 MB object: 9 vs 9, perfectly balanced.
        let mut sizes = vec![1.0; 10];
        sizes[0] = 9.0;
        let assign = assign_lpt(&sizes, 2);
        let load = |w: &Vec<usize>| w.iter().map(|&i| sizes[i]).sum::<f64>();
        // 18 MB over two workers: both end at 9.
        assert_eq!(load(&assign[0]), 9.0);
        assert_eq!(load(&assign[1]), 9.0);
    }

    #[test]
    fn lpt_covers_every_object_once() {
        let sizes = [5.0, 3.0, 8.0, 1.0, 2.0, 7.0];
        let assign = assign_lpt(&sizes, 3);
        let mut seen: Vec<usize> = assign.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn lpt_is_within_four_thirds_of_lower_bound() {
        // Grahams's bound for LPT: makespan <= (4/3 - 1/3m) * OPT.
        let sizes = [7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 2.0, 1.0];
        let workers = 3;
        let assign = assign_lpt(&sizes, workers);
        let makespan: f64 = assign[0].iter().map(|&i| sizes[i]).sum();
        let lower = (sizes.iter().sum::<f64>() / workers as f64)
            .max(sizes.iter().cloned().fold(0.0, f64::max));
        assert!(
            makespan <= lower * (4.0 / 3.0) + 1e-9,
            "{makespan} vs {lower}"
        );
    }

    #[test]
    fn paper_skew_examples() {
        assert_eq!(distribute_counts(10, 5), vec![5, 5]);
        assert_eq!(distribute_counts(10, 6), vec![6, 4]);
        assert_eq!(distribute_counts(10, 7), vec![7, 3]);
        assert_eq!(distribute_counts(10, 8), vec![8, 2]);
        assert_eq!(distribute_counts(10, 9), vec![9, 1]);
    }

    #[test]
    fn balanced_cases() {
        assert_eq!(distribute_counts(10, 1), vec![1; 10]);
        assert_eq!(distribute_counts(10, 2), vec![2; 5]);
        assert_eq!(distribute_counts(9, 3), vec![3, 3, 3]);
    }

    #[test]
    fn k_larger_than_n_gives_single_worker() {
        assert_eq!(distribute_counts(3, 10), vec![3]);
    }

    #[test]
    fn sizes_are_consecutive_slices() {
        let sizes = [1.0, 2.0, 3.0, 4.0, 5.0];
        let split = distribute_sizes(&sizes, 2);
        assert_eq!(split, vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0]]);
    }

    proptest! {
        #[test]
        fn counts_sum_to_n(n in 1usize..500, k in 1usize..60) {
            let counts = distribute_counts(n, k);
            prop_assert_eq!(counts.iter().sum::<usize>(), n);
            prop_assert_eq!(counts.len(), n.div_ceil(k));
            // Every worker but the last is exactly k; the last is 1..=k.
            for &c in &counts[..counts.len() - 1] {
                prop_assert_eq!(c, k);
            }
            let last = *counts.last().unwrap();
            prop_assert!(last >= 1 && last <= k);
        }

        #[test]
        fn size_split_preserves_total(n in 1usize..200, k in 1usize..30) {
            let sizes: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
            let split = distribute_sizes(&sizes, k);
            let total: f64 = split.iter().flatten().sum();
            prop_assert!((total - sizes.iter().sum::<f64>()).abs() < 1e-9);
        }
    }
}
