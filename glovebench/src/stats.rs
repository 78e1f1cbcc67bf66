//! Order statistics, interval arithmetic and the serve epoch matching rule:
//! the small helpers every workload's figures rest on.

/// Sorted copy of `values` (NaN-free input; NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)`), so the spreads printed here match
/// the ones computed over a set of runs. Fewer than two values give the
/// value itself for both.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// A tail reading: the value at `pct` over `n` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: u32,
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: usize, n: usize) -> usize {
    (p * n).div_ceil(100).max(1)
}

/// The highest whole percentile (50 to 99) that leaves at least ten of `n`
/// samples above its nearest-rank position. Fewer than 20 samples leave no
/// such percentile above the median, so the median (p50) is used.
pub fn tail_pct(n: usize) -> usize {
    (50..=99)
        .rev()
        .find(|&p| n >= 10 + rank(p, n))
        .unwrap_or(50)
}

/// The value at percentile `pct` (nearest rank); 0 for no values. p50 is
/// the [`median`], so that a tail that falls back to it reads the same as
/// the median itself.
pub fn percentile(values: &[f64], pct: usize) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    if pct == 50 {
        return median(&v);
    }
    v[rank(pct, v.len()) - 1]
}

/// The tail of `values`: the percentile [`tail_pct`] picks for their count.
pub fn tail(values: &[f64]) -> Tail {
    let pct = tail_pct(values.len());
    Tail {
        pct: pct as u32,
        value: percentile(values, pct),
        n: values.len(),
    }
}

/// A run covers several inputs, each repeated. Reduces each input's values
/// with `per_input` (a median, say) and averages over the inputs, so that
/// every input weighs the same however many repetitions it got.
pub fn across_inputs(groups: &[Vec<f64>], per_input: impl Fn(&[f64]) -> f64) -> f64 {
    let done: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| per_input(g))
        .collect();
    done.iter().sum::<f64>() / done.len().max(1) as f64
}

/// The tail over several inputs: the percentile [`tail_pct`] picks for the
/// smallest input's count (so every input keeps ten samples beyond it),
/// taken per input and averaged over the inputs.
pub fn tail_across_inputs(groups: &[Vec<f64>]) -> Tail {
    let groups: Vec<Vec<f64>> = groups.iter().filter(|g| !g.is_empty()).cloned().collect();
    let smallest = groups.iter().map(Vec::len).min().unwrap_or(0);
    let pct = tail_pct(smallest);
    Tail {
        pct: pct as u32,
        value: across_inputs(&groups, |g| percentile(g, pct)),
        n: groups.iter().map(Vec::len).sum(),
    }
}

/// The tail of a run whose inputs each got several repetitions, given
/// every repetition's epoch values, grouped by input. Where every
/// repetition has at least 20 epochs, the tail is taken within each one
/// (the percentile [`tail_pct`] picks for the smallest), reduced to the
/// median per input and averaged over the inputs, so that a stall in one
/// repetition moves it little. Shorter repetitions have no tail of their
/// own, so their epochs are pooled per input ([`tail_across_inputs`]).
pub fn tail_over_reps(inputs: &[Vec<Vec<f64>>]) -> Tail {
    let reps = || inputs.iter().flatten().filter(|r| !r.is_empty());
    let pct = tail_pct(reps().map(Vec::len).min().unwrap_or(0));
    if pct == 50 {
        let pooled: Vec<Vec<f64>> = inputs.iter().map(|i| i.concat()).collect();
        return tail_across_inputs(&pooled);
    }
    let per_input: Vec<Vec<f64>> = inputs
        .iter()
        .map(|i| {
            i.iter()
                .filter(|r| !r.is_empty())
                .map(|r| percentile(r, pct))
                .collect()
        })
        .collect();
    Tail {
        pct: pct as u32,
        value: across_inputs(&per_input, median),
        n: reps().map(Vec::len).sum(),
    }
}

/// Total length covered by a set of half-open intervals `[start, end)`,
/// counting overlaps once.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of a span: its length minus the part of it that its children
/// cover. Children are clipped to the span, and overlapping children (shards
/// running side by side on two workers) count once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .collect();
    (span.1.saturating_sub(span.0)).saturating_sub(union_len(&clipped))
}

/// The due time from which a served epoch's latency is counted: the due
/// time of the frame carrying the first event at or past the window's end
/// (the moment the window is provably complete on the wire), or
/// `flush_due` when no such event exists and the window is closed by
/// `FLUSH`.
///
/// `event_t` holds every event's start minute in send order, `frame_len` is
/// the events per `EVENTS` frame and `frame_due[i]` the due time of frame
/// `i`.
pub fn closing_due(
    window_end_min: u64,
    event_t: &[u32],
    frame_len: usize,
    frame_due: &[f64],
    flush_due: f64,
) -> f64 {
    let idx = event_t.partition_point(|&t| u64::from(t) < window_end_min);
    if idx == event_t.len() {
        flush_due
    } else {
        frame_due[idx / frame_len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.n), (90, 90.0, 100));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 99);
        let v: Vec<f64> = (1..=280).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.pct, 96);
        assert!(280 - t.value as usize >= 10);
        // Under 20 samples: the median.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!((tail(&v).pct, tail(&v).value), (50, 6.5));
        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn inputs_weigh_the_same_whatever_their_repetitions() {
        // Input 0 got three repetitions, input 1 one.
        let groups = vec![vec![1.0, 2.0, 9.0], vec![4.0], vec![]];
        assert_eq!(across_inputs(&groups, median), 3.0);
        // Tail: the smaller input has 20 samples, so both use p50.
        let a: Vec<f64> = (1..=40).map(f64::from).collect();
        let b: Vec<f64> = (101..=120).map(f64::from).collect();
        let t = tail_across_inputs(&[a, b]);
        assert_eq!((t.pct, t.n), (50, 60));
        assert_eq!(t.value, (20.5 + 110.5) / 2.0);
        // With 100 samples each, p90 of each.
        let c: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail_across_inputs(&[c.clone(), c]);
        assert_eq!((t.pct, t.value), (90, 90.0));
        assert_eq!(tail_across_inputs(&[]).n, 0);
    }

    #[test]
    fn tail_over_reps_is_robust_to_one_stalled_repetition() {
        // Three repetitions of 100 epochs; the third stalled on a quarter
        // of them. Each repetition's p90, median per input: the stall does
        // not show.
        let steady: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut stalled = steady.clone();
        for v in stalled.iter_mut().skip(75) {
            *v += 1_000.0;
        }
        let t = tail_over_reps(&[vec![steady.clone(), steady.clone(), stalled]]);
        assert_eq!((t.pct, t.value, t.n), (90, 90.0, 300));
        // Two inputs weigh the same whatever their repetitions.
        let high: Vec<f64> = (101..=200).map(f64::from).collect();
        let t = tail_over_reps(&[vec![steady.clone(); 3], vec![high]]);
        assert_eq!(t.value, (90.0 + 190.0) / 2.0);
        // Under 20 epochs per repetition: pooled per input, as
        // tail_across_inputs does.
        let short: Vec<f64> = (1..=14).map(f64::from).collect();
        let t = tail_over_reps(&[vec![short.clone(), short.clone()]]);
        assert_eq!(t, tail_across_inputs(&[[short.clone(), short].concat()]));
        assert_eq!(tail_over_reps(&[]).n, 0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two shards overlapping on two workers inside a 100-unit span.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 70)]), 40);
        // Disjoint children and a child spilling past the span's end.
        assert_eq!(self_time((0, 100), &[(0, 10), (50, 60), (90, 150)]), 70);
        assert_eq!(self_time((0, 100), &[]), 100);
        // A child covering everything leaves no self time.
        assert_eq!(self_time((10, 20), &[(0, 30), (12, 14)]), 0);
        assert_eq!(union_len(&[(5, 5), (1, 3), (2, 4), (8, 9)]), 4);
    }

    #[test]
    fn closing_due_picks_the_boundary_frame_or_flush() {
        // Events at these minutes, two per frame: frames hold
        // [0, 100], [350, 359], [360, 400], [720].
        let t = [0, 100, 350, 359, 360, 400, 720];
        let due = [0.0, 1.0, 2.0, 3.0];
        // Window [0, 360) closes with the event at 360, in frame 2.
        assert_eq!(closing_due(360, &t, 2, &due, 9.0), 2.0);
        // Window [360, 720) closes with the event at 720, in frame 3.
        assert_eq!(closing_due(720, &t, 2, &due, 9.0), 3.0);
        // The last window [720, 1080) has no event past its end: FLUSH.
        assert_eq!(closing_due(1080, &t, 2, &due, 9.0), 9.0);
    }
}
