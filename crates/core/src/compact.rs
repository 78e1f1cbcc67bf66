//! Bit-packed per-fingerprint occupancy signatures — tier 0 of the
//! distance cascade (see DESIGN.md "Distance cascade").
//!
//! The paper's hot loop evaluates Eq. (10) over `O(|M|²)` fingerprint
//! pairs; PR 2 put an O(1) hull bound in front of every evaluation. This
//! module adds an even earlier filter in the spirit of HDR-style popcount
//! fingerprint cascades: each fingerprint is summarized, per axis (x, y,
//! t), as a 256-bit *occupancy bitmap* over coarse buckets, plus a small
//! pyramid of *dilated* bitmaps (the occupancy grown by 1, 2, 4 and 8
//! buckets on each side). Two signatures compare with XOR + popcount only
//! — word-parallel, branch-light, SIMD-friendly — and yield an admissible
//! lower bound on the Eq. (10) stretch effort:
//!
//! * **Disjointness via the Hamming identity.** For bitmaps `A`, `B`:
//!   `popcount(A ⊕ B) = popcount(A) + popcount(B)` iff `A ∧ B = 0`. The
//!   per-level popcounts are precomputed at build time, so one disjointness
//!   test is `SIG_WORDS` XOR/popcount pairs and one comparison.
//! * **Gap floor from dilation.** If a fingerprint's raw occupancy is
//!   disjoint from the other's radius-`r` dilation, every pair of their
//!   samples is separated by at least `r` buckets' worth of distance on
//!   that axis (proof below). Testing the dilation levels in ascending
//!   radius order gives the largest provable per-axis gap.
//! * **Same bound shape as the hull.** The three per-axis gap floors feed
//!   the exact formula of [`crate::stretch::stretch_lower_bound`], so the
//!   admissibility argument carries over unchanged.
//!
//! ### Why bucket wrap-around is safe
//!
//! Bucket indices are reduced modulo [`SIG_BUCKETS`], so distant
//! coordinates can alias onto the same bit. Aliasing can only create
//! *spurious intersections*, never spurious disjointness: if the unwrapped
//! raw set of `a` intersects the unwrapped dilation of `b` at bucket `u`,
//! then `u mod 256` is set in both wrapped bitmaps, so the wrapped test
//! also reports an intersection. Contrapositively, wrapped disjointness
//! implies unwrapped disjointness — collisions weaken the bound toward 0
//! but can never inflate it. The bound stays one-sided (admissible) for
//! arbitrarily large datasets.
//!
//! ### The gap floor, precisely
//!
//! Let `w` be the bucket width on an axis. A sample interval `[lo, hi)`
//! marks the (inclusive) bucket range `⌊lo/w⌋ ..= ⌊hi/w⌋` — one bucket of
//! over-marking at the exclusive end, which is conservative. Suppose `a`'s
//! raw bitmap is disjoint from `b`'s radius-`r` dilation and take any
//! samples `s ∈ a`, `q ∈ b` with (wlog) `q` to the right of `s`. `s`'s
//! highest marked bucket `i₁` satisfies `s.hi < (i₁+1)·w`; `q`'s lowest
//! marked bucket `j₀` satisfies `q.lo ≥ j₀·w`; and disjointness from the
//! dilation forces `j₀ − i₁ ≥ r + 1`. Hence the axis gap
//! `q.lo − s.hi > (j₀ − i₁ − 1)·w ≥ r·w`. With
//! [`SignatureSpace::of`] choosing `w = ⌈φmax / 8⌉` and the largest
//! dilation radius 8, a fully separated axis proves a gap of `8·w ≥ φmax`
//! — exactly the saturation point of the capped stretch, so no resolution
//! is wasted.

use crate::config::StretchConfig;
use crate::model::{Fingerprint, Sample};
use crate::stretch::SampleSeq;

/// 64-bit words per axis bitmap.
pub const SIG_WORDS: usize = 4;

/// Buckets (bits) per axis bitmap.
pub const SIG_BUCKETS: usize = SIG_WORDS * 64;

/// Dilation radii of the signature pyramid, in buckets, ascending. The
/// largest radius times the bucket width reaches the saturation cap of the
/// corresponding axis (see [`SignatureSpace::of`]).
pub const DILATION_RADII: [i64; 4] = [1, 2, 4, 8];

/// Bucket geometry shared by every signature of one run, derived from the
/// stretch configuration so that the coarsest provable gap saturates the
/// capped per-axis stretch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureSpace {
    /// Spatial bucket width, meters (both x and y).
    pub bucket_space_m: i64,
    /// Temporal bucket width, minutes.
    pub bucket_time_min: i64,
}

impl SignatureSpace {
    /// Derives bucket widths from the stretch caps: `⌈φmax / r_max⌉` per
    /// axis (at least 1), where `r_max` is the largest dilation radius. A
    /// fully separated axis then proves a gap of `r_max · width ≥ φmax`,
    /// saturating that axis' capped stretch contribution.
    pub fn of(cfg: &StretchConfig) -> Self {
        let max_r = DILATION_RADII[DILATION_RADII.len() - 1] as f64;
        Self {
            bucket_space_m: ((cfg.phi_max_space_m / max_r).ceil() as i64).max(1),
            bucket_time_min: ((cfg.phi_max_time_min / max_r).ceil() as i64).max(1),
        }
    }
}

/// One axis of a signature: the raw occupancy bitmap, its dilation
/// pyramid, and their precomputed popcounts (so disjointness tests need no
/// second pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct AxisSig {
    raw: [u64; SIG_WORDS],
    raw_ones: u32,
    dilated: [[u64; SIG_WORDS]; DILATION_RADII.len()],
    dilated_ones: [u32; DILATION_RADII.len()],
}

impl AxisSig {
    /// Marks the buckets covering `[lo, hi]` (inclusive, conservative) in
    /// the raw bitmap and every dilation level.
    fn mark(&mut self, lo: i64, hi: i64, width: i64) {
        let b_lo = lo.div_euclid(width);
        let b_hi = hi.div_euclid(width);
        mark_range(&mut self.raw, b_lo, b_hi);
        for (level, &r) in DILATION_RADII.iter().enumerate() {
            mark_range(&mut self.dilated[level], b_lo - r, b_hi + r);
        }
    }

    /// Caches the popcount of every bitmap (called once after marking).
    fn seal(&mut self) {
        self.raw_ones = ones(&self.raw);
        for (level, words) in self.dilated.iter().enumerate() {
            self.dilated_ones[level] = ones(words);
        }
    }
}

/// Sets the wrapped bits of the inclusive bucket range `[lo, hi]`;
/// saturates to all-ones when the range covers the whole ring.
fn mark_range(words: &mut [u64; SIG_WORDS], lo: i64, hi: i64) {
    if hi - lo + 1 >= SIG_BUCKETS as i64 {
        *words = [u64::MAX; SIG_WORDS];
        return;
    }
    for b in lo..=hi {
        let bit = b.rem_euclid(SIG_BUCKETS as i64) as usize;
        words[bit / 64] |= 1u64 << (bit % 64);
    }
}

#[inline]
fn ones(words: &[u64; SIG_WORDS]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// XOR/popcount Hamming distance between two axis bitmaps — the cascade's
/// tier-0 distance primitive. Word-parallel and branch-free; equals
/// `popcount(a) + popcount(b)` exactly when the bitmaps are disjoint.
#[inline]
pub fn hamming(a: &[u64; SIG_WORDS], b: &[u64; SIG_WORDS]) -> u32 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x ^ y).count_ones())
        .sum()
}

/// Bit-packed cell-minute occupancy signature of one fingerprint: one
/// `AxisSig` per axis (x, y, t), built once in `O(n̄)` per fingerprint
/// and compared in `O(1)` per pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactSignature {
    x: AxisSig,
    y: AxisSig,
    t: AxisSig,
}

impl CompactSignature {
    /// Builds the signature of a fingerprint on the given bucket geometry.
    pub fn of(fp: &Fingerprint, space: &SignatureSpace) -> Self {
        Self::of_seq(fp.samples(), space)
    }

    /// Builds the signature of any sample sequence — the columnar pages of
    /// a [`SampleStore`] feed this directly, without materializing a
    /// `Vec<Sample>` first.
    pub fn of_seq<S: SampleSeq>(samples: S, space: &SignatureSpace) -> Self {
        let mut x = AxisSig::default();
        let mut y = AxisSig::default();
        let mut t = AxisSig::default();
        for i in 0..samples.len() {
            let s = samples.get(i);
            x.mark(s.x, s.x_end(), space.bucket_space_m);
            y.mark(s.y, s.y_end(), space.bucket_space_m);
            t.mark(i64::from(s.t), s.t_end() as i64, space.bucket_time_min);
        }
        x.seal();
        y.seal();
        t.seal();
        Self { x, y, t }
    }
}

/// Largest dilation radius `r` (in buckets) such that `a`'s raw occupancy
/// is disjoint from `b`'s radius-`r` dilation, i.e. a proven per-axis gap
/// floor of `r` buckets. Disjointness is anti-monotone in the radius
/// (larger dilations are supersets), so the ascending scan stops at the
/// first intersection — the common all-overlapping case costs exactly one
/// Hamming test.
#[inline]
fn axis_gap_buckets(a: &AxisSig, b: &AxisSig) -> i64 {
    let mut gap = 0;
    for (level, &r) in DILATION_RADII.iter().enumerate() {
        if hamming(&a.raw, &b.dilated[level]) == a.raw_ones + b.dilated_ones[level] {
            gap = r;
        } else {
            break;
        }
    }
    gap
}

/// An admissible lower bound on the fingerprint stretch effort `Δ_ab` of
/// Eq. (10), computed from the two bit-packed signatures alone — tier 0 of
/// the distance cascade.
///
/// Each axis contributes a proven gap floor (see the module docs for the
/// derivation); the floors feed the same capped-and-weighted formula as
/// [`crate::stretch::stretch_lower_bound`], whose admissibility proof
/// ("every per-sample gap is at least the proven gap; capping is monotone;
/// direction weights sum to 1") applies verbatim with the hull gaps
/// replaced by the signature gap floors. The bound is 0 whenever the
/// occupancies interleave, so it only prunes genuinely separated pairs and
/// never misranks one.
///
/// The value depends only on the unordered pair up to the choice of which
/// signature's raw bitmap meets which dilation; callers must keep the
/// argument orientation deterministic (the arena always passes the larger
/// slot id first), which keeps runs byte-identical.
#[inline]
pub fn signature_lower_bound(
    a: &CompactSignature,
    b: &CompactSignature,
    cfg: &StretchConfig,
    space: &SignatureSpace,
) -> f64 {
    let gx = axis_gap_buckets(&a.x, &b.x) * space.bucket_space_m;
    let gy = axis_gap_buckets(&a.y, &b.y) * space.bucket_space_m;
    let gt = axis_gap_buckets(&a.t, &b.t) * space.bucket_time_min;
    if gx == 0 && gy == 0 && gt == 0 {
        return 0.0;
    }
    let phi_s = ((gx + gy) as f64 / cfg.phi_max_space_m).min(1.0);
    let phi_t = (gt as f64 / cfg.phi_max_time_min).min(1.0);
    cfg.w_space * phi_s + cfg.w_time * phi_t
}

/// Samples per columnar page. Large enough that page overhead vanishes,
/// small enough that a page is a cache- and compaction-friendly unit
/// (~384 KiB of column data at 24 bytes per sample).
pub const PAGE_SAMPLES: usize = 16 * 1024;

/// Sentinel page id marking a span stored in the wide (plain `Vec<Sample>`)
/// escape hatch instead of a packed page.
const WIDE_PAGE: u32 = u32::MAX;

/// Bytes per sample in a packed page: six `u32` columns.
const PACKED_BYTES_PER_SAMPLE: u64 = 24;

/// Bytes per sample on the wide path: one full [`Sample`].
const WIDE_BYTES_PER_SAMPLE: u64 = std::mem::size_of::<Sample>() as u64;

/// Handle to one fingerprint's samples inside a [`SampleStore`]: which page,
/// where in it, and how many samples. Spans never straddle pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpan {
    /// Page index, or the wide-path sentinel.
    page: u32,
    /// First sample of the span within its page (or within the wide array).
    start: u32,
    /// Number of samples.
    len: u32,
}

impl SampleSpan {
    /// Number of samples the span covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the span covers no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One struct-of-arrays page: `x`/`y` are stored as `u32` offsets from the
/// page's base corner, so a sample costs 24 bytes instead of the 32 of
/// [`Sample`] — and the columns the kernels touch stay densely packed.
#[derive(Debug, Clone, Default)]
struct PackedPage {
    base_x: i64,
    base_y: i64,
    x: Vec<u32>,
    y: Vec<u32>,
    dx: Vec<u32>,
    dy: Vec<u32>,
    t: Vec<u32>,
    dt: Vec<u32>,
}

impl PackedPage {
    fn len(&self) -> usize {
        self.t.len()
    }

    /// Decodes sample `i` of the page — exact integer moves, so kernels
    /// reading through here see bit-identical values to the `Vec<Sample>`
    /// path.
    #[inline]
    fn get(&self, i: usize) -> Sample {
        Sample {
            x: self.base_x + i64::from(self.x[i]),
            y: self.base_y + i64::from(self.y[i]),
            dx: self.dx[i],
            dy: self.dy[i],
            t: self.t[i],
            dt: self.dt[i],
        }
    }
}

/// Columnar, bit-packed cell-minute sample store — the million-user metro's
/// replacement for one `Vec<Sample>` per fingerprint.
///
/// Samples live in struct-of-arrays [`PAGE_SAMPLES`]-sized pages with
/// coordinates delta-encoded as `u32` offsets against a per-page base
/// corner (24 bytes per sample, no per-fingerprint heap allocation). The
/// Eq. (10) stretch kernels and the tier-0/1/2 cascade read the pages
/// directly through [`StoreSlice`], which implements
/// [`SampleSeq`] — the same generic arithmetic as over a `&[Sample]`, so
/// results are byte-identical.
///
/// Fingerprints whose coordinate extent does not fit a `u32` offset window
/// (continent-scale spans) fall back to a plain `Vec<Sample>` *wide* region;
/// spans never straddle pages, and a fingerprint larger than one page gets
/// a dedicated oversized page.
#[derive(Debug, Clone, Default)]
pub struct SampleStore {
    pages: Vec<PackedPage>,
    wide: Vec<Sample>,
    bytes: u64,
}

impl SampleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one fingerprint's samples, returning the span that addresses
    /// them. Samples are stored in input order.
    pub fn push(&mut self, samples: &[Sample]) -> SampleSpan {
        let n = samples.len();
        if n == 0 {
            return SampleSpan {
                page: WIDE_PAGE,
                start: self.wide.len() as u32,
                len: 0,
            };
        }
        let (mut min_x, mut min_y) = (samples[0].x, samples[0].y);
        let (mut max_x, mut max_y) = (min_x, min_y);
        for s in &samples[1..] {
            min_x = min_x.min(s.x);
            min_y = min_y.min(s.y);
            max_x = max_x.max(s.x);
            max_y = max_y.max(s.y);
        }
        let window = i64::from(u32::MAX);
        if max_x - min_x > window || max_y - min_y > window {
            // Continent-scale fingerprint: offsets cannot fit u32 — store it
            // uncompressed in the wide region.
            let start = self.wide.len() as u32;
            self.wide.extend_from_slice(samples);
            self.bytes += n as u64 * WIDE_BYTES_PER_SAMPLE;
            return SampleSpan {
                page: WIDE_PAGE,
                start,
                len: n as u32,
            };
        }
        // Reuse the open (last) page when the span fits its capacity and
        // its base window; otherwise open a fresh page based at this
        // fingerprint's min corner. Oversized fingerprints get a dedicated
        // page longer than PAGE_SAMPLES — spans never straddle pages.
        let reuse = self.pages.last().is_some_and(|p| {
            p.len() + n <= PAGE_SAMPLES
                && min_x >= p.base_x
                && min_y >= p.base_y
                && max_x - p.base_x <= window
                && max_y - p.base_y <= window
        });
        if !reuse {
            self.pages.push(PackedPage {
                base_x: min_x,
                base_y: min_y,
                ..PackedPage::default()
            });
        }
        let page_id = self.pages.len() - 1;
        let page = &mut self.pages[page_id];
        let start = page.len() as u32;
        for s in samples {
            page.x.push((s.x - page.base_x) as u32);
            page.y.push((s.y - page.base_y) as u32);
            page.dx.push(s.dx);
            page.dy.push(s.dy);
            page.t.push(s.t);
            page.dt.push(s.dt);
        }
        self.bytes += n as u64 * PACKED_BYTES_PER_SAMPLE;
        SampleSpan {
            page: page_id as u32,
            start,
            len: n as u32,
        }
    }

    /// A borrowed, kernel-readable view of a span.
    #[inline]
    pub fn slice(&self, span: SampleSpan) -> StoreSlice<'_> {
        let (start, len) = (span.start as usize, span.len as usize);
        if span.page == WIDE_PAGE {
            StoreSlice {
                repr: SliceRepr::Wide(&self.wide[start..start + len]),
            }
        } else {
            StoreSlice {
                repr: SliceRepr::Packed {
                    page: &self.pages[span.page as usize],
                    start,
                    len,
                },
            }
        }
    }

    /// Decodes a span back into an owned `Vec<Sample>` (bit-identical to
    /// what was pushed).
    pub fn materialize(&self, span: SampleSpan) -> Vec<Sample> {
        let slice = self.slice(span);
        (0..slice.len()).map(|i| slice.get(i)).collect()
    }

    /// Rebuilds the store keeping only the given spans (in order),
    /// returning the compacted store and the corresponding new spans.
    /// This is the arena-compaction primitive: retired fingerprints'
    /// samples are dropped and surviving pages are re-packed densely.
    pub fn rebuilt(&self, live: &[SampleSpan]) -> (SampleStore, Vec<SampleSpan>) {
        let mut store = SampleStore::new();
        let mut spans = Vec::with_capacity(live.len());
        for &span in live {
            let samples = self.materialize(span);
            spans.push(store.push(&samples));
        }
        (store, spans)
    }

    /// Bytes currently held by sample data (O(1): maintained on push).
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Resident pages: packed pages plus one for the wide region when it
    /// holds anything.
    #[inline]
    pub fn resident_pages(&self) -> u64 {
        self.pages.len() as u64 + u64::from(!self.wide.is_empty())
    }
}

/// A borrowed view of one fingerprint's samples — either a packed-page
/// window or a plain slice. Implements [`SampleSeq`], so every stretch
/// kernel and signature builder reads it directly.
#[derive(Debug, Clone, Copy)]
pub struct StoreSlice<'a> {
    repr: SliceRepr<'a>,
}

#[derive(Debug, Clone, Copy)]
enum SliceRepr<'a> {
    Packed {
        page: &'a PackedPage,
        start: usize,
        len: usize,
    },
    Wide(&'a [Sample]),
}

impl SampleSeq for StoreSlice<'_> {
    #[inline]
    fn len(self) -> usize {
        match self.repr {
            SliceRepr::Packed { len, .. } => len,
            SliceRepr::Wide(samples) => samples.len(),
        }
    }

    #[inline]
    fn get(self, i: usize) -> Sample {
        match self.repr {
            SliceRepr::Packed { page, start, len } => {
                debug_assert!(i < len);
                page.get(start + i)
            }
            SliceRepr::Wide(samples) => samples[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stretch::{fingerprint_stretch, stretch_lower_bound, StretchHull};

    fn cfg() -> StretchConfig {
        StretchConfig::default()
    }

    fn sig(fp: &Fingerprint) -> CompactSignature {
        CompactSignature::of(fp, &SignatureSpace::of(&cfg()))
    }

    #[test]
    fn default_space_saturates_the_caps() {
        let space = SignatureSpace::of(&cfg());
        assert_eq!(space.bucket_space_m, 2_500);
        assert_eq!(space.bucket_time_min, 60);
        let max_r = DILATION_RADII[DILATION_RADII.len() - 1];
        assert!(max_r * space.bucket_space_m >= 20_000);
        assert!(max_r * space.bucket_time_min >= 480);
    }

    #[test]
    fn hamming_identity_detects_disjointness() {
        let a = [0b1010u64, 0, 0, 0];
        let b = [0b0101u64, 0, 0, 0];
        let c = [0b0010u64, 0, 0, 0];
        assert_eq!(hamming(&a, &b), ones(&a) + ones(&b), "disjoint");
        assert_ne!(hamming(&a, &c), ones(&a) + ones(&c), "overlapping");
    }

    #[test]
    fn overlapping_fingerprints_bound_to_zero() {
        let a = Fingerprint::from_points(0, &[(0, 0, 10), (5_000, 5_000, 90)]).unwrap();
        let b = Fingerprint::from_points(1, &[(2_500, 2_500, 50)]).unwrap();
        assert_eq!(
            signature_lower_bound(&sig(&a), &sig(&b), &cfg(), &SignatureSpace::of(&cfg())),
            0.0
        );
    }

    #[test]
    fn separated_fingerprints_get_a_positive_admissible_bound() {
        let space = SignatureSpace::of(&cfg());
        let a = Fingerprint::from_points(0, &[(0, 0, 10), (2_000, 500, 200)]).unwrap();
        let b = Fingerprint::from_points(1, &[(60_000, 0, 5_000), (64_000, 900, 5_400)]).unwrap();
        let lb = signature_lower_bound(&sig(&a), &sig(&b), &cfg(), &space);
        let exact = fingerprint_stretch(&a, &b, &cfg());
        assert!(lb > 0.0);
        assert!(lb <= exact + 1e-12, "bound {lb} must not exceed {exact}");
    }

    #[test]
    fn bound_is_admissible_on_a_structured_sweep() {
        // A deterministic sweep over spatial/temporal offsets, including
        // offsets past the caps and offsets that wrap the 256-bucket ring.
        let space = SignatureSpace::of(&cfg());
        for dx in [0i64, 1_000, 2_600, 10_000, 25_000, 640_000, 645_000] {
            for dt in [0u32, 30, 70, 500, 15_360, 15_400] {
                let a = Fingerprint::from_points(0, &[(0, 0, 100), (3_000, 1_000, 400)]).unwrap();
                let b =
                    Fingerprint::from_points(1, &[(dx, 500, 100 + dt), (dx + 2_000, 0, 350 + dt)])
                        .unwrap();
                let lb = signature_lower_bound(&sig(&a), &sig(&b), &cfg(), &space);
                let exact = fingerprint_stretch(&a, &b, &cfg());
                assert!(
                    lb <= exact + 1e-12,
                    "dx={dx} dt={dt}: signature bound {lb} exceeds exact {exact}"
                );
            }
        }
    }

    #[test]
    fn wrapped_aliases_only_weaken_the_bound() {
        // 640 km = exactly 256 spatial buckets: the two x-occupancies alias
        // onto the same bits, so the spatial gap floor collapses to 0 —
        // which is admissible (the bound may only under-estimate).
        let space = SignatureSpace::of(&cfg());
        let a = Fingerprint::from_points(0, &[(0, 0, 100)]).unwrap();
        let b = Fingerprint::from_points(1, &[(space.bucket_space_m * SIG_BUCKETS as i64, 0, 100)])
            .unwrap();
        let lb = signature_lower_bound(&sig(&a), &sig(&b), &cfg(), &space);
        assert_eq!(lb, 0.0, "aliased occupancies must not claim a gap");
        // The hull bound still sees the separation: the tiers complement
        // each other rather than subsume one another.
        let hull = stretch_lower_bound(&StretchHull::of(&a), &StretchHull::of(&b), &cfg());
        assert!(hull > 0.0);
    }

    #[test]
    fn fully_separated_axis_saturates_like_the_hull_bound() {
        // Far beyond both caps on every axis: the signature proves the
        // saturated bound w_σ + w_τ = 1 exactly, matching the hull bound.
        let a = Fingerprint::from_points(0, &[(0, 0, 100)]).unwrap();
        let b = Fingerprint::from_points(1, &[(100_000, 0, 20_000)]).unwrap();
        let space = SignatureSpace::of(&cfg());
        let lb = signature_lower_bound(&sig(&a), &sig(&b), &cfg(), &space);
        assert_eq!(lb, 1.0);
        let exact = fingerprint_stretch(&a, &b, &cfg());
        assert!(lb <= exact + 1e-12);
    }

    #[test]
    fn wide_samples_saturate_the_ring() {
        // A sample spanning more than the whole ring occupies every bucket;
        // every pair then overlaps and the bound is 0.
        let space = SignatureSpace::of(&cfg());
        let wide = Fingerprint::with_users(
            vec![0],
            vec![crate::model::Sample::new(0, 0, 2_000_000, 100, 0, 1).unwrap()],
        )
        .unwrap();
        let far = Fingerprint::from_points(1, &[(5_000_000, 0, 0)]).unwrap();
        let lb = signature_lower_bound(&sig(&wide), &sig(&far), &cfg(), &space);
        assert_eq!(lb, 0.0);
    }

    fn sample(x: i64, y: i64, t: u32) -> Sample {
        Sample::new(x, y, 100, 100, t, 5).unwrap()
    }

    #[test]
    fn store_round_trips_bit_identically() {
        let mut store = SampleStore::new();
        let a = vec![sample(-5_000, 3_000, 10), sample(120_000, -40, 500)];
        let b = vec![sample(7, 7, 0)];
        let sa = store.push(&a);
        let sb = store.push(&b);
        assert_eq!(store.materialize(sa), a);
        assert_eq!(store.materialize(sb), b);
        // Both fit one shared page: 24 bytes per sample.
        assert_eq!(store.resident_pages(), 1);
        assert_eq!(store.bytes(), 3 * 24);
        // The slice reads the same values the materialization does.
        let slice = store.slice(sa);
        assert_eq!(slice.len(), 2);
        assert_eq!(slice.get(1), a[1]);
    }

    #[test]
    fn store_opens_new_page_when_full() {
        let mut store = SampleStore::new();
        let big: Vec<Sample> = (0..PAGE_SAMPLES).map(|i| sample(0, 0, i as u32)).collect();
        let span_big = store.push(&big);
        let span_one = store.push(&[sample(1, 1, 1)]);
        assert_eq!(store.resident_pages(), 2, "full page forces a new one");
        assert_eq!(store.materialize(span_big), big);
        assert_eq!(store.materialize(span_one), vec![sample(1, 1, 1)]);
    }

    #[test]
    fn oversized_fingerprint_gets_a_dedicated_page() {
        let mut store = SampleStore::new();
        store.push(&[sample(0, 0, 0)]);
        let huge: Vec<Sample> = (0..PAGE_SAMPLES + 7)
            .map(|i| sample(i as i64, 0, i as u32))
            .collect();
        let span = store.push(&huge);
        assert_eq!(span.len(), PAGE_SAMPLES + 7);
        assert_eq!(store.materialize(span), huge);
        assert_eq!(store.resident_pages(), 2);
    }

    #[test]
    fn continental_span_takes_the_wide_path() {
        let mut store = SampleStore::new();
        // Two samples further apart than a u32 offset window can encode.
        let far = vec![sample(0, 0, 0), sample(i64::from(u32::MAX) + 10, 0, 9)];
        let span = store.push(&far);
        assert_eq!(store.materialize(span), far);
        assert_eq!(store.bytes(), 2 * 32, "wide samples cost full width");
        // A later normal fingerprint still packs.
        let near = vec![sample(5, 5, 5)];
        let span2 = store.push(&near);
        assert_eq!(store.materialize(span2), near);
    }

    #[test]
    fn rebuilt_keeps_only_live_spans() {
        let mut store = SampleStore::new();
        let a = vec![sample(0, 0, 0), sample(10, 10, 10)];
        let b = vec![sample(999, -999, 77)];
        let c = vec![sample(-3, 4, 5)];
        let sa = store.push(&a);
        let _sb = store.push(&b);
        let sc = store.push(&c);
        let (compacted, spans) = store.rebuilt(&[sa, sc]);
        assert_eq!(spans.len(), 2);
        assert_eq!(compacted.materialize(spans[0]), a);
        assert_eq!(compacted.materialize(spans[1]), c);
        assert_eq!(compacted.bytes(), 3 * 24, "b's samples were dropped");
    }

    #[test]
    fn negative_offsets_from_page_base_force_a_new_page() {
        let mut store = SampleStore::new();
        let first = store.push(&[sample(1_000, 1_000, 0)]);
        // Below the open page's base corner: must not be encoded as a
        // (wrapping) negative offset.
        let second = store.push(&[sample(-50, 2_000, 1)]);
        assert_eq!(store.materialize(first), vec![sample(1_000, 1_000, 0)]);
        assert_eq!(store.materialize(second), vec![sample(-50, 2_000, 1)]);
        assert_eq!(store.resident_pages(), 2);
    }

    #[test]
    fn kernels_read_store_slices_bit_identically() {
        let cfg = cfg();
        let a = Fingerprint::from_points(0, &[(0, 0, 480), (5_000, 0, 1_020)]).unwrap();
        let b = Fingerprint::from_points(1, &[(200, 0, 490), (5_100, 0, 1_050)]).unwrap();
        let mut store = SampleStore::new();
        let sa = store.push(a.samples());
        let sb = store.push(b.samples());
        let oa = crate::stretch::StretchOperand {
            samples: store.slice(sa),
            multiplicity: a.multiplicity(),
        };
        let ob = crate::stretch::StretchOperand {
            samples: store.slice(sb),
            multiplicity: b.multiplicity(),
        };
        let via_store = crate::stretch::fingerprint_stretch_seq(oa, ob, &cfg);
        let via_vec = fingerprint_stretch(&a, &b, &cfg);
        assert_eq!(via_store.to_bits(), via_vec.to_bits());
        // Signatures built from the slice match those built from the
        // fingerprint.
        let space = SignatureSpace::of(&cfg);
        assert_eq!(
            CompactSignature::of_seq(store.slice(sa), &space),
            CompactSignature::of(&a, &space)
        );
    }
}
