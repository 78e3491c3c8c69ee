//! # cyclesql-rng
//!
//! The seeded generators every number in this reproduction comes from.
//! Suite generation, the simulated models' beams and verifier training all
//! draw from [`StdRng`] streams, so its exact output is part of the method:
//! a table, a golden or a benchmark figure is a function of it.
//!
//! - [`StdRng`]: ChaCha12 with a 64-bit block counter, read through a
//!   buffer of four blocks, keyed by a PCG32 stream from a `u64` seed. Its
//!   samplers use rand 0.8's algorithms: widening-multiply rejection for
//!   integer ranges, the `[1, 2)` mantissa construction for float ranges,
//!   a 2⁶⁴-scaled threshold for Bernoulli draws, and Fisher–Yates shuffles.
//! - [`SplitMix64`]: one `u64` of state, for the fuzz harness and the
//!   property tests, whose cases must reproduce from a printed seed.
//!
//! ```
//! use cyclesql_rng::StdRng;
//!
//! let mut a = StdRng::seed_from_u64(7);
//! let mut b = StdRng::seed_from_u64(7);
//! assert_eq!(a.gen_range(0..10usize), b.gen_range(0..10usize));
//! ```

use std::ops::{Range, RangeInclusive};

/// Words per buffer refill: four 16-word ChaCha blocks.
const BUF_WORDS: usize = 64;

/// The seeded ChaCha12 generator.
#[derive(Clone, Debug)]
pub struct StdRng {
    key: [u32; 8],
    /// Block counter of the next refill.
    counter: u64,
    buf: [u32; BUF_WORDS],
    /// Next unread word of `buf`; `BUF_WORDS` when it is used up.
    index: usize,
}

impl StdRng {
    /// A generator whose key is the first eight outputs of a PCG32 stream
    /// seeded with `state`.
    pub fn seed_from_u64(mut state: u64) -> StdRng {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut key = [0u32; 8];
        for word in &mut key {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            *word = xorshifted.rotate_right((state >> 59) as u32);
        }
        StdRng {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }

    /// The next 32 bits of the stream.
    pub fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let word = self.buf[self.index];
        self.index += 1;
        word
    }

    /// The next 64 bits of the stream: two words, low half first (across a
    /// refill when only one word is left).
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32();
        let hi = self.next_u32();
        (u64::from(hi) << 32) | u64::from(lo)
    }

    /// A uniform draw from `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// When the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`. `p == 1.0` consumes no randomness.
    ///
    /// # Panics
    ///
    /// When `p` is outside `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool: p={p} is outside [0, 1]"
        );
        if p == 1.0 {
            return true;
        }
        const SCALE: f64 = 2.0 * (1u64 << 63) as f64;
        self.next_u64() < (p * SCALE) as u64
    }

    /// Shuffles `slice` in place (Fisher–Yates, from the back).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            slice.get(self.gen_index(slice.len()))
        }
    }

    /// Uniform in `0..bound`, drawing 32 bits when the bound fits in them.
    fn gen_index(&mut self, bound: usize) -> usize {
        match u32::try_from(bound) {
            Ok(bound) => self.gen_range(0..bound) as usize,
            Err(_) => self.gen_range(0..bound),
        }
    }

    fn refill(&mut self) {
        for (i, block) in self.buf.chunks_exact_mut(16).enumerate() {
            chacha12_block(&self.key, self.counter.wrapping_add(i as u64), block);
        }
        self.counter = self.counter.wrapping_add(4);
        self.index = 0;
    }
}

fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One ChaCha block with 12 rounds and a zero stream id into `out`.
fn chacha12_block(key: &[u32; 8], counter: u64, out: &mut [u32]) {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    let initial = state;
    for _ in 0..6 {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for ((o, s), i) in out.iter_mut().zip(state).zip(initial) {
        *o = s.wrapping_add(i);
    }
}

/// A range [`StdRng::gen_range`] draws from.
pub trait SampleRange<T> {
    /// One uniform draw.
    fn sample(self, rng: &mut StdRng) -> T;
}

/// Uniform in `0..range` (`range > 0`) by widening-multiply rejection.
fn below_u32(rng: &mut StdRng, range: u32) -> u32 {
    let zone = (range << range.leading_zeros()).wrapping_sub(1);
    loop {
        let m = u64::from(rng.next_u32()) * u64::from(range);
        if m as u32 <= zone {
            return (m >> 32) as u32;
        }
    }
}

/// [`below_u32`] over 64-bit draws.
fn below_u64(rng: &mut StdRng, range: u64) -> u64 {
    let zone = (range << range.leading_zeros()).wrapping_sub(1);
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(range);
        if m as u64 <= zone {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_ranges {
    ($($ty:ty => $unsigned:ty, $below:ident, $draw:ident;)*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample(self, rng: &mut StdRng) -> $ty {
                assert!(self.start < self.end, "gen_range: empty range");
                let range = self.end.wrapping_sub(self.start) as $unsigned;
                self.start.wrapping_add($below(rng, range) as $ty)
            }
        }

        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample(self, rng: &mut StdRng) -> $ty {
                let (low, high) = self.into_inner();
                assert!(low <= high, "gen_range: empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned;
                if range == 0 {
                    // The whole domain: every draw is a uniform value.
                    return rng.$draw() as $ty;
                }
                low.wrapping_add($below(rng, range) as $ty)
            }
        }
    )*};
}

int_ranges! {
    i32 => u32, below_u32, next_u32;
    u32 => u32, below_u32, next_u32;
    i64 => u64, below_u64, next_u64;
    usize => u64, below_u64, next_u64;
}

/// Uniform in `[0, 1)` from the top 52 bits of a draw.
fn unit_f64(rng: &mut StdRng) -> f64 {
    f64::from_bits((1023u64 << 52) | (rng.next_u64() >> 12)) - 1.0
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut StdRng) -> f64 {
        let (low, high) = (self.start, self.end);
        assert!(low < high, "gen_range: empty range");
        let mut scale = high - low;
        loop {
            let x = unit_f64(rng) * scale + low;
            if x < high {
                return x;
            }
            // Rounding reached `high`: shrink the scale by one ulp, redraw.
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample(self, rng: &mut StdRng) -> f64 {
        let (low, high) = self.into_inner();
        assert!(low <= high, "gen_range: empty range");
        unit_f64(rng) * (high - low) + low
    }
}

/// SplitMix64: a 64-bit counter through a mixing function.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// In `0..n` (`n > 0`), by modulo.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }

    /// An element of the non-empty `xs`.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// 64-bit FNV-1a of `bytes`: the workspace's one stable string hash.
/// Simulator seeds, verifier noise, shard placement and SQL digests are
/// all functions of it, so it must never change.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash `h` over more `bytes`:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    //! Known answers: the first outputs of each sampler, pinned so any
    //! change to the streams the suites and models draw from shows here.

    use super::*;

    #[test]
    fn seed_from_u64_streams() {
        let mut r = StdRng::seed_from_u64(0);
        let words: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            words,
            [
                13486662071293341567,
                14267822071968393595,
                476749353381333526
            ]
        );
        let words: Vec<u32> = (0..3).map(|_| r.next_u32()).collect();
        assert_eq!(words, [2883974864, 2508944925, 3739319057]);

        let mut r = StdRng::seed_from_u64(0xC1C1_E50F);
        let words: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            words,
            [
                13978367460361432655,
                4323958350940570338,
                10900790826497258238
            ]
        );
        let words: Vec<u32> = (0..3).map(|_| r.next_u32()).collect();
        assert_eq!(words, [2858664302, 3851585579, 2851726008]);
    }

    /// One stream through every sampler, in order: each draw shifts the
    /// ones after it, so the sequence pins consumption as well as values.
    #[test]
    fn samplers_known_answers() {
        let mut r = StdRng::seed_from_u64(7);
        let v: Vec<usize> = (0..5).map(|_| r.gen_range(0..10usize)).collect();
        assert_eq!(v, [0, 3, 1, 5, 9]);
        let v: Vec<usize> = (0..5).map(|_| r.gen_range(2..=5usize)).collect();
        assert_eq!(v, [3, 2, 2, 3, 4]);
        let v: Vec<i64> = (0..5).map(|_| r.gen_range(-50..50i64)).collect();
        assert_eq!(v, [0, 14, -9, 28, -27]);
        let v: Vec<i64> = (0..5).map(|_| r.gen_range(1900..=2020i64)).collect();
        assert_eq!(v, [1932, 2008, 1903, 2012, 1950]);
        let v: Vec<f64> = (0..3).map(|_| r.gen_range(-0.4..0.4)).collect();
        assert_eq!(
            v,
            [
                -0.030091842726599982,
                0.3647403618637993,
                -0.15328283867128595
            ]
        );
        let v: Vec<f64> = (0..3).map(|_| r.gen_range(1.0..=100.0)).collect();
        assert_eq!(
            v,
            [56.829983305739695, 2.3616051134054064, 68.03082770626007]
        );
        let v: Vec<bool> = (0..10).map(|_| r.gen_bool(0.6)).collect();
        assert_eq!(
            v,
            [true, true, true, true, false, true, false, true, false, true]
        );
        let mut v: Vec<u32> = (0..10).collect();
        r.shuffle(&mut v);
        assert_eq!(v, [5, 3, 9, 6, 4, 1, 0, 2, 8, 7]);
        let items = ["a", "b", "c", "d", "e"];
        let v: Vec<&str> = (0..5).map(|_| *r.choose(&items).unwrap()).collect();
        assert_eq!(v, ["a", "a", "b", "e", "e"]);
    }

    #[test]
    fn next_u64_spans_a_refill() {
        // After 63 words one is left: the draw takes it as the low half and
        // the first word of the next four blocks as the high half.
        let mut words = StdRng::seed_from_u64(3);
        let flat: Vec<u32> = (0..66).map(|_| words.next_u32()).collect();
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..63 {
            r.next_u32();
        }
        assert_eq!(
            r.next_u64(),
            (u64::from(flat[64]) << 32) | u64::from(flat[63])
        );
        assert_eq!(r.next_u32(), flat[65]);
    }

    #[test]
    fn certain_event_consumes_nothing() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert!(a.gen_bool(1.0));
        assert!(!a.gen_bool(0.0));
        b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn splitmix_known_answers() {
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
