//! The seeded case runner every randomized test in the workspace runs on.
//!
//! A case is a function of one [`Rng`]. [`cases`] first replays a file's
//! `REGRESSIONS` seeds, then runs `n` more:
//! - [`Seeds::Fixed`]: seeds `0..n`, the same cases on every run. This is
//!   the `#[test]` the tier-1 command runs.
//! - [`Seeds::Clock`]: `n` seeds from a stream keyed by the clock, new
//!   cases on every run. Each file has one such `#[ignore]` test, run in
//!   release with `--ignored`.
//!
//! A case that panics prints the line that replays it, `add to
//! REGRESSIONS: 0x…,`. Pasted into the file's list, the seed runs first
//! from then on. Nothing shrinks, and no environment variable steers a run.

use std::ops::Range;
use std::time::{SystemTime, UNIX_EPOCH};

/// SplitMix64's finaliser.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream.
pub struct Rng(pub u64);

impl Rng {
    // An endless stream is not an `Iterator`: every draw would be an
    // `Option` to unwrap.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }

    /// A uniform draw in `[lo, hi)`.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// A uniform draw from `range`.
    pub fn int(&mut self, range: Range<usize>) -> usize {
        range.start + self.below(range.len())
    }

    /// Random bytes, as many as a draw from `len`.
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        (0..self.int(len)).map(|_| self.next() as u8).collect()
    }
}

/// Where [`cases`] draws the seeds it runs after the regressions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Seeds {
    /// `0..n`: the same cases on every run.
    Fixed,
    /// `n` draws from a stream keyed by the clock: new cases on every run.
    Clock,
}

/// Runs `case` on `Rng(seed)` for every seed of `regressions`, then for `n`
/// seeds drawn as `seeds` says. A case that panics prints the seed to add
/// to `REGRESSIONS` before the panic goes on.
pub fn cases(regressions: &[u64], seeds: Seeds, n: u64, mut case: impl FnMut(&mut Rng)) {
    let mut clock = Rng(match seeds {
        Seeds::Fixed => 0,
        Seeds::Clock => {
            let now = SystemTime::now().duration_since(UNIX_EPOCH);
            now.expect("after 1970").as_nanos() as u64
        }
    });
    let fresh = (0..n).map(|i| if seeds == Seeds::Fixed { i } else { clock.next() });
    for seed in regressions.iter().copied().chain(fresh) {
        let _line = ReplayLine(seed);
        case(&mut Rng(seed));
    }
}

/// Prints, when the case it guards panics, the line that replays it.
struct ReplayLine(u64);

impl Drop for ReplayLine {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("add to REGRESSIONS: {:#x},", self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_splitmix64() {
        // SplitMix64's first output from state 0, as its reference code
        // prints it; the lattice's worlds depend on this stream.
        assert_eq!(mix(0), 0xE220_A839_7B1D_CDAF);
        let mut rng = Rng(41);
        assert_eq!((rng.next(), rng.0), (mix(42), 42));
    }

    #[test]
    fn regressions_run_first_then_fixed_seeds() {
        let mut seen = Vec::new();
        cases(&[7, 9], Seeds::Fixed, 3, |rng| seen.push(rng.0));
        assert_eq!(seen, [7, 9, 0, 1, 2]);
    }

    #[test]
    fn clock_seeds_are_drawn_fresh() {
        let mut seen = Vec::new();
        cases(&[5], Seeds::Clock, 4, |rng| seen.push(rng.0));
        assert_eq!((seen.len(), seen[0]), (5, 5));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 5);
    }
}
