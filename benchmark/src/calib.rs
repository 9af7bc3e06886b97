//! The calibration kernel: how fast is the box *right now*?
//!
//! The reference box is a shared two-core VM whose speed switches, every
//! few seconds, between a quiet regime and one about 23 % slower. Every
//! code path slows by the same factor (measured: correlation 0.92 between
//! a Fig 4.2 pass and the kernel samples around it), so a best-of-N or a
//! median over a ten-second run mostly reports which regime the run met.
//! The harness therefore times a fixed, simulator-independent kernel right
//! before and after every timed part and reports times in *calibrated
//! seconds*: `elapsed x NOMINAL / kernel time`, the seconds the part would
//! take on the reference box while it is quiet. A change to the simulator
//! cannot move the kernel; a noisy neighbour moves both and cancels.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

/// What one [`Kernel::sample`] takes on the quiet reference box, by
/// definition of the calibrated second.
pub const NOMINAL_S: f64 = 0.005;

/// Dependent random loads and multiplies over a 256 KiB table: long enough
/// (~5 ms) to average out timer and interrupt jitter, short enough to run
/// between any two parts of a pass, and touching the core's execution
/// ports and its private caches like the simulator's hot loop does.
pub struct Kernel {
    table: Vec<u64>,
    state: u64,
    spent_s: f64,
}

const WORDS: usize = 1 << 15;
const STEPS: u64 = 1_000_000;

impl Kernel {
    pub fn new() -> Self {
        let start = Instant::now();
        let mut s = 0x9E37_79B9_7F4A_7C15_u64;
        let table = (0..WORDS)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            })
            .collect();
        let mut kernel = Kernel {
            table,
            state: 1,
            spent_s: 0.0,
        };
        kernel.sample(); // first touch of the table is not a sample
        kernel.spent_s = start.elapsed().as_secs_f64();
        kernel
    }

    /// Seconds this kernel has cost so far, set-up included: what a caller
    /// timing a whole process subtracts to get the time spent on real work.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.state;
        for _ in 0..STEPS {
            let i = (x as usize) & (WORDS - 1);
            x = x.rotate_left(5) ^ self.table[i].wrapping_mul(0x2545_F491_4F6C_DD1D);
            self.table[i] = x;
        }
        self.state = black_box(x);
        let elapsed = start.elapsed().as_secs_f64();
        self.spent_s += elapsed;
        elapsed
    }
}

/// `elapsed` seconds measured between two kernel samples, in calibrated
/// seconds.
pub fn calibrated(elapsed: f64, before: f64, after: f64) -> f64 {
    elapsed * NOMINAL_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_cancels_a_uniform_slowdown() {
        let quiet = calibrated(0.300, 0.005, 0.005);
        let noisy = calibrated(0.369, 0.00615, 0.00615);
        assert!((quiet - 0.300).abs() < 1e-12);
        assert!((noisy - quiet).abs() < 1e-9);
    }

    #[test]
    fn kernel_takes_time_and_keeps_state() {
        let mut k = Kernel::new();
        let before = k.state;
        let spent = k.spent_s();
        let sample = k.sample();
        assert!(sample > 0.0);
        assert_ne!(k.state, before);
        assert!(k.spent_s() >= spent + sample);
    }
}
