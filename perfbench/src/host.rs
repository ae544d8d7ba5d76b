//! The host the benchmark runs on: its current speed and the process's
//! peak memory.
//!
//! A shared host's speed drifts by ±20% over tens of seconds as other
//! tenants come and go, and the drift moves every repetition in a run
//! together. [`Speed`] times a fixed native loop next to each repetition
//! and rescales the repetition's host times to a reference speed. The
//! loop is the benchmark's own code, so a change to the program cannot
//! move it.

use std::time::Instant;

/// Seconds the calibration loop takes at the reference speed: its
/// median on the 2-CPU x86-64 host the baselines in `README.md` were
/// taken on.
pub const REFERENCE_LOOP_S: f64 = 0.0037;

/// Times the calibration loop and turns host seconds into seconds at
/// the reference speed.
pub struct Speed {
    bufs: Vec<Vec<u64>>,
    last: Option<f64>,
    /// Every loop time taken, in seconds.
    pub samples: Vec<f64>,
}

impl Speed {
    /// A loop for a workload that keeps `threads` host threads busy: one
    /// copy per thread, with a 2 MiB buffer each, so the loop sees every
    /// CPU the workload runs on.
    pub fn new(threads: usize) -> Speed {
        Speed {
            bufs: (0..threads.max(1))
                .map(|_| (0..1u64 << 18).collect())
                .collect(),
            last: None,
            samples: Vec::new(),
        }
    }

    /// One timing: every copy of the loop, run side by side.
    fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let (first, rest) = self.bufs.split_first_mut().expect("at least one thread");
            for buf in rest {
                s.spawn(|| spin(buf));
            }
            spin(first);
        });
        let secs = t0.elapsed().as_secs_f64();
        self.samples.push(secs);
        secs
    }

    /// Run `f` between two loop timings and return its result with the
    /// factor that converts its host seconds to reference seconds. The
    /// loop time after one call serves as the time before the next.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last {
            Some(s) => s,
            None => self.sample(),
        };
        let out = f();
        let after = self.sample();
        self.last = Some(after);
        (out, to_reference(before, after))
    }
}

/// The loop itself: recursion-heavy integer work like an interpreter's,
/// then a million random read-modify-writes in `buf`.
fn spin(buf: &mut [u64]) {
    fn fib(n: u32) -> u64 {
        if n < 2 {
            n as u64
        } else {
            fib(n - 1) + fib(n - 2)
        }
    }
    std::hint::black_box(fib(std::hint::black_box(26)));
    let mask = buf.len() as u64 - 1;
    let mut x = 1u64;
    for _ in 0..1 << 20 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let i = ((x >> 32) & mask) as usize;
        buf[i] = buf[i].wrapping_add(x);
    }
    std::hint::black_box(buf);
}

/// The factor for work timed between loop times `before` and `after`.
pub fn to_reference(before: f64, after: f64) -> f64 {
    REFERENCE_LOOP_S / ((before + after) / 2.0)
}

/// Peak resident set of this process image, in MiB: `VmHWM` from the
/// kernel's status page for the process. (`getrusage` would also count
/// the parent's resident set at `fork`, e.g. `cargo run`'s.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs status page");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in kB");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_scales_times_down_and_a_fast_one_up() {
        let r = REFERENCE_LOOP_S;
        assert_eq!(to_reference(r, r), 1.0);
        assert_eq!(to_reference(2.0 * r, 2.0 * r), 0.5);
        assert_eq!(to_reference(0.5 * r, 0.5 * r), 2.0);
        assert_eq!(to_reference(r, 3.0 * r), 0.5);
    }

    #[test]
    fn around_reuses_the_closing_sample() {
        let mut s = Speed::new(2);
        let (v, f) = s.around(|| 7);
        assert_eq!(v, 7);
        assert!(f.is_finite() && f > 0.0);
        s.around(|| ());
        assert_eq!(s.samples.len(), 3, "two calls share the middle sample");
        assert!(peak_rss_mb() >= 2.0, "the loop's buffer is resident");
    }
}
