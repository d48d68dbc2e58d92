//! Samples, quantiles, the seeded generator, the machine-speed references
//! and process memory.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::sys;

/// Every sample of one timed operation, kept whole so quantiles are exact.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            values: Vec::with_capacity(n),
            sorted: false,
        }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`; 0 when there are no samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.at_rank((q * 1000.0).round() as usize)
    }

    /// The sample at nearest rank `ceil(n · per_mille / 1000)`.
    fn at_rank(&mut self, per_mille: usize) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let n = self.values.len();
        let rank = (per_mille * n).div_ceil(1000).clamp(1, n);
        self.values[rank - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest of p50/p90/p99/p99.9 that leaves at least ten samples
    /// above it, as `(percentile, value)`; `None` below 20 samples.
    pub fn tail(&mut self) -> Option<(f64, f64)> {
        let n = self.values.len();
        let per_mille = [999, 990, 900, 500]
            .into_iter()
            .find(|q| n - (q * n).div_ceil(1000) >= 10)?;
        Some((per_mille as f64 / 10.0, self.at_rank(per_mille)))
    }
}

/// The median of `values`; 0 when there are none.
pub fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut s = Samples::default();
    values.into_iter().for_each(|v| s.push(v));
    s.median()
}

/// splitmix64: the benchmark's only source of randomness, so one seed
/// fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The time of [`reference_ns`] that counts as slowdown 1: about its
/// fastest on a 2-vCPU Xeon (Sapphire Rapids) KVM guest. Scaled timings
/// read as at this speed; it is fixed so they compare across commits.
const REFERENCE_NOMINAL_NS: f64 = 1.0e6;

/// Elements the reference sorts: 512 KiB, inside a core's L2.
const REFERENCE_LEN: usize = 1 << 16;

/// The reference computation: fill `scratch` from a fixed sequence and
/// sort it. It shares no code with the repository and allocates nothing
/// after the first call.
fn reference(scratch: &mut Vec<u64>) {
    scratch.resize(REFERENCE_LEN, 0);
    let mut x = 1u64;
    for v in scratch.iter_mut() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *v = x >> 17;
    }
    scratch.sort_unstable();
    std::hint::black_box(scratch[REFERENCE_LEN / 2]);
}

/// Wall time of the reference, ns: about a millisecond. It runs once
/// untimed first, so the timed run finds its buffer in cache whatever
/// the work before it left there.
fn reference_ns(scratch: &mut Vec<u64>) -> f64 {
    reference(scratch);
    let t0 = Instant::now();
    reference(scratch);
    t0.elapsed().as_nanos() as f64
}

/// The [`PingPong`] round trip that counts as slowdown 1, on the same
/// guest as [`REFERENCE_NOMINAL_NS`].
const WAKE_NOMINAL_NS: f64 = 16_000.0;

/// Round trips taken per reading; the reading is their median.
const ROUND_TRIPS: usize = 100;

/// The wake-up reference: one byte sent over loopback TCP to a helper
/// thread on other CPUs and echoed back. Each round trip is two thread
/// wake-ups and four socket calls, as a cache-hit request is, and no code
/// of the repository.
struct PingPong {
    stream: TcpStream,
    helper: Option<JoinHandle<()>>,
}

impl PingPong {
    fn start(cpus: &[usize]) -> io::Result<PingPong> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        stream.set_nodelay(true)?;
        let (mut echo, _) = listener.accept()?;
        echo.set_nodelay(true)?;
        let cpus = cpus.to_vec();
        let helper = std::thread::spawn(move || {
            // Best effort: an unpinned helper is only a noisier one.
            let _ = sys::pin(&cpus);
            let mut byte = [0u8];
            // Ends when the other side shuts the connection down.
            while echo.read_exact(&mut byte).is_ok() && echo.write_all(&byte).is_ok() {}
        });
        Ok(PingPong {
            stream,
            helper: Some(helper),
        })
    }

    /// The median of [`ROUND_TRIPS`] round trips, ns.
    fn round_trip_ns(&mut self) -> f64 {
        let mut times = Samples::with_capacity(ROUND_TRIPS);
        let mut byte = [1u8];
        for _ in 0..ROUND_TRIPS {
            let t0 = Instant::now();
            if self.stream.write_all(&byte).is_err() || self.stream.read_exact(&mut byte).is_err() {
                return f64::NAN;
            }
            times.push(t0.elapsed().as_nanos() as f64);
        }
        times.median()
    }
}

impl Drop for PingPong {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(helper) = self.helper.take() {
            let _ = helper.join();
        }
    }
}

/// Which series a timing belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Series {
    Setup,
    Op,
    Alt,
}

/// Timings scaled to the reference machine speed.
///
/// On a shared host a core runs up to half slower for bursts of a tenth
/// of a second to minutes, as neighbours contend for it. Timings are held
/// until [`Speed::settle`] reads the reference again, then divided by the
/// mean slowdown it showed before and after them, so a burst slows the
/// reference as much as the work around it. The reference runs only
/// between timings, never beside the work.
pub struct Speed {
    /// The slowdown just now (1 = nominal speed).
    reference: Box<dyn FnMut() -> f64>,
    before: f64,
    pending: Vec<(Series, f64)>,
    pub setup: Samples,
    pub op: Samples,
    pub alt: Samples,
    /// The slowdown applied at each settle.
    pub slowdown: Samples,
}

impl Speed {
    /// Scaled by the sort, on the calling thread: for compute on one
    /// thread.
    pub fn sort() -> Speed {
        let mut scratch = Vec::new();
        Speed::with(Box::new(move || {
            reference_ns(&mut scratch) / REFERENCE_NOMINAL_NS
        }))
    }

    /// Scaled by round trips from the calling thread to a thread on
    /// `cpus`: for requests that are mostly wake-ups. The caller must
    /// keep `cpus` idle at every settle.
    pub fn wake_ups(cpus: &[usize]) -> io::Result<Speed> {
        let mut ping = PingPong::start(cpus)?;
        Ok(Speed::with(Box::new(move || {
            ping.round_trip_ns() / WAKE_NOMINAL_NS
        })))
    }

    fn with(mut reference: Box<dyn FnMut() -> f64>) -> Speed {
        Speed {
            before: reference(),
            reference,
            pending: Vec::new(),
            setup: Samples::default(),
            op: Samples::default(),
            alt: Samples::default(),
            slowdown: Samples::default(),
        }
    }

    pub fn record(&mut self, series: Series, value: f64) {
        self.pending.push((series, value));
    }

    /// Read the reference and release the held timings, scaled.
    pub fn settle(&mut self) {
        let now = (self.reference)();
        let slow = (self.before + now) / 2.0;
        self.before = now;
        self.slowdown.push(slow);
        for (series, v) in self.pending.drain(..) {
            match series {
                Series::Setup => self.setup.push(v / slow),
                Series::Op => self.op.push(v / slow),
                Series::Alt => self.alt.push(v / slow),
            }
        }
    }

    /// Take the op and alt timings released so far.
    pub fn take(&mut self) -> (Samples, Samples) {
        (std::mem::take(&mut self.op), std::mem::take(&mut self.alt))
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for v in (1..=n).rev() {
            s.push(v as f64);
        }
        s
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut s = samples(100);
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(samples(19).tail(), None);
        assert_eq!(samples(20).tail(), Some((50.0, 10.0)));
        assert_eq!(samples(99).tail(), Some((50.0, 50.0)));
        assert_eq!(samples(100).tail(), Some((90.0, 90.0)));
        assert_eq!(samples(999).tail(), Some((90.0, 900.0)));
        assert_eq!(samples(1000).tail(), Some((99.0, 990.0)));
        assert_eq!(samples(10_000).tail(), Some((99.9, 9990.0)));
    }

    #[test]
    fn speed_scales_held_timings_by_the_reference() {
        let mut s = Speed::sort();
        s.record(Series::Op, 100.0);
        s.record(Series::Setup, 2.0);
        assert_eq!(s.op.len(), 0, "held until the next settle");
        s.settle();
        let slow = s.slowdown.median();
        assert!(slow > 0.0);
        assert!((s.op.median() - 100.0 / slow).abs() < 1e-9);
        assert!((s.setup.median() - 2.0 / slow).abs() < 1e-9);
        let (op, alt) = s.take();
        assert_eq!((op.len(), alt.len(), s.op.len()), (1, 0, 0));
    }

    #[test]
    fn wake_up_reference_reads_and_stops_its_helper() {
        let cpus = crate::sys::allowed_cpus();
        let mut s = Speed::wake_ups(&cpus[cpus.len() - 1..]).expect("loopback");
        s.record(Series::Op, 10.0);
        s.settle();
        let slow = s.slowdown.median();
        assert!(slow.is_finite() && slow > 0.0, "slowdown {slow}");
        // Dropping it shuts the connection and joins the helper thread.
        drop(s);
    }

    #[test]
    fn rng_is_seeded_and_shuffle_permutes() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        let mut xs: Vec<usize> = (0..50).collect();
        Rng::new(1).shuffle(&mut xs);
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
        xs.sort();
        assert_eq!(xs, (0..50).collect::<Vec<_>>());
    }
}
