//! Host-speed probe: a fixed loop, independent of the repository's code,
//! timed beside the measured work so that end-to-end times can be
//! reported at the host's reference speed.
//!
//! The reference host is shared, and neighbours' use of its last-level
//! cache and memory slows the simulator by up to a fifth for seconds at a
//! time. A cache-resident arithmetic loop barely notices this; a random
//! walk over a buffer larger than the private caches slows in step with
//! the simulator (its time over the simulator's stays within a few
//! percent while both move by 20%). So each measured time is divided by
//! [`Probe::factor`], the probe's time next to it over its time on a quiet
//! reference host ([`REFERENCE_S`]). The raw times are printed beside the
//! metrics.

use crate::median;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Probe buffer, in 64-bit words: 4 MiB, beyond the private caches.
const WORDS: usize = 1 << 19;
/// The probe buffer's size in MiB. It is resident for the whole timed
/// phase and is left out of `peak_rss_mb`.
pub const MIB: f64 = (WORDS * 8) as f64 / (1024.0 * 1024.0);
/// Random accesses per probe.
const STEPS: u64 = 400_000;
/// One probe's time on the reference host (2-vCPU Intel Xeon VM at
/// 2.1 GHz) when its neighbours are quiet.
pub const REFERENCE_S: f64 = 3.6e-3;
/// Pause between probes of a [`Sampler`].
const SAMPLER_GAP: Duration = Duration::from_millis(100);

/// The probe loop and its buffer.
pub struct Probe {
    buf: Vec<u64>,
}

impl Probe {
    /// A probe with its buffer allocated and every page touched.
    pub fn new() -> Self {
        Self {
            buf: vec![1; WORDS],
        }
    }

    /// Moves the buffer out into a new probe, leaving this one empty until
    /// it is given a buffer back.
    fn take(&mut self) -> Probe {
        Probe {
            buf: std::mem::take(&mut self.buf),
        }
    }

    /// Runs the loop once: xorshift-indexed reads and writes with a
    /// data-dependent branch.
    fn walk(&mut self) {
        let mask = self.buf.len() - 1;
        let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            let v = self.buf[i];
            self.buf[i] = v.wrapping_add(x);
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                acc ^= x.rotate_left(7);
            }
        }
        black_box(acc);
    }

    /// Host slowness now: one probe's wall time over [`REFERENCE_S`].
    pub fn factor(&mut self) -> f64 {
        let t = Instant::now();
        self.walk();
        t.elapsed().as_secs_f64() / REFERENCE_S
    }
}

/// CPU time of the calling thread, in seconds.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// Probes on a thread of its own while multi-threaded work runs, every
/// [`SAMPLER_GAP`]. It times each probe by its thread's CPU time, so time
/// spent waiting for a core the workers hold is not counted.
pub struct Sampler<'a> {
    probe: &'a mut Probe,
    stop: Arc<AtomicBool>,
    factors: Arc<Mutex<Vec<f64>>>,
    handle: JoinHandle<Probe>,
}

impl<'a> Sampler<'a> {
    /// Starts sampling with `probe`'s buffer, which it hands back in
    /// [`Sampler::finish`].
    pub fn start(probe: &'a mut Probe) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let factors = Arc::new(Mutex::new(Vec::new()));
        let handle = {
            let (stop, factors) = (Arc::clone(&stop), Arc::clone(&factors));
            let mut probe = probe.take();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let t = thread_cpu_s();
                    probe.walk();
                    let factor = (thread_cpu_s() - t) / REFERENCE_S;
                    factors.lock().expect("sampler lock").push(factor);
                    std::thread::sleep(SAMPLER_GAP);
                }
                probe
            })
        };
        Self {
            probe,
            stop,
            factors,
            handle,
        }
    }

    /// Stops sampling, waits for the thread, and returns the median
    /// factor (NaN when no probe finished).
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        *self.probe = self.handle.join().expect("sampler thread");
        let factors = self.factors.lock().expect("sampler lock");
        median(&factors)
    }
}
