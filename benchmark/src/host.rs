//! What the benchmark knows about the machine it runs on: the frozen
//! reference kernel every timing is normalised by, a STREAM-style triad
//! for the roofline rows, cache sizes, and the process's peak memory.

use std::hint::black_box;
use std::time::Instant;

/// `LH(reference)` on the host the benchmark was calibrated on, in a quiet
/// minute, in seconds: on one thread and on two (see [`Reference`]). Timed
/// values are reported in seconds of that host: a run on a machine (or in a
/// minute) where the reference takes twice as long has its times halved.
/// Changing these constants rescales every timed metric, so they are part of
/// the benchmark's definition and never edited with a solver change.
pub const REF_NOMINAL_S: [f64; 2] = [0.0190, 0.0310];

const REF_BLOCK_ROWS: usize = 8192;
const REF_BLOCKS_PER_ROW: usize = 8;
const REF_SWEEPS: usize = 36;

/// The reference kernel: a plain CSR SpMV over a fixed synthetic matrix of
/// 3x3 dof blocks (8192 block rows x 8 blocks = 589 824 nonzeros, ~7 MB of
/// values and indices — out of L2, like the solver's fine operator). It is
/// owned by the benchmark and never calls `pmg-sparse`, so no change to the
/// solver can move it; it moves only with the machine.
struct RefSpmv {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl RefSpmv {
    fn new() -> RefSpmv {
        let n = 3 * REF_BLOCK_ROWS;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        // Fixed LCG: the matrix is the same in every run on every host.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for brow in 0..REF_BLOCK_ROWS {
            // A banded neighbourhood with a few far couplings, like a
            // mesh-ordered stiffness matrix.
            let mut bcols: Vec<usize> = (0..REF_BLOCKS_PER_ROW)
                .map(|k| {
                    if k < 6 {
                        (brow + REF_BLOCK_ROWS + k * 7 - 21) % REF_BLOCK_ROWS
                    } else {
                        next() % REF_BLOCK_ROWS
                    }
                })
                .collect();
            bcols.sort_unstable();
            for r in 0..3 {
                for &bc in &bcols {
                    for c in 0..3 {
                        col_idx.push((3 * bc + c) as u32);
                        vals.push(1.0 / (1 + (brow + r + c) % 17) as f64);
                    }
                }
                row_ptr.push(col_idx.len());
            }
        }
        RefSpmv {
            row_ptr,
            col_idx,
            vals,
            x: (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.125).collect(),
            y: vec![0.0; n],
        }
    }

    /// `y = A x`.
    fn sweep(&mut self) {
        for i in 0..self.y.len() {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.vals[k] * self.x[self.col_idx[k] as usize];
            }
            self.y[i] = acc;
        }
        black_box(&mut self.y);
    }
}

/// The reference a run's timings are normalised by: [`RefSpmv`] on as many
/// threads as the workload computes on. On one thread a sample is 36 sweeps
/// (~19 ms). On two, each thread sweeps a matrix of its own and both meet at
/// a blocking barrier after every sweep (~31 ms a sample): like two ranks,
/// the pair advances only while both virtual CPUs run, so it slows with the
/// workload when the host takes one of them away, which the one-thread
/// kernel does not see. (A barrier every eighth of a sweep, the rate at
/// which the ranks exchange messages, over-reacts: README, "Two ranks, two
/// reference threads".)
pub struct Reference {
    kernels: Vec<RefSpmv>,
    /// One sample per call to [`Reference::sample`].
    pub samples: Vec<f64>,
}

impl Reference {
    /// `threads` is 1 or 2. Pages the matrices in with an unrecorded sample.
    pub fn new(threads: usize) -> Reference {
        assert!((1..=REF_NOMINAL_S.len()).contains(&threads));
        let mut r = Reference {
            kernels: (0..threads).map(|_| RefSpmv::new()).collect(),
            samples: Vec::new(),
        };
        r.sample();
        r.samples.clear();
        r
    }

    /// Time one reference sample and record it.
    pub fn sample(&mut self) -> f64 {
        let barrier = std::sync::Barrier::new(self.kernels.len());
        let run = |k: &mut RefSpmv| {
            for _ in 0..REF_SWEEPS {
                k.sweep();
                barrier.wait();
            }
            black_box(&mut k.y);
        };
        let t = Instant::now();
        let (first, rest) = self.kernels.split_first_mut().expect("at least one thread");
        std::thread::scope(|s| {
            for k in rest {
                s.spawn(|| run(k));
            }
            run(first);
        });
        let dt = t.elapsed().as_secs_f64();
        self.samples.push(dt);
        dt
    }

    /// Nominal sample time for this reference's thread count.
    pub fn nominal_s(&self) -> f64 {
        REF_NOMINAL_S[self.kernels.len() - 1]
    }

    /// `LH(ref samples) / nominal`: how much slower than the calibration
    /// host this run's machine was.
    pub fn host_factor(&self) -> f64 {
        crate::stats::lower_half_mean(&self.samples) / self.nominal_s()
    }

    /// `(max - min) / median` of this run's reference samples.
    pub fn spread(&self) -> f64 {
        crate::stats::spread(&self.samples).range_frac
    }
}

/// Bytes of the cache at `index` of cpu0, from sysfs (0 when unreadable).
fn cache_bytes(index: usize) -> u64 {
    let read = |f: &str| {
        std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/{f}"
        ))
        .ok()
    };
    let Some(size) = read("size") else { return 0 };
    let size = size.trim();
    let (num, mult) = match size.as_bytes().last() {
        Some(b'K') => (&size[..size.len() - 1], 1 << 10),
        Some(b'M') => (&size[..size.len() - 1], 1 << 20),
        _ => (size, 1),
    };
    num.parse::<u64>().map(|v| v * mult).unwrap_or(0)
}

/// `(L2 bytes, last-level cache bytes)`; 0 for a level sysfs does not list.
pub fn cache_sizes() -> (u64, u64) {
    let mut l2 = 0;
    let mut llc = 0;
    for index in 0..8 {
        let level = std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/level"
        ))
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok());
        let bytes = cache_bytes(index);
        match level {
            Some(2) => l2 = bytes,
            Some(l) if l >= 3 => llc = llc.max(bytes),
            _ => {}
        }
    }
    (l2, llc.max(l2))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_kb(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_kb("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Current resident set of this process in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    proc_kb("/proc/self/status", "VmRSS:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Largest triad array. sysfs on a virtual machine reports the host
/// socket's whole L3 (260 MB here), of which a 2-vCPU guest holds a sliver,
/// and touching gigabytes of fresh guest memory takes this host tens of
/// seconds; 32 MB and 1 GB arrays measured the same 8.4-8.7 GB/s.
const TRIAD_MAX_ARRAY: u64 = 128 << 20;

/// STREAM triad `a = b + s c`: `(GB/s, bytes per array)`. Each array is
/// four times the last-level cache when that fits a quarter of
/// `MemAvailable` (three arrays) and [`TRIAD_MAX_ARRAY`], else as large as
/// those allow; both sizes are reported.
pub fn triad(llc_bytes: u64) -> (f64, u64) {
    let want = (4 * llc_bytes).max(32 << 20);
    let avail = proc_kb("/proc/meminfo", "MemAvailable:").map_or(want * 12, |kb| kb * 1024);
    let array_bytes = want.min(avail / 4 / 3).min(TRIAD_MAX_ARRAY);
    let n = (array_bytes / 8) as usize;
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let mut a = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for i in 0..n {
            a[i] = b[i] + 3.0 * c[i];
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (3.0 * 8.0 * n as f64 / best / 1e9, 8 * n as u64)
}
