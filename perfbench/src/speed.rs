//! Host-speed reference. Shared hosts run in speed regimes that last from
//! milliseconds to minutes: on the 2-vCPU host this benchmark was written
//! on (Xeon, 48 KiB L1d and 2 MiB L2 per core), the simulator runs up to
//! 2.3× slower in a slow regime, with thread CPU time equal to wall time,
//! so the slowdown is not descheduling but slower execution. A fixed
//! kernel, independent of the program measured, is timed alongside every
//! timed stretch of work — right before and right after it, and for a
//! multi-threaded subprocess also while it runs — and the stretch's time
//! is rescaled by the host speed those slices saw, so that the end-to-end
//! numbers compare across runs made in different regimes.
//!
//! Two kernels, one per kind of work. [`Speedometer`] tracks the
//! simulator: four independent streams of loads from a table the size of
//! the L1 data cache, with data-dependent branches and a store per step.
//! It slows down in a slow regime by about as much as the simulator does,
//! while kernels whose data sits in L2 or DRAM, or that chain dependent
//! arithmetic, slow down by a fraction of that (over five minutes of
//! lockstep passes, rescaling by this kernel cut the pass-to-pass spread
//! from 29 % to 8 %; by an L2-resident table walk, only to 19 %).
//! [`FileSpeedometer`] tracks a warm `exp_all` run, which is process
//! start-up and small-file system calls rather than simulation: it reads a
//! fixed set of small files from the page cache. Over seven minutes of
//! suite passes in a stretch where the first kernel swung 2×, the median
//! of a run's warm `exp_all` times spread 13 % from run to run when
//! rescaled by the first kernel and 3 % when rescaled by this one.

use std::ops::Add;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// [`Speedometer`] slices per sample before or after a stretch of
/// simulation (~10 ms at nominal speed).
pub const SAMPLE_SLICES: u32 = 14;

/// Steps of one reference slice.
const SLICE_STEPS: usize = 200_000;

/// Entries of the kernel's table: 32 KiB of `u64`, which fits the L1 data
/// cache of the host above with room to spare, unless a co-running thread
/// crowds it.
const TABLE_LEN: usize = 4096;

/// Seconds one slice takes at nominal host speed (its fast regime on the
/// host above: ~3.5 ns per step).
const NOMINAL_SLICE_S: f64 = 7.0e-4;

/// Files a [`FileSpeedometer`] slice reads, each twice.
const FILES: usize = 64;

/// Bytes of each of those files.
const FILE_BYTES: usize = 2048;

/// Seconds one [`FileSpeedometer`] slice takes at nominal host speed (its
/// fast regime on the host above).
const NOMINAL_FILE_SLICE_S: f64 = 4.0e-4;

/// Pause between the slices [`Speedometer::during`] times: the slices
/// then take 3–5 % of one vCPU.
const DURING_PERIOD: Duration = Duration::from_millis(25);

/// Slices of one kernel timed so far, their seconds, and the seconds they
/// take at nominal host speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reading {
    slices: u32,
    secs: f64,
    nominal_s: f64,
}

impl Reading {
    /// Host speed over these slices, relative to nominal (0.8 means the
    /// host ran at 80 % of nominal speed); 1 without slices.
    pub fn speed(self) -> f64 {
        if self.slices == 0 {
            1.0
        } else {
            self.nominal_s / self.secs
        }
    }
}

impl Add for Reading {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            slices: self.slices + other.slices,
            secs: self.secs + other.secs,
            nominal_s: self.nominal_s + other.nominal_s,
        }
    }
}

/// Samples the host's speed with slices of a fixed kernel. Every slice
/// starts from the same table, so every slice does the same work.
#[derive(Debug)]
pub struct Speedometer {
    initial: Vec<u64>,
    table: Vec<u64>,
}

impl Default for Speedometer {
    fn default() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let initial: Vec<u64> = (0..TABLE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Self {
            table: initial.clone(),
            initial,
        }
    }
}

impl Speedometer {
    /// Times `slices` slices back to back. The host can flip between fast
    /// and slow every few milliseconds, so one sample should span many.
    pub fn sample(&mut self, slices: u32) -> Reading {
        (0..slices).fold(Reading::default(), |r, _| {
            r + Reading {
                slices: 1,
                secs: self.slice(),
                nominal_s: NOMINAL_SLICE_S,
            }
        })
    }

    /// Runs `work` on this thread while a second thread times one slice
    /// every [`DURING_PERIOD`]: the speed the host gives a subprocess that
    /// `work` waits for, which slices before and after it track only
    /// loosely once it runs for seconds on more than one thread.
    pub fn during<T>(&mut self, work: impl FnOnce() -> T) -> (T, Reading) {
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut reading = Reading::default();
                while !done.load(Ordering::Acquire) {
                    std::thread::park_timeout(DURING_PERIOD);
                    if !done.load(Ordering::Acquire) {
                        reading = reading + self.sample(1);
                    }
                }
                reading
            });
            let out = work();
            done.store(true, Ordering::Release);
            sampler.thread().unpark();
            (out, sampler.join().expect("the reference sampler panicked"))
        })
    }

    /// Runs one slice; returns its seconds.
    fn slice(&mut self) -> f64 {
        self.table.copy_from_slice(&self.initial);
        let t = &mut self.table[..];
        let mask = TABLE_LEN - 1;
        let mut acc = [0u64; 4];
        let start = Instant::now();
        for i in 0..SLICE_STEPS {
            for (k, a) in acc.iter_mut().enumerate() {
                let v = t[(i * 7 + k * 1031) & mask];
                *a = a.wrapping_add(if v & 1 == 0 { v } else { v >> 1 });
            }
            t[i & mask] ^= acc[i & 3];
        }
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        secs
    }
}

/// Samples the host's speed at system-call work: reading a fixed set of
/// small files, which stay in the page cache.
#[derive(Debug)]
pub struct FileSpeedometer {
    files: Vec<PathBuf>,
}

impl FileSpeedometer {
    /// Writes the files into `dir`, which the caller owns and removes.
    pub fn create(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let files = (0..FILES)
            .map(|i| {
                let path = dir.join(format!("{i}"));
                std::fs::write(&path, vec![i as u8; FILE_BYTES]).map(|()| path)
            })
            .collect::<std::io::Result<_>>()?;
        Ok(Self { files })
    }

    /// Times one slice: every file read twice.
    pub fn sample(&self) -> std::io::Result<Reading> {
        let start = Instant::now();
        for _ in 0..2 {
            for path in &self.files {
                std::hint::black_box(std::fs::read(path)?);
            }
        }
        Ok(Reading {
            slices: 1,
            secs: start.elapsed().as_secs_f64(),
            nominal_s: NOMINAL_FILE_SLICE_S,
        })
    }
}
