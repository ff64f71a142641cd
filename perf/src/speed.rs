//! The host's current speed, measured with a fixed piece of work that
//! lives in this crate, so no change to the program can move it.
//!
//! On a shared host the CPU time a fixed piece of work takes drifts
//! with what the other guests do: by a quarter over minutes and by half
//! over an hour on the 2-vCPU machine the benchmark was built on. That
//! drift moves the program's work and a reference kernel run next to it
//! alike, so the benchmark reports its timings scaled to a reference
//! speed: each raw time is multiplied by [`REF_SHOT_S`] over the mean
//! CPU time of the reference shots taken in the same run, one after
//! each pass. A slower program still reads slower; a slower host does
//! not.

use crate::{cpu, stats};
use cfaopc_fft::parallel::worker_count;
use std::f64::consts::PI;

/// Grid edge of the reference FFT.
const N: usize = 256;
/// 2-D FFTs one thread runs in a shot: about 30 ms of CPU time.
const SHOT_FFTS: usize = 10;
/// CPU seconds one thread's share of a shot took on the reference
/// machine (an otherwise idle 2-vCPU Xeon guest): the speed every
/// reported timing is scaled to.
pub const REF_SHOT_S: f64 = 0.03;

/// The reference shots of one run.
#[derive(Debug, Default)]
pub struct SpeedProbe {
    shots: Vec<f64>,
}

impl SpeedProbe {
    /// Runs one shot — every worker thread at once, as the program's
    /// passes load every worker, each running [`SHOT_FFTS`] `N`×`N`
    /// complex 2-D FFTs — and records the threads' mean CPU time.
    ///
    /// # Errors
    ///
    /// Returns a message where per-thread CPU time is unavailable.
    pub fn shot(&mut self) -> Result<(), String> {
        let threads = worker_count();
        let per_thread: Vec<Result<f64, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| scope.spawn(move || shot_on_this_thread(t)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("shot thread panicked".into()))
                })
                .collect()
        });
        let total: f64 = per_thread.into_iter().sum::<Result<f64, String>>()?;
        self.shots.push(total / threads as f64);
        Ok(())
    }

    /// The factor that scales the run's times to reference speed:
    /// [`REF_SHOT_S`] over the mean shot. A mean rather than a median,
    /// so that the run's shots, like the run's passes, count as one
    /// stretch of work in which bursts average out.
    pub fn factor(&self) -> Option<f64> {
        stats::mean(&self.shots).map(|s| REF_SHOT_S / s)
    }

    /// Every shot's CPU seconds per thread.
    pub fn shots(&self) -> &[f64] {
        &self.shots
    }
}

/// One thread's share of a shot: CPU seconds it spent on the FFTs.
fn shot_on_this_thread(seed: usize) -> Result<f64, String> {
    let mut re: Vec<f64> = (0..N * N).map(|i| ((i * 7 + seed) % 13) as f64).collect();
    let mut im = vec![0.0; N * N];
    let start = cpu::thread_cpu_s()?;
    for _ in 0..SHOT_FFTS {
        fft_2d(&mut re, &mut im);
        // Keep magnitudes bounded from one transform to the next.
        let scale = 1.0 / N as f64;
        re.iter_mut().chain(im.iter_mut()).for_each(|v| *v *= scale);
    }
    std::hint::black_box((&re, &im));
    Ok(cpu::thread_cpu_s()? - start)
}

/// In-place `N`×`N` complex 2-D FFT: rows, then columns.
fn fft_2d(re: &mut [f64], im: &mut [f64]) {
    for (r, i) in re.chunks_exact_mut(N).zip(im.chunks_exact_mut(N)) {
        fft(r, i);
    }
    let (mut col_re, mut col_im) = (vec![0.0; N], vec![0.0; N]);
    for c in 0..N {
        for r in 0..N {
            col_re[r] = re[r * N + c];
            col_im[r] = im[r * N + c];
        }
        fft(&mut col_re, &mut col_im);
        for r in 0..N {
            re[r * N + c] = col_re[r];
            im[r * N + c] = col_im[r];
        }
    }
}

/// In-place iterative radix-2 complex FFT; the length is a power of two.
fn fft(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let angle = -2.0 * PI / len as f64;
        let (w_re, w_im) = (angle.cos(), angle.sin());
        for start in (0..n).step_by(len) {
            let (mut c_re, mut c_im) = (1.0, 0.0);
            for k in start..start + len / 2 {
                let m = k + len / 2;
                let t_re = re[m] * c_re - im[m] * c_im;
                let t_im = re[m] * c_im + im[m] * c_re;
                re[m] = re[k] - t_re;
                im[m] = im[k] - t_im;
                re[k] += t_re;
                im[k] += t_im;
                (c_re, c_im) = (c_re * w_re - c_im * w_im, c_re * w_im + c_im * w_re);
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_matches_the_direct_transform() {
        let n = 16;
        let re0: Vec<f64> = (0..n).map(|i| (i * i % 7) as f64).collect();
        let im0: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let (mut re, mut im) = (re0.clone(), im0.clone());
        fft(&mut re, &mut im);
        for k in 0..n {
            let (mut s_re, mut s_im) = (0.0, 0.0);
            for t in 0..n {
                let a = -2.0 * PI * (k * t) as f64 / n as f64;
                s_re += re0[t] * a.cos() - im0[t] * a.sin();
                s_im += re0[t] * a.sin() + im0[t] * a.cos();
            }
            assert!((re[k] - s_re).abs() < 1e-9 && (im[k] - s_im).abs() < 1e-9);
        }
    }

    #[test]
    fn a_2d_impulse_transforms_to_ones() {
        let (mut re, mut im) = (vec![0.0; N * N], vec![0.0; N * N]);
        re[0] = 1.0;
        fft_2d(&mut re, &mut im);
        assert!(re.iter().all(|&v| (v - 1.0).abs() < 1e-12));
        assert!(im.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn the_factor_is_the_reference_over_the_mean_shot() {
        let mut probe = SpeedProbe::default();
        assert_eq!(probe.factor(), None);
        probe.shot().unwrap();
        probe.shot().unwrap();
        let shots = probe.shots();
        assert_eq!(shots.len(), 2);
        assert!(shots.iter().all(|&s| s.is_finite() && s > 0.0));
        let mean = (shots[0] + shots[1]) / 2.0;
        assert!((probe.factor().unwrap() - REF_SHOT_S / mean).abs() < 1e-12);
    }
}
