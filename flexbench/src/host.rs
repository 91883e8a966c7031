//! The host record printed with every result, so numbers from different
//! hosts are never compared silently.

use std::fmt;

/// CPU facts the engine's results depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism` — `ParallelPwl` fans out
    /// over this many threads and the serving workers share them.
    pub cpus: usize,
    /// The engine dispatches its f64 lane kernels to AVX2 when present.
    pub avx2: bool,
    /// The engine dispatches its bucket kernels to AVX-512F when present.
    pub avx512f: bool,
}

impl Host {
    /// Reads the running host.
    pub fn detect() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512f) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512f) = (false, false);
        Self {
            cpus,
            avx2,
            avx512f,
        }
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "host: arch={} cpus={} avx2={} avx512f={}",
            std::env::consts::ARCH,
            self.cpus,
            self.avx2,
            self.avx512f
        )
    }
}

/// Tables of at most this many segments run the engine's linear-scan
/// kernel; deeper ones run its bucket kernel. Mirrors the engine's
/// private `LINEAR_SCAN_MAX_SEGMENTS`.
pub const LINEAR_SCAN_MAX_SEGMENTS: usize = 8;

/// The kernel shape a table of `segments` segments dispatches to.
pub fn kernel_shape(segments: usize) -> &'static str {
    if segments <= LINEAR_SCAN_MAX_SEGMENTS {
        "linear"
    } else {
        "bucket"
    }
}

/// One host-record line for a timed table.
pub fn table_line(workload: &str, name: &str, backend: &str, segments: usize) -> String {
    format!(
        "table: workload={workload} fn={name} backend={backend} segments={segments} kernel={}",
        kernel_shape(segments)
    )
}
