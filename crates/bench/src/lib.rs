//! Shared helpers for the Criterion benchmark harness.
//!
//! The `paper_artifacts` target regenerates each of the paper's tables and
//! figures at a reduced scale through the campaign engine, the same path
//! the `experiments` binary takes at full fidelity; the other targets
//! track the simulator, the campaign cache, the trace pipeline and the
//! campaign server on their own.

use dsarp_sim::experiments::Scale;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The reduced scale used by all bench targets.
pub fn bench_scale() -> Scale {
    Scale {
        dram_cycles: 5_000,
        alone_cycles: 3_000,
        per_category: 1,
        threads: 0,
        warmup_ops: 8_000,
    }
}

/// A fresh, empty campaign store directory under the system temp dir,
/// unique per process and call, so every timed campaign run starts cold.
pub fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir()
        .join("dsarp-campaign-bench")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
