//! Content keys for ledger entries.
//!
//! A key is the FNV-1a 64-bit hash of a canonical identity string built
//! from the fields that define a run — never from the volatile bytes of
//! the artifact (timings change every run; the *run* they measure does
//! not). Re-running a benchmark at the same (bin, seed, scale, strategy
//! set) therefore maps to the same key, and the ledger never
//! double-counts it. The hash itself is the workspace's one FNV-1a,
//! from `rein-telemetry`.

pub use rein_telemetry::{content_key, fnv1a64};

/// The canonical identity string of a run artifact: `|`-joined fields,
/// strategies pre-sorted by the caller. `scale` is formatted with
/// Rust's shortest-roundtrip float formatting, which is deterministic.
pub fn run_identity(kind: &str, bin: &str, seed: u64, scale: f64, strategies: &[String]) -> String {
    format!("{kind}|{bin}|{seed}|{scale}|{}", strategies.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_distinguish_runs() {
        let strategies = vec!["detect:raha".to_string(), "repair:mean".to_string()];
        let a = content_key(&run_identity("run_manifest", "fig2", 11, 0.05, &strategies));
        let b = content_key(&run_identity("run_manifest", "fig2", 11, 0.05, &strategies));
        assert_eq!(a, b, "same run, same key");
        assert_eq!(a.len(), 16);
        let other_seed = content_key(&run_identity("run_manifest", "fig2", 12, 0.05, &strategies));
        assert_ne!(a, other_seed, "seed is part of the key");
        let other_scale = content_key(&run_identity("run_manifest", "fig2", 11, 0.1, &strategies));
        assert_ne!(a, other_scale, "scale is part of the key");
        let fewer = content_key(&run_identity("run_manifest", "fig2", 11, 0.05, &strategies[..1]));
        assert_ne!(a, fewer, "strategy set is part of the key");
    }
}
