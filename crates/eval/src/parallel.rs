//! The evaluation crate's view of the worker pool's configuration.
//!
//! The pool and its fan-out primitives live in `moloc-runtime`, below
//! `moloc-mobility`, so that trace-corpus rendering fans out on the
//! same pool as the experiments; callers use them from there. This
//! module adds [`validate_env`], which reports a malformed
//! `MOLOC_THREADS` or `MOLOC_CHUNK` as the workspace's
//! [`MolocError::InvalidConfig`], and re-exports [`thread_count`] so
//! hosts that validate here can print the width they validated.

use moloc_core::error::MolocError;

pub use moloc_runtime::thread_count;

/// Strictly validates every `MOLOC_*` knob the pool reads
/// (`MOLOC_THREADS`, `MOLOC_CHUNK`) with the pool's own resolution
/// rule. Entry points call this before touching the pool so a typo'd
/// variable is a typed, actionable error — not a setting silently
/// replaced by a default, and not a mid-run panic from the cached
/// resolver.
///
/// # Errors
///
/// Returns [`MolocError::InvalidConfig`] naming the first malformed
/// variable and echoing its raw value.
pub fn validate_env() -> Result<(), MolocError> {
    moloc_runtime::validate_env().map_err(invalid_config)
}

/// The workspace error for a malformed pool variable.
fn invalid_config(e: moloc_runtime::EnvError) -> MolocError {
    MolocError::invalid_config_value(e.var, e.raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_env_passes_in_a_clean_environment() {
        // CI may legitimately pin these variables; validation must
        // accept whatever the ambient (working) environment holds.
        assert_eq!(validate_env(), Ok(()));
    }

    #[test]
    fn runtime_env_errors_keep_the_invalid_config_message() {
        // The pool's cached resolver panics with the runtime error's
        // text, and entry points print the converted `MolocError`:
        // both must read the same.
        let err = moloc_runtime::EnvError {
            var: "MOLOC_THREADS",
            raw: "fuor".to_owned(),
        };
        let converted = invalid_config(err.clone());
        assert_eq!(converted.to_string(), err.to_string());
        assert_eq!(
            converted.to_string(),
            "invalid configuration: MOLOC_THREADS=\"fuor\""
        );
    }
}
