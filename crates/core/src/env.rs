//! Strict parsing for `MOLOC_*` environment toggles.
//!
//! A **set but malformed** value is a configuration error
//! ([`MolocError::InvalidConfig`] carrying the offending string); an
//! **unset** variable is `Ok(None)` so callers keep their defaults.
//! Entry-point binaries call their crate's `validate_env()` first so
//! the operator sees the typed error before any work starts.
//!
//! Every positive-integer knob (`MOLOC_THREADS`, `MOLOC_CHUNK`, the
//! `MOLOC_CHECKPOINT_*` intervals) goes through the one parser,
//! `moloc_runtime::parse_positive`, whose `EnvError` callers convert to
//! the same [`MolocError::InvalidConfig`].

use crate::error::MolocError;

/// Parses an optional boolean-ish toggle: `0`/`1` only (the workspace
/// convention, e.g. `MOLOC_CHECKPOINT_FSYNC`). Anything else is an
/// error carrying the raw string.
///
/// # Errors
///
/// Returns [`MolocError::InvalidConfig`] when the value is set but is
/// neither `0` nor `1`.
pub fn parse_toggle(field: &'static str, raw: Option<&str>) -> Result<Option<bool>, MolocError> {
    match raw {
        None => Ok(None),
        Some(raw) => match raw.trim() {
            "0" => Ok(Some(false)),
            "1" => Ok(Some(true)),
            _ => Err(MolocError::invalid_config_value(field, raw)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_toggle_keeps_its_default() {
        assert_eq!(parse_toggle("MOLOC_CHECKPOINT_FSYNC", None), Ok(None));
    }

    #[test]
    fn toggles_parse_with_whitespace() {
        assert_eq!(
            parse_toggle("MOLOC_CHECKPOINT_FSYNC", Some("1")),
            Ok(Some(true))
        );
        assert_eq!(
            parse_toggle("MOLOC_CHECKPOINT_FSYNC", Some(" 0 ")),
            Ok(Some(false))
        );
    }

    #[test]
    fn toggles_accept_only_zero_and_one() {
        for bad in ["true", "yes", "2", ""] {
            let err = parse_toggle("MOLOC_CHECKPOINT_FSYNC", Some(bad)).unwrap_err();
            assert_eq!(
                err,
                MolocError::invalid_config_value("MOLOC_CHECKPOINT_FSYNC", bad)
            );
        }
    }
}
