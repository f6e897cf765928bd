//! Flag-value parsing shared by the command-line tools. A malformed or
//! out-of-range value is an error, never a silent fallback to the
//! default; the message names the flag and the rejected value.

use std::str::FromStr;

/// Parses a numeric flag value.
///
/// # Errors
///
/// The value does not parse as a `T`.
pub fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("invalid value for {flag}: {value}"))
}

/// Parses a workload scale factor. Only a finite factor greater than zero
/// is one: zero, negative and NaN factors would silently size every
/// workload at one op, and an infinite one at `u64::MAX` ops.
///
/// # Errors
///
/// The value does not parse, or is not finite and greater than zero.
pub fn scale(flag: &str, value: &str) -> Result<f64, String> {
    number(flag, value)
        .ok()
        .filter(|f: &f64| f.is_finite() && *f > 0.0)
        .ok_or_else(|| format!("invalid value for {flag}: {value}"))
}
