//! The process's `FASTGL_*` environment settings: the one place the
//! workspace reads and checks them.
//!
//! Six variables, three kinds of value, one rule per kind:
//!
//! | variable | kind | accepted |
//! |---|---|---|
//! | [`THREADS`] | count | a decimal from 1 to [`MAX_THREADS`] |
//! | [`PREFETCH`] | count | a decimal from 0 up |
//! | [`TELEMETRY`], [`QUICK`] | flag | `1`/`true`/`on` or `0`/`false`/`off`, any case |
//! | [`FAULTS`], [`RESULTS_DIR`] | text | any text |
//!
//! Surrounding whitespace is ignored, and an unset or blank variable means
//! "not set" (off, for a flag). A value outside its rule is a
//! [`SettingsError`] naming the variable, the value and the accepted form;
//! nothing substitutes a default for it. Programs call [`check`] (through
//! `fastgl_core::check_env`, which also parses the fault plan) before any
//! work and exit with status 1 on the error; library code that cannot
//! return it panics with the same message.
//!
//! The getters read the environment on every call. Readers that must not
//! pay that per use (the thread count, the telemetry switch) cache the
//! first answer themselves.

use std::ops::RangeInclusive;
use std::path::PathBuf;

/// Worker threads of the execution backend.
pub const THREADS: &str = "FASTGL_THREADS";
/// Window-pipeline prefetch depth.
pub const PREFETCH: &str = "FASTGL_PREFETCH";
/// Telemetry recording switch.
pub const TELEMETRY: &str = "FASTGL_TELEMETRY";
/// The bench binaries' fast smoke profile.
pub const QUICK: &str = "FASTGL_QUICK";
/// Deterministic fault-injection plan.
pub const FAULTS: &str = "FASTGL_FAULTS";
/// Where the bench binaries write their reports.
pub const RESULTS_DIR: &str = "FASTGL_RESULTS_DIR";

/// The most worker threads the execution backend runs. A `par_*` call on
/// a large input starts up to this many minus one workers, so the cap
/// bounds the threads one setting can start. It admits CI's
/// `FASTGL_THREADS=8` on a 2-core host with room to spare.
pub const MAX_THREADS: usize = 256;

/// Accepted `FASTGL_THREADS` values.
const THREAD_COUNTS: RangeInclusive<usize> = 1..=MAX_THREADS;
/// Accepted `FASTGL_PREFETCH` values: the executor caps its channels at
/// an epoch's window count, so any depth is safe.
const PREFETCH_DEPTHS: RangeInclusive<usize> = 0..=usize::MAX;

/// A `FASTGL_*` variable whose value breaks its rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettingsError {
    var: &'static str,
    value: String,
    expected: String,
}

impl SettingsError {
    /// An error for `var`, set to `value`, which should have been
    /// `expected` (a phrase such as "a fault plan").
    pub fn new(var: &'static str, value: impl Into<String>, expected: impl Into<String>) -> Self {
        Self {
            var,
            value: value.into(),
            expected: expected.into(),
        }
    }
}

impl std::fmt::Display for SettingsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {}={:?}: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for SettingsError {}

/// `FASTGL_THREADS`: the execution backend's thread count, `None` when
/// unset (all cores, up to [`MAX_THREADS`]).
///
/// # Errors
///
/// Anything but a decimal from 1 to [`MAX_THREADS`].
pub fn threads() -> Result<Option<usize>, SettingsError> {
    count(THREADS, read(THREADS)?.as_deref(), THREAD_COUNTS)
}

/// `FASTGL_PREFETCH`: the window-pipeline depth, `None` when unset.
///
/// # Errors
///
/// Anything but a decimal that fits a `usize`.
pub fn prefetch() -> Result<Option<usize>, SettingsError> {
    count(PREFETCH, read(PREFETCH)?.as_deref(), PREFETCH_DEPTHS)
}

/// `FASTGL_TELEMETRY`: whether telemetry starts on.
///
/// # Errors
///
/// A value that is not a flag.
pub fn telemetry() -> Result<bool, SettingsError> {
    flag(TELEMETRY, read(TELEMETRY)?.as_deref())
}

/// `FASTGL_QUICK`: whether the bench binaries run the quick profile.
///
/// # Errors
///
/// A value that is not a flag.
pub fn quick() -> Result<bool, SettingsError> {
    flag(QUICK, read(QUICK)?.as_deref())
}

/// `FASTGL_FAULTS`: the fault plan's text, `None` when unset or blank.
/// `fastgl_core` parses it.
///
/// # Errors
///
/// A value that is not UTF-8.
pub fn faults() -> Result<Option<String>, SettingsError> {
    Ok(text(read(FAULTS)?))
}

/// `FASTGL_RESULTS_DIR`: the reports' directory, `None` when unset or
/// blank.
///
/// # Errors
///
/// A value that is not UTF-8.
pub fn results_dir() -> Result<Option<PathBuf>, SettingsError> {
    Ok(text(read(RESULTS_DIR)?).map(PathBuf::from))
}

/// Reads every variable and returns the first one that breaks its rule.
/// The fault plan is checked as text only; `fastgl_core::check_env` adds
/// its grammar.
///
/// # Errors
///
/// The first [`SettingsError`], in the order of the table above.
pub fn check() -> Result<(), SettingsError> {
    threads()?;
    prefetch()?;
    telemetry()?;
    quick()?;
    faults()?;
    results_dir()?;
    Ok(())
}

/// The raw value of `var`, `None` when unset.
fn read(var: &'static str) -> Result<Option<String>, SettingsError> {
    match std::env::var(var) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(v)) => {
            Err(SettingsError::new(var, v.to_string_lossy(), "UTF-8 text"))
        }
    }
}

/// The count rule: a trimmed decimal within `range`; unset or blank is
/// `None`.
fn count(
    var: &'static str,
    raw: Option<&str>,
    range: RangeInclusive<usize>,
) -> Result<Option<usize>, SettingsError> {
    let Some(v) = raw.map(str::trim).filter(|v| !v.is_empty()) else {
        return Ok(None);
    };
    let expected = if *range.end() == usize::MAX {
        format!("a whole number of at least {}", range.start())
    } else {
        format!("a whole number from {} to {}", range.start(), range.end())
    };
    match v.parse::<usize>() {
        // `parse` takes a leading `+`; the rule is digits only.
        Ok(n) if range.contains(&n) && v.bytes().all(|b| b.is_ascii_digit()) => Ok(Some(n)),
        _ => Err(SettingsError::new(var, raw.unwrap_or_default(), expected)),
    }
}

/// The flag rule: `1`/`true`/`on` or `0`/`false`/`off`, trimmed and in
/// any case; unset or blank is off.
fn flag(var: &'static str, raw: Option<&str>) -> Result<bool, SettingsError> {
    let v = raw.unwrap_or_default().trim().to_ascii_lowercase();
    match v.as_str() {
        "1" | "true" | "on" => Ok(true),
        "" | "0" | "false" | "off" => Ok(false),
        _ => Err(SettingsError::new(
            var,
            raw.unwrap_or_default(),
            "1, true or on, or 0, false or off",
        )),
    }
}

/// The text rule: unset or blank is `None`; anything else is kept as it
/// is.
fn text(raw: Option<String>) -> Option<String> {
    raw.filter(|v| !v.trim().is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A variable, its range, a raw value, and the parsed count it gives
    /// (`None` for an error).
    type CountCase<'a> = (
        &'a str,
        RangeInclusive<usize>,
        Option<&'a str>,
        Option<Option<usize>>,
    );

    #[test]
    fn counts_are_trimmed_decimals_in_range() {
        let big = "18446744073709551616"; // usize::MAX + 1
        #[rustfmt::skip]
        let cases: &[CountCase] = &[
            (THREADS, THREAD_COUNTS, None, Some(None)),
            (THREADS, THREAD_COUNTS, Some(""), Some(None)),
            (THREADS, THREAD_COUNTS, Some("  "), Some(None)),
            (THREADS, THREAD_COUNTS, Some(" 8\n"), Some(Some(8))),
            (THREADS, THREAD_COUNTS, Some("1"), Some(Some(1))),
            (THREADS, THREAD_COUNTS, Some("256"), Some(Some(MAX_THREADS))),
            (THREADS, THREAD_COUNTS, Some("eight"), None),
            (THREADS, THREAD_COUNTS, Some("+8"), None),
            (THREADS, THREAD_COUNTS, Some("-1"), None),
            (THREADS, THREAD_COUNTS, Some("8 threads"), None),
            (THREADS, THREAD_COUNTS, Some("0"), None),
            (THREADS, THREAD_COUNTS, Some("257"), None),
            (THREADS, THREAD_COUNTS, Some("100000"), None),
            (THREADS, THREAD_COUNTS, Some(big), None),
            (PREFETCH, PREFETCH_DEPTHS, None, Some(None)),
            (PREFETCH, PREFETCH_DEPTHS, Some(""), Some(None)),
            (PREFETCH, PREFETCH_DEPTHS, Some(" 2 "), Some(Some(2))),
            (PREFETCH, PREFETCH_DEPTHS, Some("0"), Some(Some(0))),
            (PREFETCH, PREFETCH_DEPTHS, Some("18446744073709551615"), Some(Some(usize::MAX))),
            (PREFETCH, PREFETCH_DEPTHS, Some("two"), None),
            (PREFETCH, PREFETCH_DEPTHS, Some("2.5"), None),
            (PREFETCH, PREFETCH_DEPTHS, Some("-2"), None),
            (PREFETCH, PREFETCH_DEPTHS, Some(big), None),
        ];
        for (var, range, raw, want) in cases {
            let got = count(var, *raw, range.clone());
            match want {
                Some(n) => assert_eq!(got, Ok(*n), "{var}={raw:?}"),
                None => {
                    let err = got.expect_err(&format!("{var}={raw:?} must be refused"));
                    let msg = err.to_string();
                    assert!(msg.contains(var) && msg.contains(raw.unwrap()), "{msg}");
                    assert!(msg.contains("a whole number"), "{msg}");
                }
            }
        }
    }

    #[test]
    fn the_thread_cap_is_named_in_the_error() {
        let err = count(THREADS, Some("257"), THREAD_COUNTS).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid FASTGL_THREADS=\"257\": expected a whole number from 1 to 256"
        );
    }

    #[test]
    fn flags_accept_three_spellings_each_way() {
        for var in [TELEMETRY, QUICK] {
            let cases: &[(Option<&str>, Option<bool>)] = &[
                (None, Some(false)),
                (Some(""), Some(false)),
                (Some("   "), Some(false)),
                (Some("1"), Some(true)),
                (Some(" TRUE "), Some(true)),
                (Some("On"), Some(true)),
                (Some("0"), Some(false)),
                (Some("false\n"), Some(false)),
                (Some("OFF"), Some(false)),
                (Some("yes"), None),
                (Some("2"), None),
                (Some("enabled"), None),
                (Some("1 1"), None),
            ];
            for (raw, want) in cases {
                let got = flag(var, *raw);
                match want {
                    Some(on) => assert_eq!(got, Ok(*on), "{var}={raw:?}"),
                    None => {
                        let msg = got.unwrap_err().to_string();
                        assert!(msg.contains(var) && msg.contains(raw.unwrap()), "{msg}");
                        assert!(msg.contains("1, true or on"), "{msg}");
                    }
                }
            }
        }
    }

    #[test]
    fn texts_treat_blank_as_unset_and_keep_the_rest() {
        // `FASTGL_FAULTS` and `FASTGL_RESULTS_DIR` share the rule; a text
        // is only ever refused for not being UTF-8 (see `read`).
        let cases: &[(Option<&str>, Option<&str>)] = &[
            (None, None),
            (Some(""), None),
            (Some(" \t"), None),
            (Some("oom@epoch=0"), Some("oom@epoch=0")),
            (Some(" /tmp/fresh "), Some(" /tmp/fresh ")),
            (Some("meteor_strike@batch=1"), Some("meteor_strike@batch=1")),
        ];
        for (raw, want) in cases {
            assert_eq!(text(raw.map(str::to_string)).as_deref(), *want, "{raw:?}");
        }
    }
}
