//! Deterministic fault plans: which simulated faults fire, and where.
//!
//! A [`FaultPlan`] is a comma-separated list of `kind@scope=index`
//! entries, optionally suffixed `:magnitude`, configured either through
//! [`crate::FastGlConfig::faults`] or the `FASTGL_FAULTS` environment
//! variable:
//!
//! ```text
//! FASTGL_FAULTS=pcie_stall@batch=7,oom@epoch=1:0.5,worker_panic@window=3
//! ```
//!
//! Triggers are **pure functions of the simulated position** (epoch,
//! batch-in-epoch, window-in-epoch), never of wall clock or thread
//! schedule: a batch-scoped fault fires at that batch index of *every*
//! epoch, an epoch-scoped fault at that one epoch. This keeps
//! `run_epoch` a pure function of `(data, epoch)` even under faults,
//! which is what lets a checkpoint-resumed run replay the exact fault
//! sequence an uninterrupted run saw.

use fastgl_gpusim::{RetryCostModel, TransferFault};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Mutex;

/// The kinds of fault the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// PCIe link stall on a batch's feature load (`pcie_stall@batch=K`);
    /// magnitude = stall factor × copy time (default 4).
    PcieStall,
    /// Retryable transfer error on a batch's feature load
    /// (`transfer_error@batch=K`); magnitude = failed attempts (default 1).
    TransferError,
    /// Device-memory pressure at the start of an epoch (`oom@epoch=E`);
    /// magnitude = fraction of the feature cache evicted (default 0.5).
    Oom,
    /// Panic in the sample-stage worker the first time it processes a
    /// window (`worker_panic@window=W`); recovered by stage replay.
    WorkerPanic,
}

impl FaultKind {
    /// The plan-syntax token of the kind.
    pub fn token(self) -> &'static str {
        match self {
            FaultKind::PcieStall => "pcie_stall",
            FaultKind::TransferError => "transfer_error",
            FaultKind::Oom => "oom",
            FaultKind::WorkerPanic => "worker_panic",
        }
    }

    /// The trigger scope the kind requires (`batch`, `epoch`, `window`).
    pub fn scope(self) -> &'static str {
        match self {
            FaultKind::PcieStall | FaultKind::TransferError => "batch",
            FaultKind::Oom => "epoch",
            FaultKind::WorkerPanic => "window",
        }
    }

    fn from_token(token: &str) -> Option<Self> {
        match token {
            "pcie_stall" => Some(FaultKind::PcieStall),
            "transfer_error" => Some(FaultKind::TransferError),
            "oom" => Some(FaultKind::Oom),
            "worker_panic" => Some(FaultKind::WorkerPanic),
            _ => None,
        }
    }
}

/// One entry of a fault plan: a kind, its trigger index, and an optional
/// magnitude (meaning depends on the kind — see [`FaultKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Trigger index in the kind's scope (batch / epoch / window).
    pub index: u64,
    /// Kind-specific magnitude; `None` uses the kind's default.
    pub magnitude: Option<f64>,
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}@{}={}",
            self.kind.token(),
            self.kind.scope(),
            self.index
        )?;
        if let Some(m) = self.magnitude {
            write!(f, ":{m}")?;
        }
        Ok(())
    }
}

/// A parse or validation error of a fault plan.
///
/// Every variant renders an actionable message naming the offending
/// entry and the accepted syntax — malformed `FASTGL_FAULTS` values
/// surface as typed errors, never panics.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// The plan string contained no entries.
    EmptyPlan,
    /// An entry between commas was blank.
    EmptyEntry {
        /// 1-based position of the blank entry.
        position: usize,
    },
    /// The fault kind token is not recognised.
    UnknownKind {
        /// The unrecognised token.
        token: String,
    },
    /// The entry lacks the `@scope=index` trigger.
    MissingTrigger {
        /// The offending entry.
        entry: String,
    },
    /// The trigger scope does not match the kind's required scope.
    WrongScope {
        /// The fault kind.
        kind: FaultKind,
        /// The scope token that was given.
        scope: String,
    },
    /// The trigger index is not a non-negative integer.
    BadIndex {
        /// The offending entry.
        entry: String,
        /// The value that failed to parse.
        value: String,
    },
    /// The magnitude suffix is invalid for the kind.
    BadMagnitude {
        /// The fault kind.
        kind: FaultKind,
        /// The offending magnitude text.
        value: String,
        /// What the kind accepts.
        reason: &'static str,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::EmptyPlan => write!(
                f,
                "empty fault plan: expected comma-separated entries like \
                 'pcie_stall@batch=7,oom@epoch=1' (unset FASTGL_FAULTS to \
                 disable injection)"
            ),
            FaultPlanError::EmptyEntry { position } => write!(
                f,
                "entry {position} of the fault plan is blank: remove the \
                 stray comma"
            ),
            FaultPlanError::UnknownKind { token } => write!(
                f,
                "unknown fault kind '{token}': expected one of pcie_stall, \
                 transfer_error, oom, worker_panic"
            ),
            FaultPlanError::MissingTrigger { entry } => write!(
                f,
                "fault entry '{entry}' has no trigger: expected \
                 'kind@scope=index', e.g. 'pcie_stall@batch=7'"
            ),
            FaultPlanError::WrongScope { kind, scope } => write!(
                f,
                "fault kind '{}' triggers on scope '{}', not '{scope}': \
                 write '{}@{}=<index>'",
                kind.token(),
                kind.scope(),
                kind.token(),
                kind.scope(),
            ),
            FaultPlanError::BadIndex { entry, value } => write!(
                f,
                "fault entry '{entry}' has a bad trigger index '{value}': \
                 expected a non-negative integer"
            ),
            FaultPlanError::BadMagnitude {
                kind,
                value,
                reason,
            } => write!(
                f,
                "bad magnitude '{value}' for fault kind '{}': {reason}",
                kind.token(),
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A validated, deterministic fault-injection plan.
///
/// # Examples
///
/// Parsing and round-tripping the `FASTGL_FAULTS` syntax:
///
/// ```
/// use fastgl_core::resilience::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::parse("pcie_stall@batch=7,oom@epoch=1:0.5").unwrap();
/// assert_eq!(plan.specs().len(), 2);
/// assert_eq!(plan.specs()[0].kind, FaultKind::PcieStall);
/// assert_eq!(plan.to_string(), "pcie_stall@batch=7,oom@epoch=1:0.5");
/// ```
///
/// Malformed plans are typed errors with actionable messages, not panics:
///
/// ```
/// use fastgl_core::resilience::FaultPlan;
///
/// let err = FaultPlan::parse("gpu_on_fire@batch=1").unwrap_err();
/// assert!(err.to_string().contains("unknown fault kind"));
/// let err = FaultPlan::parse("oom@batch=1").unwrap_err();
/// assert!(err.to_string().contains("scope 'epoch'"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Parses the `kind@scope=index[:magnitude],...` syntax.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] encountered, left to right.
    pub fn parse(s: &str) -> Result<Self, FaultPlanError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(FaultPlanError::EmptyPlan);
        }
        let mut specs = Vec::new();
        for (i, raw) in s.split(',').enumerate() {
            let entry = raw.trim();
            if entry.is_empty() {
                return Err(FaultPlanError::EmptyEntry { position: i + 1 });
            }
            specs.push(Self::parse_entry(entry)?);
        }
        Ok(Self { specs })
    }

    fn parse_entry(entry: &str) -> Result<FaultSpec, FaultPlanError> {
        let (kind_tok, trigger) =
            entry
                .split_once('@')
                .ok_or_else(|| FaultPlanError::MissingTrigger {
                    entry: entry.to_string(),
                })?;
        let kind =
            FaultKind::from_token(kind_tok.trim()).ok_or_else(|| FaultPlanError::UnknownKind {
                token: kind_tok.trim().to_string(),
            })?;
        let (scope_tok, rest) =
            trigger
                .split_once('=')
                .ok_or_else(|| FaultPlanError::MissingTrigger {
                    entry: entry.to_string(),
                })?;
        if scope_tok.trim() != kind.scope() {
            return Err(FaultPlanError::WrongScope {
                kind,
                scope: scope_tok.trim().to_string(),
            });
        }
        let (index_tok, magnitude_tok) = match rest.split_once(':') {
            Some((i, m)) => (i, Some(m)),
            None => (rest, None),
        };
        let index = index_tok
            .trim()
            .parse::<u64>()
            .map_err(|_| FaultPlanError::BadIndex {
                entry: entry.to_string(),
                value: index_tok.trim().to_string(),
            })?;
        let magnitude = match magnitude_tok {
            None => None,
            Some(tok) => Some(Self::parse_magnitude(kind, tok.trim())?),
        };
        Ok(FaultSpec {
            kind,
            index,
            magnitude,
        })
    }

    fn parse_magnitude(kind: FaultKind, tok: &str) -> Result<f64, FaultPlanError> {
        let bad = |reason| FaultPlanError::BadMagnitude {
            kind,
            value: tok.to_string(),
            reason,
        };
        let value: f64 = tok
            .parse()
            .map_err(|_| bad("expected a number after ':'"))?;
        match kind {
            FaultKind::PcieStall => {
                if !value.is_finite() || value <= 0.0 {
                    return Err(bad("the stall factor must be a positive number"));
                }
            }
            FaultKind::TransferError => {
                if value.fract() != 0.0 || !(1.0..=16.0).contains(&value) {
                    return Err(bad("the failure count must be an integer in 1..=16"));
                }
            }
            FaultKind::Oom => {
                if !(value.is_finite() && 0.0 < value && value <= 1.0) {
                    return Err(bad("the evicted fraction must be in (0, 1]"));
                }
            }
            FaultKind::WorkerPanic => {
                return Err(bad("worker_panic takes no magnitude"));
            }
        }
        Ok(value)
    }

    /// The plan's entries, in declaration order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }
}

impl std::fmt::Display for FaultPlan {
    /// Renders the plan back into its parseable syntax (round-trips).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{spec}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = FaultPlanError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Runtime fault injector: answers "does a fault fire here?" queries from
/// the pipeline's stages.
///
/// Transfer and cache-pressure triggers are stateless pure functions of
/// the simulated position. Worker-panic triggers carry fire-once state
/// *per epoch* (keyed by `(entry, epoch)`): the first attempt at the
/// trigger window panics, the replayed attempt proceeds — and because the
/// state is keyed per epoch, `run_epoch` stays a pure function of the
/// epoch index, which checkpoint/resume relies on.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    model: RetryCostModel,
    fired_panics: Mutex<HashSet<(usize, u64)>>,
}

impl FaultInjector {
    /// An injector executing `plan` with the default retry cost model.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            model: RetryCostModel::default(),
            fired_panics: Mutex::new(HashSet::new()),
        }
    }

    /// The deterministic retry pricing used for injected transfer errors.
    pub fn retry_model(&self) -> &RetryCostModel {
        &self.model
    }

    /// The transfer fault (if any) for the batch at `batch` within its
    /// epoch; first matching plan entry wins.
    pub fn transfer_fault(&self, batch: u64) -> Option<TransferFault> {
        self.plan.specs.iter().find_map(|s| match s.kind {
            FaultKind::PcieStall if s.index == batch => Some(TransferFault::Stall {
                factor: s.magnitude.unwrap_or(4.0),
            }),
            FaultKind::TransferError if s.index == batch => Some(TransferFault::Retryable {
                failures: s.magnitude.unwrap_or(1.0) as u32,
            }),
            _ => None,
        })
    }

    /// The fraction of the feature cache to evict at the start of
    /// `epoch`, if an `oom` entry targets it.
    pub fn cache_pressure(&self, epoch: u64) -> Option<f64> {
        self.plan.specs.iter().find_map(|s| match s.kind {
            FaultKind::Oom if s.index == epoch => Some(s.magnitude.unwrap_or(0.5)),
            _ => None,
        })
    }

    /// Whether the sample-stage worker should panic at `window` of
    /// `epoch`. Fires at most once per plan entry per epoch, so the
    /// executor's replay of the window succeeds.
    pub fn take_worker_panic(&self, epoch: u64, window: u64) -> bool {
        let mut fired = self.fired_panics.lock().expect("injector mutex poisoned");
        for (i, s) in self.plan.specs.iter().enumerate() {
            if s.kind == FaultKind::WorkerPanic && s.index == window && fired.insert((i, epoch)) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_example() {
        let plan =
            FaultPlan::parse("pcie_stall@batch=7,oom@epoch=1,worker_panic@window=3").unwrap();
        assert_eq!(plan.specs().len(), 3);
        assert_eq!(
            plan.to_string(),
            "pcie_stall@batch=7,oom@epoch=1,worker_panic@window=3"
        );
    }

    #[test]
    fn round_trips_with_magnitudes() {
        let text = "pcie_stall@batch=2:8,transfer_error@batch=5:3,oom@epoch=0:0.25";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.to_string(), text);
        let again: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(plan, again);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let plan = FaultPlan::parse(" pcie_stall@batch=1 , oom@epoch=0 ").unwrap();
        assert_eq!(plan.specs().len(), 2);
    }

    #[test]
    fn rejects_malformed_plans_with_actionable_errors() {
        for (text, needle) in [
            ("", "empty fault plan"),
            ("pcie_stall@batch=1,,oom@epoch=0", "blank"),
            ("meteor_strike@batch=1", "unknown fault kind"),
            ("pcie_stall", "no trigger"),
            ("pcie_stall@batch", "no trigger"),
            ("oom@batch=1", "scope 'epoch'"),
            ("worker_panic@epoch=1", "scope 'window'"),
            ("pcie_stall@batch=minus_one", "bad trigger index"),
            ("pcie_stall@batch=1:-2", "positive"),
            ("transfer_error@batch=1:2.5", "integer in 1..=16"),
            ("transfer_error@batch=1:99", "integer in 1..=16"),
            ("oom@epoch=0:1.5", "(0, 1]"),
            ("worker_panic@window=1:3", "no magnitude"),
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "plan '{text}': '{msg}' lacks '{needle}'"
            );
        }
    }

    #[test]
    fn injector_triggers_are_positional() {
        let inj = FaultInjector::new(
            FaultPlan::parse("pcie_stall@batch=2,transfer_error@batch=4:3,oom@epoch=1").unwrap(),
        );
        assert!(inj.transfer_fault(0).is_none());
        assert!(matches!(
            inj.transfer_fault(2),
            Some(TransferFault::Stall { .. })
        ));
        assert!(matches!(
            inj.transfer_fault(4),
            Some(TransferFault::Retryable { failures: 3 })
        ));
        assert_eq!(inj.cache_pressure(0), None);
        assert_eq!(inj.cache_pressure(1), Some(0.5));
    }

    #[test]
    fn worker_panic_fires_once_per_epoch() {
        let inj = FaultInjector::new(FaultPlan::parse("worker_panic@window=3").unwrap());
        assert!(!inj.take_worker_panic(0, 2));
        assert!(inj.take_worker_panic(0, 3), "first attempt panics");
        assert!(!inj.take_worker_panic(0, 3), "replay proceeds");
        assert!(inj.take_worker_panic(1, 3), "next epoch fires again");
    }
}
