//! Call identifiers: copyable operation labels that never allocate.
//!
//! The client used to label trace events with `String`s — one heap
//! allocation per CUDA call, even when nobody was reading the trace. [`Op`]
//! replaces that with a `Copy` enum over `&'static str` names (plus a
//! structured case for batched frames), so recording a call costs nothing
//! beyond the struct copy.

use serde::{Content, Deserialize, Error, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Mutex;

/// Deserialized names, leaked once each: a trace names a few dozen
/// distinct operations however many events it holds. (The label table
/// itself lives in `rcuda-proto`, which depends on this crate.)
static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// The `'static` copy of `name`, leaking it the first time it is seen.
fn intern(name: &str) -> &'static str {
    // Every update is one insert, so a panic elsewhere cannot leave the set
    // half-updated: a poisoned lock is safe to take over.
    let mut interned = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
    match interned.get(name) {
        Some(known) => known,
        None => {
            let leaked: &'static str = Box::leak(name.into());
            interned.insert(leaked);
            leaked
        }
    }
}

/// A call identifier: a named CUDA operation, a batched frame, or a
/// workload-phase marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// A single named operation (`cudaMalloc`, `initialization`, ...).
    Named(&'static str),
    /// A pipelined batch frame of `n` deferred calls.
    Batch(u32),
    /// A workload-phase marker span: the driver brackets a group of calls
    /// (e.g. a transformer block's GEMM chain) with one span whose start/end
    /// cover the whole phase. Carries no bytes of its own; aggregation folds
    /// the ordinary call spans inside its window (see `Report::phase_rows`).
    Phase(&'static str),
}

impl Op {
    /// Parse a display form back into an [`Op`]. `batch[n]` becomes
    /// [`Op::Batch`], `phase:name` becomes [`Op::Phase`]; every name is
    /// interned, so each distinct one is leaked once per process (trace
    /// deserialization is a cold path).
    pub fn parse(s: &str) -> Op {
        if let Some(n) = s
            .strip_prefix("batch[")
            .and_then(|rest| rest.strip_suffix(']'))
            .and_then(|n| n.parse::<u32>().ok())
        {
            return Op::Batch(n);
        }
        if let Some(name) = s.strip_prefix("phase:") {
            return Op::Phase(intern(name));
        }
        Op::Named(intern(s))
    }

    /// The static name, for single operations.
    pub fn as_named(&self) -> Option<&'static str> {
        match self {
            Op::Named(name) => Some(name),
            Op::Batch(_) | Op::Phase(_) => None,
        }
    }

    /// The phase label, for phase-marker spans.
    pub fn as_phase(&self) -> Option<&'static str> {
        match self {
            Op::Phase(name) => Some(name),
            Op::Named(_) | Op::Batch(_) => None,
        }
    }

    /// The aggregation key: the operation name, with every batch size
    /// folding into one `batch` group and phase markers keeping their label.
    pub fn group(&self) -> &'static str {
        match self {
            Op::Named(name) => name,
            Op::Batch(_) => "batch",
            Op::Phase(name) => name,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Named(name) => f.write_str(name),
            Op::Batch(n) => write!(f, "batch[{n}]"),
            Op::Phase(name) => write!(f, "phase:{name}"),
        }
    }
}

impl PartialEq<str> for Op {
    fn eq(&self, other: &str) -> bool {
        match self {
            Op::Named(name) => *name == other,
            Op::Batch(n) => {
                other
                    .strip_prefix("batch[")
                    .and_then(|rest| rest.strip_suffix(']'))
                    .and_then(|m| m.parse::<u32>().ok())
                    == Some(*n)
            }
            Op::Phase(name) => other.strip_prefix("phase:") == Some(name),
        }
    }
}

impl PartialEq<&str> for Op {
    fn eq(&self, other: &&str) -> bool {
        self == *other
    }
}

impl PartialEq<Op> for str {
    fn eq(&self, other: &Op) -> bool {
        other == self
    }
}

impl PartialEq<Op> for &str {
    fn eq(&self, other: &Op) -> bool {
        other == *self
    }
}

impl Serialize for Op {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Deserialize for Op {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Str(s) => Ok(Op::parse(s)),
            other => Err(Error::custom(format!("expected op string, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        for op in [Op::Named("cudaMalloc"), Op::Batch(7), Op::Phase("block")] {
            assert_eq!(Op::parse(&op.to_string()), op);
        }
    }

    #[test]
    fn phase_markers_display_compare_and_group() {
        let p = Op::Phase("weights");
        assert_eq!(p.to_string(), "phase:weights");
        assert!(p == "phase:weights");
        assert!(p != "weights");
        assert_eq!(p.group(), "weights");
        assert_eq!(p.as_phase(), Some("weights"));
        assert_eq!(p.as_named(), None);
        assert_eq!(Op::Named("weights").as_phase(), None);
        assert_eq!(Op::from_content(&p.to_content()).unwrap(), p);
    }

    #[test]
    fn repeated_parses_share_one_interned_name() {
        for label in ["cudaMemcpyH2H", "cudaMemcpyAsyncD2D", "phase:w", "custom"] {
            let (a, b) = (Op::parse(label), Op::parse(label));
            assert_eq!(a, b);
            let (a, b) = (a.as_named().or(a.as_phase()), b.as_named().or(b.as_phase()));
            assert!(std::ptr::eq(a.unwrap(), b.unwrap()), "{label} leaked twice");
        }
    }

    #[test]
    fn string_comparisons_work_both_ways() {
        assert_eq!(Op::Named("cudaFree"), *"cudaFree");
        assert!(Op::Named("cudaFree") == "cudaFree");
        assert!("cudaFree" == Op::Named("cudaFree"));
        assert!(Op::Batch(3) == "batch[3]");
        assert!(Op::Batch(3) != "batch[4]");
        assert!(Op::Named("cudaFree") != "cudaMalloc");
    }

    #[test]
    fn batch_groups_fold_together() {
        assert_eq!(Op::Batch(2).group(), Op::Batch(9).group());
        assert_eq!(Op::Named("cudaLaunch").group(), "cudaLaunch");
    }

    #[test]
    fn serde_round_trip() {
        let op = Op::Batch(12);
        let c = op.to_content();
        assert_eq!(Op::from_content(&c).unwrap(), op);
        let op = Op::Named("cudaLaunch");
        assert_eq!(Op::from_content(&op.to_content()).unwrap(), op);
    }
}
