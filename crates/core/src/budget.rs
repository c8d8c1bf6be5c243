//! Per-invocation resource budgets shared by the CLI verbs and the
//! evaluation service: a wall-clock limit plus a state-count cap.
//!
//! Both engines below the facade understand these natively — the explorer
//! takes a deadline ([`multival_pa::ExploreOptions::with_deadline`]) and a
//! state cap, the Monte-Carlo driver a deadline between batches
//! ([`multival_ctmc::McOptions::deadline`]) — so a `Budget` is just the
//! user-facing bundle that turns `--timeout-secs`/`--max-states` flags (or
//! JSON job fields) into those knobs at the moment the work starts.

use multival_lts::io::{read_aut, read_aut_header, read_blts, BltsReader};
use multival_lts::Lts;
use std::time::{Duration, Instant};

/// A resource budget for one evaluation: optional wall-clock limit and
/// optional state-count cap. `Default` is unlimited.
///
/// # Examples
///
/// ```
/// use multival::budget::Budget;
///
/// let b = Budget::default().with_timeout_secs(5).with_max_states(10_000);
/// assert_eq!(b.max_states_or(1_000_000), 10_000);
/// assert!(b.deadline().is_some());
/// assert!(Budget::default().deadline().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Wall-clock limit for the whole evaluation, `None` = unlimited.
    pub timeout: Option<Duration>,
    /// State-count cap for exploration, `None` = the verb's default.
    pub max_states: Option<usize>,
}

impl Budget {
    /// Sets the wall-clock limit in whole seconds.
    #[must_use]
    pub fn with_timeout_secs(mut self, secs: u64) -> Budget {
        self.timeout = Some(Duration::from_secs(secs));
        self
    }

    /// Sets the state-count cap.
    #[must_use]
    pub fn with_max_states(mut self, cap: usize) -> Budget {
        self.max_states = Some(cap);
        self
    }

    /// Resolves the timeout into an absolute deadline counted from *now*
    /// (call this when the work starts, not when the flags are parsed).
    /// A timeout too long for the clock to represent is no deadline.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.timeout.and_then(|t| Instant::now().checked_add(t))
    }

    /// The state cap, or `default` when unset.
    #[must_use]
    pub fn max_states_or(&self, default: usize) -> usize {
        self.max_states.unwrap_or(default)
    }

    /// `true` when neither limit is set.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none() && self.max_states.is_none()
    }
}

/// Parses Aldebaran text whose header declares at most `max_states`
/// states. The header is checked before anything is allocated for it, so
/// `des (0, 1, 2000000000)` is a `Budget exceeded` error rather than an
/// 8 GB allocation.
///
/// # Errors
///
/// Returns the parse error, or `Budget exceeded: …` when the declared
/// state count is over `max_states`.
pub fn read_aut_capped(text: &str, max_states: usize) -> Result<Lts, String> {
    let declared = read_aut_header(text).map_err(|e| e.to_string())?.states;
    if declared as usize > max_states {
        return Err(format!(
            "Budget exceeded: the .aut header declares {declared} states, \
             over the cap of {max_states}"
        ));
    }
    read_aut(text).map_err(|e| e.to_string())
}

/// Decodes a BLTS buffer whose header declares at most `max_states`
/// states. The header is checked before any chunk is decoded, so a
/// crafted 4-billion-state header is a `Budget exceeded` error rather
/// than a multi-gigabyte allocation.
///
/// # Errors
///
/// Returns the decode error, or `Budget exceeded: …` when the declared
/// state count is over `max_states`.
pub fn read_blts_capped(bytes: &[u8], max_states: usize) -> Result<Lts, String> {
    let declared = BltsReader::new(bytes).map_err(|e| e.to_string())?.num_states;
    if declared as usize > max_states {
        return Err(format!(
            "Budget exceeded: the .blts header declares {declared} states, \
             over the cap of {max_states}"
        ));
    }
    read_blts(bytes).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aut_header_over_the_cap_is_refused_before_allocating() {
        let hostile = "des (0, 1, 2000000000)\n(0, \"a\", 0)\n";
        let err = read_aut_capped(hostile, 1_000_000).expect_err("over the cap");
        assert!(err.starts_with("Budget exceeded"), "{err}");
        let lts = read_aut_capped("des (0, 1, 2)\n(0, \"a\", 1)\n", 2).expect("at the cap");
        assert_eq!(lts.num_states(), 2);
    }

    #[test]
    fn blts_header_over_the_cap_is_refused_before_decoding() {
        let mut b = multival_lts::LtsBuilder::new();
        let (s0, s1) = (b.add_state(), b.add_state());
        b.add_transition(s0, "a", s1);
        let bytes = multival_lts::io::write_blts(&b.build(0));
        let err = read_blts_capped(&bytes, 1).expect_err("over the cap");
        assert!(err.starts_with("Budget exceeded"), "{err}");
        let lts = read_blts_capped(&bytes, 2).expect("at the cap");
        assert_eq!(lts.num_states(), 2);
    }

    #[test]
    fn default_is_unlimited() {
        let b = Budget::default();
        assert!(b.is_unlimited());
        assert!(b.deadline().is_none());
        assert_eq!(b.max_states_or(7), 7);
    }

    #[test]
    fn builders_set_limits() {
        let b = Budget::default().with_timeout_secs(2).with_max_states(99);
        assert!(!b.is_unlimited());
        assert_eq!(b.timeout, Some(Duration::from_secs(2)));
        assert_eq!(b.max_states_or(7), 99);
        let d = b.deadline().expect("deadline set");
        assert!(d > Instant::now());
        assert!(d <= Instant::now() + Duration::from_secs(3));
    }

    #[test]
    fn unrepresentable_timeout_is_no_deadline() {
        let b = Budget::default().with_timeout_secs(u64::MAX);
        assert_eq!(b.timeout, Some(Duration::from_secs(u64::MAX)));
        assert!(b.deadline().is_none());
    }
}
