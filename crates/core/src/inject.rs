//! Injector-poll cadence — when an idle worker checks the external
//! front door.
//!
//! The paper's steal loop (Figure 3) only ever looks at other workers'
//! deques; an external-submission injector adds a second place work can
//! appear. *How often* a work-less worker polls that injector is a
//! policy decision with the same flavor as victim selection or backoff:
//! poll too eagerly and P workers hammer the shard locks; poll too
//! lazily and inject-to-start latency grows. This module makes the
//! cadence a fourth [`crate::PolicySet`] axis so it can be ablated like
//! the other three.
//!
//! Crucially, an injector poll is a *bounded* extra probe inside an
//! already-unbounded hunt for work — it never blocks (the sharded
//! injector uses `try_lock` and gives up), so the non-blocking property
//! the paper's deque provides is preserved: a worker always completes
//! its hunt iteration in a bounded number of its own steps regardless of
//! what other clients or workers are doing.

/// What to do with an injector-poll opportunity, given the worker's
/// consecutive-failure count.
pub trait InjectPolicy: Send {
    /// True when the worker should poll the injector on this hunt
    /// iteration. `fails` is the consecutive-failure count maintained by
    /// the engine (reset on any found work).
    fn should_poll(&mut self, fails: u32) -> bool;

    /// Short stable name for labels and debugging.
    fn name(&self) -> &'static str;
}

/// Poll the injector once per victim scan — the default. One bounded
/// extra probe per hunt keeps inject-to-start latency within one scan
/// length without adding contention proportional to P.
#[derive(Debug, Clone, Copy, Default)]
pub struct EveryScan;

impl InjectPolicy for EveryScan {
    fn should_poll(&mut self, _fails: u32) -> bool {
        true
    }
    fn name(&self) -> &'static str {
        "inject-scan"
    }
}

/// Never poll — the pre-injector behavior, for ablation. External
/// submissions are then only picked up by the explicit drain points
/// (park wake-up and shutdown), not the steal loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverInject;

impl InjectPolicy for NeverInject {
    fn should_poll(&mut self, _fails: u32) -> bool {
        false
    }
    fn name(&self) -> &'static str {
        "inject-never"
    }
}

/// Cloneable spec for the injector-poll cadence, the fourth
/// [`crate::PolicySet`] axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InjectKind {
    /// Once per victim scan (the default).
    #[default]
    EveryScan,
    /// Never from the steal loop.
    Never,
}

impl InjectKind {
    /// Builds the boxed policy.
    pub fn build(&self) -> Box<dyn InjectPolicy> {
        match *self {
            InjectKind::EveryScan => Box::new(EveryScan),
            InjectKind::Never => Box::new(NeverInject),
        }
    }

    /// Short stable label for policy identity strings.
    pub fn label(&self) -> &'static str {
        match self {
            InjectKind::EveryScan => "inject-scan",
            InjectKind::Never => "inject-never",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scan_always_polls() {
        let mut p = InjectKind::EveryScan.build();
        for fails in 0..10 {
            assert!(p.should_poll(fails));
        }
        assert_eq!(p.name(), "inject-scan");
    }

    #[test]
    fn never_never_polls() {
        let mut p = InjectKind::Never.build();
        assert!(!p.should_poll(0));
        assert!(!p.should_poll(100));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(InjectKind::EveryScan.label(), "inject-scan");
        assert_eq!(InjectKind::Never.label(), "inject-never");
        assert_eq!(InjectKind::default(), InjectKind::EveryScan);
    }
}
