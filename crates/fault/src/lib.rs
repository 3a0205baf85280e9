//! # ganopc-fault — deterministic fault injection
//!
//! A seeded, deterministic fault plane for robustness testing. Production
//! code calls the query hooks at its failure-prone boundaries:
//!
//! * [`next_write_fault`] — consulted once per atomic artifact write
//!   (`geometry::io::write_atomic*`); can fail the write outright, tear it
//!   at a byte offset, report `ENOSPC`, or fail the fsync/rename step.
//! * [`next_read_fault`] — consulted once per checkpoint file read
//!   (`nn::checkpoint::Checkpoint::load`, which also reads every SOCS
//!   kernel-cache entry); fails the read with an injected I/O error, which
//!   the kernel cache treats as a miss.
//! * [`numeric_fault`] — consulted once per training/pretraining/ILT step;
//!   poisons the step's reported loss with NaN or ∞ at a chosen step index,
//!   simulating numeric divergence for the supervisor to catch.
//!
//! With the `fault-inject` feature **off** (the default) every hook is an
//! inlined constant no-op — no statics, no locks, no branches survive
//! optimization, so the zero-allocation and obs-overhead budgets hold
//! unchanged. With the feature on, a process-global [`FaultPlan`] installed
//! by [`install`] drives the hooks.
//!
//! ## Determinism and one-shot semantics
//!
//! A plan addresses faults by *operation index*: write faults fire on the
//! Nth write operation after [`install`], read faults on the Nth checkpoint
//! read, numeric faults on an exact `(domain, step)` pair. Each plan entry
//! fires **at most once** and is then consumed, so a supervisor rollback
//! that replays the faulted step sees it succeed — exactly the transient
//! fault model self-healing is designed for. [`plan_from_seed`] derives a
//! randomized-but-reproducible plan from a seed (splitmix64), which is what
//! the fault-soak gate iterates over.
//!
//! The sink is shared process state: tests that install plans must
//! serialize themselves (the fault-soak suite holds a global lock).

/// Whether the `fault-inject` feature is compiled in.
pub const fn enabled() -> bool {
    cfg!(feature = "fault-inject")
}

/// A fault applied to one atomic artifact write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// Fail before any byte reaches the temporary file.
    Fail,
    /// Write exactly this many payload bytes, then fail — a torn write.
    Tear(usize),
    /// Fail the first payload write with `ENOSPC` (disk full).
    Enospc,
    /// Payload lands, but the `fsync` step fails.
    FsyncFail,
    /// Payload lands and syncs, but the rename into place fails.
    RenameFail,
}

/// A poison value injected into a step's reported loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumericFault {
    /// Replace the loss with NaN.
    Nan,
    /// Replace the loss with +∞.
    Inf,
}

impl NumericFault {
    /// The poison value to substitute for the real loss.
    pub fn as_f64(self) -> f64 {
        match self {
            NumericFault::Nan => f64::NAN,
            NumericFault::Inf => f64::INFINITY,
        }
    }
}

/// Which numeric loop a numeric fault targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Domain {
    /// Adversarial training steps (`GanTrainer::train_step`).
    Train,
    /// ILT-guided pretraining steps.
    Pretrain,
    /// ILT descent iterations.
    Ilt,
}

/// A deterministic schedule of faults, installed with [`install`].
///
/// Operation indices are 0-based and count from the moment of
/// installation; see the crate docs for the one-shot semantics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// `(operation index, fault)` for atomic artifact writes.
    pub write_faults: Vec<(u64, WriteFault)>,
    /// Operation indices of checkpoint reads that fail.
    pub read_faults: Vec<u64>,
    /// `(domain, step index, poison)` for numeric loops.
    pub numeric_faults: Vec<(Domain, u64, NumericFault)>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// True when every fault list is empty (nothing left to fire).
    pub fn is_empty(&self) -> bool {
        self.write_faults.is_empty()
            && self.read_faults.is_empty()
            && self.numeric_faults.is_empty()
    }
}

/// Derives a randomized-but-reproducible fault plan from `seed`: one to
/// three write faults in the first ten write operations (all
/// [`WriteFault`] kinds reachable), an optional early read fault, and up
/// to two numeric poisons within the first eight steps of a random
/// domain. Pure function of the seed — the fault-soak gate relies on it.
pub fn plan_from_seed(seed: u64) -> FaultPlan {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x1234_5678);
    let mut plan = FaultPlan::empty();
    let writes = 1 + (splitmix(&mut state) % 3) as usize;
    for _ in 0..writes {
        let at = splitmix(&mut state) % 10;
        let kind = match splitmix(&mut state) % 5 {
            0 => WriteFault::Fail,
            1 => WriteFault::Tear((splitmix(&mut state) % 4096) as usize),
            2 => WriteFault::Enospc,
            3 => WriteFault::FsyncFail,
            _ => WriteFault::RenameFail,
        };
        plan.write_faults.push((at, kind));
    }
    // One fault per operation index keeps the plan unambiguous.
    plan.write_faults.sort_by_key(|&(at, _)| at);
    plan.write_faults.dedup_by_key(|e| e.0);
    if splitmix(&mut state).is_multiple_of(2) {
        plan.read_faults.push(splitmix(&mut state) % 4);
    }
    let numerics = (splitmix(&mut state) % 3) as usize;
    for _ in 0..numerics {
        let domain = match splitmix(&mut state) % 3 {
            0 => Domain::Train,
            1 => Domain::Pretrain,
            _ => Domain::Ilt,
        };
        let at = 1 + splitmix(&mut state) % 8;
        let kind = if splitmix(&mut state).is_multiple_of(2) {
            NumericFault::Nan
        } else {
            NumericFault::Inf
        };
        plan.numeric_faults.push((domain, at, kind));
    }
    plan.numeric_faults.sort_by_key(|&(_, at, _)| at);
    plan
}

/// splitmix64 — the crate is dependency-free, so the generator is inlined.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(feature = "fault-inject")]
mod armed {
    use super::FaultPlan;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    pub(super) struct State {
        pub plan: Option<FaultPlan>,
        pub write_ops: u64,
        pub read_ops: u64,
        pub injected: u64,
    }

    pub(super) static STATE: Mutex<State> =
        Mutex::new(State { plan: None, write_ops: 0, read_ops: 0, injected: 0 });

    /// A panicking faulted test must not wedge the sink for the rest of
    /// the process: recover the poisoned lock instead of propagating.
    pub(super) fn lock() -> MutexGuard<'static, State> {
        STATE.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Installs `plan`, resetting the operation counters to zero. Replaces
/// any previously installed plan. No-op without `fault-inject`.
#[cfg(feature = "fault-inject")]
pub fn install(plan: FaultPlan) {
    let mut st = armed::lock();
    st.plan = Some(plan);
    st.write_ops = 0;
    st.read_ops = 0;
}

/// Installs `plan` (no-op: the `fault-inject` feature is off).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn install(_plan: FaultPlan) {}

/// Removes any installed plan. Operation and injection counters persist
/// until the next [`install`].
#[cfg(feature = "fault-inject")]
pub fn clear() {
    armed::lock().plan = None;
}

/// Removes any installed plan (no-op: the `fault-inject` feature is off).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn clear() {}

/// Total faults fired since process start (all kinds).
#[cfg(feature = "fault-inject")]
pub fn injected_count() -> u64 {
    armed::lock().injected
}

/// Total faults fired since process start (always 0: feature off).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn injected_count() -> u64 {
    0
}

/// Consulted once per atomic artifact write; returns the fault to apply
/// to this write, if the installed plan schedules one. Consumes the
/// fired entry (one-shot).
#[cfg(feature = "fault-inject")]
pub fn next_write_fault() -> Option<WriteFault> {
    let mut st = armed::lock();
    st.plan.as_ref()?;
    let op = st.write_ops;
    st.write_ops += 1;
    let fired = {
        let plan = st.plan.as_mut()?;
        let hit = plan.write_faults.iter().position(|&(at, _)| at == op)?;
        plan.write_faults.remove(hit).1
    };
    st.injected += 1;
    Some(fired)
}

/// Consulted once per atomic artifact write (always `None`: feature off).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn next_write_fault() -> Option<WriteFault> {
    None
}

/// Consulted once per checkpoint file read; true when this read must
/// fail. Consumes the fired entry (one-shot).
#[cfg(feature = "fault-inject")]
pub fn next_read_fault() -> bool {
    let mut st = armed::lock();
    if st.plan.is_none() {
        return false;
    }
    let op = st.read_ops;
    st.read_ops += 1;
    let fired = match st.plan.as_mut() {
        Some(plan) => match plan.read_faults.iter().position(|&at| at == op) {
            Some(hit) => {
                plan.read_faults.remove(hit);
                true
            }
            None => false,
        },
        None => false,
    };
    if fired {
        st.injected += 1;
    }
    fired
}

/// Consulted once per checkpoint file read (always `false`: feature off).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn next_read_fault() -> bool {
    false
}

/// Consulted once per numeric step; returns the poison scheduled for this
/// exact `(domain, step)`, if any. Consumes the fired entry (one-shot).
#[cfg(feature = "fault-inject")]
pub fn numeric_fault(domain: Domain, step: u64) -> Option<NumericFault> {
    let mut st = armed::lock();
    let fired = {
        let plan = st.plan.as_mut()?;
        let hit = plan.numeric_faults.iter().position(|&(d, at, _)| d == domain && at == step)?;
        plan.numeric_faults.remove(hit).2
    };
    st.injected += 1;
    Some(fired)
}

/// Consulted once per numeric step (always `None`: feature off).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn numeric_fault(_domain: Domain, _step: u64) -> Option<NumericFault> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_nonempty() {
        for seed in 0..64 {
            let a = plan_from_seed(seed);
            let b = plan_from_seed(seed);
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert!(!a.write_faults.is_empty(), "seed {seed} has no write faults");
            for &(at, _) in &a.write_faults {
                assert!(at < 10);
            }
            for &(_, at, _) in &a.numeric_faults {
                assert!((1..=8).contains(&at));
            }
        }
    }

    #[test]
    fn seeds_cover_every_write_fault_kind() {
        let mut tear = false;
        let mut enospc = false;
        let mut fsync = false;
        let mut rename = false;
        let mut fail = false;
        for seed in 0..64 {
            for (_, kind) in plan_from_seed(seed).write_faults {
                match kind {
                    WriteFault::Fail => fail = true,
                    WriteFault::Tear(_) => tear = true,
                    WriteFault::Enospc => enospc = true,
                    WriteFault::FsyncFail => fsync = true,
                    WriteFault::RenameFail => rename = true,
                }
            }
        }
        assert!(fail && tear && enospc && fsync && rename, "64 seeds must reach every kind");
    }

    #[test]
    fn poison_values_are_nonfinite() {
        assert!(NumericFault::Nan.as_f64().is_nan());
        assert!(NumericFault::Inf.as_f64().is_infinite());
    }

    // With the feature off these hooks must stay inert even after an
    // install; scripts/check.sh relies on this test running in the
    // default-feature workspace pass.
    #[cfg(not(feature = "fault-inject"))]
    #[test]
    fn hooks_are_inert_without_the_feature() {
        assert!(!enabled());
        install(plan_from_seed(1));
        assert_eq!(next_write_fault(), None);
        assert!(!next_read_fault());
        assert_eq!(numeric_fault(Domain::Train, 1), None);
        assert_eq!(injected_count(), 0);
        clear();
    }

    #[cfg(feature = "fault-inject")]
    mod armed_behaviour {
        use super::super::*;
        use std::sync::Mutex;

        // The sink is process-global; serialize the armed tests.
        static LOCK: Mutex<()> = Mutex::new(());

        fn serial() -> std::sync::MutexGuard<'static, ()> {
            LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        #[test]
        fn write_faults_fire_once_at_their_op_index() {
            let _g = serial();
            let mut plan = FaultPlan::empty();
            plan.write_faults.push((1, WriteFault::Enospc));
            install(plan);
            assert_eq!(next_write_fault(), None); // op 0
            assert_eq!(next_write_fault(), Some(WriteFault::Enospc)); // op 1
            assert_eq!(next_write_fault(), None); // consumed
            clear();
        }

        #[test]
        fn numeric_faults_match_domain_and_step() {
            let _g = serial();
            let mut plan = FaultPlan::empty();
            plan.numeric_faults.push((Domain::Ilt, 3, NumericFault::Nan));
            install(plan);
            assert_eq!(numeric_fault(Domain::Train, 3), None);
            assert_eq!(numeric_fault(Domain::Ilt, 2), None);
            assert_eq!(numeric_fault(Domain::Ilt, 3), Some(NumericFault::Nan));
            assert_eq!(numeric_fault(Domain::Ilt, 3), None); // one-shot
            clear();
        }

        #[test]
        fn read_faults_count_their_own_ops() {
            let _g = serial();
            let mut plan = FaultPlan::empty();
            plan.read_faults.push(0);
            install(plan);
            assert_eq!(next_write_fault(), None); // write ops are independent
            assert!(next_read_fault());
            assert!(!next_read_fault());
            clear();
        }

        #[test]
        fn install_resets_op_counters() {
            let _g = serial();
            let mut plan = FaultPlan::empty();
            plan.write_faults.push((0, WriteFault::Fail));
            install(plan.clone());
            assert_eq!(next_write_fault(), Some(WriteFault::Fail));
            install(plan);
            assert_eq!(next_write_fault(), Some(WriteFault::Fail));
            clear();
        }
    }
}
