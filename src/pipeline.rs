//! The full two-phase compilation pipeline of the paper's Figure 5:
//! cluster assignment, then traditional modulo scheduling, escalating II
//! whenever either phase fails. Escalation re-enters a per-loop
//! [`Assigner`] workspace that resets its working state in place and
//! recycles the failed attempt's buffers, rather than re-assigning from
//! scratch — with decisions bit-identical to a from-scratch run.
//!
//! Every failure reaching [`PipelineError`] is typed: scheduler failures
//! arrive as [`clasp_sched::SchedFailure`] (budget, window, resource —
//! with the blocking node), assignment failures as
//! [`clasp_core::AssignError`], and the unified baseline has its own
//! variant so baseline pathology is never mistaken for clustered-machine
//! exhaustion.

use clasp_core::{
    post_scheduling_assign_from, AssignConfig, AssignError, AssignTrace, Assigner, Assignment,
};
use clasp_ddg::{Ddg, LoopAnalysis};
use clasp_machine::MachineSpec;
use clasp_obs::{Counter, Obs};
use clasp_sched::{
    max_ii_bound, schedule_with_stats, unified_map, AttemptStats, SchedContext, SchedFailure,
    Schedule, SchedulerConfig, SchedulerKind,
};
use std::fmt;

/// Configuration for the whole pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Phase 1 (cluster assignment) knobs.
    pub assign: AssignConfig,
    /// Phase 2 (modulo scheduling) knobs.
    pub sched: SchedulerConfig,
    /// Which phase-2 scheduler to run (iterative by default; the paper's
    /// own experiments used the iterative swing scheduler).
    pub scheduler: SchedulerKind,
}

impl From<clasp_core::Variant> for PipelineConfig {
    fn from(v: clasp_core::Variant) -> Self {
        PipelineConfig {
            assign: v.into(),
            sched: SchedulerConfig::default(),
            scheduler: SchedulerKind::default(),
        }
    }
}

/// A fully compiled loop: the cluster assignment and the modulo schedule
/// that realizes it.
#[derive(Debug, Clone)]
pub struct CompiledLoop {
    /// Phase-1 output: working graph (with copies) and cluster map.
    pub assignment: Assignment,
    /// Phase-2 output: issue cycles at `schedule.ii()`.
    pub schedule: Schedule,
}

impl CompiledLoop {
    /// The achieved initiation interval.
    pub fn ii(&self) -> u32 {
        self.schedule.ii()
    }
}

/// Pipeline failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The assignment phase failed outright.
    Assign(AssignError),
    /// No II up to the cap produced both a valid assignment and schedule.
    IiExhausted {
        /// Largest II *actually* attempted. Escalation advances by the
        /// assignment's achieved II plus one, which can skip values, so
        /// this is tracked per attempt rather than assumed to be the
        /// cap. When the escalation range was empty and no attempt ever
        /// ran (`last` is `None`), this falls back to the range cap.
        max_ii: u32,
        /// Why the scheduler rejected the final attempt (`None` when the
        /// escalation range was empty and no attempt ever ran).
        last: Option<SchedFailure>,
    },
    /// The *unified baseline* (the equally wide non-clustered machine the
    /// paper compares against) could not be scheduled — a corpus or
    /// machine-model pathology, distinct from clustered exhaustion. Also
    /// raised (as [`SchedFailure::MiiUnbounded`]) when the machine model
    /// cannot execute some operation class at all: the unified MII is
    /// unbounded, so no escalation range exists for any entry point.
    UnifiedBaselineFailed(SchedFailure),
    /// The emitted kernel diverged from sequential semantics under the
    /// functional simulator (driver verification stage).
    Verify(clasp_kernel::SimError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Assign(e) => write!(f, "assignment failed: {e}"),
            PipelineError::IiExhausted { max_ii, last } => {
                write!(f, "no schedule found up to II = {max_ii}")?;
                if let Some(last) = last {
                    write!(f, " (last failure: {last})")?;
                }
                Ok(())
            }
            PipelineError::UnifiedBaselineFailed(e) => {
                write!(f, "unified baseline failed: {e}")
            }
            PipelineError::Verify(e) => write!(f, "kernel verification failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<AssignError> for PipelineError {
    fn from(e: AssignError) -> Self {
        PipelineError::Assign(e)
    }
}

/// Compile `g` for the clustered `machine`: assign clusters (inserting
/// copies), modulo schedule the annotated graph, and on a scheduling
/// failure restart assignment at a larger II (Figure 5).
///
/// # Errors
///
/// See [`PipelineError`].
///
/// # Examples
///
/// ```
/// use clasp::{compile_loop, PipelineConfig};
/// use clasp_ddg::{Ddg, OpKind};
/// use clasp_machine::presets;
///
/// let mut g = Ddg::new("axpy");
/// let x = g.add(OpKind::Load);
/// let y = g.add(OpKind::Load);
/// let m = g.add(OpKind::FpMult);
/// let a = g.add(OpKind::FpAdd);
/// let s = g.add(OpKind::Store);
/// g.add_dep(x, m);
/// g.add_dep(m, a);
/// g.add_dep(y, a);
/// g.add_dep(a, s);
/// let machine = presets::two_cluster_gp(2, 1);
/// let compiled = compile_loop(&g, &machine, PipelineConfig::default())?;
/// assert!(compiled.ii() >= 1);
/// # Ok::<(), clasp::PipelineError>(())
/// ```
pub fn compile_loop(
    g: &Ddg,
    machine: &MachineSpec,
    config: PipelineConfig,
) -> Result<CompiledLoop, PipelineError> {
    // The source graph never changes across II escalations, so its
    // analysis (SCCs, swing order) is computed once and shared by every
    // assignment attempt. Each escalation's *working* graph is new (fresh
    // copies), so its analysis lives inside the scheduler's context.
    let analysis = LoopAnalysis::compute(g);
    compile_loop_with(g, machine, config, &analysis)
}

pub(crate) fn compile_loop_with(
    g: &Ddg,
    machine: &MachineSpec,
    config: PipelineConfig,
    analysis: &LoopAnalysis,
) -> Result<CompiledLoop, PipelineError> {
    compile_loop_observed(g, machine, config, analysis, &Obs::disabled(), |_, _, _| {})
}

/// The II search range shared by every escalation site: guard an
/// unbounded MII (the machine cannot execute some operation class at
/// all — escalation would start at `u32::MAX`), clamp the degenerate
/// `mii == 0` to 1, and only then derive the default cap, so the range
/// is computed identically whether the caller clamps or not.
///
/// Returns `(first II to try, inclusive cap)`.
fn ii_search_range(
    g: &Ddg,
    raw_mii: u32,
    configured_cap: Option<u32>,
) -> Result<(u32, u32), SchedFailure> {
    if raw_mii == u32::MAX {
        return Err(SchedFailure::MiiUnbounded);
    }
    let start = raw_mii.max(1);
    let cap = configured_cap.unwrap_or_else(|| max_ii_bound(g, start));
    Ok((start, cap))
}

/// Fold one scheduling attempt's deterministic statistics into the sink.
fn fold_sched_stats(obs: &Obs, stats: &AttemptStats) {
    obs.add(Counter::SchedAttempts, stats.attempts);
    obs.add(Counter::SchedPlacements, stats.placements);
    obs.add(Counter::SchedBacktracks, stats.backtracks);
    obs.add(Counter::SchedWindowRejections, stats.window_rejections);
    obs.add(Counter::SchedConflictMemory, stats.conflicts[0]);
    obs.add(Counter::SchedConflictInteger, stats.conflicts[1]);
    obs.add(Counter::SchedConflictFloat, stats.conflicts[2]);
    obs.add(Counter::SchedConflictTransport, stats.conflicts[3]);
}

/// Run one escalation attempt's assignment on the loop's carried
/// [`Assigner`] workspace, routing the assigner's decision log into the
/// sink when it records (the traced and untraced assigners are
/// decision-for-decision identical).
fn assign_observed(
    assigner: &mut Assigner<'_>,
    min_ii: u32,
    obs: &Obs,
) -> Result<Assignment, AssignError> {
    if !obs.is_enabled() {
        return assigner.assign_min(min_ii);
    }
    let mut trace = AssignTrace::default();
    let result = assigner.assign_min_traced(min_ii, &mut trace);
    obs.add(Counter::AssignEvents, trace.events.len() as u64);
    for ev in &trace.events {
        obs.event("assign", || ev.to_string());
    }
    result
}

/// The Figure 5 escalation on the loop's carried [`Assigner`]
/// workspace, reporting every attempt to `on_attempt` as `(requested II,
/// assignment, scheduler failure)` — `None` on the successful final
/// attempt. The driver builds its II trajectory from these callbacks;
/// `compile_loop` passes a no-op.
pub(crate) fn compile_loop_observed(
    g: &Ddg,
    machine: &MachineSpec,
    config: PipelineConfig,
    analysis: &LoopAnalysis,
    obs: &Obs,
    on_attempt: impl FnMut(u32, &Assignment, Option<&SchedFailure>),
) -> Result<CompiledLoop, PipelineError> {
    // The range is checked before the workspace is built: on a machine
    // that cannot execute some operation, the unified-baseline failure
    // must win over the assigner's `InfeasibleOp`.
    let range = escalation_range(g, machine, config)?;
    // One assignment workspace serves every escalation attempt of this
    // loop: scheduler-driven retries re-enter it at a larger II with the
    // working state reset in place and the failed attempt's assignment
    // buffers recycled, instead of rebuilding everything from scratch.
    let mut assigner = Assigner::with_analysis(g, machine, config.assign, analysis)?;
    let assign = |min_ii, rejected| {
        if let Some(rejected) = rejected {
            assigner.recycle(rejected);
        }
        assign_observed(&mut assigner, min_ii, obs)
    };
    escalate(machine, config, range, obs, assign, on_attempt)
}

/// The clustered escalation range of `g`, or the unified-baseline
/// failure that leaves it empty.
fn escalation_range(
    g: &Ddg,
    machine: &MachineSpec,
    config: PipelineConfig,
) -> Result<(u32, u32), PipelineError> {
    ii_search_range(g, machine.unified_equivalent().mii(g), config.assign.max_ii)
        .map_err(PipelineError::UnifiedBaselineFailed)
}

/// The Figure 5 escalation loop over the II range `(start, cap)`.
/// `assign` runs one attempt's assignment at a minimum II, first taking
/// back the previous attempt's rejected assignment (if any) so its
/// buffers can be reused. Every attempt is reported to `on_attempt` and
/// to `obs` as one `pipeline.attempt` span carrying the requested II,
/// the achieved II, the copies inserted, and the typed failure.
fn escalate(
    machine: &MachineSpec,
    config: PipelineConfig,
    (start, cap): (u32, u32),
    obs: &Obs,
    mut assign: impl FnMut(u32, Option<Assignment>) -> Result<Assignment, AssignError>,
    mut on_attempt: impl FnMut(u32, &Assignment, Option<&SchedFailure>),
) -> Result<CompiledLoop, PipelineError> {
    let mut min_ii = start;
    let mut rejected = None;
    let mut last = None;
    let mut attempted_max = None;
    while min_ii <= cap {
        let span = obs.begin("pipeline.attempt");
        let assignment = match assign(min_ii, rejected.take()) {
            Ok(a) => a,
            Err(e) => {
                obs.end_with(span, || {
                    vec![
                        ("requested_ii", min_ii.to_string()),
                        ("result", format!("assign failed: {e}")),
                    ]
                });
                return Err(e.into());
            }
        };
        let (result, stats) = schedule_with_stats(
            config.scheduler,
            &assignment.graph,
            machine,
            &assignment.map,
            assignment.ii,
            config.sched,
        );
        obs.add(Counter::PipelineAttempts, 1);
        obs.add(Counter::AssignCopies, assignment.copy_count() as u64);
        fold_sched_stats(obs, &stats);
        attempted_max = Some(assignment.ii);
        obs.end_with(span, || {
            let mut args = vec![
                ("requested_ii", min_ii.to_string()),
                ("assigned_ii", assignment.ii.to_string()),
                ("copies", assignment.copy_count().to_string()),
                (
                    "result",
                    match &result {
                        Ok(_) => "ok".to_string(),
                        Err(f) => f.to_string(),
                    },
                ),
            ];
            if let Some(n) = result.as_ref().err().and_then(|f| f.blocking_node()) {
                args.push(("blocked_on", n.to_string()));
            }
            args
        });
        match result {
            Ok(schedule) => {
                on_attempt(min_ii, &assignment, None);
                return Ok(CompiledLoop {
                    assignment,
                    schedule,
                });
            }
            Err(failure) => {
                // Scheduler failed at the assignment's II: the paper
                // restarts the whole process one II higher (a fresh
                // assignment generally needs fewer copies at a larger II).
                on_attempt(min_ii, &assignment, Some(&failure));
                min_ii = assignment.ii + 1;
                rejected = Some(assignment);
                last = Some(failure);
            }
        }
    }
    Err(PipelineError::IiExhausted {
        max_ii: attempted_max.unwrap_or(cap),
        last,
    })
}

/// Compile with the *post-scheduling partitioning* baseline (Capitanio
/// et al., the paper's §1.4 foil) in place of the paper's assignment
/// pass: slice a unified-order schedule across clusters, insert copies
/// afterwards, and escalate II whenever the partition or the scheduler
/// fails. Each escalation attempt is recorded into `obs` with the same
/// span and counter taxonomy as the paper's own pipeline. Exists for
/// the `baseline-post` experiment.
///
/// # Errors
///
/// See [`PipelineError`].
pub fn compile_loop_post(
    g: &Ddg,
    machine: &MachineSpec,
    config: PipelineConfig,
    obs: &Obs,
) -> Result<CompiledLoop, PipelineError> {
    let range = escalation_range(g, machine, config)?;
    let assign = |min_ii, _| post_scheduling_assign_from(g, machine, config.assign, min_ii);
    escalate(machine, config, range, obs, assign, |_, _, _| {})
}

/// The paper's baseline: the II the same loop achieves on the equally
/// wide *unified* machine.
///
/// # Errors
///
/// Fails only on pathological inputs, with the typed reason: a
/// [`SchedFailure::MiiUnbounded`] machine model, an unusable annotation,
/// or a full-range exhaustion.
pub fn unified_ii(
    g: &Ddg,
    machine: &MachineSpec,
    sched: SchedulerConfig,
) -> Result<u32, SchedFailure> {
    unified_ii_impl(g, machine, sched, None)
}

/// Shared implementation: schedule `g` on `machine`'s unified equivalent,
/// reusing a caller-held [`LoopAnalysis`] when one exists (it depends
/// only on the graph, never the machine).
fn unified_ii_impl(
    g: &Ddg,
    machine: &MachineSpec,
    sched: SchedulerConfig,
    analysis: Option<&LoopAnalysis>,
) -> Result<u32, SchedFailure> {
    let unified = machine.unified_equivalent();
    let (start, cap) = ii_search_range(g, unified.mii(g), None)?;
    let map = unified_map(g, &unified);
    let mut ctx = match analysis {
        Some(la) => SchedContext::with_analysis(g, &unified, &map, la),
        None => SchedContext::new(g, &unified, &map),
    }
    .map_err(SchedFailure::Invalid)?;
    ctx.schedule_in_range(start, cap, sched).map(|s| s.ii())
}

/// Compile on the clustered machine *and* its unified equivalent,
/// returning `(clustered II, unified II)` — the pair every figure of the
/// paper's evaluation is built from.
///
/// # Errors
///
/// [`PipelineError::UnifiedBaselineFailed`] when the baseline itself
/// cannot be scheduled; otherwise see [`PipelineError`].
pub fn compare_with_unified(
    g: &Ddg,
    machine: &MachineSpec,
    config: PipelineConfig,
) -> Result<(u32, u32), PipelineError> {
    // One analysis of the source graph serves both sides of the
    // comparison (it depends only on the graph, not the machine).
    let analysis = LoopAnalysis::compute(g);
    let unified = unified_ii_impl(g, machine, config.sched, Some(&analysis))
        .map_err(PipelineError::UnifiedBaselineFailed)?;
    let compiled = compile_loop_with(g, machine, config, &analysis)?;
    Ok((compiled.ii(), unified))
}
