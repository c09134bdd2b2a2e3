//! The instrumentation hub: one cloneable sink every layer can share.
//!
//! A [`Hub`] collects three streams — structured [`ObsEvent`]s, execution
//! [`Span`]s, warp samples — and maintains derived metrics (staleness,
//! block-time and network-delay [`Histogram`]s, event-kind counters) as a
//! side effect of [`Hub::emit`]. Raw event and span storage is bounded
//! (overflow bumps drop counters); the histograms and counters stay exact
//! regardless, so long experiment sweeps keep correct aggregates even when
//! the raw streams saturate.
//!
//! The derived metrics live in the report's own types: events fold straight
//! into a [`HubSummary`] (the anatomy tracer's into a [`StalenessSummary`],
//! scheduler batches into a [`SchedDelta`]) through the same keyed-row
//! folds their merges use, so reading a summary is a clone, and one hub fed
//! a stream reports what two hubs fed its halves merge to.
//!
//! Layers hold an `Option<Hub>`: detached (`None`) costs a single branch
//! per event site; the attached costs are the `obs.*` rows of
//! `crates/perf/run.sh probes`.
//!
//! A hub belongs to one thread, like the simulation it observes: all its
//! state sits in one `RefCell`, every method borrows it once and lets go
//! before returning, and nothing the hub calls while borrowed (the tap,
//! the live-feed writer) may call back into the hub.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use nscc_ckpt::json::ToJson;
use nscc_ckpt::Snapshot;

use crate::event::ObsEvent;
use crate::hist::Histogram;
use crate::live::{LiveSink, ProcSched, SchedDelta, SchedSummary};
use crate::span::{Span, SpanKind, Trace, TraceTotals};
use crate::warp::{WarpSummary, WarpTimeline};
use crate::Label;

/// Events kept before the hub starts counting drops instead.
const DEFAULT_EVENT_CAPACITY: usize = 1 << 18;

/// Write→release flow records kept for Perfetto export before the anatomy
/// state starts counting drops instead (the aggregates stay exact).
const FLOW_CAPACITY: usize = 1 << 14;

/// A consumer of the hub's live event stream, attached with
/// [`Hub::set_tap`]. The audit layer implements this to drive its
/// invariant monitors online; the hub itself stays ignorant of what the
/// sink does. A tap observes events but must never call back into the hub
/// (it runs while the hub's state is borrowed) — that contract is also
/// what keeps tap-on runs byte-identical to tap-off runs in every report
/// section the tap does not own.
pub trait EventSink {
    /// Called synchronously for every [`Hub::emit`], after derived
    /// metrics are updated and the flight ring is fed, before the event
    /// enters raw storage.
    fn on_event(&self, ev: &ObsEvent);

    /// Called at each program (run) boundary when one hub observes many
    /// back-to-back programs, as sweeps do. Sinks tracking
    /// per-program state (barrier epochs, sequence dedup, write
    /// watermarks) reset it here.
    fn on_run_boundary(&self) {}
}

/// Everything a hub accumulates, behind the one `RefCell` of [`HubInner`].
#[derive(Default)]
struct HubState {
    events: Vec<ObsEvent>,
    event_capacity: usize,
    /// The report's aggregates, folded in as events arrive. Its `events`,
    /// `spans`, `spans_dropped` and `warp` are left at their defaults:
    /// [`Hub::summary`] reads them from the raw stores.
    sum: HubSummary,
    /// Per-pid phase annotation for blocked-time attribution
    /// (phase, detail), set by layers around blocking operations.
    phase_ann: BTreeMap<u32, (String, String)>,
    /// Profiler sampling period in virtual ns (0 = disabled).
    profile_every_ns: u64,
    /// Virtual-time snapshot cadence (0 = disabled).
    snap_every_ns: u64,
    /// Next virtual instant at which a snapshot is due.
    snap_next_ns: u64,
    /// Attached live-feed sink, if any ([`Hub::set_live`]).
    live: Option<LiveSink>,
    /// Whether wall-clock scheduler accounting was requested
    /// ([`Hub::enable_wall`]); simulations check it before attaching
    /// their accounting, so detached runs never touch `Instant::now`.
    wall_on: bool,
    /// Attached event tap ([`Hub::set_tap`]).
    tap: Option<Arc<dyn EventSink>>,
    /// Flight-recorder ring of the most recent events
    /// ([`Hub::enable_flight`]); bounded to `flight_cap` entries, oldest
    /// dropped first. `flight_cap == 0` means disabled.
    flight: VecDeque<ObsEvent>,
    flight_cap: u64,
    /// Whether the staleness-anatomy tracer is armed
    /// ([`Hub::enable_staleness`]); DSM layers check it before emitting
    /// `ReadAnatomy` events, so tracer-off runs never see one.
    staleness_on: bool,
    /// The staleness-anatomy aggregates, fed by `ReadAnatomy` meta events
    /// when the tracer is armed. Kept apart from `sum` so tracer-on
    /// reports stay byte-identical to tracer-off reports in every section
    /// the tracer does not own. Its `flows_kept` is `flows.len()`.
    anatomy: StalenessSummary,
    /// Write→apply→release flow records kept for Perfetto export, ids
    /// numbered from 1 in arrival order.
    flows: Vec<FlowRec>,
    /// Scheduler wall-clock accounting, summed over every batch a
    /// simulation flushed into this hub ([`Hub::note_sched`]); `per_proc`
    /// sorted by pid.
    sched: SchedDelta,
}

/// What the clones of one hub share. The span trace and the warp timeline
/// are handles of their own ([`Hub::trace`], [`Hub::warp`]).
struct HubInner {
    state: RefCell<HubState>,
    trace: Trace,
    warp: WarpTimeline,
}

/// The shared instrumentation hub. Cloning is cheap (an `Rc` bump); all
/// clones feed the same sink, on the one thread that owns it:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<nscc_obs::Hub>();
/// ```
#[derive(Clone)]
pub struct Hub {
    inner: Rc<HubInner>,
}

impl Default for Hub {
    fn default() -> Self {
        Hub::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl HubState {
    /// Feed the side channels every event reaches, meta or not: the
    /// flight ring and the tap.
    fn side_channels(&mut self, ev: &ObsEvent) {
        if self.flight_cap > 0 {
            self.flight_push(ev.clone());
        }
        if let Some(tap) = &self.tap {
            tap.on_event(ev);
        }
    }

    fn flight_push(&mut self, ev: ObsEvent) {
        if self.flight_cap == 0 {
            return;
        }
        while self.flight.len() as u64 >= self.flight_cap {
            self.flight.pop_front();
        }
        self.flight.push_back(ev);
    }

    /// Cut a snapshot now if the cadence says one is due at `t_ns`, and
    /// stream it to the live feed when one is attached.
    fn maybe_snapshot(&mut self, t_ns: u64, trace: &Trace) {
        let every = self.snap_every_ns;
        if every == 0 || t_ns < self.snap_next_ns {
            return;
        }
        self.snap_next_ns = t_ns - t_ns % every + every;
        let snap = self.snapshot_at(t_ns, trace.dropped());
        self.sum.snapshots.push(snap);
        self.feed(|sink, sched| sink.snap(snap, sched));
    }

    /// Hand the live-feed sink, if one is attached, the scheduler totals
    /// so far and let `write` emit its line.
    fn feed(&mut self, write: impl FnOnce(&mut LiveSink, SchedSummary)) {
        if let Some(mut sink) = self.live.take() {
            write(&mut sink, self.sched());
            self.live = Some(sink);
        }
    }

    fn snapshot_at(&self, t_ns: u64, spans_dropped: u64) -> MetricSnapshot {
        let s = &self.sum;
        MetricSnapshot {
            t_ns,
            reads: s.reads,
            writes: s.writes,
            messages: s.messages,
            stale_discards: s.stale_discards,
            barriers: s.barriers,
            anti_messages: s.anti_messages,
            faults_dropped: s.faults_dropped,
            retransmits: s.retransmits,
            degraded_reads: s.degraded_reads,
            staleness_p50: s.staleness.quantile(0.50),
            staleness_p99: s.staleness.quantile(0.99),
            block_ns_total: s.block_ns.sum(),
            blocked_reads: s.block_ns.count(),
            net_delay_p99: s.net_delay_ns.quantile(0.99),
            events_dropped: s.events_dropped,
            spans_dropped,
        }
    }

    fn note_sched(&mut self, d: &SchedDelta) {
        let s = &mut self.sched;
        s.events += d.events;
        s.parks += d.parks;
        s.unparks += d.unparks;
        s.handoffs += d.handoffs;
        s.exec_ns += d.exec_ns;
        s.wall_ns += d.wall_ns;
        for &(pid, exec_ns, slices) in &d.per_proc {
            let p = row(&mut s.per_proc, |p| p.0.cmp(&pid), || (pid, 0, 0));
            p.1 += exec_ns;
            p.2 += slices;
        }
        s.park.merge(&d.park);
    }

    fn sched(&self) -> SchedSummary {
        let s = &self.sched;
        SchedSummary {
            events: s.events,
            parks: s.parks,
            unparks: s.unparks,
            handoffs: s.handoffs,
            exec_ns: s.exec_ns,
            wall_ns: s.wall_ns,
            events_per_sec: if s.wall_ns == 0 {
                0.0
            } else {
                s.events as f64 / (s.wall_ns as f64 / 1e9)
            },
            park_p50_ns: s.park.quantile(0.50),
            park_p99_ns: s.park.quantile(0.99),
            procs: s
                .per_proc
                .iter()
                .map(|&(pid, exec_ns, slices)| ProcSched {
                    pid,
                    exec_ns,
                    slices,
                })
                .collect(),
        }
    }

    /// Fold one `ReadAnatomy` event into the anatomy aggregates (any other
    /// event is ignored). Conservation (`stage sum == observed age`) is
    /// re-checked here so the report section carries its own verdict even
    /// when no auditor taps the stream.
    fn note_anatomy(&mut self, ev: &ObsEvent) {
        let &ObsEvent::ReadAnatomy {
            t_ns,
            reader,
            writer,
            loc,
            age_ns,
            wait_ns,
            publish_ns,
            transit_ns,
            fault_ns,
            retrans_ns,
            queue_ns,
            apply_ns,
            ..
        } = ev
        else {
            return;
        };
        let sum = wait_ns
            .wrapping_add(publish_ns)
            .wrapping_add(transit_ns)
            .wrapping_add(fault_ns)
            .wrapping_add(retrans_ns)
            .wrapping_add(queue_ns)
            .wrapping_add(apply_ns);
        let a = &mut self.anatomy;
        a.released += 1;
        a.conservation_checked += 1;
        if sum != age_ns {
            a.conservation_violations += 1;
        }
        a.age_ns.record(age_ns);
        for stages in [
            &mut a.stages,
            loc_stages(&mut a.by_loc, loc),
            link_stages(&mut a.by_link, writer, reader),
        ] {
            stages.record(
                wait_ns, publish_ns, transit_ns, fault_ns, retrans_ns, queue_ns, apply_ns,
            );
        }
        if self.flows.len() < FLOW_CAPACITY {
            self.flows.push(FlowRec {
                id: self.flows.len() as u64 + 1,
                writer,
                reader,
                loc,
                // The write existed `age - wait` before the release (wait
                // covers only the part of the block that predates it).
                write_ns: t_ns.saturating_sub(age_ns.saturating_sub(wait_ns)),
                recv_ns: t_ns.saturating_sub(apply_ns),
                release_ns: t_ns,
            });
        } else {
            a.flows_dropped += 1;
        }
    }
}

impl Hub {
    /// A fresh hub with default storage bounds.
    pub fn new() -> Self {
        Hub::default()
    }

    /// A fresh hub keeping at most `capacity` raw events (derived metrics
    /// stay exact past the bound).
    pub fn with_event_capacity(capacity: usize) -> Self {
        Hub {
            inner: Rc::new(HubInner {
                state: RefCell::new(HubState {
                    event_capacity: capacity,
                    ..HubState::default()
                }),
                trace: Trace::new(),
                warp: WarpTimeline::new(),
            }),
        }
    }

    /// Record a structured event, updating derived metrics first so they
    /// survive raw-event overflow.
    pub fn emit(&self, ev: ObsEvent) {
        let st = &mut *self.inner.state.borrow_mut();
        if ev.is_meta() {
            // Recovery-layer lifecycle events bypass counters, the raw
            // store, and the metric-snapshot clock entirely (see
            // `ObsEvent::is_meta`): snapshot-on runs must stay
            // byte-identical to snapshot-off runs in every section the
            // recovery layer does not own. The flight ring and the audit
            // tap still see them — those own their outputs.
            if st.staleness_on {
                st.note_anatomy(&ev);
            }
            st.side_channels(&ev);
            return;
        }
        let s = &mut st.sum;
        match ev {
            ObsEvent::ReadDone {
                loc,
                staleness,
                blocked,
                block_ns,
                ..
            } => {
                s.reads += 1;
                s.staleness.record(staleness);
                heat_of(&mut s.heat, loc).record(staleness);
                if blocked {
                    s.block_ns.record(block_ns);
                }
            }
            ObsEvent::ReadDep {
                reader,
                writer,
                loc,
                write_iter,
                msg_seq,
                block_ns,
                queued_ns,
                inflight_ns,
                retrans_ns,
                ..
            } => add_dep(
                &mut s.deps,
                &DepEdge {
                    reader,
                    loc,
                    writer,
                    blocks: 1,
                    block_ns,
                    queued_ns,
                    inflight_ns,
                    retrans_ns,
                    last_write_iter: write_iter,
                    last_msg_seq: msg_seq,
                },
            ),
            ObsEvent::Write { .. } => s.writes += 1,
            ObsEvent::NetDeliver { delay_ns, .. } => {
                s.messages += 1;
                s.net_delay_ns.record(delay_ns);
            }
            ObsEvent::StaleDiscard { .. } => s.stale_discards += 1,
            ObsEvent::BarrierExit { .. } => s.barriers += 1,
            ObsEvent::AntiMessage { .. } => s.anti_messages += 1,
            ObsEvent::FaultDrop { .. } => s.faults_dropped += 1,
            ObsEvent::FaultDup { .. } => s.faults_duplicated += 1,
            ObsEvent::Retransmit { .. } => s.retransmits += 1,
            ObsEvent::ReadDegraded { .. } => s.degraded_reads += 1,
            ObsEvent::WriterSuspected { .. } => s.suspected_writers += 1,
            ObsEvent::Checkpoint { .. } => s.checkpoints += 1,
            ObsEvent::Restore { rollback, .. } => {
                s.restores += 1;
                s.rollback.record(rollback);
            }
            ObsEvent::MailboxHigh { .. } => s.mailbox_warnings += 1,
            _ => {}
        }
        st.side_channels(&ev);
        let t_ns = ev.t_ns();
        if st.events.len() >= st.event_capacity {
            st.sum.events_dropped += 1;
        } else {
            st.events.push(ev);
        }
        st.maybe_snapshot(t_ns, &self.inner.trace);
    }

    /// Attach an event tap: `sink.on_event` is called synchronously for
    /// every emitted event from now on (see [`EventSink`]). One tap at a
    /// time; attaching replaces the previous sink.
    pub fn set_tap(&self, sink: Arc<dyn EventSink>) {
        self.inner.state.borrow_mut().tap = Some(sink);
    }

    /// Whether an event tap is attached.
    pub fn tap_enabled(&self) -> bool {
        self.inner.state.borrow().tap.is_some()
    }

    /// Mark a program (run) boundary: sweeps that observe many
    /// back-to-back programs through one hub call this at each run start
    /// so the attached tap can reset per-program monitor state. A no-op
    /// without a tap.
    pub fn note_run_boundary(&self) {
        if let Some(tap) = &self.inner.state.borrow().tap {
            tap.on_run_boundary();
        }
    }

    /// Enable the flight-recorder ring: keep the most recent `n` events
    /// (oldest dropped first) for post-mortem dumps. `n == 0` disables
    /// the ring and clears it. The ring is a side channel — it never
    /// touches the counters, histograms, or raw event store, so
    /// flight-on runs report byte-identical to flight-off runs.
    pub fn enable_flight(&self, n: u64) {
        let st = &mut *self.inner.state.borrow_mut();
        st.flight_cap = n;
        while st.flight.len() as u64 > n {
            st.flight.pop_front();
        }
    }

    /// Whether the flight-recorder ring is enabled.
    pub fn flight_enabled(&self) -> bool {
        self.flight_capacity() > 0
    }

    /// The flight ring's configured capacity (0 = disabled).
    pub fn flight_capacity(&self) -> u64 {
        self.inner.state.borrow().flight_cap
    }

    /// The flight ring's current contents, oldest first.
    pub fn flight_events(&self) -> Vec<ObsEvent> {
        self.inner.state.borrow().flight.iter().cloned().collect()
    }

    /// Append a marker event to the flight ring *only* — bypassing the
    /// counters, histograms, raw store, and tap. Layers use this to leave
    /// post-mortem breadcrumbs (e.g. the scheduler's deadlock diagnosis)
    /// without perturbing any deterministic report section. A no-op when
    /// the ring is disabled.
    pub fn flight_note(&self, ev: ObsEvent) {
        self.inner.state.borrow_mut().flight_push(ev);
    }

    /// Drain another hub's flight ring into this one (oldest first,
    /// trimming to this hub's capacity). Sweep bins that give each cell
    /// its own hub call this in grid order, so the main hub's ring is the
    /// deterministic concatenation of the per-cell rings. A no-op when
    /// this hub's ring is disabled.
    pub fn adopt_flight(&self, other: &Hub) {
        if !self.flight_enabled() {
            return;
        }
        // `other` may be a clone of `self`: take from it, let go, then push.
        let drained = std::mem::take(&mut other.inner.state.borrow_mut().flight);
        let st = &mut *self.inner.state.borrow_mut();
        for ev in drained {
            st.flight_push(ev);
        }
    }

    /// Enable periodic metric snapshots every `every_ns` of virtual time.
    /// Snapshots are cut lazily, on the first event at or past each
    /// cadence boundary, so they cost nothing between events and keep
    /// long runs analyzable even after raw-event storage saturates.
    ///
    /// `sample_every(0)` is the explicit "disabled" no-op: no snapshots
    /// are cut, no pending boundary survives (calling it after a nonzero
    /// cadence turns sampling off), and an attached live feed carries
    /// only its `start` and `final` lines.
    pub fn sample_every(&self, every_ns: u64) {
        let st = &mut *self.inner.state.borrow_mut();
        st.snap_every_ns = every_ns;
        st.snap_next_ns = every_ns;
    }

    /// Attach a live-feed sink: every snapshot cut from now on is also
    /// written to `out` as one line of versioned JSON (see
    /// [`crate::live`]), starting with a `start` header line. `bench`
    /// names the producing binary in the header. The feed is an *extra*
    /// output — the snapshot series, summary, and report bytes are
    /// identical with and without it.
    pub fn set_live(&self, out: Box<dyn std::io::Write>, bench: &str) {
        let st = &mut *self.inner.state.borrow_mut();
        st.live = Some(LiveSink::new(out, bench, st.snap_every_ns));
    }

    /// Write the feed's closing `final` line from the end-of-run summary
    /// (a no-op without an attached feed). `obs` is passed in rather than
    /// resampled so the line carries exactly the counters of the summary
    /// embedded in the run report — including merged per-cell summaries a
    /// sweep accumulated outside this hub.
    pub fn live_final(&self, obs: &HubSummary) {
        let mut st = self.inner.state.borrow_mut();
        st.feed(|sink, sched| sink.finish(obs, sched));
    }

    /// Request wall-clock scheduler accounting: simulations that observe
    /// this hub check [`wants_wall`](Hub::wants_wall) and attach their
    /// accounting (`SimBuilder::attach_wall`) when set. Off by default —
    /// wall accounting reads the host clock, so it is only ever opt-in.
    pub fn enable_wall(&self) {
        self.inner.state.borrow_mut().wall_on = true;
    }

    /// Whether wall-clock scheduler accounting was requested.
    pub fn wants_wall(&self) -> bool {
        self.inner.state.borrow().wall_on
    }

    /// Fold one batch of scheduler wall-clock accounting into the hub
    /// (deltas add; called periodically and at teardown by accounting
    /// simulations).
    pub fn note_sched(&self, d: &SchedDelta) {
        self.inner.state.borrow_mut().note_sched(d);
    }

    /// Fold another hub's scheduler accounting into this one. Sweep bins
    /// that run each checkpointed cell on its own hub use this to carry
    /// the cells' wall-clock cost into the main hub (resumed cells spent
    /// no wall time in this process, so they rightly contribute nothing).
    pub fn adopt_sched(&self, other: &Hub) {
        // `other` may be a clone of `self`: copy its totals, let go, then add.
        let totals = other.inner.state.borrow().sched.clone();
        self.note_sched(&totals);
    }

    /// The accumulated scheduler wall-clock accounting (all zeros when no
    /// simulation ever attached it). `parks`/`unparks` count slices and
    /// repeat exactly per seed; `handoffs` counts changes of process
    /// between consecutive resumes; the times are host time.
    pub fn sched(&self) -> SchedSummary {
        self.inner.state.borrow().sched()
    }

    /// All periodic snapshots cut so far, in virtual-time order.
    pub fn snapshots(&self) -> Vec<MetricSnapshot> {
        self.inner.state.borrow().sum.snapshots.clone()
    }

    /// Record an execution span (see [`Trace::record`]).
    pub fn span(
        &self,
        pid: u32,
        start_ns: u64,
        end_ns: u64,
        kind: SpanKind,
        label: impl Into<Label>,
    ) {
        self.inner.trace.record(pid, start_ns, end_ns, kind, label);
    }

    /// Record a warp sample at virtual time `t_ns`.
    pub fn warp_sample(&self, t_ns: u64, warp: f64) {
        self.inner.warp.record(t_ns, warp);
    }

    /// Name a pid/rank for trace exports (e.g. `"island3"`, `"loader"`).
    pub fn set_proc_name(&self, pid: u32, name: impl Into<String>) {
        let name = name.into();
        self.inner
            .state
            .borrow_mut()
            .sum
            .proc_names
            .insert(pid, name);
    }

    /// Name a DSM location for heatmap/`nscc why` rendering.
    pub fn set_loc_name(&self, loc: u32, name: impl Into<String>) {
        let name = name.into();
        self.inner
            .state
            .borrow_mut()
            .sum
            .loc_names
            .insert(loc, name);
    }

    /// Enable the deterministic virtual-time sampling profiler: span
    /// sites contribute one sample per `period_ns` of virtual time
    /// covered (0 disables). Storage is rows sorted by (process name,
    /// phase, detail), so the folded export is byte-identical across
    /// same-seed runs.
    pub fn profile_every(&self, period_ns: u64) {
        self.inner.state.borrow_mut().profile_every_ns = period_ns;
    }

    /// The profiler sampling period (0 = disabled).
    pub fn profile_period(&self) -> u64 {
        self.inner.state.borrow().profile_every_ns
    }

    /// Credit `samples` profiler samples to `(proc, phase, detail)`,
    /// where `proc` is the sampled process's name. `detail` may be empty
    /// (the folded line then has two segments).
    pub fn profile_add(&self, proc: &str, phase: &str, detail: &str, samples: u64) {
        if samples > 0 {
            let rows = &mut self.inner.state.borrow_mut().sum.profile;
            *profile_of(rows, proc, phase, detail) += samples;
        }
    }

    /// Profiler rows, sorted by (process name, phase, detail).
    pub fn profile_rows(&self) -> Vec<ProfileRow> {
        self.inner.state.borrow().sum.profile.clone()
    }

    /// Annotate what `pid` is blocked on (e.g. `("Global_Read", "v3")`)
    /// so profiler samples taken during the block attribute to the
    /// location instead of a generic reason. Cleared with
    /// [`Hub::clear_phase`].
    pub fn annotate_phase(&self, pid: u32, phase: impl Into<String>, detail: impl Into<String>) {
        let ann = (phase.into(), detail.into());
        self.inner.state.borrow_mut().phase_ann.insert(pid, ann);
    }

    /// Drop `pid`'s phase annotation.
    pub fn clear_phase(&self, pid: u32) {
        self.inner.state.borrow_mut().phase_ann.remove(&pid);
    }

    /// The current phase annotation for `pid`, if any.
    pub fn phase_of(&self, pid: u32) -> Option<(String, String)> {
        self.inner.state.borrow().phase_ann.get(&pid).cloned()
    }

    /// The span trace shared by this hub.
    pub fn trace(&self) -> &Trace {
        &self.inner.trace
    }

    /// The warp timeline shared by this hub.
    pub fn warp(&self) -> &WarpTimeline {
        &self.inner.warp
    }

    /// Snapshot of all kept events, in emission order.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.inner.state.borrow().events.clone()
    }

    /// Number of kept events.
    pub fn event_count(&self) -> usize {
        self.inner.state.borrow().events.len()
    }

    /// Registered pid/rank names.
    pub fn proc_names(&self) -> BTreeMap<u32, String> {
        self.inner.state.borrow().sum.proc_names.clone()
    }

    /// Per-process span totals (see [`Trace::totals`]).
    pub fn totals(&self, pid: u32) -> TraceTotals {
        self.inner.trace.totals(pid)
    }

    /// Aggregate summary for embedding in a run report.
    pub fn summary(&self) -> HubSummary {
        let st = self.inner.state.borrow();
        HubSummary {
            events: st.events.len() as u64,
            spans: self.inner.trace.len() as u64,
            spans_dropped: self.inner.trace.dropped(),
            warp: self.inner.warp.summary(),
            ..st.sum.clone()
        }
    }

    /// Export the full raw streams — events, spans, process names, drop
    /// accounting — as one JSON document, the event-dump input format of
    /// `nscc inspect` (schema-stamped with [`crate::SCHEMA_VERSION`]).
    pub fn export_events_json(&self) -> String {
        #[derive(ToJson)]
        struct Dump {
            schema_version: u32,
            proc_names: BTreeMap<u32, String>,
            events_dropped: u64,
            spans_dropped: u64,
            events: Vec<ObsEvent>,
            spans: Vec<Span>,
        }
        let st = self.inner.state.borrow();
        nscc_ckpt::json::to_json(&Dump {
            schema_version: crate::SCHEMA_VERSION,
            proc_names: st.sum.proc_names.clone(),
            events_dropped: st.sum.events_dropped,
            spans_dropped: self.inner.trace.dropped(),
            events: st.events.clone(),
            spans: self.spans(),
        })
    }

    /// Export all spans as Chrome trace-event JSON (see [`crate::perfetto`]).
    /// When the staleness tracer kept write→apply→release flow records,
    /// they are appended as Chrome flow events binding the existing slices.
    pub fn perfetto(&self) -> String {
        let st = self.inner.state.borrow();
        let spans = self.inner.trace.spans();
        crate::perfetto::export_with_flows(&spans, &st.sum.proc_names, &st.flows)
    }

    /// All kept spans, sorted by start time.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.trace.spans()
    }

    /// Arm the staleness-anatomy tracer: DSM nodes that observe this hub
    /// check [`staleness_enabled`](Hub::staleness_enabled) before emitting
    /// `ReadAnatomy` meta events, so tracer-off runs never see one and
    /// their report bytes are untouched. Off by default.
    pub fn enable_staleness(&self) {
        self.inner.state.borrow_mut().staleness_on = true;
    }

    /// Whether the staleness-anatomy tracer is armed.
    pub fn staleness_enabled(&self) -> bool {
        self.inner.state.borrow().staleness_on
    }

    /// The anatomy aggregates as a serializable report section. Callers
    /// decide `null`-ness: `nscc run` embeds this only when the tracer was
    /// armed, keeping tracer-off report bytes identical.
    pub fn staleness_summary(&self) -> StalenessSummary {
        let st = self.inner.state.borrow();
        StalenessSummary {
            flows_kept: st.flows.len() as u64,
            ..st.anatomy.clone()
        }
    }

    /// The write→apply→release flow records kept for Perfetto export.
    pub fn staleness_flows(&self) -> Vec<FlowRec> {
        self.inner.state.borrow().flows.clone()
    }
}

impl fmt::Debug for Hub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hub")
            .field("events", &self.event_count())
            .field("spans", &self.inner.trace.len())
            .field("warp_samples", &self.inner.warp.len())
            .finish()
    }
}

/// The row of `rows`, sorted by the key `cmp` compares against, that
/// `cmp` finds; inserted in order as `new()` when missing. The one lookup
/// behind every keyed aggregate, for events and merges alike.
fn row<R>(rows: &mut Vec<R>, cmp: impl FnMut(&R) -> Ordering, new: impl FnOnce() -> R) -> &mut R {
    let i = rows.binary_search_by(cmp).unwrap_or_else(|i| {
        rows.insert(i, new());
        i
    });
    &mut rows[i]
}

/// `loc`'s delivered-age histogram in the heatmap.
fn heat_of(heat: &mut Vec<HeatRow>, loc: u32) -> &mut Histogram {
    let new = || HeatRow {
        loc,
        staleness: Histogram::new(),
    };
    &mut row(heat, |r| r.loc.cmp(&loc), new).staleness
}

/// The sample count of profiler row `(proc, phase, detail)`; the names
/// are copied only when the row is new.
fn profile_of<'a>(
    rows: &'a mut Vec<ProfileRow>,
    proc: &str,
    phase: &str,
    detail: &str,
) -> &'a mut u64 {
    let key = (proc, phase, detail);
    let new = || ProfileRow {
        proc: proc.into(),
        phase: phase.into(),
        detail: detail.into(),
        samples: 0,
    };
    &mut row(rows, |r| (&*r.proc, &*r.phase, &*r.detail).cmp(&key), new).samples
}

/// `loc`'s stage set in an anatomy's per-location rows.
fn loc_stages(rows: &mut Vec<LocStages>, loc: u32) -> &mut StageSet {
    let new = || LocStages {
        loc,
        stages: StageSet::new(),
    };
    &mut row(rows, |r| r.loc.cmp(&loc), new).stages
}

/// The `writer → reader` link's stage set in an anatomy's per-link rows.
fn link_stages(rows: &mut Vec<LinkStages>, writer: u32, reader: u32) -> &mut StageSet {
    let new = || LinkStages {
        writer,
        reader,
        stages: StageSet::new(),
    };
    let key = (writer, reader);
    &mut row(rows, |r| (r.writer, r.reader).cmp(&key), new).stages
}

/// Fold edge `e` into `deps` by (reader, loc, writer): counts add, and the
/// newest releasing write wins the `last_*` fields, the later fold on a
/// tie. An emitted `ReadDep` folds in as a one-block edge, exactly like a
/// merged one.
fn add_dep(deps: &mut Vec<DepEdge>, e: &DepEdge) {
    let key = (e.reader, e.loc, e.writer);
    let new = || DepEdge {
        reader: e.reader,
        loc: e.loc,
        writer: e.writer,
        ..DepEdge::default()
    };
    let m = row(deps, |d| (d.reader, d.loc, d.writer).cmp(&key), new);
    m.blocks += e.blocks;
    m.block_ns += e.block_ns;
    m.queued_ns += e.queued_ns;
    m.inflight_ns += e.inflight_ns;
    m.retrans_ns += e.retrans_ns;
    if e.last_write_iter >= m.last_write_iter {
        m.last_write_iter = e.last_write_iter;
        m.last_msg_seq = e.last_msg_seq;
    }
}

/// Serializable aggregate of everything a hub collected.
#[derive(Debug, Clone, Default, ToJson, Snapshot)]
pub struct HubSummary {
    /// Raw events kept.
    pub events: u64,
    /// Raw events dropped at the capacity bound.
    pub events_dropped: u64,
    /// Spans kept.
    pub spans: u64,
    /// Spans dropped at the capacity bound.
    pub spans_dropped: u64,
    /// Reads observed (`ReadDone` events; exact despite drops).
    pub reads: u64,
    /// DSM writes observed.
    pub writes: u64,
    /// Network deliveries observed.
    pub messages: u64,
    /// Updates discarded as stale.
    pub stale_discards: u64,
    /// Barrier releases observed.
    pub barriers: u64,
    /// Rollback anti-messages observed.
    pub anti_messages: u64,
    /// Frames dropped by the fault-injection layer.
    pub faults_dropped: u64,
    /// Spurious duplicate deliveries injected by the fault layer.
    pub faults_duplicated: u64,
    /// Reliable-delivery retransmissions observed.
    pub retransmits: u64,
    /// Reads that timed out and returned a degraded (stale) value.
    pub degraded_reads: u64,
    /// Failure-detector suspicions raised against peers.
    pub suspected_writers: u64,
    /// Recovery checkpoints cut.
    pub checkpoints: u64,
    /// Restores from checkpoint after a crash.
    pub restores: u64,
    /// Mailbox depth warn-threshold crossings.
    pub mailbox_warnings: u64,
    /// Delivered-age gap per read (iterations).
    pub staleness: Histogram,
    /// Blocked-read durations (virtual ns).
    pub block_ns: Histogram,
    /// Network submit→arrival delays (virtual ns).
    pub net_delay_ns: Histogram,
    /// Rollback depth per restore (iterations; bounded by the age bound
    /// when recovery runs in a strict mode).
    pub rollback: Histogram,
    /// Warp sample distribution (§4.3).
    pub warp: WarpSummary,
    /// Periodic metric snapshots (empty unless [`Hub::sample_every`] was
    /// enabled): the convergence-vs-virtual-time curve of the run.
    pub snapshots: Vec<MetricSnapshot>,
    /// Per-location staleness heatmap (sorted by location). Serialized as
    /// an array so metric-diff tooling, which only walks numeric object
    /// fields, stays blind to it.
    pub heat: Vec<HeatRow>,
    /// Aggregated causal read-dependency edges (sorted by reader, loc,
    /// writer). Array-valued for the same diff-blindness reason.
    pub deps: Vec<DepEdge>,
    /// Virtual-time profiler rows (sorted by process name, phase,
    /// detail); empty
    /// unless [`Hub::profile_every`] was enabled.
    pub profile: Vec<ProfileRow>,
    /// DSM location names, for rendering heat/deps human-readably.
    pub loc_names: BTreeMap<u32, String>,
    /// Process/rank names, mirrored from the trace layer.
    pub proc_names: BTreeMap<u32, String>,
}

/// One row of the per-location staleness heatmap.
#[derive(Debug, Clone, PartialEq, Eq, ToJson, Snapshot)]
pub struct HeatRow {
    /// Location index.
    pub loc: u32,
    /// Delivered-age histogram for reads of this location.
    pub staleness: Histogram,
}

/// One aggregated edge of the causal read-dependency graph: everything
/// blocking reads by `reader` on `loc` owed to updates from `writer`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, ToJson, Snapshot)]
pub struct DepEdge {
    /// Blocked reading rank.
    pub reader: u32,
    /// Location index.
    pub loc: u32,
    /// Rank whose updates released the reads.
    pub writer: u32,
    /// Number of blocking reads this edge released.
    pub blocks: u64,
    /// Total virtual ns those reads spent blocked.
    pub block_ns: u64,
    /// Total queued-for-medium ns of the releasing frames.
    pub queued_ns: u64,
    /// Total in-flight (service + propagation) ns of the releasing frames.
    pub inflight_ns: u64,
    /// Total retransmit-attributable delay ns of the releasing frames.
    pub retrans_ns: u64,
    /// Generation tag of the newest releasing write on this edge.
    pub last_write_iter: u64,
    /// Writer-local sequence number of that newest releasing message.
    pub last_msg_seq: u64,
}

/// One profiler row: virtual-time samples credited to a
/// (process, phase, detail) collapsed stack.
#[derive(Debug, Clone, PartialEq, Eq, ToJson, Snapshot)]
pub struct ProfileRow {
    /// Name of the sampled process (`island0`, `rank1`, …).
    pub proc: String,
    /// Phase name (`compute`, `Global_Read`, `blocked`, …).
    pub phase: String,
    /// Finer attribution (location name, block reason); may be empty.
    pub detail: String,
    /// Samples credited (one per profiler period of virtual time).
    pub samples: u64,
}

impl HubSummary {
    /// Fold another summary into this one: counters add, histograms merge
    /// exactly, snapshot series concatenate in order. The warp summary is
    /// a distribution digest, so its merge is approximate — sample counts
    /// add, the mean is sample-weighted, and p50/p95/max take the
    /// pairwise max (pessimistic but deterministic). Used by sweeps
    /// that run each cell on its own hub and need one report-level
    /// aggregate that is identical whether the sweep ran straight through
    /// or was resumed from a checkpoint.
    pub fn merge(&mut self, other: &HubSummary) {
        self.events += other.events;
        self.events_dropped += other.events_dropped;
        self.spans += other.spans;
        self.spans_dropped += other.spans_dropped;
        self.reads += other.reads;
        self.writes += other.writes;
        self.messages += other.messages;
        self.stale_discards += other.stale_discards;
        self.barriers += other.barriers;
        self.anti_messages += other.anti_messages;
        self.faults_dropped += other.faults_dropped;
        self.faults_duplicated += other.faults_duplicated;
        self.retransmits += other.retransmits;
        self.degraded_reads += other.degraded_reads;
        self.suspected_writers += other.suspected_writers;
        self.checkpoints += other.checkpoints;
        self.restores += other.restores;
        self.mailbox_warnings += other.mailbox_warnings;
        self.staleness.merge(&other.staleness);
        self.block_ns.merge(&other.block_ns);
        self.net_delay_ns.merge(&other.net_delay_ns);
        self.rollback.merge(&other.rollback);
        self.warp = merge_warp(&self.warp, &other.warp);
        self.snapshots.extend(other.snapshots.iter().copied());
        for r in &other.heat {
            heat_of(&mut self.heat, r.loc).merge(&r.staleness);
        }
        for e in &other.deps {
            add_dep(&mut self.deps, e);
        }
        for r in &other.profile {
            *profile_of(&mut self.profile, &r.proc, &r.phase, &r.detail) += r.samples;
        }
        for (k, v) in &other.loc_names {
            self.loc_names.entry(*k).or_insert_with(|| v.clone());
        }
        for (k, v) in &other.proc_names {
            self.proc_names.entry(*k).or_insert_with(|| v.clone());
        }
    }
}

/// Pairwise merge of two warp digests (see [`HubSummary::merge`]).
fn merge_warp(a: &WarpSummary, b: &WarpSummary) -> WarpSummary {
    if a.samples == 0 {
        return *b;
    }
    if b.samples == 0 {
        return *a;
    }
    let n = a.samples + b.samples;
    WarpSummary {
        samples: n,
        mean: (a.mean * a.samples as f64 + b.mean * b.samples as f64) / n as f64,
        p50: a.p50.max(b.p50),
        p95: a.p95.max(b.p95),
        max: a.max.max(b.max),
    }
}

/// One log₂ histogram per named stage of a released read's age. The seven
/// stages partition the observed age exactly: `wait + publish + transit +
/// fault + retrans + queue + apply == age` for every traced release (the
/// conservation contract of `ObsEvent::ReadAnatomy`).
#[derive(Debug, Clone, Default, ToJson, Snapshot)]
pub struct StageSet {
    /// Reader blocked before the releasing write even existed.
    pub wait_ns: Histogram,
    /// Writer-side publish overhead (value written → on the wire).
    pub publish_ns: Histogram,
    /// Baseline medium transit — what the healthy network charged.
    pub transit_ns: Histogram,
    /// Injected fault delay (stall floors, degradation, duplicate gaps).
    pub fault_ns: Histogram,
    /// Time added by retransmit attempts of the reliable layer.
    pub retrans_ns: Histogram,
    /// Receiver mailbox dwell (arrival → the DSM popped the update).
    pub queue_ns: Histogram,
    /// DSM apply and release handoff (pop → reader unblocked).
    pub apply_ns: Histogram,
}

impl StageSet {
    /// An empty stage set (all histograms empty).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one release's stage durations, one sample per histogram.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        wait: u64,
        publish: u64,
        transit: u64,
        fault: u64,
        retrans: u64,
        queue: u64,
        apply: u64,
    ) {
        self.wait_ns.record(wait);
        self.publish_ns.record(publish);
        self.transit_ns.record(transit);
        self.fault_ns.record(fault);
        self.retrans_ns.record(retrans);
        self.queue_ns.record(queue);
        self.apply_ns.record(apply);
    }

    /// Fold another stage set's samples into this one.
    pub fn merge(&mut self, other: &StageSet) {
        self.wait_ns.merge(&other.wait_ns);
        self.publish_ns.merge(&other.publish_ns);
        self.transit_ns.merge(&other.transit_ns);
        self.fault_ns.merge(&other.fault_ns);
        self.retrans_ns.merge(&other.retrans_ns);
        self.queue_ns.merge(&other.queue_ns);
        self.apply_ns.merge(&other.apply_ns);
    }

    /// `(name, histogram)` pairs in canonical stage order — the render
    /// order `nscc anatomy` uses and the serialization field order.
    pub fn named(&self) -> [(&'static str, &Histogram); 7] {
        [
            ("wait", &self.wait_ns),
            ("publish", &self.publish_ns),
            ("transit", &self.transit_ns),
            ("fault", &self.fault_ns),
            ("retrans", &self.retrans_ns),
            ("queue", &self.queue_ns),
            ("apply", &self.apply_ns),
        ]
    }

    /// Total nanoseconds across all stages (Σ per-stage sums).
    pub fn total_ns(&self) -> u64 {
        self.named().iter().map(|(_, h)| h.sum()).sum()
    }
}

/// Per-location stage decomposition row of [`StalenessSummary`].
#[derive(Debug, Clone, ToJson, Snapshot)]
pub struct LocStages {
    /// DSM location index.
    pub loc: u32,
    /// Stage histograms over releases of reads of this location.
    pub stages: StageSet,
}

/// Per-link (writer → reader) stage decomposition row of
/// [`StalenessSummary`].
#[derive(Debug, Clone, ToJson, Snapshot)]
pub struct LinkStages {
    /// Rank whose write released the reads.
    pub writer: u32,
    /// Rank whose reads were released.
    pub reader: u32,
    /// Stage histograms over releases on this link.
    pub stages: StageSet,
}

/// One write→apply→release flow kept for Perfetto export: binds the
/// writer's compute lane at `write_ns`, the reader's blocked lane at
/// `recv_ns`, and the reader's phase lane at `release_ns` into one Chrome
/// flow (`ph:"s"/"t"/"f"`), so the age decomposition is walkable in the
/// trace viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRec {
    /// Flow id shared by the three Chrome events of this record.
    pub id: u64,
    /// Rank whose write released the read.
    pub writer: u32,
    /// Rank whose read was released.
    pub reader: u32,
    /// DSM location read.
    pub loc: u32,
    /// Virtual time the releasing value was written.
    pub write_ns: u64,
    /// Virtual time the DSM popped the update from the mailbox.
    pub recv_ns: u64,
    /// Virtual time the blocked read released.
    pub release_ns: u64,
}

/// Serializable aggregate of the staleness-anatomy tracer — the
/// `staleness` section of a run report (schema v7). Embedded only when the
/// tracer was armed; tracer-off reports carry `"staleness":null` and are
/// byte-identical to pre-v7 output everywhere else.
#[derive(Debug, Clone, Default, ToJson, Snapshot)]
pub struct StalenessSummary {
    /// Traced read releases.
    pub released: u64,
    /// Releases whose stage sum was checked against the observed age.
    pub conservation_checked: u64,
    /// Releases whose stage sum did NOT equal the observed age (always 0
    /// for an honest pipeline; nonzero flags a decomposition bug).
    pub conservation_violations: u64,
    /// Flow records kept for Perfetto export.
    pub flows_kept: u64,
    /// Flow records dropped at the capacity bound (aggregates stay exact).
    pub flows_dropped: u64,
    /// Observed age per traced release.
    pub age_ns: Histogram,
    /// Global per-stage decomposition.
    pub stages: StageSet,
    /// Per-location decomposition, sorted by location.
    pub by_loc: Vec<LocStages>,
    /// Per-link decomposition, sorted by (writer, reader).
    pub by_link: Vec<LinkStages>,
}

impl StalenessSummary {
    /// Fold another summary in (sweeps merge per-cell sections).
    pub fn merge(&mut self, other: &StalenessSummary) {
        self.released += other.released;
        self.conservation_checked += other.conservation_checked;
        self.conservation_violations += other.conservation_violations;
        self.flows_kept += other.flows_kept;
        self.flows_dropped += other.flows_dropped;
        self.age_ns.merge(&other.age_ns);
        self.stages.merge(&other.stages);
        for r in &other.by_loc {
            loc_stages(&mut self.by_loc, r.loc).merge(&r.stages);
        }
        for r in &other.by_link {
            link_stages(&mut self.by_link, r.writer, r.reader).merge(&r.stages);
        }
    }
}

/// One periodic sample of the hub's derived metrics, cut on a virtual-time
/// cadence ([`Hub::sample_every`]). Counters are cumulative since the start
/// of the run; percentiles are over everything recorded so far. The series
/// stays meaningful even after raw-event storage saturates, because it is
/// fed by the exact aggregate metrics, not the bounded raw stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, Snapshot)]
pub struct MetricSnapshot {
    /// Virtual instant of the sample.
    pub t_ns: u64,
    /// Reads completed so far.
    pub reads: u64,
    /// DSM writes so far.
    pub writes: u64,
    /// Network deliveries so far.
    pub messages: u64,
    /// Updates discarded as stale so far.
    pub stale_discards: u64,
    /// Barrier releases so far.
    pub barriers: u64,
    /// Rollback anti-messages so far.
    pub anti_messages: u64,
    /// Frames dropped by the fault layer so far.
    pub faults_dropped: u64,
    /// Reliable-delivery retransmissions so far.
    pub retransmits: u64,
    /// Degraded (timed-out) reads so far.
    pub degraded_reads: u64,
    /// Median delivered-age gap so far.
    pub staleness_p50: u64,
    /// 99th-percentile delivered-age gap so far.
    pub staleness_p99: u64,
    /// Total virtual ns spent in blocked reads so far.
    pub block_ns_total: u64,
    /// Blocked reads so far.
    pub blocked_reads: u64,
    /// 99th-percentile network delay so far (virtual ns).
    pub net_delay_p99: u64,
    /// Raw events dropped so far.
    pub events_dropped: u64,
    /// Spans dropped so far.
    pub spans_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_done(staleness: u64, blocked: bool, block_ns: u64) -> ObsEvent {
        ObsEvent::ReadDone {
            t_ns: 0,
            rank: 0,
            loc: 0,
            curr_iter: 10,
            requested: 5,
            delivered: 10 - staleness,
            staleness,
            blocked,
            block_ns,
        }
    }

    #[test]
    fn emit_updates_derived_metrics() {
        let hub = Hub::new();
        hub.emit(read_done(3, false, 0));
        hub.emit(read_done(0, true, 1_000));
        hub.emit(ObsEvent::NetDeliver {
            t_ns: 5,
            src: 0,
            dst: 1,
            delay_ns: 2_000,
        });
        hub.emit(ObsEvent::AntiMessage {
            t_ns: 6,
            rank: 1,
            loc: 0,
            age: 4,
        });
        let s = hub.summary();
        assert_eq!(s.reads, 2);
        assert_eq!(s.messages, 1);
        assert_eq!(s.anti_messages, 1);
        assert_eq!(s.staleness.count(), 2);
        assert_eq!(s.staleness.max(), 3);
        assert_eq!(s.block_ns.count(), 1);
        assert_eq!(s.net_delay_ns.max(), 2_000);
        assert_eq!(s.events, 4);
        assert_eq!(s.events_dropped, 0);
    }

    #[test]
    fn counters_survive_event_overflow() {
        let hub = Hub::with_event_capacity(1);
        for _ in 0..5 {
            hub.emit(read_done(1, false, 0));
        }
        let s = hub.summary();
        assert_eq!(s.events, 1);
        assert_eq!(s.events_dropped, 4);
        assert_eq!(s.reads, 5);
        assert_eq!(s.staleness.count(), 5);
    }

    #[test]
    fn snapshots_follow_the_cadence() {
        let hub = Hub::new();
        hub.sample_every(1_000);
        // Events inside the first interval cut nothing; the first event at
        // or past each boundary cuts exactly one snapshot.
        for t in [100, 400, 900] {
            hub.emit(ObsEvent::Write {
                t_ns: t,
                rank: 0,
                loc: 0,
                age: 1,
            });
        }
        assert!(hub.snapshots().is_empty());
        hub.emit(read_done(2, true, 50));
        hub.emit(ObsEvent::Write {
            t_ns: 1_200,
            rank: 0,
            loc: 0,
            age: 2,
        });
        hub.emit(ObsEvent::Write {
            t_ns: 3_500,
            rank: 0,
            loc: 0,
            age: 3,
        });
        let snaps = hub.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].t_ns, 1_200);
        assert_eq!(snaps[0].writes, 4);
        assert_eq!(snaps[0].reads, 1);
        assert_eq!(snaps[0].blocked_reads, 1);
        assert_eq!(snaps[0].block_ns_total, 50);
        assert_eq!(snaps[1].t_ns, 3_500);
        assert_eq!(snaps[1].writes, 5);
        assert_eq!(hub.summary().snapshots.len(), 2);
    }

    #[test]
    fn snapshots_off_by_default() {
        let hub = Hub::new();
        for _ in 0..10 {
            hub.emit(read_done(1, false, 0));
        }
        assert!(hub.snapshots().is_empty());
        assert!(hub.summary().snapshots.is_empty());
    }

    #[test]
    fn sample_every_zero_is_an_explicit_disable() {
        let hub = Hub::new();
        hub.sample_every(1_000);
        hub.sample_every(0);
        for t in [500, 1_500, 10_000] {
            hub.emit(ObsEvent::Write {
                t_ns: t,
                rank: 0,
                loc: 0,
                age: 1,
            });
        }
        assert!(hub.snapshots().is_empty());
    }

    /// A cloneable in-memory writer for feed tests.
    #[derive(Clone, Default)]
    struct SharedBuf(Rc<RefCell<Vec<u8>>>);

    impl SharedBuf {
        fn lines(&self) -> Vec<String> {
            String::from_utf8(self.0.borrow().clone())
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
        }
    }

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn live_feed_streams_snapshots_and_final_counters() {
        let hub = Hub::new();
        hub.sample_every(1_000);
        let buf = SharedBuf::default();
        hub.set_live(Box::new(buf.clone()), "unit");
        hub.emit(read_done(2, true, 50));
        hub.emit(ObsEvent::Write {
            t_ns: 1_200,
            rank: 0,
            loc: 0,
            age: 1,
        });
        hub.emit(ObsEvent::Write {
            t_ns: 2_400,
            rank: 0,
            loc: 0,
            age: 2,
        });
        hub.live_final(&hub.summary());
        let lines = buf.lines();
        assert_eq!(lines.len(), 4, "start + 2 snaps + final: {lines:?}");
        assert!(lines[0].contains("\"kind\":\"start\""));
        assert!(lines[0].contains("\"bench\":\"unit\""));
        assert!(lines[0].contains("\"snap_every_ns\":1000"));
        assert!(lines[1].contains("\"kind\":\"snap\""));
        // First snap's deltas are the cumulative values so far.
        assert!(lines[1].contains("\"delta\":{\"reads\":1,\"writes\":1,"));
        // Second snap saw one more write, nothing else.
        assert!(lines[2].contains("\"delta\":{\"reads\":0,\"writes\":1,"));
        assert!(lines[3].contains("\"kind\":\"final\""));
        assert!(lines[3].contains("\"reads\":1"));
        assert!(lines[3].contains("\"writes\":2"));
        for line in &lines {
            assert!(line.starts_with("{\"feed_version\":1,"), "{line}");
        }
    }

    #[test]
    fn live_feed_without_cadence_is_start_plus_final_only() {
        let hub = Hub::new();
        hub.sample_every(0);
        let buf = SharedBuf::default();
        hub.set_live(Box::new(buf.clone()), "quiet");
        for _ in 0..10 {
            hub.emit(read_done(1, false, 0));
        }
        hub.live_final(&hub.summary());
        let lines = buf.lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"snap_every_ns\":0"));
        assert!(lines[1].contains("\"kind\":\"final\""));
    }

    #[test]
    fn sched_accounting_accumulates_and_derives_rate() {
        let hub = Hub::new();
        assert!(!hub.wants_wall());
        hub.enable_wall();
        assert!(hub.wants_wall());
        hub.note_sched(&SchedDelta {
            events: 100,
            parks: 10,
            unparks: 12,
            handoffs: 4,
            exec_ns: 4_000,
            wall_ns: 500_000_000,
            park: {
                let mut h = crate::hist::Histogram::new();
                h.record(1_000);
                h.record(2_000);
                h
            },
            per_proc: vec![(0, 3_000, 7), (1, 1_000, 5)],
        });
        hub.note_sched(&SchedDelta {
            events: 100,
            parks: 5,
            unparks: 5,
            handoffs: 3,
            exec_ns: 1_000,
            wall_ns: 500_000_000,
            park: {
                let mut h = crate::hist::Histogram::new();
                h.record(3_000);
                h
            },
            per_proc: vec![(1, 1_000, 3)],
        });
        let s = hub.sched();
        assert_eq!(s.events, 200);
        assert_eq!(s.parks, 15);
        assert_eq!(s.unparks, 17);
        assert_eq!(s.handoffs, 7);
        assert_eq!(s.exec_ns, 5_000);
        assert_eq!(s.wall_ns, 1_000_000_000);
        assert!((s.events_per_sec - 200.0).abs() < 1e-9);
        assert_eq!(
            s.procs,
            vec![
                ProcSched {
                    pid: 0,
                    exec_ns: 3_000,
                    slices: 7
                },
                ProcSched {
                    pid: 1,
                    exec_ns: 2_000,
                    slices: 8
                },
            ]
        );

        // adopt_sched folds another hub's totals in.
        let other = Hub::new();
        other.note_sched(&SchedDelta {
            events: 50,
            parks: 1,
            unparks: 1,
            handoffs: 1,
            exec_ns: 500,
            wall_ns: 1_000,
            park: crate::hist::Histogram::new(),
            per_proc: vec![(2, 500, 1)],
        });
        hub.adopt_sched(&other);
        let s = hub.sched();
        assert_eq!(s.events, 250);
        assert_eq!(s.handoffs, 8);
        assert_eq!(s.procs.len(), 3);
        assert_eq!(s.procs[2].pid, 2);
    }

    #[test]
    fn event_dump_exports_valid_versioned_json() {
        let hub = Hub::new();
        hub.emit(read_done(1, false, 0));
        hub.span(0, 0, 10, SpanKind::Compute, "run");
        hub.set_proc_name(0, "rank0");
        let dump = hub.export_events_json();
        nscc_ckpt::json::parse(&dump).expect("event dump validates");
        assert!(dump.contains(&format!("\"schema_version\":{}", crate::SCHEMA_VERSION)));
        assert!(dump.contains("\"ReadDone\""));
        assert!(dump.contains("\"rank0\""));
    }

    #[test]
    fn recovery_events_update_counters() {
        let hub = Hub::new();
        hub.emit(ObsEvent::Checkpoint {
            t_ns: 10,
            rank: 0,
            iter: 5,
            bytes: 128,
        });
        hub.emit(ObsEvent::Restore {
            t_ns: 20,
            rank: 0,
            from_iter: 9,
            to_iter: 5,
            rollback: 4,
            bound: 8,
        });
        hub.emit(ObsEvent::MailboxHigh {
            t_ns: 30,
            rank: 1,
            depth: 64,
        });
        let s = hub.summary();
        assert_eq!(s.checkpoints, 1);
        assert_eq!(s.restores, 1);
        assert_eq!(s.mailbox_warnings, 1);
        assert_eq!(s.rollback.count(), 1);
        assert_eq!(s.rollback.max(), 4);
    }

    #[test]
    fn summary_merge_adds_counters_and_histograms() {
        let a = Hub::new();
        a.emit(read_done(3, false, 0));
        a.emit(read_done(1, true, 500));
        let b = Hub::new();
        b.emit(read_done(7, false, 0));
        b.emit(ObsEvent::Restore {
            t_ns: 5,
            rank: 2,
            from_iter: 8,
            to_iter: 6,
            rollback: 2,
            bound: 4,
        });
        b.warp_sample(0, 2.0);
        let mut merged = a.summary();
        merged.merge(&b.summary());
        assert_eq!(merged.reads, 3);
        assert_eq!(merged.restores, 1);
        assert_eq!(merged.staleness.count(), 3);
        assert_eq!(merged.staleness.max(), 7);
        assert_eq!(merged.block_ns.count(), 1);
        assert_eq!(merged.rollback.max(), 2);
        // Warp merge: one side empty takes the other verbatim.
        assert_eq!(merged.warp.samples, 1);
        assert_eq!(merged.warp.mean, 2.0);
        // Merging two non-empty warps is sample-weighted on the mean.
        let mut w = merged.warp;
        w = super::merge_warp(
            &w,
            &WarpSummary {
                samples: 3,
                mean: 4.0,
                p50: 1.0,
                p95: 1.0,
                max: 5.0,
            },
        );
        assert_eq!(w.samples, 4);
        assert!((w.mean - 3.5).abs() < 1e-12);
        assert_eq!(w.max, 5.0);
    }

    #[test]
    fn summary_snapshot_roundtrip() {
        let hub = Hub::new();
        hub.sample_every(100);
        hub.emit(read_done(3, true, 700));
        hub.emit(ObsEvent::NetDeliver {
            t_ns: 150,
            src: 0,
            dst: 1,
            delay_ns: 2_000,
        });
        hub.emit(ObsEvent::Checkpoint {
            t_ns: 200,
            rank: 0,
            iter: 9,
            bytes: 64,
        });
        hub.warp_sample(10, 1.25);
        hub.emit(read_dep(1, 0, 2));
        hub.profile_add("rank1", "compute", "", 12);
        hub.set_loc_name(2, "v2");
        hub.set_proc_name(1, "rank1");
        let mut s = hub.summary();
        assert!(!s.snapshots.is_empty());
        assert!(!s.heat.is_empty());
        assert!(!s.deps.is_empty());
        assert!(!s.profile.is_empty());
        // Every counter, and every warp statistic, distinct: a codec that
        // swapped two fields of one type would change the pinned bytes.
        let m = &mut s.snapshots[0];
        let snapshot_counters = [
            &mut m.t_ns,
            &mut m.reads,
            &mut m.writes,
            &mut m.messages,
            &mut m.stale_discards,
            &mut m.barriers,
            &mut m.anti_messages,
            &mut m.faults_dropped,
            &mut m.retransmits,
            &mut m.degraded_reads,
            &mut m.staleness_p50,
            &mut m.staleness_p99,
            &mut m.block_ns_total,
            &mut m.blocked_reads,
            &mut m.net_delay_p99,
            &mut m.events_dropped,
            &mut m.spans_dropped,
        ];
        for (n, v) in snapshot_counters.into_iter().enumerate() {
            *v = 100 + n as u64;
        }
        let hub_counters = [
            &mut s.events,
            &mut s.events_dropped,
            &mut s.spans,
            &mut s.spans_dropped,
            &mut s.reads,
            &mut s.writes,
            &mut s.messages,
            &mut s.stale_discards,
            &mut s.barriers,
            &mut s.anti_messages,
            &mut s.faults_dropped,
            &mut s.faults_duplicated,
            &mut s.retransmits,
            &mut s.degraded_reads,
            &mut s.suspected_writers,
            &mut s.checkpoints,
            &mut s.restores,
            &mut s.mailbox_warnings,
        ];
        for (n, v) in hub_counters.into_iter().enumerate() {
            *v = 200 + n as u64;
        }
        let w = &mut s.warp;
        (w.mean, w.p50, w.p95, w.max) = (1.25, 1.5, 1.75, 2.0);
        let bytes = nscc_ckpt::to_bytes(&s);
        assert_eq!(
            (nscc_ckpt::CKPT_VERSION, nscc_ckpt::fnv1a(&bytes)),
            (2, 0xbbfb_d234_468c_ad0c),
            "the checkpoint layout moved: bump CKPT_VERSION and pin the new pair"
        );
        let back: HubSummary = nscc_ckpt::from_bytes(&bytes).expect("decodes");
        assert_eq!(back.reads, s.reads);
        assert_eq!(back.checkpoints, s.checkpoints);
        assert_eq!(back.staleness, s.staleness);
        assert_eq!(back.block_ns, s.block_ns);
        assert_eq!(back.net_delay_ns, s.net_delay_ns);
        assert_eq!(back.rollback, s.rollback);
        assert_eq!(back.warp, s.warp);
        assert_eq!(back.snapshots, s.snapshots);
        assert_eq!(back.heat, s.heat);
        assert_eq!(back.deps, s.deps);
        assert_eq!(back.profile, s.profile);
        assert_eq!(back.loc_names, s.loc_names);
        assert_eq!(back.proc_names, s.proc_names);
        // Byte-identity of the re-encoding: decode∘encode is the identity.
        assert_eq!(nscc_ckpt::to_bytes(&back), bytes);
    }

    fn read_dep(reader: u32, loc: u32, writer: u32) -> ObsEvent {
        ObsEvent::ReadDep {
            t_ns: 50,
            reader,
            writer,
            loc,
            write_iter: 9,
            msg_seq: 4,
            block_ns: 1_000,
            queued_ns: 100,
            inflight_ns: 800,
            retrans_ns: 0,
        }
    }

    #[test]
    fn read_done_feeds_per_location_heatmap() {
        let hub = Hub::new();
        hub.emit(read_done(3, false, 0));
        hub.emit(ObsEvent::ReadDone {
            t_ns: 1,
            rank: 0,
            loc: 7,
            curr_iter: 10,
            requested: 5,
            delivered: 5,
            staleness: 5,
            blocked: false,
            block_ns: 0,
        });
        let heat = hub.summary().heat;
        assert_eq!(heat.len(), 2);
        assert_eq!(heat[0].loc, 0);
        assert_eq!(heat[0].staleness.max(), 3);
        assert_eq!(heat[1].loc, 7);
        assert_eq!(heat[1].staleness.count(), 1);
    }

    #[test]
    fn read_deps_aggregate_per_edge() {
        let hub = Hub::new();
        hub.emit(read_dep(1, 0, 2));
        hub.emit(read_dep(1, 0, 2));
        hub.emit(read_dep(3, 0, 2));
        let deps = hub.summary().deps;
        assert_eq!(deps.len(), 2);
        assert_eq!((deps[0].reader, deps[0].loc, deps[0].writer), (1, 0, 2));
        assert_eq!(deps[0].blocks, 2);
        assert_eq!(deps[0].block_ns, 2_000);
        assert_eq!(deps[0].last_write_iter, 9);
        assert_eq!(deps[0].last_msg_seq, 4);
        assert_eq!(deps[1].reader, 3);
    }

    #[test]
    fn profile_rows_sorted_and_mergeable() {
        let hub = Hub::new();
        hub.profile_every(1_000_000);
        assert_eq!(hub.profile_period(), 1_000_000);
        hub.profile_add("rank1", "blocked", "v0", 3);
        hub.profile_add("rank0", "compute", "", 10);
        hub.profile_add("rank1", "blocked", "v0", 2);
        hub.profile_add("rank1", "compute", "", 0); // zero samples: no row
        let rows = hub.profile_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!((&*rows[0].proc, rows[0].samples), ("rank0", 10));
        assert_eq!((&*rows[1].proc, rows[1].samples), ("rank1", 5));

        let mut a = hub.summary();
        let b = hub.summary();
        a.merge(&b);
        assert_eq!(a.profile[0].samples, 20);
        assert_eq!(a.profile[1].samples, 10);
        assert_eq!(a.heat, hub.summary().heat); // both empty
        assert_eq!(a.deps.len(), 0);
    }

    #[test]
    fn phase_annotations_set_and_clear() {
        let hub = Hub::new();
        assert!(hub.phase_of(4).is_none());
        hub.annotate_phase(4, "Global_Read", "v3");
        assert_eq!(
            hub.phase_of(4),
            Some(("Global_Read".to_string(), "v3".to_string()))
        );
        hub.clear_phase(4);
        assert!(hub.phase_of(4).is_none());
    }

    #[test]
    fn summary_merge_folds_heat_and_deps() {
        let a = Hub::new();
        a.emit(read_done(3, false, 0));
        a.emit(read_dep(1, 0, 2));
        a.set_loc_name(0, "v0");
        let b = Hub::new();
        b.emit(read_done(1, false, 0));
        b.emit(read_dep(1, 0, 2));
        b.emit(read_dep(2, 5, 0));
        b.set_loc_name(5, "v5");
        let mut m = a.summary();
        m.merge(&b.summary());
        assert_eq!(m.heat.len(), 1);
        assert_eq!(m.heat[0].staleness.count(), 2);
        assert_eq!(m.deps.len(), 2);
        assert_eq!(m.deps[0].blocks, 2);
        assert_eq!(m.loc_names[&0], "v0");
        assert_eq!(m.loc_names[&5], "v5");
    }

    #[test]
    fn clones_share_the_sink() {
        let hub = Hub::new();
        let clone = hub.clone();
        clone.span(0, 0, 10, SpanKind::Compute, "run");
        clone.warp_sample(0, 1.5);
        clone.set_proc_name(0, "island0");
        assert_eq!(hub.spans().len(), 1);
        assert_eq!(hub.warp().len(), 1);
        assert_eq!(hub.proc_names()[&0], "island0");
    }

    /// A conserving anatomy event: the seven stages sum to `age_ns`.
    fn anatomy(reader: u32, writer: u32, loc: u32, t_ns: u64) -> ObsEvent {
        ObsEvent::ReadAnatomy {
            t_ns,
            reader,
            writer,
            loc,
            write_iter: 3,
            msg_seq: 9,
            age_ns: 7_000,
            wait_ns: 1_000,
            publish_ns: 500,
            transit_ns: 2_000,
            fault_ns: 1_500,
            retrans_ns: 1_000,
            queue_ns: 600,
            apply_ns: 400,
        }
    }

    #[test]
    fn anatomy_aggregates_only_when_armed() {
        let hub = Hub::new();
        // Unarmed: the event is ignored by the anatomy state (and the DSM
        // would not even emit it).
        hub.emit(anatomy(1, 0, 4, 10_000));
        assert_eq!(hub.staleness_summary().released, 0);

        hub.enable_staleness();
        assert!(hub.staleness_enabled());
        hub.emit(anatomy(1, 0, 4, 10_000));
        hub.emit(anatomy(2, 0, 4, 20_000));
        hub.emit(anatomy(1, 0, 5, 30_000));
        let s = hub.staleness_summary();
        assert_eq!(s.released, 3);
        assert_eq!(s.conservation_checked, 3);
        assert_eq!(s.conservation_violations, 0);
        assert_eq!(s.age_ns.count(), 3);
        assert_eq!(s.stages.wait_ns.sum(), 3_000);
        assert_eq!(s.stages.total_ns(), s.age_ns.sum());
        assert_eq!(s.by_loc.len(), 2);
        assert_eq!(s.by_loc[0].loc, 4);
        assert_eq!(s.by_loc[0].stages.apply_ns.count(), 2);
        assert_eq!(s.by_link.len(), 2);
        assert_eq!((s.by_link[0].writer, s.by_link[0].reader), (0, 1));
        assert_eq!(s.by_link[0].stages.transit_ns.count(), 2);
        // Flow records bind write → pop → release instants.
        let flows = hub.staleness_flows();
        assert_eq!(flows.len(), 3);
        assert_eq!(flows[0].id, 1);
        assert_eq!(flows[0].release_ns, 10_000);
        assert_eq!(flows[0].recv_ns, 10_000 - 400);
        assert_eq!(flows[0].write_ns, 10_000 - (7_000 - 1_000));
    }

    #[test]
    fn anatomy_flags_nonconserving_decompositions() {
        let hub = Hub::new();
        hub.enable_staleness();
        hub.emit(anatomy(1, 0, 4, 10_000));
        hub.emit(ObsEvent::ReadAnatomy {
            t_ns: 20_000,
            reader: 1,
            writer: 0,
            loc: 4,
            write_iter: 3,
            msg_seq: 9,
            age_ns: 7_001, // one ns unaccounted for
            wait_ns: 1_000,
            publish_ns: 500,
            transit_ns: 2_000,
            fault_ns: 1_500,
            retrans_ns: 1_000,
            queue_ns: 600,
            apply_ns: 400,
        });
        let s = hub.staleness_summary();
        assert_eq!(s.conservation_checked, 2);
        assert_eq!(s.conservation_violations, 1);
    }

    #[test]
    fn anatomy_events_do_not_perturb_the_summary() {
        // The tracer owns only the staleness section: HubSummary bytes with
        // the tracer armed and fed must equal an idle hub's.
        let hub = Hub::new();
        hub.enable_staleness();
        hub.emit(anatomy(1, 0, 4, 10_000));
        let idle = Hub::new();
        assert_eq!(
            nscc_ckpt::json::to_json(&hub.summary()),
            nscc_ckpt::json::to_json(&idle.summary())
        );
        assert_eq!(hub.event_count(), 0);
    }

    #[test]
    fn staleness_summary_roundtrips_through_ckpt() {
        let hub = Hub::new();
        hub.enable_staleness();
        hub.emit(anatomy(1, 0, 4, 10_000));
        hub.emit(anatomy(2, 3, 5, 20_000));
        let mut s = hub.staleness_summary();
        // Distinct counters, so that a swap of two would change the pin.
        (s.conservation_checked, s.conservation_violations) = (3, 1);
        s.flows_dropped = 4;
        let bytes = nscc_ckpt::to_bytes(&s);
        assert_eq!(
            (nscc_ckpt::CKPT_VERSION, nscc_ckpt::fnv1a(&bytes)),
            (2, 0x36ca_cbd9_eb67_2814),
            "the checkpoint layout moved: bump CKPT_VERSION and pin the new pair"
        );
        let back: StalenessSummary = nscc_ckpt::from_bytes(&bytes).expect("decodes");
        assert_eq!(
            nscc_ckpt::json::to_json(&s),
            nscc_ckpt::json::to_json(&back),
            "ckpt roundtrip preserves the section"
        );
        assert_eq!(nscc_ckpt::to_bytes(&back), bytes);
    }

    /// One step of the model test's stream: an event or another fold.
    enum Step {
        Emit(ObsEvent),
        Profile(&'static str, &'static str, &'static str, u64),
        Sched(SchedDelta),
        LocName(u32),
    }

    fn apply(hub: &Hub, step: &Step) {
        match step {
            Step::Emit(ev) => hub.emit(ev.clone()),
            Step::Profile(proc, phase, detail, n) => hub.profile_add(proc, phase, detail, *n),
            Step::Sched(d) => hub.note_sched(d),
            Step::LocName(loc) => hub.set_loc_name(*loc, format!("v{loc}")),
        }
    }

    /// A seeded stream over few keys, so rows collide: reads of four
    /// locations, dependency edges among three ranks with `write_iter`
    /// ties, anatomy on shared locations and links (one in five not
    /// conserving), repeated and new profiler rows (zero-sample ones
    /// included), scheduler batches with repeated pids, and events of
    /// every kind. No warp samples: the warp merge is approximate by
    /// design.
    fn model_stream(seed: u64, n: u64) -> Vec<Step> {
        let mut state = seed;
        let mut r = move |m: u64| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % m
        };
        let kinds = one_of_each();
        (0..n)
            .map(|i| {
                let t_ns = i * 100;
                let (rank, peer, loc) = (r(3) as u32, r(3) as u32, r(4) as u32);
                match r(20) {
                    0..=2 => Step::Emit(ObsEvent::ReadDone {
                        t_ns,
                        rank,
                        loc,
                        curr_iter: 10,
                        requested: 5,
                        delivered: 8,
                        staleness: r(6),
                        blocked: r(2) == 0,
                        block_ns: r(5_000),
                    }),
                    3..=5 => Step::Emit(ObsEvent::ReadDep {
                        t_ns,
                        reader: rank,
                        writer: peer,
                        loc,
                        write_iter: r(3),
                        msg_seq: r(1_000),
                        block_ns: r(5_000),
                        queued_ns: r(500),
                        inflight_ns: r(900),
                        retrans_ns: r(300),
                    }),
                    6..=7 => {
                        let s: [u64; 7] = std::array::from_fn(|_| r(900));
                        Step::Emit(ObsEvent::ReadAnatomy {
                            t_ns,
                            reader: rank,
                            writer: peer,
                            loc,
                            write_iter: r(3),
                            msg_seq: r(1_000),
                            age_ns: s.iter().sum::<u64>() + u64::from(r(5) == 0),
                            wait_ns: s[0],
                            publish_ns: s[1],
                            transit_ns: s[2],
                            fault_ns: s[3],
                            retrans_ns: s[4],
                            queue_ns: s[5],
                            apply_ns: s[6],
                        })
                    }
                    8 => Step::Profile(
                        ["rank0", "rank1", "island2"][rank as usize],
                        ["compute", "Global_Read"][r(2) as usize],
                        ["", "v1", "v0"][r(3) as usize],
                        r(4),
                    ),
                    9 => Step::Sched(SchedDelta {
                        events: r(100),
                        parks: r(10),
                        unparks: r(10),
                        handoffs: r(5),
                        exec_ns: r(10_000),
                        wall_ns: r(100_000),
                        per_proc: (0..=r(2)).map(|_| (r(4) as u32, r(1_000), r(5))).collect(),
                        park: {
                            let mut h = Histogram::new();
                            (0..r(3)).for_each(|_| h.record(r(50_000)));
                            h
                        },
                    }),
                    10 => Step::LocName(loc),
                    _ => Step::Emit(kinds[r(kinds.len() as u64) as usize].clone()),
                }
            })
            .collect()
    }

    /// The oracle: the stream folded into `BTreeMap`s keyed as the rows
    /// are, the representation the hub kept before it folded into its
    /// summaries.
    #[derive(Default)]
    struct Model {
        events: u64,
        kinds: BTreeMap<&'static str, u64>,
        /// staleness, block_ns, net_delay_ns, rollback
        hists: [Histogram; 4],
        heat: BTreeMap<u32, Histogram>,
        deps: BTreeMap<(u32, u32, u32), DepEdge>,
        profile: BTreeMap<(String, String, String), u64>,
        loc_names: BTreeMap<u32, String>,
        /// released (one flow each), conservation violations
        anatomy: [u64; 2],
        age_ns: Histogram,
        stages: StageSet,
        by_loc: BTreeMap<u32, StageSet>,
        by_link: BTreeMap<(u32, u32), StageSet>,
        /// events, parks, unparks, handoffs, exec_ns, wall_ns
        sched: [u64; 6],
        procs: BTreeMap<u32, (u64, u64)>,
        park: Histogram,
    }

    impl Model {
        fn apply(&mut self, step: &Step) {
            match step {
                Step::Emit(ev) if ev.is_meta() => self.anatomy(ev),
                Step::Emit(ev) => self.event(ev),
                &Step::Profile(proc, phase, detail, n) if n > 0 => {
                    let key = (proc.into(), phase.into(), detail.into());
                    *self.profile.entry(key).or_default() += n;
                }
                Step::Profile(..) => {}
                Step::Sched(d) => {
                    let adds = [
                        d.events, d.parks, d.unparks, d.handoffs, d.exec_ns, d.wall_ns,
                    ];
                    for (total, add) in self.sched.iter_mut().zip(adds) {
                        *total += add;
                    }
                    for &(pid, exec_ns, slices) in &d.per_proc {
                        let p = self.procs.entry(pid).or_default();
                        (p.0, p.1) = (p.0 + exec_ns, p.1 + slices);
                    }
                    self.park.merge(&d.park);
                }
                Step::LocName(loc) => {
                    self.loc_names.insert(*loc, format!("v{loc}"));
                }
            }
        }

        fn event(&mut self, ev: &ObsEvent) {
            self.events += 1;
            *self.kinds.entry(ev.kind()).or_default() += 1;
            let [staleness, block_ns, net_delay_ns, rollback] = &mut self.hists;
            match *ev {
                ObsEvent::ReadDone {
                    loc,
                    staleness: s,
                    blocked,
                    block_ns: b,
                    ..
                } => {
                    staleness.record(s);
                    self.heat.entry(loc).or_default().record(s);
                    if blocked {
                        block_ns.record(b);
                    }
                }
                ObsEvent::NetDeliver { delay_ns, .. } => net_delay_ns.record(delay_ns),
                ObsEvent::Restore { rollback: r, .. } => rollback.record(r),
                ObsEvent::ReadDep {
                    reader,
                    writer,
                    loc,
                    write_iter,
                    msg_seq,
                    block_ns,
                    queued_ns,
                    inflight_ns,
                    retrans_ns,
                    ..
                } => {
                    let e = (self.deps.entry((reader, loc, writer))).or_insert(DepEdge {
                        reader,
                        loc,
                        writer,
                        ..DepEdge::default()
                    });
                    e.blocks += 1;
                    e.block_ns += block_ns;
                    e.queued_ns += queued_ns;
                    e.inflight_ns += inflight_ns;
                    e.retrans_ns += retrans_ns;
                    // The newest write wins; of equals, the later one.
                    if write_iter >= e.last_write_iter {
                        (e.last_write_iter, e.last_msg_seq) = (write_iter, msg_seq);
                    }
                }
                _ => {}
            }
        }

        fn anatomy(&mut self, ev: &ObsEvent) {
            let &ObsEvent::ReadAnatomy {
                reader,
                writer,
                loc,
                age_ns,
                wait_ns,
                publish_ns,
                transit_ns,
                fault_ns,
                retrans_ns,
                queue_ns,
                apply_ns,
                ..
            } = ev
            else {
                return;
            };
            let s = [
                wait_ns, publish_ns, transit_ns, fault_ns, retrans_ns, queue_ns, apply_ns,
            ];
            self.anatomy[0] += 1;
            self.anatomy[1] += u64::from(s.iter().sum::<u64>() != age_ns);
            self.age_ns.record(age_ns);
            for set in [
                &mut self.stages,
                self.by_loc.entry(loc).or_default(),
                self.by_link.entry((writer, reader)).or_default(),
            ] {
                set.record(s[0], s[1], s[2], s[3], s[4], s[5], s[6]);
            }
        }

        fn summary(&self) -> HubSummary {
            let n = |kind: &str| self.kinds.get(kind).copied().unwrap_or(0);
            let [staleness, block_ns, net_delay_ns, rollback] = self.hists.clone();
            HubSummary {
                events: self.events,
                reads: n("read_done"),
                writes: n("write"),
                messages: n("net_deliver"),
                stale_discards: n("stale_discard"),
                barriers: n("barrier_exit"),
                anti_messages: n("anti_message"),
                faults_dropped: n("fault_drop"),
                faults_duplicated: n("fault_dup"),
                retransmits: n("retransmit"),
                degraded_reads: n("read_degraded"),
                suspected_writers: n("writer_suspected"),
                checkpoints: n("checkpoint"),
                restores: n("restore"),
                mailbox_warnings: n("mailbox_high"),
                staleness,
                block_ns,
                net_delay_ns,
                rollback,
                heat: (self.heat.iter())
                    .map(|(&loc, h)| HeatRow {
                        loc,
                        staleness: h.clone(),
                    })
                    .collect(),
                deps: self.deps.values().copied().collect(),
                profile: (self.profile.iter())
                    .map(|((proc, phase, detail), &samples)| ProfileRow {
                        proc: proc.clone(),
                        phase: phase.clone(),
                        detail: detail.clone(),
                        samples,
                    })
                    .collect(),
                loc_names: self.loc_names.clone(),
                ..HubSummary::default()
            }
        }

        fn staleness(&self) -> StalenessSummary {
            StalenessSummary {
                released: self.anatomy[0],
                conservation_checked: self.anatomy[0],
                conservation_violations: self.anatomy[1],
                flows_kept: self.anatomy[0],
                flows_dropped: 0,
                age_ns: self.age_ns.clone(),
                stages: self.stages.clone(),
                by_loc: (self.by_loc.iter())
                    .map(|(&loc, s)| LocStages {
                        loc,
                        stages: s.clone(),
                    })
                    .collect(),
                by_link: (self.by_link.iter())
                    .map(|(&(writer, reader), s)| LinkStages {
                        writer,
                        reader,
                        stages: s.clone(),
                    })
                    .collect(),
            }
        }

        fn sched(&self) -> SchedSummary {
            let [events, parks, unparks, handoffs, exec_ns, wall_ns] = self.sched;
            SchedSummary {
                events,
                parks,
                unparks,
                handoffs,
                exec_ns,
                wall_ns,
                events_per_sec: events as f64 / (wall_ns as f64 / 1e9),
                park_p50_ns: self.park.quantile(0.50),
                park_p99_ns: self.park.quantile(0.99),
                procs: (self.procs.iter())
                    .map(|(&pid, &(exec_ns, slices))| ProcSched {
                        pid,
                        exec_ns,
                        slices,
                    })
                    .collect(),
            }
        }
    }

    /// Byte-equality of two checkpoint encodings, shown as JSON on failure.
    fn same<T: Snapshot + ToJson>(got: &T, want: &T, what: &str) {
        assert!(
            nscc_ckpt::to_bytes(got) == nscc_ckpt::to_bytes(want),
            "{what}:\n got {}\nwant {}",
            nscc_ckpt::json::to_json(got),
            nscc_ckpt::json::to_json(want)
        );
    }

    fn fed(steps: &[Step]) -> Hub {
        let hub = Hub::new();
        hub.enable_staleness();
        steps.iter().for_each(|s| apply(&hub, s));
        hub
    }

    /// One fold, any split: a hub's aggregates equal the oracle's, and two
    /// hubs fed a prefix and the rest of the stream merge to exactly what
    /// one hub fed all of it reports, at every split point.
    #[test]
    fn one_fold_any_split() {
        let steps = model_stream(48, 400);
        let mut model = Model::default();
        steps.iter().for_each(|s| model.apply(s));
        assert_eq!(
            model.kinds.len(),
            ObsEvent::KINDS.len() - 5,
            "every non-meta kind"
        );
        let spread = (model.anatomy[1], model.procs.len(), model.profile.len());
        assert!(spread.0 > 1 && spread.1 == 4 && spread.2 > 4, "{spread:?}");

        let one = fed(&steps);
        let (sum, anatomy, sched) = (one.summary(), one.staleness_summary(), one.sched());
        same(&sum, &model.summary(), "summary vs. the oracle");
        same(&anatomy, &model.staleness(), "anatomy vs. the oracle");
        assert_eq!(sched, model.sched(), "sched vs. the oracle");

        for k in 0..=steps.len() {
            let (a, b) = (fed(&steps[..k]), fed(&steps[k..]));
            let mut merged = a.summary();
            merged.merge(&b.summary());
            same(&merged, &sum, &format!("summary split at {k}"));
            let mut merged = a.staleness_summary();
            merged.merge(&b.staleness_summary());
            same(&merged, &anatomy, &format!("anatomy split at {k}"));
            a.adopt_sched(&b);
            assert_eq!(a.sched(), sched, "sched split at {k}");
        }

        // The counters this stream cannot move merge too.
        let mut full = sum.clone();
        (full.events_dropped, full.spans, full.spans_dropped) = (3, 5, 7);
        let mut merged = HubSummary::default();
        merged.merge(&full);
        same(&merged, &full, "merge into the empty summary");
    }

    /// Sweeps start their merged sections from the defaults: an idle hub
    /// reports exactly those (no warp samples → `WarpSummary::default()`).
    #[test]
    fn an_idle_hub_reports_the_default_summaries() {
        let hub = Hub::new();
        same(&hub.summary(), &HubSummary::default(), "summary");
        same(
            &hub.staleness_summary(),
            &StalenessSummary::default(),
            "staleness",
        );
    }

    thread_local! {
        /// Events the counting tap has seen on this test's thread.
        static TAPPED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A tap with no state of its own, so it fits `Arc` without a lock.
    struct CountingTap;

    impl EventSink for CountingTap {
        fn on_event(&self, _: &ObsEvent) {
            TAPPED.with(|n| n.set(n.get() + 1));
        }
    }

    /// One event of every kind, meta ones included, 100 ns apart.
    fn one_of_each() -> Vec<ObsEvent> {
        let (src, dst, rank, loc, seq) = (0, 1, 1, 4, 9);
        let mut t_ns = 0;
        let mut t = || {
            t_ns += 100;
            t_ns
        };
        vec![
            ObsEvent::NetSend {
                t_ns: t(),
                src,
                dst,
                bytes: 64,
                queue_ns: 5,
            },
            ObsEvent::NetDeliver {
                t_ns: t(),
                src,
                dst,
                delay_ns: 2_000,
            },
            ObsEvent::Write {
                t_ns: t(),
                rank,
                loc,
                age: 3,
            },
            ObsEvent::ReadBlocked {
                t_ns: t(),
                rank,
                loc,
                required: 5,
            },
            ObsEvent::ReadDone {
                t_ns: t(),
                rank,
                loc,
                curr_iter: 10,
                requested: 5,
                delivered: 8,
                staleness: 2,
                blocked: true,
                block_ns: 700,
            },
            ObsEvent::StaleDiscard {
                t_ns: t(),
                rank,
                loc,
                age: 2,
                have: 3,
            },
            ObsEvent::BarrierEnter {
                t_ns: t(),
                rank,
                epoch: 1,
            },
            ObsEvent::BarrierExit {
                t_ns: t(),
                rank,
                epoch: 1,
                wait_ns: 40,
            },
            ObsEvent::AntiMessage {
                t_ns: t(),
                rank,
                loc,
                age: 4,
            },
            ObsEvent::FaultDrop {
                t_ns: t(),
                src,
                dst,
                reason: "loss".into(),
            },
            ObsEvent::FaultDup {
                t_ns: t(),
                src,
                dst,
            },
            ObsEvent::Retransmit {
                t_ns: t(),
                src,
                dst,
                seq,
                attempt: 1,
            },
            ObsEvent::RetransmitGiveUp {
                t_ns: t(),
                src,
                dst,
                seq,
            },
            ObsEvent::ReadDegraded {
                t_ns: t(),
                rank,
                loc,
                required: 5,
                delivered: 2,
            },
            ObsEvent::WriterSuspected {
                t_ns: t(),
                rank,
                peer: 0,
            },
            ObsEvent::Checkpoint {
                t_ns: t(),
                rank,
                iter: 5,
                bytes: 128,
            },
            ObsEvent::Restore {
                t_ns: t(),
                rank,
                from_iter: 9,
                to_iter: 5,
                rollback: 4,
                bound: 8,
            },
            ObsEvent::SeqAccept {
                t_ns: t(),
                src,
                dst,
                seq,
            },
            read_dep(1, loc, 0),
            ObsEvent::MailboxHigh {
                t_ns: t(),
                rank,
                depth: 64,
            },
            ObsEvent::SnapshotStart {
                t_ns: t(),
                rank,
                id: 1,
                gen: 5,
            },
            ObsEvent::SnapshotComplete {
                t_ns: t(),
                rank,
                id: 1,
                inflight: 2,
                pause_ns: 0,
            },
            ObsEvent::SupervisorRestart {
                t_ns: t(),
                rank,
                attempt: 1,
                backoff_ns: 1_000,
            },
            ObsEvent::SupervisorGiveUp {
                t_ns: t(),
                rank,
                restarts: 3,
            },
            anatomy(1, 0, loc, t()),
            ObsEvent::Custom {
                t_ns: t(),
                label: "mark".into(),
            },
        ]
    }

    /// Every attachment armed on one hub, one event of every kind through
    /// it across two snapshot boundaries, every reader called, then each
    /// `adopt_*` with `other` a clone of `self`. Any path that borrowed
    /// the hub's state twice would panic here. The values are what the
    /// lock-per-aggregate hub this one replaced produced for the same
    /// calls — except `adopt_sched` from a clone of itself, where that hub
    /// deadlocked (it held `other`'s guards across `note_sched`).
    #[test]
    fn every_attachment_at_once_borrows_the_state_once() {
        let hub = Hub::new();
        hub.set_tap(Arc::new(CountingTap));
        hub.enable_flight(64);
        hub.enable_staleness();
        hub.sample_every(1_000);
        let feed = SharedBuf::default();
        hub.set_live(Box::new(feed.clone()), "reentry");
        hub.enable_wall();
        hub.note_sched(&SchedDelta {
            events: 100,
            parks: 10,
            unparks: 12,
            handoffs: 4,
            exec_ns: 4_000,
            wall_ns: 500_000,
            park: {
                let mut h = crate::hist::Histogram::new();
                h.record(1_000);
                h
            },
            per_proc: vec![(0, 3_000, 7), (1, 1_000, 5)],
        });
        hub.set_proc_name(1, "rank1");
        hub.set_loc_name(4, "v4");
        hub.span(1, 0, 10, SpanKind::Compute, "run");
        hub.warp_sample(10, 1.25);
        hub.profile_every(1_000);
        hub.profile_add("rank1", "compute", "", 3);
        hub.annotate_phase(1, "Global_Read", "v4");

        let events = one_of_each();
        assert!(
            events
                .iter()
                .map(ObsEvent::kind_index)
                .eq(0..ObsEvent::KINDS.len()),
            "one event of every kind, in kind-index order"
        );
        let n = events.len() as u64;
        for ev in events {
            hub.emit(ev);
        }
        hub.note_run_boundary();
        hub.flight_note(ObsEvent::Custom {
            t_ns: 9_999,
            label: "breadcrumb".into(),
        });

        assert_eq!(n, 26);
        assert_eq!(
            TAPPED.with(std::cell::Cell::get),
            n,
            "the tap sees meta events too"
        );
        let s = hub.summary();
        assert_eq!(s.events, n - 5, "meta events stay out of the raw store");
        assert_eq!((s.reads, s.writes, s.messages), (1, 1, 1));
        assert_eq!(s.snapshots.len(), 2);
        assert_eq!(s.snapshots[0].t_ns, 1_000);
        // Meta events do not move the snapshot clock: the second boundary
        // is cut by the last event, not by the `SnapshotStart` at 2 000.
        assert_eq!(s.snapshots[1].t_ns, 2_500);
        assert_eq!(hub.flight_events().len() as u64, n + 1);
        assert_eq!(hub.staleness_summary().released, 1);
        assert_eq!(hub.sched().events, 100);
        assert_eq!(hub.phase_of(1).unwrap().1, "v4");
        nscc_ckpt::json::parse(&hub.export_events_json()).expect("event dump validates");
        assert!(hub.perfetto().contains("rank1"));
        hub.live_final(&s);
        let lines = feed.lines();
        assert_eq!(lines.len(), 4, "start + 2 snaps + final: {lines:?}");
        assert!(lines[3].contains("\"kind\":\"final\""));
        assert!(format!("{hub:?}").contains("events: 21"));

        // Adopting from a clone of oneself: the ring is drained and pushed
        // back, the scheduler counters are added to themselves.
        let same = hub.clone();
        let ring = nscc_ckpt::json::to_json(&hub.flight_events());
        hub.adopt_flight(&same);
        assert_eq!(nscc_ckpt::json::to_json(&hub.flight_events()), ring);

        hub.adopt_sched(&same);
        let sched = hub.sched();
        assert_eq!(
            (sched.events, sched.parks, sched.unparks, sched.handoffs),
            (200, 20, 24, 8)
        );
        assert_eq!((sched.exec_ns, sched.wall_ns), (8_000, 1_000_000));
        assert_eq!(
            sched.procs,
            vec![
                ProcSched {
                    pid: 0,
                    exec_ns: 6_000,
                    slices: 14
                },
                ProcSched {
                    pid: 1,
                    exec_ns: 2_000,
                    slices: 10
                },
            ]
        );
    }
}
