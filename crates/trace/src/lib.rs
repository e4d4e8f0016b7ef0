//! # ulp-trace — cycle-level observability for the het-accel platform
//!
//! The paper's evidence is *per-component cycle breakdowns*: active/idle
//! ratios for cores, TCDM banks, DMA, I$ and the SPI link under a 10 mW
//! envelope (§IV, Fig. 4/5). This crate records the raw material for such
//! breakdowns as typed, cycle-stamped [`TraceEvent`]s in per-component
//! ring buffers, derives busy/idle [`Counter`]s, and exports
//!
//! * Chrome `trace_event` JSON ([`Tracer::chrome_json`]) for timeline
//!   viewers (`chrome://tracing`, Perfetto), and
//! * plain-text tables ([`Tracer::counters_table`],
//!   [`Tracer::phase_table`]) matching the paper's phase decomposition.
//!
//! # Zero overhead when disabled
//!
//! A [`Tracer`] is a shared handle that is either *attached* to a
//! recording buffer or *disabled* (the default). Every instrumentation
//! hook in the simulator calls [`Tracer::emit`], which on a disabled
//! tracer is a single `Option` branch and returns immediately: no
//! allocation, no time-keeping, no change to any simulated timing.
//! Simulation results are bit-identical with and without instrumentation
//! compiled in, and with a disabled tracer attached.
//!
//! # Clock domains
//!
//! Components live in one of two clock domains:
//!
//! * **cluster domain** (cores, TCDM, DMA, I$): timestamps are cluster
//!   cycles. Successive cluster runs (the cold- and warm-cache runs of a
//!   cost measurement) each start at local cycle 0; the tracer keeps a
//!   *cluster epoch* that the runner advances after each run so the runs
//!   lay out sequentially on one timeline.
//! * **host domain** (host MCU phases, the SPI link): timestamps are
//!   nanoseconds of wall-clock time. The host epoch advances per offload
//!   invocation; link events use the link's own cumulative busy time.
//!
//! The Chrome exporter maps cluster events onto one process (1 "µs" = 1
//! cycle) and host/link events onto another (1 "µs" = 1 ns), so both
//! timelines are visible in one capture.
//!
//! # Example
//!
//! ```
//! use ulp_trace::{Component, EventKind, Tracer};
//!
//! let tracer = Tracer::enabled();
//! tracer.emit(Component::Core(0), EventKind::CoreRun, 0, 120);
//! tracer.emit(Component::Tcdm, EventKind::BankConflict { bank: 3 }, 17, 1);
//! tracer.set_counter(Component::Core(0), 120, 128);
//! let json = tracer.chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! assert!(tracer.counters_table().contains("core0"));
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

mod chrome;
mod report;

/// A traced hardware component (one timeline row in the export).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Component {
    /// One cluster core, by index.
    Core(u8),
    /// The banked TCDM scratchpad (arbitration conflicts).
    Tcdm,
    /// The cluster DMA engine.
    Dma,
    /// The shared instruction cache.
    ICache,
    /// The cluster as a whole (barriers, run envelopes).
    Cluster,
    /// The SPI/QSPI coupling link.
    Link,
    /// The host MCU (offload phases, WFE sleeps).
    Host,
    /// One serving-layer worker (a pooled accelerator system), by index.
    /// Host-domain: timestamps are virtual-clock nanoseconds of the
    /// serving schedule. 16 bits, so a 1024-worker fleet group gets one
    /// track per worker.
    Worker(u16),
}

impl Component {
    /// Whether this component's timestamps are cluster cycles (as opposed
    /// to host-domain nanoseconds).
    #[must_use]
    pub fn is_cluster_domain(self) -> bool {
        matches!(
            self,
            Component::Core(_)
                | Component::Tcdm
                | Component::Dma
                | Component::ICache
                | Component::Cluster
        )
    }

    /// Short lower-case label used in tables and thread names.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Component::Core(i) => format!("core{i}"),
            Component::Tcdm => "tcdm".to_owned(),
            Component::Dma => "dma".to_owned(),
            Component::ICache => "icache".to_owned(),
            Component::Cluster => "cluster".to_owned(),
            Component::Link => "link".to_owned(),
            Component::Host => "host".to_owned(),
            Component::Worker(i) => format!("worker{i}"),
        }
    }
}

/// Offload phase of the paper's Fig. 4/5 decomposition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhaseKind {
    /// Program (binary + constants) offload.
    Binary,
    /// Per-iteration input transfers.
    Input,
    /// Accelerator compute.
    Compute,
    /// Per-iteration output transfers.
    Output,
    /// GPIO synchronization edges.
    Sync,
}

impl PhaseKind {
    /// Display name of the phase.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Binary => "binary",
            PhaseKind::Input => "inputs",
            PhaseKind::Compute => "compute",
            PhaseKind::Output => "outputs",
            PhaseKind::Sync => "sync",
        }
    }

    /// All phases, in ledger order.
    pub const ALL: [PhaseKind; 5] = [
        PhaseKind::Binary,
        PhaseKind::Input,
        PhaseKind::Compute,
        PhaseKind::Output,
        PhaseKind::Sync,
    ];
}

/// What happened during a traced interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A core executed instructions (from wake/reset to sleep/halt).
    CoreRun,
    /// A core was clock-gated waiting for an event or barrier release.
    CoreSleep,
    /// A core stalled on a memory access (contention, cache miss).
    CoreMemStall,
    /// A TCDM access found its bank busy and stalled.
    BankConflict {
        /// Index of the contended bank.
        bank: u8,
    },
    /// An instruction fetch missed the shared I$ and paid the refill.
    IcacheMiss,
    /// A DMA channel moved a burst.
    DmaBurst {
        /// Payload bytes moved.
        bytes: u32,
    },
    /// A frame shifted host → accelerator over the link.
    FrameTx {
        /// Bytes on the wire (payload + framing).
        bytes: u32,
    },
    /// A frame shifted accelerator → host over the link.
    FrameRx {
        /// Bytes on the wire (payload + framing).
        bytes: u32,
    },
    /// A frame was retransmitted after a detected transport fault.
    Retry {
        /// Retransmission attempt number (1-based).
        attempt: u32,
    },
    /// The host slept in WFE waiting for the end-of-computation event.
    WfeSleep,
    /// The host watchdog fired instead of the event wire.
    Watchdog,
    /// An offload ledger phase.
    Phase(PhaseKind),
    /// A cluster barrier completed.
    Barrier,
    /// A serving-layer worker executed one coalesced batch of offload
    /// requests (the interval spans the batch's modeled service time).
    Batch {
        /// Requests coalesced into the batch.
        size: u32,
    },
    /// Instantaneous sample of the serving layer's admitted backlog
    /// (requests queued across all tenants), taken at each dispatch.
    QueueDepth {
        /// Queued requests at the sample instant.
        depth: u32,
    },
    /// The serving layer's autoscaler changed a pool's active worker
    /// count.
    Scale {
        /// Active workers before the decision.
        from: u32,
        /// Active workers after the decision.
        to: u32,
    },
}

/// One recorded event: a component, a kind, and a `[start, start + dur)`
/// interval in the component's clock domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// The component the event belongs to.
    pub component: Component,
    /// What happened.
    pub kind: EventKind,
    /// Interval start (cluster cycles or host nanoseconds, see
    /// [`Component::is_cluster_domain`]), epoch already applied.
    pub start: u64,
    /// Interval length in the same unit (0 for instantaneous events).
    pub dur: u64,
}

/// Concurrency accounting of one pipelined offload: how long each of the
/// three offload resources (coupling link, cluster DMA, cores) was busy,
/// and how much of that busy time was *concurrent* — the quantity that
/// decides how far double-buffering can shift the paper's amortization
/// break-even. All durations are host-domain nanoseconds over the same
/// schedule span.
///
/// Invariants (asserted by the trace test battery):
/// every pairwise overlap is bounded by both of its members' busy times,
/// the triple overlap is bounded by every pairwise overlap, and no busy
/// time exceeds the span.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Overlap {
    /// Nanoseconds the SPI/QSPI link was shifting bits.
    pub link_busy: u64,
    /// Nanoseconds the cluster DMA was moving chunks.
    pub dma_busy: u64,
    /// Nanoseconds the cluster cores were computing.
    pub core_busy: u64,
    /// Nanoseconds link and DMA were busy simultaneously.
    pub link_dma: u64,
    /// Nanoseconds link and cores were busy simultaneously.
    pub link_core: u64,
    /// Nanoseconds DMA and cores were busy simultaneously.
    pub dma_core: u64,
    /// Nanoseconds all three were busy simultaneously.
    pub triple: u64,
    /// Total schedule span (makespan) in nanoseconds.
    pub span: u64,
    /// Chunks that crossed the link (frames of the chunked transfer).
    pub chunks: u64,
    /// Whether the pipelined schedule was actually adopted (it beat the
    /// serialized one); `false` means the runtime fell back to the
    /// serialized order and the counters describe the rejected schedule.
    pub engaged: bool,
}

impl Overlap {
    /// True if any concurrency was recorded at all.
    #[must_use]
    pub fn any(&self) -> bool {
        *self != Overlap::default()
    }

    /// Nanoseconds hidden by concurrency: the difference between the sum
    /// of busy times and their union (inclusion–exclusion).
    #[must_use]
    pub fn hidden_ns(&self) -> u64 {
        (self.link_dma + self.link_core + self.dma_core).saturating_sub(self.triple)
    }

    /// Checks the internal consistency of the counters (see the type-level
    /// invariants). Returns the first violated invariant as text.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated bound.
    pub fn check(&self) -> Result<(), String> {
        let pairs = [
            ("link∥dma", self.link_dma, self.link_busy, self.dma_busy),
            ("link∥core", self.link_core, self.link_busy, self.core_busy),
            ("dma∥core", self.dma_core, self.dma_busy, self.core_busy),
        ];
        for (name, pair, a, b) in pairs {
            if pair > a.min(b) {
                return Err(format!(
                    "{name} overlap {pair} exceeds member busy {}",
                    a.min(b)
                ));
            }
            if self.triple > pair {
                return Err(format!(
                    "triple overlap {} exceeds {name} {pair}",
                    self.triple
                ));
            }
        }
        for (name, busy) in [
            ("link", self.link_busy),
            ("dma", self.dma_busy),
            ("core", self.core_busy),
        ] {
            if busy > self.span {
                return Err(format!("{name} busy {busy} exceeds span {}", self.span));
            }
        }
        Ok(())
    }
}

/// Busy/idle counter of one component over its traced lifetime.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Counter {
    /// Cycles (or ns) the component was busy.
    pub busy: u64,
    /// Total cycles (or ns) observed.
    pub total: u64,
}

impl Counter {
    /// Idle share: `total - busy` (saturating).
    #[must_use]
    pub fn idle(&self) -> u64 {
        self.total.saturating_sub(self.busy)
    }

    /// Utilization in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.busy as f64 / self.total as f64
        }
    }
}

/// Fixed-capacity event ring of one component: keeps the most recent
/// `cap` events and counts what it had to drop.
#[derive(Clone, Debug)]
struct Ring {
    component: Component,
    events: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// Shared recording state behind an attached [`Tracer`].
#[derive(Clone, Debug)]
struct TraceState {
    rings: Vec<Ring>,
    counters: Vec<(Component, Counter)>,
    overlap: Option<Overlap>,
    ring_cap: usize,
    cluster_epoch: u64,
    host_epoch: u64,
}

impl TraceState {
    fn ring_mut(&mut self, component: Component) -> &mut Ring {
        if let Some(i) = self.rings.iter().position(|r| r.component == component) {
            return &mut self.rings[i];
        }
        self.rings.push(Ring {
            component,
            events: VecDeque::new(),
            cap: self.ring_cap,
            dropped: 0,
        });
        self.rings.sort_by_key(|r| r.component);
        let i = self
            .rings
            .iter()
            .position(|r| r.component == component)
            .expect("just inserted");
        &mut self.rings[i]
    }
}

/// Default per-component ring capacity (events kept before dropping the
/// oldest).
pub const DEFAULT_RING_CAP: usize = 65_536;

/// A cheap, cloneable handle to a trace recording — or a disabled stub.
///
/// Cloning an attached tracer shares the underlying buffers, which is how
/// one recording is threaded through cores, memories, the link and the
/// host model. The simulator is single-threaded, so the shared state is a
/// plain `Rc<RefCell<…>>`.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceState>>>,
}

impl Tracer {
    /// A disabled tracer: every operation is a no-op costing one branch.
    #[must_use]
    pub const fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An attached tracer with the default ring capacity.
    #[must_use]
    pub fn enabled() -> Self {
        Tracer::with_capacity(DEFAULT_RING_CAP)
    }

    /// An attached tracer keeping at most `cap` events per component.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be at least 1");
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceState {
                rings: Vec::new(),
                counters: Vec::new(),
                overlap: None,
                ring_cap: cap,
                cluster_epoch: 0,
                host_epoch: 0,
            }))),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event. `start` is domain-local (cluster cycles or host
    /// nanoseconds); the current epoch of the component's domain is added
    /// so repeated runs lay out sequentially.
    ///
    /// On a disabled tracer this is a no-op.
    pub fn emit(&self, component: Component, kind: EventKind, start: u64, dur: u64) {
        let Some(state) = &self.inner else { return };
        let mut s = state.borrow_mut();
        let epoch = match component {
            c if c.is_cluster_domain() => s.cluster_epoch,
            Component::Host => s.host_epoch,
            _ => 0,
        };
        let ev = TraceEvent {
            component,
            kind,
            start: start + epoch,
            dur,
        };
        s.ring_mut(component).push(ev);
    }

    /// Sets (overwrites) a component's busy/total counter. Called by the
    /// runners at the end of each run, so the final counters always
    /// describe the most recent run.
    pub fn set_counter(&self, component: Component, busy: u64, total: u64) {
        let Some(state) = &self.inner else { return };
        let mut s = state.borrow_mut();
        if let Some(slot) = s.counters.iter_mut().find(|(c, _)| *c == component) {
            slot.1 = Counter { busy, total };
        } else {
            s.counters.push((component, Counter { busy, total }));
            s.counters.sort_by_key(|(c, _)| *c);
        }
    }

    /// Sets (overwrites) the pipelined-offload overlap counters. Called
    /// by the offload runtime after each pipelined schedule, so the
    /// stored value always describes the most recent offload.
    pub fn set_overlap(&self, overlap: Overlap) {
        if let Some(state) = &self.inner {
            state.borrow_mut().overlap = Some(overlap);
        }
    }

    /// The most recently recorded overlap counters, if any.
    #[must_use]
    pub fn overlap(&self) -> Option<Overlap> {
        self.inner.as_ref().and_then(|s| s.borrow().overlap)
    }

    /// Advances the cluster-domain epoch by `cycles` (call with the run's
    /// end time after each cluster run).
    pub fn advance_cluster_epoch(&self, cycles: u64) {
        if let Some(state) = &self.inner {
            state.borrow_mut().cluster_epoch += cycles;
        }
    }

    /// Current cluster-domain epoch offset.
    #[must_use]
    pub fn cluster_epoch(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.borrow().cluster_epoch)
    }

    /// Advances the host-domain epoch by `ns` (call with the offload's
    /// wall-clock duration after each invocation).
    pub fn advance_host_epoch(&self, ns: u64) {
        if let Some(state) = &self.inner {
            state.borrow_mut().host_epoch += ns;
        }
    }

    /// Current host-domain epoch offset in nanoseconds.
    #[must_use]
    pub fn host_epoch(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.borrow().host_epoch)
    }

    /// All recorded events, grouped by component (components in a fixed
    /// order, events in recording order). Empty on a disabled tracer.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |s| {
            s.borrow()
                .rings
                .iter()
                .flat_map(|r| r.events.iter().copied())
                .collect()
        })
    }

    /// Events of one component, in recording order.
    #[must_use]
    pub fn events_of(&self, component: Component) -> Vec<TraceEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |s| {
            s.borrow()
                .rings
                .iter()
                .filter(|r| r.component == component)
                .flat_map(|r| r.events.iter().copied())
                .collect()
        })
    }

    /// Total events dropped across all rings (ring capacity exceeded).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |s| s.borrow().rings.iter().map(|r| r.dropped).sum())
    }

    /// All counters, in component order.
    #[must_use]
    pub fn counters(&self) -> Vec<(Component, Counter)> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |s| s.borrow().counters.clone())
    }

    /// The counter of one component, if set.
    #[must_use]
    pub fn counter(&self, component: Component) -> Option<Counter> {
        self.inner.as_ref().and_then(|s| {
            s.borrow()
                .counters
                .iter()
                .find(|(c, _)| *c == component)
                .map(|(_, k)| *k)
        })
    }

    /// Clears all recorded events and counters (capacity and epochs are
    /// kept).
    pub fn clear(&self) {
        if let Some(state) = &self.inner {
            let mut s = state.borrow_mut();
            s.rings.clear();
            s.counters.clear();
            s.overlap = None;
        }
    }

    /// Exports the recording as Chrome `trace_event` JSON (the
    /// `chrome://tracing` / Perfetto format). Deterministic: the same
    /// recording always serializes to the same bytes.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        chrome::export(self)
    }

    /// Renders the busy/idle counters as a plain-text table.
    #[must_use]
    pub fn counters_table(&self) -> String {
        report::counters_table(self)
    }

    /// Renders the recorded offload phases as a plain-text breakdown
    /// table (the paper's Fig. 4/5 time decomposition).
    #[must_use]
    pub fn phase_table(&self) -> String {
        report::phase_table(self)
    }

    /// Renders the pipelined-offload overlap counters as a plain-text
    /// table (busy time per resource, pairwise/triple concurrency).
    #[must_use]
    pub fn overlap_table(&self) -> String {
        report::overlap_table(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(Component::Core(0), EventKind::CoreRun, 0, 10);
        t.set_counter(Component::Core(0), 5, 10);
        t.advance_cluster_epoch(100);
        assert!(t.events().is_empty());
        assert!(t.counters().is_empty());
        assert_eq!(t.cluster_epoch(), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Tracer::default().is_enabled());
    }

    #[test]
    fn clones_share_the_recording() {
        let a = Tracer::enabled();
        let b = a.clone();
        b.emit(Component::Dma, EventKind::DmaBurst { bytes: 64 }, 5, 16);
        assert_eq!(a.events().len(), 1);
        assert_eq!(a.events()[0].component, Component::Dma);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let t = Tracer::with_capacity(4);
        for i in 0..10u64 {
            t.emit(Component::Tcdm, EventKind::BankConflict { bank: 0 }, i, 1);
        }
        let evs = t.events_of(Component::Tcdm);
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].start, 6, "oldest events dropped first");
        assert_eq!(t.dropped(), 6);
    }

    #[test]
    fn cluster_epoch_offsets_cluster_events_only() {
        let t = Tracer::enabled();
        t.emit(Component::Core(0), EventKind::CoreRun, 10, 5);
        t.advance_cluster_epoch(1000);
        t.emit(Component::Core(0), EventKind::CoreRun, 10, 5);
        t.emit(Component::Link, EventKind::FrameTx { bytes: 8 }, 10, 5);
        let core = t.events_of(Component::Core(0));
        assert_eq!(core[0].start, 10);
        assert_eq!(core[1].start, 1010);
        assert_eq!(
            t.events_of(Component::Link)[0].start,
            10,
            "link has no cluster epoch"
        );
    }

    #[test]
    fn host_epoch_offsets_host_events() {
        let t = Tracer::enabled();
        t.advance_host_epoch(500);
        t.emit(
            Component::Host,
            EventKind::Phase(PhaseKind::Compute),
            20,
            30,
        );
        t.emit(Component::Core(0), EventKind::CoreRun, 20, 30);
        assert_eq!(t.events_of(Component::Host)[0].start, 520);
        assert_eq!(t.events_of(Component::Core(0))[0].start, 20);
    }

    #[test]
    fn counters_overwrite_and_reconcile() {
        let t = Tracer::enabled();
        t.set_counter(Component::Core(1), 10, 100);
        t.set_counter(Component::Core(1), 80, 100);
        let c = t.counter(Component::Core(1)).unwrap();
        assert_eq!(c.busy, 80);
        assert_eq!(c.idle(), 20);
        assert_eq!(c.busy + c.idle(), c.total);
        assert!((c.utilization() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn counters_sorted_by_component() {
        let t = Tracer::enabled();
        t.set_counter(Component::Dma, 1, 2);
        t.set_counter(Component::Core(0), 1, 2);
        t.set_counter(Component::Tcdm, 1, 2);
        let order: Vec<Component> = t.counters().iter().map(|(c, _)| *c).collect();
        assert_eq!(
            order,
            vec![Component::Core(0), Component::Tcdm, Component::Dma]
        );
    }

    #[test]
    fn clear_keeps_epochs() {
        let t = Tracer::enabled();
        t.emit(Component::Host, EventKind::Watchdog, 1, 0);
        t.advance_cluster_epoch(77);
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.cluster_epoch(), 77);
    }

    #[test]
    fn zero_counter_utilization_is_zero() {
        assert_eq!(Counter::default().utilization(), 0.0);
        assert_eq!(Counter::default().idle(), 0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Component::Core(2).label(), "core2");
        assert_eq!(Component::ICache.label(), "icache");
        assert_eq!(PhaseKind::Input.name(), "inputs");
    }

    #[test]
    fn overlap_overwrites_and_clears() {
        let t = Tracer::enabled();
        assert!(t.overlap().is_none());
        t.set_overlap(Overlap {
            link_busy: 10,
            span: 20,
            ..Default::default()
        });
        t.set_overlap(Overlap {
            link_busy: 15,
            span: 30,
            ..Default::default()
        });
        assert_eq!(t.overlap().unwrap().link_busy, 15);
        t.clear();
        assert!(t.overlap().is_none());
    }

    #[test]
    fn overlap_on_disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        t.set_overlap(Overlap {
            span: 1,
            ..Default::default()
        });
        assert!(t.overlap().is_none());
    }

    #[test]
    fn overlap_check_accepts_consistent_counters() {
        let o = Overlap {
            link_busy: 100,
            dma_busy: 60,
            core_busy: 80,
            link_dma: 40,
            link_core: 50,
            dma_core: 30,
            triple: 20,
            span: 150,
            chunks: 12,
            engaged: true,
        };
        assert!(o.check().is_ok());
        assert_eq!(o.hidden_ns(), 40 + 50 + 30 - 20);
        assert!(o.any());
        assert!(!Overlap::default().any());
    }

    #[test]
    fn overlap_check_rejects_inconsistent_counters() {
        let pair_over_busy = Overlap {
            link_busy: 10,
            dma_busy: 10,
            link_dma: 11,
            span: 100,
            ..Default::default()
        };
        assert!(pair_over_busy.check().is_err());
        let triple_over_pair = Overlap {
            link_busy: 50,
            dma_busy: 50,
            core_busy: 50,
            link_dma: 10,
            link_core: 40,
            dma_core: 40,
            triple: 20,
            span: 100,
            ..Default::default()
        };
        assert!(triple_over_pair.check().is_err());
        let busy_over_span = Overlap {
            core_busy: 200,
            span: 100,
            ..Default::default()
        };
        assert!(busy_over_span.check().is_err());
    }
}
