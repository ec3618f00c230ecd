//! The closed serving loop: set-up with warm-up, the timed run, and the
//! correctness ledger.
//!
//! Each tick every stream renders one frame (outside any timed region),
//! the frames are offered through [`PerceptionServer::ingest`], and one
//! [`PerceptionServer::process_step_stats`] serves them. Batch caps are at
//! least the frames offered per tick, so a step serves exactly that
//! tick's frames and no backlog builds up; any frame left queued, dropped
//! or rejected is a correctness failure.

use crate::spans::SpanLog;
use crate::workload::{serving_model, Workload};
use ecofusion_core::{Frame, InferenceOptions};
use ecofusion_harness::digest::{absorb_stream, format_digest, Fnv1a};
use ecofusion_runtime::{IngestOutcome, PerceptionServer, RuntimeConfig, StepStats, VehicleStream};
use std::time::Instant;

/// Warm-up ticks whose selections the digest covers. Fixed, so the digest
/// of a seed never depends on how fast the host is. Long enough for a
/// budget-starved stream to climb every rung of its ladder (four moves,
/// each proven over a 16-frame window), so the int8 image is built.
pub const CHECK_TICKS: u64 = 96;
/// Warm-up ticks per set-up. Fixed rather than "until no plan compiles",
/// so `setup_s` measures the same work on every run: on these workloads
/// the bulk of the fused plans compiles in the first ~70 ticks, but a
/// 32-stream fleet keeps meeting a new branch sub-batch shape every few
/// dozen ticks for hundreds of ticks (`core.plan_compiles_timed` reports
/// what reaches the timed window).
pub const WARM_TICKS: u64 = 128;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// What one tick did, as seen from outside the server.
pub struct TickOut {
    /// Wall time of each `ingest` call, ns, in stream order.
    pub ingest_ns: Vec<u64>,
    /// Wall time of the `process_step_stats` call, ns.
    pub step_ns: u64,
    /// The step's scheduler stats.
    pub stats: StepStats,
    /// Copies of the offered frames (only when requested).
    pub frames: Vec<Frame>,
    /// Each stream's options just before the step (only when frames were
    /// requested).
    pub opts_before: Vec<InferenceOptions>,
    /// Index of the tick span in the span log, if spans are recorded.
    pub span: Option<u32>,
}

impl TickOut {
    /// Wall time spent inside server calls this tick, ns.
    pub fn server_ns(&self) -> u64 {
        self.ingest_ns.iter().sum::<u64>() + self.step_ns
    }
}

/// Cumulative per-run counters read from the server's telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub frames: u64,
    pub gated_j: f64,
    pub latency_ms: f64,
    pub int8_frames: u64,
    pub stems_executed: u64,
    pub stems_skipped: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Totals {
    /// Reads the counters of every stream.
    pub fn of(server: &PerceptionServer) -> Totals {
        let mut t = Totals::default();
        for i in 0..server.num_streams() {
            let tel = server.telemetry(i);
            t.frames += tel.frames();
            t.gated_j += tel.total_gated_j();
            t.latency_ms += tel.stage_latency_ms().iter().sum::<f64>();
            t.int8_frames += tel.int8_frames();
            t.stems_executed += tel.stems_executed();
            t.stems_skipped += tel.stems_skipped();
            t.cache_hits += server.stem_cache(i).hits();
            t.cache_misses += server.stem_cache(i).misses();
        }
        t
    }

    /// Counter deltas `self − before`.
    pub fn since(&self, before: &Totals) -> Totals {
        Totals {
            frames: self.frames - before.frames,
            gated_j: self.gated_j - before.gated_j,
            latency_ms: self.latency_ms - before.latency_ms,
            int8_frames: self.int8_frames - before.int8_frames,
            stems_executed: self.stems_executed - before.stems_executed,
            stems_skipped: self.stems_skipped - before.stems_skipped,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
        }
    }
}

/// Frame conservation: every offered frame was processed, dropped by
/// backpressure, or rejected at ingest. Returns the violation otherwise.
pub fn check_conservation(
    offered: u64,
    processed: u64,
    dropped: u64,
    rejected: u64,
) -> Result<(), String> {
    if offered == processed + dropped + rejected {
        Ok(())
    } else {
        Err(format!(
            "frame conservation broken: offered {offered} != processed {processed} + dropped \
             {dropped} + rejected {rejected}"
        ))
    }
}

/// The server's own count of processed, dropped and rejected frames.
pub fn server_ledger(server: &PerceptionServer) -> (u64, u64, u64) {
    let report = server.report();
    let dropped = report.per_stream.iter().map(|s| s.dropped).sum();
    let rejected = report.per_stream.iter().map(|s| s.stalls + s.rejected_malformed).sum();
    (report.frames, dropped, rejected)
}

/// A workload's server and frame sources, plus what the run has offered
/// and every correctness problem seen so far.
pub struct ClosedLoop {
    pub workload: Workload,
    pub server: PerceptionServer,
    streams: Vec<VehicleStream>,
    /// Frames offered through `ingest` so far.
    pub offered: u64,
    /// Wall time of each `VehicleStream::next_frame` call, ns.
    pub gen_ns: Vec<u64>,
    /// Correctness problems (empty on a correct run).
    pub problems: Vec<String>,
}

/// What one set-up did.
pub struct Setup {
    /// Model build + server construction + warm-up, s (frame generation
    /// excluded).
    pub seconds: f64,
    /// Selection digest over the first [`CHECK_TICKS`] ticks.
    pub digest: String,
}

impl ClosedLoop {
    /// Builds the model, the server and the streams, then warms up for
    /// [`WARM_TICKS`] ticks so the lazy builds (fused plans per shape, the
    /// int8 image) happen before timing starts.
    pub fn setup(workload: &Workload) -> (ClosedLoop, Setup) {
        let t = Instant::now();
        let model = serving_model();
        let specs: Vec<_> = workload.streams.iter().map(|s| s.spec).collect();
        let cfg = RuntimeConfig { max_batch: workload.max_batch, ..RuntimeConfig::default() }
            .with_shards(workload.shards);
        let server = PerceptionServer::new(model, &specs, cfg);
        let mut setup_ns = ns_since(t);
        let streams = workload
            .streams
            .iter()
            .map(|s| {
                let v = VehicleStream::new(s.spec);
                match &s.faults {
                    Some(f) => v.with_faults(f.clone()),
                    None => v,
                }
            })
            .collect();
        let mut lp = ClosedLoop {
            workload: workload.clone(),
            server,
            streams,
            offered: 0,
            gen_ns: Vec::new(),
            problems: Vec::new(),
        };
        let mut digest = String::new();
        for tick in 1..=WARM_TICKS {
            setup_ns += lp.tick(false, None).server_ns();
            if tick == CHECK_TICKS {
                digest = lp.digest();
            }
        }
        (lp, Setup { seconds: setup_ns as f64 / 1e9, digest })
    }

    /// The harness selection digest over every stream's telemetry.
    pub fn digest(&self) -> String {
        let mut d = Fnv1a::default();
        for i in 0..self.server.num_streams() {
            absorb_stream(&mut d, &self.server, i);
        }
        format_digest(&d)
    }

    /// Records a correctness problem (the first few are kept verbatim).
    pub fn problem(&mut self, msg: String) {
        const KEEP: usize = 8;
        if self.problems.len() < KEEP {
            self.problems.push(msg);
        }
    }

    /// One closed-loop tick: render a frame per stream (untimed), offer
    /// each through `ingest` and serve them with one step (both timed).
    /// With `keep`, copies of the frames and the pre-step options are
    /// returned for replay; with `spans`, every server call is recorded.
    pub fn tick(&mut self, keep: bool, mut spans: Option<&mut SpanLog>) -> TickOut {
        let n = self.streams.len();
        let step_id = self.server.tick();
        let mut frames = Vec::with_capacity(n);
        for s in &mut self.streams {
            let t = Instant::now();
            let f = s.next_frame();
            self.gen_ns.push(ns_since(t));
            frames.push(f);
        }
        let (kept, opts_before) = if keep {
            (frames.clone(), (0..n).map(|i| self.server.stream_options(i)).collect())
        } else {
            (Vec::new(), Vec::new())
        };
        let span = spans.as_deref_mut().map(|s| s.open("tick", None, step_id));
        let mut ingest_ns = Vec::with_capacity(n);
        for (i, f) in frames.into_iter().enumerate() {
            let t = Instant::now();
            let outcome = self.server.ingest(i, f);
            ingest_ns.push(ns_since(t));
            if let Some(s) = spans.as_deref_mut() {
                s.record("ingest", span, step_id, t, ingest_ns[i]);
            }
            self.offered += 1;
            if outcome != IngestOutcome::Enqueued {
                self.problem(format!("tick {step_id}: stream {i} ingest returned {outcome:?}"));
            }
        }
        let t = Instant::now();
        let result = self.server.process_step_stats();
        let step_ns = ns_since(t);
        if let Some(s) = spans.as_deref_mut() {
            s.record("process_step_stats", span, step_id, t, step_ns);
        }
        let stats = match result {
            Ok(stats) => stats,
            Err(e) => {
                self.problem(format!("tick {step_id}: inference error {e}"));
                StepStats::default()
            }
        };
        if stats.frames != n || stats.queued_after != 0 {
            self.problem(format!(
                "tick {step_id}: step served {} of {n} frames, {} left queued",
                stats.frames, stats.queued_after
            ));
        }
        self.server.advance_tick();
        if let (Some(s), Some(id)) = (spans, span) {
            s.close(id);
        }
        TickOut { ingest_ns, step_ns, stats, frames: kept, opts_before, span }
    }

    /// Runs the final drain (timed). In a backlog-free loop it serves no
    /// frame; any it does serve is a backlog problem.
    pub fn drain(&mut self, spans: Option<&mut SpanLog>) -> u64 {
        let t = Instant::now();
        let result = self.server.drain();
        let ns = ns_since(t);
        if let Some(s) = spans {
            s.record("drain", None, self.server.tick(), t, ns);
        }
        match result {
            Ok(0) => {}
            Ok(n) => self.problem(format!("drain served {n} backlogged frames")),
            Err(e) => self.problem(format!("drain: inference error {e}")),
        }
        ns
    }

    /// Checks frame conservation against the server's own ledger.
    pub fn check_ledger(&mut self) {
        let (processed, dropped, rejected) = server_ledger(&self.server);
        if let Err(e) = check_conservation(self.offered, processed, dropped, rejected) {
            self.problem(e);
        }
        if processed != self.offered {
            self.problem(format!("offered {} frames but processed {processed}", self.offered));
        }
    }
}

/// The timed (untraced) part of a run.
pub struct Timed {
    /// Frames served inside the timed window.
    pub frames: u64,
    /// Wall time inside server calls (ingest, steps, final drain), ns.
    pub server_ns: u64,
    /// Wall time of every step, ms.
    pub step_ms: Vec<f64>,
    /// Telemetry deltas over the window.
    pub totals: Totals,
}

impl Timed {
    /// Frames per second of server time.
    pub fn frames_per_s(&self) -> f64 {
        self.frames as f64 / (self.server_ns as f64 / 1e9)
    }
}

/// Runs ticks until `seconds` of wall time have passed and at least
/// `min_steps` steps were timed, then drains.
pub fn timed_run(lp: &mut ClosedLoop, seconds: f64, min_steps: usize) -> Timed {
    let start = Instant::now();
    run_ticks(lp, |steps| start.elapsed().as_secs_f64() < seconds || steps < min_steps).0
}

/// Runs ticks while `more(steps so far)` holds, then drains. Also returns
/// the server time of every tick and of the drain, ns.
fn run_ticks(lp: &mut ClosedLoop, mut more: impl FnMut(usize) -> bool) -> (Timed, Vec<u64>, u64) {
    let before = Totals::of(&lp.server);
    let mut frames = 0;
    let mut step_ms = Vec::new();
    let mut tick_ns = Vec::new();
    while more(step_ms.len()) {
        let out = lp.tick(false, None);
        tick_ns.push(out.server_ns());
        frames += out.stats.frames as u64;
        step_ms.push(out.step_ns as f64 / 1e6);
    }
    let drain_ns = lp.drain(None);
    let server_ns = tick_ns.iter().sum::<u64>() + drain_ns;
    let totals = Totals::of(&lp.server).since(&before);
    (Timed { frames, server_ns, step_ms, totals }, tick_ns, drain_ns)
}

/// The timed window of an untraced run, as passes over one tick sequence.
///
/// The loops must be set-ups of one workload and seed, so they are in the
/// same state and every pass serves the same frames with the same work.
/// The first pass runs for `seconds / passes` of wall time (and at least
/// `min_steps` steps); every later pass runs as many ticks, one pass after
/// the other. The server time of each tick (and of the final drain) is
/// the fastest of its passes, so a stretch of the run slowed by other
/// tenants of the host counts only when every pass of those ticks was
/// slowed. `step_ms` pools the step times of every pass as measured: a
/// tail percentile needs the slow steps. Passes that disagree on what
/// they served are a correctness problem.
pub fn timed_passes(loops: &mut [ClosedLoop], seconds: f64, min_steps: usize) -> Timed {
    let share = seconds / loops.len() as f64;
    let (first, rest) = loops.split_first_mut().expect("at least one pass");
    let start = Instant::now();
    let (mut best, mut tick_ns, mut drain_ns) =
        run_ticks(first, |steps| start.elapsed().as_secs_f64() < share || steps < min_steps);
    let ticks = tick_ns.len();
    let digest = first.digest();
    for lp in rest {
        let (run, ns, drain) = run_ticks(lp, |steps| steps < ticks);
        if run.frames != best.frames || run.totals.frames != best.totals.frames {
            lp.problem(format!(
                "passes over the same ticks served {} and {} frames",
                best.frames, run.frames
            ));
        }
        if lp.digest() != digest {
            lp.problem(format!(
                "passes over the same ticks end on digests {digest} and {}",
                lp.digest()
            ));
        }
        for (b, t) in tick_ns.iter_mut().zip(ns) {
            *b = (*b).min(t);
        }
        best.step_ms.extend(run.step_ms);
        drain_ns = drain_ns.min(drain);
    }
    best.server_ns = tick_ns.iter().sum::<u64>() + drain_ns;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::GRID;
    use ecofusion_runtime::{BackpressurePolicy, StreamSpec};

    #[test]
    fn conservation_arithmetic() {
        assert!(check_conservation(10, 10, 0, 0).is_ok());
        assert!(check_conservation(10, 7, 2, 1).is_ok());
        assert!(check_conservation(10, 9, 0, 0).is_err());
    }

    #[test]
    fn passes_serve_the_same_ticks() {
        let wl = crate::workload::build(crate::workload::WorkloadId::LadderFaults, 5);
        let mut loops: Vec<ClosedLoop> = (0..2).map(|_| ClosedLoop::setup(&wl).0).collect();
        let run = timed_passes(&mut loops, 0.0, 12);
        // Every pass ran the first pass's 12 ticks, so the pooled step
        // times hold both passes and the passes agree on what they served.
        assert_eq!(run.step_ms.len(), 24);
        assert_eq!(run.frames, 12 * wl.frames_per_tick() as u64);
        for lp in &mut loops {
            lp.check_ledger();
            assert!(lp.problems.is_empty(), "{:?}", lp.problems);
        }
        assert_eq!(loops[0].digest(), loops[1].digest());
        assert!(run.server_ns > 0);
    }

    #[test]
    fn conservation_catches_a_synthetic_drop() {
        let model = serving_model();
        let spec = StreamSpec::new(3, GRID).with_queue(1, BackpressurePolicy::DropOldest);
        let mut server =
            PerceptionServer::new(model, &[spec], RuntimeConfig::default().with_shards(1));
        let mut stream = VehicleStream::new(spec);
        // Two frames into a one-deep drop-oldest queue: the server drops
        // one and accounts for it, so the ledger still balances.
        assert_eq!(server.ingest(0, stream.next_frame()), IngestOutcome::Enqueued);
        assert_eq!(server.ingest(0, stream.next_frame()), IngestOutcome::DroppedOldest);
        server.drain().unwrap();
        let (processed, dropped, rejected) = server_ledger(&server);
        assert_eq!((processed, dropped, rejected), (1, 1, 0));
        assert!(check_conservation(2, processed, dropped, rejected).is_ok());
        // A frame offered but lost before it reached the server (the
        // synthetic drop) is caught.
        let _lost = stream.next_frame();
        assert!(check_conservation(3, processed, dropped, rejected).is_err());
    }
}
