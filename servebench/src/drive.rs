//! Set-up and the measured window: the benchmark's single thread drives the
//! engine through its public API and timestamps what comes back.

use std::sync::Arc;
use std::time::{Duration, Instant};

use xg_baselines::{ConstrainedBackend, XGrammarBackend};
use xg_core::{GrammarCacheStats, TagDispatchCacheStats};
use xg_engine::{
    ContinuousScheduler, EngineRequest, ExecutionMode, FinishedRequest, LaneConstraint,
    LlmBehavior, ModelProfile, SchedulerConfig, SchedulerMetrics, ServingEngine, StreamEvent,
    StreamingRequest,
};

use crate::workloads::{Kind, Plan, Workload, CLIENTS};

/// What the engine is built with. The benchmark uses [`Settings::BENCH`];
/// the self-tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub vocab_size: usize,
    pub time_scale: f64,
}

impl Settings {
    pub const BENCH: Settings = Settings {
        vocab_size: 32_000,
        time_scale: 1.0,
    };

    pub fn profile(&self) -> ModelProfile {
        ModelProfile::llama31_8b_h100().scaled(self.time_scale)
    }
}

/// The simulated model follows its reference without injected errors, as
/// in `xg_bench::measure_mask_generation`. With the default injection, a
/// Python-DSL lane whose intention ends inside an unclosed string never
/// proposes a way out and runs to its token cap.
pub fn model() -> LlmBehavior {
    LlmBehavior {
        prose_probability: 0.0,
        type_error_probability: 0.0,
        ..LlmBehavior::default()
    }
}

/// One compile the benchmark made during set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupCompile {
    pub kind: Kind,
    pub time: Duration,
}

/// A set-up engine, ready for the measured window.
pub struct System {
    pub backend: Arc<XGrammarBackend>,
    pub engine: ServingEngine,
    pub scheduler: ContinuousScheduler,
    pub setup_time: Duration,
    pub compiles: Vec<SetupCompile>,
}

/// Builds the vocabulary, backend, engine and scheduler and compiles
/// everything the plan marks for set-up. The returned time covers all of it.
pub fn set_up(plan: &Plan, settings: &Settings) -> Result<System, String> {
    let start = Instant::now();
    let vocab = xg_bench::bench_vocabulary(settings.vocab_size);
    let backend = Arc::new(XGrammarBackend::new(vocab));
    let shared: Arc<dyn ConstrainedBackend> = backend.clone();
    let engine = ServingEngine::with_llm_behavior(
        shared,
        settings.profile(),
        ExecutionMode::Overlapped,
        model(),
    );
    let mut compiles = Vec::new();
    for entry in plan.grammars.iter().filter(|g| g.precompiled) {
        let begin = Instant::now();
        backend
            .compile(&entry.grammar)
            .map_err(|e| format!("set-up compile of a {} grammar: {e}", entry.kind.name()))?;
        compiles.push(SetupCompile {
            kind: entry.kind,
            time: begin.elapsed(),
        });
    }
    for session in &plan.sessions {
        let begin = Instant::now();
        backend
            .compile_structural(&session.initial)
            .map_err(|e| format!("set-up compile of a tool catalog: {e}"))?;
        compiles.push(SetupCompile {
            kind: Kind::Tag,
            time: begin.elapsed(),
        });
    }
    let scheduler = engine.serve(SchedulerConfig {
        admission_workers: 1,
        mask_workers: 1,
        ..SchedulerConfig::default()
    });
    Ok(System {
        backend,
        engine,
        scheduler,
        setup_time: start.elapsed(),
        compiles,
    })
}

/// A request-lifecycle point stamped by the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamp {
    Admitted,
    FirstBytes,
    Finished,
    Failed,
}

/// What happened to one request of the plan.
#[derive(Debug)]
pub struct Outcome {
    /// When the request was due (open loop) or submitted (closed loop):
    /// TTFT counts from here.
    pub origin: Instant,
    /// When the client began the request: the registry update of an agent
    /// turn, the due time in the open loop, else the submit.
    pub turn_start: Instant,
    pub submitted: Instant,
    /// Wall time of the turn's registry update, if it had one.
    pub update_time: Option<Duration>,
    /// A failure found before the request reached the engine.
    pub client_error: Option<String>,
    pub result: Result<FinishedRequest, String>,
    /// Lifecycle stamps, recorded only in the traced run.
    pub stamps: Vec<(Stamp, Instant)>,
}

impl Outcome {
    /// The finished request, when nothing failed on the way.
    pub fn finished(&self) -> Option<&FinishedRequest> {
        match (&self.client_error, &self.result) {
            (None, Ok(done)) if done.result.completed => Some(done),
            _ => None,
        }
    }

    /// Why the request failed, if it did (before any output check).
    pub fn failure(&self) -> Option<String> {
        if let Some(e) = &self.client_error {
            return Some(e.clone());
        }
        match &self.result {
            Err(e) => Some(e.clone()),
            Ok(done) if !done.result.completed => Some(format!(
                "lane ended uncompleted after {} sampled and {} forced tokens",
                done.result.tokens, done.result.jump_forward_tokens
            )),
            Ok(_) => None,
        }
    }
}

/// Counter snapshots around the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub grammar_cache: GrammarCacheStats,
    pub dispatch_cache: TagDispatchCacheStats,
}

impl Snapshot {
    fn take(backend: &XGrammarBackend) -> Snapshot {
        Snapshot {
            grammar_cache: backend.cache_stats().unwrap_or_default(),
            dispatch_cache: backend.compiler().dispatch_cache().stats(),
        }
    }
}

/// The result of one measured window.
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    /// One outcome per plan request, in plan order.
    pub outcomes: Vec<Outcome>,
    pub scheduler: SchedulerMetrics,
    pub before: Snapshot,
    pub after: Snapshot,
    pub max_lateness: Duration,
}

impl Window {
    pub fn wall(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// A request in flight: its stream handle and the outcome being filled in.
struct InFlight {
    index: usize,
    handle: StreamingRequest,
    outcome: Outcome,
}

/// Requests in flight on the benchmark thread, polled without blocking.
struct Flights {
    live: Vec<InFlight>,
    done: Vec<Option<Outcome>>,
    trace: bool,
    last_finish: Instant,
}

impl Flights {
    fn new(count: usize, trace: bool) -> Flights {
        Flights {
            live: Vec::new(),
            done: (0..count).map(|_| None).collect(),
            trace,
            last_finish: Instant::now(),
        }
    }

    /// Submits `request`. TTFT counts from `due` in the open loop and from
    /// the submit in the closed loops.
    fn submit(
        &mut self,
        system: &System,
        index: usize,
        request: EngineRequest,
        mut outcome: Outcome,
        due: Option<Instant>,
    ) {
        outcome.submitted = Instant::now();
        outcome.origin = due.unwrap_or(outcome.submitted);
        match system.scheduler.submit(request) {
            Ok(handle) => self.live.push(InFlight {
                index,
                handle,
                outcome,
            }),
            Err(e) => {
                outcome.result = Err(format!("submit: {e}"));
                self.finish(index, outcome);
            }
        }
    }

    fn finish(&mut self, index: usize, outcome: Outcome) {
        self.last_finish = Instant::now();
        self.done[index] = Some(outcome);
    }

    /// Drains every queued event; returns how many requests finished.
    fn poll(&mut self) -> usize {
        let mut finished = 0;
        let mut i = 0;
        while i < self.live.len() {
            let mut terminal = false;
            while let Some(event) = self.live[i].handle.try_next_event() {
                let now = Instant::now();
                let flight = &mut self.live[i];
                let stamp = match event {
                    StreamEvent::Admitted { .. } => Stamp::Admitted,
                    StreamEvent::Bytes(_) => Stamp::FirstBytes,
                    StreamEvent::Finished { result, timing } => {
                        flight.outcome.result = Ok(FinishedRequest { result, timing });
                        terminal = true;
                        Stamp::Finished
                    }
                    StreamEvent::Failed(e) => {
                        flight.outcome.result = Err(format!("admission: {e}"));
                        terminal = true;
                        Stamp::Failed
                    }
                };
                let first = !flight.outcome.stamps.iter().any(|(s, _)| *s == stamp);
                if self.trace && first {
                    flight.outcome.stamps.push((stamp, now));
                }
                if terminal {
                    break;
                }
            }
            if terminal {
                let flight = self.live.swap_remove(i);
                self.finish(flight.index, flight.outcome);
                finished += 1;
            } else {
                i += 1;
            }
        }
        finished
    }

    /// Polls until nothing is in flight or `deadline` passes.
    fn drain(&mut self, deadline: Instant) -> Result<(), String> {
        while !self.live.is_empty() {
            if self.poll() == 0 {
                if Instant::now() > deadline {
                    return Err(format!(
                        "{} requests still in flight at the deadline",
                        self.live.len()
                    ));
                }
                std::thread::sleep(POLL);
            }
        }
        Ok(())
    }
}

/// Polling interval of the closed loops and of the traced open loop. Polls
/// only find finished requests and stamp traced events; engine timings come
/// from the engine's own `LaneTiming`. A coarser interval would delay the
/// next closed-loop submit, a finer one would take CPU from the engine on a
/// 2-core machine.
const POLL: Duration = Duration::from_millis(1);

fn outcome(origin: Instant) -> Outcome {
    Outcome {
        origin,
        turn_start: origin,
        submitted: origin,
        update_time: None,
        client_error: None,
        result: Err("never finished".into()),
        stamps: Vec::new(),
    }
}

fn engine_request(plan: &Plan, index: usize, constraint: LaneConstraint) -> EngineRequest {
    let req = &plan.requests[index];
    EngineRequest {
        constraint,
        prompt_tokens: req.prompt_tokens,
        reference: req.reference.clone(),
        max_tokens: req.max_tokens,
        seed: req.seed,
    }
}

/// Runs the plan's requests through `system` and collects their outcomes.
/// `deadline` bounds the whole window; requests still in flight then are an
/// error.
pub fn run_window(
    plan: &Plan,
    system: &System,
    trace: bool,
    deadline: Instant,
) -> Result<Window, String> {
    let before = Snapshot::take(&system.backend);
    let start = Instant::now();
    let mut flights = Flights::new(plan.requests.len(), trace);
    let mut max_lateness = Duration::ZERO;
    match plan.workload {
        Workload::SchemaServe => {
            for (index, req) in plan.requests.iter().enumerate() {
                let due = start + req.due;
                wait_until(due, &mut flights);
                max_lateness = max_lateness.max(Instant::now().saturating_duration_since(due));
                let mut out = outcome(due);
                let entry = &plan.grammars[req.grammar.expect("schema lanes carry a grammar")];
                let grammar = match &entry.schema {
                    Some(schema) => xg_grammar::json_schema_to_grammar(schema),
                    None => Ok(entry.grammar.clone()),
                };
                match grammar {
                    Ok(grammar) => {
                        let request = engine_request(plan, index, LaneConstraint::Grammar(grammar));
                        flights.submit(system, index, request, out, Some(due));
                    }
                    Err(e) => {
                        out.client_error = Some(format!("schema conversion: {e}"));
                        flights.finish(index, out);
                    }
                }
            }
            flights.drain(deadline)?;
        }
        Workload::CfgMix => {
            let mut next = 0;
            let submit_next = |flights: &mut Flights, next: &mut usize| {
                let index = *next;
                *next += 1;
                let grammar = plan.grammars[plan.requests[index]
                    .grammar
                    .expect("cfg lanes carry a grammar")]
                .grammar
                .clone();
                let request = engine_request(plan, index, LaneConstraint::Grammar(grammar));
                flights.submit(system, index, request, outcome(Instant::now()), None);
            };
            while next < plan.requests.len().min(CLIENTS) {
                submit_next(&mut flights, &mut next);
            }
            while !flights.live.is_empty() {
                let finished = flights.poll();
                for _ in 0..finished {
                    if next < plan.requests.len() {
                        submit_next(&mut flights, &mut next);
                    }
                }
                if finished == 0 {
                    if Instant::now() > deadline {
                        return Err("cfg_mix did not finish before the deadline".into());
                    }
                    std::thread::sleep(POLL);
                }
            }
        }
        Workload::AgentTools => {
            let mut live: Vec<_> = plan.sessions.iter().map(|s| s.initial.clone()).collect();
            let turns = plan.sessions.first().map_or(0, |s| s.turns.len());
            for turn in 0..turns {
                for (s, session) in plan.sessions.iter().enumerate() {
                    let index = turn * plan.sessions.len() + s;
                    debug_assert_eq!(plan.requests[index].turn, Some((s, turn)));
                    let step = &session.turns[turn];
                    let turn_start = Instant::now();
                    let mut out = outcome(turn_start);
                    if let Some(delta) = &step.delta {
                        match system.engine.update_tool_registry(&live[s], delta) {
                            Ok(next) if next == step.catalog => live[s] = next,
                            Ok(_) => {
                                out.client_error =
                                    Some("registry update diverged from the catalog".into());
                                live[s] = step.catalog.clone();
                            }
                            Err(e) => {
                                out.client_error = Some(format!("registry update: {e}"));
                                live[s] = step.catalog.clone();
                            }
                        }
                        out.update_time = Some(turn_start.elapsed());
                    }
                    let request =
                        engine_request(plan, index, LaneConstraint::StructuralTag(live[s].clone()));
                    flights.submit(system, index, request, out, None);
                }
                flights.drain(deadline)?;
            }
        }
    }
    let end = flights.last_finish;
    let outcomes = flights
        .done
        .into_iter()
        .map(|o| o.expect("every request finished"))
        .collect();
    Ok(Window {
        start,
        end,
        outcomes,
        scheduler: system.scheduler.metrics(),
        before,
        after: Snapshot::take(&system.backend),
        max_lateness,
    })
}

/// Waits for an open-loop due time: sleeps while it is far, spins the last
/// stretch, and in the traced run polls the in-flight requests meanwhile.
fn wait_until(due: Instant, flights: &mut Flights) {
    loop {
        if flights.trace {
            flights.poll();
        }
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_millis(2) {
            let nap = left - Duration::from_millis(1);
            std::thread::sleep(if flights.trace { nap.min(POLL) } else { nap });
        } else {
            std::hint::spin_loop();
        }
    }
}
