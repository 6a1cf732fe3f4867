//! The traced run: spans recorded in the benchmark's own code, the layer
//! replay, and the per-layer metrics computed from both.
//!
//! Request spans come from the stream events of the traced window. Layer
//! spans come from replaying the window's requests on the benchmark thread
//! through the layers' public calls, the way `xg_bench`'s mask-generation
//! measurement drives a session. The replay must reproduce every output of
//! the window byte for byte.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use xg_baselines::ConstrainedBackend;
use xg_core::{ConstraintFactory, ConstraintMatcher, GrammarMatcher, TokenBitmask};
use xg_engine::SimulatedLlm;
use xg_tokenizer::{SortedVocabulary, Vocabulary};

use crate::drive::{Stamp, System, Window};
use crate::manifest::{STACK_KINDS, TAIL};
use crate::oracle::{inside_segment, Oracle};
use crate::report::{ms, Reported};
use crate::stats::percentile;
use crate::workloads::{Kind, Plan, Request, Workload};

/// Requests of each grammar family the layer replay drives.
const REPLAY_PER_KIND: usize = 12;

/// One timed interval. Spans of one request share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub kind: Option<Kind>,
    pub request: Option<usize>,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    fn us(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64() * 1e6
    }
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn push(
        &mut self,
        name: &'static str,
        kind: Option<Kind>,
        request: Option<usize>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            kind,
            request,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    fn time<T>(
        &mut self,
        name: &'static str,
        kind: Option<Kind>,
        request: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.push(name, kind, request, parent, start, Instant::now());
        value
    }

    /// Durations in µs of the spans called `name` (of `kind`, when given).
    fn us(&self, name: &str, kind: Option<Kind>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (kind.is_none() || s.kind == kind))
            .map(Span::us)
            .collect()
    }

    /// Records the set-up compiles of `system` under one `setup` span.
    pub fn record_setup(&mut self, system: &System, setup_start: Instant) {
        let root = self.push(
            "setup",
            None,
            None,
            None,
            setup_start,
            setup_start + system.setup_time,
        );
        let mut at = setup_start;
        for compile in &system.compiles {
            // Compiles ran back to back; their exact starts are not kept.
            self.push(
                "setup.compile",
                Some(compile.kind),
                None,
                Some(root),
                at,
                at + compile.time,
            );
            at += compile.time;
        }
    }

    /// Request spans of the traced window, from the stamped stream events.
    pub fn record_window(&mut self, plan: &Plan, window: &Window) {
        for (i, (req, outcome)) in plan.requests.iter().zip(&window.outcomes).enumerate() {
            let kind = Some(req.kind(plan));
            let stamp = |which: Stamp| {
                outcome
                    .stamps
                    .iter()
                    .find(|(s, _)| *s == which)
                    .map(|(_, at)| *at)
            };
            let end = stamp(Stamp::Finished)
                .or(stamp(Stamp::Failed))
                .unwrap_or(outcome.submitted);
            let root = self.push("request", kind, Some(i), None, outcome.turn_start, end);
            if let Some(update) = outcome.update_time {
                let start = outcome.turn_start;
                self.push(
                    "client.registry_update",
                    kind,
                    Some(i),
                    Some(root),
                    start,
                    start + update,
                );
            }
            if let Some(admitted) = stamp(Stamp::Admitted) {
                self.push(
                    "request.queue",
                    kind,
                    Some(i),
                    Some(root),
                    outcome.submitted,
                    admitted,
                );
            }
            if let Some(first) = stamp(Stamp::FirstBytes) {
                self.push(
                    "request.first_bytes",
                    kind,
                    Some(i),
                    Some(root),
                    outcome.origin,
                    first,
                );
                self.push("request.decode", kind, Some(i), Some(root), first, end);
            }
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let ns = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos();
        for (id, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"kind\": {}, \"request\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.name,
                span.kind.map_or("null".into(), |k| format!("\"{}\"", k.name())),
                span.request.map_or("null".into(), |r| r.to_string()),
                span.parent.map_or("null".into(), |p| p.to_string()),
                ns(span.start),
                ns(span.end),
            )?;
        }
        out.flush()
    }
}

/// What the layer replay found besides its spans.
#[derive(Default)]
pub struct Replay {
    pub stack_counts: BTreeMap<Kind, Vec<f64>>,
    /// Requests whose replayed output differs from the window's.
    pub mismatches: Vec<usize>,
    pub replayed: usize,
}

/// Replays the window's requests and the plan's replay-only requests
/// through the layers' public calls on the benchmark thread.
pub fn replay(
    plan: &Plan,
    system: &System,
    window: &Window,
    tracer: &mut Tracer,
    oracle: &mut Oracle,
) -> Result<Replay, String> {
    let backend = &system.backend;
    let vocab = Arc::clone(backend.vocabulary());
    let sorted = SortedVocabulary::new(&vocab);
    let llm = SimulatedLlm::new(Arc::clone(&vocab), crate::drive::model());
    let mut replay = Replay::default();
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // Registry deltas of the agent sessions, turn by turn.
    for session in &plan.sessions {
        let mut live = session.initial.clone();
        for turn in &session.turns {
            let Some(delta) = &turn.delta else { continue };
            let next = tracer
                .time("grammar.apply_delta", Some(Kind::Tag), None, None, || {
                    live.apply_delta(delta)
                })
                .map_err(|e| err(&e))?;
            tracer
                .time(
                    "compiler.update_structural",
                    Some(Kind::Tag),
                    None,
                    None,
                    || backend.update_structural(&live, delta),
                )
                .map_err(|e| err(&e))?;
            live = next;
        }
    }

    // Every request converts and compiles (cheap: the window left them
    // cached); the first few of each family also decode.
    let mut per_kind: BTreeMap<Kind, usize> = BTreeMap::new();
    for (i, req) in plan.requests.iter().chain(&plan.replay_only).enumerate() {
        let kind = req.kind(plan);
        let decoded = per_kind.entry(kind).or_default();
        let decode = *decoded < REPLAY_PER_KIND;
        *decoded += usize::from(decode);
        let start = Instant::now();
        let root = tracer.push("replay.request", Some(kind), Some(i), None, start, start);
        let mut lane = ReplayLane {
            vocab: &vocab,
            sorted: &sorted,
            tracer: &mut *tracer,
            kind,
            request: i,
            parent: root,
        };
        let output = match (req.grammar, req.turn) {
            (Some(g), _) => {
                let entry = &plan.grammars[g];
                let grammar = match &entry.schema {
                    Some(schema) => lane
                        .tracer
                        .time(
                            "grammar.schema_convert",
                            Some(kind),
                            Some(i),
                            Some(root),
                            || xg_grammar::json_schema_to_grammar(schema),
                        )
                        .map_err(|e| err(&e))?,
                    None => entry.grammar.clone(),
                };
                lane.tracer
                    .time("compiler.compile", Some(kind), Some(i), Some(root), || {
                        backend.compile(&grammar)
                    })
                    .map_err(|e| err(&e))?;
                if decode {
                    let compiled = backend
                        .compiler()
                        .compile_grammar_checked(&grammar)
                        .map_err(|e| err(&e))?;
                    let mut matcher = GrammarMatcher::new(compiled);
                    let stacks = replay.stack_counts.entry(kind).or_default();
                    let count_stacks = |m: &GrammarMatcher| stacks.push(m.stack_count() as f64);
                    Some(lane.drive(&llm, req, &mut matcher, count_stacks, |_| false))
                } else {
                    None
                }
            }
            (None, Some(turn)) => {
                let catalog = plan.catalog(turn);
                lane.tracer
                    .time(
                        "compiler.compile_structural",
                        Some(kind),
                        Some(i),
                        Some(root),
                        || backend.compile_structural(catalog),
                    )
                    .map_err(|e| err(&e))?;
                if decode {
                    let dispatch = backend
                        .compiler()
                        .compile_tag_dispatch(catalog)
                        .map_err(|e| err(&e))?;
                    let mut matcher = dispatch.new_matcher(xg_core::DEFAULT_MAX_ROLLBACK_TOKENS);
                    let in_segment = |out: &[u8]| inside_segment(catalog, out);
                    Some(lane.drive(&llm, req, matcher.as_mut(), |_| {}, in_segment))
                } else {
                    None
                }
            }
            (None, None) => return Err("request has no constraint".into()),
        };
        tracer.spans[root].end = Instant::now();
        let Some(output) = output else { continue };
        replay.replayed += 1;
        let expected = match window.outcomes.get(i) {
            Some(outcome) => outcome.result.as_ref().ok().map(|d| &d.result.output),
            // A replay-only request has no window output to match: the
            // model followed its reference, which the oracle must accept.
            None => oracle
                .check(plan, req, &output)
                .is_ok()
                .then_some(&req.reference),
        };
        if expected != Some(&output) {
            replay.mismatches.push(i);
        }
    }
    Ok(replay)
}

/// One replayed lane: mirrors the engine's decode step with engine-level
/// jump-forward, timing each layer call.
struct ReplayLane<'a> {
    vocab: &'a Vocabulary,
    sorted: &'a SortedVocabulary,
    tracer: &'a mut Tracer,
    kind: Kind,
    request: usize,
    parent: usize,
}

impl ReplayLane<'_> {
    fn span(&mut self, name: &'static str, start: Instant) {
        let (kind, request, parent) = (Some(self.kind), Some(self.request), Some(self.parent));
        self.tracer
            .push(name, kind, request, parent, start, Instant::now());
    }

    fn drive<M: ConstraintMatcher + ?Sized>(
        &mut self,
        llm: &SimulatedLlm,
        req: &Request,
        matcher: &mut M,
        mut after_fill: impl FnMut(&M),
        in_segment: impl Fn(&[u8]) -> bool,
    ) -> Vec<u8> {
        let mut state = llm.start_request(&req.reference, req.seed);
        let mut output = Vec::new();
        let mut emitted = 0usize;
        let mut mask = TokenBitmask::new_all_rejected(self.vocab.len());
        if self.jump_forward(
            matcher,
            &mut state,
            &mut output,
            &mut emitted,
            req.max_tokens,
        ) {
            return output;
        }
        loop {
            let segment = in_segment(&output);
            let start = Instant::now();
            matcher.fill_next_token_bitmask(&mut mask);
            self.span(
                if segment {
                    "matcher.fill.segment"
                } else {
                    "matcher.fill"
                },
                start,
            );
            after_fill(matcher);
            let Some(token) = state.propose_constrained(&mask) else {
                return output;
            };
            let start = Instant::now();
            let accepted = matcher.accept_token(token).is_ok();
            self.span("matcher.accept", start);
            if !accepted || Some(token) == self.vocab.eos() {
                return output;
            }
            output.extend_from_slice(self.vocab.token_bytes(token));
            state.advance(token);
            emitted += 1;
            if emitted >= req.max_tokens
                || self.jump_forward(
                    matcher,
                    &mut state,
                    &mut output,
                    &mut emitted,
                    req.max_tokens,
                )
            {
                return output;
            }
        }
    }

    /// Injects the forced continuation; `true` when the token cap is reached.
    fn jump_forward<M: ConstraintMatcher + ?Sized>(
        &mut self,
        matcher: &mut M,
        state: &mut xg_engine::LlmRequestState,
        output: &mut Vec<u8>,
        emitted: &mut usize,
        max_tokens: usize,
    ) -> bool {
        let budget = max_tokens.saturating_sub(*emitted);
        if budget == 0 {
            return true;
        }
        let start = Instant::now();
        let run = matcher.find_jump_forward_tokens(self.sorted);
        for &token in run.tokens.iter().take(budget) {
            if matcher.accept_token(token).is_err() {
                break;
            }
            output.extend_from_slice(self.vocab.token_bytes(token));
            state.advance(token);
            *emitted += 1;
        }
        self.span("matcher.jump_forward", start);
        *emitted >= max_tokens
    }
}

/// End-to-end figures the tracing overhead is measured on.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    pub ttft_p50: f64,
    pub tpot_p50: f64,
    pub tokens_per_s: f64,
}

impl Headline {
    pub fn from(metrics: &[Reported]) -> Headline {
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        Headline {
            ttft_p50: get("ttft_p50_ms"),
            tpot_p50: get("tpot_p50_ms"),
            tokens_per_s: get("tokens_per_s"),
        }
    }
}

fn p(values: &[f64], q: f64) -> f64 {
    percentile(values, q).unwrap_or(0.0)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Every per-layer metric of the traced run. Layers a workload does not
/// exercise report 0.
pub fn layer_metrics(
    plan: &Plan,
    system: &System,
    window: &Window,
    tracer: &Tracer,
    replay: &Replay,
    untraced: Headline,
    traced: Headline,
) -> Vec<Reported> {
    let mut out = Vec::new();
    let mut put = |name: String, value: f64, unit: &'static str, samples: Option<usize>| {
        let mut m = Reported::new(name, value, unit);
        m.samples = samples;
        out.push(m);
    };

    // grammar
    let convert = tracer.us("grammar.schema_convert", None);
    put(
        "grammar.schema_convert_us_p50".into(),
        p(&convert, 50.0),
        "us",
        Some(convert.len()),
    );
    let delta = tracer.us("grammar.apply_delta", None);
    put(
        "grammar.apply_delta_us_p50".into(),
        p(&delta, 50.0),
        "us",
        Some(delta.len()),
    );

    // compiler: set-up compiles plus the admission compiles that missed the
    // cache in the window.
    let mut compiles: Vec<f64> = system.compiles.iter().map(|c| ms(c.time)).collect();
    compiles.extend(window.outcomes.iter().filter_map(|o| match &o.result {
        Ok(done) if !done.timing.cache_hit => Some(ms(done.timing.compile_time)),
        _ => None,
    }));
    put(
        "compiler.compile_ms_p50".into(),
        p(&compiles, 50.0),
        "ms",
        Some(compiles.len()),
    );
    put(
        format!("compiler.compile_ms_p{TAIL}"),
        p(&compiles, TAIL),
        "ms",
        Some(compiles.len()),
    );
    put(
        "compiler.compiles".into(),
        compiles.len() as f64,
        "count",
        None,
    );
    let mut ctx_dependent: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut cache_bytes: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let compiler = system.backend.compiler();
    for entry in &plan.grammars {
        let stats = compiler.compile_grammar(&entry.grammar).stats();
        ctx_dependent
            .entry(entry.kind)
            .or_default()
            .push(stats.context_dependent_after_expansion as f64);
        cache_bytes
            .entry(entry.kind)
            .or_default()
            .push(stats.memory_bytes as f64);
    }
    for session in &plan.sessions {
        if let Ok(dispatch) = compiler.compile_tag_dispatch(&session.initial) {
            for trigger in dispatch.triggers() {
                let stats = trigger.grammar().stats();
                ctx_dependent
                    .entry(Kind::Tag)
                    .or_default()
                    .push(stats.context_dependent_after_expansion as f64);
                cache_bytes
                    .entry(Kind::Tag)
                    .or_default()
                    .push(stats.memory_bytes as f64);
            }
        }
    }
    for kind in Kind::ALL {
        let values = ctx_dependent.get(&kind).map_or(&[][..], |v| v.as_slice());
        put(
            format!("compiler.ctx_dependent_tokens.{}", kind.name()),
            mean(values),
            "count",
            Some(values.len()),
        );
    }
    for kind in Kind::ALL {
        let values = cache_bytes.get(&kind).map_or(&[][..], |v| v.as_slice());
        put(
            format!("compiler.mask_cache_bytes.{}", kind.name()),
            mean(values),
            "B",
            Some(values.len()),
        );
    }

    // grammar_cache, over the window
    let (gb, ga) = (window.before.grammar_cache, window.after.grammar_cache);
    let delta = ga.delta_since(&gb);
    put(
        "grammar_cache.hit_rate".into(),
        delta.hit_rate(),
        "fraction",
        Some((delta.hits + delta.misses) as usize),
    );
    put(
        "grammar_cache.evictions".into(),
        delta.evictions as f64,
        "count",
        None,
    );
    put(
        "grammar_cache.bytes".into(),
        ga.current_bytes as f64,
        "B",
        None,
    );

    // matcher, from the replay
    let mut fills: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    for span in &tracer.spans {
        if matches!(span.name, "matcher.fill" | "matcher.fill.segment") {
            fills
                .entry(span.kind.expect("replay spans carry a kind"))
                .or_default()
                .push(span.us());
        }
    }
    for q in [50.0, 99.0] {
        for kind in Kind::ALL {
            let values = fills.get(&kind).map_or(&[][..], |v| v.as_slice());
            put(
                format!("matcher.fill_us_p{q}.{}", kind.name()),
                p(values, q),
                "us",
                Some(values.len()),
            );
        }
    }
    let accept = tracer.us("matcher.accept", None);
    put(
        "matcher.accept_us_p50".into(),
        p(&accept, 50.0),
        "us",
        Some(accept.len()),
    );
    let jump = tracer.us("matcher.jump_forward", None);
    put(
        "matcher.jump_forward_us_p50".into(),
        p(&jump, 50.0),
        "us",
        Some(jump.len()),
    );
    for kind in STACK_KINDS {
        let values = replay
            .stack_counts
            .get(&kind)
            .map_or(&[][..], |v| v.as_slice());
        put(
            format!("matcher.stack_count_p99.{}", kind.name()),
            p(values, 99.0),
            "count",
            Some(values.len()),
        );
    }

    // tag_dispatch and dispatch_cache
    let tag_compiles: Vec<f64> = system
        .compiles
        .iter()
        .filter(|c| c.kind == Kind::Tag)
        .map(|c| ms(c.time))
        .collect();
    put(
        "tag_dispatch.compile_ms".into(),
        p(&tag_compiles, 50.0),
        "ms",
        Some(tag_compiles.len()),
    );
    let updates: Vec<f64> = window
        .outcomes
        .iter()
        .filter_map(|o| o.update_time.map(ms))
        .collect();
    put(
        "tag_dispatch.update_ms_p50".into(),
        p(&updates, 50.0),
        "ms",
        Some(updates.len()),
    );
    put(
        format!("tag_dispatch.update_ms_p{TAIL}"),
        p(&updates, TAIL),
        "ms",
        Some(updates.len()),
    );
    let free = tracer.us("matcher.fill", Some(Kind::Tag));
    put(
        "tag_dispatch.free_fill_us_p50".into(),
        p(&free, 50.0),
        "us",
        Some(free.len()),
    );
    let segment = tracer.us("matcher.fill.segment", Some(Kind::Tag));
    put(
        "tag_dispatch.segment_fill_us_p50".into(),
        p(&segment, 50.0),
        "us",
        Some(segment.len()),
    );
    let (db, da) = (window.before.dispatch_cache, window.after.dispatch_cache);
    let (hits, misses) = (da.hits - db.hits, da.misses - db.misses);
    let lookups = hits + misses;
    put(
        "dispatch_cache.hit_rate".into(),
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        "fraction",
        Some(lookups as usize),
    );
    put(
        "dispatch_cache.evictions".into(),
        (da.evictions - db.evictions) as f64,
        "count",
        None,
    );

    // scheduler
    let sched = &window.scheduler;
    let finished: Vec<_> = window
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .collect();
    let queue: Vec<f64> = finished.iter().map(|d| ms(d.timing.queue_time)).collect();
    put(
        "scheduler.queue_ms_p50".into(),
        p(&queue, 50.0),
        "ms",
        Some(queue.len()),
    );
    put(
        format!("scheduler.queue_ms_p{TAIL}"),
        p(&queue, TAIL),
        "ms",
        Some(queue.len()),
    );
    let admission: Vec<f64> = finished.iter().map(|d| ms(d.timing.compile_time)).collect();
    put(
        format!("scheduler.admission_compile_ms_p{TAIL}"),
        p(&admission, TAIL),
        "ms",
        Some(admission.len()),
    );
    let decode = sched.decode_time.as_secs_f64().max(1e-9);
    put(
        "scheduler.mask_wait_frac".into(),
        sched.mask_wait_time.as_secs_f64() / decode,
        "fraction",
        None,
    );
    put(
        "scheduler.mask_worker_util".into(),
        sched.mask_worker_utilization(),
        "fraction",
        None,
    );
    put(
        "scheduler.batch_lanes_mean".into(),
        sched.sampled_tokens as f64 / sched.decode_steps.max(1) as f64,
        "count",
        Some(sched.decode_steps as usize),
    );
    put(
        "scheduler.batched_mask_lanes".into(),
        sched.batched_mask_lanes as f64,
        "count",
        None,
    );
    put(
        "scheduler.max_queue_depth".into(),
        sched.max_queue_depth as f64,
        "count",
        None,
    );

    // lane
    let generated = (sched.sampled_tokens + sched.forced_tokens).max(1);
    put(
        "lane.forced_token_frac".into(),
        sched.forced_tokens as f64 / generated as f64,
        "fraction",
        Some(generated as usize),
    );
    put(
        "lane.forced_ms".into(),
        ms(sched.forced_time) / sched.completed.max(1) as f64,
        "ms",
        Some(sched.completed as usize),
    );

    // llm (the simulated GPU)
    let wall = window.wall().as_secs_f64().max(1e-9);
    let busy = ((sched.gpu_time + sched.prefill_time).as_secs_f64() / wall).min(1.0);
    put("llm.gpu_busy_frac".into(), busy, "fraction", None);
    put("llm.gpu_idle_frac".into(), 1.0 - busy, "fraction", None);

    // load generator and tracing
    let open_loop = plan.workload == Workload::SchemaServe;
    put(
        "loadgen.max_lateness_ms".into(),
        if open_loop {
            ms(window.max_lateness)
        } else {
            0.0
        },
        "ms",
        None,
    );
    put(
        "trace.spans".into(),
        tracer.spans.len() as f64,
        "count",
        None,
    );
    let rel = |traced: f64, untraced: f64| {
        if untraced == 0.0 {
            0.0
        } else {
            traced / untraced - 1.0
        }
    };
    put(
        "trace.overhead_ttft_p50_frac".into(),
        rel(traced.ttft_p50, untraced.ttft_p50),
        "fraction",
        None,
    );
    put(
        "trace.overhead_tpot_p50_frac".into(),
        rel(traced.tpot_p50, untraced.tpot_p50),
        "fraction",
        None,
    );
    put(
        "trace.overhead_tokens_per_s_frac".into(),
        -rel(traced.tokens_per_s, untraced.tokens_per_s),
        "fraction",
        None,
    );
    out
}
