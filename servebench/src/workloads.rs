//! Workload inputs, generated from the seed alone.
//!
//! The engine only ever sees what these functions return: the schedule,
//! the constraints, the references the simulated model follows and the
//! per-request seeds.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use serde_json::Value;
use xg_datasets::AgentSession;
use xg_grammar::{Grammar, StructuralTag};

/// Open-loop arrival rate of `schema_serve`, requests per second.
pub const SCHEMA_RATE: f64 = 4.0;
/// Closed-loop clients of `cfg_mix`; sessions of `agent_tools`.
pub const CLIENTS: usize = 4;
/// Tools in each `agent_tools` session's initial catalog.
pub const TOOLS_PER_SESSION: usize = 16;
/// Requests per ten seconds of `--seconds`, by workload. Each run makes a
/// fixed number of requests, so runs with the same `--seconds` do the same
/// amount of work. At 25 s every workload makes more than the 100 requests
/// a p90 with ten samples beyond it needs (a schema lane that samples at
/// most one token has no TPOT, hence the margin), and each takes about
/// `--seconds` on a 2-core machine.
fn request_count(workload: Workload, seconds: u64) -> usize {
    let per_ten_seconds = match workload {
        Workload::SchemaServe => 45,
        Workload::CfgMix => 84,
        Workload::AgentTools => 64,
    };
    per_ten_seconds * seconds as usize / 10
}
/// Prompt length of requests whose dataset carries no prompt.
const DEFAULT_PROMPT_TOKENS: usize = 64;

/// The three workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SchemaServe,
    CfgMix,
    AgentTools,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SchemaServe,
        Workload::CfgMix,
        Workload::AgentTools,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SchemaServe => "schema_serve",
            Workload::CfgMix => "cfg_mix",
            Workload::AgentTools => "agent_tools",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Grammar families, named as in the per-layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    JsonCfg,
    Xml,
    PyDsl,
    Schema,
    Tag,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::JsonCfg,
        Kind::Xml,
        Kind::PyDsl,
        Kind::Schema,
        Kind::Tag,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::JsonCfg => "json_cfg",
            Kind::Xml => "xml",
            Kind::PyDsl => "pydsl",
            Kind::Schema => "schema",
            Kind::Tag => "tag",
        }
    }
}

/// One distinct grammar of a plan.
#[derive(Debug, Clone)]
pub struct GrammarEntry {
    pub kind: Kind,
    /// The schema of a schema lane. The benchmark converts it again at
    /// submit time, as a server's request handler would.
    pub schema: Option<Value>,
    pub grammar: Grammar,
    /// Pre-compiled during set-up (the hot set and the builtins).
    pub precompiled: bool,
}

impl GrammarEntry {
    fn from_schema(schema: &Value, precompiled: bool) -> GrammarEntry {
        GrammarEntry {
            kind: Kind::Schema,
            schema: Some(schema.clone()),
            grammar: xg_grammar::json_schema_to_grammar(schema).expect("dataset schemas convert"),
            precompiled,
        }
    }

    fn builtin(kind: Kind, grammar: Grammar) -> GrammarEntry {
        GrammarEntry {
            kind,
            schema: None,
            grammar,
            precompiled: true,
        }
    }

    fn same_grammar(&self, other: &Grammar) -> bool {
        self.grammar.structural_fingerprint() == other.structural_fingerprint()
    }
}

/// One request of a plan.
#[derive(Debug, Clone)]
pub struct Request {
    /// The engine request seed; outputs depend only on it and the inputs.
    pub seed: u64,
    /// Index into [`Plan::grammars`] (grammar lanes).
    pub grammar: Option<usize>,
    /// `(session, turn)` in [`Plan::sessions`] (tag lanes).
    pub turn: Option<(usize, usize)>,
    pub reference: Vec<u8>,
    pub prompt_tokens: usize,
    pub max_tokens: usize,
    /// Open-loop due time, from the start of the window.
    pub due: Duration,
}

impl Request {
    pub fn kind(&self, plan: &Plan) -> Kind {
        self.grammar.map_or(Kind::Tag, |g| plan.grammars[g].kind)
    }
}

/// Everything one run submits.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub grammars: Vec<GrammarEntry>,
    pub sessions: Vec<AgentSession>,
    /// What the measured window serves.
    pub requests: Vec<Request>,
    /// Requests the traced layer replay decodes but the window does not
    /// serve.
    pub replay_only: Vec<Request>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Plan {
        match workload {
            Workload::SchemaServe => schema_serve(seed, seconds),
            Workload::CfgMix => cfg_mix(seed, seconds),
            Workload::AgentTools => agent_tools(seed, seconds),
        }
    }

    /// FNV-1a over every request's seed, reference, token cap and due time,
    /// as 16 hex digits: equal for equal plans.
    pub fn fingerprint(&self) -> String {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for req in &self.requests {
            let fields = [req.seed, req.max_tokens as u64, req.due.as_nanos() as u64];
            let bytes = fields
                .iter()
                .flat_map(|f| f.to_le_bytes())
                .chain(req.reference.iter().copied());
            for b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{hash:016x}")
    }

    /// The catalog a tag request runs under.
    pub fn catalog(&self, turn: (usize, usize)) -> &StructuralTag {
        &self.sessions[turn.0].turns[turn.1].catalog
    }
}

/// Token cap for a reference: no lane may end at it. The model follows the
/// reference and a token carries at least one byte, so a lane needs at most
/// as many tokens as the reference has bytes; the slack covers a model that
/// strays.
pub fn max_tokens_for(reference: &[u8]) -> usize {
    2 * reference.len() + 128
}

fn request(seed: u64, grammar: Option<usize>, reference: Vec<u8>, prompt_tokens: usize) -> Request {
    Request {
        seed,
        grammar,
        turn: None,
        max_tokens: max_tokens_for(&reference),
        reference,
        prompt_tokens,
        due: Duration::ZERO,
    }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Seed of the dataset generators. The documents a run serves are the same
/// in every run, so runs do the same work; the run seed orders them and
/// seeds each request.
const DATASET_SEED: u64 = 0x5eb_d47a;

/// Requests of `schema_serve` per cold one. A cold compile takes 45 ms to
/// 1 s of CPU time, and the host's CPU speed drifts by a quarter over
/// minutes; with one cold request in four, TTFT p90 fell among the cold
/// requests and spread 0.34 of its median between the quartiles of ten
/// runs. With one in 28, the cold requests and the hot ones queued behind
/// them stay above p90.
const COLD_EVERY: usize = 28;

/// Open loop: function-calling requests arriving at a constant 4 per
/// second. Most use a schema of the pre-compiled hot set; every
/// [`COLD_EVERY`]th carries a schema no earlier request used, so it pays a
/// compile at admission, and hot requests due meanwhile queue behind it.
///
/// Arrivals are evenly spaced and the cold schemas come in corpus order, so
/// how long each compile holds up the requests after it is the same in
/// every run. With Poisson arrivals, or with one arrival at a random point
/// of each slot, TTFT p90 moved by 28-76% of its median between seeds, and
/// the order of the compiles moved peak RSS by 10%. The seed orders the hot
/// requests and seeds every request.
fn schema_serve(seed: u64, seconds: u64) -> Plan {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5c4e_3a5e);
    let count = request_count(Workload::SchemaServe, seconds);
    let mut grammars: Vec<GrammarEntry> = Vec::new();
    let mut hot = Vec::new();
    for task in xg_datasets::json_mode_eval_like(count, DATASET_SEED) {
        let entry = GrammarEntry::from_schema(&task.schema, true);
        let index = match grammars.iter().position(|g| g.same_grammar(&entry.grammar)) {
            Some(index) => index,
            None => {
                grammars.push(entry);
                grammars.len() - 1
            }
        };
        hot.push((index, task));
    }
    let cold_count = count / COLD_EVERY;
    let mut cold = Vec::with_capacity(cold_count);
    for case in xg_datasets::schema_corpus(4 * cold_count, DATASET_SEED) {
        if cold.len() == cold_count {
            break;
        }
        let entry = GrammarEntry::from_schema(&case.schema, false);
        let seen = grammars.iter().chain(cold.iter().map(|(e, _)| e));
        if !case.valid.is_empty() && !seen.clone().any(|g| g.same_grammar(&entry.grammar)) {
            cold.push((entry, case.valid[0].clone().into_bytes()));
        }
    }
    assert_eq!(
        cold.len(),
        cold_count,
        "the corpus holds enough distinct schemas"
    );
    hot.truncate(count - cold_count);
    shuffle(&mut rng, &mut hot);
    let (mut hot, mut cold) = (hot.into_iter(), cold.into_iter());
    let mut requests = Vec::with_capacity(count);
    for i in 0..count {
        let mut req = if i % COLD_EVERY == COLD_EVERY - 1 {
            let (entry, reference) = cold.next().expect("one cold request per COLD_EVERY");
            grammars.push(entry);
            request(
                rng.next_u64(),
                Some(grammars.len() - 1),
                reference,
                DEFAULT_PROMPT_TOKENS,
            )
        } else {
            let (index, task) = hot.next().expect("the other requests are hot");
            let prompt_tokens = task.prompt.len().div_ceil(4);
            request(rng.next_u64(), Some(index), task.reference, prompt_tokens)
        };
        req.due = Duration::from_secs_f64((i as f64 + 0.5) / SCHEMA_RATE);
        requests.push(req);
    }
    Plan {
        workload: Workload::SchemaServe,
        grammars,
        sessions: Vec::new(),
        requests,
        replay_only: Vec::new(),
    }
}

/// Python-DSL documents of `cfg_mix` that only the traced layer replay
/// decodes.
const DSL_REPLAYS: usize = 12;

/// Closed loop: a fixed number of requests alternating the builtin JSON and
/// XML grammars, with the Python-DSL grammar compiled beside them during
/// set-up and decoded only by the traced layer replay.
///
/// XML fills (90 us median, 3 ms p99) hide under the 6.6 ms GPU step, so
/// the timings show the overlap at work. A Python-DSL fill (8 ms median,
/// 38 ms p99) outlasts the step, and any batch holding a Python-DSL lane
/// waits on the mask worker. The host's CPU speed drifts by a quarter over
/// minutes on a shared virtual machine: with one Python-DSL request in
/// three, or in six, TTFT and TPOT p90 spread 0.2-0.32 of their median
/// between the quartiles of five runs.
fn cfg_mix(seed: u64, seconds: u64) -> Plan {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0cf6_3a1c);
    let count = request_count(Workload::CfgMix, seconds);
    let grammars = vec![
        GrammarEntry::builtin(Kind::JsonCfg, xg_grammar::builtin::json_grammar()),
        GrammarEntry::builtin(Kind::Xml, xg_grammar::builtin::xml_grammar()),
        GrammarEntry::builtin(Kind::PyDsl, xg_grammar::builtin::python_dsl_grammar()),
    ];
    // Request i has grammar i % 2.
    let mut docs = [
        xg_datasets::json_documents(count.div_ceil(2), DATASET_SEED),
        xg_datasets::xml_tasks(count / 2, DATASET_SEED),
        xg_datasets::python_dsl_tasks(DSL_REPLAYS, DATASET_SEED),
    ];
    for kind in &mut docs {
        shuffle(&mut rng, kind);
    }
    let mut requests = (0..count)
        .map(|i| (i % 2, &docs[i % 2][i / 2]))
        .chain(docs[2].iter().map(|task| (2, task)))
        .map(|(g, task)| {
            let prompt_tokens = task.prompt.len().div_ceil(4);
            request(
                rng.next_u64(),
                Some(g),
                task.reference.clone(),
                prompt_tokens,
            )
        })
        .collect::<Vec<_>>();
    let replay_only = requests.split_off(count);
    Plan {
        workload: Workload::CfgMix,
        grammars,
        sessions: Vec::new(),
        requests,
        replay_only,
    }
}

/// Lockstep agent sessions: every turn, each session applies its registry
/// delta and then submits one structural-tag request.
fn agent_tools(seed: u64, seconds: u64) -> Plan {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xa6e7_7001);
    let turns = (request_count(Workload::AgentTools, seconds) / CLIENTS).max(1);
    // With the sessions drawn from the run seed, the number of tools added
    // per run varied and moved turn latency p90 by 15% between seeds.
    let mut sessions = xg_datasets::agent_sessions(CLIENTS, TOOLS_PER_SESSION, turns, DATASET_SEED);
    shuffle(&mut rng, &mut sessions);
    let mut requests = Vec::with_capacity(CLIENTS * turns);
    for turn in 0..turns {
        for (s, session) in sessions.iter().enumerate() {
            let reference = session.turns[turn].task.reference.clone();
            let mut req = request(rng.next_u64(), None, reference, DEFAULT_PROMPT_TOKENS);
            req.turn = Some((s, turn));
            requests.push(req);
        }
    }
    Plan {
        workload: Workload::AgentTools,
        grammars: Vec::new(),
        sessions,
        requests,
        replay_only: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_of_one_workload_serve_the_same_documents() {
        for workload in Workload::ALL {
            let references = |seed| {
                let mut r: Vec<Vec<u8>> = Plan::new(workload, seed, 4)
                    .requests
                    .into_iter()
                    .map(|r| r.reference)
                    .collect();
                r.sort();
                r
            };
            assert!(references(1) == references(2), "{}", workload.name());
        }
    }

    #[test]
    fn plans_are_a_function_of_the_seed() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, 7, 4);
            let b = Plan::new(workload, 7, 4);
            let c = Plan::new(workload, 8, 4);
            let key = |p: &Plan| {
                p.requests
                    .iter()
                    .map(|r| (r.seed, r.reference.clone(), r.due))
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&a), key(&b), "{}", workload.name());
            assert_ne!(key(&a), key(&c), "{}", workload.name());
        }
    }

    #[test]
    fn schema_serve_cold_schemas_are_never_seen_before() {
        let plan = Plan::new(Workload::SchemaServe, 3, 20);
        for (i, req) in plan.requests.iter().enumerate() {
            let entry = &plan.grammars[req.grammar.unwrap()];
            assert_eq!(entry.precompiled, i % COLD_EVERY != COLD_EVERY - 1);
            if !entry.precompiled {
                let uses = plan
                    .requests
                    .iter()
                    .filter(|r| r.grammar == req.grammar)
                    .count();
                assert_eq!(uses, 1);
            }
        }
    }
}
