//! Differential test suite: the optimized engine against the naive PDA
//! baseline on randomly generated grammars and inputs, plus printer/parser
//! round-trips over the same random grammars.
//!
//! Unlike `property_tests.rs` (which uses a fixed pool of hand-written
//! grammars), the grammars here are *generated*: random rule bodies built
//! from literals, character classes, sequences, choices, bounded repeats and
//! guarded recursion. Every case drives both engines over the same byte
//! string and demands byte-for-byte agreement on accept/reject.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use random_grammar::{random_grammar, RandomGrammar};
use xg_automata::{build_pda_default, SimpleMatcher};
use xg_baselines::{ConstrainedBackend, NaivePdaBackend};
use xg_core::{CompilerConfig, GrammarCompiler, GrammarMatcher};
use xg_tokenizer::{test_vocabulary, TokenId, Vocabulary};

#[path = "support/random_grammar.rs"]
mod random_grammar;

/// Generates a random input: either uniform noise over the alphabet (mostly
/// rejected) or a guided random walk through the reference PDA (mostly
/// accepted prefixes).
fn random_input(
    rng: &mut SmallRng,
    grammar: &RandomGrammar,
    reference: &SimpleMatcher<'_>,
) -> Vec<u8> {
    if rng.gen_bool(0.5) {
        let len = rng.gen_range(0..=10);
        return (0..len)
            .map(|_| grammar.alphabet[rng.gen_range(0..grammar.alphabet.len())])
            .collect();
    }
    // Guided walk: at each step pick a random alphabet byte that keeps the
    // reference matcher alive.
    let mut walker = reference.clone();
    let mut out = Vec::new();
    for _ in 0..16 {
        if walker.can_terminate() && rng.gen_bool(0.4) {
            break;
        }
        let start = rng.gen_range(0..grammar.alphabet.len());
        let step = (0..grammar.alphabet.len())
            .map(|i| grammar.alphabet[(start + i) % grammar.alphabet.len()])
            .find(|&b| {
                let mut probe = walker.clone();
                probe.advance_bytes(&[b])
            });
        let Some(byte) = step else { break };
        walker.advance_bytes(&[byte]);
        out.push(byte);
    }
    // Occasionally corrupt the tail so near-misses are covered too.
    if !out.is_empty() && rng.gen_bool(0.25) {
        let idx = rng.gen_range(0..out.len());
        out[idx] = grammar.alphabet[rng.gen_range(0..grammar.alphabet.len())];
    }
    out
}

/// Feeds `input` to a fresh naive-PDA session one single-byte token at a
/// time. Returns `(bytes accepted before rejection, final state accepts)`.
fn drive_naive(
    constraint: &Arc<dyn xg_baselines::CompiledConstraint>,
    byte_tokens: &HashMap<u8, TokenId>,
    input: &[u8],
) -> (usize, bool) {
    let mut session = constraint.new_session();
    for (i, b) in input.iter().enumerate() {
        if !session.accept_token(byte_tokens[b]) {
            return (i, false);
        }
    }
    (input.len(), session.can_terminate())
}

fn byte_token_map(vocab: &Vocabulary) -> HashMap<u8, TokenId> {
    let mut map = HashMap::new();
    for (id, bytes) in vocab.iter() {
        if bytes.len() == 1 && !vocab.is_special(id) {
            map.entry(bytes[0]).or_insert(id);
        }
    }
    map
}

#[test]
fn random_grammars_accept_reject_parity_with_naive_pda() {
    const GRAMMARS: usize = 30;
    const INPUTS_PER_GRAMMAR: usize = 8;

    let vocab = Arc::new(test_vocabulary(600));
    let byte_tokens = byte_token_map(&vocab);
    // `accept_bytes` exercises the PDA executor, not the mask cache, so skip
    // mask-cache construction to keep 30 compilations fast in debug builds
    // (mask/cache parity has its own differential tests in property_tests.rs
    // and end_to_end.rs).
    let compiler = GrammarCompiler::with_config(
        Arc::clone(&vocab),
        CompilerConfig {
            enable_mask_cache: false,
            ..CompilerConfig::default()
        },
    );
    let naive = NaivePdaBackend::new(Arc::clone(&vocab));

    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    let mut cases = 0usize;
    for g in 0..GRAMMARS {
        let random = random_grammar(&mut rng);
        let grammar = xg_grammar::parse_ebnf(&random.source, "root")
            .unwrap_or_else(|e| panic!("generated grammar must parse: {e}\n{}", random.source));
        let compiled = compiler.compile_grammar(&grammar);
        let naive_compiled = naive
            .compile(&grammar)
            .expect("naive backend compiles CFGs");
        let reference_pda = build_pda_default(&grammar);
        let reference = SimpleMatcher::new(&reference_pda);

        for i in 0..INPUTS_PER_GRAMMAR {
            let input = random_input(&mut rng, &random, &reference);
            // Optimized engine: byte-level accept.
            let mut matcher = GrammarMatcher::new(Arc::clone(&compiled));
            let engine_result = matcher.accept_bytes(&input);
            let engine_accepted_bytes = match &engine_result {
                Ok(()) => input.len(),
                Err(xg_core::AcceptError::BytesRejected { matched_bytes }) => *matched_bytes,
                Err(other) => panic!("unexpected accept_bytes error: {other:?}"),
            };
            let engine_complete = engine_result.is_ok() && matcher.can_terminate();
            // Naive baseline: token-level accept over single-byte tokens.
            let (naive_accepted_bytes, naive_complete) =
                drive_naive(&naive_compiled, &byte_tokens, &input);
            assert_eq!(
                engine_accepted_bytes,
                naive_accepted_bytes,
                "prefix-validity divergence on grammar #{g} input #{i} {:?}\n{}",
                String::from_utf8_lossy(&input),
                random.source
            );
            assert_eq!(
                engine_complete,
                naive_complete,
                "acceptance divergence on grammar #{g} input #{i} {:?}\n{}",
                String::from_utf8_lossy(&input),
                random.source
            );
            cases += 1;
        }
    }
    assert!(
        cases >= 200,
        "differential suite must cover >=200 cases, ran {cases}"
    );
}

#[test]
fn random_grammars_roundtrip_through_display() {
    const GRAMMARS: usize = 40;
    const INPUTS_PER_GRAMMAR: usize = 6;

    let mut rng = SmallRng::seed_from_u64(0x2024);
    for g in 0..GRAMMARS {
        let random = random_grammar(&mut rng);
        let original = xg_grammar::parse_ebnf(&random.source, "root")
            .unwrap_or_else(|e| panic!("generated grammar must parse: {e}\n{}", random.source));
        let printed = original.to_string();
        let reparsed = xg_grammar::parse_ebnf(&printed, "root")
            .unwrap_or_else(|e| panic!("printed grammar must reparse: {e}\n{printed}"));
        // Printing is a fixed point after one round trip.
        assert_eq!(
            printed,
            reparsed.to_string(),
            "printer not idempotent for grammar #{g}"
        );

        // Original and reparsed accept exactly the same sample strings.
        let pda_a = build_pda_default(&original);
        let pda_b = build_pda_default(&reparsed);
        let reference = SimpleMatcher::new(&pda_a);
        for i in 0..INPUTS_PER_GRAMMAR {
            let input = random_input(&mut rng, &random, &reference);
            let a = SimpleMatcher::new(&pda_a).accepts(&input);
            let b = SimpleMatcher::new(&pda_b).accepts(&input);
            assert_eq!(
                a,
                b,
                "display round-trip changed acceptance of input #{i} {:?} for grammar #{g}:\n{}\n-- printed --\n{printed}",
                String::from_utf8_lossy(&input),
                random.source
            );
        }
    }
}
