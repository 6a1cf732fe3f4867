//! The adaptive token mask cache (paper §3.1) and its construction.
//!
//! For every node of the pushdown automaton, the vocabulary is partitioned
//! into
//!
//! * **context-independent accepted** tokens — valid whenever that node is on
//!   top of the stack, regardless of what is below,
//! * **context-independent rejected** tokens — invalid regardless of the
//!   stack, and
//! * **context-dependent** tokens — their validity depends on the parent
//!   frames and must be resolved at runtime.
//!
//! The cache stores, per node, whichever two of the three sets are cheapest
//! (accept-heavy / reject-heavy / bitset storage, Figure 5), and the
//! runtime merges per-stack masks with the set-based Algorithm 1.
//!
//! Construction uses the persistent execution stack: tokens are classified in
//! lexicographic order and the matcher state is rolled back to the common
//! prefix with the previously classified token (paper §3.3), which cuts the
//! number of bytes that have to be matched to a fraction. The sorted index
//! is built once per vocabulary and shared by every grammar a
//! [`GrammarCompiler`](crate::GrammarCompiler) compiles.
//!
//! The walk ([`match_sorted_tokens`]) classifies runs of tokens, not single
//! tokens: once a prefix decides a token's class, every following sorted
//! token sharing that prefix is appended to the same class as one slice of
//! the sorted ids. A prefix decides the class when every stack died on it
//! with no pop-out (rejected), when every stack died after pop-outs and each
//! context-expansion check of the remainder has died or reached a final
//! state (rejected or context-dependent), or when some stack sits on a
//! universal node such as a free-text tail (accepted). The classification is
//! the same as checking every token on its own.
//!
//! Nodes are classified independently. Worker threads take the next
//! unclassified node from a shared atomic counter, so the result is the
//! same for any `num_threads` and a few expensive nodes do not leave the
//! other workers idle.

use xg_automata::{Fsa, NodeId, Pda};
use xg_tokenizer::{SortedVocabulary, TokenId, Vocabulary};

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::executor::{match_sorted_tokens, universal_nodes, PopOuts, TokenTrail, Verdict};
use crate::mask::TokenBitmask;
use crate::persistent_stack::{PersistentStackTree, StackHandle};

/// Per-node storage of the token mask cache, in one of the three adaptive
/// formats of Figure 5. `uncertain` always holds the context-dependent
/// tokens, sorted by their byte strings so the runtime check can reuse
/// prefixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeMaskEntry {
    /// Most tokens are accepted: store the rejected and context-dependent
    /// tokens.
    AcceptHeavy {
        /// Context-independent rejected tokens.
        rejected: Vec<TokenId>,
        /// Context-dependent tokens (sorted by byte string).
        uncertain: Vec<TokenId>,
    },
    /// Most tokens are rejected: store the accepted and context-dependent
    /// tokens.
    RejectHeavy {
        /// Context-independent accepted tokens.
        accepted: Vec<TokenId>,
        /// Context-dependent tokens (sorted by byte string).
        uncertain: Vec<TokenId>,
    },
    /// Accepted and rejected sets have comparable size: store a dense bitset
    /// of the accepted tokens.
    Bitset {
        /// Bit set over the vocabulary with accepted tokens set.
        accepted: TokenBitmask,
        /// Context-dependent tokens (sorted by byte string).
        uncertain: Vec<TokenId>,
    },
}

impl NodeMaskEntry {
    /// The context-dependent tokens of this node.
    pub fn uncertain(&self) -> &[TokenId] {
        match self {
            NodeMaskEntry::AcceptHeavy { uncertain, .. }
            | NodeMaskEntry::RejectHeavy { uncertain, .. }
            | NodeMaskEntry::Bitset { uncertain, .. } => uncertain,
        }
    }

    /// Approximate heap memory used by this entry, in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            NodeMaskEntry::AcceptHeavy {
                rejected,
                uncertain,
            } => (rejected.len() + uncertain.len()) * 4,
            NodeMaskEntry::RejectHeavy {
                accepted,
                uncertain,
            } => (accepted.len() + uncertain.len()) * 4,
            NodeMaskEntry::Bitset {
                accepted,
                uncertain,
            } => accepted.memory_bytes() + uncertain.len() * 4,
        }
    }

    /// True if this entry uses the accept-heavy storage format.
    pub fn is_accept_heavy(&self) -> bool {
        matches!(self, NodeMaskEntry::AcceptHeavy { .. })
    }
}

/// Statistics gathered while building the mask cache; these back several of
/// the paper's headline numbers (§3.1–§3.3).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaskCacheStats {
    /// Number of automaton nodes (cache entries).
    pub nodes: usize,
    /// Vocabulary size used for classification (special tokens excluded).
    pub classified_tokens: usize,
    /// Sum over nodes of context-dependent tokens *before* context expansion.
    pub context_dependent_before_expansion: usize,
    /// Sum over nodes of context-dependent tokens *after* context expansion.
    pub context_dependent_after_expansion: usize,
    /// Maximum number of context-dependent tokens on any single node (after
    /// expansion).
    pub max_context_dependent_per_node: usize,
    /// Total cache memory (adaptive storage), in bytes.
    pub memory_bytes: usize,
    /// Memory a dense per-node bitmask layout would need, in bytes.
    pub dense_memory_bytes: usize,
    /// Bytes of token text actually matched during preprocessing.
    pub preprocessing_bytes_matched: u64,
    /// Bytes of token text that would have been matched without sorted-prefix
    /// rollback (`nodes * total token bytes`).
    pub preprocessing_bytes_naive: u64,
    /// Times classification hit
    /// [`MAX_PARALLEL_STACKS`](crate::executor::MAX_PARALLEL_STACKS) and
    /// dropped stacks; a non-zero count means some entries may be wrong.
    pub stack_truncations: u64,
}

impl MaskCacheStats {
    /// Fraction of context-dependent tokens removed by context expansion.
    pub fn expansion_reduction(&self) -> f64 {
        if self.context_dependent_before_expansion == 0 {
            return 0.0;
        }
        1.0 - self.context_dependent_after_expansion as f64
            / self.context_dependent_before_expansion as f64
    }

    /// Ratio of adaptive-storage memory to dense-bitmask memory.
    pub fn memory_ratio(&self) -> f64 {
        if self.dense_memory_bytes == 0 {
            return 0.0;
        }
        self.memory_bytes as f64 / self.dense_memory_bytes as f64
    }

    /// Fraction of token bytes matched during preprocessing relative to the
    /// naive (unsorted, no rollback) strategy.
    pub fn preprocessing_check_fraction(&self) -> f64 {
        if self.preprocessing_bytes_naive == 0 {
            return 0.0;
        }
        self.preprocessing_bytes_matched as f64 / self.preprocessing_bytes_naive as f64
    }
}

/// The adaptive token mask cache: one entry per automaton node.
#[derive(Debug, Clone)]
pub struct MaskCache {
    entries: Vec<NodeMaskEntry>,
    stats: MaskCacheStats,
}

impl MaskCache {
    /// Returns the entry for a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn entry(&self, node: NodeId) -> &NodeMaskEntry {
        &self.entries[node.index()]
    }

    /// Number of entries (= automaton nodes).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the cache has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Build statistics.
    pub fn stats(&self) -> &MaskCacheStats {
        &self.stats
    }
}

/// Result of classifying the whole vocabulary for one node.
#[derive(Debug, Default)]
struct NodeClassification {
    accepted: Vec<TokenId>,
    rejected: Vec<TokenId>,
    uncertain: Vec<TokenId>,
    uncertain_before_expansion: usize,
    bytes_matched: u64,
    stack_truncations: u64,
}

/// Classifies every (non-special) token against a single automaton node
/// with one [`match_sorted_tokens`] walk: sorted-order prefix sharing, and
/// whole runs of tokens classified at once where a shared prefix decides
/// them. `suffix_fsa`, when provided, is the expanded-suffix automaton of
/// the node's rule and is used to reject context-dependent tokens whose
/// remainder cannot match any parent context (context expansion, §3.2).
fn classify_node(
    pda: &Pda,
    universal: &[NodeId],
    node: NodeId,
    vocab: &Vocabulary,
    sorted: &SortedVocabulary,
    suffix_fsa: Option<&Fsa>,
) -> NodeClassification {
    let mut tree = PersistentStackTree::new();
    let start = tree.push(StackHandle::ROOT, node);
    let mut trail = TokenTrail::new(vec![start]);
    let mut out = NodeClassification::default();
    let ids = sorted.ids();
    match_sorted_tokens(
        pda,
        universal,
        vocab,
        &mut tree,
        &mut trail,
        ids,
        |i| sorted.lcp()[i],
        PopOuts::Parent(suffix_fsa),
        |run, verdict| {
            let tokens = &ids[run];
            let class = match verdict {
                Verdict::Accepted => &mut out.accepted,
                Verdict::Rejected => &mut out.rejected,
                // Tokens that died after a pop-out count as context-dependent
                // before context expansion, for the statistics.
                Verdict::ExpansionRejected => {
                    out.uncertain_before_expansion += tokens.len();
                    &mut out.rejected
                }
                Verdict::Uncertain => {
                    out.uncertain_before_expansion += tokens.len();
                    &mut out.uncertain
                }
            };
            class.extend_from_slice(tokens);
        },
    );
    out.bytes_matched = trail.bytes_advanced();
    out.stack_truncations = tree.truncations();
    out
}

/// Options for building the mask cache.
#[derive(Debug, Clone)]
pub struct MaskCacheBuildOptions {
    /// Apply context expansion (requires `suffix_fsas`).
    pub context_expansion: bool,
    /// Number of worker threads (0 = use available parallelism).
    pub num_threads: usize,
}

impl Default for MaskCacheBuildOptions {
    fn default() -> Self {
        MaskCacheBuildOptions {
            context_expansion: true,
            num_threads: 0,
        }
    }
}

/// Builds the adaptive token mask cache for every node of the PDA.
///
/// `suffix_fsas` must contain one expanded-suffix automaton per PDA rule when
/// context expansion is enabled (see
/// [`xg_automata::extract_all_suffix_fsas`]).
pub fn build_mask_cache(
    pda: &Pda,
    vocab: &Vocabulary,
    sorted: &SortedVocabulary,
    suffix_fsas: Option<&[Fsa]>,
    options: &MaskCacheBuildOptions,
) -> MaskCache {
    let node_count = pda.node_count();
    let num_threads = if options.num_threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(node_count.max(1))
    } else {
        options.num_threads
    };

    let universal = universal_nodes(pda);
    let classify = |node_index: usize| -> NodeClassification {
        let node = NodeId(node_index as u32);
        let fsa = if options.context_expansion {
            suffix_fsas.map(|f| &f[pda.node(node).rule.index()])
        } else {
            None
        };
        classify_node(pda, &universal, node, vocab, sorted, fsa)
    };

    // Workers take the next unclassified node from a shared counter, so a
    // few expensive nodes do not leave the other workers idle.
    let next_node = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next_node.fetch_add(1, Ordering::Relaxed);
            if i >= node_count {
                return done;
            }
            done.push((i, classify(i)));
        }
    };
    let mut classifications: Vec<Option<NodeClassification>> = Vec::new();
    classifications.resize_with(node_count, || None);
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..num_threads.min(node_count))
            .map(|_| scope.spawn(worker))
            .collect();
        let mine = worker();
        let theirs = helpers
            .into_iter()
            .flat_map(|h| h.join().expect("classification worker panicked"));
        for (i, c) in mine.into_iter().chain(theirs) {
            classifications[i] = Some(c);
        }
    });

    // Convert classifications into adaptive entries and aggregate statistics.
    let vocab_size = vocab.len();
    let mut entries = Vec::with_capacity(node_count);
    let mut stats = MaskCacheStats {
        nodes: node_count,
        classified_tokens: sorted.len(),
        dense_memory_bytes: node_count * vocab_size.div_ceil(8),
        preprocessing_bytes_naive: node_count as u64 * sorted.total_bytes() as u64,
        ..Default::default()
    };
    for classification in classifications {
        let classification = classification.expect("every node classified");
        stats.stack_truncations += classification.stack_truncations;
        stats.context_dependent_before_expansion += classification.uncertain_before_expansion;
        stats.context_dependent_after_expansion += classification.uncertain.len();
        stats.max_context_dependent_per_node = stats
            .max_context_dependent_per_node
            .max(classification.uncertain.len());
        stats.preprocessing_bytes_matched += classification.bytes_matched;
        let entry = make_entry(vocab, vocab_size, classification);
        stats.memory_bytes += entry.memory_bytes();
        entries.push(entry);
    }

    MaskCache { entries, stats }
}

/// Chooses the cheapest of the three storage formats (Figure 5).
fn make_entry(
    vocab: &Vocabulary,
    vocab_size: usize,
    classification: NodeClassification,
) -> NodeMaskEntry {
    let NodeClassification {
        accepted,
        rejected,
        mut uncertain,
        ..
    } = classification;
    // Keep context-dependent tokens sorted by byte string (they already are,
    // since classification visits tokens in sorted order), so the runtime
    // check can reuse prefixes. Assert in debug builds.
    debug_assert!(uncertain
        .windows(2)
        .all(|w| vocab.token_bytes(w[0]) <= vocab.token_bytes(w[1])));
    uncertain.shrink_to_fit();

    let accept_heavy_cost = (rejected.len() + uncertain.len()) * 4;
    let reject_heavy_cost = (accepted.len() + uncertain.len()) * 4;
    let bitset_cost = vocab_size.div_ceil(8) + uncertain.len() * 4;
    if accept_heavy_cost <= reject_heavy_cost && accept_heavy_cost <= bitset_cost {
        NodeMaskEntry::AcceptHeavy {
            rejected,
            uncertain,
        }
    } else if reject_heavy_cost <= bitset_cost {
        NodeMaskEntry::RejectHeavy {
            accepted,
            uncertain,
        }
    } else {
        let mut mask = TokenBitmask::new_all_rejected(vocab_size);
        for t in &accepted {
            mask.allow(*t);
        }
        NodeMaskEntry::Bitset {
            accepted: mask,
            uncertain,
        }
    }
}

#[cfg(test)]
#[path = "../../../tests/support/random_grammar.rs"]
mod random_grammar;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use xg_automata::{build_pda, extract_all_suffix_fsas, PdaBuildOptions, SuffixMatch};
    use xg_grammar::{parse_ebnf, Grammar};
    use xg_tokenizer::test_vocabulary;

    fn build_all(
        grammar_text: &str,
        vocab: &Vocabulary,
        context_expansion: bool,
    ) -> (Pda, MaskCache) {
        let g = parse_ebnf(grammar_text, "root").unwrap();
        let pda = build_pda(&g, &PdaBuildOptions::default());
        let sorted = SortedVocabulary::new(vocab);
        let fsas = extract_all_suffix_fsas(&pda);
        let cache = build_mask_cache(
            &pda,
            vocab,
            &sorted,
            Some(&fsas),
            &MaskCacheBuildOptions {
                context_expansion,
                num_threads: 2,
            },
        );
        (pda, cache)
    }

    #[test]
    fn cache_has_one_entry_per_node() {
        let vocab = test_vocabulary(600);
        let (pda, cache) = build_all(r#"root ::= "[" [a-z]* "]""#, &vocab, true);
        assert_eq!(cache.len(), pda.node_count());
    }

    #[test]
    fn root_start_accepts_only_open_bracket() {
        let vocab = test_vocabulary(600);
        let (pda, cache) = build_all(r#"root ::= "[" [a-z]* "]""#, &vocab, true);
        let entry = cache.entry(pda.root_start());
        // At the very start only tokens beginning with `[` can be valid, so
        // the entry must be reject-heavy (or a bitset with few bits).
        match entry {
            NodeMaskEntry::RejectHeavy { accepted, .. } => {
                for t in accepted {
                    assert_eq!(vocab.token_bytes(*t)[0], b'[');
                }
                assert!(!accepted.is_empty());
            }
            other => panic!("expected reject-heavy storage at the start node, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_nodes_are_accept_heavy() {
        // A large enough vocabulary that a small rejected list beats the
        // dense bitset (with tiny vocabularies the bitset is always cheapest
        // and the adaptive format rightly picks it).
        let vocab = test_vocabulary(8000);
        // Inside the character class almost everything is accepted (only
        // tokens containing a NUL byte are rejected), so the rejected list is
        // far cheaper than a bitset.
        let (pda, cache) = build_all(r#"root ::= "x" [^\x00]* "y""#, &vocab, true);
        let accept_heavy =
            (0..pda.node_count()).any(|i| cache.entry(NodeId(i as u32)).is_accept_heavy());
        assert!(accept_heavy, "expected at least one accept-heavy node");
    }

    #[test]
    fn context_expansion_reduces_uncertain_tokens() {
        let vocab = test_vocabulary(2000);
        let grammar = r#"
            root ::= "[" ((str ",")* str)? "]"
            str ::= "\"" [a-z]* "\""
        "#;
        let (_, without) = build_all(grammar, &vocab, false);
        let (_, with) = build_all(grammar, &vocab, true);
        assert!(
            with.stats().context_dependent_after_expansion
                <= without.stats().context_dependent_after_expansion
        );
        assert!(with.stats().expansion_reduction() >= 0.0);
    }

    #[test]
    fn adaptive_memory_is_much_smaller_than_dense() {
        let vocab = test_vocabulary(4000);
        let (_, cache) = build_all(
            r#"
            root ::= obj
            obj ::= "{" (pair ("," pair)*)? "}"
            pair ::= "\"" [a-z]+ "\"" ":" val
            val ::= obj | "\"" [a-z]* "\"" | [0-9]+
            "#,
            &vocab,
            true,
        );
        let stats = cache.stats();
        // With a small test vocabulary the win is modest (the realistic-scale
        // ratio is measured by the benchmark harness against a 128k
        // vocabulary); here we check the direction and that context
        // expansion keeps the per-node context-dependent sets tiny.
        assert!(
            stats.memory_bytes < stats.dense_memory_bytes,
            "adaptive {} vs dense {}",
            stats.memory_bytes,
            stats.dense_memory_bytes
        );
        assert!(
            stats.max_context_dependent_per_node <= stats.classified_tokens / 100,
            "too many context-dependent tokens per node: {}",
            stats.max_context_dependent_per_node
        );
    }

    #[test]
    fn prefix_sharing_reduces_preprocessing_work() {
        let vocab = test_vocabulary(2000);
        let (_, cache) = build_all(r#"root ::= [a-z ]*"#, &vocab, true);
        let stats = cache.stats();
        assert!(stats.preprocessing_bytes_matched < stats.preprocessing_bytes_naive);
        assert!(stats.preprocessing_check_fraction() < 1.0);
    }

    #[test]
    fn classification_is_consistent_with_reference_matcher() {
        // For the tokens classified as context-independent accepted at the
        // root start node, the reference matcher must agree they are valid
        // prefixes of a sentence.
        let vocab = test_vocabulary(600);
        let grammar = r#"root ::= "{" [a-z]* "}""#;
        let (pda, cache) = build_all(grammar, &vocab, true);
        let entry = cache.entry(pda.root_start());
        if let NodeMaskEntry::RejectHeavy { accepted, .. } = entry {
            for t in accepted {
                let bytes = vocab.token_bytes(*t);
                let mut m = xg_automata::SimpleMatcher::new(&pda);
                assert!(
                    m.advance_bytes(bytes),
                    "token {:?} was classified accepted but the reference matcher rejects it",
                    String::from_utf8_lossy(bytes)
                );
            }
        } else {
            panic!("start node should be reject-heavy");
        }
    }

    #[test]
    fn build_is_identical_for_any_thread_count() {
        let vocab = test_vocabulary(1500);
        let sorted = SortedVocabulary::new(&vocab);
        // A tool-call segment with the free-text tail of eager exit.
        let tool = xg_datasets::agent_catalog(&[xg_datasets::agent_tool(0)]);
        let trigger = &tool.effective_triggers()[0];
        let segment = tool
            .build_grammar_for_trigger(trigger, &tool.trigger_assignments().unwrap()[0])
            .unwrap();
        for grammar in [
            xg_grammar::builtin::json_grammar(),
            xg_grammar::builtin::xml_grammar(),
            xg_grammar::builtin::python_dsl_grammar(),
            xg_grammar::append_free_text_tail(&segment),
        ] {
            let pda = build_pda(&grammar, &PdaBuildOptions::default());
            let fsas = extract_all_suffix_fsas(&pda);
            let build = |num_threads| {
                let options = MaskCacheBuildOptions {
                    context_expansion: true,
                    num_threads,
                };
                build_mask_cache(&pda, &vocab, &sorted, Some(&fsas), &options)
            };
            let one = build(1);
            for num_threads in [2, 3] {
                let other = build(num_threads);
                assert!(one.entries == other.entries, "{num_threads} threads");
                assert_eq!(one.stats, other.stats, "{num_threads} threads");
            }
        }
    }

    /// Classifies every token on its own: a fresh trail per token, no
    /// prefix reuse and no skipping.
    fn classify_per_token(
        pda: &Pda,
        node: NodeId,
        vocab: &Vocabulary,
        sorted: &SortedVocabulary,
        suffix_fsa: Option<&Fsa>,
    ) -> [Vec<TokenId>; 3] {
        let mut tree = PersistentStackTree::new();
        let start = tree.push(StackHandle::ROOT, node);
        let mut classes: [Vec<TokenId>; 3] = Default::default();
        for &id in sorted.ids() {
            let bytes = vocab.token_bytes(id);
            let mut trail = TokenTrail::new(vec![start]);
            let class = if trail.match_token(pda, &mut tree, bytes, 0) {
                0
            } else if trail.popout_offsets().any(|o| {
                suffix_fsa.is_none_or(|f| f.match_remaining(&bytes[o..]) == SuffixMatch::Possible)
            }) {
                2
            } else {
                1
            };
            classes[class].push(id);
        }
        classes
    }

    /// How many tokens a walk over `node` decided without matching them (the
    /// tokens of each run after its first), per skip case: dead with no
    /// pop-out, dead after pop-outs, and accepted past a universal node.
    fn tokens_skipped(
        pda: &Pda,
        universal: &[NodeId],
        node: NodeId,
        vocab: &Vocabulary,
        sorted: &SortedVocabulary,
        suffix_fsa: Option<&Fsa>,
    ) -> [usize; 3] {
        let mut tree = PersistentStackTree::new();
        let start = tree.push(StackHandle::ROOT, node);
        let mut trail = TokenTrail::new(vec![start]);
        let mut skipped = [0; 3];
        match_sorted_tokens(
            pda,
            universal,
            vocab,
            &mut tree,
            &mut trail,
            sorted.ids(),
            |i| sorted.lcp()[i],
            PopOuts::Parent(suffix_fsa),
            |run, verdict| {
                let case = match verdict {
                    Verdict::Rejected => 0,
                    Verdict::ExpansionRejected | Verdict::Uncertain => 1,
                    Verdict::Accepted => 2,
                };
                skipped[case] += run.len() - 1;
            },
        );
        skipped
    }

    /// Asserts that every node's classification equals the per-token
    /// oracle's, and returns the tokens each skip case decided.
    fn check_against_oracle(
        grammar: &Grammar,
        inline_rules: bool,
        context_expansion: bool,
        vocab: &Vocabulary,
        sorted: &SortedVocabulary,
        label: &str,
    ) -> [usize; 3] {
        let options = PdaBuildOptions {
            inline_rules,
            ..Default::default()
        };
        let pda = build_pda(grammar, &options);
        let fsas = extract_all_suffix_fsas(&pda);
        let universal = universal_nodes(&pda);
        let mut skipped = [0; 3];
        for i in 0..pda.node_count() {
            let node = NodeId(i as u32);
            let fsa = context_expansion.then(|| &fsas[pda.node(node).rule.index()]);
            let got = classify_node(&pda, &universal, node, vocab, sorted, fsa);
            let want = classify_per_token(&pda, node, vocab, sorted, fsa);
            assert_eq!(
                [got.accepted, got.rejected, got.uncertain],
                want,
                "{label} node {i}"
            );
            let runs = tokens_skipped(&pda, &universal, node, vocab, sorted, fsa);
            for (total, n) in skipped.iter_mut().zip(runs) {
                *total += n;
            }
        }
        skipped
    }

    #[test]
    fn classification_matches_a_per_token_oracle_on_random_grammars() {
        let vocab = test_vocabulary(600);
        let sorted = SortedVocabulary::new(&vocab);
        let mut rng = SmallRng::seed_from_u64(0xCA5E);
        let mut skipped = [0; 3];
        for g in 0..36 {
            let random = super::random_grammar::random_grammar(&mut rng);
            let source = match g % 3 {
                // A rule that ends inside a token: `root` is followed by a
                // literal, so a pop-out's remainder is checked against it by
                // context expansion, often past the byte where the stacks
                // died.
                2 => format!("{}\ntop ::= root \"]x,\" root\n", random.source),
                _ => random.source.clone(),
            };
            let root = if g % 3 == 2 { "top" } else { "root" };
            let mut grammar = parse_ebnf(&source, root).unwrap();
            // A free-text tail adds a universal node.
            if g % 3 == 1 {
                grammar = xg_grammar::append_free_text_tail(&grammar);
            }
            // Alternate inlined and rule-per-frame automata, so pop-outs into
            // parent frames are exercised as well, with and without context
            // expansion.
            let found = check_against_oracle(
                &grammar,
                g % 2 == 0,
                g % 4 < 2,
                &vocab,
                &sorted,
                &format!("grammar #{g}\n{source}"),
            );
            for (total, n) in skipped.iter_mut().zip(found) {
                *total += n;
            }
        }
        // A rule that can end after one digit, before a two-byte suffix: the
        // expansion check of `120` is decided after its third byte, that of
        // `100` by the PDA dying after its third byte.
        let fixed = parse_ebnf(
            r#"
            top ::= root "2" [0-4] root
            root ::= [0-1] | "10" [5-9]
            "#,
            "top",
        )
        .unwrap();
        let found = check_against_oracle(&fixed, false, true, &vocab, &sorted, "fixed");
        for (total, n) in skipped.iter_mut().zip(found) {
            *total += n;
        }
        let [dead, popped, universal] = skipped;
        assert!(dead > 0, "no dead-prefix run");
        assert!(popped > 0, "no run decided after pop-outs");
        assert!(universal > 0, "no run past a universal node");

        // Every `(` may open either alternative of `e`, so twelve of them
        // overflow the stack cap, and the universal tail, reachable after
        // any `(`, may be among the stacks dropped: a token whose walk was
        // truncated must not decide that its extensions are accepted.
        let e = parse_ebnf(r#"root ::= "(" root ")" | "(" root | """#, "root").unwrap();
        let twelve = "(".repeat(12);
        let tokens = [
            twelve.clone(),
            format!("{twelve}(z"),
            format!("{twelve}z"),
            format!("{twelve}zz"),
            ")".into(),
        ];
        let vocab = Vocabulary::from_tokens(tokens.map(String::into_bytes).to_vec(), None);
        let sorted = SortedVocabulary::new(&vocab);
        let tailed = xg_grammar::append_free_text_tail(&e);
        check_against_oracle(&tailed, true, true, &vocab, &sorted, "truncated");
    }
}
