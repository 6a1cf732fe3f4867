//! Execution of the byte-level PDA over persistent stacks.
//!
//! This module contains the low-level stepping machinery shared by the
//! preprocessing phase (classifying tokens per automaton node for the
//! adaptive token mask cache) and the runtime phase (checking
//! context-dependent tokens against the full stack, and advancing the
//! matcher when a token is accepted).
//!
//! Stepping a [`TokenTrail`] allocates nothing per byte beyond new stack-tree
//! nodes. Stack handles are deduplicated with the generation-stamped marks
//! of [`PersistentStackTree`] instead of a hash set (the epsilon closure and
//! the byte step each start a new generation), automaton edges are read in
//! place, and the trail keeps its head sets in one flat buffer and reuses
//! its closure buffers.
//!
//! `match_sorted_tokens` walks a byte-sorted token list through a trail
//! and skips every token that extends a prefix on which all stacks already
//! died (the sorted-vocabulary subtree skip of paper §3.3). Preprocessing
//! and runtime mask fills both go through it.

use xg_automata::{Pda, PdaEdge};
use xg_tokenizer::{TokenId, Vocabulary};

use crate::persistent_stack::{PersistentStackTree, StackHandle};

/// Hard cap on the number of parallel stacks tracked at once. A step that
/// would exceed it keeps a subset of the stacks and counts a truncation on
/// the stack tree, surfaced as `stack_truncations` in
/// [`MaskCacheStats`](crate::MaskCacheStats) and
/// [`MatcherStats`](crate::MatcherStats).
pub const MAX_PARALLEL_STACKS: usize = 512;

/// Expands a set of stack heads into their epsilon closure: every
/// configuration reachable without consuming a byte, by entering referenced
/// rules (push) or returning from completed rules (pop).
///
/// `on_popout` is invoked for every configuration that reaches the final node
/// of the *bottom* frame — i.e. that could pop out of the frame the matching
/// started in, which the caller interprets as either "needs parent context"
/// (preprocessing) or "the whole grammar can terminate here" (runtime).
pub fn closure(
    pda: &Pda,
    tree: &mut PersistentStackTree,
    heads: &[StackHandle],
    on_popout: impl FnMut(StackHandle),
) -> Vec<StackHandle> {
    let mut out = Vec::with_capacity(heads.len() * 2);
    closure_into(pda, tree, heads, &mut Vec::new(), &mut out, on_popout);
    out
}

/// [`closure`] writing into caller-owned buffers: `out` receives the
/// expanded heads (it is cleared first), `queue` is scratch space.
fn closure_into(
    pda: &Pda,
    tree: &mut PersistentStackTree,
    heads: &[StackHandle],
    queue: &mut Vec<StackHandle>,
    out: &mut Vec<StackHandle>,
    mut on_popout: impl FnMut(StackHandle),
) {
    tree.new_mark_generation();
    queue.clear();
    out.clear();
    for &h in heads {
        if tree.mark(h) {
            queue.push(h);
        }
    }
    while let Some(h) = queue.pop() {
        out.push(h);
        if out.len() >= MAX_PARALLEL_STACKS {
            tree.record_truncation();
            break;
        }
        let top = tree.top(h).expect("stack heads always carry a top node");
        let node = pda.node(top);
        // Expand rule references (push).
        for edge in &node.edges {
            if let PdaEdge::Rule { rule, target } = *edge {
                let with_return = tree.replace_top(h, target);
                let child = tree.push(with_return, pda.rule(rule).start);
                if tree.mark(child) {
                    queue.push(child);
                }
            }
        }
        // Return to the parent rule (pop), or report a pop-out of the bottom
        // frame.
        if node.is_final {
            if tree.depth(h) > 1 {
                let popped = tree.pop(h);
                if tree.mark(popped) {
                    queue.push(popped);
                }
            } else {
                on_popout(h);
            }
        }
    }
}

/// Moves every head of `expanded` (an epsilon closure) over `byte`,
/// appending the deduplicated survivors to `out`.
fn step_byte_into(
    pda: &Pda,
    tree: &mut PersistentStackTree,
    expanded: &[StackHandle],
    byte: u8,
    out: &mut Vec<StackHandle>,
) {
    tree.new_mark_generation();
    let base = out.len();
    for (i, &h) in expanded.iter().enumerate() {
        let top = tree.top(h).expect("stack heads always carry a top node");
        for edge in &pda.node(top).edges {
            if let PdaEdge::Bytes { range, target } = *edge {
                if range.contains(byte) {
                    let nh = tree.replace_top(h, target);
                    if tree.mark(nh) {
                        out.push(nh);
                    }
                }
            }
        }
        if out.len() - base >= MAX_PARALLEL_STACKS {
            if i + 1 < expanded.len() {
                tree.record_truncation();
            }
            break;
        }
    }
}

/// Advances a set of stack heads over one byte. Returns the deduplicated set
/// of surviving heads (empty when the byte is not matchable).
pub fn advance_byte(
    pda: &Pda,
    tree: &mut PersistentStackTree,
    heads: &[StackHandle],
    byte: u8,
    on_popout: impl FnMut(StackHandle),
) -> Vec<StackHandle> {
    let expanded = closure(pda, tree, heads, on_popout);
    let mut out = Vec::with_capacity(expanded.len());
    step_byte_into(pda, tree, &expanded, byte, &mut out);
    out
}

/// Returns `true` if, without consuming more bytes, some stack can pop out of
/// its bottom frame (for a matcher whose bottom frame is the root rule this
/// means the generated text is a complete sentence).
pub fn can_pop_out(pda: &Pda, tree: &mut PersistentStackTree, heads: &[StackHandle]) -> bool {
    let mut can = false;
    let _ = closure(pda, tree, heads, |_| can = true);
    can
}

/// A resumable byte-matching trail: the sequence of stack-head sets after
/// each consumed byte, kept so that matching can be rolled back to any prefix
/// length in O(1).
///
/// This is the mechanism of paper §3.3: when checking a sorted list of tokens
/// (during preprocessing, or the context-dependent tokens of one stack at
/// runtime), adjacent tokens share long prefixes; the trail rolls back to the
/// shared prefix instead of re-matching it.
///
/// Only live head sets are stored, back to back in one buffer: once every
/// stack has died, the remaining positions of a token record only that no
/// pop-out happened there.
#[derive(Debug)]
pub struct TokenTrail {
    /// The head sets of the live states, concatenated: state `i` occupies
    /// `heads[starts[i]..starts[i + 1]]` (the last one runs to the end).
    heads: Vec<StackHandle>,
    /// Start of each stored state in `heads`. State 0 (the initial heads) is
    /// always stored; state `i > 0` is stored iff it is non-empty, so the
    /// stored states are a prefix of the trail.
    starts: Vec<usize>,
    /// `popout[i]` = while advancing from state `i`, some configuration
    /// could pop out of the bottom frame (so the remainder starting at byte
    /// offset `i` would have to be matched by parent context). Its length is
    /// the current prefix length.
    popout: Vec<bool>,
    /// Reused scratch buffers of the epsilon closure.
    queue: Vec<StackHandle>,
    expanded: Vec<StackHandle>,
    /// Bytes advanced from a live state (for the §3.3 statistic).
    bytes_advanced: u64,
}

impl TokenTrail {
    /// Creates a trail starting from the given heads.
    pub fn new(initial: Vec<StackHandle>) -> Self {
        TokenTrail {
            heads: initial,
            starts: vec![0],
            popout: Vec::new(),
            queue: Vec::new(),
            expanded: Vec::new(),
            bytes_advanced: 0,
        }
    }

    /// Current prefix length in bytes.
    pub fn prefix_len(&self) -> usize {
        self.popout.len()
    }

    /// Rolls the trail back so that only `len` bytes remain matched.
    pub fn rollback_to(&mut self, len: usize) {
        debug_assert!(len <= self.prefix_len());
        self.popout.truncate(len);
        if self.starts.len() > len + 1 {
            self.heads.truncate(self.starts[len + 1]);
            self.starts.truncate(len + 1);
        }
    }

    /// Advances the trail by one byte. Returns `true` if at least one stack
    /// survived.
    pub fn advance(&mut self, pda: &Pda, tree: &mut PersistentStackTree, byte: u8) -> bool {
        if self.current_heads().is_empty() {
            self.popout.push(false);
            return false;
        }
        let start = *self.starts.last().expect("state 0 is always stored");
        let end = self.heads.len();
        let mut popout_here = false;
        closure_into(
            pda,
            tree,
            &self.heads[start..],
            &mut self.queue,
            &mut self.expanded,
            |_| popout_here = true,
        );
        step_byte_into(pda, tree, &self.expanded, byte, &mut self.heads);
        self.bytes_advanced += 1;
        self.popout.push(popout_here);
        let alive = self.heads.len() > end;
        if alive {
            self.starts.push(end);
        }
        alive
    }

    /// Matches `token` assuming the trail currently holds a prefix of it of
    /// length `keep` (the caller computes the longest common prefix with the
    /// previously matched token). Returns the final state's liveness.
    ///
    /// Once every stack has died the remaining bytes are recorded without
    /// automaton work: pop-out offsets recorded earlier still apply, and a
    /// later token sharing a longer prefix rolls back into the dead tail.
    pub fn match_token(
        &mut self,
        pda: &Pda,
        tree: &mut PersistentStackTree,
        token: &[u8],
        keep: usize,
    ) -> bool {
        self.rollback_to(keep);
        for &b in &token[keep..] {
            if !self.advance(pda, tree, b) {
                self.popout.resize(token.len(), false);
                return false;
            }
        }
        !self.current_heads().is_empty()
    }

    /// Heads after the full current prefix.
    pub fn current_heads(&self) -> &[StackHandle] {
        let last = self.starts.len() - 1;
        if last == self.prefix_len() {
            &self.heads[self.starts[last]..]
        } else {
            &[]
        }
    }

    /// When every stack has died, the byte offset of the first empty state:
    /// any token sharing that many bytes with the current prefix dies at the
    /// same point. `None` while some stack is alive.
    fn dead_at(&self) -> Option<usize> {
        if !self.current_heads().is_empty() {
            None
        } else if self.heads.is_empty() {
            Some(0)
        } else {
            Some(self.starts.len())
        }
    }

    /// Byte offsets `o < len` at which a pop-out of the bottom frame was
    /// possible (the remainder `token[o..]` would be matched by the parent
    /// context). Only offsets within the current prefix are reported.
    pub fn popout_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.popout
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| if p { Some(i) } else { None })
    }

    /// Total number of bytes advanced over the lifetime of the trail,
    /// counting only real automaton work: neither rolled-back reuse nor
    /// bytes after every stack has died.
    pub fn bytes_advanced(&self) -> u64 {
        self.bytes_advanced
    }
}

/// How one token of a [`match_sorted_tokens`] walk ended.
#[derive(Debug)]
pub(crate) enum SortedMatch<'t> {
    /// Every byte matched and some stack survived.
    Accepted,
    /// Every stack died; the trail holds the token, so the caller can read
    /// its [pop-out offsets](TokenTrail::popout_offsets).
    Rejected(&'t TokenTrail),
    /// Not matched: the token extends a prefix on which every stack had
    /// already died, so it is rejected.
    DeadPrefix,
}

/// Matches byte-sorted tokens one after another on `trail`, rolling back to
/// the prefix each token shares with its predecessor (paper §3.3).
///
/// `tokens` yields each token with its common-prefix length with the
/// previous token (0 for the first; the trail must be fresh). `visit` is
/// called once per token, in order.
///
/// When a token dies at byte offset `k`, every following token sharing at
/// least `k` bytes dies there too, so the walk reports them as
/// [`SortedMatch::DeadPrefix`] without matching, up to the first token that
/// shares fewer. Unless `skip_past_popouts`, a token whose matching recorded
/// a pop-out before `k` starts no skip: in preprocessing the followers'
/// remainders after the pop-out differ and the caller must inspect each of
/// them. At runtime a pop-out ends the whole grammar, so nothing can follow
/// it and the skip applies regardless.
pub(crate) fn match_sorted_tokens(
    pda: &Pda,
    vocab: &Vocabulary,
    tree: &mut PersistentStackTree,
    trail: &mut TokenTrail,
    tokens: impl IntoIterator<Item = (TokenId, usize)>,
    skip_past_popouts: bool,
    mut visit: impl FnMut(TokenId, SortedMatch<'_>),
) {
    let mut dead_prefix = usize::MAX;
    for (token, lcp) in tokens {
        if lcp >= dead_prefix {
            visit(token, SortedMatch::DeadPrefix);
            continue;
        }
        dead_prefix = usize::MAX;
        if trail.match_token(pda, tree, vocab.token_bytes(token), lcp) {
            visit(token, SortedMatch::Accepted);
            continue;
        }
        let k = trail
            .dead_at()
            .expect("a rejected token leaves a dead trail");
        if skip_past_popouts || !trail.popout[..k].contains(&true) {
            dead_prefix = k;
        }
        visit(token, SortedMatch::Rejected(trail));
    }
}

/// Longest common prefix length of two byte strings.
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_automata::{build_pda, PdaBuildOptions};
    use xg_grammar::parse_ebnf;

    fn json_pda() -> Pda {
        build_pda(
            &xg_grammar::builtin::json_grammar(),
            &PdaBuildOptions::default(),
        )
    }

    fn start_heads(pda: &Pda, tree: &mut PersistentStackTree) -> Vec<StackHandle> {
        vec![tree.push(StackHandle::ROOT, pda.root_start())]
    }

    #[test]
    fn advance_byte_matches_simple_matcher() {
        let pda = json_pda();
        let mut tree = PersistentStackTree::new();
        let mut heads = start_heads(&pda, &mut tree);
        let input = br#"{"a": [1, {"b": null}]}"#;
        let mut simple = xg_automata::SimpleMatcher::new(&pda);
        for &b in input.iter() {
            heads = advance_byte(&pda, &mut tree, &heads, b, |_| {});
            let simple_alive = simple.advance_byte(b) == xg_automata::StepResult::Alive;
            assert_eq!(!heads.is_empty(), simple_alive, "divergence at byte {b}");
        }
        assert!(can_pop_out(&pda, &mut tree, &heads));
    }

    #[test]
    fn rejection_matches_simple_matcher() {
        let pda = json_pda();
        let mut tree = PersistentStackTree::new();
        let mut heads = start_heads(&pda, &mut tree);
        for &b in br#"{"a" 1}"#.iter() {
            heads = advance_byte(&pda, &mut tree, &heads, b, |_| {});
            if heads.is_empty() {
                break;
            }
        }
        assert!(heads.is_empty());
    }

    #[test]
    fn trail_rollback_reuses_prefixes() {
        let pda = json_pda();
        let mut tree = PersistentStackTree::new();
        let heads = start_heads(&pda, &mut tree);
        let mut trail = TokenTrail::new(heads);
        // Match two tokens sharing the prefix `{"na`.
        assert!(trail.match_token(&pda, &mut tree, br#"{"name"#, 0));
        let advanced_first = trail.bytes_advanced();
        let lcp = common_prefix_len(br#"{"name"#, br#"{"nam_x"#);
        assert!(trail.match_token(&pda, &mut tree, br#"{"nam_x"#, lcp));
        // Only the divergent suffix was re-matched.
        assert_eq!(trail.bytes_advanced(), advanced_first + (7 - lcp) as u64);
    }

    #[test]
    fn trail_records_popout_offsets() {
        // str is referenced from a bracketed context; matching `"ab"]` from
        // the str rule start pops out after the closing quote (offset 4).
        let g = parse_ebnf(
            r#"
            root ::= "[" str "]"
            str ::= "\"" [a-z]* "\""
            "#,
            "root",
        )
        .unwrap();
        let pda = build_pda(
            &g,
            &PdaBuildOptions {
                inline_rules: false,
                ..Default::default()
            },
        );
        let str_start = pda
            .rules()
            .iter()
            .find(|r| r.name == "str")
            .map(|r| r.start)
            .expect("str rule exists");
        let mut tree = PersistentStackTree::new();
        let head = tree.push(StackHandle::ROOT, str_start);
        let mut trail = TokenTrail::new(vec![head]);
        let alive = trail.match_token(&pda, &mut tree, b"\"ab\"]", 0);
        // The token is not matchable locally (the `]` belongs to the parent)…
        assert!(!alive);
        // …but a pop-out at offset 4 was recorded (remainder `]`).
        let offsets: Vec<usize> = trail.popout_offsets().collect();
        assert_eq!(offsets, vec![4]);
    }

    #[test]
    fn dead_bytes_are_not_counted_as_advanced() {
        let pda = json_pda();
        let mut tree = PersistentStackTree::new();
        let heads = start_heads(&pda, &mut tree);
        let mut trail = TokenTrail::new(heads);
        // `x` kills every stack: one live step, then nothing.
        assert!(!trail.match_token(&pda, &mut tree, b"xyz", 0));
        assert_eq!(trail.bytes_advanced(), 1);
        assert_eq!(trail.dead_at(), Some(1));
        // Extending the dead prefix does no automaton work either.
        assert!(!trail.match_token(&pda, &mut tree, b"xyzzy", 3));
        assert_eq!(trail.bytes_advanced(), 1);
        assert!(!trail.advance(&pda, &mut tree, b'!'));
        assert_eq!(trail.bytes_advanced(), 1);
    }

    #[test]
    fn sorted_walk_skips_tokens_under_a_dead_prefix() {
        let pda = json_pda();
        let mut tree = PersistentStackTree::new();
        let heads = start_heads(&pda, &mut tree);
        let tokens: [&[u8]; 5] = [b"[1", b"{x", b"{xa", b"{xb", b"{}"];
        let vocab = Vocabulary::from_tokens(tokens.iter().map(|t| t.to_vec()).collect(), None);
        let with_lcp = (0..tokens.len()).map(|i| {
            let lcp = if i == 0 {
                0
            } else {
                common_prefix_len(tokens[i - 1], tokens[i])
            };
            (TokenId(i as u32), lcp)
        });
        let mut trail = TokenTrail::new(heads);
        let mut steps = Vec::new();
        match_sorted_tokens(
            &pda,
            &vocab,
            &mut tree,
            &mut trail,
            with_lcp,
            false,
            |_, step| {
                steps.push(match step {
                    SortedMatch::Accepted => 'A',
                    SortedMatch::Rejected(_) => 'R',
                    SortedMatch::DeadPrefix => 'D',
                })
            },
        );
        // `{x` dies at offset 2, so `{xa` and `{xb` are skipped; `{}` shares
        // only one byte and is matched again.
        assert_eq!(steps, vec!['A', 'R', 'D', 'D', 'A']);
    }

    #[test]
    fn dead_trail_can_still_be_extended_and_rolled_back() {
        let pda = json_pda();
        let mut tree = PersistentStackTree::new();
        let heads = start_heads(&pda, &mut tree);
        let mut trail = TokenTrail::new(heads);
        assert!(!trail.match_token(&pda, &mut tree, b"{x}", 0));
        // Next token shares the prefix `{` only; after rollback it matches.
        assert!(trail.match_token(&pda, &mut tree, b"{}", 1));
    }

    #[test]
    fn hitting_the_stack_cap_is_counted() {
        // Every `(` may open either alternative of `e`, so n open brackets
        // leave 2^n distinct stacks: a dozen of them exceed the cap.
        let g = parse_ebnf(
            r#"
            root ::= e
            e ::= "(" e ")" | "(" e | ""
            "#,
            "root",
        )
        .unwrap();
        let pda = build_pda(&g, &PdaBuildOptions::default());
        let mut tree = PersistentStackTree::new();
        let mut heads = start_heads(&pda, &mut tree);
        for _ in 0..3 {
            heads = advance_byte(&pda, &mut tree, &heads, b'(', |_| {});
        }
        assert_eq!(tree.truncations(), 0);
        for _ in 0..9 {
            heads = advance_byte(&pda, &mut tree, &heads, b'(', |_| {});
        }
        assert!(tree.truncations() > 0);
        assert!(heads.len() <= MAX_PARALLEL_STACKS);
    }

    #[test]
    fn closure_reports_termination_via_popout() {
        let g = parse_ebnf(r#"root ::= "ab""#, "root").unwrap();
        let pda = build_pda(&g, &PdaBuildOptions::default());
        let mut tree = PersistentStackTree::new();
        let mut heads = vec![tree.push(StackHandle::ROOT, pda.root_start())];
        assert!(!can_pop_out(&pda, &mut tree, &heads));
        for &b in b"ab" {
            heads = advance_byte(&pda, &mut tree, &heads, b, |_| {});
        }
        assert!(can_pop_out(&pda, &mut tree, &heads));
    }
}
