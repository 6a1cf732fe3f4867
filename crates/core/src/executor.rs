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
//! (paper §3.3) and reports verdicts for runs of tokens, not single ones.
//! For each matched token it finds the prefix length after which the
//! verdict can no longer change; every following token sharing that prefix
//! gets the same verdict without being matched:
//!
//! * a token on whose prefix every stack died, with no pop-out before that,
//!   is rejected, and so is every extension of that prefix;
//! * a token that died after pop-outs is decided once every pop-out's
//!   context-expansion check is (it died, or reached a final state of the
//!   expanded-suffix automaton), so extensions sharing those bytes too get
//!   its verdict;
//! * a token whose trail holds a *universal* node — one with a byte edge
//!   over `0x00..=0xFF` back to itself, like a free-text tail — is accepted,
//!   and so is every extension of the prefix that reached it, provided the
//!   token's walk dropped no stacks at the
//!   [`MAX_PARALLEL_STACKS`] cap. An extension whose own walk would have
//!   overflowed the cap, and so might have dropped the universal stack, is
//!   reported accepted, which is the answer without the cap; its
//!   truncations are not counted because it is never matched.
//!
//! Preprocessing and runtime mask fills both go through it.

use std::ops::Range;

use xg_automata::{Fsa, FsaScratch, NodeId, Pda, PdaEdge, SuffixMatch};
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
    /// First state whose step hit the stack cap, or `usize::MAX` when the
    /// current prefix was matched without truncation.
    truncated_at: usize,
    /// Stored states already scanned for a universal head, and the first
    /// state holding one (`usize::MAX`: none among the scanned states).
    universal_scanned: usize,
    universal_at: usize,
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
            truncated_at: usize::MAX,
            universal_scanned: 0,
            universal_at: usize::MAX,
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
        if self.truncated_at > len {
            self.truncated_at = usize::MAX;
        }
        self.universal_scanned = self.universal_scanned.min(self.starts.len());
        if self.universal_at >= self.starts.len() {
            self.universal_at = usize::MAX;
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
        let truncations = tree.truncations();
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
        if tree.truncations() != truncations {
            self.truncated_at = self.truncated_at.min(self.prefix_len());
        }
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

    /// The first prefix length after which some stack sits on a universal
    /// node: every extension of that prefix is accepted. `None` when there
    /// is none, or when matching the current prefix hit the stack cap
    /// (a truncated step may have dropped stacks the extensions need).
    fn universal_depth(
        &mut self,
        universal: &[NodeId],
        tree: &PersistentStackTree,
    ) -> Option<usize> {
        if universal.is_empty() || self.truncated_at != usize::MAX {
            return None;
        }
        while self.universal_at == usize::MAX && self.universal_scanned < self.starts.len() {
            let state = self.universal_scanned;
            let end = self
                .starts
                .get(state + 1)
                .copied()
                .unwrap_or(self.heads.len());
            let heads = &self.heads[self.starts[state]..end];
            if heads
                .iter()
                .any(|&h| tree.top(h).is_some_and(|top| universal.contains(&top)))
            {
                self.universal_at = state;
            }
            self.universal_scanned += 1;
        }
        (self.universal_at != usize::MAX).then_some(self.universal_at)
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

/// The universal nodes of `pda`: those with a byte edge over `0x00..=0xFF`
/// back to themselves, so a stack on one survives any byte string.
pub(crate) fn universal_nodes(pda: &Pda) -> Vec<NodeId> {
    (0..pda.node_count() as u32)
        .map(NodeId)
        .filter(|&node| {
            pda.node(node).edges.iter().any(|edge| {
                matches!(*edge, PdaEdge::Bytes { range, target }
                    if target == node && range.lo == 0x00 && range.hi == 0xFF)
            })
        })
        .collect()
}

/// The verdict of a [`match_sorted_tokens`] walk on a run of tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Every byte matched and some stack survived.
    Accepted,
    /// Every stack died, with no pop-out a parent frame could continue.
    Rejected,
    /// Every stack died after pop-outs, and context expansion rejected the
    /// remainder after each of them.
    ExpansionRejected,
    /// Every stack died after a pop-out whose remainder a parent frame may
    /// match: the token is context-dependent.
    Uncertain,
}

/// What a pop-out of the bottom frame means to a [`match_sorted_tokens`]
/// walk.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PopOuts<'f> {
    /// The bottom frame is the root rule (runtime): a pop-out ends the
    /// grammar, so a token whose stacks all die is rejected.
    EndGrammar,
    /// The bottom frame's parents are unknown (preprocessing): a token whose
    /// stacks all die after a pop-out is [`Verdict::Uncertain`], unless the
    /// rule's expanded-suffix automaton, when given, rejects the remainder
    /// after every pop-out (context expansion, §3.2).
    Parent(Option<&'f Fsa>),
}

/// Matches byte-sorted tokens one after another on `trail`, rolling back to
/// the prefix each token shares with its predecessor (paper §3.3), and
/// calls `visit` with consecutive index ranges of `ids` and their verdicts,
/// in order.
///
/// `lcp(i)` is the common-prefix length of `ids[i - 1]` and `ids[i]` (it is
/// not called for `i = 0`); the trail must be fresh, and `universal` must
/// be [`universal_nodes`] of `pda`. After matching a
/// token, the walk finds the prefix length that decided its verdict (see
/// the module docs) and extends the run over every following token whose
/// common prefix with its predecessor is at least that long, without
/// matching them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn match_sorted_tokens(
    pda: &Pda,
    universal: &[NodeId],
    vocab: &Vocabulary,
    tree: &mut PersistentStackTree,
    trail: &mut TokenTrail,
    ids: &[TokenId],
    lcp: impl Fn(usize) -> usize,
    popouts: PopOuts<'_>,
    mut visit: impl FnMut(Range<usize>, Verdict),
) {
    let mut scratch = FsaScratch::default();
    let (mut i, mut keep) = (0, 0);
    while i < ids.len() {
        let bytes = vocab.token_bytes(ids[i]);
        let (verdict, decided_at) = if trail.match_token(pda, tree, bytes, keep) {
            (Verdict::Accepted, trail.universal_depth(universal, tree))
        } else {
            dead_verdict(trail, bytes, popouts, &mut scratch)
        };
        let mut end = i + 1;
        while end < ids.len() {
            keep = lcp(end);
            if decided_at.is_none_or(|depth| keep < depth) {
                break;
            }
            end += 1;
        }
        visit(i..end, verdict);
        i = end;
    }
}

/// The verdict of a token on whose bytes every stack died, and the prefix
/// length that decided it (`None`: a longer token sharing the whole token
/// could still differ).
fn dead_verdict(
    trail: &TokenTrail,
    bytes: &[u8],
    popouts: PopOuts<'_>,
    scratch: &mut FsaScratch,
) -> (Verdict, Option<usize>) {
    // Every token sharing `k` bytes dies at the same offset, after the same
    // pop-outs (all of them before `k`).
    let k = trail
        .dead_at()
        .expect("a rejected token leaves a dead trail");
    match popouts {
        PopOuts::EndGrammar => (Verdict::Rejected, Some(k)),
        PopOuts::Parent(_) if trail.popout_offsets().next().is_none() => {
            (Verdict::Rejected, Some(k))
        }
        PopOuts::Parent(None) => (Verdict::Uncertain, Some(k)),
        PopOuts::Parent(Some(fsa)) => {
            let mut decided_at = k;
            for o in trail.popout_offsets() {
                match fsa.match_remaining_in(&bytes[o..], scratch) {
                    (SuffixMatch::Possible, depth) => {
                        return (Verdict::Uncertain, depth.map(|d| k.max(o + d)));
                    }
                    (SuffixMatch::Rejected, depth) => {
                        let d = depth.expect("a rejection is decided by the byte that kills it");
                        decided_at = decided_at.max(o + d);
                    }
                }
            }
            (Verdict::ExpansionRejected, Some(decided_at))
        }
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

    /// Walks `tokens` (already byte-sorted) from the start of `pda` and
    /// returns each reported run as `(first, end, verdict letter)`.
    fn sorted_runs(pda: &Pda, tokens: &[&[u8]]) -> Vec<(usize, usize, char)> {
        let mut tree = PersistentStackTree::new();
        let heads = start_heads(pda, &mut tree);
        let vocab = Vocabulary::from_tokens(tokens.iter().map(|t| t.to_vec()).collect(), None);
        let ids: Vec<TokenId> = (0..tokens.len() as u32).map(TokenId).collect();
        let mut trail = TokenTrail::new(heads);
        let mut runs = Vec::new();
        match_sorted_tokens(
            pda,
            &universal_nodes(pda),
            &vocab,
            &mut tree,
            &mut trail,
            &ids,
            |i| common_prefix_len(tokens[i - 1], tokens[i]),
            PopOuts::EndGrammar,
            |run, verdict| {
                let letter = match verdict {
                    Verdict::Accepted => 'A',
                    Verdict::Rejected => 'R',
                    Verdict::ExpansionRejected => 'E',
                    Verdict::Uncertain => 'U',
                };
                runs.push((run.start, run.end, letter));
            },
        );
        runs
    }

    #[test]
    fn sorted_walk_skips_tokens_under_a_dead_prefix() {
        // `{x` dies at offset 2, so `{xa` and `{xb` join its run; `{}`
        // shares only one byte and is matched again.
        let tokens: [&[u8]; 5] = [b"[1", b"{x", b"{xa", b"{xb", b"{}"];
        assert_eq!(
            sorted_runs(&json_pda(), &tokens),
            vec![(0, 1, 'A'), (1, 4, 'R'), (4, 5, 'A')]
        );
    }

    #[test]
    fn sorted_walk_accepts_every_extension_past_a_universal_node() {
        let g = parse_ebnf(r#"root ::= "<" [a-z]* ">""#, "root").unwrap();
        let pda = build_pda(
            &xg_grammar::append_free_text_tail(&g),
            &PdaBuildOptions::default(),
        );
        let tokens: [&[u8]; 6] = [b"<a", b"<a>", b"<a>!", b"<a>x<", b"<ab", b"<b>>"];
        // `<a>` reaches the tail, so `<a>!` and `<a>x<` are accepted without
        // matching; `<ab` shares only `<a`, before the tail.
        assert_eq!(
            sorted_runs(&pda, &tokens),
            vec![(0, 1, 'A'), (1, 4, 'A'), (4, 5, 'A'), (5, 6, 'A')]
        );
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
