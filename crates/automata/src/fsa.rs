//! A small nondeterministic finite-state automaton over bytes.
//!
//! Used for the *expanded suffix* automata of context expansion (paper §3.2,
//! Algorithm 2) and by the Outlines-style regex/FSM baseline. Edges are
//! labelled with inclusive byte ranges; there are no epsilon edges.
//!
//! [`Fsa::match_remaining_in`] simulates the automaton over two state
//! bitsets kept in a caller-owned [`FsaScratch`], so checking a remainder
//! allocates nothing per byte. It also reports after how many bytes the
//! verdict was decided: mask-cache classification gives that verdict to
//! every following sorted token that shares those bytes without checking
//! them one by one.

use std::collections::BTreeSet;

use crate::utf8::ByteRange;

/// Identifier of a state inside an [`Fsa`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// Returns the state id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct State {
    edges: Vec<(ByteRange, StateId)>,
    is_final: bool,
}

/// A byte-level NFA without epsilon edges.
///
/// # Examples
///
/// ```
/// use xg_automata::fsa::Fsa;
/// use xg_automata::utf8::ByteRange;
///
/// let mut fsa = Fsa::new();
/// let s0 = fsa.start();
/// let s1 = fsa.add_state();
/// fsa.add_edge(s0, ByteRange::new(b'a', b'z'), s1);
/// fsa.set_final(s1, true);
/// assert!(fsa.accepts(b"q"));
/// assert!(!fsa.accepts(b"qq"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fsa {
    states: Vec<State>,
    start: StateId,
}

impl Default for Fsa {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of running an FSA over the *remaining* bytes of a
/// context-dependent token during context expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuffixMatch {
    /// The remaining bytes can neither extend to nor contain an accepted
    /// string: the token is certainly invalid in every parent context.
    Rejected,
    /// The remaining bytes are a prefix of an accepted string, or start with
    /// an accepted string; validity still depends on the runtime stack.
    Possible,
}

/// Reusable state sets for [`Fsa::match_remaining_in`]: one bit per
/// state for the current and the next step. Reusing one scratch across
/// calls makes matching allocation-free once the sets have grown to the
/// largest automaton matched.
#[derive(Debug, Clone, Default)]
pub struct FsaScratch {
    current: Vec<u64>,
    next: Vec<u64>,
}

impl Fsa {
    /// Creates an FSA with a single non-final start state.
    pub fn new() -> Self {
        Fsa {
            states: vec![State::default()],
            start: StateId(0),
        }
    }

    /// Returns the start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Returns the number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if the FSA has no states (never true in practice; the
    /// start state always exists).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Adds a fresh non-final state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(self.states.len() as u32);
        self.states.push(State::default());
        id
    }

    /// Adds an edge labelled with a byte range.
    ///
    /// # Panics
    ///
    /// Panics if either state id is out of range.
    pub fn add_edge(&mut self, from: StateId, range: ByteRange, to: StateId) {
        assert!(to.index() < self.states.len(), "edge target out of range");
        self.states[from.index()].edges.push((range, to));
    }

    /// Marks a state as final or not.
    pub fn set_final(&mut self, state: StateId, is_final: bool) {
        self.states[state.index()].is_final = is_final;
    }

    /// Returns `true` if the state is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.states[state.index()].is_final
    }

    /// Returns the outgoing edges of a state.
    pub fn edges(&self, state: StateId) -> &[(ByteRange, StateId)] {
        &self.states[state.index()].edges
    }

    /// Returns `true` if any state is final (the automaton accepts at least
    /// one string, assuming all final states are reachable).
    pub fn has_final_state(&self) -> bool {
        self.states.iter().any(|s| s.is_final)
    }

    /// Returns `true` if a final state is reachable from the start state,
    /// i.e. the automaton's language is non-empty.
    pub fn has_reachable_final_state(&self) -> bool {
        let mut visited = vec![false; self.states.len()];
        let mut stack = vec![self.start];
        visited[self.start.index()] = true;
        while let Some(s) = stack.pop() {
            if self.states[s.index()].is_final {
                return true;
            }
            for &(_, to) in &self.states[s.index()].edges {
                if !visited[to.index()] {
                    visited[to.index()] = true;
                    stack.push(to);
                }
            }
        }
        false
    }

    /// Steps a set of states over one byte.
    pub fn step(&self, states: &BTreeSet<StateId>, byte: u8) -> BTreeSet<StateId> {
        let mut next = BTreeSet::new();
        for &s in states {
            for &(range, to) in &self.states[s.index()].edges {
                if range.contains(byte) {
                    next.insert(to);
                }
            }
        }
        next
    }

    /// Returns `true` if the FSA accepts exactly `input`.
    pub fn accepts(&self, input: &[u8]) -> bool {
        let mut states: BTreeSet<StateId> = BTreeSet::new();
        states.insert(self.start);
        for &b in input {
            states = self.step(&states, b);
            if states.is_empty() {
                return false;
            }
        }
        states.iter().any(|s| self.is_final(*s))
    }

    /// Classifies the remaining bytes of a context-dependent token against
    /// this expanded-suffix automaton (paper §3.2): the remainder is
    /// [`SuffixMatch::Possible`] if it is a prefix of an accepted string or
    /// starts with an accepted string, and [`SuffixMatch::Rejected`]
    /// otherwise.
    pub fn match_remaining(&self, remaining: &[u8]) -> SuffixMatch {
        self.match_remaining_in(remaining, &mut FsaScratch::default())
            .0
    }

    /// [`match_remaining`](Self::match_remaining) over reusable state sets,
    /// also returning the number of bytes after which the verdict was
    /// decided: every state died (rejected) or a final state was reached
    /// (possible). Any remainder that shares those bytes gets the same
    /// verdict. `None` when the bytes ran out with live, non-final states:
    /// the remainder is a proper prefix of an accepted string, and a longer
    /// one could still be rejected.
    pub fn match_remaining_in(
        &self,
        remaining: &[u8],
        scratch: &mut FsaScratch,
    ) -> (SuffixMatch, Option<usize>) {
        if self.is_final(self.start) {
            return (SuffixMatch::Possible, Some(0));
        }
        let FsaScratch { current, next } = scratch;
        let words = self.states.len().div_ceil(64);
        current.clear();
        current.resize(words, 0);
        next.clear();
        next.resize(words, 0);
        current[self.start.index() / 64] |= 1 << (self.start.index() % 64);
        for (i, &b) in remaining.iter().enumerate() {
            next.fill(0);
            let (mut alive, mut reached_final) = (false, false);
            for (w, &word) in current.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let state = &self.states[w * 64 + bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                    for &(range, to) in &state.edges {
                        if range.contains(b) {
                            next[to.index() / 64] |= 1 << (to.index() % 64);
                            alive = true;
                            reached_final |= self.states[to.index()].is_final;
                        }
                    }
                }
            }
            if !alive {
                return (SuffixMatch::Rejected, Some(i + 1));
            }
            if reached_final {
                // The remainder starts with an accepted expanded suffix.
                return (SuffixMatch::Possible, Some(i + 1));
            }
            std::mem::swap(current, next);
        }
        // Consumed every byte with live states: the remainder is a prefix of
        // an accepted string.
        (SuffixMatch::Possible, None)
    }

    /// Merges `other` into `self` as an alternative (language union). The
    /// other automaton's start-state edges are copied onto this automaton's
    /// start state.
    pub fn union_with(&mut self, other: &Fsa) {
        if other.states.len() == 1 && other.states[0].edges.is_empty() && !other.states[0].is_final
        {
            return;
        }
        let offset = self.states.len() as u32;
        for state in &other.states {
            let mut new_state = State {
                edges: Vec::with_capacity(state.edges.len()),
                is_final: state.is_final,
            };
            for &(range, to) in &state.edges {
                new_state.edges.push((range, StateId(to.0 + offset)));
            }
            self.states.push(new_state);
        }
        // Copy the other start's edges and finality onto our start.
        let other_start = StateId(other.start.0 + offset);
        let copied: Vec<(ByteRange, StateId)> = self.states[other_start.index()].edges.clone();
        let other_final = self.states[other_start.index()].is_final;
        let start_idx = self.start.index();
        self.states[start_idx].edges.extend(copied);
        if other_final {
            self.states[start_idx].is_final = true;
        }
    }

    /// Total number of edges, mostly for statistics and tests.
    pub fn edge_count(&self) -> usize {
        self.states.iter().map(|s| s.edges.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn literal_fsa(s: &[u8]) -> Fsa {
        let mut fsa = Fsa::new();
        let mut cur = fsa.start();
        for &b in s {
            let next = fsa.add_state();
            fsa.add_edge(cur, ByteRange::new(b, b), next);
            cur = next;
        }
        fsa.set_final(cur, true);
        fsa
    }

    #[test]
    fn accepts_literal() {
        let fsa = literal_fsa(b"abc");
        assert!(fsa.accepts(b"abc"));
        assert!(!fsa.accepts(b"ab"));
        assert!(!fsa.accepts(b"abcd"));
        assert!(!fsa.accepts(b"abd"));
    }

    #[test]
    fn match_remaining_prefix_and_superstring() {
        let fsa = literal_fsa(b", \"");
        // A strict prefix of an accepted string.
        assert_eq!(fsa.match_remaining(b","), SuffixMatch::Possible);
        // Starts with an accepted string, extra bytes afterwards.
        assert_eq!(fsa.match_remaining(b", \"abc"), SuffixMatch::Possible);
        // Diverges immediately.
        assert_eq!(fsa.match_remaining(b"x"), SuffixMatch::Rejected);
        // Diverges after the prefix.
        assert_eq!(fsa.match_remaining(b",x"), SuffixMatch::Rejected);
    }

    #[test]
    fn empty_remaining_is_possible() {
        let fsa = literal_fsa(b"]");
        assert_eq!(fsa.match_remaining(b""), SuffixMatch::Possible);
    }

    #[test]
    fn union_accepts_both_languages() {
        let mut a = literal_fsa(b"],");
        let b = literal_fsa(b"}");
        a.union_with(&b);
        assert!(a.accepts(b"],"));
        assert!(a.accepts(b"}"));
        assert!(!a.accepts(b"],}"));
        assert_eq!(a.match_remaining(b"}x"), SuffixMatch::Possible);
        assert_eq!(a.match_remaining(b"]x"), SuffixMatch::Rejected);
    }

    #[test]
    fn final_start_state_accepts_empty() {
        let mut fsa = Fsa::new();
        let s = fsa.start();
        fsa.set_final(s, true);
        assert!(fsa.accepts(b""));
        assert_eq!(fsa.match_remaining(b"anything"), SuffixMatch::Possible);
    }

    #[test]
    fn match_remaining_reports_the_deciding_byte() {
        let fsa = literal_fsa(b", \"");
        let mut scratch = FsaScratch::default();
        let mut check = |bytes: &[u8]| fsa.match_remaining_in(bytes, &mut scratch);
        assert_eq!(check(b"x"), (SuffixMatch::Rejected, Some(1)));
        assert_eq!(check(b",x"), (SuffixMatch::Rejected, Some(2)));
        assert_eq!(check(b", \"abc"), (SuffixMatch::Possible, Some(3)));
        // A proper prefix of an accepted string is possible but undecided.
        assert_eq!(check(b", "), (SuffixMatch::Possible, None));
        assert_eq!(check(b""), (SuffixMatch::Possible, None));
        let mut always = Fsa::new();
        let s = always.start();
        always.set_final(s, true);
        assert_eq!(
            always.match_remaining_in(b"x", &mut scratch),
            (SuffixMatch::Possible, Some(0))
        );
    }

    #[test]
    fn bitset_simulation_agrees_with_set_stepping() {
        // Over 64 states, so the state sets span several words.
        let mut fsa = literal_fsa(&[b'a'; 70]);
        fsa.union_with(&literal_fsa(b"ab"));
        fsa.union_with(&literal_fsa(b"b"));
        let reference = |bytes: &[u8]| {
            let mut states = BTreeSet::from([fsa.start()]);
            for (i, &b) in bytes.iter().enumerate() {
                states = fsa.step(&states, b);
                if states.is_empty() {
                    return (SuffixMatch::Rejected, Some(i + 1));
                }
                if states.iter().any(|s| fsa.is_final(*s)) {
                    return (SuffixMatch::Possible, Some(i + 1));
                }
            }
            (SuffixMatch::Possible, None)
        };
        let mut scratch = FsaScratch::default();
        let mut inputs: Vec<Vec<u8>> = vec![b"ab".to_vec(), b"ac".to_vec(), b"bx".to_vec()];
        for n in [1, 63, 64, 65, 69, 70, 71] {
            inputs.push(vec![b'a'; n]);
            inputs.push([vec![b'a'; n], b"z".to_vec()].concat());
        }
        for input in inputs {
            assert_eq!(
                fsa.match_remaining_in(&input, &mut scratch),
                reference(&input),
                "{input:?}"
            );
        }
    }

    #[test]
    fn union_with_empty_is_noop() {
        let mut a = literal_fsa(b"x");
        let before = a.len();
        a.union_with(&Fsa::new());
        assert_eq!(a.len(), before);
    }
}
