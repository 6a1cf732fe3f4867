//! Random EBNF grammar generator shared by the differential tests and the
//! mask-cache oracle tests of `xg-core` (which include this file by path).
//!
//! Grammars are built from literals, character classes, sequences, choices,
//! bounded repeats and guarded recursion over a small byte alphabet.

// Not every includer uses every item.
#![allow(dead_code)]

use rand::rngs::SmallRng;
use rand::Rng;

/// Characters safe to use inside EBNF literals without escaping, which also
/// all exist as single-byte tokens in the synthetic vocabulary.
const LITERAL_CHARS: &[u8] = b"abcxyz019,;:=()[]{}<>";

/// Character-class templates (source text, member bytes for string
/// generation).
const CLASS_TEMPLATES: &[(&str, &[u8])] = &[
    ("[a-c]", b"abc"),
    ("[0-9]", b"0123456789"),
    ("[xyz]", b"xyz"),
    ("[a-z]", b"abcxyz"),
    ("[0-3]", b"0123"),
];

/// Generates a random EBNF expression of bounded depth, collecting the bytes
/// that can appear in matching strings into `alphabet`.
fn random_expr(
    rng: &mut SmallRng,
    depth: usize,
    helpers: &[&str],
    alphabet: &mut Vec<u8>,
) -> String {
    let variants = if depth == 0 { 2 } else { 6 };
    match rng.gen_range(0..variants) {
        // Literal of 1-3 safe characters.
        0 => {
            let len = rng.gen_range(1..=3);
            let lit: Vec<u8> = (0..len)
                .map(|_| LITERAL_CHARS[rng.gen_range(0..LITERAL_CHARS.len())])
                .collect();
            alphabet.extend_from_slice(&lit);
            format!("\"{}\"", String::from_utf8(lit).unwrap())
        }
        // Character class.
        1 => {
            let (src, members) = CLASS_TEMPLATES[rng.gen_range(0..CLASS_TEMPLATES.len())];
            alphabet.extend_from_slice(members);
            src.to_string()
        }
        // Sequence.
        2 => {
            let n = rng.gen_range(2..=3);
            let items: Vec<String> = (0..n)
                .map(|_| random_expr(rng, depth - 1, helpers, alphabet))
                .collect();
            items.join(" ")
        }
        // Choice (parenthesized so it nests anywhere).
        3 => {
            let n = rng.gen_range(2..=3);
            let items: Vec<String> = (0..n)
                .map(|_| random_expr(rng, depth - 1, helpers, alphabet))
                .collect();
            format!("({})", items.join(" | "))
        }
        // Bounded or unbounded repeat.
        4 => {
            let inner = random_expr(rng, depth - 1, helpers, alphabet);
            let op = ["*", "+", "?", "{1,3}", "{2}"][rng.gen_range(0..5usize)];
            format!("({inner}){op}")
        }
        // Reference to a helper rule (falls back to a literal when there is
        // none).
        _ => {
            if helpers.is_empty() {
                random_expr(rng, 0, helpers, alphabet)
            } else {
                helpers[rng.gen_range(0..helpers.len())].to_string()
            }
        }
    }
}

/// A randomly generated grammar: EBNF source plus the byte alphabet its
/// sentences are drawn from.
pub struct RandomGrammar {
    /// EBNF source; the start rule is `root`.
    pub source: String,
    /// Bytes that can appear in sentences, sorted and deduplicated.
    pub alphabet: Vec<u8>,
}

/// Generates a random grammar with a root rule and 0-2 helper rules; helpers
/// may be self-recursive, always guarded by delimiter literals so the
/// recursion is well-founded.
pub fn random_grammar(rng: &mut SmallRng) -> RandomGrammar {
    let helper_names: &[&str] = match rng.gen_range(0..3) {
        0 => &[],
        1 => &["r1"],
        _ => &["r1", "r2"],
    };
    let mut alphabet = Vec::new();
    let mut source = String::new();
    // Helpers can only reference later helpers (or themselves, guarded), so
    // every name is defined and unguarded cycles are impossible.
    for (i, name) in helper_names.iter().enumerate() {
        let later = &helper_names[i + 1..];
        let body = random_expr(rng, 1, later, &mut alphabet);
        if rng.gen_bool(0.4) {
            // Guarded self-recursion: r ::= "(" r ")" | <body>
            let (open, close) = [("(", ")"), ("[", "]"), ("{", "}")][rng.gen_range(0..3usize)];
            alphabet.extend_from_slice(open.as_bytes());
            alphabet.extend_from_slice(close.as_bytes());
            source.push_str(&format!(
                "{name} ::= \"{open}\" {name} \"{close}\" | {body}\n"
            ));
        } else {
            source.push_str(&format!("{name} ::= {body}\n"));
        }
    }
    let root = random_expr(rng, 2, helper_names, &mut alphabet);
    source.push_str(&format!("root ::= {root}\n"));
    alphabet.sort_unstable();
    alphabet.dedup();
    RandomGrammar { source, alphabet }
}
