//! Output checks that do not trust the engine under test, and the output
//! digest.
//!
//! Grammar lanes are accepted by `xg_automata::SimpleMatcher` over the
//! reference PDA (`build_pda_default`), the executor the differential tests
//! already compare the engine against. JSON outputs are parsed as well.
//! Tool-call segments of tag lanes are cut out of the transcript and
//! checked against their tool's schema the same way.

use std::collections::{BTreeMap, HashMap};

use serde_json::Value;
use xg_automata::{build_pda_default, Pda, SimpleMatcher};
use xg_grammar::{StructuralTag, TagContent};

use crate::workloads::{Kind, Plan, Request};

/// Checks outputs, building each reference PDA once.
#[derive(Default)]
pub struct Oracle {
    /// By plan grammar index.
    grammars: HashMap<usize, Pda>,
    /// By tool schema text.
    tools: HashMap<String, Pda>,
}

impl Oracle {
    /// Accepts `output` as a completed answer to `req`, or says why not.
    pub fn check(&mut self, plan: &Plan, req: &Request, output: &[u8]) -> Result<(), String> {
        match (req.grammar, req.turn) {
            (Some(g), _) => {
                let entry = &plan.grammars[g];
                let pda = self
                    .grammars
                    .entry(g)
                    .or_insert_with(|| build_pda_default(&entry.grammar));
                if !SimpleMatcher::new(pda).accepts(output) {
                    return Err(format!(
                        "the reference PDA rejects a {} output",
                        entry.kind.name()
                    ));
                }
                if matches!(entry.kind, Kind::JsonCfg | Kind::Schema) {
                    parse_json(output)?;
                }
                Ok(())
            }
            (None, Some(turn)) => self.check_tool_calls(plan.catalog(turn), output),
            (None, None) => Err("request has no constraint".into()),
        }
    }

    /// Every tool-call segment must be closed and accepted by its tool's
    /// schema; a turn must call at least one tool.
    fn check_tool_calls(&mut self, catalog: &StructuralTag, output: &[u8]) -> Result<(), String> {
        let segments = tool_segments(catalog, output)?;
        if segments.is_empty() {
            return Err("the transcript calls no tool".into());
        }
        for (tag, payload) in segments {
            let TagContent::JsonSchema(schema) = &catalog.tags[tag].content else {
                return Err("tool content is not a JSON schema".into());
            };
            let key = serde_json::to_string(schema).map_err(|e| e.to_string())?;
            if !self.tools.contains_key(&key) {
                let grammar = xg_grammar::json_schema_to_grammar(schema)
                    .map_err(|e| format!("tool schema: {e}"))?;
                self.tools.insert(key.clone(), build_pda_default(&grammar));
            }
            if !SimpleMatcher::new(&self.tools[&key]).accepts(payload) {
                return Err(format!(
                    "the reference PDA rejects the arguments of {}",
                    catalog.tags[tag].begin
                ));
            }
            parse_json(payload)?;
        }
        Ok(())
    }
}

fn parse_json(bytes: &[u8]) -> Result<(), String> {
    serde_json::from_slice::<Value>(bytes)
        .map(|_| ())
        .map_err(|e| format!("output is not JSON: {e}"))
}

/// Cuts `output` into tool-call segments: `(tag index, payload)` for every
/// begin tag of the catalog, up to that tag's end string.
pub fn tool_segments<'a>(
    catalog: &StructuralTag,
    output: &'a [u8],
) -> Result<Vec<(usize, &'a [u8])>, String> {
    let mut segments = Vec::new();
    let mut at = 0;
    while at < output.len() {
        let next = catalog
            .tags
            .iter()
            .enumerate()
            .filter_map(|(i, tag)| find(&output[at..], tag.begin.as_bytes()).map(|p| (at + p, i)))
            .min();
        let Some((begin_at, tag)) = next else { break };
        let spec = &catalog.tags[tag];
        let body = begin_at + spec.begin.len();
        let Some(len) = find(&output[body..], spec.end.as_bytes()) else {
            return Err(format!("unclosed tool call {}", spec.begin));
        };
        segments.push((tag, &output[body..body + len]));
        at = body + len + spec.end.len();
    }
    Ok(segments)
}

/// Whether decoding at the end of `output` sits inside a tool-call segment.
pub fn inside_segment(catalog: &StructuralTag, output: &[u8]) -> bool {
    let open = catalog
        .tags
        .iter()
        .filter_map(|t| rfind(output, t.begin.as_bytes()).map(|p| p + t.begin.len()))
        .max();
    let close = catalog
        .tags
        .iter()
        .filter_map(|t| rfind(output, t.end.as_bytes()).map(|p| p + t.end.len()))
        .max();
    match (open, close) {
        (Some(open), Some(close)) => open > close,
        (Some(_), None) => true,
        _ => false,
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn rfind(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).rposition(|w| w == needle)
}

/// Digest of a run's outputs: request seed → output bytes. Outputs depend
/// only on the request, so the same plan must give the same digest in
/// every run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Digest {
    outputs: BTreeMap<u64, Vec<u8>>,
}

impl Digest {
    /// Records one output; `Err` if the seed already produced other bytes.
    pub fn record(&mut self, seed: u64, output: &[u8]) -> Result<(), String> {
        match self.outputs.get(&seed) {
            Some(seen) if seen.as_slice() != output => Err(format!(
                "request seed {seed:#x} produced two different outputs"
            )),
            Some(_) => Ok(()),
            None => {
                self.outputs.insert(seed, output.to_vec());
                Ok(())
            }
        }
    }

    /// FNV-1a over the seeds and outputs in seed order, as 16 hex digits.
    pub fn hex(&self) -> String {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (seed, output) in &self.outputs {
            eat(&seed.to_le_bytes());
            eat(&(output.len() as u64).to_le_bytes());
            eat(output);
        }
        format!("{hash:016x}")
    }

    pub fn len(&self) -> usize {
        self.outputs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn oracle_rejects_a_one_byte_corruption() {
        let plan = Plan::new(Workload::SchemaServe, 5, 4);
        let mut oracle = Oracle::default();
        let mut checked = 0;
        for req in &plan.requests {
            // References satisfy their schemas, so they pass unchanged.
            oracle
                .check(&plan, req, &req.reference)
                .expect("reference passes");
            let mut corrupt = req.reference.clone();
            let last = corrupt.len() - 1;
            corrupt[last] = b'#';
            assert!(oracle.check(&plan, req, &corrupt).is_err());
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn oracle_checks_every_tool_call_segment() {
        let plan = Plan::new(Workload::AgentTools, 5, 2);
        let mut oracle = Oracle::default();
        for req in &plan.requests {
            oracle
                .check(&plan, req, &req.reference)
                .expect("reference passes");
            let text = String::from_utf8(req.reference.clone()).unwrap();
            // Corrupt one byte of the call's arguments: `:` becomes `;`.
            let corrupt = text.replacen("\":", "\";", 1);
            assert!(oracle.check(&plan, req, corrupt.as_bytes()).is_err());
            let uncalled = text.replace("<function=", "<fn=");
            assert!(oracle.check(&plan, req, uncalled.as_bytes()).is_err());
        }
    }

    #[test]
    fn digest_catches_a_seed_with_two_outputs() {
        let mut a = Digest::default();
        a.record(1, b"x").unwrap();
        a.record(1, b"x").unwrap();
        assert!(a.record(1, b"y").is_err());
        let mut b = Digest::default();
        b.record(1, b"x").unwrap();
        assert_eq!(a.hex(), b.hex());
        b.record(2, b"z").unwrap();
        assert_ne!(a.hex(), b.hex());
    }
}
