//! Store keys of the compiled explorer: a state's leaf-id vector packed
//! into bytes.

use multival_lts::vbyte::write_uv;

/// Packs a state vector into its store key: one varint per leaf, offset
/// by one so that the stopped-network marker (`u32::MAX`) packs to a
/// single zero byte. Every key of one exploration has the same number of
/// varints, so the encoding is injective.
pub(crate) fn pack(v: &[u32], out: &mut Vec<u8>) {
    out.clear();
    for &id in v {
        write_uv(out, u64::from(id.wrapping_add(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{Engine, STOPPED};
    use crate::parser::parse_spec;
    use crate::term::Term;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn packed(v: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        pack(v, &mut out);
        out
    }

    /// Counters under hide and a partial synchronization that can all
    /// `exit` together, which stops the whole network: states are reached
    /// along many paths.
    const SPEC: &str = "process Cnt[up, down](n: int 0..2) :=
           [n < 2] -> up; Cnt[up, down](n + 1)
        [] [n > 0] -> down; Cnt[up, down](n - 1)
        [] [n == 2] -> exit
       endproc
       behaviour hide d1 in ((Cnt[u1, d1](0) ||| Cnt[u2, d2](0)) |[u2]| Cnt[u2, x](1))";

    /// Every (term, key) pair met by unfolding the state graph of [`SPEC`]
    /// breadth first to `depth` steps, without deduplication, so a state
    /// reached along several paths shows up once per path.
    fn unfold(depth: usize) -> Vec<(Arc<Term>, Vec<u8>)> {
        let spec = parse_spec(SPEC).expect("parses");
        let (mut engine, init) = Engine::new(spec.top(), &spec);
        let mut seen = vec![(engine.term(&init), packed(&init))];
        let mut level = vec![init];
        let mut succ = Vec::new();
        for _ in 0..depth {
            let mut next = Vec::new();
            for v in &level {
                engine.derive(v).expect("derivable");
                for &m in engine.moves() {
                    engine.apply(m, v, &mut succ);
                    seen.push((engine.term(&succ), packed(&succ)));
                    next.push(succ.clone());
                }
            }
            level = next;
        }
        seen
    }

    #[test]
    fn equal_terms_pack_equal() {
        let seen = unfold(6);
        let mut key_of: HashMap<&Term, &[u8]> = HashMap::new();
        let mut repeats = 0;
        for (term, key) in &seen {
            if let Some(prev) = key_of.insert(term, key) {
                assert_eq!(prev, key.as_slice(), "`{term}` packed two ways");
                repeats += 1;
            }
        }
        assert!(repeats > 0, "the unfolding reaches some state twice");

        // A second compilation of the same behaviour keys it the same way.
        let spec = parse_spec(SPEC).expect("parses");
        let (_, a) = Engine::new(spec.top(), &spec);
        let (_, b) = Engine::new(spec.top(), &spec);
        assert_eq!(packed(&a), packed(&b));
    }

    #[test]
    fn distinct_terms_pack_distinct() {
        let seen = unfold(7);
        let mut term_of: HashMap<&[u8], &Term> = HashMap::new();
        for (term, key) in &seen {
            if let Some(prev) = term_of.insert(key, term) {
                assert_eq!(prev, term.as_ref(), "collision between `{prev}` and `{term}`");
            }
        }
        assert!(
            seen.iter().any(|(_, key)| key.iter().all(|&b| b == 0)),
            "the unfolding reaches the stopped network"
        );
        assert!(term_of.len() > 20, "{} distinct states", term_of.len());
    }

    #[test]
    fn equal_states_pack_equal_and_distinct_states_distinct() {
        let states: [&[u32]; 6] =
            [&[0, 0, 0], &[0, 0, 1], &[1, 0, 0], &[127, 0, 0], &[0, 128, 0], &[STOPPED; 3]];
        for (i, a) in states.iter().enumerate() {
            assert_eq!(packed(a), packed(a));
            for b in &states[i + 1..] {
                assert_ne!(packed(a), packed(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn a_stopped_network_packs_to_one_zero_byte_per_leaf() {
        assert_eq!(packed(&[STOPPED; 4]), vec![0; 4]);
        assert_eq!(packed(&[0, 1]), vec![1, 2]);
    }
}
