//! Parametric n×n FAUST meshes under bit-complement traffic — the
//! million-state frontier instances of experiment E12.
//!
//! [`crate::faust::noc`] ships the hand-written 2×2 mesh; this module
//! generates the same construction for any side length `n`: XY routers,
//! one-place link buffers specialized to the packet values their link can
//! carry, and an optional k-token end-to-end flow-control pool. Under
//! bit-complement traffic router `r` injects packets for router
//! `n² - 1 - r` (for odd `n` the center is its own complement and only
//! forwards). The 3×3 instance is the CI smoke target; the 4×4 instance
//! crosses a million product states and is what the pluggable
//! [`StateStore`](multival_lts::store::StateStore) backends are sized on.

use multival_pa::{parse_spec, ExploreOptions, ParseError, Spec};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Coordinates of router `r` in an n×n mesh.
fn coords_n(r: usize, n: usize) -> (usize, usize) {
    (r % n, r / n)
}

/// The XY next hop from router `r` toward destination `d` in an n×n mesh
/// (`None` when `r == d`): correct x first, then y.
pub fn xy_next_hop_n(r: usize, d: usize, n: usize) -> Option<usize> {
    let (rx, ry) = coords_n(r, n);
    let (dx, dy) = coords_n(d, n);
    if rx != dx {
        Some(if dx > rx { r + 1 } else { r - 1 })
    } else if ry != dy {
        Some(if dy > ry { r + n } else { r - n })
    } else {
        None
    }
}

/// Directed links of the n×n mesh (pairs of adjacent routers), in a
/// canonical order: for each router, east/west/south/north neighbours.
pub fn mesh_links_n(n: usize) -> Vec<(usize, usize)> {
    let mut links = Vec::new();
    for r in 0..n * n {
        let (x, y) = coords_n(r, n);
        if x + 1 < n {
            links.push((r, r + 1));
        }
        if x > 0 {
            links.push((r, r - 1));
        }
        if y + 1 < n {
            links.push((r, r + n));
        }
        if y > 0 {
            links.push((r, r - n));
        }
    }
    links
}

/// The destination values each directed link carries under bit-complement
/// traffic with XY routing. Unlike the 2×2 case, a link may lie on several
/// flows (column links aggregate whole rows), so values form sets.
fn complement_link_values_n(n: usize) -> BTreeMap<(usize, usize), BTreeSet<usize>> {
    let nn = n * n;
    let mut values: BTreeMap<(usize, usize), BTreeSet<usize>> = BTreeMap::new();
    for r in 0..nn {
        let d = nn - 1 - r;
        let mut at = r;
        while let Some(next) = xy_next_hop_n(at, d, n) {
            values.entry((at, next)).or_default().insert(d);
            at = next;
        }
    }
    values
}

/// Generates the mini-LOTOS source of the n×n bit-complement mesh.
///
/// `max_in_flight = None` leaves injection uncontrolled; `Some(k)`
/// composes a k-token end-to-end flow-control pool over every `inj`/`dlv`
/// gate, which bounds the state space (the knob experiment E12 sweeps).
///
/// Gate naming uses explicit separators (`l3_4`, `i12_13`) so double-digit
/// router ids stay unambiguous.
///
/// # Panics
///
/// Panics if `n < 2` (a 1×1 mesh has no links).
pub fn complement_source_n(n: usize, max_in_flight: Option<usize>) -> String {
    assert!(n >= 2, "a mesh needs at least 2×2 routers");
    let nn = n * n;
    let links = mesh_links_n(n);
    let values = complement_link_values_n(n);
    let carried = |a: usize, b: usize| values.get(&(a, b)).cloned().unwrap_or_default();
    let mut src = String::new();

    // One-place link buffers, specialized to the values their link carries.
    // Links outside every flow get no buffer process (and no gate).
    for &(a, b) in &links {
        let vs = carried(a, b);
        if vs.is_empty() {
            continue;
        }
        let _ = writeln!(src, "process B{a}_{b}[takein, handout] :=");
        for (i, v) in vs.iter().enumerate() {
            let sep = if i == 0 { "   " } else { " []" };
            let _ = writeln!(src, "    {sep} takein !{v}; handout !{v}; B{a}_{b}[takein, handout]");
        }
        let _ = writeln!(src, "endproc\n");
    }

    // Routers: inject toward the complement (unless self), forward or
    // deliver whatever the in-links can carry.
    for r in 0..nn {
        let outs: Vec<String> = links
            .iter()
            .filter(|&&(a, b)| a == r && !carried(a, b).is_empty())
            .map(|&(a, b)| format!("l{a}_{b}"))
            .collect();
        let ins: Vec<(usize, usize)> =
            links.iter().filter(|&&(a, b)| b == r && !carried(a, b).is_empty()).copied().collect();
        let in_gates: Vec<String> = ins.iter().map(|&(a, b)| format!("i{a}_{b}")).collect();
        let d = nn - 1 - r;
        let mut gates = Vec::new();
        if d != r {
            gates.push(format!("inj{r}"));
            gates.push(format!("dlv{r}"));
        }
        gates.extend(outs.iter().cloned());
        gates.extend(in_gates.iter().cloned());
        let gates = gates.join(", ");

        let mut branches: Vec<String> = Vec::new();
        if d != r {
            let next = xy_next_hop_n(r, d, n).expect("non-self complement has a next hop");
            branches.push(format!("inj{r} !{d}; l{r}_{next} !{d}; R{r}[{gates}]"));
        }
        for &(a, b) in &ins {
            for v in carried(a, b) {
                let hop = match xy_next_hop_n(r, v, n) {
                    None => format!("dlv{r} !{v}"),
                    Some(h) => format!("l{r}_{h} !{v}"),
                };
                branches.push(format!("i{a}_{b} !{v}; {hop}; R{r}[{gates}]"));
            }
        }
        let _ = writeln!(src, "process R{r}[{gates}] :=");
        for (i, branch) in branches.iter().enumerate() {
            let sep = if i == 0 { "   " } else { " []" };
            let _ = writeln!(src, "    {sep} {branch}");
        }
        let _ = writeln!(src, "endproc\n");
    }

    // The flow-control pool spans every inj/dlv pair of injecting routers.
    let porters: Vec<usize> = (0..nn).filter(|&r| nn - 1 - r != r).collect();
    let pool_gates: Vec<String> = porters
        .iter()
        .map(|r| format!("inj{r}"))
        .chain(porters.iter().map(|r| format!("dlv{r}")))
        .collect();
    if let Some(k) = max_in_flight {
        let gl = pool_gates.join(", ");
        let _ = writeln!(src, "process Pool[{gl}](t: int 0..{k}) :=");
        for (i, r) in porters.iter().enumerate() {
            let sep = if i == 0 { "   " } else { " []" };
            let _ = writeln!(
                src,
                "    {sep} [t < {k}] -> inj{r} ?x:int 0..{}; Pool[{gl}](t + 1)",
                nn - 1
            );
        }
        for r in &porters {
            let _ =
                writeln!(src, "     [] [t > 0] -> dlv{r} ?x:int 0..{}; Pool[{gl}](t - 1)", nn - 1);
        }
        let _ = writeln!(src, "endproc\n");
    }

    // Top behaviour: routers ||| each other, synced with the buffers on
    // the link gates, optionally synced with the pool; links hidden.
    let router_insts: Vec<String> = (0..nn)
        .map(|r| {
            let outs: Vec<String> = links
                .iter()
                .filter(|&&(a, b)| a == r && !carried(a, b).is_empty())
                .map(|&(a, b)| format!("l{a}_{b}"))
                .collect();
            let ins: Vec<String> = links
                .iter()
                .filter(|&&(a, b)| b == r && !carried(a, b).is_empty())
                .map(|&(a, b)| format!("i{a}_{b}"))
                .collect();
            let d = nn - 1 - r;
            let mut gs = Vec::new();
            if d != r {
                gs.push(format!("inj{r}"));
                gs.push(format!("dlv{r}"));
            }
            gs.extend(outs);
            gs.extend(ins);
            format!("R{r}[{}]", gs.join(", "))
        })
        .collect();
    let buf_insts: Vec<String> = links
        .iter()
        .filter(|&&(a, b)| !carried(a, b).is_empty())
        .map(|&(a, b)| format!("B{a}_{b}[l{a}_{b}, i{a}_{b}]"))
        .collect();
    let link_gates: Vec<String> = links
        .iter()
        .filter(|&&(a, b)| !carried(a, b).is_empty())
        .flat_map(|&(a, b)| [format!("l{a}_{b}"), format!("i{a}_{b}")])
        .collect();

    let _ = writeln!(src, "behaviour");
    let _ = writeln!(src, "  hide {} in", link_gates.join(", "));
    let core = format!(
        "( ({})\n      |[{}]|\n      ({}) )",
        router_insts.join("\n   ||| "),
        link_gates.join(", "),
        buf_insts.join(" ||| ")
    );
    match max_in_flight {
        None => {
            let _ = writeln!(src, "    {core}");
        }
        Some(_) => {
            let _ = writeln!(src, "    ( {core}");
            let _ = writeln!(
                src,
                "      |[{}]|\n      Pool[{}](0) )",
                pool_gates.join(", "),
                pool_gates.join(", ")
            );
        }
    }
    src
}

/// Parses the n×n bit-complement mesh model.
///
/// # Errors
///
/// Propagates parser errors (the generator is tested).
pub fn complement_spec_n(n: usize, max_in_flight: Option<usize>) -> Result<Spec, ParseError> {
    parse_spec(&complement_source_n(n, max_in_flight))
}

/// The n×n bit-complement mesh as a pipeline
/// [`Network`](multival_lts::pipeline::Network): routers, the link
/// buffers on flow-carrying links, and (when flow-controlled) the token
/// pool, with link gates hidden.
///
/// # Errors
///
/// Propagates parse and extraction errors.
pub fn complement_network_n(
    n: usize,
    max_in_flight: Option<usize>,
) -> Result<multival_lts::pipeline::Network, Box<dyn std::error::Error>> {
    let spec = complement_spec_n(n, max_in_flight)?;
    Ok(multival_pa::extract_network(&spec, &ExploreOptions::default())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multival_pa::{explore, explore_term_store_partial};

    #[test]
    fn xy_hops_generalize_the_2x2_function() {
        for r in 0..4 {
            for d in 0..4 {
                assert_eq!(
                    xy_next_hop_n(r, d, 2),
                    crate::faust::noc::xy_next_hop(r, d),
                    "hop({r}, {d})"
                );
            }
        }
        // 3×3 spot checks: x before y, both directions.
        assert_eq!(xy_next_hop_n(0, 8, 3), Some(1));
        assert_eq!(xy_next_hop_n(2, 6, 3), Some(1));
        assert_eq!(xy_next_hop_n(4, 4, 3), None);
        assert_eq!(xy_next_hop_n(7, 1, 3), Some(4));
    }

    #[test]
    fn links_count_matches_grid_formula() {
        for n in [2, 3, 4] {
            assert_eq!(mesh_links_n(n).len(), 4 * n * (n - 1), "n = {n}");
        }
    }

    #[test]
    fn generated_2x2_matches_the_handwritten_complement_mesh() {
        // Same construction, different generator: the state spaces must
        // coincide exactly (labels on hidden links differ in name only).
        let hand =
            explore(&crate::faust::noc::complement_spec().expect("parses"), &Default::default())
                .expect("explores");
        let gen = explore(&complement_spec_n(2, None).expect("parses"), &Default::default())
            .expect("explores");
        assert_eq!(gen.lts.num_states(), hand.lts.num_states());
        assert_eq!(gen.lts.num_transitions(), hand.lts.num_transitions());
    }

    #[test]
    fn flow_controlled_3x3_is_deadlock_free_at_one_token() {
        // A single in-flight packet can always progress to its
        // destination: no contention, no head-of-line blocking.
        let spec = complement_spec_n(3, Some(1)).expect("parses");
        let run = explore_term_store_partial(spec.top().clone(), &spec, &Default::default(), None);
        assert!(run.aborted.is_none());
        let lts = run.lts;
        assert!(multival_lts::analysis::deadlock_witness(&lts).is_none());
        assert!(lts.num_states() > 50, "nontrivial space: {}", lts.num_states());
    }

    #[test]
    fn network_extraction_has_the_expected_shape() {
        let net = complement_network_n(3, Some(2)).expect("extracts");
        let carrying = complement_link_values_n(3).len();
        // 9 routers + one buffer per flow-carrying link + the pool.
        assert_eq!(net.components().len(), 9 + carrying + 1);
        assert_eq!(net.hidden().len(), 2 * carrying);
    }
}
