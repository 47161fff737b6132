//! The ViaPSL cost model (paper Section 7) — closed forms.
//!
//! Following \[14\] (Pierre & Ferro), the monitors generated from a PSL
//! formula have per-event time and state **linear in the size of the
//! formula**. The translation's formula size, however, explodes with range
//! widths: the paper's bound is
//!
//! ```text
//! Θ( ∆ + Σᵢ (vᵢ−uᵢ+1)² + Σⱼ |α(Fⱼ)|·|α(Fⱼ₋₁)| )
//! ```
//!
//! with `∆` the cost of the run-length lexer. This module computes, without
//! materializing anything, the exact conjunct counts and expanded formula
//! node counts of our translation (validated against the materialized
//! [`crate::translate::translate`] output by tests), from which:
//!
//! * `ops_per_event` = expanded formula nodes — each node is one sub-monitor
//!   doing O(1) work per observed token;
//! * `state_bits` = [`BITS_PER_NODE`] × expanded formula nodes — each node
//!   is realized as a small sub-monitor with a constant number of state
//!   bits in the modular synthesis.
//!
//! Absolute constants differ from the paper's (their generator's cost model
//! is not published); the *shape* — flat Drct vs quadratic ViaPSL in the
//! range width — is what EXPERIMENTS.md compares.

use lomon_core::ast::{Fragment, FragmentOp, Property, Range};

use crate::translate::{episode_shape, Family, TranslateError};

/// State bits charged per expanded formula node in the modular synthesis.
pub const BITS_PER_NODE: u64 = 4;

/// Closed-form cost of the ViaPSL strategy for one property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViaPslCost {
    /// Total conjuncts (= observers) of the translation.
    pub conjuncts: u64,
    /// Total expanded formula nodes.
    pub formula_nodes: u64,
    /// Per-event monitor operations (`= formula_nodes`).
    pub ops_per_event: u64,
    /// Monitor state bits (`= BITS_PER_NODE × formula_nodes`).
    pub state_bits: u64,
    /// Per-event lexer operations (the paper's `∆`, time part).
    pub delta_ops: u64,
    /// Lexer state bits (the paper's `∆`, space part).
    pub delta_bits: u64,
    /// The paper's Θ expression value (`Σ widths² + Σ |α|·|α|` in units).
    pub theta_units: u64,
    /// Per-family `(family, conjuncts, expanded nodes)` breakdown.
    pub per_family: Vec<(Family, u64, u64)>,
}

/// Weight of a single symbolic range atom once expanded (`2w−1` nodes for a
/// `w`-wide token disjunction).
fn atom_weight(range: &Range) -> u64 {
    2 * range.width() - 1
}

/// Weight of the union-of-ranges token set of a fragment.
fn fragment_tokens_weight(fragment: &Fragment) -> u64 {
    let total: u64 = fragment.ranges.iter().map(atom_weight).sum();
    if fragment.ranges.len() > 1 {
        total + 1
    } else {
        total
    }
}

/// The per-fragment observation obligations and their target weights.
fn obligation_weights(fragment: &Fragment) -> Vec<u64> {
    match fragment.op {
        FragmentOp::All => fragment.ranges.iter().map(atom_weight).collect(),
        FragmentOp::Any => vec![fragment_tokens_weight(fragment)],
    }
}

/// Total conjunct count of the translation, without materializing.
///
/// # Errors
///
/// Propagates [`TranslateError::Unsupported`] for shapes outside the
/// encoding's domain.
pub fn conjunct_count(property: &Property) -> Result<u64, TranslateError> {
    Ok(viapsl_cost(property)?.conjuncts)
}

/// Compute the full closed-form ViaPSL cost of a property.
///
/// # Errors
///
/// Propagates [`TranslateError::Unsupported`] for shapes outside the
/// encoding's domain.
///
/// # Example
///
/// ```
/// use lomon_core::parse::parse_property;
/// use lomon_psl::complexity::viapsl_cost;
/// use lomon_trace::Vocabulary;
///
/// let mut voc = Vocabulary::new();
/// let narrow = parse_property("n << i repeated", &mut voc).unwrap();
/// let wide = parse_property("n[100,60000] << i repeated", &mut voc).unwrap();
/// let narrow_cost = viapsl_cost(&narrow).unwrap();
/// let wide_cost = viapsl_cost(&wide).unwrap();
/// // The ViaPSL explosion: ops grow by the square of the range width.
/// assert!(wide_cost.ops_per_event > 3_000_000_000 * narrow_cost.ops_per_event / 100);
/// ```
pub fn viapsl_cost(property: &Property) -> Result<ViaPslCost, TranslateError> {
    let shape = episode_shape(property)?;
    let content = &shape.content;

    // Weight of the episode-boundary token set `I`.
    let trigger_weight: u64 = match &shape.trigger_range {
        Some(r) => atom_weight(r),
        None => 1,
    };
    let until_body = |avoid_w: u64, target_w: u64| 2 + avoid_w + target_w;
    // W-scoping of the invariant conjuncts for one-shot properties adds the
    // boundary disjunction to each of them.
    let scope_w = if shape.repeated { 0 } else { trigger_weight };
    // Precede/BeforeI wrapper: body [∧ always(I → X body)] when repeated.
    let rearmed = |body: u64| {
        if shape.repeated {
            1 + body + (3 + trigger_weight + body)
        } else {
            body
        }
    };

    let mut per_family: Vec<(Family, u64, u64)> = Vec::new();
    let mut push = |family: Family, count: u64, nodes: u64| {
        per_family.push((family, count, nodes));
    };

    // Asynch: unordered name pairs over α.
    let alpha = shape.alphabet.len() as u64;
    let asynch_count = alpha * alpha.saturating_sub(1) / 2;
    push(Family::Asynch, asynch_count, asynch_count * 5);

    // BadToken: non-trivial ranges (content + trigger range).
    let mut nontrivial: u64 = content
        .iter()
        .flat_map(|f| f.ranges.iter())
        .filter(|r| !r.is_trivial())
        .count() as u64;
    if shape
        .trigger_range
        .as_ref()
        .is_some_and(|r| !r.is_trivial())
    {
        nontrivial += 1;
    }
    push(Family::BadToken, nontrivial, nontrivial * (3 + scope_w));

    // MaxOne and Range: per exact token (pair) of each content range.
    let mut maxone_count = 0u64;
    let mut maxone_nodes = 0u64;
    let mut range_count = 0u64;
    let mut range_nodes = 0u64;
    // Widths reach 2^32 − 1, so these products saturate: a saturated
    // count still exceeds any conjunct limit.
    for range in content.iter().flat_map(|f| f.ranges.iter()) {
        let w = range.width();
        let pairs = w * (w - 1);
        maxone_count += w;
        maxone_nodes = maxone_nodes
            .saturating_add(w.saturating_mul(3 + 1 + until_body(1, trigger_weight) + scope_w));
        range_count = range_count.saturating_add(pairs);
        range_nodes = range_nodes
            .saturating_add(pairs.saturating_mul(2 + 1 + until_body(1, trigger_weight) + scope_w));
    }
    push(Family::MaxOne, maxone_count, maxone_nodes);
    push(Family::Range, range_count, range_nodes);

    // Order: name pairs of adjacent fragments.
    let mut order_count = 0u64;
    let mut order_nodes = 0u64;
    for j in 1..content.len() {
        for x in &content[j].ranges {
            for y in &content[j - 1].ranges {
                order_count += 1;
                order_nodes +=
                    2 + atom_weight(x) + until_body(atom_weight(y), trigger_weight) + scope_w;
            }
        }
    }
    push(Family::Order, order_count, order_nodes);

    // Precede: per adjacent pair, one conjunct per obligation of the
    // predecessor.
    let mut precede_count = 0u64;
    let mut precede_nodes = 0u64;
    for j in 1..content.len() {
        let avoid_w = fragment_tokens_weight(&content[j]);
        for target_w in obligation_weights(&content[j - 1]) {
            precede_count += 1;
            precede_nodes += rearmed(until_body(avoid_w, target_w));
        }
    }
    push(Family::Precede, precede_count, precede_nodes);

    // BeforeI/AfterI: every fragment's obligations, guarded by `I`.
    let mut beforei_count = 0u64;
    let mut beforei_nodes = 0u64;
    for fragment in content {
        for target_w in obligation_weights(fragment) {
            beforei_count += 1;
            beforei_nodes += rearmed(until_body(trigger_weight, target_w));
        }
    }
    push(Family::BeforeI, beforei_count, beforei_nodes);

    let conjuncts = per_family
        .iter()
        .fold(0u64, |sum, (_, c, _)| sum.saturating_add(*c));
    let formula_nodes = per_family
        .iter()
        .fold(0u64, |sum, (_, _, n)| sum.saturating_add(*n));

    // The paper's Θ expression, in abstract units.
    let mut theta_units = 0u64;
    let mut all_ranges: Vec<&Range> = content.iter().flat_map(|f| f.ranges.iter()).collect();
    if let Some(r) = &shape.trigger_range {
        all_ranges.push(r);
    }
    for r in &all_ranges {
        theta_units = theta_units.saturating_add(r.width().saturating_mul(r.width()));
    }
    for j in 1..content.len() {
        let pairs = (content[j].ranges.len() * content[j - 1].ranges.len()) as u64;
        theta_units = theta_units.saturating_add(pairs);
    }

    // ∆: the run-length lexer (2 ops/event; state as in lomon-trace).
    let has_collapsible = all_ranges.iter().any(|r| !r.is_trivial());
    let max_bound = all_ranges.iter().map(|r| r.max).max().unwrap_or(1);
    let (delta_ops, delta_bits) = if has_collapsible {
        (
            2,
            lomon_trace::RunLengthLexer::state_bits(u64::from(max_bound)),
        )
    } else {
        (0, 0)
    };

    Ok(ViaPslCost {
        conjuncts,
        formula_nodes,
        ops_per_event: formula_nodes,
        state_bits: BITS_PER_NODE.saturating_mul(formula_nodes),
        delta_ops,
        delta_bits,
        theta_units,
        per_family,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::{translate, TranslateError, TranslateOptions};
    use lomon_core::parse::parse_property;
    use lomon_trace::Vocabulary;

    fn parse(text: &str) -> Property {
        let mut voc = Vocabulary::new();
        parse_property(text, &mut voc).expect(text)
    }

    /// A range as wide as `u32` allows saturates the closed forms, which
    /// overflowed (a debug-build panic) before, and the translation is
    /// refused as too large rather than materialized.
    #[test]
    fn widest_ranges_saturate_the_cost() {
        let p = parse("n0[1,4294967295] << trigger repeated");
        let cost = viapsl_cost(&p).expect("supported shape");
        assert_eq!(cost.formula_nodes, u64::MAX);
        assert_eq!(cost.state_bits, u64::MAX);
        assert!(matches!(
            translate(&p, TranslateOptions::default()),
            Err(TranslateError::TooLarge { .. })
        ));
    }

    /// The closed forms must agree exactly with the materialized
    /// translation on every family.
    #[test]
    fn closed_form_matches_materialization() {
        for text in [
            "n << i repeated",
            "n << i once",
            "n[2,8] << i repeated",
            "all{n1, n2, n3, n4} << i once",
            "all{n1, n2, n3, n4, n5} << i once",
            "all{a, b} < any{c[2,8], d} < e << i repeated",
            "n1 => n2 < n3 < n4 within 1 ms",
            "start => read_img[2,4] < set_irq within 1 ms",
            "start => read_img[2,4] within 1 ms",
        ] {
            let p = parse(text);
            let cost = viapsl_cost(&p).expect(text);
            let t = translate(&p, TranslateOptions::default()).expect(text);
            assert_eq!(
                cost.conjuncts,
                t.observers.len() as u64,
                "conjunct count for {text}"
            );
            let observed_nodes: u64 = t.observers.iter().map(|o| o.weight()).sum();
            assert_eq!(cost.formula_nodes, observed_nodes, "nodes for {text}");
            // Per-family counts agree too.
            for &(family, count, nodes) in &cost.per_family {
                let got_count = t.observers.iter().filter(|o| o.family() == family).count() as u64;
                let got_nodes: u64 = t
                    .observers
                    .iter()
                    .filter(|o| o.family() == family)
                    .map(|o| o.weight())
                    .sum();
                assert_eq!(count, got_count, "{family:?} count for {text}");
                assert_eq!(nodes, got_nodes, "{family:?} nodes for {text}");
            }
        }
    }

    #[test]
    fn range_width_drives_quadratic_growth() {
        let narrow = viapsl_cost(&parse("n[1,2] << i repeated")).unwrap();
        let wide = viapsl_cost(&parse("n[1,20] << i repeated")).unwrap();
        // 2 tokens → 2 MaxOne + 2 Range; 20 tokens → 20 + 380.
        assert!(wide.conjuncts > 50 * narrow.conjuncts / 10);
        assert!(wide.theta_units == 400 + narrow.theta_units - 4);
    }

    #[test]
    fn huge_range_cost_is_computable_symbolically() {
        let cost = viapsl_cost(&parse("n[100,60000] << i repeated")).unwrap();
        let w = 59_901u64;
        // Range family dominates: w(w−1) conjuncts.
        assert!(cost.conjuncts > w * (w - 1));
        assert!(cost.ops_per_event > 10_000_000_000);
        assert!(cost.state_bits > 40_000_000_000);
        assert_eq!(cost.delta_ops, 2);
        assert!(cost.delta_bits > 0);
        assert_eq!(cost.theta_units, w * w); // the range's width squared
    }

    #[test]
    fn drct_vs_viapsl_shape_fig6() {
        // Rows 1 vs 2 of Fig. 6: Drct flat, ViaPSL explodes.
        let row1 = viapsl_cost(&parse("n << i repeated")).unwrap();
        let row2 = viapsl_cost(&parse("n[100,60000] << i repeated")).unwrap();
        assert!(row2.ops_per_event / row1.ops_per_event.max(1) > 1_000_000);

        let d1 = lomon_core::complexity::drct_cost(&parse("n << i repeated"));
        let d2 = lomon_core::complexity::drct_cost(&parse("n[100,60000] << i repeated"));
        assert_eq!(d1.theta_time, d2.theta_time);
    }

    #[test]
    fn fragment_size_grows_linearly() {
        let c4 = viapsl_cost(&parse("all{n1, n2, n3, n4} << i once")).unwrap();
        let c5 = viapsl_cost(&parse("all{n1, n2, n3, n4, n5} << i once")).unwrap();
        assert!(c5.ops_per_event > c4.ops_per_event);
        assert!(c5.ops_per_event < 2 * c4.ops_per_event);
    }

    #[test]
    fn delta_absent_for_trivial_ranges() {
        let cost = viapsl_cost(&parse("n << i repeated")).unwrap();
        assert_eq!(cost.delta_ops, 0);
        assert_eq!(cost.delta_bits, 0);
    }

    #[test]
    fn timed_rows_cover_trigger_range() {
        // Fig. 6 row 6: the huge range sits in Q.
        let cost = viapsl_cost(&parse("n1 => n2[100,60000] < n3 < n4 within 1 ms")).unwrap();
        let w = 59_901u64;
        assert!(cost.conjuncts > w * (w - 1));
        assert!(cost.theta_units >= w * w);
    }
}
