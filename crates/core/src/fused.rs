//! Fused rulebook programs: whole-rulebook lowering with cross-property
//! cell sharing.
//!
//! [`crate::compiled`] lowers **one** property into a flat cell arena plus a
//! dense event→action table. That construction is exactly the paper's
//! per-property recognizer, and it leaves an obvious redundancy on the
//! table: real rulebooks watch a *shared* interface, so many properties are
//! structurally identical (the same ranges over the same names, the same
//! trigger, the same connectives) and every one of them re-recognizes the
//! same event structure independently. Fifty overlapping properties cost
//! fifty full monitor steps per event even when only a handful of *distinct*
//! recognizers exist among them.
//!
//! [`FusedProgram::fuse`] lowers the **whole rulebook at once**: the
//! per-property [`CompiledProgram`]s are interned into one arena of unique
//! programs — structural deduplication over the complete
//! [`CompiledProgram::fingerprint`] (recognizer cells with their
//! `(class, min, max)` action rows, fragment layout, stopping sets, kind) —
//! and a single **global event→action CSR table** is emitted over the whole
//! vocabulary: one event performs one indexed sweep over the *unique* cell
//! groups, and verdicts fan back out to per-property verdict slots through
//! the group→members table.
//!
//! ## Why sharing is sound
//!
//! A recognizer cell's state trajectory depends on more than its own
//! `(class, min, max)` row: fragment handovers, restarts and the
//! episode-level wrappers (`once`/`repeated`, time bounds) all feed back
//! into when a cell is started or wiped. Sharing *mutable* state between
//! two properties is therefore only sound when **every** dynamic input is
//! identical — which is precisely what equal fingerprints guarantee (see
//! [`CompiledProgram::fingerprint`]). Fused groups share at that
//! granularity: one mutable cell arena per unique program, stepped once per
//! event, observationally identical (verdicts, violation diagnostics,
//! `ops`, deadlines) to stepping each member property's own monitor.
//!
//! The engine (`lomon-engine`) runs this as its default backend:
//! `Engine::compile` fuses the rulebook, sessions instantiate one
//! [`CompiledMonitor`] per unique group ([`FusedProgram::instantiate`]),
//! and the dispatch loop sweeps `subscribers(name)` — the global CSR row of
//! the event's name — fanning verdicts out to the member properties.

use std::collections::HashMap;
use std::sync::Arc;

use lomon_trace::Name;

use crate::ast::Property;
use crate::compiled::{CompiledMonitor, CompiledProgram};

/// Stable counting-sort CSR construction over `width` buckets: bucket
/// `b`'s payloads come out as `payloads[start[b] .. start[b + 1]]`, in
/// input order (stability is what makes per-bucket ordering guarantees —
/// ascending member ids, group-major rows — provable from the iteration
/// order of `items` alone).
fn build_csr<T: Copy>(width: usize, items: &[(usize, T)]) -> (Vec<u32>, Vec<T>) {
    let mut start = vec![0u32; width + 1];
    for &(bucket, _) in items {
        start[bucket + 1] += 1;
    }
    for b in 0..width {
        start[b + 1] += start[b];
    }
    let Some(&(_, first)) = items.first() else {
        return (start, Vec::new());
    };
    let mut cursor = start.clone();
    let mut payloads = vec![first; items.len()];
    for &(bucket, payload) in items {
        payloads[cursor[bucket] as usize] = payload;
        cursor[bucket] += 1;
    }
    (start, payloads)
}

/// How much structure the fusion shared, reported by
/// [`FusedProgram::sharing`] and surfaced in the engine's dispatch
/// statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sharing {
    /// Properties in the rulebook.
    pub properties: u64,
    /// Unique programs after structural deduplication.
    pub unique_programs: u64,
    /// Recognizer cells summed over every property's own program.
    pub total_cells: u64,
    /// Recognizer cells actually allocated in the fused arena (one copy per
    /// unique program).
    pub unique_cells: u64,
}

/// The fused form of a whole rulebook: the arena of unique lowered
/// programs, the property↔group maps, and the single global event→action
/// CSR table. Immutable and shared (via [`Arc`]) by any number of engine
/// sessions; the mutable half is one [`CompiledMonitor`] per group
/// ([`FusedProgram::instantiate`]).
#[derive(Debug, Clone)]
pub struct FusedProgram {
    /// Unique programs, in first-appearance order.
    groups: Vec<Arc<CompiledProgram>>,
    /// Property id → its group.
    prop_group: Vec<u32>,
    /// Group `g`'s member property ids (ascending) are
    /// `members[members_start[g] .. members_start[g + 1]]`.
    members_start: Vec<u32>,
    members: Vec<u32>,
    /// Dense group → member count — the dispatch loop's fan-out factor,
    /// precomputed so the hot path loads one word instead of differencing
    /// two CSR bounds.
    member_counts: Vec<u32>,
    /// Global CSR over the vocabulary: the groups subscribed to name `n`
    /// are `sub_groups[sub_start[n] .. sub_start[n + 1]]`, with the
    /// parallel `sub_bases` carrying each group's precomputed action-table
    /// row offset for `n` (consumed by
    /// [`CompiledMonitor::observe_routed`]). Names interned after fusion
    /// fall off the end (no subscribers).
    sub_start: Vec<u32>,
    sub_groups: Vec<u32>,
    sub_bases: Vec<u32>,
    /// Groups encoding timed implications (the only ones with deadlines).
    timed_groups: Vec<u32>,
    /// Dense group → is-timed flags for the dispatch hot path.
    timed_flags: Vec<bool>,
    /// The sharing facts, computed once at fusion time — sessions copy
    /// them into every fresh statistics block (per `reset()`, i.e. per
    /// SMC episode), so the getter must not re-walk the arena.
    sharing: Sharing,
}

impl FusedProgram {
    /// Fuse already-lowered per-property programs into one rulebook
    /// program. `programs[p]` must be the lowered form of property `p`;
    /// property ids in the fused program are positions in this slice.
    pub fn fuse(programs: &[Arc<CompiledProgram>]) -> FusedProgram {
        let mut groups: Vec<Arc<CompiledProgram>> = Vec::new();
        let mut by_key: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut prop_group = Vec::with_capacity(programs.len());
        for program in programs {
            let group = *by_key.entry(program.fingerprint()).or_insert_with(|| {
                groups.push(Arc::clone(program));
                (groups.len() - 1) as u32
            });
            prop_group.push(group);
        }
        Self::assemble(groups, prop_group)
    }

    /// The rulebook *without* sharing: [`FusedProgram::fuse`]'s tables with
    /// every property its own group, so group `p` is property `p`. This is
    /// the layout the engine's per-property interpreter oracle dispatches
    /// through — the same routing and deadline facts as the fused program,
    /// none of its structural deduplication.
    pub fn unshared(programs: &[Arc<CompiledProgram>]) -> FusedProgram {
        Self::assemble(programs.to_vec(), (0..programs.len() as u32).collect())
    }

    /// Build the fused tables over an already-deduplicated arena:
    /// `prop_group[p]` names the group serving property `p`. Split out of
    /// [`FusedProgram::fuse`] so [`crate::analysis`] can rebuild a rulebook
    /// around *rewritten* groups (dead-table pruning) while preserving the
    /// original property↔group assignment.
    pub(crate) fn assemble(
        groups: Vec<Arc<CompiledProgram>>,
        prop_group: Vec<u32>,
    ) -> FusedProgram {
        // Group → members CSR; members come out ascending because
        // properties are scanned in id order.
        let member_items: Vec<(usize, u32)> = prop_group
            .iter()
            .enumerate()
            .map(|(p, &g)| (g as usize, p as u32))
            .collect();
        let (members_start, members) = build_csr(groups.len(), &member_items);
        let member_counts: Vec<u32> = members_start.windows(2).map(|w| w[1] - w[0]).collect();

        // Global name → (group, action row) CSR. Rows are group-major in
        // first-appearance order, so dispatch visits groups in the same
        // order their first member property would have been visited by a
        // per-property index.
        let width = groups.iter().map(|g| g.lookup_width()).max().unwrap_or(0);
        let sub_items: Vec<(usize, (u32, u32))> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, program)| {
                // A pruned program's alphabet can name rows the table no
                // longer carries (see `CompiledProgram::pruned`) — those
                // names simply get no CSR entry.
                program.alphabet().iter().filter_map(move |name| {
                    let base = program.action_row(name)?;
                    Some((name.index(), (g as u32, base)))
                })
            })
            .collect();
        let (sub_start, sub_pairs) = build_csr(width, &sub_items);
        let (sub_groups, sub_bases) = sub_pairs.into_iter().unzip();
        let timed_flags: Vec<bool> = groups.iter().map(|g| g.is_timed()).collect();
        let timed_groups = timed_flags
            .iter()
            .enumerate()
            .filter(|(_, &t)| t)
            .map(|(g, _)| g as u32)
            .collect();

        let unique_cells: u64 = groups.iter().map(|g| g.cell_count() as u64).sum();
        let total_cells: u64 = prop_group
            .iter()
            .map(|&g| groups[g as usize].cell_count() as u64)
            .sum();
        let sharing = Sharing {
            properties: prop_group.len() as u64,
            unique_programs: groups.len() as u64,
            total_cells,
            unique_cells,
        };

        FusedProgram {
            groups,
            prop_group,
            members_start,
            members,
            member_counts,
            sub_start,
            sub_groups,
            sub_bases,
            timed_groups,
            timed_flags,
            sharing,
        }
    }

    /// Lower and fuse a rulebook of **well-formed** properties (the
    /// single-call counterpart of `CompiledProgram::lower` per property
    /// plus [`FusedProgram::fuse`]). Callers with unvalidated input should
    /// validate first — see `lomon-engine`'s `Engine::compile`, which
    /// reports every failing property before fusing the survivors.
    pub fn lower(properties: &[Property]) -> FusedProgram {
        let programs: Vec<Arc<CompiledProgram>> = properties
            .iter()
            .map(|p| Arc::new(CompiledProgram::lower(p)))
            .collect();
        Self::fuse(&programs)
    }

    /// Number of properties in the fused rulebook.
    pub fn property_count(&self) -> usize {
        self.prop_group.len()
    }

    /// Number of unique groups after deduplication.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The unique program of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group(&self, g: usize) -> &Arc<CompiledProgram> {
        &self.groups[g]
    }

    /// The group serving property `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn group_of(&self, p: usize) -> usize {
        self.prop_group[p] as usize
    }

    /// Number of member properties of group `g` — the dispatch fan-out
    /// factor, served from a dense precomputed array (one load on the hot
    /// path instead of two CSR-bound loads and a subtract).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[inline]
    pub fn member_count(&self, g: usize) -> u32 {
        self.member_counts[g]
    }

    /// The member property ids of group `g`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[inline]
    pub fn members(&self, g: usize) -> &[u32] {
        let (s, e) = (
            self.members_start[g] as usize,
            self.members_start[g + 1] as usize,
        );
        &self.members[s..e]
    }

    /// The global CSR row of `name`: subscribed group ids with, in
    /// parallel, each group's precomputed action-table row offset for the
    /// name. Empty for names outside every alphabet (including names
    /// interned after fusion).
    #[inline]
    pub fn subscribers(&self, name: Name) -> (&[u32], &[u32]) {
        match self.sub_start.get(name.index()..name.index() + 2) {
            Some(bounds) => {
                let (s, e) = (bounds[0] as usize, bounds[1] as usize);
                (&self.sub_groups[s..e], &self.sub_bases[s..e])
            }
            None => (&[], &[]),
        }
    }

    /// Ids of timed-implication groups (the only ones with deadlines).
    pub fn timed_groups(&self) -> &[u32] {
        &self.timed_groups
    }

    /// Dense group → is-timed flags.
    pub fn timed_flags(&self) -> &[bool] {
        &self.timed_flags
    }

    /// Rebuild the rulebook around a rewritten program arena (same length
    /// and order as the current groups), preserving the property↔group
    /// assignment. This is how `--fix-prune` feeds dead-table-pruned
    /// programs back into the fused representation: the CSR tables are
    /// re-derived from the new programs' (possibly smaller) action tables.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not have exactly one program per existing
    /// group.
    pub fn with_groups(&self, groups: Vec<Arc<CompiledProgram>>) -> FusedProgram {
        assert_eq!(groups.len(), self.groups.len(), "one program per group");
        Self::assemble(groups, self.prop_group.clone())
    }

    /// Allocate the mutable half: one monitor per unique group, each
    /// sharing its group's program tables. This is the whole per-session
    /// state of the fused backend; reusing a session only rewinds these.
    pub fn instantiate(&self) -> Vec<CompiledMonitor> {
        self.groups
            .iter()
            .map(|program| CompiledMonitor::new(Arc::clone(program)))
            .collect()
    }

    /// How much the fusion shared — static facts of the rulebook,
    /// precomputed at fusion time (this is called once per session
    /// `reset()`, i.e. per SMC episode).
    #[inline]
    pub fn sharing(&self) -> Sharing {
        self.sharing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_property;
    use crate::verdict::{Monitor, Verdict};
    use lomon_trace::{SimTime, TimedEvent, Vocabulary};

    fn lower_texts(texts: &[&str]) -> (Vocabulary, FusedProgram) {
        let mut voc = Vocabulary::new();
        let properties: Vec<Property> = texts
            .iter()
            .map(|t| parse_property(t, &mut voc).expect("parses"))
            .collect();
        (voc, FusedProgram::lower(&properties))
    }

    #[test]
    fn identical_properties_share_one_group() {
        let (_, fused) = lower_texts(&[
            "all{a, b} << start once",
            "go => out:done within 50 ns",
            "all{a, b} << start once",
            "all{a, b} << start once",
        ]);
        assert_eq!(fused.property_count(), 4);
        assert_eq!(fused.group_count(), 2);
        assert_eq!(fused.group_of(0), 0);
        assert_eq!(fused.group_of(1), 1);
        assert_eq!(fused.group_of(2), 0);
        assert_eq!(fused.members(0), &[0, 2, 3]);
        assert_eq!(fused.members(1), &[1]);
        let sharing = fused.sharing();
        assert_eq!(sharing.properties, 4);
        assert_eq!(sharing.unique_programs, 2);
        // 3 × (a, b) + 1 × (go, done) cells totalled vs interned.
        assert_eq!(sharing.total_cells, 3 * 2 + 2);
        assert_eq!(sharing.unique_cells, 2 + 2);
    }

    #[test]
    fn structural_differences_stay_separate() {
        // Same alphabet, but different cell order, connective, repetition
        // and kind — none of these may share state: cell order changes the
        // violation detail's range index, `any`/`all` changes the `nok`
        // path, `once`/`repeated` changes the episode dynamics.
        let (_, fused) = lower_texts(&[
            "all{a, b} << start once",
            "all{b, a} << start once",
            "any{a, b} << start once",
            "all{a, b} << start repeated",
        ]);
        assert_eq!(fused.group_count(), 4);

        // Different time bounds never share either.
        let (_, fused) = lower_texts(&[
            "go => out:done within 50 ns",
            "go => out:done within 60 ns",
            "go => out:done within 50 ns",
        ]);
        assert_eq!(fused.group_count(), 2);
        assert_eq!(fused.members(0), &[0, 2]);
    }

    #[test]
    fn csr_routes_names_to_groups_with_valid_bases() {
        let (voc, fused) = lower_texts(&[
            "all{a, b} << start once",
            "b << go once",
            "all{a, b} << start once",
        ]);
        let a = voc.lookup("a").unwrap();
        let b = voc.lookup("b").unwrap();
        let (groups, bases) = fused.subscribers(a);
        assert_eq!(groups, &[0]);
        assert_eq!(bases[0], fused.group(0).action_row(a).unwrap());
        let (groups, bases) = fused.subscribers(b);
        assert_eq!(groups, &[0, 1]);
        for (&g, &base) in groups.iter().zip(bases) {
            assert_eq!(base, fused.group(g as usize).action_row(b).unwrap());
        }
        // A name the rulebook never mentions routes nowhere, even past the
        // CSR's width.
        assert_eq!(fused.subscribers(Name::from_index(1000)).0.len(), 0);
    }

    #[test]
    fn unshared_keeps_every_property_its_own_group() {
        let mut voc = Vocabulary::new();
        let programs: Vec<Arc<CompiledProgram>> = [
            "all{a, b} << start once",
            "b << go once",
            "all{a, b} << start once",
        ]
        .iter()
        .map(|t| {
            Arc::new(CompiledProgram::lower(
                &parse_property(t, &mut voc).unwrap(),
            ))
        })
        .collect();
        let unshared = FusedProgram::unshared(&programs);
        assert_eq!(unshared.group_count(), 3);
        for p in 0..3 {
            assert_eq!(unshared.group_of(p), p);
            assert_eq!(unshared.members(p), &[p as u32]);
            assert_eq!(unshared.member_count(p), 1);
        }
        let b = voc.lookup("b").unwrap();
        assert_eq!(unshared.subscribers(b).0, &[0, 1, 2]);
        let sharing = unshared.sharing();
        assert_eq!(sharing.unique_cells, sharing.total_cells);
        assert_eq!(FusedProgram::fuse(&programs).group_count(), 2);
    }

    #[test]
    fn timed_groups_are_tracked() {
        let (_, fused) = lower_texts(&[
            "all{a, b} << start once",
            "go => out:done within 50 ns",
            "go => out:done within 50 ns",
        ]);
        assert_eq!(fused.timed_groups(), &[1]);
        assert_eq!(fused.timed_flags(), &[false, true]);
    }

    #[test]
    fn shared_group_monitor_matches_an_independent_monitor() {
        // One group serves three identical properties; stepping it once per
        // event must equal stepping a standalone compiled monitor of the
        // same property.
        let (voc, fused) = lower_texts(&[
            "all{a, b} << start repeated",
            "all{a, b} << start repeated",
            "all{a, b} << start repeated",
        ]);
        assert_eq!(fused.group_count(), 1);
        let mut states = fused.instantiate();
        assert_eq!(states.len(), 1);
        let mut solo = CompiledMonitor::new(Arc::clone(fused.group(0)));
        for (name, ns) in [("b", 10), ("a", 20), ("start", 30), ("start", 40)] {
            let event = TimedEvent::new(voc.lookup(name).unwrap(), SimTime::from_ns(ns));
            let base = fused.group(0).action_row(event.name).unwrap();
            let vf = states[0].observe_routed(event, base);
            let vs = solo.observe(event);
            assert_eq!(vf, vs);
            assert_eq!(states[0].ops(), solo.ops());
        }
        assert_eq!(states[0].verdict(), Verdict::Violated);
        assert_eq!(
            states[0].violation().map(|v| &v.detail),
            solo.violation().map(|v| &v.detail)
        );
    }

    #[test]
    fn empty_rulebook_fuses_to_nothing() {
        let fused = FusedProgram::lower(&[]);
        assert_eq!(fused.property_count(), 0);
        assert_eq!(fused.group_count(), 0);
        assert_eq!(fused.subscribers(Name::from_index(0)).0.len(), 0);
        assert!(fused.instantiate().is_empty());
    }
}
