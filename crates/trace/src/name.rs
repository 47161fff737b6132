//! Interned interface names and the vocabulary that owns them.
//!
//! The paper's patterns are written on the vocabulary of the input/output
//! interface `(I, O)` of a component (Section 4). A [`Vocabulary`] interns
//! strings into compact [`Name`] handles and records, for each name, whether
//! it is an input or an output of the monitored component — the grammar's
//! side conditions (`i ∈ I`, `α(Q) ⊆ O`) are checked against this
//! classification.

use std::fmt;

/// Whether an interface name is an input or an output of the monitored
/// component.
///
/// The paper (Section 3): "an input of the IPU is any action of the other
/// components that affects the IPU […]; output is any activity performed by
/// the IPU that affects other components".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// An action of the environment observed by the component (e.g.
    /// `set_imgAddr`, `start`).
    Input,
    /// An activity performed by the component (e.g. `read_img`, `set_irq`).
    Output,
}

impl Direction {
    /// Short lowercase label used by the trace text format.
    pub fn label(self) -> &'static str {
        match self {
            Direction::Input => "in",
            Direction::Output => "out",
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A cheap, copyable handle for one interned interface name.
///
/// `Name`s are only meaningful relative to the [`Vocabulary`] that produced
/// them; use [`Vocabulary::resolve`] to get the string back.
///
/// # Example
///
/// ```
/// use lomon_trace::{Direction, Vocabulary};
/// let mut voc = Vocabulary::new();
/// let n = voc.intern("start", Direction::Input);
/// assert_eq!(voc.resolve(n), "start");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(u32);

impl Name {
    /// The dense index of this name inside its vocabulary (0-based intern
    /// order). Useful for index-based lookup tables in monitors.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a name from a dense index previously obtained with
    /// [`Name::index`].
    ///
    /// This performs no validation; resolving a fabricated name against the
    /// wrong vocabulary panics.
    pub fn from_index(index: usize) -> Self {
        Name(index as u32)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({})", self.0)
    }
}

/// String interner and input/output classifier for interface names.
///
/// A vocabulary is append-only: interning the same string twice returns the
/// same [`Name`]. Re-interning with a *different* [`Direction`] keeps the
/// original direction (first writer wins) — interfaces do not change
/// direction mid-run — and the mismatch can be detected with
/// [`Vocabulary::direction`].
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    names: Vec<String>,
    directions: Vec<Direction>,
    index: ByteIndex,
}

/// Open-addressed byte-keyed index from name bytes to dense name ids.
///
/// This is the "precomputed byte-keyed table" behind
/// [`Vocabulary::lookup_bytes`]: keys are hashed with FNV-1a over the raw
/// bytes (no `String` construction, no `SipHash` state) and probed linearly
/// in a power-of-two slot array. The table stores only `u32` name ids;
/// key bytes are resolved against the vocabulary's own `names` vector, so
/// the read side touches one small contiguous allocation. The table is
/// maintained incrementally by [`Vocabulary::intern`] — a vocabulary that
/// has stopped interning (the rulebook is compiled, the alphabet is fixed)
/// is exactly the frozen read-side view the wire-speed decode path wants.
#[derive(Debug, Clone, Default)]
struct ByteIndex {
    /// Power-of-two slot array; `EMPTY_SLOT` marks a free slot, anything
    /// else is a dense name id.
    slots: Vec<u32>,
    /// Number of occupied slots.
    len: usize,
}

const EMPTY_SLOT: u32 = u32::MAX;

/// FNV-1a over raw bytes: two arithmetic ops per byte, no per-lookup
/// hasher state, good enough dispersion for short identifier-like keys.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

impl ByteIndex {
    /// Find the name id stored for `key`, resolving collisions against the
    /// backing `names` vector.
    #[inline]
    fn get(&self, key: &[u8], names: &[String]) -> Option<Name> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = (fnv1a(key) as usize) & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY_SLOT {
                return None;
            }
            if names[id as usize].as_bytes() == key {
                return Some(Name(id));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Insert the id of the freshly pushed last entry of `names`,
    /// growing/rehashing at 3/4 load.
    fn insert_last(&mut self, names: &[String]) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(names);
        }
        let id = (names.len() - 1) as u32;
        let key = names[id as usize].as_bytes();
        let mask = self.slots.len() - 1;
        let mut slot = (fnv1a(key) as usize) & mask;
        while self.slots[slot] != EMPTY_SLOT {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = id;
        self.len += 1;
    }

    /// Rebuild the slot array at double capacity. Only the dense prefix of
    /// already-indexed names (`0..self.len`, by construction every id
    /// interned so far) is reinserted — a caller may have pushed the next
    /// name onto `names` already.
    fn grow(&mut self, names: &[String]) {
        let new_cap = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(new_cap, EMPTY_SLOT);
        let mask = new_cap - 1;
        for (id, name) in names.iter().take(self.len).enumerate() {
            let mut slot = (fnv1a(name.as_bytes()) as usize) & mask;
            while self.slots[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32;
        }
    }
}

impl Vocabulary {
    /// Create an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `text` as a name with the given direction, returning the
    /// existing handle if `text` was interned before.
    pub fn intern(&mut self, text: &str, direction: Direction) -> Name {
        if let Some(name) = self.index.get(text.as_bytes(), &self.names) {
            return name;
        }
        let name = Name(self.names.len() as u32);
        self.names.push(text.to_owned());
        self.directions.push(direction);
        self.index.insert_last(&self.names);
        name
    }

    /// Intern an input name (shorthand for [`Vocabulary::intern`] with
    /// [`Direction::Input`]).
    pub fn input(&mut self, text: &str) -> Name {
        self.intern(text, Direction::Input)
    }

    /// Intern an output name (shorthand for [`Vocabulary::intern`] with
    /// [`Direction::Output`]).
    pub fn output(&mut self, text: &str) -> Name {
        self.intern(text, Direction::Output)
    }

    /// Look up a previously interned name without inserting.
    pub fn lookup(&self, text: &str) -> Option<Name> {
        self.lookup_bytes(text.as_bytes())
    }

    /// Look up a previously interned name by its raw bytes, without
    /// inserting and without constructing a `String` or `&str`.
    ///
    /// This is the frozen read-side view used by the wire-speed decode
    /// path: once a rulebook is compiled the vocabulary stops growing, and
    /// streaming decoders resolve event names straight from the input
    /// buffer into pre-resolved `u32` [`Name`] ids via the precomputed
    /// byte-keyed table (FNV-1a + linear probing — no allocation, no
    /// `SipHash`).
    ///
    /// # Example
    ///
    /// ```
    /// use lomon_trace::Vocabulary;
    /// let mut voc = Vocabulary::new();
    /// let start = voc.input("start");
    /// assert_eq!(voc.lookup_bytes(b"start"), Some(start));
    /// assert_eq!(voc.lookup_bytes(b"stop"), None);
    /// ```
    #[inline]
    pub fn lookup_bytes(&self, bytes: &[u8]) -> Option<Name> {
        self.index.get(bytes, &self.names)
    }

    /// The string for `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` does not belong to this vocabulary.
    pub fn resolve(&self, name: Name) -> &str {
        &self.names[name.index()]
    }

    /// The direction recorded for `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` does not belong to this vocabulary.
    pub fn direction(&self, name: Name) -> Direction {
        self.directions[name.index()]
    }

    /// Number of distinct names interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no name has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over all names in intern order.
    pub fn iter(&self) -> impl Iterator<Item = Name> + '_ {
        (0..self.names.len() as u32).map(Name)
    }

    /// Render a name set as `{a, b, c}` (sorted by intern order) for
    /// diagnostics.
    pub fn display_set(&self, set: &NameSet) -> String {
        let mut out = String::from("{");
        for (k, name) in set.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(self.resolve(name));
        }
        out.push('}');
        out
    }
}

/// A set of [`Name`]s backed by a bit vector.
///
/// Monitors consult name sets (the recognition context `B, C, Ac, Af` of the
/// paper's Fig. 5) on every event, so membership must be O(1) and allocation
/// free. Names intern densely from zero, which makes a bitset the natural
/// representation.
///
/// # Example
///
/// ```
/// use lomon_trace::{Direction, NameSet, Vocabulary};
/// let mut voc = Vocabulary::new();
/// let a = voc.input("a");
/// let b = voc.input("b");
/// let mut set = NameSet::new();
/// set.insert(a);
/// assert!(set.contains(a) && !set.contains(b));
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct NameSet {
    bits: Vec<u64>,
}

impl NameSet {
    /// Create an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a name. Returns `true` if it was not already present.
    pub fn insert(&mut self, name: Name) -> bool {
        let (word, bit) = (name.index() / 64, name.index() % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let had = self.bits[word] & (1 << bit) != 0;
        self.bits[word] |= 1 << bit;
        !had
    }

    /// Remove a name. Returns `true` if it was present.
    pub fn remove(&mut self, name: Name) -> bool {
        let (word, bit) = (name.index() / 64, name.index() % 64);
        if word >= self.bits.len() {
            return false;
        }
        let had = self.bits[word] & (1 << bit) != 0;
        self.bits[word] &= !(1 << bit);
        had
    }

    /// Membership test.
    pub fn contains(&self, name: Name) -> bool {
        let (word, bit) = (name.index() / 64, name.index() % 64);
        self.bits.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Number of names in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterate over members in increasing intern order.
    pub fn iter(&self) -> impl Iterator<Item = Name> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |bit| {
                if w & (1u64 << bit) != 0 {
                    Some(Name::from_index(wi * 64 + bit))
                } else {
                    None
                }
            })
        })
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &NameSet) {
        if other.bits.len() > self.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        for (dst, src) in self.bits.iter_mut().zip(&other.bits) {
            *dst |= src;
        }
    }

    /// Whether `self` and `other` share at least one name.
    pub fn intersects(&self, other: &NameSet) -> bool {
        self.bits.iter().zip(&other.bits).any(|(a, b)| a & b != 0)
    }
}

impl fmt::Debug for NameSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Name> for NameSet {
    fn from_iter<T: IntoIterator<Item = Name>>(iter: T) -> Self {
        let mut set = NameSet::new();
        for n in iter {
            set.insert(n);
        }
        set
    }
}

impl Extend<Name> for NameSet {
    fn extend<T: IntoIterator<Item = Name>>(&mut self, iter: T) {
        for n in iter {
            self.insert(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut voc = Vocabulary::new();
        let a1 = voc.intern("start", Direction::Input);
        let a2 = voc.intern("start", Direction::Input);
        assert_eq!(a1, a2);
        assert_eq!(voc.len(), 1);
    }

    #[test]
    fn first_direction_wins() {
        let mut voc = Vocabulary::new();
        let n = voc.intern("irq", Direction::Output);
        let same = voc.intern("irq", Direction::Input);
        assert_eq!(n, same);
        assert_eq!(voc.direction(n), Direction::Output);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut voc = Vocabulary::new();
        let names: Vec<_> = ["a", "b", "c_long_name"]
            .iter()
            .map(|s| voc.input(s))
            .collect();
        for (i, text) in ["a", "b", "c_long_name"].iter().enumerate() {
            assert_eq!(voc.resolve(names[i]), *text);
            assert_eq!(voc.lookup(text), Some(names[i]));
        }
        assert_eq!(voc.lookup("missing"), None);
    }

    #[test]
    fn lookup_bytes_matches_lookup_across_growth() {
        let mut voc = Vocabulary::new();
        // Push through several ByteIndex rehashes.
        let names: Vec<_> = (0..300).map(|i| voc.input(&format!("name_{i}"))).collect();
        for (i, n) in names.iter().enumerate() {
            let text = format!("name_{i}");
            assert_eq!(voc.lookup(&text), Some(*n));
            assert_eq!(voc.lookup_bytes(text.as_bytes()), Some(*n));
        }
        assert_eq!(voc.lookup_bytes(b"name_300"), None);
        assert_eq!(voc.lookup_bytes(b""), None);
        let empty = Vocabulary::new();
        assert_eq!(empty.lookup_bytes(b"anything"), None);
    }

    #[test]
    fn name_index_roundtrip() {
        let mut voc = Vocabulary::new();
        let n = voc.input("x");
        assert_eq!(Name::from_index(n.index()), n);
    }

    #[test]
    fn vocabulary_iter_in_order() {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let b = voc.output("b");
        let collected: Vec<_> = voc.iter().collect();
        assert_eq!(collected, vec![a, b]);
    }

    #[test]
    fn nameset_insert_contains_remove() {
        let mut voc = Vocabulary::new();
        // Force a second bitset word by interning > 64 names.
        let names: Vec<_> = (0..70).map(|i| voc.input(&format!("n{i}"))).collect();
        let mut set = NameSet::new();
        assert!(set.insert(names[0]));
        assert!(!set.insert(names[0]));
        assert!(set.insert(names[69]));
        assert!(set.contains(names[0]) && set.contains(names[69]));
        assert!(!set.contains(names[1]));
        assert_eq!(set.len(), 2);
        assert!(set.remove(names[0]));
        assert!(!set.remove(names[0]));
        assert!(!set.contains(names[0]));
    }

    #[test]
    fn nameset_iter_sorted() {
        let mut voc = Vocabulary::new();
        let names: Vec<_> = (0..5).map(|i| voc.input(&format!("n{i}"))).collect();
        let set: NameSet = [names[4], names[1], names[2]].into_iter().collect();
        let out: Vec<_> = set.iter().collect();
        assert_eq!(out, vec![names[1], names[2], names[4]]);
    }

    #[test]
    fn nameset_union_and_intersects() {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let b = voc.input("b");
        let c = voc.input("c");
        let mut s1: NameSet = [a].into_iter().collect();
        let s2: NameSet = [b, c].into_iter().collect();
        assert!(!s1.intersects(&s2));
        s1.union_with(&s2);
        assert!(s1.contains(b) && s1.contains(c));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn nameset_empty_properties() {
        let set = NameSet::new();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert_eq!(set.iter().count(), 0);
        let other = NameSet::new();
        assert!(!set.intersects(&other));
    }

    #[test]
    fn display_set_renders_sorted_names() {
        let mut voc = Vocabulary::new();
        let a = voc.input("alpha");
        let b = voc.input("beta");
        let set: NameSet = [b, a].into_iter().collect();
        assert_eq!(voc.display_set(&set), "{alpha, beta}");
    }
}
