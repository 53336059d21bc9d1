//! Memo of per-snippet analyses.
//!
//! A [`SnippetAnalysis`] depends on the snippet text alone, and snippets
//! recur far more than pools do: the page is a subset of the pool it was
//! picked from, an augmented pool shares most snippets with the base
//! pool, and base retrieval is user-independent, so every user issuing a
//! query sees the same snippets whatever their personalised pool looks
//! like. [`ConceptMemo`] therefore maps **snippet text →
//! `Arc<SnippetAnalysis>`**. Entries are content-addressed, so they are
//! never stale — not across users, queries, configurations or index
//! publishes. The memo also owns the [`TermDict`] its analyses' term ids
//! belong to, so an analysis it hands out is always counted against the
//! dictionary that produced it.
//!
//! Layout: 8 mutex shards, each a fixed slot array used as a 4-way
//! associative cache — a text may live in any of the 4 consecutive slots
//! starting at `hash % slots`, and a full window replaces its least
//! recently used entry. Probe, insert and eviction are all O(1), nothing
//! is allocated beyond the entries, and the table never holds more than
//! the capacity it was built with. A probe matches on the stored text,
//! not on the hash: colliding snippets get separate entries.
//!
//! Safe to share across threads (`&self` everywhere, `Send + Sync`).

use crate::dict::TermDict;
use crate::snippet::SnippetAnalysis;
use pws_geo::LocationMatcher;
use std::hash::Hasher;
use std::sync::{Arc, Mutex, MutexGuard};

const SHARDS: usize = 8;
const WAYS: usize = 4;

/// One cached analysis, keyed by the snippet text itself.
#[derive(Debug)]
struct Entry {
    hash: u64,
    /// Shard tick of the last probe that returned this entry.
    used: u64,
    text: Box<str>,
    analysis: Arc<SnippetAnalysis>,
}

impl Entry {
    fn holds(&self, hash: u64, text: &str) -> bool {
        self.hash == hash && *self.text == *text
    }
}

#[derive(Debug)]
struct Shard {
    slots: Vec<Option<Entry>>,
    tick: u64,
}

impl Shard {
    /// The slots `hash` may occupy.
    fn window(&self, hash: u64) -> impl Iterator<Item = usize> {
        let n = self.slots.len();
        let start = if n == 0 { 0 } else { (hash / SHARDS as u64 % n as u64) as usize };
        (0..WAYS.min(n)).map(move |k| (start + k) % n)
    }

    fn get(&mut self, hash: u64, text: &str) -> Option<Arc<SnippetAnalysis>> {
        self.tick += 1;
        for i in self.window(hash) {
            if let Some(entry) = self.slots[i].as_mut().filter(|e| e.holds(hash, text)) {
                entry.used = self.tick;
                return Some(Arc::clone(&entry.analysis));
            }
        }
        None
    }

    fn put(&mut self, hash: u64, text: &str, analysis: Arc<SnippetAnalysis>) {
        self.tick += 1;
        // The slot already holding `text` (a racing thread analysed it
        // too), else an empty one, else the least recently used.
        let victim = self.window(hash).min_by_key(|&i| match &self.slots[i] {
            Some(e) if e.holds(hash, text) => (0, 0),
            None => (1, 0),
            Some(e) => (2, e.used),
        });
        if let Some(i) = victim {
            self.slots[i] = Some(Entry { hash, used: self.tick, text: text.into(), analysis });
        }
    }
}

fn text_hash(text: &str) -> u64 {
    // Fixed keys: the same text lands in the same slot in every run, so
    // hit/miss counts under eviction pressure repeat exactly.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(text.as_bytes());
    h.finish()
}

/// Bounded, sharded memo of snippet analyses.
///
/// Capacity 0 disables memoization entirely (every lookup analyses).
#[derive(Debug)]
pub struct ConceptMemo {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    hash: fn(&str) -> u64,
    /// Term ids of every analysis made here — including, at capacity 0,
    /// the ones that are not kept.
    dict: TermDict,
}

impl ConceptMemo {
    /// A memo holding at most `capacity` analyses (split across shards).
    /// `capacity = 0` disables caching.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, text_hash)
    }

    fn with_hasher(capacity: usize, hash: fn(&str) -> u64) -> Self {
        let shards = (0..SHARDS)
            .map(|i| {
                let slots = capacity / SHARDS + usize::from(i < capacity % SHARDS);
                Mutex::new(Shard { slots: (0..slots).map(|_| None).collect(), tick: 0 })
            })
            .collect();
        ConceptMemo { shards, capacity, hash, dict: TermDict::new() }
    }

    /// The dictionary the memo's analyses are built against: what
    /// [`crate::QueryConceptOntology::from_analyses`] must be given with
    /// them.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard> {
        // A slot is replaced by one assignment, so a shard is valid at
        // every step and a poisoned lock can simply be taken over.
        self.shards[(hash % SHARDS as u64) as usize].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The analysis of `text`, from the memo or computed (and memoized)
    /// now; the flag is true for a hit. An analysis is a pure function of
    /// the text (the matcher is fixed per engine), so a cached one is
    /// indistinguishable from a fresh one.
    pub fn get_or_analyze(
        &self,
        text: &str,
        matcher: &LocationMatcher,
    ) -> (Arc<SnippetAnalysis>, bool) {
        let hash = (self.hash)(text);
        if let Some(hit) = self.shard(hash).get(hash, text) {
            return (hit, true);
        }
        // Analyse outside the lock: it is the expensive part, and racing
        // analysers of one text produce the same value.
        let analysis = Arc::new(SnippetAnalysis::new(text, matcher, &self.dict));
        self.shard(hash).put(hash, text, Arc::clone(&analysis));
        (analysis, false)
    }

    /// [`get_or_analyze`](Self::get_or_analyze) for every snippet of a
    /// pool, in order. Returns the analyses and how many were misses.
    pub fn get_or_analyze_all<'s>(
        &self,
        snippets: impl IntoIterator<Item = &'s str>,
        matcher: &LocationMatcher,
    ) -> (Vec<Arc<SnippetAnalysis>>, usize) {
        let mut misses = 0;
        let analyses = snippets
            .into_iter()
            .map(|text| {
                let (analysis, hit) = self.get_or_analyze(text, matcher);
                misses += usize::from(!hit);
                analysis
            })
            .collect();
        (analyses, misses)
    }

    fn fold_entries<T>(&self, init: T, mut f: impl FnMut(T, &Entry) -> T) -> T {
        self.shards.iter().fold(init, |acc, shard| {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            shard.slots.iter().flatten().fold(acc, &mut f)
        })
    }

    /// Number of cached analyses across all shards.
    pub fn len(&self) -> usize {
        self.fold_entries(0, |n, _| n + 1)
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the memo holds: the term dictionary, the slot arrays and, per
    /// entry, the key text and the shared analysis (allocator overhead not
    /// included).
    pub fn heap_bytes(&self) -> usize {
        let per_entry = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<SnippetAnalysis>();
        let fixed = self.dict.heap_bytes() + self.capacity * std::mem::size_of::<Option<Entry>>();
        self.fold_entries(fixed, |bytes, e| {
            bytes + e.text.len() + per_entry + e.analysis.heap_bytes()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snippet::BUILT;
    use pws_geo::{LocId, LocationOntology};

    fn world() -> LocationOntology {
        let mut o = LocationOntology::new();
        let r = o.add(LocId::WORLD, "westland", vec![]);
        let c = o.add(r, "ardonia", vec![]);
        let s = o.add(c, "north vale", vec![]);
        o.add(s, "port alden", vec![]);
        o
    }

    fn built() -> u64 {
        BUILT.with(|n| n.get())
    }

    #[test]
    fn second_lookup_hits_and_equals_a_fresh_analysis() {
        let w = world();
        let m = LocationMatcher::build(&w);
        let memo = ConceptMemo::new(16);
        let text = "seafood lobster specials in port alden";
        let before = built();
        let (a, hit_a) = memo.get_or_analyze(text, &m);
        let (b, hit_b) = memo.get_or_analyze(text, &m);
        assert!(!hit_a && hit_b);
        assert_eq!(built() - before, 1, "the hit analysed nothing");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, SnippetAnalysis::new(text, &m, memo.dict()));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn pool_lookup_counts_misses_and_dedupes_within_a_pool() {
        let w = world();
        let m = LocationMatcher::build(&w);
        let memo = ConceptMemo::new(64);
        let pool = ["seafood menu", "lobster rolls", "seafood menu", "port alden harbor"];
        let (analyses, misses) = memo.get_or_analyze_all(pool, &m);
        assert_eq!(analyses.len(), 4);
        assert_eq!(misses, 3, "the repeated snippet hits the entry its first occurrence made");
        assert!(Arc::ptr_eq(&analyses[0], &analyses[2]));
        // A page drawn from the pool, and another pool sharing snippets.
        assert_eq!(memo.get_or_analyze_all(["lobster rolls", "seafood menu"], &m).1, 0);
        assert_eq!(memo.get_or_analyze_all(["seafood menu", "sushi bar"], &m).1, 1);
    }

    /// The exactness bug of the whole-pool memo: entries were keyed on a
    /// 64-bit fingerprint alone. Here every text collides on hash, shard
    /// and slot window, and must still get its own analysis.
    #[test]
    fn colliding_hashes_do_not_alias() {
        let w = world();
        let m = LocationMatcher::build(&w);
        let memo = ConceptMemo::with_hasher(64, |_| 7);
        let (a, _) = memo.get_or_analyze("seafood in port alden", &m);
        let (b, hit) = memo.get_or_analyze("lobster in ardonia", &m);
        assert!(!hit, "a different text with the same hash is a miss");
        assert_ne!(*a, *b);
        assert_eq!(*b, SnippetAnalysis::new("lobster in ardonia", &m, memo.dict()));
        // Both stay retrievable side by side.
        assert!(memo.get_or_analyze("seafood in port alden", &m).1);
        assert!(memo.get_or_analyze("lobster in ardonia", &m).1);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn capacity_bounds_and_a_full_window_evicts_its_lru() {
        let w = world();
        let m = LocationMatcher::build(&w);
        for capacity in [1, 5, 8, 13, 64] {
            let memo = ConceptMemo::new(capacity);
            for i in 0..200 {
                memo.get_or_analyze(&format!("snippet number {i}"), &m);
                assert!(memo.len() <= capacity, "{} entries in a memo of {capacity}", memo.len());
            }
        }
        // One window of 4: touching "a" keeps it; "b" is the LRU and goes.
        let memo = ConceptMemo::with_hasher(4 * SHARDS, |_| 0);
        for t in ["a", "b", "c", "d"] {
            memo.get_or_analyze(t, &m);
        }
        assert!(memo.get_or_analyze("a", &m).1);
        assert!(!memo.get_or_analyze("e", &m).1);
        assert!(memo.get_or_analyze("a", &m).1);
        assert!(!memo.get_or_analyze("b", &m).1, "b was evicted");
    }

    #[test]
    fn zero_capacity_disables() {
        let w = world();
        let m = LocationMatcher::build(&w);
        let memo = ConceptMemo::new(0);
        assert!(!memo.get_or_analyze("seafood", &m).1);
        assert!(!memo.get_or_analyze("seafood", &m).1);
        assert!(memo.is_empty());
    }
}
