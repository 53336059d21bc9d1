//! The engine-wide term dictionary: term identity, decided once.
//!
//! Concept counting compares terms for equality thousands of times per
//! request and needs their text only to order and name the few dozen
//! concepts it returns. [`TermDict`] therefore gives every analysed term a
//! dense `u32` id ([`Sym`]) the first time any snippet contains it —
//! [`crate::SnippetAnalysis`] stores ids, not text — and the counting pass
//! works on integers, reading text back only for survivors.
//!
//! **Append-only and shared.** One dictionary serves every thread of an
//! engine: a probe takes the read lock, and only a term never seen before
//! takes the write lock. An engine interns the term of every form of its
//! index once, when it builds its [`crate::FormTable`]s; a snippet
//! analysed from text interns in arrival order, which varies with thread
//! interleaving, so nothing downstream may let an id's *value* reach its
//! output: ids are compared for equality and used as table keys, never
//! ordered.
//!
//! **Never evicted, and bounded anyway.** Every snippet is a window of an
//! indexed document body under the same default analyser the index uses, so
//! the dictionary is a subset of the index lexicon that is already
//! resident: 482 stems (3.1 KB of text, 14 KB with offsets and table) on
//! both the 8 k-document and the 300 k-document benchmark world.

use pws_text::{Interner, Sym};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

/// Thread-safe, append-only term ↔ id mapping.
#[derive(Debug)]
pub struct TermDict {
    terms: RwLock<Interner>,
    /// Distinguishes this dictionary from every other in the process: an
    /// analysis carries the stamp of the dictionary its ids belong to.
    stamp: u32,
}

impl Default for TermDict {
    fn default() -> Self {
        Self::new()
    }
}

impl TermDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        static NEXT_STAMP: AtomicU32 = AtomicU32::new(0);
        // Relaxed: the stamp publishes nothing, it only has to be unique.
        TermDict {
            terms: RwLock::new(Interner::new()),
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A read view: look terms up, resolve ids, and intern through it when
    /// a whole snippet's terms are coming. Holds the read lock, so keep it
    /// short and never open a second one on the same thread.
    pub fn read(&self) -> Terms<'_> {
        Terms { dict: self, guard: Some(self.read_lock()) }
    }

    fn read_lock(&self) -> RwLockReadGuard<'_, Interner> {
        // `Interner::intern` checks for overflow before it changes
        // anything, so the value behind a poisoned lock is still whole.
        self.terms.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The id of `term`, assigning the next one if it is new.
    pub fn intern(&self, term: &str) -> Sym {
        self.read().intern(term)
    }

    /// The id of `term` if any snippet analysed so far contained it.
    pub fn get(&self, term: &str) -> Option<Sym> {
        self.read().get(term)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.read_lock().len()
    }

    /// True before the first term.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the dictionary holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        self.read_lock().heap_bytes()
    }

    pub(crate) fn stamp(&self) -> u32 {
        self.stamp
    }
}

/// A [`TermDict`] under its read lock (see [`TermDict::read`]).
#[derive(Debug)]
pub struct Terms<'d> {
    dict: &'d TermDict,
    /// `Some` except inside [`Terms::intern`], which trades the read lock
    /// for the write lock and back.
    guard: Option<RwLockReadGuard<'d, Interner>>,
}

impl<'d> Terms<'d> {
    fn terms(&self) -> &Interner {
        self.guard.as_ref().expect("read lock held outside intern")
    }

    /// The dictionary this view reads.
    pub fn dict(&self) -> &'d TermDict {
        self.dict
    }

    /// The id of `term`, if it has one.
    pub fn get(&self, term: &str) -> Option<Sym> {
        self.terms().get(term)
    }

    /// The text of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` is not an id of this dictionary.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.terms().resolve(sym)
    }

    /// The id of `term`, assigning the next one if it is new. A known term
    /// costs one probe under the read lock this view already holds; a new
    /// one releases it, appends under the write lock, and takes it again.
    pub fn intern(&mut self, term: &str) -> Sym {
        #[cfg(test)]
        INTERNED.with(|n| n.set(n.get() + 1));
        if let Some(sym) = self.get(term) {
            return sym;
        }
        self.guard = None;
        // Probes again under the write lock: another thread may have added
        // the term between the two locks.
        let sym = self.dict.terms.write().unwrap_or_else(|e| e.into_inner()).intern(term);
        self.guard = Some(self.dict.read_lock());
        sym
    }
}

#[cfg(test)]
thread_local! {
    /// `Terms::intern` calls on this thread, so tests can show a pass
    /// interned nothing.
    pub(crate) static INTERNED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::sync::Barrier;

    #[test]
    fn intern_get_resolve_round_trip() {
        let dict = TermDict::new();
        assert!(dict.is_empty() && dict.get("seafood").is_none());
        let a = dict.intern("seafood");
        assert_eq!(dict.intern("seafood"), a);
        let b = dict.intern("lobster");
        assert_ne!(a, b);
        assert_eq!(dict.get("lobster"), Some(b));
        let terms = dict.read();
        assert_eq!((terms.resolve(a), terms.resolve(b)), ("seafood", "lobster"));
        drop(terms);
        assert_eq!(dict.len(), 2);
        assert!(dict.heap_bytes() >= "seafoodlobster".len());
        assert_ne!(dict.stamp(), TermDict::new().stamp());
    }

    /// Four threads intern overlapping vocabularies, each in its own order,
    /// released together: whatever the interleaving, a term has one id.
    #[test]
    fn concurrent_interning_agrees_on_every_id() {
        const THREADS: usize = 4;
        let vocab: Vec<String> = (0..600).map(|i| format!("term{i}")).collect();
        let dict = TermDict::new();
        let start = Barrier::new(THREADS);
        let seen: Vec<HashMap<String, Sym>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (dict, start, vocab) = (&dict, &start, &vocab);
                    scope.spawn(move || {
                        // Thread t walks the vocabulary with its own stride
                        // (coprime to 600, so a permutation) and skips the
                        // terms whose length picks it.
                        let mine: Vec<&String> = (0..vocab.len())
                            .map(|i| &vocab[(i * [7, 11, 13, 17][t] + 31 * t) % vocab.len()])
                            .filter(|w| w.len() % THREADS != t)
                            .collect();
                        start.wait();
                        let mut terms = dict.read();
                        mine.iter().map(|w| ((*w).clone(), terms.intern(w))).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("interning thread")).collect()
        });
        let mut ids: HashMap<&str, Sym> = HashMap::new();
        for (term, sym) in seen.iter().flatten() {
            assert_eq!(*ids.entry(term).or_insert(*sym), *sym, "{term} has two ids");
        }
        assert_eq!(dict.len(), ids.len());
        assert_eq!(ids.values().collect::<HashSet<_>>().len(), ids.len(), "an id names two terms");
        let terms = dict.read();
        for (term, sym) in ids {
            assert_eq!(terms.resolve(sym), term);
        }
    }
}
