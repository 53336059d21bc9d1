//! The term vocabulary concept ids belong to.
//!
//! Concept counting compares terms for equality thousands of times per
//! request and needs their text only to order and name the few dozen
//! concepts it returns. A [`TermDict`] therefore gives every analysed term a
//! dense `u32` id ([`Sym`]) — [`crate::SnippetAnalysis`] stores ids, not
//! text — and the counting pass works on integers, reading text back only
//! for survivors.
//!
//! An engine's dictionary is its index's term table (`pws_index::TermTable`),
//! borrowed ([`TermDict::of`]): read-only, so no lock, and no term gets an
//! id after the engine is built. On both benchmark worlds (8 k and 300 k
//! documents) that is 489 terms — the 482 lexicon stems and 7 stems only
//! stopword or one-letter forms have — in 3.1 KB of text, 14 KB with
//! offsets and table. The string entry points intern through `&mut` into
//! a dictionary of their own (a borrowed one copies its table on the first
//! term it lacks). Ids follow the order a dictionary met its terms, so they
//! are only compared for equality, never ordered: no byte of output may
//! depend on an id's value.

use pws_text::{Interner, Sym};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, Ordering};

/// A term ↔ id mapping, owned or borrowed from an index.
#[derive(Debug)]
pub struct TermDict<'t> {
    terms: Cow<'t, Interner>,
    /// Distinguishes this dictionary from every other in the process: an
    /// analysis carries the stamp of the dictionary its ids belong to.
    stamp: u32,
}

impl Default for TermDict<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// A stamp no other dictionary of the process has.
fn next_stamp() -> u32 {
    static NEXT_STAMP: AtomicU32 = AtomicU32::new(0);
    // Relaxed: the stamp publishes nothing, it only has to be unique.
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

impl<'t> TermDict<'t> {
    /// An empty dictionary.
    pub fn new() -> Self {
        TermDict { terms: Cow::Owned(Interner::new()), stamp: next_stamp() }
    }

    /// A dictionary over `terms` (an index's term table), borrowed.
    pub fn of(terms: &'t Interner) -> Self {
        TermDict { terms: Cow::Borrowed(terms), stamp: next_stamp() }
    }

    /// The id of `term`, assigning the next one if it is new (a borrowed
    /// dictionary copies its table first).
    pub fn intern(&mut self, term: &str) -> Sym {
        #[cfg(test)]
        INTERNED.with(|n| n.set(n.get() + 1));
        match self.terms.get(term) {
            Some(sym) => sym,
            None => self.terms.to_mut().intern(term),
        }
    }

    /// The id of `term`, if it has one.
    pub fn get(&self, term: &str) -> Option<Sym> {
        self.terms.get(term)
    }

    /// The text of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` is not an id of this dictionary.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.terms.resolve(sym)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True before the first term.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Bytes the dictionary's table holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        self.terms.heap_bytes()
    }

    pub(crate) fn stamp(&self) -> u32 {
        self.stamp
    }
}

#[cfg(test)]
thread_local! {
    /// `TermDict::intern` calls on this thread, so tests can show a pass
    /// interned nothing.
    pub(crate) static INTERNED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_get_resolve_round_trip() {
        let mut dict = TermDict::new();
        assert!(dict.is_empty() && dict.get("seafood").is_none());
        let a = dict.intern("seafood");
        assert_eq!(dict.intern("seafood"), a);
        let b = dict.intern("lobster");
        assert_ne!(a, b);
        assert_eq!(dict.get("lobster"), Some(b));
        assert_eq!((dict.resolve(a), dict.resolve(b)), ("seafood", "lobster"));
        assert_eq!(dict.len(), 2);
        assert!(dict.heap_bytes() >= "seafoodlobster".len());
        assert_ne!(dict.stamp(), TermDict::new().stamp());
    }

    /// A borrowed table is read in place by any number of threads at once,
    /// and interning into a borrowed dictionary copies the table once: the
    /// ids it had stay, the new term takes the next one, and the table it
    /// borrowed is left as it was.
    #[test]
    fn a_borrowed_table_is_shared_read_only_and_copied_on_a_new_term() {
        let vocab: Vec<String> = (0..600).map(|i| format!("term{i}")).collect();
        let mut table = Interner::new();
        for t in &vocab {
            table.intern(t);
        }
        let shared = TermDict::of(&table);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (shared, vocab) = (&shared, &vocab);
                scope.spawn(move || {
                    for (i, w) in vocab.iter().enumerate().skip(t).step_by(4) {
                        assert_eq!(shared.get(w), Some(Sym(i as u32)));
                        assert_eq!(shared.resolve(Sym(i as u32)), w);
                    }
                });
            }
        });
        let mut own = TermDict::of(&table);
        assert_eq!(own.intern("term7"), Sym(7));
        assert!(matches!(own.terms, Cow::Borrowed(_)), "a known term copies nothing");
        assert_eq!(own.intern("seafood"), Sym(600));
        assert_eq!((own.len(), table.len()), (601, 600));
        assert_eq!(own.resolve(Sym(7)), "term7");
        assert_eq!(table.get("seafood"), None);
    }
}
