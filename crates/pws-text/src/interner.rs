//! A compact string interner.
//!
//! Vocabulary sizes in the synthetic corpus run to the tens of thousands;
//! interning terms once and passing `u32` symbols through the index and the
//! concept pipeline avoids repeated hashing of strings on the hot path.
//!
//! Each distinct string is stored exactly once, back to back in one byte
//! arena, and found through an open-addressed table of symbol ids probed
//! with a fixed-key multiplicative hash. The hash is not keyed per process:
//! what gets interned is the analysed vocabulary of the indexed corpus
//! (query text is only ever looked up), and a fixed function keeps the slot
//! layout — and with it the timing — the same in every run.

/// Interned string id. `Sym(u32)` — small enough to pack into postings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The raw index of this symbol in the interner's arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional string ↔ symbol mapping.
///
/// Symbols are dense (0..len) and stable for the interner's lifetime.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Every interned string, concatenated in symbol order.
    arena: String,
    /// `ends[i]` is the byte offset in `arena` one past string `i`.
    ends: Vec<u32>,
    /// Open-addressed table, empty or a power of two long and at most half
    /// full. `0` is a free slot; otherwise the low half is `symbol + 1` and
    /// the high half the top half of the string's hash, so a probe compares
    /// bytes only with a string that very likely is the one.
    slots: Vec<u64>,
}

const TAG: u64 = !0 << 32;

/// Fixed-key multiplicative hash: the Fx mixing step over 8-byte words,
/// then a fold so the low bits (the table index) depend on every byte.
fn hash(s: &str) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = s.as_bytes().chunks_exact(8);
    // Seeded with the length, so zero-padding the last word cannot make
    // "a" and "a\0" collide by construction.
    let mut h = s.len() as u64;
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(word));
    }
    h ^ (h >> 32)
}

impl Interner {
    /// Create an empty interner.
    pub const fn new() -> Self {
        Interner { arena: String::new(), ends: Vec::new(), slots: Vec::new() }
    }

    /// Create an interner with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut it = Interner { ends: Vec::with_capacity(cap), ..Self::default() };
        it.rebuild_slots((cap * 2).next_power_of_two());
        it
    }

    /// `Ok(symbol)` when `s` (hashing to `h`) is interned, else `Err(slot)`
    /// with the free slot it belongs in. The table must not be empty; it is
    /// never full, so the probe ends.
    fn find(&self, s: &str, h: u64) -> Result<Sym, usize> {
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Err(i);
            }
            let sym = Sym(slot as u32 - 1);
            if slot & TAG == h & TAG && self.resolve(sym) == s {
                return Ok(sym);
            }
            i = (i + 1) & mask;
        }
    }

    /// Replace the table by one of `len` slots (a power of two, more than
    /// twice the symbols held) and re-enter every symbol.
    fn rebuild_slots(&mut self, len: usize) {
        self.slots.clear();
        self.slots.resize(len.max(16), 0);
        let mask = self.slots.len() - 1;
        for sym in 0..self.ends.len() as u32 {
            let h = hash(self.resolve(Sym(sym)));
            // Interned strings are distinct: the first free slot is the one.
            let mut i = h as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = h & TAG | u64::from(sym + 1);
        }
    }

    /// Intern `s`, returning its (possibly pre-existing) symbol. A string
    /// seen for the first time is copied once, into the arena.
    pub fn intern(&mut self, s: &str) -> Sym {
        if (self.ends.len() + 1) * 2 > self.slots.len() {
            self.rebuild_slots(self.slots.len() * 2);
        }
        let h = hash(s);
        let free = match self.find(s, h) {
            Ok(sym) => return sym,
            Err(free) => free,
        };
        let sym = u32::try_from(self.ends.len())
            .ok()
            .filter(|&n| n < u32::MAX)
            .expect("interner overflow: >4B symbols");
        let end = u32::try_from(self.arena.len() + s.len()).expect("interner overflow: >4 GiB of text");
        self.arena.push_str(s);
        self.ends.push(end);
        self.slots[free] = h & TAG | u64::from(sym + 1);
        Sym(sym)
    }

    /// Forget every string, keeping the allocations.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.ends.clear();
        self.slots.fill(0);
    }

    /// Look up an existing symbol without interning.
    pub fn get(&self, s: &str) -> Option<Sym> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(s, hash(s)).ok()
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start as usize..self.ends[i] as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterate `(Sym, &str)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        (0..self.ends.len() as u32).map(|i| (Sym(i), self.resolve(Sym(i))))
    }

    /// Bytes held on the heap: the arena, the offsets and the table.
    pub fn heap_bytes(&self) -> usize {
        self.arena.capacity() + self.ends.capacity() * 4 + self.slots.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut it = Interner::new();
        let a = it.intern("seafood");
        let b = it.intern("seafood");
        assert_eq!(a, b);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn symbols_are_dense_and_ordered() {
        let mut it = Interner::new();
        let a = it.intern("a");
        let b = it.intern("b");
        let c = it.intern("c");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
    }

    #[test]
    fn resolve_round_trips() {
        let mut it = Interner::new();
        let words = ["x", "yy", "zzz", "x"];
        let syms: Vec<Sym> = words.iter().map(|w| it.intern(w)).collect();
        for (w, s) in words.iter().zip(&syms) {
            assert_eq!(it.resolve(*s), *w);
        }
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn get_does_not_intern() {
        let mut it = Interner::new();
        assert!(it.get("missing").is_none());
        it.intern("present");
        assert!(it.get("present").is_some());
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn iter_yields_in_symbol_order() {
        let mut it = Interner::new();
        it.intern("first");
        it.intern("second");
        let all: Vec<(Sym, &str)> = it.iter().collect();
        assert_eq!(all, vec![(Sym(0), "first"), (Sym(1), "second")]);
    }

    #[test]
    #[should_panic]
    fn resolve_unknown_panics() {
        let it = Interner::new();
        let _ = it.resolve(Sym(0));
    }

    #[test]
    fn each_distinct_string_is_stored_once_across_table_growth() {
        let mut it = Interner::new();
        let words: Vec<String> = (0..5_000).map(|i| format!("w{i}x{}", i % 7)).collect();
        for round in 0..2 {
            for (i, w) in words.iter().enumerate() {
                assert_eq!(it.intern(w), Sym(i as u32), "round {round}");
            }
        }
        assert_eq!(it.len(), words.len());
        assert_eq!(it.arena.len(), words.iter().map(String::len).sum::<usize>());
        assert!(it.slots.len() >= 2 * it.len() && it.slots.len().is_power_of_two());
        for (i, w) in words.iter().enumerate() {
            assert_eq!(it.get(w), Some(Sym(i as u32)));
            assert_eq!(it.resolve(Sym(i as u32)), w);
        }
        assert_eq!(it.get("w5000x2"), None);
    }

    #[test]
    fn clear_forgets_strings_and_keeps_room() {
        let mut it = Interner::new();
        for i in 0..100 {
            it.intern(&format!("word{i}"));
        }
        let held = it.heap_bytes();
        it.clear();
        assert!(it.is_empty() && it.get("word7").is_none());
        assert_eq!(it.intern("word7"), Sym(0));
        assert_eq!(it.heap_bytes(), held);
    }

    #[test]
    fn prefixes_zero_padding_and_the_empty_string_are_distinct() {
        let mut it = Interner::with_capacity(4);
        let words = ["", "a", "a\0", "a\0\0", "abcdefgh", "abcdefgh\0", "abcdefghi", "é", "e"];
        let syms: Vec<Sym> = words.iter().map(|w| it.intern(w)).collect();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(syms[i], Sym(i as u32), "{w:?}");
            assert_eq!(it.resolve(syms[i]), *w);
        }
        let copy = it.clone();
        assert_eq!(copy.iter().map(|(_, s)| s).collect::<Vec<_>>(), words);
    }
}
