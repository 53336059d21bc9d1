//! Porter stemming algorithm (M.F. Porter, 1980), implemented from the
//! published description.
//!
//! The stemmer conflates morphological variants ("relevance" / "relevant",
//! "restaurants" / "restaurant") so that content-concept support counting in
//! `pws-concepts` is not fragmented across surface forms.
//!
//! Only ASCII lowercase words are stemmed; anything containing non-ASCII
//! bytes is returned unchanged (the tokenizer already lowercases).

/// Stem a single lowercase word.
///
/// ```
/// use pws_text::porter_stem;
/// assert_eq!(porter_stem("caresses"), "caress");
/// assert_eq!(porter_stem("ponies"), "poni");
/// assert_eq!(porter_stem("relational"), "relat");
/// assert_eq!(porter_stem("restaurants"), "restaur");
/// ```
pub fn porter_stem(word: &str) -> String {
    porter_stem_into(word, &mut Vec::new()).to_string()
}

/// [`porter_stem`] through a caller-supplied scratch buffer: the stem is
/// returned as a slice of `buf` (or `word` itself when it is left
/// untouched), so a loop over many tokens allocates nothing.
pub fn porter_stem_into<'a>(word: &'a str, buf: &'a mut Vec<u8>) -> &'a str {
    #[cfg(debug_assertions)]
    RUNS.with(|n| n.set(n.get() + 1));
    // Words with digits (model numbers like "n73") are left untouched:
    // stemming them would destroy identity without linguistic benefit.
    if !word.is_ascii() || word.len() <= 2 || word.bytes().any(|c| c.is_ascii_digit()) {
        return word;
    }
    buf.clear();
    buf.extend_from_slice(word.as_bytes());
    step1a(buf);
    step1b(buf);
    step1c(buf);
    step2(buf);
    step3(buf);
    step4(buf);
    step5a(buf);
    step5b(buf);
    std::str::from_utf8(buf).expect("stemmer operates on ASCII")
}

#[cfg(debug_assertions)]
thread_local! {
    static RUNS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times the stemmer has run on this thread. Debug builds only:
/// tests in other crates pin through it that a word is stemmed once per
/// thread (a `#[cfg(test)]` counter would count this crate's tests only).
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn porter_runs() -> u64 {
    RUNS.with(|n| n.get())
}

/// Is `b[i]` a consonant, per Porter's definition ('y' is a consonant when
/// it heads the word or follows a vowel-position consonant)?
fn is_cons(b: &[u8], i: usize) -> bool {
    match b[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => {
            if i == 0 {
                true
            } else {
                !is_cons(b, i - 1)
            }
        }
        _ => true,
    }
}

/// Porter's measure m of the prefix b[..len]: the number of VC sequences.
fn measure(b: &[u8], len: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // Skip initial consonants.
    while i < len && is_cons(b, i) {
        i += 1;
    }
    loop {
        // Skip vowels.
        while i < len && !is_cons(b, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
        // Skip consonants — that completes one VC.
        while i < len && is_cons(b, i) {
            i += 1;
        }
        m += 1;
        if i >= len {
            return m;
        }
    }
}

fn has_vowel(b: &[u8], len: usize) -> bool {
    (0..len).any(|i| !is_cons(b, i))
}

/// Does the prefix of length `len` end with a double consonant?
fn ends_double_cons(b: &[u8], len: usize) -> bool {
    len >= 2 && b[len - 1] == b[len - 2] && is_cons(b, len - 1)
}

/// cvc test at prefix length `len`, where the final c is not w, x, or y.
fn ends_cvc(b: &[u8], len: usize) -> bool {
    if len < 3 {
        return false;
    }
    let (i, j, k) = (len - 3, len - 2, len - 1);
    is_cons(b, i)
        && !is_cons(b, j)
        && is_cons(b, k)
        && !matches!(b[k], b'w' | b'x' | b'y')
}

fn ends_with(b: &[u8], suf: &[u8]) -> bool {
    b.len() >= suf.len() && &b[b.len() - suf.len()..] == suf
}

/// If the word ends with `suf` and the stem measure condition `cond(m)`
/// holds, replace the suffix with `rep` and return true.
fn replace_if(b: &mut Vec<u8>, suf: &[u8], rep: &[u8], cond: impl Fn(usize) -> bool) -> bool {
    if ends_with(b, suf) {
        let stem_len = b.len() - suf.len();
        if cond(measure(b, stem_len)) {
            b.truncate(stem_len);
            b.extend_from_slice(rep);
            return true;
        }
    }
    false
}

fn step1a(b: &mut Vec<u8>) {
    if ends_with(b, b"sses") || ends_with(b, b"ies") {
        b.truncate(b.len() - 2);
    } else if ends_with(b, b"ss") {
        // leave
    } else if ends_with(b, b"s") && b.len() > 1 {
        b.truncate(b.len() - 1);
    }
}

fn step1b(b: &mut Vec<u8>) {
    if ends_with(b, b"eed") {
        let stem_len = b.len() - 3;
        if measure(b, stem_len) > 0 {
            b.truncate(b.len() - 1); // eed -> ee
        }
        return;
    }
    let mut removed = false;
    if ends_with(b, b"ed") {
        let stem_len = b.len() - 2;
        if has_vowel(b, stem_len) {
            b.truncate(stem_len);
            removed = true;
        }
    } else if ends_with(b, b"ing") {
        let stem_len = b.len() - 3;
        if has_vowel(b, stem_len) {
            b.truncate(stem_len);
            removed = true;
        }
    }
    if removed {
        if ends_with(b, b"at") || ends_with(b, b"bl") || ends_with(b, b"iz") {
            b.push(b'e');
        } else if ends_double_cons(b, b.len()) && !matches!(b[b.len() - 1], b'l' | b's' | b'z') {
            b.truncate(b.len() - 1);
        } else if measure(b, b.len()) == 1 && ends_cvc(b, b.len()) {
            b.push(b'e');
        }
    }
}

fn step1c(b: &mut [u8]) {
    if ends_with(b, b"y") && has_vowel(b, b.len() - 1) {
        let n = b.len();
        b[n - 1] = b'i';
    }
}

fn step2(b: &mut Vec<u8>) {
    const RULES: &[(&[u8], &[u8])] = &[
        (b"ational", b"ate"),
        (b"tional", b"tion"),
        (b"enci", b"ence"),
        (b"anci", b"ance"),
        (b"izer", b"ize"),
        (b"abli", b"able"),
        (b"alli", b"al"),
        (b"entli", b"ent"),
        (b"eli", b"e"),
        (b"ousli", b"ous"),
        (b"ization", b"ize"),
        (b"ation", b"ate"),
        (b"ator", b"ate"),
        (b"alism", b"al"),
        (b"iveness", b"ive"),
        (b"fulness", b"ful"),
        (b"ousness", b"ous"),
        (b"aliti", b"al"),
        (b"iviti", b"ive"),
        (b"biliti", b"ble"),
    ];
    for (suf, rep) in RULES {
        if ends_with(b, suf) {
            replace_if(b, suf, rep, |m| m > 0);
            return;
        }
    }
}

fn step3(b: &mut Vec<u8>) {
    const RULES: &[(&[u8], &[u8])] = &[
        (b"icate", b"ic"),
        (b"ative", b""),
        (b"alize", b"al"),
        (b"iciti", b"ic"),
        (b"ical", b"ic"),
        (b"ful", b""),
        (b"ness", b""),
    ];
    for (suf, rep) in RULES {
        if ends_with(b, suf) {
            replace_if(b, suf, rep, |m| m > 0);
            return;
        }
    }
}

fn step4(b: &mut Vec<u8>) {
    const RULES: &[&[u8]] = &[
        b"al", b"ance", b"ence", b"er", b"ic", b"able", b"ible", b"ant", b"ement", b"ment",
        b"ent", b"ou", b"ism", b"ate", b"iti", b"ous", b"ive", b"ize",
    ];
    // "ion" needs the extra condition that the stem ends in s or t.
    if ends_with(b, b"ion") {
        let stem_len = b.len() - 3;
        if stem_len > 0
            && matches!(b[stem_len - 1], b's' | b't')
            && measure(b, stem_len) > 1
        {
            b.truncate(stem_len);
            return;
        }
    }
    for suf in RULES {
        if ends_with(b, suf) {
            replace_if(b, suf, b"", |m| m > 1);
            return;
        }
    }
}

fn step5a(b: &mut Vec<u8>) {
    if ends_with(b, b"e") {
        let stem_len = b.len() - 1;
        let m = measure(b, stem_len);
        if m > 1 || (m == 1 && !ends_cvc(b, stem_len)) {
            b.truncate(stem_len);
        }
    }
}

fn step5b(b: &mut Vec<u8>) {
    if b.len() >= 2
        && b[b.len() - 1] == b'l'
        && ends_double_cons(b, b.len())
        && measure(b, b.len()) > 1
    {
        b.truncate(b.len() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic test vectors from Porter's paper and the reference
    /// implementation's voc/output lists.
    #[test]
    fn reference_vectors() {
        let cases = [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("hesitanci", "hesit"),
            ("digitizer", "digit"),
            ("conformabli", "conform"),
            ("radicalli", "radic"),
            ("differentli", "differ"),
            ("vileli", "vile"),
            ("analogousli", "analog"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("homologou", "homolog"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ];
        for (input, want) in cases {
            assert_eq!(porter_stem(input), want, "stem({input})");
        }
    }

    #[test]
    fn short_words_untouched() {
        assert_eq!(porter_stem("a"), "a");
        assert_eq!(porter_stem("is"), "is");
        assert_eq!(porter_stem("be"), "be");
    }

    #[test]
    fn non_ascii_untouched() {
        assert_eq!(porter_stem("café"), "café");
        assert_eq!(porter_stem("köln"), "köln");
    }

    #[test]
    fn digit_words_untouched() {
        assert_eq!(porter_stem("n73"), "n73");
        assert_eq!(porter_stem("2009s"), "2009s");
    }

    #[test]
    fn idempotent_on_common_words() {
        // Stemming an already-stemmed form should usually be stable; check a
        // sample (full idempotence is not guaranteed by Porter, but holds for
        // these).
        for w in ["restaur", "seafood", "pittsburgh", "hotel", "motor", "fish"] {
            assert_eq!(porter_stem(&porter_stem(w)), porter_stem(w));
        }
    }
}
