#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass, runnable fully offline.
#
#   ./scripts/check.sh          # build + tests + fmt + clippy
#   ./scripts/check.sh --fast   # skip the release build
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo build (debug, offline)"
cargo build --workspace --offline

if [[ $fast -eq 0 ]]; then
    echo "==> cargo build (release, offline)"
    cargo build --workspace --release --offline
fi

echo "==> cargo test (workspace, offline)"
cargo test -q --workspace --offline

echo "==> chaos suite (pws-chaos)"
cargo test -q -p pws-chaos --offline

echo "==> chaos store-I/O fault gate (storeio tests)"
# The storeio= clause: injected transient store-I/O faults must be
# retried to a byte-identical run, and a never-recovering disk must
# exhaust with exact counter accounting — no panics either way.
cargo test -q -p pws-chaos --offline -- storeio

echo "==> cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    # Scoped to the crates introduced/authored after the seed; the seed
    # sources predate a rustfmt pass and are left untouched.
    cargo fmt --check -p pws-obs
else
    echo "    (rustfmt not installed; skipped)"
fi

echo "==> cargo clippy -D warnings (workspace)"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --offline --all-targets -- -D warnings
else
    echo "    (clippy not installed; skipped)"
fi

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "==> retrieval correctness gate (retrieval_bench --smoke)"
# pws-index has one index layout and one top-k executor: the exhaustive
# scan over the single in-RAM segment IndexBuilder builds, the same behind
# the serving layer's retrieval cache, and over segment files (a full
# write→load→search round trip plus a corruption-detection check) must
# all return bit-identical results to the exhaustive oracle on the smoke
# experiment world; any disagreement exits non-zero.
if [[ $fast -eq 0 ]]; then
    cargo run -q --release -p pws-bench --bin retrieval_bench --offline -- --smoke
else
    cargo run -q -p pws-bench --bin retrieval_bench --offline -- --smoke
fi

echo "==> allocation-free hot-loop gate (no Vec::new/HashMap::new in exec/scratch)"
# The per-query scan runs out of pooled SearchScratch arenas (the
# accumulator, the decode buffer and both top-k heaps — the query's and
# its extension's), and the concept counting pass out of its per-thread
# CountScratch; steady state must not allocate. Growth is allowed only through with_capacity /
# Default on the reused structs, so a bare Vec::new() or HashMap::new()
# in these modules is a regression.
if grep -nE '(Vec|HashMap)::new\(\)' \
    crates/pws-index/src/exec.rs crates/pws-index/src/scratch.rs \
    crates/pws-concepts/src/scratch.rs; then
    echo "FAIL: allocation in the per-query hot path — use the pooled scratch buffers"
    exit 1
fi

# only_in_fn PATTERN ALLOWED_FNS FILE...: print every non-comment line
# before a file's test module (a `#[cfg(test)]` line followed by a `mod`
# line; a cfg(test) item before it does not end the scan) that contains
# PATTERN (a fixed string) outside the functions named in the
# space-separated ALLOWED_FNS.
only_in_fn() {
    local pattern="$1" allowed="$2" f
    shift 2
    for f in "$@"; do
        awk -v f="$f" -v pat="$pattern" -v allowed=" $allowed " '
            cfg && /^(pub )?mod / { exit }
            { cfg = /^#\[cfg\(test\)\]/ }
            /^[ \t]*\/\// { next }
            match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
            index($0, pat) && !index(allowed, " " fn " ") { print f ":" FNR ":" $0 }
        ' "$f"
    done
}

# only_in_method PATTERN ALLOWED FILE...: only_in_fn with each function
# named `Type::fn` after the `impl` block it sits in (the last word of the
# `impl` line, generics dropped), a free function by its name alone.
only_in_method() {
    local pattern="$1" allowed="$2" f
    shift 2
    for f in "$@"; do
        awk -v f="$f" -v pat="$pattern" -v allowed=" $allowed " '
            cfg && /^(pub )?mod / { exit }
            { cfg = /^#\[cfg\(test\)\]/ }
            /^[ \t]*\/\// { next }
            /^[^ \t}]/ { ty = "" }
            /^impl/ { ty = $0; sub(/ *\{.*/, "", ty); n = split(ty, w, / +/); ty = w[n]; sub(/<.*/, "", ty) }
            match($0, /fn [a-z_0-9]+/) {
                fn = substr($0, RSTART + 3, RLENGTH - 3)
                name = ty == "" ? fn : ty "::" fn
            }
            index($0, pat) && !index(allowed, " " name " ") { print f ":" FNR ":" $0 }
        ' "$f"
    done
}

# in_fns PATTERN FNS FILE...: print every non-comment line before a
# file's test module (as in only_in_fn) that contains PATTERN (a fixed
# string) inside one of the functions named in the space-separated FNS.
in_fns() {
    local pattern="$1" fns="$2" f
    shift 2
    for f in "$@"; do
        awk -v f="$f" -v pat="$pattern" -v fns=" $fns " '
            cfg && /^(pub )?mod / { exit }
            { cfg = /^#\[cfg\(test\)\]/ }
            /^[ \t]*\/\// { next }
            match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
            index($0, pat) && index(fns, " " fn " ") { print f ":" FNR ":" $0 }
        ' "$f"
    done
}

echo "==> analyse-once gate (analyser/matcher calls in pws-concepts only in snippet.rs)"
# Concept extraction analyses a snippet exactly once:
# crates/pws-concepts/src/snippet.rs — SnippetAnalysis::new from text,
# FormTable::new once per index segment form (place-name tokens; the term
# ids come from the index), SnippetAnalysis::from_forms off that table —
# is the only serving-path code that runs the analyser or the location
# matcher; the counting pass works on analyses.
# reference.rs (the five-pass oracle behind extract_reference) and
# #[cfg(test)] modules are exempt.
if for f in crates/pws-concepts/src/*.rs; do
    case "$f" in */snippet.rs|*/reference.rs) continue ;; esac
    awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f":"FNR":"$0}' "$f"
done | grep -vE '^[^:]+:[0-9]+:\s*//' \
     | grep -E '\.(analyze(_into|_interned)?|for_each_token|term_of|locations_in(_words)?|words_in|match_text|match_tokens)\(|tokenize\('; then
    echo "FAIL: snippet text analysed outside SnippetAnalysis::new — go through crate::snippet"
    exit 1
fi

echo "==> tokenise-once gate (no body or snippet text tokenised or stemmed at serve time)"
# A document is tokenised once, when its segment is built: a snippet is cut
# from the stored form stream (crates/pws-index: SegmentedIndex::cut_hits and
# materialize, SnippetScratch::for_query / cut / window_forms, best_window,
# Segment::touch / doc_fields / doc_forms, TermTable::form_stems), and the engine
# analyses it off its form ids. Neither that path nor any non-test code in
# pws-core tokenises, reads the word table or calls the string entry point
# extract_snippet; and pws-core reaches SnippetAnalysis::new only through
# SnippetAnalysis::from_forms' fallback (a window holding a form that does
# not re-tokenise to itself). #[cfg(test)] modules are exempt.
cut_path_fns='cut_hits materialize for_query cut window_forms best_window touch doc_fields doc_forms form_stems'
for pattern in 'tokenize(' 'for_each_token(' 'with_words(' 'extract_snippet('; do
    if in_fns "$pattern" "$cut_path_fns" crates/pws-index/src/segmented.rs \
        crates/pws-index/src/snippet.rs crates/pws-index/src/segment.rs \
        crates/pws-index/src/terms.rs | grep .; then
        echo "FAIL: text tokenised on the snippet-cutting path — cut from the form stream"
        exit 1
    fi
done
if for f in crates/pws-core/src/*.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /^[ \t]*\/\// { next } { print f ":" FNR ":" $0 }' "$f"
done | grep -E 'tokenize\(|for_each_token\(|with_words\(|extract_snippet\(|SnippetAnalysis::new\('; then
    echo "FAIL: pws-core tokenises text or analyses a snippet from text — analyse off the form ids"
    exit 1
fi

echo "==> intern-once gate (no term id assigned on the serving path after engine construction)"
# Term ids are assigned when an index is loaded: TermTable::add_segment
# (crates/pws-index/src/terms.rs) numbers every segment's lexicon terms,
# form stems and form snippet terms, and SegmentBuilder::add numbers a
# segment's own terms and forms while it is built. An engine borrows that
# table as its concept dictionary (pws_concepts::TermDict::of): FormTable::new
# takes each form's term ids from the index, and SnippetAnalysis::from_forms,
# the counting pass and all of pws-core and pws-serve read ids only. Only the
# string entry point SnippetAnalysis::new interns, into a dictionary of its
# caller's (TermDict::intern). The counting pass also builds no interner and
# owns no hash map, and the only strings it makes are the names of the
# concepts it returns. reference.rs and #[cfg(test)] modules are exempt.
if only_in_method '.intern(' 'TermTable::intern TermTable::add_segment SegmentBuilder::add' \
    crates/pws-index/src/*.rs | grep .; then
    echo "FAIL: a term id assigned in pws-index outside the table build — ids are given at load"
    exit 1
fi
if only_in_method '.intern(' 'SnippetAnalysis::new TermDict::intern' \
    $(ls crates/pws-concepts/src/*.rs | grep -v reference.rs) | grep .; then
    echo "FAIL: a term id assigned in pws-concepts outside SnippetAnalysis::new — read ids off the index"
    exit 1
fi
if for f in crates/pws-core/src/*.rs crates/pws-serve/src/*.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /^[ \t]*\/\// { next } { print f ":" FNR ":" $0 }' "$f"
done | grep -E '\.intern\(|TermDict::new\(|Interner::new\('; then
    echo "FAIL: the engine assigns term ids — borrow the index's table (TermDict::of)"
    exit 1
fi
if for f in crates/pws-concepts/src/*.rs; do
    case "$f" in */snippet.rs|*/dict.rs|*/reference.rs) continue ;; esac
    awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f":"FNR":"$0}' "$f"
done | grep -vE '^[^:]+:[0-9]+:\s*//' \
     | grep -E '\.intern\(|Interner::new\(|HashMap<'; then
    echo "FAIL: interning or a hash map in the counting pass — ids come from SnippetAnalysis, tables from crate::scratch"
    exit 1
fi
if only_in_fn 'format!(' 'concept_name' crates/pws-concepts/src/content.rs | grep .; then
    echo "FAIL: a String built per candidate — only concept_name names, and only survivors"
    exit 1
fi

echo "==> graph-on-demand gate (no search builds the concept graph)"
# A QueryConceptOntology keeps its concepts' snippet-incidence rows; a
# click reads its concepts' neighbours off them (QueryConceptOntology::spread),
# and only QueryConceptOntology::graph builds the whole graph
# (ConceptGraph::from_incidence), for callers that ask for it. #[cfg(test)]
# modules are exempt.
if only_in_fn 'from_incidence(' 'graph' crates/pws-concepts/src/*.rs \
    | grep -v 'fn from_incidence(' | grep .; then
    echo "FAIL: the concept graph built outside QueryConceptOntology::graph — spread off the rows"
    exit 1
fi

echo "==> one-vocabulary gate (one term table, read by id, with no lock)"
# The index's TermTable is the one vocabulary: ranking, snippet marking,
# re-scoring and the retrieval cache take a query as its ids, analysed
# once, and a segment reaches a term through the table's id -> ordinal map.
# No string-keyed map may come back into the index's serving code (a term
# string hashed once per segment per query was the cost this removed), no
# per-segment string lookup (Segment::term_ord is test-only), and the
# concept vocabulary an engine borrows takes no lock. #[cfg(test)] modules
# are exempt.
vocab_files=(crates/pws-index/src/{segmented,exec,snippet,segment,terms}.rs)
ls "${vocab_files[@]}" crates/pws-concepts/src/dict.rs > /dev/null  # a renamed file fails loudly
if grep -n 'HashMap<String' "${vocab_files[@]}"; then
    echo "FAIL: a string-keyed map in the index — look terms up once, in the TermTable"
    exit 1
fi
if only_in_fn 'term_ord(' 'term_ord' crates/pws-index/src/*.rs | grep .; then
    echo "FAIL: a segment looked up by term string — map the query's ids through TermTable::ord"
    exit 1
fi
if grep -nE '\b(RwLock|Mutex)\b' crates/pws-concepts/src/dict.rs crates/pws-index/src/terms.rs; then
    echo "FAIL: a lock in the term vocabulary — it is immutable once the index is loaded"
    exit 1
fi

echo "==> analyse-per-word gate (Porter and the stopword table only behind pws-text's word table)"
# A word is stopword-tested and stemmed once per thread: pws-text's word
# table (crates/pws-text/src/word.rs, read through Analyzer::for_each_token,
# Analyzer::term_of and pws_text::with_words) is the only way in. Outside
# pws-text no code calls the stemmer or the stopword search itself; segment
# build streams the analyser instead of collecting its output, and analyses
# a body form only on its first sight (Analyzer::term_of only in
# SegmentBuilder::add). reference.rs and #[cfg(test)] modules are exempt.
if for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
    case "$f" in crates/pws-text/*|*/reference.rs) continue ;; esac
    awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f":"FNR":"$0}' "$f"
done | grep -vE '^[^:]+:[0-9]+:\s*//' \
     | grep -E '(porter_stem(_into)?|is_stopword)\('; then
    echo "FAIL: Porter or the stopword table called directly — go through pws_text::with_words or the Analyzer"
    exit 1
fi
if only_in_fn '.analyze(' '' crates/pws-index/src/segment.rs | grep .; then
    echo "FAIL: SegmentBuilder collects analysed tokens — stream them with for_each_token"
    exit 1
fi
if only_in_fn '.term_of(' 'add' crates/pws-index/src/*.rs | grep .; then
    echo "FAIL: a body form analysed outside SegmentBuilder::add — analyse each form once, on first sight"
    exit 1
fi

echo "==> normalise-once gate (L1 / query analysis / extractor built once per request)"
# The feature stage prepares once and scores many: a profile's L1 mass is
# computed only where a scorer is built (ContentProfile::scorer,
# LocationProfile::scorer), the feature loop analyses text only in
# FeatureExtractor::prepare (titles stream through for_each_token), and
# the engine builds its FeatureExtractor only in EngineCore::new.
# #[cfg(test)] modules are exempt.
if only_in_fn 'sorted_l1(' 'sorted_l1 scorer' crates/pws-profile/src/*.rs | grep .; then
    echo "FAIL: profile L1 computed outside a scorer constructor — score through scorer()"
    exit 1
fi
if only_in_fn '.analyze(' 'prepare' crates/pws-profile/src/features.rs | grep .; then
    echo "FAIL: text analysed in the feature loop — analyse in prepare, stream titles"
    exit 1
fi
if only_in_fn 'FeatureExtractor::with_masks(' 'new' crates/pws-core/src/core.rs | grep .; then
    echo "FAIL: FeatureExtractor built per request — EngineCore::new owns the one extractor"
    exit 1
fi

echo "==> stage/counter registry gate (docs/ARCHITECTURE.md, two-way)"
# Forward: every stage/counter name used in production code must be
# documented in the registry table. Names under test./docs. are
# reserved for tests and doc examples. shard_stages("p", n, "op")
# registers p{i}.op.
registry=docs/ARCHITECTURE.md
stage_names=$(
    {
        grep -rh 'pws_obs::stage("' crates --include='*.rs' \
            | grep -v '^\s*//' \
            | grep -oP 'pws_obs::stage\("\K[^"]+'
        grep -rh 'shard_stages(' crates --include='*.rs' \
            | grep -v '^\s*//' \
            | perl -ne 'print $1 . "{i}." . $2 . "\n" if /shard_stages\("([^"]+)",\s*[^,]+,\s*"([^"]+)"\)/'
    } | sort -u
)
missing=0
for name in $stage_names; do
    case "$name" in test.*|docs.*) continue ;; esac
    if ! grep -qF "\`$name\`" "$registry"; then
        echo "    stage \"$name\" is not in the $registry registry table"
        missing=1
    fi
done
# Reverse: every family.name documented in a registry table row must
# still exist in the sources — as a stage/shard_stages call site or as
# a string literal (stage names are also registered through consts and
# struct fields) — so rows can't outlive the counters they document.
doc_names=$(grep -oP '^\|\s*`\K[a-z0-9_.{}]+(?=`)' "$registry" \
    | grep -P '^(engine|index|segment|ranksvm|serve|store|bench)\.' | sort -u)
for name in $doc_names; do
    if printf '%s\n' "$stage_names" | grep -qxF "$name"; then
        continue
    fi
    if ! grep -rqF "\"$name\"" crates --include='*.rs'; then
        echo "    registry row \"$name\" has no call site or literal in crates/"
        missing=1
    fi
done
if [[ $missing -ne 0 ]]; then
    echo "FAIL: registry table and stage/counter call sites disagree ($registry)"
    exit 1
fi

# The id/name pairs of a codec's `enum SectionId` (the writer's section
# list) must match the section table documented in its format spec — in
# both directions, so neither the code nor the doc can drift. A spec that
# documents two files names, as a fourth argument, the `## ` heading whose
# part of the spec holds this file's table.
section_gate() {
    local what=$1 enum_src=$2 spec=$3 heading=${4:-} enum_pairs doc_pairs
    echo "==> $what-format section gate ($spec${heading:+, $heading})"
    enum_pairs=$(awk '/^pub enum SectionId \{/,/^\}/' "$enum_src" \
        | grep -oP '^\s+\K[A-Za-z]+\s*=\s*[0-9]+' \
        | sed -E 's/\s*=\s*/ /')
    doc_pairs=$(awk -v h="$heading" 'h == "" { print; next }
                    /^## / { on = ($0 == "## " h) } on' "$spec" \
        | grep -oP '^\|\s*[0-9]+\s*\|\s*`[A-Za-z]+`' \
        | sed -E 's/^\|\s*([0-9]+)\s*\|\s*`([A-Za-z]+)`/\2 \1/')
    if [[ -z "$enum_pairs" || -z "$doc_pairs" ]]; then
        echo "FAIL: could not extract SectionId pairs from $enum_src or $spec"
        exit 1
    fi
    if ! diff <(printf '%s\n' "$enum_pairs" | sort) \
              <(printf '%s\n' "$doc_pairs" | sort); then
        echo "FAIL: SectionId enum and the $spec section table disagree"
        exit 1
    fi
}
section_gate segment crates/pws-index/src/segfile.rs docs/INDEX_FORMAT.md
section_gate store crates/pws-store/src/codec.rs docs/STORE_FORMAT.md Sections
section_gate stats crates/pws-store/src/stats.rs docs/STORE_FORMAT.md "Statistics file"
section_gate flight crates/pws-obs/src/flight.rs docs/FLIGHT_FORMAT.md

echo "==> one-container gate (fnv1a64 / parse_sections / FNV basis / SplitMix64 only in pws-obs/src/format.rs)"
# PWSSEG1, PWSUSR1 and PWSFLT1 share one container implementation
# (docs/CONTAINER_FORMAT.md); a second checksum function or section-table
# parser under crates/*/src is the copy-paste this gate exists to stop.
# A hand-rolled FNV loop needs no such function name, only the offset
# basis, so the literal is gated too: hash through format::Fnv1a64. The
# same holds for the SplitMix64 finalizer behind shard assignment, corpus
# seeds, fault rolls and load schedules: mix through format::splitmix64.
if grep -rniE 'fn (fnv1a64|parse_sections)\b|cbf2_?9ce4_?8422_?2325|0x9E3779B97F4A7C15' \
    crates/*/src --include='*.rs' \
    | grep -v '^crates/pws-obs/src/format.rs:'; then
    echo "FAIL: container/FNV/SplitMix64 code outside crates/pws-obs/src/format.rs — use pws_obs::format"
    exit 1
fi

echo "==> one static index gate (no live ingestion, one concrete retrieval cache)"
# The index an engine serves is fixed for the engine's lifetime, and
# pws_core::RetrievalCache is the one cache type, owned by EngineCore:
# no index that absorbs segment publishes, no publish or invalidate
# entry point, no cache behind a trait object.
if grep -rnE '\bLiveIndex\b|\bpublish_segment\b|\binvalidate_retrieval_cache\b|dyn RetrievalCache\b' \
    crates/*/src --include='*.rs'; then
    echo "FAIL: live ingestion or a trait-object retrieval cache is back — the index is static"
    exit 1
fi

echo "==> cut-on-use gate (pws-core ranks without snippets; RankedPool::cut is the one cutter)"
# Base retrieval in the engine ranks (rank_tokens) and cuts a hit's
# snippet only when a request puts the hit in its candidate pool, once per
# cached hit: crates/pws-core/src/cache.rs, RankedPool::cut. A search or
# search_tokens call in crates/pws-core/src cuts every hit of its list,
# used or not, and a cut_hits call anywhere else cuts past the pool's
# once-per-hit slots. #[cfg(test)] modules are exempt.
if for f in crates/pws-core/src/*.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /^[ \t]*\/\// { next } { print f ":" FNR ":" $0 }' "$f"
done | grep -E '\.search(_tokens)?\('; then
    echo "FAIL: a whole result list cut in pws-core — rank with rank_tokens, cut through RankedPool::cut"
    exit 1
fi
if only_in_fn '.cut_hits(' 'cut' crates/pws-core/src/*.rs | grep .; then
    echo "FAIL: snippets cut outside RankedPool::cut — take hits through the pool"
    exit 1
fi

echo "==> one-traversal gate (an augmented request ranks in one call and scores each doc once; no augmented query text)"
# Location-aware augmentation ranks "query + city" as the query's ids
# followed by the city name's, and EngineCore::retrieve asks the index for
# both lists in one rank_tokens call (one scan of the query's postings)
# whenever both miss the cache. So the core builds no query text (no
# format! in crates/pws-core/src/core.rs: re-analysing "query city" was
# the second traversal's way in) and calls rank_tokens nowhere else.
# #[cfg(test)] modules are exempt.
if only_in_fn 'format!(' '' crates/pws-core/src/core.rs | grep .; then
    echo "FAIL: text built in the engine core — extend the query's ids with the city's"
    exit 1
fi
if only_in_method '.rank_tokens(' 'EngineCore::retrieve' crates/pws-core/src/*.rs | grep .; then
    echo "FAIL: rank_tokens outside EngineCore::retrieve — rank both lists in its one call"
    exit 1
fi
# The scan hands back each extended hit's score under the query alone, so
# no document is scored twice: score_docs (a second walk of the query's
# blocks for the augmented hits) is gone from every crate, an augmented
# list is ranked only through the one fused rank_tokens call, and pws-core
# reads the index only through that call and cut_hits (RankedPool::cut):
# none of the index's other ranking or analysing entry points.
if grep -rn 'score_docs' crates/*/src --include='*.rs'; then
    echo "FAIL: score_docs is back — take an augmented hit's base score from the fused scan"
    exit 1
fi
calls=$(only_in_fn '.rank_tokens(' '' crates/pws-core/src/*.rs | wc -l)
if [[ "$calls" -ne 1 ]]; then
    only_in_fn '.rank_tokens(' '' crates/pws-core/src/*.rs
    echo "FAIL: $calls rank_tokens calls in pws-core — rank every list through the one fused call"
    exit 1
fi
for call in analyze_text search_exhaustive search_expr; do
    if only_in_fn ".$call(" '' crates/pws-core/src/*.rs | grep .; then
        echo "FAIL: pws-core reads the index through $call — rank with rank_tokens, cut with cut_hits"
        exit 1
    fi
done

echo "==> reachability gate (pub items in pws-serve/pws-core/pws-index/pws-obs have a reader)"
# Every `pub fn|struct|enum|trait|const|type|static` in the non-test code
# (before a `#[cfg(test)] mod`) of these four crates must be named, as a
# word in non-comment code other than its own definition line, by:
# another crate (src, tests, examples, benches), the root package's
# src/tests/examples, bench/src, or its own crate's non-test code —
# or be justified in docs/ARCHITECTURE.md's "Public items reached only
# by tests" table. Its own crate's tests do not count. The match is by
# name, so a method whose name collides with another item's passes: the
# gate is a floor, and colliding names are checked by hand.
if ! perl - crates/pws-serve crates/pws-core crates/pws-index crates/pws-obs <<'PERL'
use strict;
use warnings;
my %gated = map { m{([^/]+)$}; ($1 => 1) } @ARGV;
my @files = sort split /\n/,
    `find crates/*/src crates/*/tests crates/*/examples crates/*/benches src tests examples bench/src -name '*.rs' 2>/dev/null`;
my (%code, %test, @items);
for my $f (@files) {
    my ($crate) = $f =~ m{^crates/([^/]+)/};
    $crate //= '';
    my $in_test = $f =~ m{^crates/[^/]+/tests/};
    my $cfg_test = 0;
    open my $fh, '<', $f or die "$f: $!";
    while (my $line = <$fh>) {
        $in_test = 1 if $cfg_test && $f =~ m{^crates/[^/]+/src/} && $line =~ /^(?:pub )?mod /;
        $cfg_test = $line =~ /^#\[cfg\(test\)\]/;
        next if $line =~ m{^\s*//};
        $line =~ s{\s//\s.*$}{};
        my @words = $line =~ /\b([A-Za-z_]\w*)\b/g;
        if (!$in_test && $gated{$crate} && $line =~
            /^\s*pub\s+(?:(?:const|unsafe)\s+)?(?:fn|struct|enum|trait|const|type|static)\s+([A-Za-z_]\w*)/) {
            my $name = $1;
            push @items, [$crate, $name, "$f:$.", scalar grep { $_ eq $name } @words];
        }
        if ($in_test) { $test{$crate}{$_}++ for @words } else { $code{$_}++ for @words }
    }
}
my %justified;
open my $doc, '<', 'docs/ARCHITECTURE.md' or die "docs/ARCHITECTURE.md: $!";
my $in_table = 0;
while (<$doc>) {
    $in_table = /^## Public items reached only by tests/ if /^## /;
    $justified{$1} = 1 if $in_table && /^\|\s*`(?:\w+::)*(\w+)`/;
}
my $bad = 0;
for my $item (@items) {
    my ($crate, $name, $loc, $on_def_line) = @$item;
    my $readers = ($code{$name} // 0) - $on_def_line;
    $readers += $test{$_}{$name} // 0 for grep { $_ ne $crate } keys %test;
    next if $readers > 0 || $justified{$name};
    print "    $loc: pub $name has no reader outside ${crate}'s own tests\n";
    $bad = 1;
}
exit $bad;
PERL
then
    echo "FAIL: public items only their own crate's tests reach — delete them, or justify each in docs/ARCHITECTURE.md"
    exit 1
fi

echo "==> one-writer gate (store.put* only in persist / persist_stats, store.remove only in forget)"
# A user record is written and removed in exactly one place each
# (crates/pws-serve/src/residency.rs): both happen under the user's write
# gate and only forward in epoch. A second put or remove call site is a
# writer that does not know the rule — the lost-update and forgotten-user-
# comes-back bugs were both that. The statistics file likewise has one
# writer, persist_stats, which holds the stats gate across encode and put.
# #[cfg(test)] modules are exempt.
if only_in_fn 'store.put' 'persist persist_stats' crates/pws-serve/src/*.rs | grep .; then
    echo "FAIL: UserStore::put* outside StoreTier::persist / persist_stats — write through the gates"
    exit 1
fi
if only_in_fn 'store.put_stats(' 'persist_stats' crates/pws-serve/src/*.rs | grep .; then
    echo "FAIL: UserStore::put_stats outside StoreTier::persist_stats — one statistics writer"
    exit 1
fi
if only_in_fn 'store.remove(' 'forget' crates/pws-serve/src/*.rs | grep .; then
    echo "FAIL: UserStore::remove outside StoreTier::forget — forget through the write gate"
    exit 1
fi

echo "==> one-reader gate (store.get( only in ensure_resident / stored_state; no statistics-skipping read)"
# A user record is read in two places (crates/pws-serve/src/residency.rs):
# fault-in and the off-line state lookup, both through UserStore::get. The
# record carries no statistics the reader could skip: they are pooled in
# the statistics file, so a second, statistics-skipping read mode
# (get_with, decode_user_record_with) has nothing to do anywhere.
# #[cfg(test)] modules are exempt from the first rule.
if only_in_fn 'store.get(' 'ensure_resident stored_state' crates/pws-serve/src/*.rs | grep .; then
    echo "FAIL: UserStore::get outside StoreTier::ensure_resident / stored_state"
    exit 1
fi
if grep -rnE '\b(get_with|decode_user_record_with)\b' crates/*/src --include='*.rs'; then
    echo "FAIL: a statistics-skipping record read is back — statistics live in the statistics file"
    exit 1
fi

echo "==> seed-once gate (stats.seed( only in import_user and load_stats)"
# The live statistics are seeded from the statistics file once, at open
# (StoreTier::load_stats), and from an imported record
# (ServingEngine::import_user). A fault-in never seeds: a record's copy
# would win over nothing newer only by arriving first, however old.
if only_in_fn 'stats.seed(' 'import_user load_stats' crates/pws-serve/src/*.rs | grep .; then
    echo "FAIL: statistics seeded outside import_user / load_stats — a fault-in never seeds"
    exit 1
fi

echo "==> one per-query record gate (the serving path fills the FlightEvent; QueryTrace built only by search_traced)"
# A served query is recorded once, as the fixed-width FlightEvent the
# path that served it fills: EngineCore writes the stage slots, β and
# cache hit of the turn it served, and ServingEngine::search_inner stamps
# the serving context. A QueryTrace is that event plus the decision
# detail, built only for the caller that asked for one
# (crates/pws-serve/src/lib.rs: search_traced). Copying an event out of
# a trace (`from_trace`) is a second writer of the same header; a second
# QueryTrace constructor, or a ring, list or queue of traces, is a second
# record of recent traffic with its own admission rule. #[cfg(test)]
# modules and crates/*/tests are exempt.
if find crates -name '*.rs' -not -path '*/tests/*' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /^[ \t]*\/\// { next } { print f ":" FNR ":" $0 }' "$f"
done | grep -F 'from_trace'; then
    echo "FAIL: a flight event copied out of a trace — the serving path fills the event itself"
    exit 1
fi
if only_in_fn 'QueryTrace::new(' 'search_traced' crates/pws-serve/src/*.rs | grep .; then
    echo "FAIL: QueryTrace built outside ServingEngine::search_traced"
    exit 1
fi
if for f in crates/pws-serve/src/*.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /^[ \t]*\/\// { next } { print f ":" FNR ":" $0 }' "$f"
done | grep -E '\b(Ring|Vec|VecDeque)<QueryTrace>'; then
    echo "FAIL: QueryTrace kept in a container — the flight ring is the record of recent traffic"
    exit 1
fi

echo "==> one user-state format gate (PWSUSR1 only: no serde on user state, export_user encodes the record)"
# A user's state has one serialized form, the pws-store user record: the
# store tier writes and faults it in, export_user/import_user move it
# between engines, and `pws-trace user` renders it. A serde dependency in
# the crates that define user state, a Serialize/Deserialize derive or
# impl on one of its types, or an export that stops encoding the record
# is a second format.
user_state_types='UserState|ContentProfile|LocationProfile|UserHistory|LinearRankModel|PreferencePair|QueryStats'
if grep -nE '\bserde(_json)?\b' crates/pws-core/Cargo.toml crates/pws-profile/Cargo.toml \
    crates/pws-ranksvm/Cargo.toml; then
    echo "FAIL: serde in a user-state crate — user state serializes only as a PWSUSR1 record"
    exit 1
fi
if find crates/*/src -name '*.rs' -print0 | xargs -0 perl -0ne '
    while (/#\[derive\(([^)]*)\)\]\s*(?:#\[[^\]]*\]\s*)*pub struct ('"$user_state_types"')\b/g) {
        my ($derives, $type) = ($1, $2);
        print "$ARGV: derive($derives) on $type\n" if $derives =~ /Serialize|Deserialize/;
    }
    while (/impl\b[^{]*\b(Serialize|Deserialize)\b[^{]*\bfor\s+('"$user_state_types"')\b/g) {
        print "$ARGV: impl $1 for $2\n";
    }' | grep .; then
    echo "FAIL: a serde derive/impl on a user-state type — user state serializes only as a PWSUSR1 record"
    exit 1
fi
if ! awk '/fn export_user\(/ { f = 1 } f && /encode_user_with\(/ { found = 1 } f && /^    }$/ { exit }
          END { exit !found }' crates/pws-serve/src/lib.rs; then
    echo "FAIL: ServingEngine::export_user does not encode through pws_store::encode_user_with"
    exit 1
fi

echo "==> search-on-a-snapshot gate (no rollback copies, no in-place state borrows in pws-serve)"
# A search clones its user's Arc<UserState> under the shard lock and runs
# off it; an observe folds into a successor state and publishes it by
# swap, and a panicked fold drops the successor. A pre-fold copy kept for
# rollback, or a `&mut` borrow of a resident's state, is the design this
# replaced.
if grep -rnE 'state_before|stats_before|&mut users\.get_mut\(.*\.state' crates/pws-serve/src; then
    echo "FAIL: rollback copy or in-place resident-state borrow — fold into a successor and swap"
    exit 1
fi

echo "==> store-tier replay-equivalence gate (store_smoke)"
# Write → evict → fault-in → replay must be byte-identical to an
# always-resident run, including across a process-restart simulation;
# any divergence or store I/O error exits non-zero.
if [[ $fast -eq 0 ]]; then
    cargo run -q --release -p pws-bench --bin store_smoke --offline
else
    cargo run -q -p pws-bench --bin store_smoke --offline
fi

echo "==> store crash-consistency gate (crash_gauntlet --smoke)"
# Kill a durable put at every I/O step (plus torn-write, ENOSPC,
# refused-rename, and corruption cases): the reopened store must always
# yield the old or the new record byte-exactly, errors stay typed
# (never a panic), orphans are swept, corruption is quarantined.
if [[ $fast -eq 0 ]]; then
    cargo run -q --release -p pws-bench --bin crash_gauntlet --offline -- --smoke
else
    cargo run -q -p pws-bench --bin crash_gauntlet --offline -- --smoke
fi

echo "==> flight-recorder gate (flight_smoke + pws-trace flight)"
# Record → reconcile → dump → decode → corruption gauntlet must all
# hold on a real sharded replay; the kept dump must then render through
# the pws-trace flight subcommand.
flight_tmp=$(mktemp -d)
trap 'rm -rf "$flight_tmp"' EXIT
release_flag=--release
[[ $fast -eq 1 ]] && release_flag=
cargo run -q $release_flag -p pws-bench --bin flight_smoke --offline -- \
    --out "$flight_tmp/flight.pwsflt"
cargo run -q $release_flag -p pws-bench --bin pws-trace --offline -- \
    flight "$flight_tmp/flight.pwsflt" > "$flight_tmp/render.txt"
grep -q '^flight dump: ' "$flight_tmp/render.txt"

echo "==> health dashboard gate (pws-top --once)"
# One deterministic frame: every turn must reconcile with exactly one
# flight event, and the machine-readable block must carry an overall
# health verdict.
cargo run -q $release_flag -p pws-bench --bin pws-top --offline -- --once \
    > "$flight_tmp/top.txt"
grep -q '^health overall ' "$flight_tmp/top.txt"

echo "==> end-to-end benchmark contract gate (bench/run.sh --smoke)"
# The benchmark in bench/ is a package of its own that calls this
# workspace's public API and replays its traffic against the serial
# engine. Running it at toy size here means a PR that breaks a signature
# it uses, or its replay pass, fails tier-1 instead of the benchmark driver.
if [[ $fast -eq 0 ]]; then
    bash bench/run.sh --smoke > "$flight_tmp/bench_smoke.txt"
    grep -q '^benchmark: ok' "$flight_tmp/bench_smoke.txt"
else
    echo "    (skipped under --fast)"
fi

echo "==> benchmark result-line gate (bench/run.sh --workload W, one process each)"
# A benchmark harness runs each workload in its own process and parses
# only the last stdout line, the result object; the suite run above does
# not go through that mode. Every workload must exit 0 and end on a
# correct, failure-free result line.
if [[ $fast -eq 0 ]]; then
    result_re='^\{"correct": true, "attempted": [1-9][0-9]*, "failed": 0, "metrics": \{.*\}\}$'
    for w in paper.hot large.cold paper.rw store.churn; do
        out="$flight_tmp/bench_$w.txt"
        if ! bash bench/run.sh --workload "$w" --smoke --seed 7 --seconds 1 --trace 0 > "$out"; then
            echo "FAIL: bench/run.sh --workload $w exited non-zero"
            exit 1
        fi
        if ! tail -n 1 "$out" | grep -qE "$result_re"; then
            echo "FAIL: bench/run.sh --workload $w: last line is not a passing result object:"
            tail -n 1 "$out"
            exit 1
        fi
    done
else
    echo "    (skipped under --fast)"
fi

echo "==> lock-poison recovery gate (no .expect(\"…poisoned\") in serve/core)"
# The serving path must recover from poisoned locks (clear_poison +
# serve.lock_recovered + targeted eviction), never crash on them. See
# "Failure modes & degradation" in docs/ARCHITECTURE.md.
if grep -rn 'expect("[^"]*poisoned' crates/pws-serve crates/pws-core --include='*.rs'; then
    echo "FAIL: .expect(\"…poisoned\") found — use lock recovery (lock_or_recover) instead"
    exit 1
fi

echo "OK: all tier-1 checks passed"
