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
# pws-index has one index layout and one top-k executor: Block-Max WAND
# over the single in-RAM segment IndexBuilder builds, the same behind
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
# The per-query scoring loops run out of pooled SearchScratch arenas, and
# the concept counting pass out of its per-thread CountScratch; steady
# state must not allocate. Growth is allowed only through with_capacity /
# Default on the reused structs, so a bare Vec::new() or HashMap::new()
# in these modules is a regression.
if grep -nE '(Vec|HashMap)::new\(\)' \
    crates/pws-index/src/exec.rs crates/pws-index/src/scratch.rs \
    crates/pws-concepts/src/scratch.rs; then
    echo "FAIL: allocation in the per-query hot path — use the pooled scratch buffers"
    exit 1
fi

# only_in_fn PATTERN ALLOWED_FNS FILE...: print every non-comment line
# before a file's test module that contains PATTERN (a fixed string)
# outside the functions named in the space-separated ALLOWED_FNS.
only_in_fn() {
    local pattern="$1" allowed="$2" f
    shift 2
    for f in "$@"; do
        awk -v f="$f" -v pat="$pattern" -v allowed=" $allowed " '
            /^#\[cfg\(test\)\]/ { exit }
            /^[ \t]*\/\// { next }
            match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
            index($0, pat) && !index(allowed, " " fn " ") { print f ":" FNR ":" $0 }
        ' "$f"
    done
}

echo "==> analyse-once gate (analyser/matcher calls in pws-concepts only in snippet.rs)"
# Concept extraction analyses a snippet exactly once: SnippetAnalysis::new
# (crates/pws-concepts/src/snippet.rs) is the only serving-path code that
# runs the analyser or the location matcher; the counting pass works on
# analyses. reference.rs (the five-pass oracle behind extract_reference)
# and #[cfg(test)] modules are exempt.
if for f in crates/pws-concepts/src/*.rs; do
    case "$f" in */snippet.rs|*/reference.rs) continue ;; esac
    awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f":"FNR":"$0}' "$f"
done | grep -vE '^[^:]+:[0-9]+:\s*//' \
     | grep -E '\.(analyze(_into|_interned)?|for_each_token|locations_in|match_text|match_tokens)\('; then
    echo "FAIL: snippet text analysed outside SnippetAnalysis::new — go through crate::snippet"
    exit 1
fi

echo "==> intern-once gate (term ids assigned in pws-concepts only in snippet.rs / dict.rs)"
# A term gets its id once, when its snippet is analysed: SnippetAnalysis::new
# interns into the engine-wide TermDict (crates/pws-concepts/src/dict.rs) and
# the counting pass works on those integers out of its scratch table — it
# builds no interner and owns no hash map, and the only strings it makes are
# the names of the concepts it returns. reference.rs and #[cfg(test)] modules
# are exempt.
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

echo "==> analyse-per-word gate (Porter and the stopword table only behind pws-text's word table)"
# A word is stopword-tested and stemmed once per thread: pws-text's word
# table (crates/pws-text/src/word.rs, read through Analyzer::for_each_token
# and pws_text::with_words) is the only way in. Outside pws-text no code
# calls the stemmer or the stopword search itself, and segment build streams
# the analyser instead of collecting its output. reference.rs and
# #[cfg(test)] modules are exempt.
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
# both directions, so neither the code nor the doc can drift.
section_gate() {
    local what=$1 enum_src=$2 spec=$3 enum_pairs doc_pairs
    echo "==> $what-format section gate ($spec)"
    enum_pairs=$(awk '/^pub enum SectionId \{/,/^\}/' "$enum_src" \
        | grep -oP '^\s+\K[A-Za-z]+\s*=\s*[0-9]+' \
        | sed -E 's/\s*=\s*/ /')
    doc_pairs=$(grep -oP '^\|\s*[0-9]+\s*\|\s*`[A-Za-z]+`' "$spec" \
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
section_gate store crates/pws-store/src/codec.rs docs/STORE_FORMAT.md
section_gate flight crates/pws-obs/src/flight.rs docs/FLIGHT_FORMAT.md

echo "==> one-container gate (fnv1a64 / parse_sections / FNV basis only in pws-obs/src/format.rs)"
# PWSSEG1, PWSUSR1 and PWSFLT1 share one container implementation
# (docs/CONTAINER_FORMAT.md); a second checksum function or section-table
# parser under crates/*/src is the copy-paste this gate exists to stop.
# A hand-rolled FNV loop needs no such function name, only the offset
# basis, so the literal is gated too: hash through format::Fnv1a64.
if grep -rniE 'fn (fnv1a64|parse_sections)\b|cbf2_?9ce4_?8422_?2325' crates/*/src --include='*.rs' \
    | grep -v '^crates/pws-obs/src/format.rs:'; then
    echo "FAIL: container/FNV code outside crates/pws-obs/src/format.rs — use pws_obs::format"
    exit 1
fi

echo "==> one-writer gate (store.put only in persist, store.remove only in forget)"
# A user record is written and removed in exactly one place each
# (crates/pws-serve/src/residency.rs): both happen under the user's write
# gate and only forward in epoch. A second put or remove call site is a
# writer that does not know the rule — the lost-update and forgotten-user-
# comes-back bugs were both that. #[cfg(test)] modules are exempt.
if only_in_fn 'store.put' 'persist' crates/pws-serve/src/*.rs | grep .; then
    echo "FAIL: UserStore::put outside StoreTier::persist — persist through the write gate"
    exit 1
fi
if only_in_fn 'store.remove(' 'forget' crates/pws-serve/src/*.rs | grep .; then
    echo "FAIL: UserStore::remove outside StoreTier::forget — forget through the write gate"
    exit 1
fi

echo "==> one-reader gate (store.get_with only in ensure_resident, store.get( only in stored_state)"
# A user record is read in two places (crates/pws-serve/src/residency.rs):
# fault-in reads it with the stats-aware read, which verifies section 7
# but builds it only for keys the published statistics lack, and the
# off-line state lookup reads it whole. A fault-in through the full
# decode rebuilds statistics only to throw them away. #[cfg(test)]
# modules are exempt.
if only_in_fn 'store.get_with(' 'ensure_resident' crates/pws-serve/src/*.rs | grep .; then
    echo "FAIL: UserStore::get_with outside StoreTier::ensure_resident"
    exit 1
fi
if only_in_fn 'store.get(' 'stored_state' crates/pws-serve/src/*.rs | grep .; then
    echo "FAIL: UserStore::get outside StoreTier::stored_state — fault in through get_with"
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
