//! Corpus generation.
//!
//! Each document is generated as:
//!
//! * a **topic** sampled from a Zipf-tilted distribution (some topics are
//!   more common on the web than others);
//! * an optional **city** (probability [`CorpusSpec::localized_prob`]); a
//!   localized document mentions its city in the title with probability
//!   ~0.7 and several times in the body, and occasionally mentions the
//!   city's state or country (ancestor rollup — this is what makes ontology
//!   rollup in the location profile meaningful);
//! * a **body** that mixes topic core terms, generic filler, a sprinkle of
//!   terms from a *confuser* topic (so topics are not trivially separable),
//!   and the location mentions.
//!
//! URLs are synthesized as `http://<word>-<topic>.test/<slug>` with a
//! bounded pool of domains per topic so that domain statistics look web-like.

use crate::doc::{Corpus, DocId, Document};
use crate::vocab::{TopicId, Topics, FILLER};
use pws_geo::{LocId, LocationOntology};
use pws_obs::format::splitmix64;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Corpus shape parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Number of documents to generate.
    pub num_docs: usize,
    /// Topics to draw from.
    pub num_topics: usize,
    /// Probability a document is tied to a specific city.
    pub localized_prob: f64,
    /// Body length range in tokens (min, max).
    pub body_len: (usize, usize),
    /// Probability that each body token slot is a topic core term (the rest
    /// is filler / confuser / location).
    pub topical_density: f64,
    /// Zipf skew of the topic distribution (0 = uniform).
    pub topic_skew: f64,
}

impl CorpusSpec {
    /// Default experimental corpus: 8k docs over all 12 topics (T1).
    pub fn default_corpus() -> Self {
        CorpusSpec {
            num_docs: 8_000,
            num_topics: 12,
            localized_prob: 0.55,
            body_len: (60, 160),
            topical_density: 0.45,
            topic_skew: 0.7,
        }
    }

    /// Large corpus tier: one million documents for the segmented
    /// on-disk index benchmarks (`retrieval_bench --scale large`).
    /// Bodies are shorter than the default tier so the stored-document
    /// sections stay disk-friendly at this scale; everything else keeps
    /// the default shape.
    pub fn large() -> Self {
        CorpusSpec {
            num_docs: 1_000_000,
            num_topics: 12,
            localized_prob: 0.55,
            body_len: (40, 100),
            topical_density: 0.45,
            topic_skew: 0.7,
        }
    }

    /// Small corpus for tests/doc examples.
    pub fn small() -> Self {
        CorpusSpec {
            num_docs: 300,
            num_topics: 4,
            localized_prob: 0.5,
            body_len: (40, 80),
            topical_density: 0.5,
            topic_skew: 0.5,
        }
    }
}

/// Seeded corpus generator.
#[derive(Debug)]
pub struct CorpusGen {
    seed: u64,
}

impl CorpusGen {
    /// Create a generator; the same seed + spec + world always produces the
    /// same corpus.
    pub fn new(seed: u64) -> Self {
        CorpusGen { seed }
    }

    /// Generate a corpus over `world`'s cities.
    pub fn generate(&self, spec: &CorpusSpec, world: &LocationOntology) -> Corpus {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let topics = Topics::first(spec.num_topics);
        let cities: Vec<LocId> = world.cities().collect();
        assert!(!cities.is_empty(), "world has no cities");

        // Zipf-tilted topic weights: w_k = 1/(k+1)^skew.
        let weights: Vec<f64> =
            (0..topics.len()).map(|k| 1.0 / ((k + 1) as f64).powf(spec.topic_skew)).collect();
        let total_w: f64 = weights.iter().sum();

        // Domain pool: a handful of synthetic domains per topic.
        let domains: Vec<Vec<String>> = topics
            .ids()
            .map(|t| {
                (0..6)
                    .map(|i| format!("{}-{}{}.test", topics.name(t), word(&mut rng), i))
                    .collect()
            })
            .collect();

        let mut docs = Vec::with_capacity(spec.num_docs);
        for i in 0..spec.num_docs {
            let topic = sample_topic(&mut rng, &weights, total_w);
            let city = if rng.gen_bool(spec.localized_prob) {
                Some(cities[rng.gen_range(0..cities.len())])
            } else {
                None
            };
            let doc = self.generate_doc(
                &mut rng,
                DocId(i as u32),
                topic,
                city,
                spec,
                &topics,
                world,
                &domains[topic.index()],
            );
            docs.push(doc);
        }
        Corpus { docs, seed: self.seed }
    }

    /// A random-access view of the corpus this generator would produce:
    /// any document can be generated independently by index, so corpus
    /// shards can be built in parallel (or streamed without ever holding
    /// the whole corpus in memory).
    ///
    /// Note the two entry points are distinct deterministic corpora:
    /// [`CorpusGen::generate`] threads one RNG through all documents,
    /// while [`DocGen`] seeds a fresh RNG per document — same shape,
    /// different bytes. Experiments pin whichever they were run with.
    pub fn doc_gen<'w>(&self, spec: CorpusSpec, world: &'w LocationOntology) -> DocGen<'w> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let topics = Topics::first(spec.num_topics);
        let cities: Vec<LocId> = world.cities().collect();
        assert!(!cities.is_empty(), "world has no cities");
        let weights: Vec<f64> =
            (0..topics.len()).map(|k| 1.0 / ((k + 1) as f64).powf(spec.topic_skew)).collect();
        let total_w: f64 = weights.iter().sum();
        let domains: Vec<Vec<String>> = topics
            .ids()
            .map(|t| {
                (0..6)
                    .map(|i| format!("{}-{}{}.test", topics.name(t), word(&mut rng), i))
                    .collect()
            })
            .collect();
        DocGen {
            gen: CorpusGen { seed: self.seed },
            spec,
            world,
            topics,
            cities,
            weights,
            total_w,
            domains,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn generate_doc(
        &self,
        rng: &mut StdRng,
        id: DocId,
        topic: TopicId,
        city: Option<LocId>,
        spec: &CorpusSpec,
        topics: &Topics,
        world: &LocationOntology,
        domain_pool: &[String],
    ) -> Document {
        let terms = topics.terms(topic);
        // Subtopic angle: topical term slots draw from the subtopic's own
        // chunk with high probability, so subtopic identity is recoverable
        // from snippet vocabulary (what content profiles learn).
        let subtopic = rng.gen_range(0..Topics::SUBTOPICS);
        let sub_terms = topics.subtopic_terms(topic, subtopic);
        // A confuser topic bleeds a little vocabulary into this document.
        let confuser = TopicId(rng.gen_range(0..topics.len()) as u16);
        let confuser_terms = topics.terms(confuser);

        // Title: 3–6 topical/filler words, plus city name ~70% of the time
        // when localized.
        let mut title_words: Vec<String> = Vec::new();
        for _ in 0..rng.gen_range(3..=6) {
            if rng.gen_bool(0.75) {
                let pool = if rng.gen_bool(0.7) { sub_terms } else { terms };
                title_words.push(pool.choose(rng).expect("topic terms nonempty").clone());
            } else {
                title_words.push((*FILLER.choose(rng).expect("filler nonempty")).to_string());
            }
        }
        if let Some(c) = city {
            if rng.gen_bool(0.7) {
                title_words.push(world.name(c).to_string());
            }
        }
        let title = title_words.join(" ");

        // Body.
        let len = rng.gen_range(spec.body_len.0..=spec.body_len.1);
        let mut body_words: Vec<String> = Vec::with_capacity(len + 8);
        for _ in 0..len {
            let r: f64 = rng.gen();
            if r < spec.topical_density {
                let pool = if rng.gen_bool(0.7) { sub_terms } else { terms };
                body_words.push(pool.choose(rng).expect("nonempty").clone());
            } else if r < spec.topical_density + 0.08 {
                body_words.push(confuser_terms.choose(rng).expect("nonempty").clone());
            } else if r < spec.topical_density + 0.08 + 0.10 {
                // Connective stopwords make snippets read like prose and
                // exercise the analyzer's stopword path.
                body_words.push(
                    ["the", "of", "in", "and", "for", "with", "to"]
                        .choose(rng)
                        .expect("nonempty")
                        .to_string(),
                );
            } else {
                body_words.push((*FILLER.choose(rng).expect("nonempty")).to_string());
            }
        }
        if let Some(c) = city {
            // Mention the city several times, at random positions.
            let mentions = rng.gen_range(2..=4);
            for _ in 0..mentions {
                let pos = rng.gen_range(0..=body_words.len());
                body_words.insert(pos, world.name(c).to_string());
            }
            // Occasionally mention an ancestor (state or country).
            if rng.gen_bool(0.4) {
                let ancestors = world.ancestors(c);
                // ancestors = [city, state, country, region, world]
                if ancestors.len() >= 3 {
                    let anc = ancestors[rng.gen_range(1..3usize)];
                    let pos = rng.gen_range(0..=body_words.len());
                    body_words.insert(pos, world.name(anc).to_string());
                }
            }
        }
        let body = body_words.join(" ");

        let domain = domain_pool[rng.gen_range(0..domain_pool.len())].clone();
        let slug = format!("{}-{}", word(rng), id.0);
        let url = format!("http://{domain}/{slug}");

        Document { id, url, domain, title, body, topic, subtopic, city }
    }
}

/// Random-access corpus view: document `i` is a pure function of
/// `(seed, spec, world, i)`, generated from its own per-document RNG.
/// Two calls to [`DocGen::doc`] with the same index — from any thread,
/// in any order — produce identical documents, which is what makes
/// parallel segment building thread-count-invariant.
#[derive(Debug)]
pub struct DocGen<'w> {
    gen: CorpusGen,
    spec: CorpusSpec,
    world: &'w LocationOntology,
    topics: Topics,
    cities: Vec<LocId>,
    weights: Vec<f64>,
    total_w: f64,
    domains: Vec<Vec<String>>,
}

impl DocGen<'_> {
    /// Number of documents in the corpus (`spec.num_docs`).
    pub fn len(&self) -> usize {
        self.spec.num_docs
    }

    /// Is the corpus empty?
    pub fn is_empty(&self) -> bool {
        self.spec.num_docs == 0
    }

    /// The corpus shape.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// Generate document `i` (0-based; `i < len()`).
    pub fn doc(&self, i: usize) -> Document {
        assert!(i < self.spec.num_docs, "doc index {i} out of range");
        // Mixed so neighbouring documents don't share RNG streams.
        let mut rng = StdRng::seed_from_u64(splitmix64(self.gen.seed ^ (i as u64)));
        let topic = sample_topic(&mut rng, &self.weights, self.total_w);
        let city = if rng.gen_bool(self.spec.localized_prob) {
            Some(self.cities[rng.gen_range(0..self.cities.len())])
        } else {
            None
        };
        self.gen.generate_doc(
            &mut rng,
            DocId(i as u32),
            topic,
            city,
            &self.spec,
            &self.topics,
            self.world,
            &self.domains[topic.index()],
        )
    }
}

/// Sample a topic index from the weight table.
fn sample_topic(rng: &mut StdRng, weights: &[f64], total: f64) -> TopicId {
    let mut x = rng.gen::<f64>() * total;
    for (k, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return TopicId(k as u16);
        }
    }
    TopicId((weights.len() - 1) as u16)
}

/// A short random lowercase word for slugs/domains.
fn word(rng: &mut StdRng) -> String {
    const L: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    (0..rng.gen_range(4..8)).map(|_| L[rng.gen_range(0..L.len())] as char).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_geo::{WorldGen, WorldSpec};

    fn small_world() -> LocationOntology {
        WorldGen::new(1).generate(&WorldSpec::small())
    }

    #[test]
    fn deterministic_generation() {
        let w = small_world();
        let a = CorpusGen::new(5).generate(&CorpusSpec::small(), &w);
        let b = CorpusGen::new(5).generate(&CorpusSpec::small(), &w);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.docs.iter().zip(&b.docs) {
            assert_eq!(x.url, y.url);
            assert_eq!(x.body, y.body);
            assert_eq!(x.city, y.city);
        }
    }

    #[test]
    fn different_seed_differs() {
        let w = small_world();
        let a = CorpusGen::new(5).generate(&CorpusSpec::small(), &w);
        let b = CorpusGen::new(6).generate(&CorpusSpec::small(), &w);
        assert!(a.docs.iter().zip(&b.docs).any(|(x, y)| x.body != y.body));
    }

    #[test]
    fn ids_are_dense() {
        let w = small_world();
        let c = CorpusGen::new(5).generate(&CorpusSpec::small(), &w);
        for (i, d) in c.docs.iter().enumerate() {
            assert_eq!(d.id, DocId(i as u32));
        }
    }

    #[test]
    fn localized_fraction_near_spec() {
        let w = small_world();
        let spec = CorpusSpec { num_docs: 2000, ..CorpusSpec::small() };
        let c = CorpusGen::new(5).generate(&spec, &w);
        let f = c.localized_fraction();
        assert!((f - spec.localized_prob).abs() < 0.06, "fraction {f}");
    }

    #[test]
    fn localized_docs_mention_their_city() {
        let w = small_world();
        let c = CorpusGen::new(5).generate(&CorpusSpec::small(), &w);
        for d in c.docs.iter().filter(|d| d.city.is_some()) {
            let city_name = w.name(d.city.unwrap());
            assert!(
                d.full_text().contains(city_name),
                "doc {} does not mention {}",
                d.id.0,
                city_name
            );
        }
    }

    #[test]
    fn bodies_within_length_bounds() {
        let w = small_world();
        let spec = CorpusSpec::small();
        let c = CorpusGen::new(5).generate(&spec, &w);
        for d in &c.docs {
            let n = d.body.split_whitespace().count();
            // +4 mentions +1 ancestor max beyond the sampled body length.
            assert!(n >= spec.body_len.0 && n <= spec.body_len.1 + 5, "len {n}");
        }
    }

    #[test]
    fn urls_unique_and_well_formed() {
        let w = small_world();
        let c = CorpusGen::new(5).generate(&CorpusSpec::small(), &w);
        let mut urls = std::collections::HashSet::new();
        for d in &c.docs {
            assert!(d.url.starts_with("http://"));
            assert!(d.url.contains(&d.domain));
            assert!(urls.insert(d.url.clone()), "dup url {}", d.url);
        }
    }

    #[test]
    fn doc_gen_is_order_and_repeat_invariant() {
        let w = small_world();
        let g = CorpusGen::new(5).doc_gen(CorpusSpec::small(), &w);
        assert_eq!(g.len(), CorpusSpec::small().num_docs);
        // Out-of-order and repeated access produce identical documents.
        let d7 = g.doc(7);
        let d3 = g.doc(3);
        assert_eq!(g.doc(7), d7);
        assert_eq!(g.doc(3), d3);
        assert_eq!(d7.id, DocId(7));
        // A second generator with the same seed agrees doc-for-doc.
        let g2 = CorpusGen::new(5).doc_gen(CorpusSpec::small(), &w);
        for i in [0, 1, 42, 299] {
            assert_eq!(g.doc(i), g2.doc(i));
        }
        // A different seed differs.
        let g3 = CorpusGen::new(6).doc_gen(CorpusSpec::small(), &w);
        assert!((0..20).any(|i| g.doc(i).body != g3.doc(i).body));
    }

    #[test]
    fn doc_gen_docs_are_well_formed() {
        let w = small_world();
        let spec = CorpusSpec::small();
        let g = CorpusGen::new(5).doc_gen(spec.clone(), &w);
        let mut urls = std::collections::HashSet::new();
        for i in 0..g.len() {
            let d = g.doc(i);
            assert_eq!(d.id, DocId(i as u32));
            assert!(d.url.starts_with("http://"));
            assert!(urls.insert(d.url.clone()), "dup url {}", d.url);
            let n = d.body.split_whitespace().count();
            // Up to 4 city mentions + 1 ancestor mention, each of which
            // may be a two-word name.
            assert!(n >= spec.body_len.0 && n <= spec.body_len.1 + 10, "len {n}");
            if let Some(c) = d.city {
                assert!(d.full_text().contains(w.name(c)));
            }
        }
    }

    #[test]
    fn large_spec_is_million_docs() {
        let spec = CorpusSpec::large();
        assert!(spec.num_docs >= 1_000_000);
    }

    #[test]
    fn topic_skew_produces_nonuniform_distribution() {
        let w = small_world();
        let spec = CorpusSpec { num_docs: 3000, topic_skew: 1.2, ..CorpusSpec::small() };
        let c = CorpusGen::new(5).generate(&spec, &w);
        let first = c.by_topic(TopicId(0)).count();
        let last = c.by_topic(TopicId((spec.num_topics - 1) as u16)).count();
        assert!(first > last, "expected skew: {first} vs {last}");
    }
}
