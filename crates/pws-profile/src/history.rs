//! Per-user click history: URL and domain revisit counts.
//!
//! Revisit behaviour ("personal navigation") is a strong, cheap signal the
//! personalized ranker uses alongside the concept profiles.

use pws_click::Impression;
use std::collections::HashMap;

/// Clicked URL/domain counters for one user.
#[derive(Debug, Clone, Default)]
pub struct UserHistory {
    url_clicks: HashMap<String, u32>,
    domain_clicks: HashMap<String, u32>,
    total_clicks: u64,
}

impl UserHistory {
    /// Fresh, empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total clicks folded in.
    pub fn total_clicks(&self) -> u64 {
        self.total_clicks
    }

    /// Times this exact URL was clicked.
    pub fn url_clicks(&self, url: &str) -> u32 {
        self.url_clicks.get(url).copied().unwrap_or(0)
    }

    /// Times any URL of this domain was clicked.
    pub fn domain_clicks(&self, domain: &str) -> u32 {
        self.domain_clicks.get(domain).copied().unwrap_or(0)
    }

    /// All `(url, clicks)` entries in ascending URL order — the canonical
    /// view used by persistence (`pws-store`).
    pub fn url_click_entries(&self) -> Vec<(String, u32)> {
        let mut v: Vec<(String, u32)> =
            self.url_clicks.iter().map(|(u, c)| (u.clone(), *c)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// All `(domain, clicks)` entries in ascending domain order.
    pub fn domain_click_entries(&self) -> Vec<(String, u32)> {
        let mut v: Vec<(String, u32)> =
            self.domain_clicks.iter().map(|(d, c)| (d.clone(), *c)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Rebuild a history from its entry lists — the inverse of
    /// [`Self::url_click_entries`] / [`Self::domain_click_entries`].
    /// Duplicate keys sum.
    pub fn from_entries(
        url_entries: Vec<(String, u32)>,
        domain_entries: Vec<(String, u32)>,
        total_clicks: u64,
    ) -> Self {
        let mut url_clicks = HashMap::with_capacity(url_entries.len());
        for (u, c) in url_entries {
            *url_clicks.entry(u).or_insert(0) += c;
        }
        let mut domain_clicks = HashMap::with_capacity(domain_entries.len());
        for (d, c) in domain_entries {
            *domain_clicks.entry(d).or_insert(0) += c;
        }
        UserHistory { url_clicks, domain_clicks, total_clicks }
    }

    /// Extract the registrable domain from a URL
    /// (`http://host/path` → `host`). Returns the input when it does not
    /// look like a URL.
    pub fn domain_of(url: &str) -> &str {
        let rest = url
            .strip_prefix("http://")
            .or_else(|| url.strip_prefix("https://"))
            .unwrap_or(url);
        rest.split('/').next().unwrap_or(rest)
    }

    /// Fold an impression's clicks into the history.
    pub fn observe(&mut self, imp: &Impression) {
        for click in &imp.clicks {
            let Some(shown) = imp.results.iter().find(|r| r.doc == click.doc) else { continue };
            *self.url_clicks.entry(shown.url.clone()).or_insert(0) += 1;
            let domain = Self::domain_of(&shown.url).to_string();
            *self.domain_clicks.entry(domain).or_insert(0) += 1;
            self.total_clicks += 1;
        }
    }

    /// Normalized revisit score for a URL in [0, 1]: `clicks / (1 + clicks)`
    /// — saturating, so one prior click already counts strongly.
    pub fn url_score(&self, url: &str) -> f64 {
        let c = f64::from(self.url_clicks(url));
        c / (1.0 + c)
    }

    /// Normalized domain-affinity score in [0, 1].
    pub fn domain_score(&self, url: &str) -> f64 {
        let c = f64::from(self.domain_clicks(Self::domain_of(url)));
        c / (1.0 + c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_click::{Click, ShownResult, UserId};
    use pws_corpus::query::QueryId;

    fn imp(urls: &[&str], clicked: &[usize]) -> Impression {
        Impression {
            user: UserId(0),
            query: QueryId(0),
            query_text: "q".into(),
            results: urls
                .iter()
                .enumerate()
                .map(|(i, u)| ShownResult {
                    doc: i as u32,
                    rank: i + 1,
                    url: u.to_string(),
                    title: "t".into(),
                    snippet: "s".into(),
                })
                .collect(),
            clicks: clicked
                .iter()
                .map(|&i| Click { doc: i as u32, rank: i + 1, dwell: 100 })
                .collect(),
        }
    }

    #[test]
    fn domain_extraction() {
        assert_eq!(UserHistory::domain_of("http://a.test/x/y"), "a.test");
        assert_eq!(UserHistory::domain_of("https://b.test/"), "b.test");
        assert_eq!(UserHistory::domain_of("weird"), "weird");
    }

    #[test]
    fn counts_accumulate() {
        let mut h = UserHistory::new();
        h.observe(&imp(&["http://a.test/1", "http://a.test/2"], &[0]));
        h.observe(&imp(&["http://a.test/1", "http://b.test/1"], &[0, 1]));
        assert_eq!(h.url_clicks("http://a.test/1"), 2);
        assert_eq!(h.url_clicks("http://a.test/2"), 0);
        assert_eq!(h.domain_clicks("a.test"), 2);
        assert_eq!(h.domain_clicks("b.test"), 1);
        assert_eq!(h.total_clicks(), 3);
    }

    #[test]
    fn scores_saturate() {
        let mut h = UserHistory::new();
        assert_eq!(h.url_score("http://a.test/1"), 0.0);
        h.observe(&imp(&["http://a.test/1"], &[0]));
        assert!((h.url_score("http://a.test/1") - 0.5).abs() < 1e-12);
        h.observe(&imp(&["http://a.test/1"], &[0]));
        let s = h.url_score("http://a.test/1");
        assert!(s > 0.5 && s < 1.0);
    }

    #[test]
    fn unclicked_impressions_change_nothing() {
        let mut h = UserHistory::new();
        h.observe(&imp(&["http://a.test/1"], &[]));
        assert_eq!(h.total_clicks(), 0);
        assert_eq!(h.url_score("http://a.test/1"), 0.0);
    }
}
