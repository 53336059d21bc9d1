//! Seeded request schedules.
//!
//! A workload's traffic is a pure function of `(seed, ScheduleSpec)`: a
//! warm-up list (every user, `warm_turns` search + click turns) and one
//! endless request stream per client. The engine only ever sees the
//! generated `(user, query index, click position, observe?)` tuples.
//!
//! Users are partitioned by `user % clients`, so each user's requests come
//! from exactly one client and their order is deterministic whatever the
//! thread interleaving. The seed drives the *draws*; the popularity rank of
//! a query template is its index (template 0 is the Zipf head), so two
//! seeds offer the same traffic shape and differ only in the sample.

/// SplitMix64: the repo's house generator for schedules (one `u64` of
/// state, no dependency on the vendored `rand`).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// How a request picks its query template.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryPick {
    /// Zipf with exponent `s` over the templates, template 0 most popular.
    Zipf(f64),
    /// Every template equally likely.
    Uniform,
}

/// Samples template indices under a [`QueryPick`].
#[derive(Debug, Clone)]
pub struct QueryPicker {
    /// Cumulative probabilities (empty for uniform).
    cdf: Vec<f64>,
    n: usize,
}

impl QueryPicker {
    pub fn new(pick: QueryPick, templates: usize) -> Self {
        assert!(templates > 0, "a workload needs at least one query template");
        let cdf = match pick {
            QueryPick::Uniform => Vec::new(),
            QueryPick::Zipf(s) => {
                let weights: Vec<f64> = (1..=templates).map(|r| 1.0 / (r as f64).powf(s)).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect()
            }
        };
        QueryPicker { cdf, n: templates }
    }

    pub fn pick(&self, rng: &mut SplitMix64) -> u32 {
        if self.cdf.is_empty() {
            return rng.below(self.n as u64) as u32;
        }
        let u = rng.next_f64();
        (self.cdf.partition_point(|&c| c <= u).min(self.n - 1)) as u32
    }
}

/// Shape of one workload's traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleSpec {
    /// Closed-loop clients; users are partitioned by `user % clients`.
    pub clients: u32,
    /// User population (ids `0..users`).
    pub users: u32,
    /// Query templates available.
    pub templates: u32,
    pub pick: QueryPick,
    /// Search + click turns every user gets before measuring.
    pub warm_turns: u32,
    /// An observe follows every n-th search of a client (0 = read-only).
    pub observe_every: u32,
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub user: u32,
    /// Index into the workload's query templates.
    pub query: u32,
    /// Position on the returned page to click (0–2), when observed.
    pub click_pos: u8,
    /// Whether an observe (click feedback) follows the search.
    pub observe: bool,
}

const WARM_STREAM: u64 = 0x7761_726d; // "warm"
const RUN_STREAM: u64 = 0x7275_6e21; // "run!"

fn stream_rng(seed: u64, stream: u64, client: u32) -> SplitMix64 {
    // Two rounds so nearby (seed, client) pairs land on unrelated states.
    let mut k = SplitMix64::new(seed ^ stream.rotate_left(32));
    let a = k.next_u64();
    SplitMix64::new(a ^ u64::from(client).wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

fn users_of(spec: &ScheduleSpec, client: u32) -> u32 {
    // Users client, client + clients, client + 2·clients, …
    (spec.users + spec.clients - 1 - client) / spec.clients
}

/// The measured traffic of one client: an endless deterministic stream.
#[derive(Debug, Clone)]
pub struct ClientStream {
    rng: SplitMix64,
    picker: QueryPicker,
    spec: ScheduleSpec,
    client: u32,
    own_users: u32,
    issued: u64,
}

impl ClientStream {
    pub fn new(seed: u64, spec: ScheduleSpec, client: u32) -> Self {
        assert!(client < spec.clients && spec.users >= spec.clients);
        ClientStream {
            rng: stream_rng(seed, RUN_STREAM, client),
            picker: QueryPicker::new(spec.pick, spec.templates as usize),
            spec,
            client,
            own_users: users_of(&spec, client),
            issued: 0,
        }
    }
}

impl Iterator for ClientStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let user =
            self.client + self.spec.clients * self.rng.below(u64::from(self.own_users)) as u32;
        let query = self.picker.pick(&mut self.rng);
        let click_pos = self.rng.below(3) as u8;
        self.issued += 1;
        let every = u64::from(self.spec.observe_every);
        Some(Request {
            user,
            query,
            click_pos,
            observe: every > 0 && self.issued.is_multiple_of(every),
        })
    }
}

/// One client's warm-up: `warm_turns` rounds over its users, every request
/// followed by an observe.
pub fn warm_up(seed: u64, spec: ScheduleSpec, client: u32) -> Vec<Request> {
    let mut rng = stream_rng(seed, WARM_STREAM, client);
    let picker = QueryPicker::new(spec.pick, spec.templates as usize);
    let mut out = Vec::with_capacity((spec.warm_turns * users_of(&spec, client)) as usize);
    for _ in 0..spec.warm_turns {
        for k in 0..users_of(&spec, client) {
            out.push(Request {
                user: client + spec.clients * k,
                query: picker.pick(&mut rng),
                click_pos: rng.below(3) as u8,
                observe: true,
            });
        }
    }
    out
}

/// Requests of each client's stream folded into [`schedule_hash`].
pub const HASHED_PREFIX: usize = 4096;

/// FNV-1a-64 over the warm-up and the first [`HASHED_PREFIX`] requests of
/// every client's stream: two runs offered the same traffic iff this agrees.
pub fn schedule_hash(seed: u64, spec: ScheduleSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |r: Request| {
        let word = u64::from(r.user) << 32
            | u64::from(r.query) << 8
            | u64::from(r.click_pos) << 1
            | u64::from(r.observe);
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for client in 0..spec.clients {
        warm_up(seed, spec, client).into_iter().for_each(&mut eat);
        ClientStream::new(seed, spec, client).take(HASHED_PREFIX).for_each(&mut eat);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(pick: QueryPick) -> ScheduleSpec {
        ScheduleSpec {
            clients: 2,
            users: 61,
            templates: 120,
            pick,
            warm_turns: 3,
            observe_every: 4,
        }
    }

    #[test]
    fn same_seed_same_schedule_different_seed_different_schedule() {
        let s = spec(QueryPick::Zipf(1.0));
        assert_eq!(schedule_hash(42, s), schedule_hash(42, s));
        assert_ne!(schedule_hash(42, s), schedule_hash(43, s));
        // The hash sees every field of the spec that shapes traffic.
        assert_ne!(schedule_hash(42, s), schedule_hash(42, spec(QueryPick::Uniform)));
        let a: Vec<Request> = ClientStream::new(7, s, 1).take(500).collect();
        let b: Vec<Request> = ClientStream::new(7, s, 1).take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn users_are_partitioned_by_client() {
        let s = spec(QueryPick::Uniform);
        for client in 0..s.clients {
            let mut seen = std::collections::BTreeSet::new();
            for r in ClientStream::new(3, s, client).take(5000) {
                assert_eq!(r.user % s.clients, client);
                assert!(r.user < s.users && r.query < s.templates && r.click_pos < 3);
                seen.insert(r.user);
            }
            // 61 users over 2 clients: 31 + 30, all of them reached.
            assert_eq!(seen.len() as u32, users_of(&s, client));
        }
        assert_eq!(users_of(&s, 0) + users_of(&s, 1), s.users);
        let warm = warm_up(3, s, 0);
        assert_eq!(warm.len() as u32, s.warm_turns * users_of(&s, 0));
        assert!(warm.iter().all(|r| r.observe && r.user % 2 == 0));
    }

    #[test]
    fn observe_follows_every_nth_search() {
        let s = spec(QueryPick::Uniform);
        let flags: Vec<bool> = ClientStream::new(1, s, 0).take(12).map(|r| r.observe).collect();
        let want: Vec<bool> = (1..=12).map(|i| i % 4 == 0).collect();
        assert_eq!(flags, want);
        let read_only = ScheduleSpec { observe_every: 0, ..s };
        assert!(ClientStream::new(1, read_only, 0).take(100).all(|r| !r.observe));
    }

    #[test]
    fn zipf_head_mass_matches_theory() {
        let n = 120usize;
        let picker = QueryPicker::new(QueryPick::Zipf(1.0), n);
        let mut rng = SplitMix64::new(99);
        let draws = 200_000;
        let mut counts = vec![0u32; n];
        for _ in 0..draws {
            counts[picker.pick(&mut rng) as usize] += 1;
        }
        let h_n: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let theory_head10: f64 = (1..=10).map(|r| 1.0 / r as f64).sum::<f64>() / h_n;
        let head10 = counts[..10].iter().sum::<u32>() as f64 / draws as f64;
        assert!((head10 - theory_head10).abs() < 0.02, "{head10} vs {theory_head10}");
        let top = counts[0] as f64 / draws as f64;
        assert!((top - 1.0 / h_n).abs() < 0.02, "{top} vs {}", 1.0 / h_n);
        // Uniform: every template near 1/n.
        let uni = QueryPicker::new(QueryPick::Uniform, n);
        let mut counts = vec![0u32; n];
        for _ in 0..draws {
            counts[uni.pick(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64 / draws as f64;
        assert!(max < 1.0 / n as f64 + 0.02);
    }
}
