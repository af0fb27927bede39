//! The worlds the workloads run on, their seeded query streams, and the
//! serial oracle every answer is checked against.

use hermes::common::rng::ZipfSampler;
use hermes::common::Rng64;
use hermes::domains::relational::RelationalDomain;
use hermes::domains::synthetic::{CostProfile, RelationSpec, SyntheticDomain};
use hermes::domains::video::gen::rope_store;
use hermes::domains::SlowDomain;
use hermes::{profiles, CimPolicy, Mediator, Network, Value};
use hermes_bench::scenarios::{cast_table, frame_range_invariant, mirror_invariant, MirrorDomain};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

// ------------------------------------------------ the serving world

/// The `hermes-serve` synthetic world's rules: four single-call forms
/// over two sources (and the unused `hot` form, kept so the program is
/// the served one).
const SERVING_PROGRAM: &str = "
    q0(A, B) :- in(B, d0:r0_bf(A)).
    q1(A, B) :- in(B, d0:r1_bf(A)).
    q2(A, B) :- in(B, d1:r0_bf(A)).
    q3(A, B) :- in(B, d1:r1_bf(A)).
    hot(A, B) :- in(B, d0:h_bf(A)).
";

/// The (domain, function) each form calls, in form order — also the
/// invalidation targets of `churn_point`.
pub const SOURCES: [(&str, &str); 4] = [
    ("d0", "r0_bf"),
    ("d0", "r1_bf"),
    ("d1", "r0_bf"),
    ("d1", "r1_bf"),
];

/// Query forms of the serving world.
pub const FORMS: usize = 4;

/// The serving world: two sites, `keys` keys per relation, and a real
/// `delay` slept on every source call (`SlowDomain`).
pub fn serving_mediator(seed: u64, keys: usize, delay: Duration) -> Mediator {
    let d0 = SyntheticDomain::generate(
        "d0",
        seed,
        &[
            RelationSpec::uniform("r0", keys, 2.0),
            RelationSpec::uniform("r1", keys, 2.0),
            RelationSpec::uniform("h", keys, 2.0),
        ],
    );
    let d1 = SyntheticDomain::generate(
        "d1",
        seed + 1,
        &[
            RelationSpec::uniform("r0", keys, 2.0),
            RelationSpec::uniform("r1", keys, 2.0),
        ],
    );
    let mut net = Network::new(seed);
    net.place(
        Arc::new(SlowDomain::new(Arc::new(d0), delay)),
        profiles::maryland(),
    );
    net.place(
        Arc::new(SlowDomain::new(Arc::new(d1), delay)),
        profiles::cornell(),
    );
    Mediator::from_source(SERVING_PROGRAM, net).expect("serving program compiles")
}

/// Query text of query id `id` (form-major over `keys` keys).
pub fn serving_query(id: u32, keys: usize) -> String {
    let form = id as usize / keys;
    let key = id as usize % keys;
    let rel = if form.is_multiple_of(2) { "r0" } else { "r1" };
    format!("?- q{form}('{rel}_{key}', B).")
}

/// A seeded stream of serving query ids: the form is uniform, the key
/// Zipf(`skew`)-ranked over a seeded permutation of the key space.
pub fn serving_stream(seed: u64, keys: usize, skew: f64, len: usize) -> Vec<u32> {
    let mut rng = Rng64::new(seed ^ 0x5EED_F00D);
    let mut perm: Vec<u32> = (0..keys as u32).collect();
    rng.shuffle(&mut perm);
    let zipf = ZipfSampler::new(keys, skew);
    (0..len)
        .map(|_| {
            let form = rng.range_usize(0, FORMS) as u32;
            form * keys as u32 + perm[zipf.sample(&mut rng) % keys]
        })
        .collect()
}

// ------------------------------------------------------ the paper WAN

/// The `rope_world` rules plus the `plan_choice` multi-access-path join.
const WAN_PROGRAM: &str = "
    objs(F, L, O) :- in(O, video:frames_to_objects('rope', F, L)).
    mobjs(F, L, O) :- in(O, mirror:frames_to_objects('rope', F, L)).
    actors(F, L, O, A) :-
        in(O, video:frames_to_objects('rope', F, L)) &
        in(T, relation:select_eq('cast', 'role', O)) &
        =(T.name, A).
    ra(A, B) :- in(B, sa:ra_bf(A)).
    ra(A, B) :- in(A, sa:ra_fb(B)).
    ra(A, B) :- in(Ans, sa:ra_ff()) & =(Ans.a, A) & =(Ans.b, B).
    rb(A, B) :- in(B, sb:rb_bf(A)).
    rb(A, B) :- in(A, sb:rb_fb(B)).
    rb(A, B) :- in(Ans, sb:rb_ff()) & =(Ans.a, A) & =(Ans.b, B).
    chain(X, Y, Z) :- ra(X, Y) & rb(Z, Y).
";

/// The paper testbed on the virtual clock: AVIS video at the Italy
/// profile, its replica `mirror` and the relational `cast` table on the
/// local Maryland LAN, and two synthetic relations with asymmetric cost
/// profiles (one at Cornell) for the `chain` join. The seed picks the
/// synthetic data and the network's jitter; the shape is fixed, so each
/// seed costs the same work. With `cached`, every call routes through
/// the CIM and the frame-range and mirror invariants are installed;
/// without, nothing is cached (the oracle).
pub fn wan_mediator(seed: u64, cached: bool) -> Mediator {
    let spec_a = RelationSpec::uniform("ra", 120, 4.0)
        .with_profile(CostProfile {
            start_ms: 10.0,
            per_answer_ms: 0.4,
            per_probe_ms: 1.5,
        })
        .with_skew(0.6);
    let spec_b = RelationSpec::uniform("rb", 40, 2.0).with_profile(CostProfile {
        start_ms: 3.0,
        per_answer_ms: 0.15,
        per_probe_ms: 0.5,
    });
    let far_site = profiles::cornell();

    let relation = RelationalDomain::new("relation");
    relation.add_table(cast_table());
    let mut net = Network::new(seed);
    net.place(Arc::new(rope_store()), profiles::italy());
    net.place(
        Arc::new(MirrorDomain::wrap("mirror", Arc::new(rope_store()))),
        profiles::maryland(),
    );
    net.place(relation, profiles::maryland());
    net.place(
        Arc::new(SyntheticDomain::generate("sa", seed ^ 0xA, &[spec_a])),
        far_site,
    );
    net.place(
        Arc::new(SyntheticDomain::generate("sb", seed ^ 0xB, &[spec_b])),
        profiles::maryland(),
    );

    let mut m = Mediator::from_source(WAN_PROGRAM, net).expect("wan program compiles");
    m.config_mut().rewrite.max_plans = 8;
    let routing = if cached {
        CimPolicy::cache_everything()
    } else {
        CimPolicy::never()
    };
    m.caches()
        .policy()
        .routing(routing)
        .apply()
        .expect("serial policy applies");
    if cached {
        m.caches()
            .add_invariant(frame_range_invariant())
            .expect("frame-range invariant installs");
        m.caches()
            .add_invariant(mirror_invariant())
            .expect("mirror invariant installs");
    }
    m
}

/// Frame-range endpoints: few enough that ranges repeat (exact hits)
/// and nest (partial hits through the frame-range invariant).
const FIRST_FRAMES: [u32; 5] = [0, 4, 10, 40, 100];
const LAST_FRAMES: [u32; 4] = [47, 127, 400, 935];

/// Queries per family in one `wan_stream` block: `objs`, its mirror twin
/// `mobjs`, the cross-site `actors` join, and the `chain` join.
const FAMILY_MIX: [usize; 4] = [8, 4, 2, 6];

/// A seeded mix of the two query families, `blocks` blocks of 20 with a
/// fixed count per family (so every seed asks the same kinds of work)
/// and seeded parameters and order.
pub fn wan_stream(seed: u64, blocks: usize) -> Vec<String> {
    let mut rng = Rng64::new(seed ^ 0x3A4_F00D);
    let mut out = Vec::new();
    for _ in 0..blocks {
        let mut block = Vec::new();
        for (family, &n) in FAMILY_MIX.iter().enumerate() {
            for _ in 0..n {
                let f = *rng.pick(&FIRST_FRAMES);
                let l = *rng.pick(&LAST_FRAMES);
                block.push(match family {
                    0 => format!("?- objs({f}, {l}, O)."),
                    1 => format!("?- mobjs({f}, {l}, O)."),
                    2 => format!("?- actors({f}, {l}, O, A)."),
                    _ => format!("?- chain('ra_{}', Y, Z).", rng.range_usize(0, 30)),
                });
            }
        }
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

// ----------------------------------------------------------- answers

/// A digest of an answer's row multiset: equal multisets, in any row
/// order, give equal digests.
pub fn answer_digest(rows: &[Vec<Value>]) -> u64 {
    let mut sorted: Vec<&Vec<Value>> = rows.iter().collect();
    sorted.sort_unstable();
    let mut h = DefaultHasher::new();
    sorted.len().hash(&mut h);
    for row in sorted {
        row.hash(&mut h);
    }
    h.finish()
}

/// The serial, uncached mediator every answer is compared with, with
/// one memoized digest per distinct query (source data never changes).
pub struct Oracle {
    mediator: Mediator,
    memo: HashMap<String, u64>,
}

impl Oracle {
    /// An oracle over `mediator`, which must route nothing through a
    /// cache.
    pub fn new(mediator: Mediator) -> Self {
        Oracle {
            mediator,
            memo: HashMap::new(),
        }
    }

    /// The serving world's oracle: the same data, sources without delay,
    /// no cache.
    pub fn serving(seed: u64, keys: usize) -> Self {
        let mut m = serving_mediator(seed, keys, Duration::ZERO);
        m.caches()
            .policy()
            .routing(CimPolicy::never())
            .apply()
            .expect("serial policy applies");
        Oracle::new(m)
    }

    /// The expected digest of `query`'s answers.
    pub fn digest(&mut self, query: &str) -> u64 {
        if let Some(&d) = self.memo.get(query) {
            return d;
        }
        let result = self.mediator.query(query).expect("oracle query runs");
        let d = answer_digest(&result.rows);
        self.memo.insert(query.to_string(), d);
        d
    }
}
