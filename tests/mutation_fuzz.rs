//! Seeded mutation fuzzing of the two untrusted-input decoders: context
//! snapshots (`decode_snapshot_into`) and wire frames (`decode_request`,
//! `decode_reply`).
//!
//! Every case takes a real encoded input from a small corpus and applies
//! a few byte-level mutations — flips, truncations and splices (a byte
//! range of any corpus entry written over a range of the input). The
//! snapshot corpus also holds a valid snapshot of another graph, so
//! splices can carry a foreign fingerprint or foreign entries. Raw
//! mutations mostly die at a checksum, so each decoder is also fuzzed
//! with *sealed* mutations: only a snapshot body (every byte after its
//! checksum) or a frame payload is mutated, and its checksum is
//! recomputed, so the decoders behind the checksum see the bytes. The
//! contracts:
//!
//! * no decoder panics, whatever the bytes;
//! * a rejected snapshot leaves its context exactly as fresh as it was:
//!   the same counters as a new context and no composed entry;
//! * an accepted raw-mutated snapshot installs only entries equal to a
//!   fresh computation: replaying the corpus workload through the loaded
//!   context reproduces the reference outputs and the reference
//!   snapshot bytes (a sealed mutation may install other values — the
//!   checksum guards against corruption, not against crafted files);
//! * an accepted raw-mutated wire frame re-encodes to exactly the bytes
//!   it was decoded from; an accepted sealed frame re-encodes to a
//!   canonical frame that round-trips unchanged; and
//!   `decode(encode(x)) == x` for generated requests and replies.
//!
//! Cases come from the offline proptest shim, so they are deterministic
//! per test name and case index. `PROPTEST_CASES` caps the count; CI runs
//! this file once more at a higher cap than the global one.

use freehgc::core::FreeHgc;
use freehgc::datasets::tiny;
use freehgc::hetgraph::snapshot::{
    decode_snapshot_into, encode_snapshot, snapshot_checksum, ByteWriter, SNAPSHOT_MAGIC,
};
use freehgc::hetgraph::{
    CondenseContext, CondenseSpec, CondensedGraph, Condenser, EdgeTypeId, GraphDelta,
    GraphFingerprint, HeteroGraph, NodeTypeId, SNAPSHOT_VERSION,
};
use freehgc::hgnn::propagation::propagate_ctx;
use freehgc::serve::wire::{
    decode_frame, decode_reply, decode_request, encode_frame, encode_reply, encode_request,
};
use freehgc::serve::{CondensedSummary, ErrorCode, GraphRef, Reply, Request, StatsReply};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Case count before the `PROPTEST_CASES` cap.
const FUZZ_CASES: u32 = 1 << 16;

/// One byte-level edit. Positions and lengths are reduced modulo the
/// input's current size when applied, so every value is meaningful.
#[derive(Clone, Debug)]
enum Mutation {
    /// XOR one byte with a non-zero mask.
    Flip { at: usize, mask: u8 },
    /// Keep only a prefix.
    Truncate { len: usize },
    /// Replace `cut` bytes at `at` with `len` bytes of corpus entry
    /// `donor` starting at `from` (an insertion, deletion or overwrite).
    Splice {
        donor: usize,
        from: usize,
        len: usize,
        at: usize,
        cut: usize,
    },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    const ANY: std::ops::Range<usize> = 0..1 << 32;
    prop_oneof![
        (ANY, 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        ANY.prop_map(|len| Mutation::Truncate { len }),
        (ANY, ANY, 0usize..64, ANY, 0usize..64).prop_map(|(donor, from, len, at, cut)| {
            Mutation::Splice {
                donor,
                from,
                len,
                at,
                cut,
            }
        }),
    ]
}

/// Applies `muts` in order to corpus entry `pick`.
fn mutate(corpus: &[Vec<u8>], pick: usize, muts: &[Mutation]) -> Vec<u8> {
    let mut out = corpus[pick % corpus.len()].clone();
    for m in muts {
        match *m {
            Mutation::Flip { at, mask } => {
                if !out.is_empty() {
                    let at = at % out.len();
                    out[at] ^= mask;
                }
            }
            Mutation::Truncate { len } => out.truncate(len % (out.len() + 1)),
            Mutation::Splice {
                donor,
                from,
                len,
                at,
                cut,
            } => {
                let donor = &corpus[donor % corpus.len()];
                let from = from % (donor.len() + 1);
                let piece = donor[from..(from + len).min(donor.len())].to_vec();
                let at = at % (out.len() + 1);
                let end = (at + cut).min(out.len());
                out.splice(at..end, piece);
            }
        }
    }
    out
}

// ---- snapshots -----------------------------------------------------------

/// The snapshot corpus's graph, workload and reference results: one
/// FreeHGC condensation plus one propagation fill every persisted cache
/// family with real computations.
struct SnapshotFixture {
    graph: HeteroGraph,
    condensed: CondensedGraph,
    /// Two snapshots of `graph`, then one of [`foreign_graph`]: a splice
    /// donor only, never mutated itself.
    corpus: Vec<Vec<u8>>,
    /// Every corpus entry's body ([`split_snapshot`]): the inputs and
    /// donors of sealed mutations.
    bodies: Vec<Vec<u8>>,
}

/// How many corpus entries are snapshots of the fixture graph.
const OWN_SNAPSHOTS: usize = 2;

/// Magic, version and checksum: the bytes before a snapshot's body.
const SNAPSHOT_HEAD_LEN: usize = 8 + 4 + 8;

/// A snapshot's body: every byte after its checksum, which the checksum
/// covers.
fn split_snapshot(bytes: &[u8]) -> &[u8] {
    &bytes[SNAPSHOT_HEAD_LEN..]
}

/// Reassembles a snapshot around `body` with a freshly computed checksum.
fn seal_snapshot(body: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&SNAPSHOT_MAGIC);
    w.put_u32(SNAPSHOT_VERSION);
    w.put_u64(snapshot_checksum(body));
    w.put_bytes(body);
    w.into_bytes()
}

/// `graph` with two more edges of edge type 0: the same node counts, so
/// its entries shape-check against `graph`, but other composed bits and
/// another fingerprint.
fn foreign_graph(graph: &HeteroGraph) -> HeteroGraph {
    let mut delta = GraphDelta::new();
    delta
        .add_edge(EdgeTypeId(0), 0, 0)
        .add_edge(EdgeTypeId(0), 1, 1);
    let mut foreign = graph.clone();
    foreign.apply_delta(&delta);
    foreign
}

fn workload(ctx: &CondenseContext<'_>) -> CondensedGraph {
    propagate_ctx(ctx, 2, 12);
    FreeHgc::default().condense_in(ctx, &CondenseSpec::new(0.2).with_seed(3))
}

fn snapshot_fixture() -> &'static SnapshotFixture {
    static FIXTURE: OnceLock<SnapshotFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let graph = tiny(44);
        let ctx = CondenseContext::new(&graph);
        let condensed = workload(&ctx);
        let full = encode_snapshot(&ctx);
        // A compositions-only snapshot of the same graph: a second seed
        // with the same fingerprint and other entries.
        let partial = CondenseContext::new(&graph);
        let root = graph.schema().target();
        for p in partial.metapaths(root, 2, 12).iter() {
            partial.adjacency(p);
        }
        let foreign = foreign_graph(&graph);
        let foreign_ctx = CondenseContext::new(&foreign);
        workload(&foreign_ctx);
        let corpus = vec![
            full,
            encode_snapshot(&partial),
            encode_snapshot(&foreign_ctx),
        ];
        drop((ctx, foreign_ctx));
        let bodies = corpus.iter().map(|b| split_snapshot(b).to_vec()).collect();
        SnapshotFixture {
            graph,
            condensed,
            corpus,
            bodies,
        }
    })
}

fn same_condensation(a: &CondensedGraph, b: &CondensedGraph) -> bool {
    a.orig_ids == b.orig_ids && a.graph.fingerprint() == b.graph.fingerprint()
}

/// Decodes `bytes` into a fresh context; on rejection, asserts the
/// context is untouched. Returns the context and whether it loaded.
fn decode_fresh<'g>(graph: &'g HeteroGraph, bytes: &[u8]) -> (CondenseContext<'g>, bool) {
    let ctx = CondenseContext::new(graph);
    let loaded = decode_snapshot_into(&ctx, bytes, None).is_ok();
    if !loaded {
        assert_eq!(ctx.stats(), CondenseContext::new(graph).stats());
        assert_eq!(ctx.composed_len(), 0);
    }
    (ctx, loaded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(FUZZ_CASES))]

    #[test]
    fn mutation_fuzz_snapshot_decoder(
        pick in 0..OWN_SNAPSHOTS,
        muts in prop::collection::vec(mutation(), 1..4),
    ) {
        let fx = snapshot_fixture();
        let (ctx, loaded) = decode_fresh(&fx.graph, &mutate(&fx.corpus, pick, &muts));
        if loaded {
            // Installs never overwrite, so a wrong installed entry would
            // survive the replay and show in the outputs or in the
            // re-encoded bytes.
            prop_assert!(same_condensation(&workload(&ctx), &fx.condensed));
            prop_assert!(encode_snapshot(&ctx) == fx.corpus[0], "{muts:?}");
        }
    }

    #[test]
    fn mutation_fuzz_sealed_snapshot_body(
        pick in 0..OWN_SNAPSHOTS,
        muts in prop::collection::vec(mutation(), 1..4),
    ) {
        let fx = snapshot_fixture();
        decode_fresh(&fx.graph, &seal_snapshot(&mutate(&fx.bodies, pick, &muts)));
    }
}

#[test]
fn snapshot_corpus_decodes_and_replays_unmutated() {
    let fx = snapshot_fixture();
    for bytes in &fx.corpus {
        assert!(
            seal_snapshot(split_snapshot(bytes)) == *bytes,
            "split and seal invert"
        );
    }
    for bytes in &fx.corpus[..OWN_SNAPSHOTS] {
        let ctx = CondenseContext::new(&fx.graph);
        decode_snapshot_into(&ctx, bytes, None).expect("a corpus entry loads");
        assert!(same_condensation(&workload(&ctx), &fx.condensed));
        assert!(encode_snapshot(&ctx) == fx.corpus[0]);
    }
    let (_, loaded) = decode_fresh(&fx.graph, &fx.corpus[OWN_SNAPSHOTS]);
    assert!(!loaded, "the foreign donor is another graph's snapshot");
}

/// The fingerprint sits under the checksum: a valid snapshot of another
/// graph with this graph's fingerprint written over its own must not
/// load — it would serve the other graph's composed bits as this one's.
#[test]
fn foreign_snapshot_under_this_graphs_fingerprint_is_rejected() {
    let graph = tiny(44);
    let foreign = foreign_graph(&graph);
    let ctx = CondenseContext::new(&foreign);
    workload(&ctx);
    let mut bytes = encode_snapshot(&ctx);
    let le = |fp: GraphFingerprint| [fp.0.to_le_bytes(), fp.1.to_le_bytes()].concat();
    let at = bytes
        .windows(16)
        .position(|w| w == le(foreign.fingerprint()))
        .expect("a snapshot records its graph's fingerprint");
    bytes[at..at + 16].copy_from_slice(&le(graph.fingerprint()));
    let (_, loaded) = decode_fresh(&graph, &bytes);
    assert!(!loaded, "a spliced fingerprint must be rejected");
}

// ---- wire frames ---------------------------------------------------------

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..128, 0..12).prop_map(|b| b.into_iter().map(char::from).collect())
}

fn delta() -> impl Strategy<Value = GraphDelta> {
    let edge = (0u16..4, 0u32..1000, 0u32..1000);
    (
        prop::collection::vec((edge.clone(), -4.0f32..4.0), 0..4),
        prop::collection::vec(edge, 0..4),
        prop::collection::vec(
            (
                0u16..4,
                0u32..1000,
                prop::collection::vec(-8.0f32..8.0, 0..5),
            ),
            0..3,
        ),
    )
        .prop_map(|(adds, removes, rows)| {
            let mut d = GraphDelta::new();
            for ((e, s, t), w) in adds {
                d.add_weighted_edge(EdgeTypeId(e), s, t, w);
            }
            for (e, s, t) in removes {
                d.remove_edge(EdgeTypeId(e), s, t);
            }
            for (ty, row, values) in rows {
                d.update_feature_row(NodeTypeId(ty), row, values);
            }
            d
        })
}

fn request() -> impl Strategy<Value = Request> {
    let graph = prop_oneof![
        text().prop_map(GraphRef::Id),
        (text(), 0.0f64..4.0, 0u64..1 << 40).prop_map(|(kind, scale, seed)| GraphRef::Inline {
            kind,
            scale,
            seed
        }),
    ];
    let condense = (
        graph,
        text(),
        (0.0f64..1.0, 0u64..1 << 40),
        (0u32..16, 0u32..5000, 0u64..1 << 20),
    )
        .prop_map(
            |(graph, method, (ratio, seed), (max_hops, max_paths, deadline_ms))| {
                Request::Condense {
                    graph,
                    method,
                    ratio,
                    seed,
                    max_hops,
                    max_paths,
                    deadline_ms,
                }
            },
        );
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Stats),
        condense,
        (text(), delta()).prop_map(|(graph_id, delta)| Request::ApplyDelta { graph_id, delta }),
    ]
}

fn reply() -> impl Strategy<Value = Reply> {
    let ids = prop_oneof![
        Just(None),
        prop::collection::vec(0u32..1 << 20, 0..6).prop_map(Some),
    ];
    let condensed = (
        (0u64..u64::MAX, 0u64..u64::MAX),
        prop::collection::vec(0u64..1 << 20, 0..5),
        prop::collection::vec(ids, 0..5),
    )
        .prop_map(|(fingerprint, node_counts, orig_ids)| {
            Reply::Condensed(CondensedSummary {
                fingerprint,
                node_counts,
                orig_ids,
            })
        });
    let codes = [
        ErrorCode::BadFrame,
        ErrorCode::BadRequest,
        ErrorCode::UnknownGraph,
        ErrorCode::UnknownMethod,
        ErrorCode::Overloaded,
        ErrorCode::ShuttingDown,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Cancelled,
        ErrorCode::WorkerPanic,
        ErrorCode::Internal,
    ];
    prop_oneof![
        Just(Reply::Pong),
        condensed,
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..1 << 20, 0u64..1 << 20).prop_map(
            |(a, b, reused_entries, dropped_entries)| Reply::DeltaApplied {
                new_fingerprint: (a, b),
                reused_entries,
                dropped_entries,
            }
        ),
        (0u64..u64::MAX, 0u64..1 << 30).prop_map(|(requests, resident_bytes)| {
            Reply::Stats(StatsReply {
                requests,
                resident_bytes,
                ..Default::default()
            })
        }),
        (0usize..codes.len(), text()).prop_map(move |(c, message)| Reply::Error {
            code: codes[c],
            message,
        }),
    ]
}

/// Request and reply frames of every kind, from fixed values.
fn wire_corpus() -> &'static Vec<Vec<u8>> {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut delta = GraphDelta::new();
        delta.add_weighted_edge(EdgeTypeId(0), 1, 2, 0.5);
        delta.remove_edge(EdgeTypeId(1), 3, 4);
        delta.update_feature_row(NodeTypeId(1), 5, vec![1.0, -2.0]);
        let requests = [
            Request::Ping,
            Request::Stats,
            Request::Condense {
                graph: GraphRef::Inline {
                    kind: "DBLP".into(),
                    scale: 0.1,
                    seed: 3,
                },
                method: "FreeHGC".into(),
                ratio: 0.25,
                seed: 7,
                max_hops: 2,
                max_paths: 12,
                deadline_ms: 1500,
            },
            Request::ApplyDelta {
                graph_id: "acm".into(),
                delta,
            },
        ];
        let replies = [
            Reply::Pong,
            Reply::Condensed(CondensedSummary {
                fingerprint: (1, 2),
                node_counts: vec![3, 4],
                orig_ids: vec![Some(vec![0, 2, 5]), None],
            }),
            Reply::DeltaApplied {
                new_fingerprint: (9, 8),
                reused_entries: 7,
                dropped_entries: 1,
            },
            Reply::Stats(StatsReply {
                requests: 11,
                resident_bytes: 1 << 20,
                ..Default::default()
            }),
            Reply::Error {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            },
        ];
        let reqs = requests.iter().enumerate();
        let reps = replies.iter().enumerate();
        reqs.map(|(i, r)| encode_request(i as u64, r))
            .chain(reps.map(|(i, r)| encode_reply(100 + i as u64, r)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(FUZZ_CASES))]

    #[test]
    fn mutation_fuzz_wire_decoders(
        pick in 0usize..9,
        muts in prop::collection::vec(mutation(), 1..4),
    ) {
        let frame = mutate(wire_corpus(), pick, &muts);
        if let Ok((rid, req)) = decode_request(&frame) {
            prop_assert!(encode_request(rid, &req) == frame, "{req:?}");
        }
        if let Ok((rid, reply)) = decode_reply(&frame) {
            prop_assert!(encode_reply(rid, &reply) == frame, "{reply:?}");
        }
    }

    #[test]
    fn mutation_fuzz_sealed_wire_payloads(
        pick in 0usize..9,
        muts in prop::collection::vec(mutation(), 1..4),
    ) {
        let corpus = wire_corpus();
        let payloads: Vec<Vec<u8>> =
            corpus.iter().map(|f| decode_frame(f).unwrap().2.to_vec()).collect();
        let (kind, rid, _) = decode_frame(&corpus[pick % corpus.len()]).unwrap();
        let frame = encode_frame(kind, rid, &mutate(&payloads, pick, &muts));
        // A sealed payload need not be canonical (say, delta ops out of
        // edge-type order), but its re-encoding must be.
        if let Ok((rid, req)) = decode_request(&frame) {
            let canonical = encode_request(rid, &req);
            let (rid, again) = decode_request(&canonical).unwrap();
            prop_assert!(encode_request(rid, &again) == canonical, "{req:?}");
        }
        if let Ok((rid, reply)) = decode_reply(&frame) {
            let canonical = encode_reply(rid, &reply);
            let (rid, again) = decode_reply(&canonical).unwrap();
            prop_assert!(encode_reply(rid, &again) == canonical, "{reply:?}");
        }
    }

    #[test]
    fn wire_round_trips_generated_messages(
        rid in 0u64..u64::MAX,
        req in request(),
        rep in reply(),
    ) {
        prop_assert_eq!(decode_request(&encode_request(rid, &req)).unwrap(), (rid, req));
        prop_assert_eq!(decode_reply(&encode_reply(rid, &rep)).unwrap(), (rid, rep));
    }
}
