//! Integration: the synthetic corpus reproduces the structural
//! properties of the paper's word-association workload (Fig. 4(1)), and
//! the text pipeline is lossless on rendered tweets.

use linkclust::corpus::synth::{SynthCorpus, SynthCorpusConfig};
use linkclust::graph::stats::GraphStats;
use linkclust::{AssocNetworkBuilder, TextPipeline};
use proptest::prelude::*;

fn corpus(seed: u64) -> SynthCorpus {
    SynthCorpus::generate(&SynthCorpusConfig {
        documents: 4_000,
        vocabulary: 800,
        topics: 10,
        seed,
        ..Default::default()
    })
}

#[test]
fn density_falls_as_vocabulary_grows() {
    // The paper's Fig. 4(1): density 1.0 -> 0.136 as alpha grows.
    let c = corpus(1);
    let mut last_density = f64::INFINITY;
    for &top in &[5usize, 25, 100, 400] {
        let net = AssocNetworkBuilder::new()
            .top_words(top)
            .min_document_count(2)
            .build(c.documents())
            .expect("non-empty corpus");
        let d = net.graph().density();
        assert!(
            d <= last_density + 0.05,
            "density should fall (or stay) as vocabulary grows: {d} after {last_density}"
        );
        last_density = d;
    }
}

#[test]
fn small_vocabulary_graph_is_near_complete() {
    let c = corpus(2);
    let net =
        AssocNetworkBuilder::new().top_words(6).build(c.documents()).expect("non-empty corpus");
    assert!(
        net.graph().density() > 0.9,
        "top words must be densely associated, got {}",
        net.graph().density()
    );
}

#[test]
fn k2_dominates_edge_count_on_large_vocabulary() {
    let c = corpus(3);
    let net = AssocNetworkBuilder::new()
        .top_words(400)
        .min_document_count(2)
        .build(c.documents())
        .expect("non-empty corpus");
    let s = GraphStats::compute(net.graph());
    assert!(
        s.incident_edge_pairs > 10 * s.edges as u64,
        "K2 = {} should dominate |E| = {}",
        s.incident_edge_pairs,
        s.edges
    );
}

#[test]
fn vertices_are_frequency_ranked() {
    let c = corpus(4);
    let net = AssocNetworkBuilder::new().top_words(50).build(c.documents()).expect("non-empty");
    let counts: Vec<u32> = (0..net.vocabulary_size())
        .map(|i| net.document_count(linkclust::VertexId::new(i)))
        .collect();
    assert!(counts.windows(2).all(|w| w[0] >= w[1]), "vertex order must follow frequency");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn rendered_tweets_always_roundtrip(seed in 0u64..500, render_seed in 0u64..500) {
        let sc = SynthCorpus::generate(&SynthCorpusConfig {
            documents: 40,
            vocabulary: 60,
            topics: 5,
            seed,
            ..Default::default()
        });
        let pipeline = TextPipeline::new();
        for (raw, original) in sc.render_tweets(render_seed).iter().zip(sc.documents()) {
            let doc = pipeline.process(raw);
            prop_assert_eq!(doc.document(0).words(), original.words(), "raw: {}", raw);
        }
    }

    #[test]
    fn pmi_edges_have_positive_weights(seed in 0u64..50) {
        let sc = SynthCorpus::generate(&SynthCorpusConfig {
            documents: 500,
            vocabulary: 120,
            topics: 6,
            seed,
            ..Default::default()
        });
        let net = AssocNetworkBuilder::new().top_words(40).build(sc.documents()).unwrap();
        for (_, e) in net.graph().edges() {
            prop_assert!(e.weight > 0.0 && e.weight.is_finite());
        }
    }
}
