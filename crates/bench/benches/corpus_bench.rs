//! Criterion bench: text-substrate throughput — tokenizer, Porter
//! stemmer, pipeline, and association-network construction — plus
//! `corpus/setup_path`, the raw-tweets-to-graph calls of the
//! `cluster-dense` benchmark workload at its full size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use linkclust_corpus::assoc::AssocNetworkBuilder;
use linkclust_corpus::porter::stem;
use linkclust_corpus::synth::{SynthCorpus, SynthCorpusConfig};
use linkclust_corpus::TextPipeline;
use linkclust_graph::CsrGraph;

fn bench_corpus(c: &mut Criterion) {
    let sc = SynthCorpus::generate(&SynthCorpusConfig {
        documents: 2_000,
        vocabulary: 800,
        topics: 10,
        seed: 1,
        ..Default::default()
    });
    let tweets = sc.render_tweets(2);
    let total_bytes: usize = tweets.iter().map(String::len).sum();

    let mut group = c.benchmark_group("corpus/pipeline");
    group.throughput(Throughput::Bytes(total_bytes as u64));
    group.bench_function("tokenize_stem_filter", |b| {
        let p = TextPipeline::new();
        b.iter(|| p.process_all(&tweets));
    });
    group.finish();

    c.bench_function("corpus/porter_stemmer", |b| {
        let words: Vec<String> = sc.vocabulary().iter().take(500).cloned().collect();
        b.iter(|| {
            let mut n = 0;
            for w in &words {
                n += stem(w).len();
                n += stem(&format!("{w}ing")).len();
                n += stem(&format!("{w}ed")).len();
            }
            n
        });
    });

    let mut group = c.benchmark_group("corpus/assoc_network");
    for &top in &[50usize, 200, 500] {
        group.bench_with_input(BenchmarkId::from_parameter(top), &top, |b, &top| {
            b.iter(|| {
                AssocNetworkBuilder::new()
                    .top_words(top)
                    .min_document_count(2)
                    .build(sc.documents())
                    .expect("non-empty corpus")
            });
        });
    }
    group.finish();

    c.bench_function("corpus/synth_generate", |b| {
        b.iter(|| {
            SynthCorpus::generate(&SynthCorpusConfig {
                documents: 1_000,
                vocabulary: 400,
                topics: 8,
                seed: 3,
                ..Default::default()
            })
        });
    });
}

/// The dense workload's set-up path, layer by layer: 25,000 rendered
/// tweets through the text pipeline, the top-350-word association
/// network, and its CSR graph.
fn bench_setup_path(c: &mut Criterion) {
    let sc = SynthCorpus::generate(&SynthCorpusConfig {
        documents: 25_000,
        vocabulary: 4_000,
        topics: 20,
        seed: 1,
        ..Default::default()
    });
    let tweets = sc.render_tweets(2);
    let corpus = TextPipeline::new().process_all(&tweets);
    let net = AssocNetworkBuilder::new()
        .top_words(350)
        .build(corpus.documents())
        .expect("the corpus has words");

    let mut group = c.benchmark_group("corpus/setup_path");
    group.bench_function("text", |b| b.iter(|| TextPipeline::new().process_all(&tweets)));
    group.bench_function("assoc", |b| {
        b.iter(|| AssocNetworkBuilder::new().top_words(350).build(corpus.documents()));
    });
    group.bench_function("csr", |b| b.iter(|| CsrGraph::from_weighted(net.graph())));
    group.bench_function("all", |b| {
        b.iter(|| {
            let corpus = TextPipeline::new().process_all(&tweets);
            let net = AssocNetworkBuilder::new()
                .top_words(350)
                .build(corpus.documents())
                .expect("the corpus has words");
            CsrGraph::from_weighted(net.graph())
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_corpus, bench_setup_path
}
criterion_main!(benches);
