//! The paper's end-to-end workload (§III, §VII): raw tweets → text
//! pipeline (tokenize, stop-filter, Porter-stem) → PMI word association
//! network → link clustering → word communities.
//!
//! ```text
//! cargo run --release --example word_association
//! ```

use std::collections::HashMap;

use linkclust::corpus::synth::{SynthCorpus, SynthCorpusConfig};
use linkclust::{AssocNetworkBuilder, LinkClustering, TextPipeline};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic month of tweets (the paper's Dec-2011 corpus is
    //    proprietary; the generator reproduces its co-occurrence shape).
    let synth = SynthCorpus::generate(&SynthCorpusConfig {
        documents: 8_000,
        vocabulary: 1_200,
        topics: 10,
        seed: 20111201,
        ..Default::default()
    });
    let raw_tweets = synth.render_tweets(99);
    println!("corpus: {} raw tweets, e.g.:", raw_tweets.len());
    for t in raw_tweets.iter().take(3) {
        println!("  {t}");
    }

    // 2. The same preprocessing the paper runs through nltk.
    let pipeline = TextPipeline::new();
    let corpus = pipeline.process_all(&raw_tweets);

    // 3. Word association network over the most frequent words (Eq. 3).
    let net = AssocNetworkBuilder::new()
        .top_words(150)
        .min_document_count(3)
        .build(corpus.documents())?;
    let g = net.graph();
    println!(
        "\nassociation network: {} words, {} edges, density {:.3}",
        g.vertex_count(),
        g.edge_count(),
        g.density()
    );

    // 4. Link clustering + density-optimal cut.
    let result = LinkClustering::new().run(g).unwrap();
    let cut = result.best_density_cut(g).expect("non-empty graph");
    println!(
        "best cut: {} link communities at level {} (partition density {:.3})",
        cut.cluster_count, cut.level, cut.density
    );

    // 5. Report the largest communities as word groups.
    let labels = result.output().edge_assignments_at_level(cut.level);
    let mut communities: HashMap<u32, Vec<String>> = HashMap::new();
    for (id, edge) in g.edges() {
        let c = communities.entry(labels[id.index()]).or_default();
        for v in [edge.source, edge.target] {
            let w = net.word(v).to_owned();
            if !c.contains(&w) {
                c.push(w);
            }
        }
    }
    let mut sizes: Vec<(u32, usize)> = communities.iter().map(|(&l, ws)| (l, ws.len())).collect();
    sizes.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("\ntop communities (words may overlap between communities):");
    for (label, _) in sizes.iter().take(5) {
        let mut words = communities[label].clone();
        words.sort();
        words.truncate(12);
        println!("  [{}] {}", label, words.join(" "));
    }
    Ok(())
}
