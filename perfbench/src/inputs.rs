//! Workloads, their seeded inputs, and the set-up path from raw input to
//! a graph the program can cluster.
//!
//! `prepare` runs in a child process of its own: it writes the inputs,
//! and computes the serial Algorithm 2 reference and the input
//! statistics, so no oracle state ever lives in the measuring process.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use linkclust::core::coarse::CoarseConfig;
use linkclust::core::init::compute_similarities;
use linkclust::core::sweep::{sweep, SweepConfig};
use linkclust::corpus::synth::{SynthCorpus, SynthCorpusConfig};
use linkclust::graph::binfmt::GraphFile;
use linkclust::graph::generate::{gnm, lfr_like, WeightMode};
use linkclust::graph::io::{read_edge_list, write_edge_list};
use linkclust::graph::stats::GraphStats;
use linkclust::{AssocNetworkBuilder, CsrGraph, TextPipeline};

use crate::spans::Tracer;
use crate::util::{coarse_fingerprint, fine_fingerprint};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// G(n, m) with n = m/5: pairs in `L` share about one neighbour.
    ClusterSparse,
    /// A word-association network from raw synthetic tweets: pairs share
    /// about seventy neighbours.
    ClusterDense,
    /// An LFR-like planted graph served by `linkclustd` under a query mix.
    ServeMixed,
}

impl Workload {
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cluster-sparse" => Some(Workload::ClusterSparse),
            "cluster-dense" => Some(Workload::ClusterDense),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusterSparse => "cluster-sparse",
            Workload::ClusterDense => "cluster-dense",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// Input sizes. `FULL` is the benchmark; `TINY` runs the same code path
/// in a second, for the self-test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub sparse_edges: usize,
    pub dense_documents: usize,
    pub dense_vocabulary: usize,
    pub dense_topics: usize,
    pub dense_words: usize,
    pub serve_vertices: usize,
}

pub const FULL: Sizes = Sizes {
    sparse_edges: 50_000,
    dense_documents: 25_000,
    dense_vocabulary: 4_000,
    dense_topics: 20,
    dense_words: 350,
    serve_vertices: 4_000,
};

pub const TINY: Sizes = Sizes {
    sparse_edges: 2_000,
    dense_documents: 1_500,
    dense_vocabulary: 500,
    dense_topics: 5,
    dense_words: 60,
    serve_vertices: 300,
};

pub const EDGE_LIST: &str = "input.edges";
pub const TWEETS: &str = "tweets.txt";
pub const GRAPH_FILE: &str = "graph.lcgr";
const PREP_FILE: &str = "prep.txt";

/// What `prepare` measured about the input, plus the reference
/// fingerprints every timed clustering is checked against.
#[derive(Clone, Copy, Debug, Default)]
pub struct Prep {
    pub vertices: u64,
    pub edges: u64,
    pub density: f64,
    /// K₁: vertex pairs with a common neighbour (entries of `L`).
    pub k1: u64,
    /// K₂: pairs of incident edges (common-neighbour records of `L`).
    pub k2: u64,
    /// Serial Algorithm 2 (init, sort, sweep) plus the best-density cut.
    pub fine_fp: u64,
    /// The serial coarse sweep at the paper's γ = 2, φ = 100.
    pub coarse_fp: u64,
}

impl Prep {
    /// Alters both reference fingerprints, so every clustering checked
    /// against them fails (the self-test's fault).
    pub fn corrupt(&mut self) {
        self.fine_fp ^= 1;
        self.coarse_fp ^= 1;
    }
}

/// Writes the workload's inputs into `dir` and computes [`Prep`].
///
/// # Errors
///
/// Propagates file and parse errors.
pub fn prepare(w: Workload, seed: u64, sizes: &Sizes, dir: &Path) -> Result<Prep, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let create = |name: &str| {
        File::create(dir.join(name)).map(BufWriter::new).map_err(|e| format!("create {name}: {e}"))
    };
    match w {
        Workload::ClusterSparse => {
            let m = sizes.sparse_edges;
            let g = gnm(m / 5, m, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let mut out = create(EDGE_LIST)?;
            write_edge_list(&g, &mut out).and_then(|()| out.flush()).map_err(|e| e.to_string())?;
        }
        Workload::ClusterDense => {
            let corpus = SynthCorpus::generate(&SynthCorpusConfig {
                documents: sizes.dense_documents,
                vocabulary: sizes.dense_vocabulary,
                topics: sizes.dense_topics,
                seed,
                ..SynthCorpusConfig::default()
            });
            let mut out = create(TWEETS)?;
            for tweet in corpus.render_tweets(seed.wrapping_add(1)) {
                writeln!(out, "{tweet}").map_err(|e| e.to_string())?;
            }
            out.flush().map_err(|e| e.to_string())?;
        }
        Workload::ServeMixed => {
            let planted = lfr_like(sizes.serve_vertices, 10, 0.2, seed);
            let csr = CsrGraph::from_weighted(&planted.graph);
            let mut out = create(GRAPH_FILE)?;
            GraphFile::write(&csr, &mut out)
                .and_then(|()| out.flush())
                .map_err(|e| e.to_string())?;
        }
    }
    // The reference is computed on the graph exactly as the measured
    // set-up path produces it.
    let g = load(w, dir, sizes, None)?;
    if w != Workload::ServeMixed {
        let mut out = create(GRAPH_FILE)?;
        GraphFile::write(&g, &mut out).and_then(|()| out.flush()).map_err(|e| e.to_string())?;
    }
    let stats = GraphStats::compute(&g);
    let sorted = compute_similarities(&g).into_sorted();
    let out = sweep(&g, &sorted, SweepConfig::default());
    let fine_fp = fine_fingerprint(&out, out.dendrogram().best_density_cut(&g));
    drop((sorted, out));
    let coarse = linkclust::core::LinkClustering::new()
        .run_coarse(&g, CoarseConfig::default())
        .map_err(|e| e.to_string())?;
    let prep = Prep {
        vertices: stats.vertices as u64,
        edges: stats.edges as u64,
        density: stats.density,
        k1: stats.common_neighbor_pairs,
        k2: stats.incident_edge_pairs,
        fine_fp,
        coarse_fp: coarse_fingerprint(&coarse),
    };
    let text = format!(
        "vertices {}\nedges {}\ndensity {:?}\nk1 {}\nk2 {}\nfine_fp {}\ncoarse_fp {}\n",
        prep.vertices, prep.edges, prep.density, prep.k1, prep.k2, prep.fine_fp, prep.coarse_fp
    );
    std::fs::write(dir.join(PREP_FILE), text).map_err(|e| format!("write {PREP_FILE}: {e}"))?;
    Ok(prep)
}

/// Reads the [`Prep`] a `prepare` child wrote into `dir`.
///
/// # Errors
///
/// Reports a missing file or a missing or malformed field.
pub fn read_prep(dir: &Path) -> Result<Prep, String> {
    let text = std::fs::read_to_string(dir.join(PREP_FILE))
        .map_err(|e| format!("read {PREP_FILE}: {e}"))?;
    let field = |key: &str| -> Result<&str, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
            .ok_or_else(|| format!("{PREP_FILE} lacks {key}"))
    };
    let int = |key: &str| -> Result<u64, String> {
        field(key)?.parse().map_err(|e| format!("{PREP_FILE} {key}: {e}"))
    };
    Ok(Prep {
        vertices: int("vertices")?,
        edges: int("edges")?,
        density: field("density")?.parse().map_err(|e| format!("{PREP_FILE} density: {e}"))?,
        k1: int("k1")?,
        k2: int("k2")?,
        fine_fp: int("fine_fp")?,
        coarse_fp: int("coarse_fp")?,
    })
}

/// Raw input to a ready graph: the workload's set-up path. With a
/// tracer, each layer call runs in its own span.
///
/// # Errors
///
/// Propagates read and parse errors.
pub fn load(
    w: Workload,
    dir: &Path,
    sizes: &Sizes,
    tr: Option<&Tracer>,
) -> Result<CsrGraph, String> {
    let layer = |name: &'static str, f: &mut dyn FnMut()| match tr {
        Some(t) => t.layer(name, f),
        None => f(),
    };
    let mut result: Result<CsrGraph, String> = Err("no graph loaded".to_owned());
    match w {
        Workload::ClusterSparse => layer("graph.load", &mut || {
            result = File::open(dir.join(EDGE_LIST))
                .map_err(|e| format!("open {EDGE_LIST}: {e}"))
                .and_then(|f| read_edge_list(BufReader::new(f)).map_err(|e| e.to_string()))
                .map(|g| CsrGraph::from_weighted(&g));
        }),
        Workload::ClusterDense => {
            let mut corpus = Err(String::new());
            layer("corpus.text", &mut || {
                corpus = File::open(dir.join(TWEETS))
                    .map_err(|e| format!("open {TWEETS}: {e}"))
                    .and_then(|f| {
                        BufReader::new(f)
                            .lines()
                            .collect::<Result<Vec<String>, _>>()
                            .map_err(|e| e.to_string())
                    })
                    .map(|lines| TextPipeline::new().process_all(lines));
            });
            let corpus = corpus?;
            let mut network = Err(String::new());
            layer("corpus.assoc", &mut || {
                network = AssocNetworkBuilder::new()
                    .top_words(sizes.dense_words)
                    .build(corpus.documents())
                    .map_err(|e| e.to_string());
            });
            let network = network?;
            layer("graph.csr", &mut || result = Ok(CsrGraph::from_weighted(network.graph())));
        }
        Workload::ServeMixed => layer("graph.binfmt_read", &mut || result = read_graph_file(dir)),
    }
    result
}

/// Streams the workload's binary graph file, as `linkclustd` loads it.
///
/// # Errors
///
/// Propagates read and format errors.
pub fn read_graph_file(dir: &Path) -> Result<CsrGraph, String> {
    let f = File::open(dir.join(GRAPH_FILE)).map_err(|e| format!("open {GRAPH_FILE}: {e}"))?;
    GraphFile::read_streamed(BufReader::new(f)).map_err(|e| e.to_string())
}
