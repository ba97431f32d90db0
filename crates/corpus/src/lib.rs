//! Synthetic social-media corpus and word-association-network builder.
//!
//! The evaluation of Yan (ICDCS 2017) builds a *word association network*
//! from a month of tweets (§III, §VII): each node is a frequent word, and
//! an edge joins two words whose pointwise mutual information is positive
//! (Eq. 3 of the paper), weighted by
//! `w_ij = p(X_i=1, X_j=1) · log(p(X_i=1, X_j=1) / (p(X_i=1) p(X_j=1)))`.
//!
//! The original Twitter corpus is proprietary, so this crate substitutes a
//! *synthetic* tweet stream ([`synth`]) whose generative model (Zipfian
//! global word frequencies mixed with topic-local vocabularies) reproduces
//! the property the paper's evaluation relies on: **frequent words co-occur
//! in the same message more often**, so the association graph's density
//! falls as the vocabulary fraction α grows (1.0 → ~0.1 across the α
//! sweep of Fig. 4(1)).
//!
//! The text pipeline mirrors the paper's: tokenization ([`token`]), Porter
//! stemming ([`porter`] — the full 1980 algorithm, replacing nltk), and
//! stop-word removal ([`stopwords`]). A processed [`Corpus`] holds `u32`
//! token ids over one shared vocabulary ([`doc`]), so the network builder
//! ([`assoc`]) counts with dense arrays instead of string-keyed maps.
//!
//! # Examples
//!
//! ```
//! use linkclust_corpus::synth::{SynthCorpus, SynthCorpusConfig};
//! use linkclust_corpus::assoc::AssocNetworkBuilder;
//!
//! let corpus = SynthCorpus::generate(&SynthCorpusConfig {
//!     documents: 500,
//!     vocabulary: 300,
//!     topics: 6,
//!     seed: 7,
//!     ..Default::default()
//! });
//! let net = AssocNetworkBuilder::new().fraction(0.5).build(corpus.documents())?;
//! assert!(net.graph().edge_count() > 0);
//! # Ok::<(), linkclust_corpus::CorpusError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod assoc;
pub mod doc;
pub mod pipeline;
pub mod porter;
pub mod reader;
pub mod stats;
pub mod stopwords;
pub mod synth;
pub mod token;

pub use assoc::{AssocNetwork, AssocNetworkBuilder};
pub use doc::{Corpus, Document, Documents};
pub use error::CorpusError;
pub use pipeline::TextPipeline;
