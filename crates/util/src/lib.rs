//! # bq-util
//!
//! Dependency-free utilities shared by every other crate in the workspace.
//! The container this repo builds in has no network access to a crates
//! registry, so anything that would normally come from `rand` lives here
//! instead: a tiny, seedable, high-quality-enough PRNG and the handful of
//! sampling helpers the experiments need. Beside it sit the two other
//! pieces every binary format shares: the bounds-checked byte reader and
//! writer, and the FNV-1a hash.

pub mod bytes;
pub mod hash;
pub mod prng;

pub use bytes::{ByteReader, ByteWriter, DecodeError};
pub use hash::{fnv1a32, fnv1a64, Fnv1a64};
pub use prng::{Rng, SplitMix64};
