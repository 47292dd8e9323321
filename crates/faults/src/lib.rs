//! The workspace's one source of randomness: [`Prng`], a dependency-free
//! SplitMix64-seeded xoshiro256\*\* generator. The workload generators, the
//! random replacement policy and every randomized test draw from it, so a
//! run is a pure function of its seeds.
//!
//! The crate name is historical: it once held a fault injector as well.
//! Renaming it rewrites `dasbench/Cargo.lock`, so the rename waits for
//! dasbench v2.

pub mod prng;

pub use prng::Prng;
