//! End-to-end benchmark of the Bullet file server stack.
//!
//! One closed-loop client drives the real stack through a seeded,
//! fixed step sequence (the simulated-time metrics) and then through
//! probe-interleaved host-time slices (the drift-corrected host
//! metrics).  A traced run splits the same workload by layer.  See
//! `README.md` in this directory for the metric → layer → workload map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod content;
pub mod probe;
pub mod report;
pub mod run;
pub mod stack;
pub mod traced;
pub mod workload;
pub mod wrap;
