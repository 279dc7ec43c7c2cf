//! `launch-bench`: the end-to-end and per-layer benchmark of the LaunchMON
//! reproduction. It drives the real stack from outside, through `pub`
//! items of the `launchmon` facade only. README.md is the manual.

#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod direct;
pub mod gen;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod plan;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod storm;
