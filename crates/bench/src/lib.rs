//! # gpes-bench — experiment harness for the DATE 2016 reproduction
//!
//! Each module regenerates one artefact of the paper's evaluation (see
//! `DESIGN.md` §4 for the index):
//!
//! * [`e1`] — the §V speedup table (`sum`/`sgemm` × int/fp),
//! * [`e2`] — the §V precision result (15-mantissa-bit accuracy),
//! * [`figures`] — Figure 1 (pipeline trace) and Figure 2 (byte layout),
//! * [`ablations`] — A1–A16, the design-choice ablations and the gated
//!   serving sections,
//! * [`record`] — results as data: records, contracts, the JSON
//!   document, its reader and the diff of two documents.
//!
//! The `reproduce` binary prints them all, exits 1 when a gated section
//! breaks its contract, and diffs a run against a baseline:
//!
//! ```text
//! cargo run --release -p gpes-bench --bin reproduce -- all --json BENCH.json
//! cargo run --release -p gpes-bench --bin reproduce -- --diff BENCH.json
//! ```

#![warn(missing_docs)]

pub mod ablations;
pub mod e1;
pub mod e2;
pub mod figures;
pub mod record;
