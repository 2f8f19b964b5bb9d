//! LabBench: one end-to-end and per-layer benchmark of the LabStor-RS
//! runtime.
//!
//! It drives the real Runtime through the public connectors
//! (`GenericFs`, `GenericKvs`) with closed-loop load threads at queue
//! depth 1, checks every output against a model built from the seed, and
//! reports each metric by name with its unit and whether it is host
//! time, virtual (modeled) time or a count. See `README.md` next to this
//! crate for how to run it.

pub mod bench;
pub mod model;
pub mod sys;
pub mod trace;
pub mod workload;
