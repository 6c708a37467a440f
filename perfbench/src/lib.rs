//! The distclass benchmark: four seeded workloads timed end to end with
//! all instrumentation off, and a separate traced run that times each
//! layer from outside through benchmark-owned wrappers. See `README.md`.

pub mod layers;
pub mod measure;
pub mod report;
pub mod workloads;
