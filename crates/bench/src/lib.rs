//! Shared helpers for the SeGShare benchmark harness (see the `bin`
//! targets and `benches/`).
pub mod harness;
pub mod json;
pub mod refkernel;
