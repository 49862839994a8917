//! Host crate for the network-dependent dev suites (see `Cargo.toml`).
//!
//! The library itself is empty: the value is in `tests/` (proptest
//! property suites for the compiler front-end, interpreter and finance
//! maths).
