//! Shared helpers for the integration tests in tests/tests/*.rs.

pub mod strategies;
pub mod taxonomy_fixture;
