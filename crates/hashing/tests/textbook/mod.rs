//! The pre-rewrite MD5 and SHA-1, kept test-only as reference
//! implementations.

pub mod md5;
pub mod sha1;
