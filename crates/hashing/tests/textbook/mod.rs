//! The pre-rewrite MD5 and SHA-1, kept test-only as reference
//! implementations, and the extended Rabin hash written as its definition.

pub mod md5;
pub mod rabin96;
pub mod sha1;
