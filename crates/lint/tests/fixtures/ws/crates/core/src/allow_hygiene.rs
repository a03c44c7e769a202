//! Allow-machinery fixtures: unused and malformed directives are
//! themselves diagnostics, so suppressions cannot rot silently.

// aalint: allow(nondeterministic-time) -- fixture: nothing on the next line to suppress
pub fn nothing_to_suppress() {}

// aalint: allow(made-up-rule) -- fixture: not a suppressible rule
pub fn bad_rule() {}

pub fn no_justification() -> std::time::Instant {
    std::time::Instant::now() // aalint: allow(nondeterministic-time)
}
