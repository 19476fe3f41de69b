//! Fixture: allow directives. The live one suppresses a finding; each
//! dead one suppresses nothing and fires `unused-allow`.

pub fn live(x: f32) -> bool {
    x == 0.5 // deepod-lint: allow(float-eq)
}

pub fn dead(x: f32) -> bool {
    // Fires: nothing on this line or the next compares to a float literal.
    // deepod-lint: allow(float-eq)
    x < 0.5
}

pub fn unreachable_from_any_root(v: &[f32]) -> f32 {
    // Fires: no hot-path root reaches this fn, so no-panic never looks.
    // deepod-audit: allow(no-panic)
    v[0]
}

/// A doc comment only describes `// deepod-lint: allow(float-eq)`.
#[cfg(test)]
mod tests {
    #[test]
    fn exact() {
        // Fires: test code is exempt from float-eq already.
        assert!(super::live(0.5) && 0.5f32 == 0.5); // deepod-lint: allow(float-eq)
    }
}
