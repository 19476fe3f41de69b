//! Fixture: a seeded `panic!` in library code. `todo!` is denied by
//! workspace clippy on every target, so the `panic` rule leaves it alone.

pub fn choose(mode: u8) -> u32 {
    match mode {
        0 => 1,
        1 => todo!("implement mode 1"),
        _ => panic!("unknown mode"),
    }
}
