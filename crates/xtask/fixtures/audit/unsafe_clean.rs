//! Audit fixture: the sanctioned unsafe shape — a `# Safety` doc section
//! on every `unsafe fn` and a SAFETY comment on every `unsafe` block.

/// Lanewise kernel stand-in.
///
/// # Safety
/// Caller must have verified AVX2 support at runtime.
#[target_feature(enable = "avx2")]
unsafe fn kern(x: &mut [f32]) {
    x.reverse();
}

pub fn dispatch(avx2: bool, x: &mut [f32]) {
    if avx2 {
        // SAFETY: `avx2` is the runtime probe's answer on this machine.
        unsafe { kern(x) }
    } else {
        x.reverse();
    }
}
