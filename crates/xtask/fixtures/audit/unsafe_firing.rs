//! Audit fixture: an unsafe block with no SAFETY justification.

pub fn no_comment(p: *mut f32) {
    unsafe {
        *p = 1.0;
    }
}

/// Lanewise kernel stand-in; its `# Safety` section covers the fn.
///
/// # Safety
/// Caller must have verified AVX2 support at runtime.
#[target_feature(enable = "avx2")]
unsafe fn kern(x: &mut [f32]) {
    x.reverse();
}

pub fn commented(x: &mut [f32]) {
    // SAFETY: the caller holds the CPU-feature proof.
    unsafe { kern(x) }
}
