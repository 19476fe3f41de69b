//! Decode properties shared by the artifact readers' tests (ROADMAP
//! item 9): one helper, handed a reader's `(encode, decode)` pair, checks
//! the properties every reader of untrusted bytes must hold.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Damaged payloads tried per valid value.
const DAMAGES: usize = 32;

/// Checks one `(encode, decode)` pair against one valid value, with every
/// random choice drawn from `seed`:
///
/// * the value round-trips bit-identically: it decodes, and re-encoding
///   the decoded value gives back the same bytes;
/// * every strict prefix of its encoding is a typed error;
/// * arbitrary bytes, and the encoding with a random span overwritten
///   (all zeros, all ones or random bytes), never panic `decode`.
///
/// `inspect` runs on every value `decode` accepts, valid or damaged, so a
/// caller can assert what it must hold of anything a reader lets through.
pub(crate) fn check_decoder<T, E>(
    seed: u64,
    valid: &T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    inspect: impl Fn(&T) -> Result<(), String>,
) -> Result<(), String>
where
    E: std::fmt::Debug,
{
    let bytes = encode(valid);
    let back = decode(&bytes).map_err(|e| format!("valid payload rejected: {e:?}"))?;
    if encode(&back) != bytes {
        return Err("re-encoding the decoded value changed its bytes".into());
    }
    inspect(&back)?;
    for cut in 0..bytes.len() {
        if decode(&bytes[..cut]).is_ok() {
            return Err(format!(
                "the {cut}-byte prefix of a {}-byte payload decoded",
                bytes.len()
            ));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut junk = vec![0u8; rng.gen_range(0..=bytes.len().saturating_mul(2))];
    rng.fill_bytes(&mut junk);
    if let Ok(v) = decode(&junk) {
        inspect(&v)?;
    }
    for _ in 0..DAMAGES {
        let mut damaged = bytes.clone();
        let start = rng.gen_range(0..damaged.len().max(1));
        let end = start
            .saturating_add(rng.gen_range(1..=16))
            .min(damaged.len());
        let span = damaged.get_mut(start..end).unwrap_or_default();
        match rng.gen_range(0..3) {
            0 => span.fill(0),
            1 => span.fill(0xFF),
            _ => rng.fill_bytes(span),
        }
        if let Ok(v) = decode(&damaged) {
            inspect(&v)?;
        }
    }
    Ok(())
}
