//! Deterministic fault injection for the crash-safety test harness.
//!
//! A *failpoint* is a named site in the code (`io_guard::pre_rename`,
//! `train::epoch`, `parallel::worker`, ...) that normally does nothing.
//! A binary arms sites for one process by calling [`arm`] with a spec
//! string (conventionally taken from the `DEEPOD_FAILPOINTS` environment
//! variable, which only binaries read — see `deepod_core::RuntimeConfig`):
//!
//! ```text
//! "site:nth[:action][,site:nth[:action]...]"
//! ```
//!
//! * `site` — the name passed to [`hit`] / [`should_fire`].
//! * `nth`  — the 1-based hit count at which the site fires (every site
//!   keeps its own counter, incremented on each visit).
//! * `action` — `kill` (default): terminate the process immediately with
//!   [`KILL_EXIT_CODE`], simulating a hard crash (no destructors, no
//!   flushing — exactly what atomic writes must survive); `panic`:
//!   unwind from the site, which is how worker-thread panic recovery is
//!   exercised; or `sleep[=MS]`: block the site for `MS` milliseconds
//!   ([`DEFAULT_SLEEP_MS`] when omitted), which is how slow-batch /
//!   deadline machinery is exercised without wall-clock-sensitive tests
//!   guessing at scheduler jitter.
//!
//! A malformed entry (unknown action, non-numeric count) makes [`arm`]
//! return an error *without arming anything*; the CLI turns that into an
//! abort with [`CONFIG_EXIT_CODE`]. Fault injection that silently fails
//! to arm would let the crash-safety suite pass without ever injecting a
//! crash.
//!
//! The facility is compiled unconditionally but costs one `OnceLock` load
//! and a `None` check per visit when nothing is armed, so production
//! paths pay nothing measurable. Hits are counted under a mutex from call
//! sites that are themselves sequenced deterministically (IO sites,
//! epoch/step boundaries, the *caller* side of a parallel fan-out), so
//! for a fixed schedule the same run always dies in the same place — the
//! property the kill/resume integration suite depends on.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Exit status used by the `kill` action, chosen to be distinguishable
/// from a clean exit (0), a reported error (1), a malformed failpoint
/// spec ([`CONFIG_EXIT_CODE`], 78) and a Rust panic (101).
pub const KILL_EXIT_CODE: i32 = 70;

/// Exit status for a malformed `DEEPOD_FAILPOINTS` value (BSD `EX_CONFIG`).
/// A typo like `io:1:kil` must abort the process rather than silently
/// disarm the fault the test meant to inject — a crash-safety suite whose
/// faults never fire passes vacuously.
pub const CONFIG_EXIT_CODE: i32 = 78;

/// Delay used by the `sleep` action when no `=MS` value is given: long
/// enough to overrun any realistic per-request deadline in a test, short
/// enough to keep chaos suites fast.
pub const DEFAULT_SLEEP_MS: u64 = 100;

/// What an armed failpoint does when its hit count is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    /// Terminate the process immediately (simulated crash / SIGKILL).
    Kill,
    /// Panic at the site (worker-thread fault injection).
    Panic,
    /// Stall the site for the given number of milliseconds (slow-batch /
    /// deadline fault injection); execution then continues normally.
    Sleep(u64),
}

#[derive(Debug)]
struct Spec {
    nth: u64,
    action: Action,
    hits: u64,
}

static REGISTRY: OnceLock<Mutex<HashMap<String, Spec>>> = OnceLock::new();

fn registry() -> Option<&'static Mutex<HashMap<String, Spec>>> {
    REGISTRY.get()
}

/// Parses a full failpoint spec string and installs the armed sites for
/// the rest of the process. Every entry is parsed *before* anything arms:
/// a malformed entry returns `Err(why)` and leaves the process unarmed,
/// so a typo like `io:1:kil` can never half-configure a crash test. An
/// empty or all-whitespace spec is a no-op `Ok`.
///
/// Arming is once-per-process; a second call with a non-empty spec after
/// sites are installed returns an error rather than silently merging.
pub fn arm(spec: &str) -> Result<(), String> {
    let mut map = HashMap::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, parsed) = parse_spec(part)?;
        map.insert(site, parsed);
    }
    if map.is_empty() {
        return Ok(());
    }
    REGISTRY
        .set(Mutex::new(map))
        .map_err(|_| "failpoints already armed for this process".to_string())
}

/// Parses one `site:nth[:action]` entry. The site itself may contain `::`
/// (module-path style names), so the split points are the *last* one or
/// two `:` separators that parse as a count / action.
///
/// Anything that is neither a count nor a recognized action is a hard
/// error: the caller aborts with [`CONFIG_EXIT_CODE`] rather than running
/// with the fault silently disarmed.
fn parse_spec(part: &str) -> Result<(String, Spec), String> {
    // fields are in reverse order: [last, middle, rest...]
    let fields: Vec<&str> = part.rsplitn(3, ':').collect();
    if fields.len() < 2 {
        return Err(format!("'{part}': expected 'site:nth[:action]'"));
    }
    let last = fields[0];
    let (site, nth, action) = if let Ok(n) = last.parse::<u64>() {
        // Count form, default action: `site:nth`. When the site contains
        // `::`, rsplitn over-split it; re-join the front parts.
        let site = if let [_, mid, rest] = fields.as_slice() {
            format!("{rest}:{mid}")
        } else {
            fields[1].to_string()
        };
        (site, n, Action::Kill)
    } else {
        // Explicit-action form: `site:nth:action`.
        let action = if last.eq_ignore_ascii_case("kill") {
            Action::Kill
        } else if last.eq_ignore_ascii_case("panic") {
            Action::Panic
        } else if last.eq_ignore_ascii_case("sleep") {
            Action::Sleep(DEFAULT_SLEEP_MS)
        } else if let Some(ms_text) = last
            .strip_prefix("sleep=")
            .or_else(|| last.strip_prefix("SLEEP="))
        {
            let ms: u64 = ms_text
                .parse()
                .map_err(|_| format!("'{part}': sleep delay '{ms_text}' is not a number"))?;
            Action::Sleep(ms)
        } else {
            return Err(format!(
                "'{part}': unknown action '{last}' (kill|panic|sleep[=MS])"
            ));
        };
        let [_, nth_text, site] = fields.as_slice() else {
            return Err(format!("'{part}': missing hit count before '{last}'"));
        };
        let n: u64 = nth_text
            .parse()
            .map_err(|_| format!("'{part}': hit count '{nth_text}' is not a number"))?;
        ((*site).to_string(), n, action)
    };
    if site.is_empty() {
        return Err(format!("'{part}': empty site name"));
    }
    Ok((
        site,
        Spec {
            nth: nth.max(1),
            action,
            hits: 0,
        },
    ))
}

/// Whether any failpoint is armed in this process (fast pre-check for
/// callers that want to skip building site names).
pub fn armed() -> bool {
    registry().is_some()
}

/// Records a visit to `site`. If the site is armed and this visit is its
/// `nth`, the configured action triggers: the process exits with
/// [`KILL_EXIT_CODE`] (`kill`) or the call panics (`panic`). Unarmed or
/// off-count visits return normally.
pub fn hit(site: &str) {
    if should_fire(site) {
        fire(site);
    }
}

/// Like [`hit`], but instead of firing in place it reports that the site
/// just reached its trigger count, leaving the action to the caller. Used
/// by [`crate::parallel`] to count fan-outs on the (deterministic) caller
/// thread while making a *worker* thread carry the panic.
pub fn should_fire(site: &str) -> bool {
    let Some(reg) = registry() else {
        return false;
    };
    // A poisoned registry only means another thread panicked mid-update;
    // the counters remain structurally valid, so keep going.
    let mut map = reg.lock().unwrap_or_else(|p| p.into_inner());
    let Some(spec) = map.get_mut(site) else {
        return false;
    };
    spec.hits += 1;
    spec.hits == spec.nth
}

/// Executes the armed action for `site` (only meaningful right after
/// [`should_fire`] returned `true`).
pub fn fire(site: &str) {
    let action = registry()
        .and_then(|reg| {
            let map = reg.lock().unwrap_or_else(|p| p.into_inner());
            map.get(site).map(|s| s.action)
        })
        .unwrap_or(Action::Panic);
    match action {
        Action::Kill => {
            // Last words of a simulated hard crash: raw stderr on purpose —
            // the whole point is that nothing downstream gets to run.
            // deepod-lint: allow(no-bare-eprintln)
            eprintln!("failpoint '{site}': simulating crash (exit {KILL_EXIT_CODE})");
            std::process::exit(KILL_EXIT_CODE);
        }
        Action::Panic => {
            // Unwinding is the entire point of the `panic` action.
            // deepod-lint: allow(panic)
            panic!("failpoint '{site}': injected panic");
        }
        Action::Sleep(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and armed at most once, so unit tests
    // exercise the parser directly (plus one arming test that owns the
    // global slot); end-to-end firing is covered by the kill/resume
    // integration suite driving the CLI binary with DEEPOD_FAILPOINTS set
    // per subprocess.

    #[test]
    fn parses_plain_site() {
        let (site, spec) = parse_spec("io_guard::pre_rename:3").expect("parses");
        assert_eq!(site, "io_guard::pre_rename");
        assert_eq!(spec.nth, 3);
        assert_eq!(spec.action, Action::Kill);
    }

    #[test]
    fn parses_explicit_actions() {
        let (site, spec) = parse_spec("parallel::worker:2:panic").expect("parses");
        assert_eq!(site, "parallel::worker");
        assert_eq!(spec.nth, 2);
        assert_eq!(spec.action, Action::Panic);

        let (site, spec) = parse_spec("train::epoch:1:kill").expect("parses");
        assert_eq!(site, "train::epoch");
        assert_eq!(spec.action, Action::Kill);
        assert_eq!(spec.nth, 1);
    }

    #[test]
    fn parses_sleep_actions() {
        let (site, spec) = parse_spec("serve::slow_batch:1:sleep").expect("parses");
        assert_eq!(site, "serve::slow_batch");
        assert_eq!(spec.nth, 1);
        assert_eq!(spec.action, Action::Sleep(DEFAULT_SLEEP_MS));

        let (site, spec) = parse_spec("serve::slow_batch:2:sleep=250").expect("parses");
        assert_eq!(site, "serve::slow_batch");
        assert_eq!(spec.nth, 2);
        assert_eq!(spec.action, Action::Sleep(250));
    }

    #[test]
    fn rejects_malformed_sleep_delay() {
        let err = parse_spec("serve::slow_batch:1:sleep=fast").expect_err("must reject");
        assert!(err.contains("not a number"), "got: {err}");
        let err = parse_spec("serve::slow_batch:1:sleeep").expect_err("must reject");
        assert!(err.contains("unknown action"), "got: {err}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_spec("no-count").is_err());
        assert!(parse_spec("site:notanumber").is_err());
        assert!(parse_spec("").is_err());
        assert!(parse_spec(":3").is_err());
    }

    #[test]
    fn unknown_action_is_a_hard_error() {
        // The regression this guards: `kil` used to be dropped with a
        // warning, leaving the fault disarmed and the test vacuous.
        let err = parse_spec("io_guard::pre_write:1:kil").expect_err("must reject");
        assert!(err.contains("unknown action 'kil'"), "got: {err}");
        let err = parse_spec("train::epoch:x:panic").expect_err("must reject");
        assert!(err.contains("not a number"), "got: {err}");
    }

    #[test]
    fn zero_count_clamps_to_one() {
        let (_, spec) = parse_spec("site:0").expect("parses");
        assert_eq!(spec.nth, 1);
    }

    #[test]
    fn unarmed_sites_are_inert() {
        // Sites nobody armed are no-ops whether or not the process-global
        // registry holds other sites.
        assert!(!should_fire("definitely::not::armed"));
        hit("definitely::not::armed");
    }

    #[test]
    fn arm_rejects_malformed_specs_without_arming() {
        // Validation happens before installation: a bad entry anywhere in
        // the list leaves the process unarmed.
        let err = arm("ok::site:1,bad::site:1:explode").expect_err("must reject");
        assert!(err.contains("unknown action 'explode'"), "got: {err}");
        assert!(!should_fire("ok::site"));
        // Empty / whitespace specs are inert successes.
        arm("").expect("empty spec is fine");
        arm("  ,  ").expect("blank entries are skipped");
    }

    #[test]
    fn arm_installs_sites_and_counts_hits() {
        // This is the single test allowed to claim the process-global
        // registry slot (the suite runs in one process).
        arm("unit::probe:2:panic").expect("valid spec arms");
        assert!(armed());
        assert!(!should_fire("unit::probe"), "first hit must not fire");
        assert!(should_fire("unit::probe"), "second hit reaches nth=2");
        assert!(!should_fire("unit::probe"), "past nth stays quiet");
        // Re-arming after installation is refused, not merged.
        let err = arm("other::site:1").expect_err("second arm must fail");
        assert!(err.contains("already armed"), "got: {err}");
    }
}
