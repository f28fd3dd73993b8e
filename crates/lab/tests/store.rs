//! The content-addressed result store, end to end: golden fingerprint
//! pins (so silent drift fails loudly), the byte-identity contract
//! between uncached, cold-cache and warm-cache campaign runs, the
//! corruption ladder (truncation, bit flips, stale headers, dying-writer
//! garbage — all misses, never errors, never a changed report), resume
//! semantics after a simulated kill, and the hunt's cross-preset cache
//! reuse.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use nochatter_core::CommMode;
use nochatter_graph::generators::Family;
use nochatter_lab::presets::{self, hunt_smoke_spec, hunt_spec};
use nochatter_lab::{
    engine_fingerprint, raw_fingerprint, run_campaign, run_campaign_cached, run_search,
    run_search_cached, scenario_fingerprint, Campaign, CampaignReport, Matrix, Store,
    STORE_FORMAT_VERSION,
};

/// A fresh, empty cache directory under the OS temp dir (no tempdir
/// crate offline). Each test uses its own name so they can run in
/// parallel.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nochatter-store-it-{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn log_path(dir: &Path) -> PathBuf {
    dir.join(format!("store-v{STORE_FORMAT_VERSION}.log"))
}

/// Runs `campaign` against a store opened on `dir`, returning the report
/// and the store's lifetime stats for that run.
fn run_cached(campaign: &Campaign, workers: usize, dir: &Path) -> (CampaignReport, Store) {
    let store = Store::open(dir).expect("cache dir is writable");
    let report = run_campaign_cached(campaign, workers, Some(&store));
    (report, store)
}

fn small_campaign() -> Campaign {
    Matrix {
        families: vec![Family::Ring, Family::Path],
        sizes: vec![4, 5],
        teams: vec![vec![2, 3]],
        modes: vec![CommMode::Silent, CommMode::Talking],
        ..Matrix::new()
    }
    .campaign("store-it", 9)
    .expect("matrix is well-formed")
}

// ---------------------------------------------------------------------------
// Golden fingerprint pins
// ---------------------------------------------------------------------------

/// The raw fingerprint combinator is pinned byte for byte: any change to
/// the FNV constants, the field order or the separators silently
/// invalidates (or worse, silently *shares*) every cache on disk, so
/// drift must fail a test, not a user.
#[test]
fn raw_fingerprint_is_pinned() {
    assert_eq!(
        raw_fingerprint("ring/n4/t2.3/wsimul/silent/gather/r0", 7, 1, 0xDEAD, 0xBEEF),
        0xa896_c418_0925_dcf5
    );
}

/// The behavioral engine fingerprint is pinned. This is the loud-drift
/// tripwire the issue asks for: if the engine's observable semantics
/// change (rounds, moves, traces of the probe scenarios), this value
/// changes, this test fails, and the committer bumps the pin knowingly —
/// at which point every existing cache correctly misses.
#[test]
fn engine_fingerprint_is_pinned() {
    assert_eq!(STORE_FORMAT_VERSION, 2);
    // The probes' `polled_agent_rounds` are part of the digest, so a
    // change in how many polls the round loop issues moves this pin too:
    // polling only the agents that are due took the dynamic-ring probe
    // from 2,644 polls to 2,556, and walks the engine plays without a poll
    // took the four probes from 1,286 / 475 / 2,556 / 3,219 polls to
    // 404 / 185 / 756 / 805, every other figure of every probe equal.
    // A fifth probe runs the unknown-bound stack, the only one whose moves
    // are held slow moves and traversals, so a cache written before those
    // moves were stepped in their own round (55 executed rounds on that
    // probe, 42 since) misses instead of replaying the old counts.
    assert_eq!(engine_fingerprint(), 0x5429_d30b_cc7c_e2b7);
}

/// A full scenario fingerprint (key + seed + content + versions) is
/// pinned on a fixed smoke-campaign cell.
#[test]
fn scenario_fingerprint_is_pinned() {
    let campaign = presets::smoke_campaign();
    let s = &campaign.scenarios()[0];
    assert_eq!(s.key.canonical(), "path/n4/t2.3/wfirst/silent/gather/r0");
    // Moves with the engine fingerprint it folds in (last: the fifth,
    // unknown-bound probe).
    assert_eq!(scenario_fingerprint(s), 0xbde9_33a9_df70_0b1e);
}

// ---------------------------------------------------------------------------
// Cold / warm byte identity and resume
// ---------------------------------------------------------------------------

/// The core contract: uncached, cold-cache and warm-cache runs produce
/// byte-identical JSON and CSV; the cold run misses everything, the warm
/// run hits everything and executes nothing.
#[test]
fn cold_then_warm_runs_are_byte_identical_and_fully_cached() {
    let campaign = small_campaign();
    let dir = fresh_dir("cold-warm");
    let baseline = run_campaign(&campaign, 2);
    assert!(baseline.cache.is_none());

    let (cold, cold_store) = run_cached(&campaign, 2, &dir);
    let cold_cache = cold.cache.expect("cached runs carry cache stats");
    assert_eq!(cold_cache.hits, 0);
    assert_eq!(cold_cache.misses, campaign.len() as u64);
    assert_eq!(cold.to_json(), baseline.to_json());
    assert_eq!(cold.to_csv(), baseline.to_csv());
    assert_eq!(cold_store.stats().write_errors, 0);

    let (warm, warm_store) = run_cached(&campaign, 3, &dir);
    let warm_cache = warm.cache.expect("cached runs carry cache stats");
    assert_eq!(warm_cache.misses, 0);
    assert_eq!(warm_cache.hits, campaign.len() as u64);
    assert_eq!(warm.to_json(), baseline.to_json());
    assert_eq!(warm.to_csv(), baseline.to_csv());
    assert_eq!(warm_store.stats().corrupt_entries, 0);

    let _ = fs::remove_dir_all(&dir);
}

/// Killing a campaign mid-run leaves a prefix of entries behind; the
/// next run resumes from them. Simulated by truncating the log at an
/// arbitrary byte offset — harsher than a real kill, which only ever
/// loses a partial tail entry.
#[test]
fn a_killed_run_resumes_from_the_surviving_prefix() {
    let campaign = small_campaign();
    let dir = fresh_dir("resume");
    let baseline = run_campaign(&campaign, 1);
    let (_, _) = run_cached(&campaign, 2, &dir);

    // "Kill" the writer mid-entry: keep roughly the first half of the log.
    let log = log_path(&dir);
    let bytes = fs::read(&log).expect("log exists after a cached run");
    fs::write(&log, &bytes[..bytes.len() / 2]).expect("truncate");

    let (resumed, _) = run_cached(&campaign, 2, &dir);
    let cache = resumed.cache.expect("cached runs carry cache stats");
    assert!(cache.hits >= 1, "a prefix of entries must survive");
    assert!(cache.misses >= 1, "the lost tail must re-execute");
    assert_eq!(resumed.to_json(), baseline.to_json());

    // The resumed run wrote the missing records back: fully warm now.
    let (healed, _) = run_cached(&campaign, 1, &dir);
    assert_eq!(healed.cache.expect("cache stats").misses, 0);
    assert_eq!(healed.to_json(), baseline.to_json());

    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Corruption ladder: every failure mode degrades to misses
// ---------------------------------------------------------------------------

/// A truncated log (partial tail entry) degrades the tail to misses and
/// leaves the campaign result unchanged.
#[test]
fn a_truncated_log_degrades_to_misses() {
    let campaign = small_campaign();
    let dir = fresh_dir("truncated");
    let baseline = run_campaign(&campaign, 1);
    run_cached(&campaign, 2, &dir);

    let log = log_path(&dir);
    let bytes = fs::read(&log).expect("log exists");
    fs::write(&log, &bytes[..bytes.len() - 5]).expect("truncate");

    let (report, store) = run_cached(&campaign, 2, &dir);
    let cache = report.cache.expect("cache stats");
    assert!(cache.misses >= 1, "the truncated entry is a miss");
    assert!(store.stats().corrupt_entries >= 1);
    assert_eq!(report.to_json(), baseline.to_json());
    assert_eq!(report.to_csv(), baseline.to_csv());

    let _ = fs::remove_dir_all(&dir);
}

/// A bit flip inside an entry's payload fails the checksum: that entry
/// becomes a miss, later entries are recovered by magic resync, and the
/// campaign result is unchanged.
#[test]
fn a_bit_flipped_entry_is_a_miss_not_an_error() {
    let campaign = small_campaign();
    let dir = fresh_dir("bitflip");
    let baseline = run_campaign(&campaign, 1);
    run_cached(&campaign, 2, &dir);

    let log = log_path(&dir);
    let mut bytes = fs::read(&log).expect("log exists");
    // 12-byte file header + 24-byte entry header + 6: inside the first
    // entry's payload.
    bytes[42] ^= 0x40;
    fs::write(&log, &bytes).expect("rewrite");

    let (report, store) = run_cached(&campaign, 2, &dir);
    let cache = report.cache.expect("cache stats");
    assert!(cache.misses >= 1, "the flipped entry is a miss");
    assert!(
        cache.hits >= 1,
        "entries after the corrupt one are recovered by resync"
    );
    assert!(store.stats().corrupt_entries >= 1);
    assert_eq!(report.to_json(), baseline.to_json());

    let _ = fs::remove_dir_all(&dir);
}

/// A log whose header carries a stale (or mangled) format version is
/// never read: the store restarts it afresh and every lookup misses —
/// exactly as if `STORE_FORMAT_VERSION` had been bumped under an old
/// cache directory.
#[test]
fn a_stale_format_version_restarts_the_log() {
    let campaign = small_campaign();
    let dir = fresh_dir("stale-version");
    let baseline = run_campaign(&campaign, 1);
    run_cached(&campaign, 2, &dir);

    let log = log_path(&dir);
    let mut bytes = fs::read(&log).expect("log exists");
    // Mangle the version field of the 12-byte header.
    bytes[8] ^= 0xFF;
    fs::write(&log, &bytes).expect("rewrite");

    let (report, _) = run_cached(&campaign, 2, &dir);
    let cache = report.cache.expect("cache stats");
    assert_eq!(cache.hits, 0, "a stale-format log is all misses");
    assert_eq!(cache.misses, campaign.len() as u64);
    assert_eq!(report.to_json(), baseline.to_json());

    // The restarted log was re-populated by write-through.
    let (warm, _) = run_cached(&campaign, 1, &dir);
    assert_eq!(warm.cache.expect("cache stats").misses, 0);

    let _ = fs::remove_dir_all(&dir);
}

/// Leftovers of a dying concurrent writer — a partial garbage tail
/// followed by a duplicated whole entry — are skipped (garbage) or
/// harmlessly re-indexed (duplicate): all real entries still hit and the
/// report is unchanged.
#[test]
fn concurrent_writer_leftovers_degrade_gracefully() {
    let campaign = small_campaign();
    let dir = fresh_dir("leftovers");
    let baseline = run_campaign(&campaign, 1);
    run_cached(&campaign, 2, &dir);

    let log = log_path(&dir);
    let mut bytes = fs::read(&log).expect("log exists");
    // Duplicate the first whole entry (entry header at offset 12, its
    // payload length at offset 12 + 12), preceded by torn-write garbage.
    let payload_len = u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes")) as usize;
    let first_entry = bytes[12..12 + 24 + payload_len].to_vec();
    bytes.extend_from_slice(b"torn write from a dying process");
    bytes.extend_from_slice(&first_entry);
    fs::write(&log, &bytes).expect("rewrite");

    let (report, store) = run_cached(&campaign, 2, &dir);
    let cache = report.cache.expect("cache stats");
    assert_eq!(cache.misses, 0, "garbage and duplicates cost no hits");
    assert_eq!(cache.hits, campaign.len() as u64);
    assert!(store.stats().corrupt_entries >= 1, "the garbage is counted");
    assert_eq!(report.to_json(), baseline.to_json());

    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Property: byte identity over random matrices, seeds and worker counts
// ---------------------------------------------------------------------------

fn matrix_strategy() -> impl Strategy<Value = (Matrix, u64)> {
    (
        proptest::collection::vec(0usize..4, 1..3),
        proptest::collection::vec(4u32..6, 1..3),
        any::<bool>(),
        1u64..3,
        any::<u64>(),
    )
        .prop_map(|(families, sizes, talking, reps, seed)| {
            let all = [Family::Ring, Family::Path, Family::Star, Family::Grid];
            let mut fams: Vec<Family> = families.iter().map(|&i| all[i]).collect();
            fams.sort_by_key(|f| f.name());
            fams.dedup();
            let mut sizes = sizes;
            sizes.sort_unstable();
            sizes.dedup();
            let modes = if talking {
                vec![CommMode::Silent, CommMode::Talking]
            } else {
                vec![CommMode::Silent]
            };
            (
                Matrix {
                    families: fams,
                    sizes,
                    teams: vec![vec![2, 3]],
                    modes,
                    reps,
                    ..Matrix::new()
                },
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// For any drawn matrix, seed and worker count: the uncached run, the
    /// cold-cache run and the warm-cache run agree byte for byte, and the
    /// warm run is all hits.
    #[test]
    fn cache_state_never_changes_report_bytes(
        (matrix, seed) in matrix_strategy(),
        cold_workers in 1usize..5,
        warm_workers in 1usize..5,
    ) {
        let campaign = matrix.campaign("prop-store", seed)
            .expect("drawn matrices are well-formed");
        let dir = fresh_dir(&format!("prop-{seed:x}-{}", campaign.len()));

        let plain = run_campaign(&campaign, 2);
        let (cold, _) = run_cached(&campaign, cold_workers, &dir);
        let (warm, _) = run_cached(&campaign, warm_workers, &dir);

        prop_assert_eq!(cold.cache.expect("stats").misses, campaign.len() as u64);
        prop_assert_eq!(warm.cache.expect("stats").misses, 0);
        prop_assert_eq!(warm.cache.expect("stats").hits, campaign.len() as u64);
        prop_assert_eq!(&plain.records, &cold.records);
        prop_assert_eq!(&plain.records, &warm.records);
        prop_assert_eq!(plain.to_json(), cold.to_json());
        prop_assert_eq!(plain.to_json(), warm.to_json());
        prop_assert_eq!(plain.to_csv(), cold.to_csv());
        prop_assert_eq!(plain.to_csv(), warm.to_csv());

        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Hunt caching
// ---------------------------------------------------------------------------

/// The hunt is cache-transparent: an uncached search, a cold-cache search
/// and a warm-cache search produce byte-identical reports, and the warm
/// search re-evaluates nothing (every candidate on the deterministic
/// greedy walk hits).
#[test]
fn hunt_reports_are_identical_across_cache_states() {
    let spec = hunt_smoke_spec();
    let dir = fresh_dir("hunt-warm");
    let plain = run_search(&spec, 2);
    assert!(plain.cache.is_none());

    let store = Store::open(&dir).expect("cache dir is writable");
    let cold = run_search_cached(&spec, 2, Some(&store));
    let warm = run_search_cached(&spec, 3, Some(&store));

    assert_eq!(plain.to_json(), cold.to_json());
    assert_eq!(plain.to_json(), warm.to_json());
    let warm_cache = warm.cache.expect("cached searches carry cache stats");
    assert_eq!(warm_cache.misses, 0, "a warm hunt executes nothing");
    assert!(warm_cache.hits >= spec.budget);

    let _ = fs::remove_dir_all(&dir);
}

/// Hunt presets share the cache across presets: the quick hunt's ring-4
/// and ring-5 team-[2,3] instances are the smoke hunt's instances under
/// the same seed, so after a smoke hunt the quick hunt starts with hits
/// (at least each shared instance's baseline cell and walk prefix).
#[test]
fn hunt_presets_share_cache_entries() {
    let dir = fresh_dir("hunt-cross");
    let store = Store::open(&dir).expect("cache dir is writable");
    run_search_cached(&hunt_smoke_spec(), 2, Some(&store));

    let quick = run_search_cached(&hunt_spec(true), 2, Some(&store));
    let cache = quick.cache.expect("cached searches carry cache stats");
    assert!(
        cache.hits >= 2,
        "the shared instances' baseline cells must hit cross-preset, got {} hits",
        cache.hits
    );

    // And the quick report itself is unperturbed by the foreign entries.
    let plain = run_search(&hunt_spec(true), 2);
    assert_eq!(plain.to_json(), quick.to_json());

    let _ = fs::remove_dir_all(&dir);
}
