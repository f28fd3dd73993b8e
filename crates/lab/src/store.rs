//! The persistent, content-addressed scenario-result store.
//!
//! Every executed scenario's [`RunRecord`] can be cached under a 64-bit
//! *fingerprint* of everything that determines it: the canonical
//! [`ScenarioKey`](crate::ScenarioKey), the derived instance seed, the
//! full scenario content (graph adjacency, agent placement, the exact
//! schedule/topology/fault specs and algorithm variant — short names in
//! the key are human-readable, not injective), the on-disk
//! [`STORE_FORMAT_VERSION`], and a behavioral [`engine_fingerprint`]
//! probed from the engine itself. A campaign re-run against a warm cache
//! loads records instead of simulating; an interrupted campaign resumes
//! where it stopped, because the runner writes through per completed job.
//!
//! # On-disk layout
//!
//! One append-only log per cache directory, named
//! `store-v{STORE_FORMAT_VERSION}.log` — bumping the format version
//! changes the filename, so stale-format caches are simply never read
//! (every lookup misses) while new entries append to the new file. The
//! file starts with an 12-byte header (`b"NCSTORE\0"` + the format
//! version, little-endian); each entry is
//!
//! ```text
//! [entry magic: u32] [fingerprint: u64] [payload len: u32]
//! [FNV-1a checksum of payload: u64] [payload bytes]
//! ```
//!
//! with the payload a length-prefixed little-endian encoding of the
//! record. The reader is *corruption-tolerant by construction*: a bad
//! magic, an impossible length, a checksum mismatch or an undecodable
//! payload skips forward to the next magic and keeps scanning, a
//! truncated tail is dropped, and a mismatched header starts the log
//! afresh. Corruption can only ever turn hits into misses — never an
//! error, and never a wrong record (the checksum guards the payload, and
//! lookups re-verify the stored key and seed against the query).
//!
//! Concurrent writers interleave whole entries under the store's lock;
//! duplicate fingerprints are benign (last entry wins on reload, and all
//! copies decode to the identical record).

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use nochatter_graph::{InitialConfiguration, NodeId, Port};

use crate::campaign::{Scenario, ScenarioKind};
use crate::record::{fnv_bytes, RunRecord, ScenarioKey};
use crate::runner;

/// The on-disk format version. Part of both the log filename and every
/// fingerprint: bumping it makes every pre-existing cache entry a miss
/// without touching (or misreading) old files.
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Log file header: magic bytes followed by the format version.
const FILE_MAGIC: &[u8; 8] = b"NCSTORE\0";

/// Header length: [`FILE_MAGIC`] + the little-endian format version.
const HEADER_LEN: usize = FILE_MAGIC.len() + 4;

/// Per-entry magic (little-endian `b"NCRE"`), the resync anchor of the
/// corruption-tolerant reader.
const ENTRY_MAGIC: u32 = u32::from_le_bytes(*b"NCRE");

/// Fixed bytes per entry before the payload: magic, fingerprint, length,
/// checksum.
const ENTRY_HEADER_LEN: usize = 4 + 8 + 4 + 8;

/// Upper bound on a credible payload length; anything larger is treated
/// as corruption instead of being allocated.
const MAX_PAYLOAD: usize = 1 << 24;

// ---------------------------------------------------------------------------
// Binary record encoding
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(buf, 0),
        Some(x) => {
            put_u8(buf, 1);
            put_u64(buf, x);
        }
    }
}

fn put_opt_u32(buf: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => put_u8(buf, 0),
        Some(x) => {
            put_u8(buf, 1);
            put_u32(buf, x);
        }
    }
}

/// Encodes a record as the store's payload bytes: fixed field order,
/// little-endian integers, length-prefixed strings, one-byte option tags.
pub(crate) fn encode_record(r: &RunRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    put_str(&mut buf, &r.key.family);
    put_u32(&mut buf, r.key.n);
    put_u32(&mut buf, r.key.team.len() as u32);
    for &label in &r.key.team {
        put_u64(&mut buf, label);
    }
    put_str(&mut buf, &r.key.wake);
    put_str(&mut buf, &r.key.topo);
    put_str(&mut buf, &r.key.fault);
    put_str(&mut buf, &r.key.mode);
    put_str(&mut buf, &r.key.variant);
    put_u64(&mut buf, r.key.rep);
    put_u64(&mut buf, r.seed);
    put_u32(&mut buf, r.n_actual);
    put_u8(&mut buf, u8::from(r.ok));
    put_str(&mut buf, &r.status);
    put_u64(&mut buf, r.rounds);
    put_u64(&mut buf, r.moves);
    put_u64(&mut buf, r.blocked_moves);
    put_u32(&mut buf, r.crashed_agents);
    put_u64(&mut buf, r.engine_iterations);
    put_u64(&mut buf, r.skipped_rounds);
    put_u64(&mut buf, r.polled_agent_rounds);
    put_u32(&mut buf, r.max_colocation);
    put_opt_u64(&mut buf, r.leader);
    put_opt_u32(&mut buf, r.node);
    put_opt_u32(&mut buf, r.size);
    put_opt_u64(&mut buf, r.trace_digest);
    buf
}

/// A bounds-checked reader over payload bytes; every getter returns
/// `None` past the end instead of panicking, so corrupt payloads decode
/// to a miss.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        if len > MAX_PAYLOAD {
            return None;
        }
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }

    fn opt_u32(&mut self) -> Option<Option<u32>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u32()?)),
            _ => None,
        }
    }
}

/// Decodes payload bytes back into a record; `None` on any truncation,
/// malformed option tag, or trailing garbage (the payload must be
/// consumed exactly).
pub(crate) fn decode_record(bytes: &[u8]) -> Option<RunRecord> {
    let mut r = Reader { bytes, pos: 0 };
    let family = r.str()?;
    let n = r.u32()?;
    let team_len = r.u32()? as usize;
    if team_len > MAX_PAYLOAD {
        return None;
    }
    let mut team = Vec::with_capacity(team_len.min(1024));
    for _ in 0..team_len {
        team.push(r.u64()?);
    }
    let key = ScenarioKey {
        family,
        n,
        team,
        wake: r.str()?,
        topo: r.str()?,
        fault: r.str()?,
        mode: r.str()?,
        variant: r.str()?,
        rep: r.u64()?,
    };
    let record = RunRecord {
        key,
        seed: r.u64()?,
        n_actual: r.u32()?,
        ok: match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        },
        status: r.str()?,
        rounds: r.u64()?,
        moves: r.u64()?,
        blocked_moves: r.u64()?,
        crashed_agents: r.u32()?,
        engine_iterations: r.u64()?,
        skipped_rounds: r.u64()?,
        polled_agent_rounds: r.u64()?,
        max_colocation: r.u32()?,
        leader: r.opt_u64()?,
        node: r.opt_u32()?,
        size: r.opt_u32()?,
        trace_digest: r.opt_u64()?,
    };
    (r.pos == bytes.len()).then_some(record)
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// Digests a configuration's full content — adjacency with port numbers,
/// then agent placements — so two scenarios sharing a key but built over
/// different graphs can never share a cache entry.
fn cfg_digest(cfg: &InitialConfiguration) -> u64 {
    let g = cfg.graph();
    let mut bytes = Vec::with_capacity(16 * g.node_count());
    put_u32(&mut bytes, g.node_count() as u32);
    for u in 0..g.node_count() {
        let node = NodeId::new(u as u32);
        let degree = g.degree(node);
        put_u32(&mut bytes, degree);
        for p in 0..degree {
            let (to, back) = g.neighbor(node, Port::new(p)).expect("port in range");
            put_u32(&mut bytes, to.index() as u32);
            put_u32(&mut bytes, back.number());
        }
    }
    for &(label, node) in cfg.agents() {
        put_u64(&mut bytes, label.value());
        put_u32(&mut bytes, node.index() as u32);
    }
    fnv_bytes(&bytes)
}

/// Digests everything about a scenario that the canonical key's short
/// names might not capture injectively: the configuration, the exact
/// schedule/topology/fault specs and sensing mode (via their stable
/// `Debug` forms), and the algorithm variant's full content (gossip
/// payload scheme; unknown-bound decoy configurations and estimator
/// mode).
fn content_digest(scenario: &Scenario) -> u64 {
    let mut bytes = Vec::new();
    put_u64(&mut bytes, cfg_digest(&scenario.cfg));
    bytes.extend_from_slice(
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            scenario.mode, scenario.schedule, scenario.topo, scenario.fault
        )
        .as_bytes(),
    );
    match &scenario.kind {
        ScenarioKind::Gather => put_u8(&mut bytes, 1),
        ScenarioKind::Gossip(scheme) => {
            put_u8(&mut bytes, 2);
            bytes.extend_from_slice(format!("{scheme:?}").as_bytes());
        }
        ScenarioKind::Unknown { decoys, est_mode } => {
            put_u8(&mut bytes, 3);
            put_u32(&mut bytes, decoys.len() as u32);
            for decoy in decoys {
                put_u64(&mut bytes, cfg_digest(decoy));
            }
            bytes.extend_from_slice(format!("{est_mode:?}").as_bytes());
        }
    }
    fnv_bytes(&bytes)
}

/// The canonical probe scenarios behind [`engine_fingerprint`]: a small,
/// fixed slice of the engine's semantic surface — silent and talking
/// static gathering, the dynamic-ring adversary and a crash fault, each
/// with a trace digest, and the unknown-bound stack, whose moves are held
/// slow moves and traversals (its runs carry no trace) — so a change to
/// wake-up, movement, declaration, fault, dynamism or held-instruction
/// semantics changes at least one probe record.
fn probe_scenarios() -> Vec<Scenario> {
    use nochatter_core::unknown::EstMode;
    use nochatter_core::CommMode;
    use nochatter_graph::dynamic::DynamicRing;
    use nochatter_graph::{generators, Label};
    use nochatter_sim::{CrashPoint, FaultSpec, TopologySpec, WakeSchedule};

    let cfg = crate::campaign::spread(generators::ring(6), &[2, 3]).expect("probe cfg");
    let build = |mode: CommMode,
                 mode_name: &str,
                 topo: TopologySpec,
                 fault: FaultSpec,
                 schedule: WakeSchedule| {
        let key = ScenarioKey {
            family: "store-probe".into(),
            n: 6,
            team: vec![2, 3],
            wake: crate::campaign::wake_name(&schedule),
            topo: topo.short_name(),
            fault: fault.short_name(),
            mode: mode_name.into(),
            variant: "gather".into(),
            rep: 0,
        };
        Scenario {
            key,
            cfg: cfg.clone(),
            mode,
            schedule,
            topo,
            fault,
            kind: ScenarioKind::Gather,
            seed: 0x5702E,
        }
    };
    // The true configuration alone, on an edge: the cheapest probe.
    let mut unknown = build(
        CommMode::Silent,
        "silent",
        TopologySpec::Static,
        FaultSpec::None,
        WakeSchedule::Simultaneous,
    );
    unknown.cfg = crate::campaign::spread(generators::path(2), &[2, 3]).expect("probe cfg");
    unknown.kind = ScenarioKind::Unknown {
        decoys: Vec::new(),
        est_mode: EstMode::Conservative,
    };
    unknown.key.n = 2;
    unknown.key.variant = unknown.kind.variant_name();
    vec![
        build(
            CommMode::Silent,
            "silent",
            TopologySpec::Static,
            FaultSpec::None,
            WakeSchedule::Simultaneous,
        ),
        build(
            CommMode::Talking,
            "talking",
            TopologySpec::Static,
            FaultSpec::None,
            WakeSchedule::FirstOnly,
        ),
        build(
            CommMode::Silent,
            "silent",
            TopologySpec::Ring(DynamicRing { seed: 7 }),
            FaultSpec::None,
            WakeSchedule::Simultaneous,
        ),
        build(
            CommMode::Silent,
            "silent",
            TopologySpec::Static,
            FaultSpec::CrashAt(vec![CrashPoint {
                label: Label::new(3).expect("probe label"),
                round: 8,
            }]),
            WakeSchedule::Simultaneous,
        ),
        unknown,
    ]
}

/// The behavioral engine-semantics fingerprint: the digest of the encoded
/// records of a few canonical probe runs, computed once per process. Any
/// engine change that alters what the probes measure — rounds, moves,
/// trace digests, validation — changes this value, and with it every
/// scenario fingerprint, so a stale cache degrades to all-misses instead
/// of serving records the current engine would not produce.
///
/// The encoded probes include `polled_agent_rounds`, so a change to how
/// many behavior polls the round loop issues also changes the value —
/// polling only the agents that are due moved it although no probe's
/// rounds, moves or trace changed. A cache written by an engine with
/// different poll counts is all-misses instead of replaying that
/// engine's counts.
pub fn engine_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let mut bytes = Vec::new();
        for probe in probe_scenarios() {
            bytes.extend_from_slice(&encode_record(&runner::execute_scenario(&probe)));
        }
        fnv_bytes(&bytes)
    })
}

/// The pure fingerprint combiner: FNV-1a over the canonical key, the
/// derived seed, the format version, the engine fingerprint and the
/// scenario content digest. Pinned by a golden test — any drift here
/// silently invalidates (or worse, wrongly shares) caches, so it must
/// fail loudly.
pub fn raw_fingerprint(
    canonical_key: &str,
    seed: u64,
    format_version: u32,
    engine: u64,
    content: u64,
) -> u64 {
    let mut bytes = Vec::with_capacity(canonical_key.len() + 29);
    bytes.extend_from_slice(canonical_key.as_bytes());
    put_u8(&mut bytes, 0);
    put_u64(&mut bytes, seed);
    put_u32(&mut bytes, format_version);
    put_u64(&mut bytes, engine);
    put_u64(&mut bytes, content);
    fnv_bytes(&bytes)
}

/// The store fingerprint of a scenario:
/// [`raw_fingerprint`]`(key.canonical(), seed, STORE_FORMAT_VERSION,
/// engine_fingerprint(), content digest)`.
pub fn scenario_fingerprint(scenario: &Scenario) -> u64 {
    raw_fingerprint(
        &scenario.key.canonical(),
        scenario.seed,
        STORE_FORMAT_VERSION,
        engine_fingerprint(),
        content_digest(scenario),
    )
}

/// Whether a record is a genuine engine result worth caching. Preflight
/// rejections never ran the engine (and may become runnable under a
/// future engine), panic records measured nothing trustworthy, and engine
/// errors are cheap to re-derive — none of them belong in the cache.
fn cacheable(record: &RunRecord) -> bool {
    !(record.status.starts_with("panic")
        || record.status.starts_with("unsupported")
        || record.status.starts_with("engine error"))
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Cache counters accumulated over a store's lifetime (plus what the
/// opening scan found); snapshot with [`Store::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing (or a fingerprint collision).
    pub misses: u64,
    /// Inserts dropped because the log could not be written (the run
    /// continues uncached; the CLI warns).
    pub write_errors: u64,
    /// Corrupt or truncated regions the opening scan skipped (each one a
    /// former entry degraded to a miss).
    pub corrupt_entries: u64,
}

/// Cache hit/miss counts of one cached run, surfaced in the CLI summary
/// and the trajectory artifact (`None`/absent when caching is off).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells loaded from the store instead of simulated.
    pub hits: u64,
    /// Cells that had to run through the engine.
    pub misses: u64,
}

struct Inner {
    index: HashMap<u64, RunRecord>,
    file: std::fs::File,
}

/// A handle on one cache directory's result store: an in-memory
/// fingerprint index over the append-only log, plus an append handle for
/// write-through. Shared across worker threads by reference; all access
/// goes through an internal lock.
pub struct Store {
    path: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    write_errors: AtomicU64,
    corrupt_entries: u64,
    inner: Mutex<Inner>,
}

/// Scans the entry region of the log, building a last-entry-wins index
/// and counting the corrupt regions it had to skip.
fn scan_entries(data: &[u8]) -> (HashMap<u64, RunRecord>, u64) {
    let magic = ENTRY_MAGIC.to_le_bytes();
    let resync = |from: usize| {
        (from..data.len())
            .find(|&i| data[i..].starts_with(&magic))
            .unwrap_or(data.len())
    };
    let mut index = HashMap::new();
    let mut corrupt = 0u64;
    let mut pos = 0usize;
    while pos + ENTRY_HEADER_LEN <= data.len() {
        if data[pos..pos + 4] != magic {
            corrupt += 1;
            pos = resync(pos + 1);
            continue;
        }
        let fingerprint = u64::from_le_bytes(data[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let len =
            u32::from_le_bytes(data[pos + 12..pos + 16].try_into().expect("4 bytes")) as usize;
        let checksum = u64::from_le_bytes(data[pos + 16..pos + 24].try_into().expect("8 bytes"));
        let start = pos + ENTRY_HEADER_LEN;
        if len > MAX_PAYLOAD || start + len > data.len() {
            corrupt += 1;
            pos = resync(pos + 1);
            continue;
        }
        let payload = &data[start..start + len];
        if fnv_bytes(payload) != checksum {
            corrupt += 1;
            pos = resync(pos + 1);
            continue;
        }
        match decode_record(payload) {
            Some(record) => {
                index.insert(fingerprint, record);
            }
            None => corrupt += 1,
        }
        pos = start + len;
    }
    if pos < data.len() {
        corrupt += 1; // truncated tail
    }
    (index, corrupt)
}

impl Store {
    /// Opens (creating if needed) the result store under cache directory
    /// `dir`, scanning the current-format log into the in-memory index.
    /// Corrupt entries are skipped (counted in
    /// [`StoreStats::corrupt_entries`]); a log whose header does not match
    /// the current format is restarted from scratch — in every case the
    /// open succeeds and degraded entries become misses.
    ///
    /// # Errors
    ///
    /// Only genuine filesystem errors (directory not creatable, log not
    /// readable/appendable) propagate.
    pub fn open(dir: &Path) -> io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("store-v{STORE_FORMAT_VERSION}.log"));
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let header_ok = bytes.len() >= HEADER_LEN
            && &bytes[..FILE_MAGIC.len()] == FILE_MAGIC
            && bytes[FILE_MAGIC.len()..HEADER_LEN] == STORE_FORMAT_VERSION.to_le_bytes();
        let (index, corrupt_entries) = if header_ok {
            scan_entries(&bytes[HEADER_LEN..])
        } else {
            // Missing, foreign or corrupt header: nothing in this file can
            // be trusted as ours — start the log afresh (all misses).
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(FILE_MAGIC);
            header.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
            std::fs::write(&path, header)?;
            (HashMap::new(), 0)
        };
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Store {
            path,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            corrupt_entries,
            inner: Mutex::new(Inner { index, file }),
        })
    }

    /// The log file this store reads and appends.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many distinct fingerprints the index currently holds.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            corrupt_entries: self.corrupt_entries,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("store lock poisoned")
    }

    /// Looks up the cached record of `scenario`. A hit requires the
    /// fingerprint to be present *and* the stored key and seed to equal
    /// the query's — a fingerprint collision (or a drifted fingerprint
    /// function wrongly sharing entries) degrades to a miss instead of
    /// returning another scenario's record.
    pub fn lookup(&self, scenario: &Scenario) -> Option<RunRecord> {
        let fingerprint = scenario_fingerprint(scenario);
        let hit = self
            .lock()
            .index
            .get(&fingerprint)
            .filter(|r| r.key == scenario.key && r.seed == scenario.seed)
            .cloned();
        match hit {
            Some(record) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(record)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Writes `record` through to the log and the index. Records that
    /// never truly executed (panics, preflight rejections, engine errors)
    /// are not cached; a write failure counts in
    /// [`StoreStats::write_errors`] and the run continues uncached.
    pub fn insert(&self, scenario: &Scenario, record: &RunRecord) {
        if !cacheable(record) {
            return;
        }
        let fingerprint = scenario_fingerprint(scenario);
        let payload = encode_record(record);
        let mut entry = Vec::with_capacity(ENTRY_HEADER_LEN + payload.len());
        put_u32(&mut entry, ENTRY_MAGIC);
        put_u64(&mut entry, fingerprint);
        put_u32(&mut entry, payload.len() as u32);
        put_u64(&mut entry, fnv_bytes(&payload));
        entry.extend_from_slice(&payload);
        let mut inner = self.lock();
        if inner
            .file
            .write_all(&entry)
            .and_then(|()| inner.file.flush())
            .is_err()
        {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        inner.index.insert(fingerprint, record.clone());
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("path", &self.path)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{scenario_seed, spread};
    use nochatter_core::CommMode;
    use nochatter_graph::generators;
    use nochatter_sim::{FaultSpec, TopologySpec, WakeSchedule};

    fn scenario() -> Scenario {
        let key = ScenarioKey {
            family: "ring".into(),
            n: 4,
            team: vec![2, 3],
            wake: "simul".into(),
            topo: "static".into(),
            fault: "none".into(),
            mode: "silent".into(),
            variant: "gather".into(),
            rep: 0,
        };
        Scenario {
            seed: scenario_seed(7, &key),
            key,
            cfg: spread(generators::ring(4), &[2, 3]).unwrap(),
            mode: CommMode::Silent,
            schedule: WakeSchedule::Simultaneous,
            topo: TopologySpec::Static,
            fault: FaultSpec::None,
            kind: ScenarioKind::Gather,
        }
    }

    #[test]
    fn record_encoding_round_trips_bitwise() {
        let record = runner::execute_scenario(&scenario());
        assert!(record.ok, "{}", record.status);
        let decoded = decode_record(&encode_record(&record)).expect("decodes");
        assert_eq!(decoded, record);
    }

    #[test]
    fn decoder_rejects_truncation_and_trailing_garbage() {
        let record = runner::execute_scenario(&scenario());
        let bytes = encode_record(&record);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_record(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_record(&padded).is_none(), "trailing garbage");
    }

    #[test]
    fn store_round_trips_a_record() {
        let dir = std::env::temp_dir().join("nochatter-store-unit");
        let _ = std::fs::remove_dir_all(&dir);
        let s = scenario();
        let record = runner::execute_scenario(&s);
        {
            let store = Store::open(&dir).unwrap();
            assert!(store.lookup(&s).is_none(), "cold store misses");
            store.insert(&s, &record);
            assert_eq!(store.lookup(&s).as_ref(), Some(&record));
            assert_eq!(store.len(), 1);
        }
        // A fresh handle reloads the entry from disk.
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.lookup(&s).as_ref(), Some(&record));
        assert_eq!(
            store.stats(),
            StoreStats {
                hits: 1,
                misses: 0,
                write_errors: 0,
                corrupt_entries: 0
            }
        );
    }

    #[test]
    fn non_executed_records_are_never_cached() {
        let dir = std::env::temp_dir().join("nochatter-store-noncacheable");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let s = scenario();
        for status in ["panic: boom", "unsupported: cell", "engine error: x"] {
            let mut record = runner::base_record(&s);
            record.status = status.into();
            store.insert(&s, &record);
        }
        assert!(store.is_empty(), "only genuine results are cached");
    }

    #[test]
    fn lookup_verifies_key_and_seed_not_just_the_fingerprint() {
        let dir = std::env::temp_dir().join("nochatter-store-collision");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let s = scenario();
        // Adversarially plant a *wrong* record under s's fingerprint (as a
        // fingerprint collision would): the lookup must refuse it.
        let mut wrong = runner::execute_scenario(&s);
        wrong.key.family = "other".into();
        store.lock().index.insert(scenario_fingerprint(&s), wrong);
        assert!(store.lookup(&s).is_none(), "collision degrades to a miss");
    }

    #[test]
    fn engine_fingerprint_is_stable_within_a_process() {
        assert_eq!(engine_fingerprint(), engine_fingerprint());
        assert_ne!(engine_fingerprint(), 0);
    }

    #[test]
    fn fingerprint_separates_every_input() {
        let s = scenario();
        let base = scenario_fingerprint(&s);
        let mut seeded = s.clone();
        seeded.seed ^= 1;
        assert_ne!(scenario_fingerprint(&seeded), base, "seed is salted in");
        let mut keyed = s.clone();
        keyed.key.rep = 9;
        assert_ne!(scenario_fingerprint(&keyed), base, "key is salted in");
        let mut regraphed = s.clone();
        regraphed.cfg = spread(generators::path(4), &[2, 3]).unwrap();
        assert_ne!(
            scenario_fingerprint(&regraphed),
            base,
            "same key over a different graph must not share an entry"
        );
        assert_ne!(
            raw_fingerprint(&s.key.canonical(), s.seed, STORE_FORMAT_VERSION + 1, 1, 2),
            raw_fingerprint(&s.key.canonical(), s.seed, STORE_FORMAT_VERSION, 1, 2),
            "format version is salted in"
        );
        assert_ne!(
            raw_fingerprint(&s.key.canonical(), s.seed, STORE_FORMAT_VERSION, 1, 2),
            raw_fingerprint(&s.key.canonical(), s.seed, STORE_FORMAT_VERSION, 3, 2),
            "engine fingerprint is salted in"
        );
    }

    /// The sample scenario's record and the bytes of a log holding it as
    /// its only entry, built once per test binary.
    fn sample_log() -> &'static (RunRecord, Vec<u8>) {
        static SAMPLE: OnceLock<(RunRecord, Vec<u8>)> = OnceLock::new();
        SAMPLE.get_or_init(|| {
            let dir = std::env::temp_dir().join("nochatter-store-sample");
            let _ = std::fs::remove_dir_all(&dir);
            let s = scenario();
            let record = runner::execute_scenario(&s);
            let store = Store::open(&dir).unwrap();
            store.insert(&s, &record);
            let bytes = std::fs::read(store.path()).unwrap();
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
            (record, bytes)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Random bytes, truncated or bit-flipped payloads and garbled logs
        /// never panic the reader: `decode_record` answers `None` unless
        /// the bytes are exactly some record's encoding, and `Store::open`
        /// succeeds with the true record, a miss or a counted corrupt
        /// entry — never another record.
        #[test]
        fn garbage_never_panics_the_reader(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..160),
            cut in proptest::prelude::any::<u64>(),
            flips in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), 1u8..=255),
                0..4,
            ),
        ) {
            let (record, log) = sample_log();
            let garble = |bytes: &[u8]| {
                let mut bytes = bytes.to_vec();
                if !bytes.is_empty() {
                    for &(at, mask) in &flips {
                        let at = (at % bytes.len() as u64) as usize;
                        bytes[at] ^= mask;
                    }
                }
                bytes
            };

            // Random bytes decode only if they re-encode to themselves.
            if let Some(decoded) = decode_record(&noise) {
                proptest::prop_assert_eq!(encode_record(&decoded), noise.clone());
            }
            // A strict prefix of a payload never decodes; a garbled one
            // decodes only to the record it now spells.
            let payload = encode_record(record);
            let prefix = (cut % payload.len() as u64) as usize;
            proptest::prop_assert!(decode_record(&payload[..prefix]).is_none());
            let garbled = garble(&payload);
            if let Some(decoded) = decode_record(&garbled) {
                proptest::prop_assert_eq!(encode_record(&decoded), garbled.clone());
            }

            // A log truncated, bit-flipped and followed by noise.
            let kept = (cut % (log.len() as u64 + 1)) as usize;
            let mut bytes = garble(&log[..kept]);
            bytes.extend_from_slice(&noise);
            let dir = std::env::temp_dir().join("nochatter-store-garbled");
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(format!("store-v{STORE_FORMAT_VERSION}.log")), &bytes)
                .unwrap();
            let store = Store::open(&dir).expect("a garbled log still opens");
            let hit = store.lookup(&scenario());
            proptest::prop_assert!(
                hit.is_none() || hit.as_ref() == Some(record),
                "a garbled log returned another record"
            );
            if bytes.starts_with(log) {
                proptest::prop_assert_eq!(hit.as_ref(), Some(record), "intact entry lost");
            }
            if flips.is_empty() && kept > HEADER_LEN && kept < log.len() {
                proptest::prop_assert_eq!(hit, None);
                proptest::prop_assert!(
                    store.stats().corrupt_entries > 0,
                    "a cut entry is counted as corrupt"
                );
            }
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
