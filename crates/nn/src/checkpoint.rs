//! Crash-safe training checkpoints: versioned, checksummed, atomically
//! written, and sufficient to resume the *exact* fault-free trajectory.
//!
//! A checkpoint captures everything the training loop needs to continue
//! bitwise-identically: layer weights and biases, optimizer velocity
//! buffers, the epoch/batch cursor (the shuffle order is a pure function
//! of the epoch, so the cursor *is* the RNG stream position), the
//! in-epoch loss/accuracy accumulators, the fallback-rerun counter, and
//! the matmul-side run state of every [`GuardedBackend`] (sticky
//! demotions, backoff counters, tuned λ — see
//! [`apa_matmul::GuardedState`]).
//!
//! ## File format
//!
//! ```text
//! magic "APACKPT1" | version u32 | section count u32
//! per section: tag [u8;4] | payload len u64 | payload | CRC32(payload)
//! trailer: CRC32(everything above)
//! ```
//!
//! All integers are little-endian; the CRC is the IEEE polynomial. A torn
//! or bit-flipped file fails its section or file checksum and
//! [`CheckpointManager::load_latest`] silently falls back to the previous
//! good generation — which exists because writes are atomic (temp file +
//! fsync + rename + directory fsync) and the manager rotates the last
//! `keep` generations instead of overwriting in place.
//!
//! With `--features fault-inject`,
//! [`apa_matmul::fault::arm_torn_checkpoint_writes`] makes the next write
//! skip the atomic protocol and leave a renamed-but-truncated file,
//! modelling a power cut that reordered the data flush past the rename —
//! the crash drills use this to prove the fallback path.

use crate::backend::GuardedBackend;
use crate::data::Dataset;
use crate::net::{EpochStats, Mlp, SHUFFLE_SALT};
use crate::optimizer::Optimizer;
use apa_gemm::Mat;
use apa_matmul::{GuardedState, HealthStats, ShapeEntry};
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"APACKPT1";
// v2 added the four ABFT checksum-tier counters to the guard section.
const VERSION: u32 = 2;

const TAG_META: [u8; 4] = *b"META";
const TAG_WEIGHTS: [u8; 4] = *b"WGTS";
const TAG_VELOCITIES: [u8; 4] = *b"OPTV";
const TAG_GUARDS: [u8; 4] = *b"GRDS";
const TAG_EPOCH: [u8; 4] = *b"EPST";

// ---------------------------------------------------------------------------
// CRC32 (IEEE) — hand-rolled so the format has zero dependencies.

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// IEEE CRC32 of `data` (the checksum the checkpoint format uses).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Errors

/// Why a checkpoint could not be written, read, or applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (path and OS message).
    Io { path: String, msg: String },
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not understood.
    BadVersion { got: u32 },
    /// The file ended before a declared structure was complete.
    Truncated { needed: usize, got: usize },
    /// A section's payload failed its CRC.
    SectionCrc { tag: [u8; 4] },
    /// The whole-file trailer CRC failed.
    FileCrc,
    /// A required section is absent.
    MissingSection { tag: [u8; 4] },
    /// The checkpoint does not fit what it is being restored onto
    /// (layer geometry, guard count, guard configuration, …).
    Mismatch { what: String },
}

fn tag_str(tag: &[u8; 4]) -> String {
    String::from_utf8_lossy(tag).into_owned()
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, msg } => write!(f, "checkpoint I/O on {path}: {msg}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported checkpoint version {got} (expected {VERSION})"
                )
            }
            CheckpointError::Truncated { needed, got } => {
                write!(f, "checkpoint truncated: needed {needed} bytes, had {got}")
            }
            CheckpointError::SectionCrc { tag } => {
                write!(
                    f,
                    "checkpoint section '{}' failed its checksum",
                    tag_str(tag)
                )
            }
            CheckpointError::FileCrc => write!(f, "checkpoint failed its whole-file checksum"),
            CheckpointError::MissingSection { tag } => {
                write!(f, "checkpoint is missing section '{}'", tag_str(tag))
            }
            CheckpointError::Mismatch { what } => {
                write!(f, "checkpoint does not match this trainer: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        msg: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Train state

/// One layer's parameters (or one layer's optimizer velocities — same
/// geometry).
#[derive(Clone, Debug, PartialEq)]
pub struct LayerState {
    /// `in × out` weight (or velocity) matrix.
    pub w: Mat<f32>,
    /// `out` bias (or bias-velocity) vector.
    pub b: Vec<f32>,
}

/// In-epoch accumulators, so a resumed run finishes the interrupted epoch
/// with the same [`EpochStats`] it would have produced uninterrupted.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpochProgress {
    pub loss_sum: f64,
    pub correct_sum: f64,
    pub batches: u64,
    pub seconds: f64,
    /// `Mlp::degraded_batches()` at the start of the epoch.
    pub degraded_at_start: u64,
}

/// Everything a checkpoint persists.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainState {
    /// Epoch currently in progress (0-based).
    pub epoch: u32,
    /// Next batch index within the epoch's shuffled order. Together with
    /// `epoch` this is the full RNG stream position: the shuffle is a
    /// pure function of the epoch.
    pub next_batch: u32,
    pub batch_size: u32,
    pub lr: f32,
    /// Total batches ever re-run on the Mlp's fallback backend.
    pub degraded_batches: u64,
    pub progress: EpochProgress,
    pub layers: Vec<LayerState>,
    /// Optimizer velocity buffers (`None` when training without momentum
    /// state worth persisting).
    pub velocities: Option<Vec<LayerState>>,
    /// Run state of each guarded backend, in registration order.
    pub guards: Vec<GuardedState>,
}

// ---------------------------------------------------------------------------
// Serialization

struct Writer(Vec<u8>);

impl Writer {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Truncated {
                needed: self.pos + n,
                got: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn usize(&mut self) -> Result<usize, CheckpointError> {
        Ok(self.u64()? as usize)
    }
}

fn write_layers(w: &mut Writer, layers: &[LayerState]) {
    w.u32(layers.len() as u32);
    for l in layers {
        w.u64(l.w.rows() as u64);
        w.u64(l.w.cols() as u64);
        for &v in l.w.as_slice() {
            w.f32(v);
        }
        w.u64(l.b.len() as u64);
        for &v in &l.b {
            w.f32(v);
        }
    }
}

fn read_layers(r: &mut Reader<'_>) -> Result<Vec<LayerState>, CheckpointError> {
    let n = r.u32()? as usize;
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        let rows = r.usize()?;
        let cols = r.usize()?;
        let elems = rows.checked_mul(cols).ok_or(CheckpointError::Truncated {
            needed: usize::MAX,
            got: r.buf.len(),
        })?;
        let mut data = Vec::with_capacity(elems.min(r.buf.len()));
        for _ in 0..elems {
            data.push(r.f32()?);
        }
        let blen = r.usize()?;
        let mut b = Vec::with_capacity(blen.min(r.buf.len()));
        for _ in 0..blen {
            b.push(r.f32()?);
        }
        layers.push(LayerState {
            w: Mat::from_vec(rows, cols, data),
            b,
        });
    }
    Ok(layers)
}

fn write_guard(w: &mut Writer, g: &GuardedState) {
    w.f64(g.lambda);
    w.u64(g.rung_count as u64);
    w.u64(g.calls);
    w.u64(g.shapes.len() as u64);
    for s in &g.shapes {
        w.u64(s.m as u64);
        w.u64(s.k as u64);
        w.u64(s.n as u64);
        w.u64(s.rung as u64);
        w.u64(s.clean);
        w.u32(s.backoff);
        w.u64(s.tick);
    }
    let st = &g.stats;
    for v in [
        st.calls,
        st.probes,
        st.probe_failures,
        st.nonfinite_scans,
        st.nonfinite_detected,
        st.demotions,
        st.promotions,
        st.worker_panics,
        st.watchdog_timeouts,
        st.abft_checks,
        st.abft_detected,
        st.abft_repaired,
        st.abft_escalations,
    ] {
        w.u64(v);
    }
    w.u64(st.calls_by_rung.len() as u64);
    for &v in &st.calls_by_rung {
        w.u64(v);
    }
}

fn read_guard(r: &mut Reader<'_>) -> Result<GuardedState, CheckpointError> {
    let lambda = r.f64()?;
    let rung_count = r.usize()?;
    let calls = r.u64()?;
    let n_shapes = r.usize()?;
    let mut shapes = Vec::with_capacity(n_shapes.min(r.buf.len()));
    for _ in 0..n_shapes {
        shapes.push(ShapeEntry {
            m: r.usize()?,
            k: r.usize()?,
            n: r.usize()?,
            rung: r.usize()?,
            clean: r.u64()?,
            backoff: r.u32()?,
            tick: r.u64()?,
        });
    }
    let mut stats = HealthStats {
        calls: r.u64()?,
        probes: r.u64()?,
        probe_failures: r.u64()?,
        nonfinite_scans: r.u64()?,
        nonfinite_detected: r.u64()?,
        demotions: r.u64()?,
        promotions: r.u64()?,
        worker_panics: r.u64()?,
        watchdog_timeouts: r.u64()?,
        abft_checks: r.u64()?,
        abft_detected: r.u64()?,
        abft_repaired: r.u64()?,
        abft_escalations: r.u64()?,
        // Serving-time brownout counter: never non-zero during training,
        // so the checkpoint format does not carry it.
        brownout_capped_calls: 0,
        calls_by_rung: Vec::new(),
    };
    let n_rungs = r.usize()?;
    for _ in 0..n_rungs {
        stats.calls_by_rung.push(r.u64()?);
    }
    Ok(GuardedState {
        lambda,
        rung_count,
        calls,
        shapes,
        stats,
    })
}

fn push_section(out: &mut Vec<u8>, tag: [u8; 4], payload: &[u8]) {
    out.extend_from_slice(&tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

impl TrainState {
    /// Serialize to the checksummed on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = Writer(Vec::new());
        meta.u32(self.epoch);
        meta.u32(self.next_batch);
        meta.u32(self.batch_size);
        meta.f32(self.lr);
        meta.u64(self.degraded_batches);

        let mut epst = Writer(Vec::new());
        epst.f64(self.progress.loss_sum);
        epst.f64(self.progress.correct_sum);
        epst.u64(self.progress.batches);
        epst.f64(self.progress.seconds);
        epst.u64(self.progress.degraded_at_start);

        let mut wgts = Writer(Vec::new());
        write_layers(&mut wgts, &self.layers);

        let mut grds = Writer(Vec::new());
        grds.u32(self.guards.len() as u32);
        for g in &self.guards {
            write_guard(&mut grds, g);
        }

        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        let n_sections = 4 + u32::from(self.velocities.is_some());
        out.extend_from_slice(&n_sections.to_le_bytes());
        push_section(&mut out, TAG_META, &meta.0);
        push_section(&mut out, TAG_EPOCH, &epst.0);
        push_section(&mut out, TAG_WEIGHTS, &wgts.0);
        if let Some(vel) = &self.velocities {
            let mut optv = Writer(Vec::new());
            write_layers(&mut optv, vel);
            push_section(&mut out, TAG_VELOCITIES, &optv.0);
        }
        push_section(&mut out, TAG_GUARDS, &grds.0);
        let file_crc = crc32(&out);
        out.extend_from_slice(&file_crc.to_le_bytes());
        out
    }

    /// Parse and fully verify (section CRCs + file CRC) a checkpoint.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if bytes.len() < MAGIC.len() + 8 + 4 {
            return Err(CheckpointError::Truncated {
                needed: MAGIC.len() + 12,
                got: bytes.len(),
            });
        }
        let body = &bytes[..bytes.len() - 4];
        let trailer = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        if crc32(body) != trailer {
            return Err(CheckpointError::FileCrc);
        }

        let mut r = Reader::new(body);
        r.take(MAGIC.len())?;
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion { got: version });
        }
        let n_sections = r.u32()? as usize;

        let mut meta = None;
        let mut epst = None;
        let mut wgts = None;
        let mut optv = None;
        let mut grds = None;
        for _ in 0..n_sections {
            let tag: [u8; 4] = r.take(4)?.try_into().unwrap();
            let len = r.usize()?;
            let payload = r.take(len)?;
            let crc = r.u32()?;
            if crc32(payload) != crc {
                return Err(CheckpointError::SectionCrc { tag });
            }
            match tag {
                TAG_META => meta = Some(payload),
                TAG_EPOCH => epst = Some(payload),
                TAG_WEIGHTS => wgts = Some(payload),
                TAG_VELOCITIES => optv = Some(payload),
                TAG_GUARDS => grds = Some(payload),
                _ => {} // unknown sections are skipped (forward compat)
            }
        }

        let meta = meta.ok_or(CheckpointError::MissingSection { tag: TAG_META })?;
        let epst = epst.ok_or(CheckpointError::MissingSection { tag: TAG_EPOCH })?;
        let wgts = wgts.ok_or(CheckpointError::MissingSection { tag: TAG_WEIGHTS })?;
        let grds = grds.ok_or(CheckpointError::MissingSection { tag: TAG_GUARDS })?;

        let mut m = Reader::new(meta);
        let (epoch, next_batch, batch_size, lr, degraded_batches) =
            (m.u32()?, m.u32()?, m.u32()?, m.f32()?, m.u64()?);

        let mut e = Reader::new(epst);
        let progress = EpochProgress {
            loss_sum: e.f64()?,
            correct_sum: e.f64()?,
            batches: e.u64()?,
            seconds: e.f64()?,
            degraded_at_start: e.u64()?,
        };

        let layers = read_layers(&mut Reader::new(wgts))?;
        let velocities = match optv {
            Some(p) => Some(read_layers(&mut Reader::new(p))?),
            None => None,
        };

        let mut g = Reader::new(grds);
        let n_guards = g.u32()? as usize;
        let mut guards = Vec::with_capacity(n_guards);
        for _ in 0..n_guards {
            guards.push(read_guard(&mut g)?);
        }

        Ok(Self {
            epoch,
            next_batch,
            batch_size,
            lr,
            degraded_batches,
            progress,
            layers,
            velocities,
            guards,
        })
    }
}

// ---------------------------------------------------------------------------
// Manager: atomic writes, rotation, fall-back loading

/// Writes and loads rotated checkpoint generations in a directory.
///
/// Files are named `ckpt-NNNNNN.apack`. `save` assigns the next
/// generation number, writes atomically (temp + fsync + rename + dir
/// fsync) and deletes generations beyond `keep`. `load_latest` walks
/// generations newest-first and returns the first one that passes full
/// verification, so a torn or corrupted newest file costs one generation
/// of progress, never the run.
///
/// Opening a directory CRC-verifies **every** retained generation (not
/// just the one a resume would load): silent disk corruption in an older
/// generation is a fallback target that would fail exactly when it is
/// needed most. Corrupt files are pruned on the spot and counted in
/// [`CheckpointManager::pruned_at_startup`].
pub struct CheckpointManager {
    dir: PathBuf,
    keep: usize,
    pruned_at_startup: usize,
}

impl CheckpointManager {
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let mut mgr = Self {
            dir,
            keep: keep.max(1),
            pruned_at_startup: 0,
        };
        mgr.pruned_at_startup = mgr.verify_retained();
        Ok(mgr)
    }

    /// Full-verify every retained generation and delete the ones that fail
    /// (bad magic, torn, section or file CRC mismatch). Returns how many
    /// were pruned.
    fn verify_retained(&self) -> usize {
        let mut pruned = 0usize;
        for generation in self.generations() {
            let path = self.path_for(generation);
            let ok = fs::read(&path)
                .ok()
                .is_some_and(|bytes| TrainState::from_bytes(&bytes).is_ok());
            if !ok {
                let _ = fs::remove_file(&path);
                pruned += 1;
            }
        }
        if pruned > 0 {
            eprintln!(
                "checkpoint: pruned {pruned} corrupt generation(s) from {}",
                self.dir.display()
            );
        }
        pruned
    }

    /// Corrupt generations found (and deleted) when this manager opened
    /// its directory.
    pub fn pruned_at_startup(&self) -> usize {
        self.pruned_at_startup
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{generation:06}.apack"))
    }

    /// Existing generation numbers, ascending.
    pub fn generations(&self) -> Vec<u64> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut gens: Vec<u64> = entries
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                let num = name.strip_prefix("ckpt-")?.strip_suffix(".apack")?;
                num.parse().ok()
            })
            .collect();
        gens.sort_unstable();
        gens
    }

    /// Write `state` as the next generation; returns its path.
    pub fn save(&self, state: &TrainState) -> Result<PathBuf, CheckpointError> {
        let generation = self.generations().last().map_or(1, |g| g + 1);
        let final_path = self.path_for(generation);
        let tmp_path = self.dir.join(format!(".ckpt-{generation:06}.tmp"));
        let bytes = state.to_bytes();

        #[cfg(feature = "fault-inject")]
        if apa_matmul::fault::take_torn_write() {
            // Model a power cut whose data flush was reordered past the
            // rename: the final name exists but holds half the bytes.
            let mut f = File::create(&tmp_path).map_err(|e| io_err(&tmp_path, e))?;
            f.write_all(&bytes[..bytes.len() / 2])
                .map_err(|e| io_err(&tmp_path, e))?;
            drop(f);
            fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, e))?;
            self.rotate();
            return Ok(final_path);
        }

        let mut f = File::create(&tmp_path).map_err(|e| io_err(&tmp_path, e))?;
        f.write_all(&bytes).map_err(|e| io_err(&tmp_path, e))?;
        f.sync_all().map_err(|e| io_err(&tmp_path, e))?;
        drop(f);
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, e))?;
        // Make the rename itself durable.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.rotate();
        Ok(final_path)
    }

    fn rotate(&self) {
        let gens = self.generations();
        if gens.len() > self.keep {
            for &g in &gens[..gens.len() - self.keep] {
                let _ = fs::remove_file(self.path_for(g));
            }
        }
    }

    /// Load the newest checkpoint that passes verification, with its
    /// generation number. `Ok(None)` when no loadable checkpoint exists.
    pub fn load_latest(&self) -> Result<Option<(u64, TrainState)>, CheckpointError> {
        for &generation in self.generations().iter().rev() {
            let path = self.path_for(generation);
            let Ok(bytes) = fs::read(&path) else { continue };
            match TrainState::from_bytes(&bytes) {
                Ok(state) => return Ok(Some((generation, state))),
                Err(_) => continue, // torn/corrupt — fall back a generation
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// The checkpointed training loop

/// Training-loop configuration for [`CheckpointedTrainer`].
#[derive(Clone, Copy, Debug)]
pub struct TrainerConfig {
    pub epochs: usize,
    pub batch_size: usize,
    /// Save a checkpoint every this many batches (0 = only at epoch
    /// boundaries; an epoch-boundary save always happens).
    pub checkpoint_every: u32,
}

/// A batched-SGD training loop that checkpoints its complete state and can
/// resume a killed run onto the bitwise-identical trajectory.
///
/// The loop itself is deterministic: the per-epoch shuffle is a pure
/// function of the epoch index, batches are processed in order, and the
/// ragged tail is dropped — so (epoch, next_batch) fully locates the run,
/// and a resume recomputes nothing it cannot reproduce exactly.
pub struct CheckpointedTrainer {
    pub net: Mlp,
    pub opt: Optimizer,
    guards: Vec<Arc<GuardedBackend>>,
    manager: Option<CheckpointManager>,
    cfg: TrainerConfig,
    epoch: u32,
    next_batch: u32,
    progress: EpochProgress,
    completed: Vec<EpochStats>,
}

impl CheckpointedTrainer {
    pub fn new(net: Mlp, opt: Optimizer, cfg: TrainerConfig) -> Self {
        Self {
            net,
            opt,
            guards: Vec::new(),
            manager: None,
            cfg,
            epoch: 0,
            next_batch: 0,
            progress: EpochProgress::default(),
            completed: Vec::new(),
        }
    }

    /// Register the guarded backends whose run state checkpoints must
    /// carry (registration order is the restore order).
    pub fn with_guards(mut self, guards: Vec<Arc<GuardedBackend>>) -> Self {
        self.guards = guards;
        self
    }

    /// Enable checkpointing through `manager`.
    pub fn with_checkpoints(mut self, manager: CheckpointManager) -> Self {
        self.manager = Some(manager);
        self
    }

    /// Epoch records completed so far (resume starts this list fresh; the
    /// interrupted epoch's partial sums come from the checkpoint).
    pub fn completed(&self) -> &[EpochStats] {
        &self.completed
    }

    /// `(epoch, next_batch)` cursor.
    pub fn cursor(&self) -> (u32, u32) {
        (self.epoch, self.next_batch)
    }

    /// Merged sentinel/ladder/ABFT counters across every registered
    /// guarded backend — the training-side health ledger (probe failures,
    /// demotions, `abft_detected`/`abft_repaired`, …).
    pub fn merged_health(&self) -> HealthStats {
        let mut h = HealthStats::default();
        for g in &self.guards {
            h.merge(&g.health());
        }
        h
    }

    fn capture(&self) -> TrainState {
        TrainState {
            epoch: self.epoch,
            next_batch: self.next_batch,
            batch_size: self.cfg.batch_size as u32,
            lr: self.opt.cfg.lr,
            degraded_batches: self.net.degraded_batches(),
            progress: self.progress,
            layers: self.net.snapshot(),
            velocities: Some(self.opt.export_velocities()),
            guards: self
                .guards
                .iter()
                .map(|g| g.guard().export_state())
                .collect(),
        }
    }

    fn save_checkpoint(&self) -> Result<(), CheckpointError> {
        match &self.manager {
            Some(m) => m.save(&self.capture()).map(|_| ()),
            None => Ok(()),
        }
    }

    /// Adopt the newest good checkpoint, if any; returns its generation.
    /// The trainer's net/optimizer/guards must be freshly constructed with
    /// the same configuration as the run that wrote the checkpoint.
    pub fn resume_latest(&mut self) -> Result<Option<u64>, CheckpointError> {
        let Some(manager) = &self.manager else {
            return Ok(None);
        };
        let Some((generation, state)) = manager.load_latest()? else {
            return Ok(None);
        };
        if state.batch_size != self.cfg.batch_size as u32 {
            return Err(CheckpointError::Mismatch {
                what: format!(
                    "batch size {} in checkpoint, {} configured",
                    state.batch_size, self.cfg.batch_size
                ),
            });
        }
        self.net.resume(&state)?;
        if let Some(vel) = &state.velocities {
            self.opt.restore_velocities(vel)?;
        }
        if state.guards.len() != self.guards.len() {
            return Err(CheckpointError::Mismatch {
                what: format!(
                    "{} guard states in checkpoint, {} guards registered",
                    state.guards.len(),
                    self.guards.len()
                ),
            });
        }
        for (backend, gs) in self.guards.iter().zip(&state.guards) {
            backend
                .guard()
                .restore_state(gs)
                .map_err(|e| CheckpointError::Mismatch {
                    what: e.to_string(),
                })?;
        }
        self.epoch = state.epoch;
        self.next_batch = state.next_batch;
        self.progress = state.progress;
        Ok(Some(generation))
    }

    /// Train until `cfg.epochs` epochs are complete; returns the records
    /// of the epochs finished by *this* call.
    pub fn run(&mut self, data: &Dataset) -> Result<Vec<EpochStats>, CheckpointError> {
        let before = self.completed.len();
        self.run_steps(data, u64::MAX)?;
        Ok(self.completed[before..].to_vec())
    }

    /// Process at most `max_steps` batches (crash drills kill a run at a
    /// precise batch this way). Returns the number actually processed —
    /// fewer when the configured epochs finish first.
    pub fn run_steps(&mut self, data: &Dataset, max_steps: u64) -> Result<u64, CheckpointError> {
        let bs = self.cfg.batch_size;
        let mut steps = 0u64;
        while (self.epoch as usize) < self.cfg.epochs {
            let order = data.shuffled_indices(SHUFFLE_SALT.wrapping_add(self.epoch as u64));
            let n_batches = order.len() / bs; // ragged tail dropped
            while (self.next_batch as usize) < n_batches {
                if steps >= max_steps {
                    return Ok(steps);
                }
                let bi = self.next_batch as usize;
                let (x, labels) = data.gather(&order[bi * bs..(bi + 1) * bs]);
                let t0 = std::time::Instant::now();
                let (loss, acc) = self.net.train_batch_with(&x, &labels, &mut self.opt);
                self.progress.seconds += t0.elapsed().as_secs_f64();
                self.progress.loss_sum += loss as f64;
                self.progress.correct_sum += acc;
                self.progress.batches += 1;
                self.next_batch += 1;
                steps += 1;
                if self.cfg.checkpoint_every > 0
                    && self.next_batch.is_multiple_of(self.cfg.checkpoint_every)
                    && (self.next_batch as usize) < n_batches
                {
                    self.save_checkpoint()?;
                }
            }
            let batches = self.progress.batches.max(1) as f64;
            self.completed.push(EpochStats {
                epoch: self.epoch as usize,
                loss: (self.progress.loss_sum / batches) as f32,
                train_accuracy: self.progress.correct_sum / batches,
                seconds: self.progress.seconds,
                degraded_batches: self.net.degraded_batches() - self.progress.degraded_at_start,
            });
            self.epoch += 1;
            self.next_batch = 0;
            self.progress = EpochProgress {
                degraded_at_start: self.net.degraded_batches(),
                ..EpochProgress::default()
            };
            self.save_checkpoint()?;
        }
        Ok(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{classical, MatmulBackend};
    use crate::optimizer::SgdConfig;
    use apa_core::catalog;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apa-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_state() -> TrainState {
        TrainState {
            epoch: 3,
            next_batch: 7,
            batch_size: 20,
            lr: 0.05,
            degraded_batches: 2,
            progress: EpochProgress {
                loss_sum: 12.5,
                correct_sum: 5.25,
                batches: 7,
                seconds: 0.125,
                degraded_at_start: 1,
            },
            layers: vec![
                LayerState {
                    w: Mat::from_fn(4, 3, |i, j| (i * 3 + j) as f32 * 0.5 - 2.0),
                    b: vec![0.1, -0.2, 0.3],
                },
                LayerState {
                    w: Mat::from_fn(3, 2, |i, j| (i as f32 - j as f32) * 0.25),
                    b: vec![1.5, -1.5],
                },
            ],
            velocities: Some(vec![
                LayerState {
                    w: Mat::zeros(4, 3),
                    b: vec![0.0; 3],
                },
                LayerState {
                    w: Mat::from_fn(3, 2, |i, j| (i + j) as f32),
                    b: vec![0.5, 0.25],
                },
            ]),
            guards: vec![GuardedState {
                lambda: 2.0_f64.powf(-11.5),
                rung_count: 5,
                calls: 42,
                shapes: vec![ShapeEntry {
                    m: 20,
                    k: 8,
                    n: 16,
                    rung: 1,
                    clean: 9,
                    backoff: 2,
                    tick: 42,
                }],
                stats: HealthStats {
                    calls: 42,
                    probes: 11,
                    probe_failures: 1,
                    nonfinite_scans: 31,
                    demotions: 1,
                    abft_checks: 40,
                    abft_detected: 2,
                    abft_repaired: 2,
                    abft_escalations: 1,
                    calls_by_rung: vec![30, 12, 0, 0, 0],
                    ..HealthStats::default()
                },
            }],
        }
    }

    #[test]
    fn state_round_trips_through_bytes() {
        let state = sample_state();
        let bytes = state.to_bytes();
        assert_eq!(TrainState::from_bytes(&bytes).unwrap(), state);
        // Without velocities too.
        let mut no_vel = state;
        no_vel.velocities = None;
        assert_eq!(TrainState::from_bytes(&no_vel.to_bytes()).unwrap(), no_vel);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample_state().to_bytes();
        // Flipping any byte must fail verification somewhere — magic,
        // version gate, a section CRC or the file CRC (stride keeps the
        // test fast; offsets cover every region of the layout).
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                TrainState::from_bytes(&bad).is_err(),
                "corruption at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_any_length() {
        let bytes = sample_state().to_bytes();
        for len in [0, 4, MAGIC.len() + 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                TrainState::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn manager_rotates_and_loads_latest() {
        let dir = tmpdir("rotate");
        let mgr = CheckpointManager::new(&dir, 2).unwrap();
        let mut state = sample_state();
        for epoch in 0..4 {
            state.epoch = epoch;
            mgr.save(&state).unwrap();
        }
        assert_eq!(mgr.generations(), vec![3, 4], "keep=2 retains the last two");
        let (generation, loaded) = mgr.load_latest().unwrap().unwrap();
        assert_eq!(generation, 4);
        assert_eq!(loaded.epoch, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_generation() {
        let dir = tmpdir("fallback");
        let mgr = CheckpointManager::new(&dir, 3).unwrap();
        let mut state = sample_state();
        state.epoch = 1;
        mgr.save(&state).unwrap();
        state.epoch = 2;
        let newest = mgr.save(&state).unwrap();
        // Tear the newest file in place (truncate to half).
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let (generation, loaded) = mgr.load_latest().unwrap().unwrap();
        assert_eq!(generation, 1, "must fall back past the torn generation");
        assert_eq!(loaded.epoch, 1);
        // No checkpoint at all → Ok(None).
        let empty = CheckpointManager::new(tmpdir("empty"), 2).unwrap();
        assert_eq!(empty.load_latest().unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_verifies_all_retained_generations_and_prunes_corrupt_ones() {
        let dir = tmpdir("startup-verify");
        let mgr = CheckpointManager::new(&dir, 4).unwrap();
        assert_eq!(mgr.pruned_at_startup(), 0);
        let mut state = sample_state();
        for epoch in 1..=4 {
            state.epoch = epoch;
            mgr.save(&state).unwrap();
        }
        // Corrupt two retained generations two different ways: tear one
        // (truncate) and bit-flip another *older* one — the older file is
        // exactly the fallback target load_latest would need later.
        let torn = mgr.path_for(2);
        let bytes = fs::read(&torn).unwrap();
        fs::write(&torn, &bytes[..bytes.len() / 3]).unwrap();
        let flipped = mgr.path_for(3);
        let mut bytes = fs::read(&flipped).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&flipped, &bytes).unwrap();

        let reopened = CheckpointManager::new(&dir, 4).unwrap();
        assert_eq!(reopened.pruned_at_startup(), 2);
        assert_eq!(
            reopened.generations(),
            vec![1, 4],
            "corrupt generations must be gone from disk"
        );
        let (generation, loaded) = reopened.load_latest().unwrap().unwrap();
        assert_eq!((generation, loaded.epoch), (4, 4));
        // A clean re-open prunes nothing.
        assert_eq!(
            CheckpointManager::new(&dir, 4).unwrap().pruned_at_startup(),
            0
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    fn blob_dataset(n: usize) -> Dataset {
        let mut state = 5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut images = Mat::zeros(n, 8);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = (i % 2) as u8;
            let center = if class == 0 { -1.0 } else { 1.0 };
            for j in 0..8 {
                images.set(i, j, (center + 0.3 * next()) as f32);
            }
            labels.push(class);
        }
        Dataset::new(images, labels, 2)
    }

    fn fresh_trainer(cfg: TrainerConfig) -> CheckpointedTrainer {
        let net = Mlp::new(&[8, 16, 2], vec![classical(1), classical(1)], 11);
        let opt = Optimizer::new(
            SgdConfig {
                lr: 0.1,
                momentum: 0.9,
                weight_decay: 1e-4,
            },
            &net,
        );
        CheckpointedTrainer::new(net, opt, cfg)
    }

    #[test]
    fn trainer_matches_reference_and_resumes_bitwise() {
        let data = blob_dataset(100);
        let cfg = TrainerConfig {
            epochs: 2,
            batch_size: 10,
            checkpoint_every: 3,
        };

        let mut reference = fresh_trainer(cfg);
        let stats = reference.run(&data).unwrap();
        assert_eq!(stats.len(), 2);

        // Kill after 13 batches (mid-epoch-1), resume in a new trainer.
        let dir = tmpdir("resume");
        let mut killed =
            fresh_trainer(cfg).with_checkpoints(CheckpointManager::new(&dir, 3).unwrap());
        assert_eq!(killed.run_steps(&data, 13).unwrap(), 13);
        drop(killed);

        let mut resumed =
            fresh_trainer(cfg).with_checkpoints(CheckpointManager::new(&dir, 3).unwrap());
        let generation = resumed.resume_latest().unwrap();
        assert!(generation.is_some(), "a checkpoint must exist");
        resumed.run(&data).unwrap();

        for (a, b) in reference.net.layers.iter().zip(&resumed.net.layers) {
            assert_eq!(a.w, b.w, "weights must be bitwise identical");
            assert_eq!(a.b, b.b, "biases must be bitwise identical");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_mismatched_batch_size() {
        let data = blob_dataset(40);
        let dir = tmpdir("mismatch");
        let cfg = TrainerConfig {
            epochs: 1,
            batch_size: 10,
            checkpoint_every: 0,
        };
        let mut t = fresh_trainer(cfg).with_checkpoints(CheckpointManager::new(&dir, 2).unwrap());
        t.run(&data).unwrap();
        let other = TrainerConfig {
            epochs: 1,
            batch_size: 20,
            checkpoint_every: 0,
        };
        let mut t2 =
            fresh_trainer(other).with_checkpoints(CheckpointManager::new(&dir, 2).unwrap());
        assert!(matches!(
            t2.resume_latest(),
            Err(CheckpointError::Mismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn guard_state_survives_the_binary_format() {
        let guard = crate::backend::guarded(catalog::bini322(), 1);
        let a = Mat::from_fn(12, 8, |i, j| (i as f32 - j as f32) * 0.1);
        let b = Mat::from_fn(8, 10, |i, j| (i as f32 + j as f32) * 0.05);
        for _ in 0..3 {
            let _ = guard.matmul(a.as_ref(), b.as_ref());
        }
        let mut state = sample_state();
        state.guards = vec![guard.guard().export_state()];
        let loaded = TrainState::from_bytes(&state.to_bytes()).unwrap();
        assert_eq!(loaded.guards, state.guards);
        // And it restores cleanly onto an identically-configured guard.
        let fresh = crate::backend::guarded(catalog::bini322(), 1);
        fresh.guard().restore_state(&loaded.guards[0]).unwrap();
        assert_eq!(fresh.guard().export_state(), state.guards[0]);
    }
}
