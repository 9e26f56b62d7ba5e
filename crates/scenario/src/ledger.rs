//! The append-only, hash-chained allocation ledger.
//!
//! Every scenario run produces a ledger: one record per quantum holding
//! the enforced allocation, the effective budgets, the fired events, and
//! the health flags, followed by a seal. The format reuses the checkpoint
//! crate's conventions — `[section]` / `key=value` lines, f64 values as
//! 16-hex-digit IEEE-754 bit patterns (bit-exact round trips), FNV-1a
//! checksums — plus a **chain**: each record ends with the FNV-1a hash of
//! every byte of the ledger before it, so truncation or in-place edits
//! are detected at the first tampered record, not just at the seal.
//!
//! Because the whole pipeline is deterministic, re-running a scenario
//! reproduces its ledger byte for byte — the `ledger-replay` property —
//! which makes the ledger an audit artifact: any holder can re-derive it
//! from the scenario file and diff.

use std::path::Path;

use rebudget_sim::checkpoint::{f64_hex, fnv1a, hex_list};

use crate::ScenarioError;

const HEADER: &str = "rebudget-ledger v1";

/// Metadata stamped into the ledger header.
#[derive(Debug, Clone)]
pub struct LedgerMeta {
    /// Scenario name.
    pub scenario: String,
    /// Simulation seed.
    pub seed: u64,
    /// Mechanism name (as declared in the scenario).
    pub mechanism: String,
    /// Workload name.
    pub workload: String,
    /// Core count.
    pub cores: usize,
    /// Resource count.
    pub resources: usize,
    /// Total quanta the scenario runs.
    pub quanta: usize,
    /// Per-player budget.
    pub budget: f64,
    /// Base fault spec in `--faults` grammar (empty when none).
    pub faults: String,
}

/// One quantum's ledger entry.
#[derive(Debug, Clone)]
pub struct LedgerRecord<'a> {
    /// Quantum index.
    pub quantum: usize,
    /// Phase the quantum ran in.
    pub phase: &'a str,
    /// Events that fired this quantum, in declaration order.
    pub events: &'a [String],
    /// Player presence this quantum.
    pub active: &'a [bool],
    /// Effective budgets of the active players.
    pub budgets: &'a [f64],
    /// Row-major full allocation (zero rows for inactive players).
    pub allocation: &'a [f64],
    /// Instantaneous weighted speedup.
    pub efficiency: f64,
    /// Envy-freeness of the quantum's allocation.
    pub envy_freeness: f64,
    /// Whether the solve degraded.
    pub degraded: bool,
    /// Whether the quantum fell back to EqualShare.
    pub fallback: bool,
    /// Whether the solve converged.
    pub converged: bool,
}

/// An in-progress or sealed ledger.
#[derive(Debug, Clone)]
pub struct Ledger {
    text: String,
    records: usize,
    sealed: bool,
}

impl Ledger {
    /// Starts a ledger with its header and meta section.
    #[must_use]
    pub fn new(meta: &LedgerMeta) -> Self {
        let mut text = String::new();
        text.push_str(HEADER);
        text.push('\n');
        text.push_str("[meta]\n");
        text.push_str(&format!("scenario={}\n", meta.scenario));
        text.push_str(&format!("seed={}\n", meta.seed));
        text.push_str(&format!("mechanism={}\n", meta.mechanism));
        text.push_str(&format!("workload={}\n", meta.workload));
        text.push_str(&format!("cores={}\n", meta.cores));
        text.push_str(&format!("resources={}\n", meta.resources));
        text.push_str(&format!("quanta={}\n", meta.quanta));
        text.push_str(&format!("budget={}\n", f64_hex(meta.budget)));
        if !meta.faults.is_empty() {
            text.push_str(&format!("faults={}\n", meta.faults));
        }
        Self {
            text,
            records: 0,
            sealed: false,
        }
    }

    /// Appends one quantum record, closing it with the chain hash of all
    /// preceding bytes.
    ///
    /// # Panics
    ///
    /// Panics if the ledger is already sealed — records are append-only
    /// and the seal is final.
    pub fn append(&mut self, record: &LedgerRecord) {
        let mut fields: Vec<(&str, String)> = Vec::with_capacity(10);
        fields.push(("phase", record.phase.to_string()));
        if !record.events.is_empty() {
            fields.push(("events", record.events.join(";")));
        }
        let mask: String = record
            .active
            .iter()
            .map(|&a| if a { '1' } else { '0' })
            .collect();
        fields.push(("active", mask));
        fields.push(("budgets", hex_list(record.budgets)));
        fields.push(("alloc", hex_list(record.allocation)));
        fields.push(("eff", f64_hex(record.efficiency)));
        fields.push(("envy", f64_hex(record.envy_freeness)));
        fields.push(("degraded", u8::from(record.degraded).to_string()));
        fields.push(("fallback", u8::from(record.fallback).to_string()));
        fields.push(("converged", u8::from(record.converged).to_string()));
        self.append_section(record.quantum, &fields);
    }

    /// Appends one `[quantum N]` record with caller-supplied `key=value`
    /// fields, closing it with the chain hash of all preceding bytes.
    ///
    /// This is the raw record surface behind [`Ledger::append`]: other
    /// producers (the online server's tick records) write their own field
    /// sets while staying inside the chained, auditable format that
    /// [`verify`] checks.
    ///
    /// # Panics
    ///
    /// Panics if the ledger is sealed, if a key is empty, shadows the
    /// reserved `chain` key, or contains `=`/newlines, or if a value
    /// contains newlines — all programming errors that would corrupt the
    /// line-oriented format.
    pub fn append_section(&mut self, quantum: usize, fields: &[(&str, String)]) {
        assert!(!self.sealed, "cannot append to a sealed ledger");
        self.text.push_str(&format!("[quantum {quantum}]\n"));
        for (key, value) in fields {
            assert!(
                !key.is_empty() && *key != "chain" && !key.contains(['=', '\n']),
                "invalid ledger field key {key:?}"
            );
            assert!(
                !value.contains('\n'),
                "ledger field {key} value has newline"
            );
            self.text.push_str(&format!("{key}={value}\n"));
        }
        let chain = fnv1a(self.text.as_bytes());
        self.text.push_str(&format!("chain={chain:016x}\n"));
        self.records += 1;
    }

    /// Seals the ledger with its record count and whole-file checksum.
    /// Idempotent no-op if already sealed.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.text.push_str("[seal]\n");
        self.text.push_str(&format!("records={}\n", self.records));
        let sum = fnv1a(self.text.as_bytes());
        self.text.push_str(&format!("fnv1a={sum:016x}\n"));
        self.sealed = true;
    }

    /// The ledger text so far.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Records appended so far.
    #[must_use]
    pub fn records(&self) -> usize {
        self.records
    }

    /// Writes the sealed ledger to a **new** file — an existing file is an
    /// error, because ledgers are immutable audit artifacts, never
    /// overwritten.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::LedgerExists`] naming the offending path when the
    /// file already exists; [`ScenarioError::Io`] for any other
    /// filesystem failure.
    pub fn write_new(&self, path: &Path) -> Result<(), ScenarioError> {
        use std::io::Write;
        let mut f = create_new_ledger_file(path)?;
        f.write_all(self.text.as_bytes())?;
        f.sync_all()?;
        Ok(())
    }

    /// Reconstructs an **unsealed** ledger from previously written text,
    /// so an interrupted producer (the online server after a crash) can
    /// keep appending where it left off.
    ///
    /// The text must be a fully chain-valid, unsealed ledger — i.e.
    /// exactly the [`valid_prefix`] of itself. Callers recovering from a
    /// torn tail should truncate to `valid_prefix(text)` first.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Ledger`] when the text is sealed, has a torn or
    /// tampered tail, or lacks a valid header.
    pub fn resume(text: &str) -> Result<Self, ScenarioError> {
        let prefix = valid_prefix(text);
        if prefix.header_bytes == 0 {
            return Err(ScenarioError::Ledger {
                line: 1,
                reason: "cannot resume: missing or malformed ledger header".into(),
            });
        }
        if prefix.sealed {
            return Err(ScenarioError::Ledger {
                line: text.lines().count(),
                reason: "cannot resume a sealed ledger (the seal is final)".into(),
            });
        }
        if prefix.bytes != text.len() {
            return Err(ScenarioError::Ledger {
                line: text[..prefix.bytes].lines().count() + 1,
                reason: format!(
                    "cannot resume: torn or tampered tail after byte {} \
                     (truncate to the valid prefix first)",
                    prefix.bytes
                ),
            });
        }
        Ok(Self {
            text: text.to_string(),
            records: prefix.records,
            sealed: false,
        })
    }
}

/// Opens `path` with `create_new`, mapping an existing-file collision to
/// the named [`ScenarioError::LedgerExists`]. Shared by every ledger
/// producer (scenario runs, the online server) so the collision is always
/// a typed, actionable error rather than a raw [`ScenarioError::Io`].
pub fn create_new_ledger_file(path: &Path) -> Result<std::fs::File, ScenarioError> {
    std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)
        .map_err(|e| {
            if e.kind() == std::io::ErrorKind::AlreadyExists {
                ScenarioError::LedgerExists {
                    path: path.to_path_buf(),
                }
            } else {
                ScenarioError::Io(e)
            }
        })
}

/// The longest cryptographically-consistent prefix of a ledger file: the
/// header/meta section plus every leading record whose `chain=` hash
/// matches the bytes before it, stopping at the first torn, tampered, or
/// malformed line.
///
/// This is the crash-recovery primitive: a producer killed mid-append
/// leaves a torn tail, and because each chain hashes *all* preceding
/// bytes, truncating to `bytes` restores a valid ledger that
/// [`Ledger::resume`] can continue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerPrefix {
    /// Bytes in the valid prefix (a safe truncation point).
    pub bytes: usize,
    /// Whole records inside the valid prefix.
    pub records: usize,
    /// Byte length of the header + meta section (the valid prefix with
    /// zero records). Zero when even the header line is bad.
    pub header_bytes: usize,
    /// Byte offset just past each valid record's `chain=` line —
    /// `record_ends[k]` truncates the ledger to `k + 1` records.
    pub record_ends: Vec<usize>,
    /// Whether the prefix ends in a complete, checksum-valid seal.
    pub sealed: bool,
}

/// Computes the [`LedgerPrefix`] of `text`. Never errors: a hopeless
/// input simply yields a zero-byte prefix.
#[must_use]
pub fn valid_prefix(text: &str) -> LedgerPrefix {
    let mut prefix = LedgerPrefix {
        bytes: 0,
        records: 0,
        header_bytes: 0,
        record_ends: Vec::new(),
        sealed: false,
    };
    let bytes = text.as_bytes();
    let mut offset = 0usize;
    let mut first = true;
    // Are we inside the header/meta section (before the first record)?
    let mut in_meta = true;
    for line in text.split_inclusive('\n') {
        let complete = line.ends_with('\n');
        let content = line.trim_end_matches('\n');
        if first {
            if !(complete && content == HEADER) {
                return prefix;
            }
            first = false;
            offset += line.len();
            prefix.bytes = offset;
            prefix.header_bytes = offset;
            continue;
        }
        if !complete {
            // Torn final line: everything before it already stands.
            return prefix;
        }
        if content == "[seal]" || content.starts_with("records=") {
            // Seal in progress; only a valid fnv1a line below completes it.
            offset += line.len();
            continue;
        }
        if let Some(rest) = content.strip_prefix("fnv1a=") {
            let valid = u64::from_str_radix(rest, 16)
                .map(|want| fnv1a(&bytes[..offset]) == want)
                .unwrap_or(false);
            if valid {
                offset += line.len();
                prefix.bytes = offset;
                prefix.sealed = true;
            }
            return prefix;
        }
        if let Some(rest) = content.strip_prefix("chain=") {
            let valid = u64::from_str_radix(rest, 16)
                .map(|want| fnv1a(&bytes[..offset]) == want)
                .unwrap_or(false);
            if !valid {
                return prefix;
            }
            offset += line.len();
            prefix.bytes = offset;
            prefix.records += 1;
            prefix.record_ends.push(offset);
            continue;
        }
        if content.starts_with("[quantum ") {
            in_meta = false;
        } else if in_meta {
            // Meta lines carry no checksum; they stand with the header.
            offset += line.len();
            prefix.bytes = offset;
            prefix.header_bytes = offset;
            continue;
        }
        // A record body line: provisional until its chain validates.
        offset += line.len();
    }
    prefix
}

/// What [`verify`] found in a well-formed ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerSummary {
    /// Scenario name from the meta section.
    pub scenario: String,
    /// Number of quantum records.
    pub records: usize,
    /// The seal checksum.
    pub fnv1a: u64,
}

/// Verifies a ledger's header, every chain hash, and the seal.
///
/// Any truncation or in-place edit fails at the first record whose chain
/// no longer matches the bytes before it.
///
/// # Errors
///
/// [`ScenarioError::Ledger`] with the 1-based line of the first offence.
pub fn verify(text: &str) -> Result<LedgerSummary, ScenarioError> {
    let bad = |line: usize, reason: String| ScenarioError::Ledger { line, reason };
    let mut scenario = String::new();
    let mut records = 0usize;
    let mut sealed_records: Option<usize> = None;
    let mut seal_sum: Option<u64> = None;
    // Byte offset of the start of the current line.
    let mut offset = 0usize;
    let mut first = true;
    for (idx, line) in text.split_inclusive('\n').enumerate() {
        let lineno = idx + 1;
        let content = line.trim_end_matches('\n');
        if first {
            if content != HEADER {
                return Err(bad(
                    1,
                    format!("bad header '{content}' (expected '{HEADER}')"),
                ));
            }
            first = false;
        } else if let Some(rest) = content.strip_prefix("scenario=") {
            scenario = rest.to_string();
        } else if content.starts_with("[quantum ") {
            records += 1;
        } else if let Some(rest) = content.strip_prefix("chain=") {
            let want = u64::from_str_radix(rest, 16)
                .map_err(|_| bad(lineno, format!("malformed chain hash '{rest}'")))?;
            let got = fnv1a(&text.as_bytes()[..offset]);
            if got != want {
                return Err(bad(
                    lineno,
                    format!(
                        "chain mismatch: record {} hashes to {got:016x}, ledger says \
                         {want:016x} (tampered or truncated upstream)",
                        records.saturating_sub(1)
                    ),
                ));
            }
        } else if let Some(rest) = content.strip_prefix("records=") {
            sealed_records = Some(
                rest.parse()
                    .map_err(|_| bad(lineno, format!("malformed record count '{rest}'")))?,
            );
        } else if let Some(rest) = content.strip_prefix("fnv1a=") {
            let want = u64::from_str_radix(rest, 16)
                .map_err(|_| bad(lineno, format!("malformed seal hash '{rest}'")))?;
            let got = fnv1a(&text.as_bytes()[..offset]);
            if got != want {
                return Err(bad(
                    lineno,
                    format!("seal mismatch: ledger hashes to {got:016x}, seal says {want:016x}"),
                ));
            }
            seal_sum = Some(want);
        }
        offset += line.len();
    }
    let lines = text.lines().count();
    let Some(sum) = seal_sum else {
        return Err(bad(
            lines.max(1),
            "ledger is not sealed (truncated?)".into(),
        ));
    };
    match sealed_records {
        Some(n) if n == records => Ok(LedgerSummary {
            scenario,
            records,
            fnv1a: sum,
        }),
        Some(n) => Err(bad(
            lines.max(1),
            format!("seal claims {n} records, ledger holds {records}"),
        )),
        None => Err(bad(lines.max(1), "seal is missing its record count".into())),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample() -> Ledger {
        let mut ledger = Ledger::new(&LedgerMeta {
            scenario: "test".into(),
            seed: 7,
            mechanism: "rebudget".into(),
            workload: "cpbn".into(),
            cores: 2,
            resources: 2,
            quanta: 2,
            budget: 100.0,
            faults: String::new(),
        });
        for q in 0..2 {
            ledger.append(&LedgerRecord {
                quantum: q,
                phase: "steady",
                events: &[],
                active: &[true, true],
                budgets: &[100.0, 100.0],
                allocation: &[8.0, 40.0, 8.0, 40.0],
                efficiency: 1.5,
                envy_freeness: 1.0,
                degraded: false,
                fallback: false,
                converged: true,
            });
        }
        ledger.seal();
        ledger
    }

    #[test]
    fn verify_accepts_a_sealed_ledger() {
        let ledger = sample();
        let summary = verify(ledger.text()).unwrap();
        assert_eq!(summary.scenario, "test");
        assert_eq!(summary.records, 2);
    }

    #[test]
    fn verify_rejects_tampering_and_truncation() {
        let ledger = sample();
        let text = ledger.text();

        // Flip one hex digit of the first allocation value.
        let tampered = text.replacen("alloc=4020", "alloc=4021", 1);
        assert_ne!(tampered, text);
        match verify(&tampered).unwrap_err() {
            ScenarioError::Ledger { reason, .. } => {
                assert!(reason.contains("chain mismatch"), "{reason}");
            }
            other => panic!("expected Ledger, got {other:?}"),
        }

        // Drop the seal.
        let truncated = &text[..text.rfind("[seal]").unwrap()];
        assert!(matches!(
            verify(truncated).unwrap_err(),
            ScenarioError::Ledger { .. }
        ));

        // Remove a whole record (chain of the next record breaks).
        let second = text.find("[quantum 1]").unwrap();
        let seal = text.find("[seal]").unwrap();
        let gutted = format!("{}{}", &text[..second], &text[seal..]);
        assert!(matches!(
            verify(&gutted).unwrap_err(),
            ScenarioError::Ledger { .. }
        ));

        // Bad header.
        assert!(matches!(
            verify("nonsense\n").unwrap_err(),
            ScenarioError::Ledger { line: 1, .. }
        ));
    }

    #[test]
    fn write_new_collision_is_a_named_error() {
        let dir = std::env::temp_dir().join(format!("rebudget-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("collision.ledger");
        let ledger = sample();
        ledger.write_new(&path).unwrap();
        // Regression: the second write used to surface a raw io::Error;
        // it must name the colliding path instead.
        match ledger.write_new(&path).unwrap_err() {
            ScenarioError::LedgerExists { path: p } => assert_eq!(p, path),
            other => panic!("expected LedgerExists, got {other}"),
        }
        let msg = ledger.write_new(&path).unwrap_err().to_string();
        assert!(msg.contains("collision.ledger"), "{msg}");
        assert!(msg.contains("immutable"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_section_matches_typed_append_bytes() {
        let meta = LedgerMeta {
            scenario: "raw".into(),
            seed: 1,
            mechanism: "m".into(),
            workload: "w".into(),
            cores: 1,
            resources: 1,
            quanta: 1,
            budget: 1.0,
            faults: String::new(),
        };
        let mut typed = Ledger::new(&meta);
        typed.append(&LedgerRecord {
            quantum: 0,
            phase: "p",
            events: &[],
            active: &[true],
            budgets: &[1.0],
            allocation: &[1.0],
            efficiency: 1.0,
            envy_freeness: 1.0,
            degraded: false,
            fallback: false,
            converged: true,
        });
        let mut raw = Ledger::new(&meta);
        raw.append_section(
            0,
            &[
                ("phase", "p".into()),
                ("active", "1".into()),
                ("budgets", f64_hex(1.0)),
                ("alloc", f64_hex(1.0)),
                ("eff", f64_hex(1.0)),
                ("envy", f64_hex(1.0)),
                ("degraded", "0".into()),
                ("fallback", "0".into()),
                ("converged", "1".into()),
            ],
        );
        assert_eq!(typed.text(), raw.text());
        assert_eq!(typed.records(), raw.records());
    }

    #[test]
    fn valid_prefix_finds_truncation_points() {
        let mut ledger = sample();
        let sealed_text = ledger.text().to_string();
        // Sealed ledger: the whole file is the prefix.
        let p = valid_prefix(&sealed_text);
        assert_eq!(p.bytes, sealed_text.len());
        assert_eq!(p.records, 2);
        assert!(p.sealed);
        assert_eq!(p.record_ends.len(), 2);

        // An unsealed ledger with a torn tail (mid-record kill): the
        // prefix stops at the last complete record.
        ledger = {
            let mut l = Ledger::new(&LedgerMeta {
                scenario: "torn".into(),
                seed: 7,
                mechanism: "rebudget".into(),
                workload: "cpbn".into(),
                cores: 2,
                resources: 2,
                quanta: 2,
                budget: 100.0,
                faults: String::new(),
            });
            for q in 0..2 {
                l.append(&LedgerRecord {
                    quantum: q,
                    phase: "steady",
                    events: &[],
                    active: &[true, true],
                    budgets: &[100.0, 100.0],
                    allocation: &[8.0, 40.0, 8.0, 40.0],
                    efficiency: 1.5,
                    envy_freeness: 1.0,
                    degraded: false,
                    fallback: false,
                    converged: true,
                });
            }
            l
        };
        let clean = ledger.text().to_string();
        let p = valid_prefix(&clean);
        assert_eq!(p.bytes, clean.len());
        assert_eq!(p.records, 2);
        assert!(!p.sealed);
        // Tear the file mid-second-record: prefix = exactly record 1.
        let torn = &clean[..p.record_ends[0] + 17];
        let tp = valid_prefix(torn);
        assert_eq!(tp.bytes, p.record_ends[0]);
        assert_eq!(tp.records, 1);
        // Truncating to any record count reproduces a resumable ledger.
        let resumed = Ledger::resume(&clean[..tp.bytes]).unwrap();
        assert_eq!(resumed.records(), 1);
        // Header + meta only: still resumable with zero records.
        let meta_only = &clean[..p.header_bytes];
        let mp = valid_prefix(meta_only);
        assert_eq!(mp.bytes, meta_only.len());
        assert_eq!(mp.records, 0);
        assert_eq!(Ledger::resume(meta_only).unwrap().records(), 0);
        // Garbage: zero-byte prefix.
        assert_eq!(valid_prefix("nonsense\n").bytes, 0);
        assert_eq!(valid_prefix("").bytes, 0);
    }

    #[test]
    fn resume_continues_the_chain_byte_identically() {
        // Reference: three records appended in one sitting.
        let meta = LedgerMeta {
            scenario: "resume".into(),
            seed: 7,
            mechanism: "rebudget".into(),
            workload: "cpbn".into(),
            cores: 2,
            resources: 2,
            quanta: 3,
            budget: 100.0,
            faults: String::new(),
        };
        let record = |q: usize| LedgerRecord {
            quantum: q,
            phase: "steady",
            events: &[],
            active: &[true, true],
            budgets: &[100.0, 100.0],
            allocation: &[8.0, 40.0, 8.0, 40.0],
            efficiency: 1.5,
            envy_freeness: 1.0,
            degraded: false,
            fallback: false,
            converged: true,
        };
        let mut reference = Ledger::new(&meta);
        for q in 0..3 {
            reference.append(&record(q));
        }
        reference.seal();
        // Interrupted: two records, "crash", resume, third record, seal.
        let mut before = Ledger::new(&meta);
        before.append(&record(0));
        before.append(&record(1));
        let mut after = Ledger::resume(before.text()).unwrap();
        after.append(&record(2));
        after.seal();
        assert_eq!(reference.text(), after.text());
        verify(after.text()).unwrap();
    }

    #[test]
    fn resume_rejects_sealed_and_torn_ledgers() {
        let sealed = sample();
        assert!(matches!(
            Ledger::resume(sealed.text()).unwrap_err(),
            ScenarioError::Ledger { .. }
        ));
        let unsealed = {
            let mut l = Ledger::new(&LedgerMeta {
                scenario: "t".into(),
                seed: 1,
                mechanism: "m".into(),
                workload: "w".into(),
                cores: 1,
                resources: 1,
                quanta: 1,
                budget: 1.0,
                faults: String::new(),
            });
            l.append(&LedgerRecord {
                quantum: 0,
                phase: "p",
                events: &[],
                active: &[true],
                budgets: &[1.0],
                allocation: &[1.0],
                efficiency: 1.0,
                envy_freeness: 1.0,
                degraded: false,
                fallback: false,
                converged: true,
            });
            l
        };
        // Torn tail: drop the last 3 bytes.
        let torn = &unsealed.text()[..unsealed.text().len() - 3];
        assert!(matches!(
            Ledger::resume(torn).unwrap_err(),
            ScenarioError::Ledger { .. }
        ));
        assert!(matches!(
            Ledger::resume("junk\n").unwrap_err(),
            ScenarioError::Ledger { line: 1, .. }
        ));
    }

    #[test]
    fn floats_are_bit_exact_and_event_lines_optional() {
        let mut ledger = Ledger::new(&LedgerMeta {
            scenario: "t".into(),
            seed: 1,
            mechanism: "balanced".into(),
            workload: "ccpp".into(),
            cores: 2,
            resources: 2,
            quanta: 1,
            budget: 0.1 + 0.2, // not representable exactly in decimal
            faults: "noise=0.1,seed=3".into(),
        });
        let events = vec!["onset".to_string(), "shock".to_string()];
        ledger.append(&LedgerRecord {
            quantum: 0,
            phase: "p",
            events: &events,
            active: &[true, false],
            budgets: &[100.0],
            allocation: &[16.0, 80.0, 0.0, 0.0],
            efficiency: std::f64::consts::PI,
            envy_freeness: f64::INFINITY,
            degraded: true,
            fallback: false,
            converged: false,
        });
        ledger.seal();
        let text = ledger.text();
        assert!(text.contains(&format!("budget={}", f64_hex(0.1 + 0.2))));
        assert!(text.contains("events=onset;shock"));
        assert!(text.contains("active=10"));
        assert!(text.contains(&format!("envy={}", f64_hex(f64::INFINITY))));
        verify(text).unwrap();
    }
}
