//! Deterministic crash-torture harness for the serving layer's
//! durability subsystem.
//!
//! Three seeded fail-point matrices, each asserting the recovery
//! invariant: the recovered state is bit-for-bit equal to the pre-crash
//! state or to a declared-clean prefix of it — never silently wrong, and
//! never a panic.
//!
//! 1. **Kill at every operation boundary** — a multi-tenant session is
//!    replayed up to every prefix length, the daemon is dropped without
//!    any shutdown ceremony, and the restarted daemon's per-tenant
//!    snapshots must equal a reference engine that applied the same
//!    prefix.
//! 2. **Truncate at every byte offset** — a single tenant's journal tail
//!    is cut at every possible byte, and recovery must land exactly on
//!    the snapshot chain element the surviving records describe.
//! 3. **Flip bits under the checksum** — seeded single-bit flips across
//!    the journal and the checkpoint file must yield prefix recovery or
//!    a single-tenant quarantine, with other tenants untouched.

use mdr_core::hash::{fnv1a64, splitmix64_next};
use mdr_sim::engine::{ServeConfig, ServeEngine};
use mdr_sim::journal::{scan_journal, JournalOp, TailOutcome};
use mdr_sim::{DurableServe, FsyncPolicy, JournalConfig};
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mdr-torture-{tag}-{}-{}",
        std::process::id(),
        Box::leak(Box::new(0u8)) as *const u8 as usize,
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn journal_cfg(dir: &Path, checkpoint_every: u64) -> JournalConfig {
    JournalConfig {
        dir: dir.to_path_buf(),
        // `never`: the harness kills by dropping the process state, so
        // what recovery sees is exactly the bytes the OS has — fsync
        // cadence only matters for power loss, which a test cannot fake.
        fsync: FsyncPolicy::Never,
        checkpoint_every,
    }
}

/// The multi-tenant torture session: three tenants under different
/// policies, seed-driven request letters, a close, a reopen, and enough
/// decides to cross checkpoint boundaries.
fn session_lines(seed: u64) -> Vec<String> {
    let mut lines = vec![
        r#"{"op":"open","tenant":"sw","policy":"SW3"}"#.to_owned(),
        r#"{"op":"open","tenant":"t1","policy":"T1:2","model":"message:0.4"}"#.to_owned(),
        r#"{"op":"open","tenant":"st","policy":"ST2"}"#.to_owned(),
    ];
    let mut state = seed;
    for i in 0..60 {
        let tenant = ["sw", "t1", "st"][(splitmix64_next(&mut state) % 3) as usize];
        let letter = if splitmix64_next(&mut state) % 10 < 3 {
            "w"
        } else {
            "r"
        };
        lines.push(format!(
            r#"{{"op":"decide","tenant":"{tenant}","request":"{letter}"}}"#
        ));
        if i == 25 {
            lines.push(r#"{"op":"close","tenant":"st"}"#.to_owned());
        }
        if i == 40 {
            // Reopen the closed slot under a fresh policy.
            lines.push(r#"{"op":"open","tenant":"st","policy":"SW5"}"#.to_owned());
        }
    }
    lines
}

const TENANTS: [&str; 3] = ["sw", "t1", "st"];

/// One tenant's observable state, as the exact wire bytes of its
/// `snapshot` response (which embeds the full ActionCounts ledger), or
/// its typed error when the tenant is not open.
fn observe(handle: &mut dyn FnMut(&str) -> String) -> Vec<String> {
    TENANTS
        .iter()
        .map(|t| handle(&format!(r#"{{"op":"snapshot","tenant":"{t}"}}"#)))
        .collect()
}

/// FNV-1a digest over the observable state — the harness's "bit-for-bit"
/// summary.
fn digest(observation: &[String]) -> u64 {
    let mut bytes = Vec::new();
    for line in observation {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    fnv1a64(&bytes)
}

#[test]
fn kill_at_every_op_boundary_recovers_the_exact_prefix() {
    let lines = session_lines(0xD1CE);
    let config = ServeConfig {
        adaptive: true,
        ..ServeConfig::default()
    };

    // Reference chain: the observable state after every prefix, from a
    // plain in-memory engine (no disk involved).
    let mut reference = ServeEngine::new(config).expect("engine");
    let mut chain: Vec<(u64, Vec<String>)> = Vec::new();
    chain.push({
        let obs = observe(&mut |l| reference.handle_line(l));
        (digest(&obs), obs)
    });
    for line in &lines {
        reference.handle_line(line);
        let obs = observe(&mut |l| reference.handle_line(l));
        chain.push((digest(&obs), obs));
    }

    for crash_after in 0..=lines.len() {
        let dir = temp_dir("kill");
        {
            let (mut serve, _) = DurableServe::open(config, journal_cfg(&dir, 8)).expect("open");
            for line in &lines[..crash_after] {
                serve.handle_line(line);
            }
            // Hard kill: drop with no shutdown, no finalize.
        }
        let (mut serve, report) =
            DurableServe::open(config, journal_cfg(&dir, 8)).expect("recover");
        assert!(
            report.quarantined().is_empty(),
            "crash point {crash_after} quarantined {:?}",
            report.quarantined()
        );
        let obs = observe(&mut |l| serve.handle_line(l));
        let (expected_digest, expected_obs) = &chain[crash_after];
        assert_eq!(
            digest(&obs),
            *expected_digest,
            "crash point {crash_after}: recovered\n{obs:#?}\nexpected\n{expected_obs:#?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Builds a single-tenant directory whose journal holds the open record
/// plus `decides` decide records (no checkpoint — `checkpoint_every` is
/// out of reach), returning the journal bytes and the snapshot chain
/// (observable state after 0..=decides decisions).
fn single_tenant_fixture(decides: usize) -> (Vec<u8>, Vec<String>, Vec<String>) {
    let letters: Vec<&str> = (0..decides)
        .map(|i| if i % 3 == 0 { "w" } else { "r" })
        .collect();
    let lines: Vec<String> =
        std::iter::once(r#"{"op":"open","tenant":"t","policy":"SW3"}"#.to_owned())
            .chain(
                letters
                    .iter()
                    .map(|l| format!(r#"{{"op":"decide","tenant":"t","request":"{l}"}}"#)),
            )
            .collect();

    let mut reference = ServeEngine::new(ServeConfig::default()).expect("engine");
    // chain[d] = the snapshot response after the open plus d decisions.
    let mut chain = Vec::new();
    let dir = temp_dir("fixture");
    let (mut serve, _) =
        DurableServe::open(ServeConfig::default(), journal_cfg(&dir, 1 << 20)).expect("open");
    for line in &lines {
        serve.handle_line(line);
        reference.handle_line(line);
        chain.push(reference.handle_line(r#"{"op":"snapshot","tenant":"t"}"#));
    }
    let path = dir.join("tenants").join("t").join("journal.wal");
    let journal_bytes = fs::read(&path).expect("journal bytes");
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(chain.len(), decides + 1);
    (journal_bytes, chain, lines)
}

/// Plants `bytes` as tenant `t`'s journal in a fresh data dir.
fn plant_journal(bytes: &[u8]) -> PathBuf {
    let dir = temp_dir("plant");
    let tenant_dir = dir.join("tenants").join("t");
    fs::create_dir_all(&tenant_dir).expect("tenant dir");
    fs::write(tenant_dir.join("journal.wal"), bytes).expect("journal");
    dir
}

#[test]
fn truncation_at_every_byte_offset_recovers_a_declared_prefix() {
    const DECIDES: usize = 12;
    let (journal_bytes, chain, _) = single_tenant_fixture(DECIDES);

    for cut in 0..=journal_bytes.len() {
        let truncated = &journal_bytes[..cut];
        // The library's own scan declares which prefix survives; the
        // recovered *state* must then match that declaration exactly.
        let scan = scan_journal(truncated);
        let survivors = scan.records.len();

        let dir = plant_journal(truncated);
        let (mut serve, report) =
            DurableServe::open(ServeConfig::default(), journal_cfg(&dir, 1 << 20))
                .expect("recover");
        assert!(
            report.quarantined().is_empty(),
            "cut {cut} quarantined: {report:?}"
        );
        let snapshot = serve.handle_line(r#"{"op":"snapshot","tenant":"t"}"#);
        if survivors == 0 {
            // Not even the open survived: the clean prefix is "absent".
            assert!(snapshot.contains("unknown-tenant"), "cut {cut}: {snapshot}");
        } else {
            let decided = survivors - 1; // minus the open record
            assert_eq!(
                snapshot, chain[decided],
                "cut {cut}: expected the {decided}-decision snapshot"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn single_bit_flips_never_yield_silently_wrong_state() {
    const DECIDES: usize = 10;
    let (journal_bytes, chain, _) = single_tenant_fixture(DECIDES);

    // Every byte would be ~25k recoveries; a seeded sample of positions
    // (plus every bit of the first record) keeps the matrix dense where
    // the framing lives and bounded overall.
    let mut positions: Vec<(usize, u8)> = Vec::new();
    let first_record_len = 4 + 13 + 8; // len + (seq,kind,scalar) + check
    for byte in 0..first_record_len.min(journal_bytes.len()) {
        for bit in 0..8 {
            positions.push((byte, bit));
        }
    }
    let mut state = 0xB17F_11B5u64;
    for _ in 0..256 {
        let byte = (splitmix64_next(&mut state) as usize) % journal_bytes.len();
        let bit = (splitmix64_next(&mut state) % 8) as u8;
        positions.push((byte, bit));
    }

    for (byte, bit) in positions {
        let mut flipped = journal_bytes.clone();
        flipped[byte] ^= 1 << bit;
        let scan = scan_journal(&flipped);
        let survivors = scan.records.len();
        // The checksum guarantee: a flip under it can only shorten the
        // accepted prefix (or, in the length word, tear the tail) —
        // never smuggle a different record through.
        let original = scan_journal(&journal_bytes);
        assert!(
            survivors <= original.records.len(),
            "flip {byte}:{bit} grew the record count"
        );
        for (i, rec) in scan.records.iter().enumerate() {
            // Length-word flips can resync the scan only at a true
            // record boundary, where the records agree with the
            // originals; anything else must have been rejected.
            assert_eq!(
                rec, &original.records[i],
                "flip {byte}:{bit} altered record {i} undetected"
            );
        }

        let dir = plant_journal(&flipped);
        let (mut serve, report) =
            DurableServe::open(ServeConfig::default(), journal_cfg(&dir, 1 << 20))
                .expect("recover");
        let snapshot = serve.handle_line(r#"{"op":"snapshot","tenant":"t"}"#);
        if report.quarantined().is_empty() && survivors > 0 {
            assert_eq!(
                snapshot,
                chain[survivors - 1],
                "flip {byte}:{bit}: recovered state is not the declared prefix"
            );
        } else {
            // Quarantined (e.g. a flipped sequence number upstream of
            // valid records) or fully truncated: the tenant must be
            // absent, never half-applied.
            assert!(
                snapshot.contains("unknown-tenant"),
                "flip {byte}:{bit}: {snapshot}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_bit_flips_quarantine_only_the_owner() {
    // Two tenants, both checkpointed; flip bits in one's checkpoint.
    let dir = temp_dir("ckpt-flip");
    {
        let (mut serve, _) =
            DurableServe::open(ServeConfig::default(), journal_cfg(&dir, 4)).expect("open");
        for t in ["victim", "bystander"] {
            serve.handle_line(&format!(r#"{{"op":"open","tenant":"{t}","policy":"SW3"}}"#));
            for _ in 0..6 {
                serve.handle_line(&format!(
                    r#"{{"op":"decide","tenant":"{t}","request":"r"}}"#
                ));
            }
        }
        serve.finalize();
    }
    let victim_ckpt = dir.join("tenants").join("victim").join("checkpoint.ckpt");
    let pristine = fs::read(&victim_ckpt).expect("checkpoint bytes");
    let bystander_ckpt = dir
        .join("tenants")
        .join("bystander")
        .join("checkpoint.ckpt");
    let bystander_bytes = fs::read(&bystander_ckpt).expect("bystander checkpoint");

    let mut state = 0xC4A5_8F00u64;
    for _ in 0..64 {
        let byte = (splitmix64_next(&mut state) as usize) % pristine.len();
        let bit = (splitmix64_next(&mut state) % 8) as u8;
        let mut flipped = pristine.clone();
        flipped[byte] ^= 1 << bit;
        if flipped == pristine {
            continue;
        }

        let run = temp_dir("ckpt-case");
        for (t, ckpt) in [("victim", &flipped), ("bystander", &bystander_bytes)] {
            let td = run.join("tenants").join(t);
            fs::create_dir_all(&td).expect("tenant dir");
            fs::write(td.join("checkpoint.ckpt"), ckpt).expect("checkpoint");
        }
        let (mut serve, report) =
            DurableServe::open(ServeConfig::default(), journal_cfg(&run, 4)).expect("recover");
        // The flip either leaves a byte-identical-meaning file (it can
        // land in, say, trailing whitespace — impossible here since
        // every byte is load-bearing) or quarantines the victim alone.
        assert_eq!(
            report.quarantined(),
            vec!["victim"],
            "flip {byte}:{bit} did not quarantine the victim: {report:?}"
        );
        let bystander = serve.handle_line(r#"{"op":"stats","tenant":"bystander"}"#);
        assert!(
            bystander.contains("\"decided\":6"),
            "flip {byte}:{bit} harmed the bystander: {bystander}"
        );
        let victim = serve.handle_line(r#"{"op":"stats","tenant":"victim"}"#);
        assert!(victim.contains("unknown-tenant"), "{victim}");
        assert!(run.join("quarantine").join("victim").exists());
        let _ = fs::remove_dir_all(&run);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mid_record_kill_is_indistinguishable_from_truncation() {
    // A "kill mid-record" leaves a prefix of the frame on disk; recovery
    // must behave exactly as the truncation matrix proved. This case
    // additionally re-appends after recovery and proves the journal
    // stays consistent (sequence numbers continue past the checkpoint).
    const DECIDES: usize = 6;
    let (journal_bytes, chain, _) = single_tenant_fixture(DECIDES);
    let last_record_start = {
        let scan = scan_journal(&journal_bytes);
        assert_eq!(scan.outcome, TailOutcome::Clean);
        // Re-derive the last record's offset by scanning all but one byte.
        let torn = scan_journal(&journal_bytes[..journal_bytes.len() - 1]);
        match torn.outcome {
            TailOutcome::Torn { offset } => offset,
            other => panic!("expected torn, got {other:?}"),
        }
    };

    for cut in last_record_start + 1..journal_bytes.len() {
        let dir = plant_journal(&journal_bytes[..cut]);
        let (mut serve, report) =
            DurableServe::open(ServeConfig::default(), journal_cfg(&dir, 1 << 20))
                .expect("recover");
        assert!(report.quarantined().is_empty());
        let snapshot = serve.handle_line(r#"{"op":"snapshot","tenant":"t"}"#);
        assert_eq!(snapshot, chain[DECIDES - 1], "cut {cut}");

        // Continue the stream on the recovered daemon, then restart
        // once more: the re-appended decision must survive.
        serve.handle_line(r#"{"op":"decide","tenant":"t","request":"w"}"#);
        drop(serve);
        let (mut serve, report) =
            DurableServe::open(ServeConfig::default(), journal_cfg(&dir, 1 << 20))
                .expect("second recover");
        assert!(report.quarantined().is_empty());
        let stats = serve.handle_line(r#"{"op":"stats","tenant":"t"}"#);
        assert!(
            stats.contains(&format!("\"decided\":{DECIDES}")),
            "cut {cut}: {stats}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn scan_is_total_over_adversarial_bytes() {
    // Seeded garbage of many shapes: pure noise, noise with a valid
    // length prefix, and valid records followed by noise. The scan (and
    // recovery over it) must never panic and never over-allocate.
    let mut state = 0x5EED_F00Du64;
    for round in 0..64 {
        let len = (splitmix64_next(&mut state) % 200) as usize;
        let mut bytes: Vec<u8> = (0..len)
            .map(|_| splitmix64_next(&mut state) as u8)
            .collect();
        if round % 3 == 0 {
            let mut valid = mdr_sim::journal::encode_record(
                1,
                &JournalOp::Open {
                    policy: "SW3".to_owned(),
                    model: "connection".to_owned(),
                },
            );
            valid.extend_from_slice(&bytes);
            bytes = valid;
        }
        let scan = scan_journal(&bytes);
        assert!(scan.clean_len <= bytes.len());

        let dir = plant_journal(&bytes);
        let (mut serve, _) = DurableServe::open(ServeConfig::default(), journal_cfg(&dir, 1 << 20))
            .expect("recovery is total");
        // Whatever happened, the daemon serves.
        let resp = serve.handle_line(r#"{"op":"stats"}"#);
        assert!(resp.contains("server-stats"), "{resp}");
        let _ = fs::remove_dir_all(&dir);
    }
}
