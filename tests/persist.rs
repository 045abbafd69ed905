//! Persistence contract of the tiered compile cache, exercised through
//! the [`CompileService`] facade the daemon and CLI share: a cache
//! directory outlives the process that filled it, corruption degrades
//! to a counted recompute (never a panic), a stale payload format reads
//! as an honest miss, and two concurrently open services share one
//! directory through atomic write-then-rename.

use clasp::{CompileRequest, CompileService, ServiceConfig, ServiceRequest};
use std::fs;
use std::path::{Path, PathBuf};

const LOOP: &str = "loop dot\n\nop n0 load\nop n1 load\nop n2 fmul\nop n3 fadd\n\ndep n0 -> n2\ndep n1 -> n2\ndep n2 -> n3\ndep n3 -> n3 @1\n";
const OTHER_LOOP: &str =
    "loop chain\n\nop n0 load\nop n1 alu\nop n2 alu\n\ndep n0 -> n1\ndep n1 -> n2\n";

fn machine_text() -> String {
    clasp_text::write_machine(&clasp_machine::presets::two_cluster_gp(2, 1))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clasp-persist-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn service_at(dir: &Path) -> CompileService {
    CompileService::new(ServiceConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    })
    .expect("open cache dir")
}

/// Every regular file under the shard directories (depth 2).
fn shard_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for shard in fs::read_dir(dir).into_iter().flatten().flatten() {
        if shard.path().is_dir() {
            for entry in fs::read_dir(shard.path()).into_iter().flatten().flatten() {
                if entry.path().is_file() {
                    files.push(entry.path());
                }
            }
        }
    }
    files
}

#[test]
fn restart_is_served_from_disk_bit_identically() {
    let dir = tmpdir("restart");
    let sreq = ServiceRequest::new(LOOP, machine_text());

    // "Process one": computes, persists, dies.
    let cold_reply = {
        let service = service_at(&dir);
        let reply = service.handle(&sreq).render();
        let stats = service.tiered_stats();
        assert_eq!(stats.disk.misses, 1, "cold lookup consults the tier");
        assert_eq!(stats.disk.stores, 1, "computed result is persisted");
        reply
    };
    assert!(!shard_files(&dir).is_empty(), "shard file written");

    // "Process two": same directory, same request — promotion, not
    // recompute, and the reply is the same bytes.
    let service = service_at(&dir);
    let warm_reply = service.handle(&sreq).render();
    assert_eq!(
        cold_reply, warm_reply,
        "persisted reply must be bit-identical"
    );
    let stats = service.tiered_stats();
    assert_eq!((stats.disk.hits, stats.promotions), (1, 1));
    assert_eq!(stats.disk.misses, 0);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_shard_degrades_to_a_counted_recompute() {
    let dir = tmpdir("truncate");
    let sreq = ServiceRequest::new(LOOP, machine_text());
    let reply = service_at(&dir).handle(&sreq).render();

    // Chop the payload mid-file: the header's declared length no longer
    // matches, which must read as corruption, not a panic.
    let files = shard_files(&dir);
    assert_eq!(files.len(), 1);
    let bytes = fs::read(&files[0]).unwrap();
    fs::write(&files[0], &bytes[..bytes.len() / 2]).unwrap();

    let service = service_at(&dir);
    let recomputed = service.handle(&sreq).render();
    assert_eq!(reply, recomputed, "recompute yields the canonical reply");
    let stats = service.tiered_stats();
    assert_eq!(stats.disk.hits, 0, "corrupt entry must not hit");
    assert!(stats.disk.errors >= 1, "corruption is counted: {stats:?}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_format_tag_reads_as_a_miss_not_corruption() {
    let dir = tmpdir("stale");
    let sreq = ServiceRequest::new(LOOP, machine_text());
    service_at(&dir).handle(&sreq);

    // Rewrite the entry under an older format tag, keeping it
    // well-formed: a future codec bump must treat yesterday's cache as
    // stale (miss), never as corrupt (error).
    let files = shard_files(&dir);
    assert_eq!(files.len(), 1);
    let bytes = fs::read(&files[0]).unwrap();
    let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
    let header = std::str::from_utf8(&bytes[..newline]).unwrap();
    assert!(header.contains(clasp::ARTIFACT_FORMAT), "{header}");
    let stale = header.replace(clasp::ARTIFACT_FORMAT, "clasp-artifact/0");
    let mut out = stale.into_bytes();
    out.push(b'\n');
    out.extend_from_slice(&bytes[newline + 1..]);
    fs::write(&files[0], out).unwrap();

    let service = service_at(&dir);
    assert!(service.handle(&sreq).outcome.is_ok());
    let stats = service.tiered_stats();
    assert_eq!(stats.disk.errors, 0, "stale is not corrupt: {stats:?}");
    assert_eq!(stats.disk.misses, 1);
    assert_eq!(stats.disk.stores, 1, "fresh result re-persisted");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn two_open_services_share_one_directory() {
    let dir = tmpdir("shared");
    let a = service_at(&dir);
    let b = service_at(&dir);
    let first = ServiceRequest::new(LOOP, machine_text());
    let second = ServiceRequest::new(OTHER_LOOP, machine_text());

    // A computes the first loop; B is served by promotion.
    let from_a = a.handle(&first).render();
    assert_eq!(b.handle(&first).render(), from_a);
    assert_eq!(b.tiered_stats().disk.hits, 1);

    // And the other way round, within the same two lifetimes.
    let from_b = b.handle(&second).render();
    assert_eq!(a.handle(&second).render(), from_b);
    assert_eq!(a.tiered_stats().disk.hits, 1);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn the_canonical_key_and_its_shard_path_are_pinned() {
    // The key names every persisted entry's file, so a silent change to
    // its derivation would orphan every existing cache directory.
    const KEY: &str = "a3f836d59e127371fd331634dc42e437";
    let g = clasp_text::parse_loop(LOOP).unwrap();
    let machine = clasp_machine::presets::two_cluster_gp(2, 1);
    let key = CompileService::key(&g, &machine, &CompileRequest::default());
    assert_eq!(key.to_string(), KEY);

    let dir = tmpdir("pinned");
    service_at(&dir).handle(&ServiceRequest::new(LOOP, machine_text()));
    assert_eq!(shard_files(&dir), [dir.join(&KEY[..2]).join(KEY)]);
    let _ = fs::remove_dir_all(&dir);
}
