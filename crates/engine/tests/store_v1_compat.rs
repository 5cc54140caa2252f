//! Backwards compatibility of the persistent store: a checked-in store
//! tree written by the v1 (plain JSON) format must keep serving warm
//! replays through the v2 code path with zero fresh solves, and
//! `recompress` must migrate it in place without changing any report.
//!
//! Two fixture trees hold the smoke suite's eight entries in the v1
//! container. `v1_store` was written by the current solver revision.
//! `v1_store_rev1` is a store exactly as the dense-KKT builds left it
//! (solver revision 1, recorded by the absence of `solver_revision`): an
//! upgrade must re-solve its entries, never serve them.

use bbs_engine::suites::smoke_suite;
use bbs_engine::{run_suite_with_cache, RunSettings, SolveCache, SolveStore, SuiteReport};
use std::fs;
use std::path::{Path, PathBuf};

/// A unique, self-cleaning scratch directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "bbs-v1-compat-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&path);
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Copies the checked-in v1 fixture tree into a scratch directory, so the
/// test can mutate (recompress) it freely.
fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), &target).unwrap();
        }
    }
}

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1_store")
}

fn revision_1_fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1_store_rev1")
}

#[test]
fn v1_store_trees_replay_warm_and_recompress_in_place() {
    let directory = TempDir::new("replay");
    copy_tree(&fixture_root(), directory.path());
    let settings = RunSettings::default();
    let suite = smoke_suite();

    // The fixture was written by the v1 format: all entries plain JSON.
    let store = SolveStore::open_existing(directory.path()).unwrap();
    let before = store.summary().unwrap();
    assert_eq!(before.entries, 8, "fixture covers the whole smoke suite");
    assert_eq!(before.v1_entries, 8);
    assert_eq!(before.v2_entries, 0);

    // Warm replay through the v2 code path: every solve is a disk hit.
    let cache = SolveCache::with_store(store);
    let outcome = run_suite_with_cache(&suite, &settings, &cache).unwrap();
    let stats = cache.store().unwrap().stats();
    assert_eq!(stats.fresh_solves, 0, "a v1 store must stay fully warm");
    assert_eq!(stats.disk_hits, 8);
    assert_eq!(stats.rejected, 0);
    let replayed = SuiteReport::from_outcome(&outcome).to_json();

    // Migrate in place: every v1 entry becomes a v2 container, none lost.
    let store = SolveStore::open_existing(directory.path()).unwrap();
    let migrated = store.recompress().unwrap();
    assert_eq!(migrated.migrated, 8);
    assert_eq!(migrated.already_current, 0);
    assert_eq!(migrated.corrupt, 0);
    assert_eq!(migrated.failed, 0);
    let after = store.summary().unwrap();
    assert_eq!(after.entries, 8);
    assert_eq!(after.v1_entries, 0);
    assert_eq!(after.v2_entries, 8);
    // The bodies are preserved verbatim, so the logical content is
    // unchanged even though the on-disk representation moved.
    assert_eq!(after.logical_bytes, before.logical_bytes);

    // The migrated store is still fully warm and reports byte-identically.
    let cache = SolveCache::with_store(SolveStore::open_existing(directory.path()).unwrap());
    let outcome = run_suite_with_cache(&suite, &settings, &cache).unwrap();
    let stats = cache.store().unwrap().stats();
    assert_eq!(stats.fresh_solves, 0, "recompression must not evict");
    assert_eq!(stats.disk_hits, 8);
    assert_eq!(SuiteReport::from_outcome(&outcome).to_json(), replayed);

    // And both match a store-free run byte for byte.
    let reference = run_suite_with_cache(&suite, &settings, &SolveCache::new()).unwrap();
    assert_eq!(SuiteReport::from_outcome(&reference).to_json(), replayed);
}

#[test]
fn a_v1_entry_is_superseded_by_its_v2_rewrite() {
    let directory = TempDir::new("supersede");
    copy_tree(&fixture_root(), directory.path());

    // Evict one v1 entry's body so the next run re-solves and re-stores
    // that key — through the v2 write path.
    let store = SolveStore::open_existing(directory.path()).unwrap();
    let victim = store.entries().unwrap().remove(0);
    assert_eq!(victim.version, 1);
    fs::write(&victim.path, "{truncated garbage").unwrap();

    let cache = SolveCache::with_store(SolveStore::open_existing(directory.path()).unwrap());
    run_suite_with_cache(&smoke_suite(), &RunSettings::default(), &cache).unwrap();
    let stats = cache.store().unwrap().stats();
    assert_eq!(stats.fresh_solves, 1);
    assert_eq!(stats.stored, 1);

    // The rewrite landed in the v2 tree and removed the v1 file.
    assert!(!victim.path.exists(), "superseded v1 file must be removed");
    let summary = SolveStore::open_existing(directory.path())
        .unwrap()
        .summary()
        .unwrap();
    assert_eq!(summary.entries, 8);
    assert_eq!(summary.v1_entries, 7);
    assert_eq!(summary.v2_entries, 1);
    assert_eq!(summary.corrupt, 0);
}

#[test]
fn a_store_from_an_older_solver_revision_is_re_solved_and_superseded() {
    let directory = TempDir::new("revision-1");
    copy_tree(&revision_1_fixture_root(), directory.path());
    let settings = RunSettings::default();
    let suite = smoke_suite();
    let store = SolveStore::open_existing(directory.path()).unwrap();
    let before = store.summary().unwrap();
    assert_eq!((before.entries, before.v1_entries), (8, 8));

    // Every entry is stale: a plain miss, re-solved, never a rejection.
    let cache = SolveCache::with_store(store);
    let outcome = run_suite_with_cache(&suite, &settings, &cache).unwrap();
    let stats = cache.store().unwrap().stats();
    assert_eq!(
        stats.fresh_solves, 8,
        "revision-1 entries must not be served"
    );
    assert_eq!(stats.disk_hits, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.stored, 8);
    let upgraded = SuiteReport::from_outcome(&outcome).to_json();

    // The re-solves superseded every v1 file with a v2 entry.
    let after = SolveStore::open_existing(directory.path())
        .unwrap()
        .summary()
        .unwrap();
    assert_eq!(after.entries, 8);
    assert_eq!(after.v1_entries, 0);
    assert_eq!(after.v2_entries, 8);
    assert_eq!(after.corrupt, 0);

    // The upgraded report is the cold one, byte for byte, and the store is
    // warm from then on.
    let reference = run_suite_with_cache(&suite, &settings, &SolveCache::new()).unwrap();
    assert_eq!(SuiteReport::from_outcome(&reference).to_json(), upgraded);
    let cache = SolveCache::with_store(SolveStore::open_existing(directory.path()).unwrap());
    let outcome = run_suite_with_cache(&suite, &settings, &cache).unwrap();
    let stats = cache.store().unwrap().stats();
    assert_eq!((stats.fresh_solves, stats.disk_hits), (0, 8));
    assert_eq!(SuiteReport::from_outcome(&outcome).to_json(), upgraded);
}
