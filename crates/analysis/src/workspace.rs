//! Walks the workspace source tree and runs the lints over it.
//!
//! Only `crates/*/src/**/*.rs` is scanned: the vendored stubs under
//! `vendor/` are API shims, not product code, and the repo-root integration
//! tests are test-only by construction. Files are visited in sorted path
//! order so output and reports are deterministic.

use crate::rules::{analyze_source, stale_lock_entries, AnalysisConfig, AnalysisOutput};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source file: workspace-relative path (forward slashes) plus content.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: String,
    pub content: String,
}

/// Collects every `.rs` file under `crates/*/src` below `root`, sorted.
pub fn collect_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut files = Vec::new();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let content = fs::read_to_string(&path)?;
        out.push(SourceFile { path: rel, content });
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full analysis over a set of files, then flags the manifest
/// entries none of them names. Findings come back sorted by (path, line,
/// column, rule).
pub fn analyze_files(files: &[SourceFile], cfg: &AnalysisConfig) -> AnalysisOutput {
    let mut out = AnalysisOutput::default();
    for f in files {
        analyze_source(&f.path, &f.content, cfg, &mut out);
    }
    stale_lock_entries(cfg, &mut out);
    out.findings.sort();
    out
}
