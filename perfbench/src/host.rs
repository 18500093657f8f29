//! The host fingerprint stamped on every result.
//!
//! Two results are comparable only when they ran on the same kind of
//! host: same CPU count, CPU model, `rustc` and `cc`. The commit (or,
//! outside a git checkout, a hash of the sources) and the seed are
//! recorded too; they are what a comparison varies, not what makes it
//! meaningless.

use std::fs;
use std::path::Path;
use std::process::Command;

/// Where and on what a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// First line of `cc --version`.
    pub cc: String,
    /// `git rev-parse HEAD`, or `src-<hash>` of the sources outside git.
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
}

/// The fields that must match for two results to be compared.
pub const HOST_FIELDS: [&str; 4] = ["nproc", "cpu_model", "rustc", "cc"];

impl Fingerprint {
    /// Probe the current host. `root` is the checkout root.
    pub fn collect(root: &Path, seed: u64) -> Fingerprint {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let commit = first_line("git", &["rev-parse", "HEAD"], root)
            .unwrap_or_else(|| format!("src-{:016x}", source_hash(root)));
        Fingerprint {
            nproc: snap_core::workers::default_workers(),
            cpu_model,
            rustc: first_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into()),
            cc: first_line("cc", &["--version"], root).unwrap_or_else(|| "unknown".into()),
            commit,
            seed,
        }
    }

    /// Field name/value pairs, host fields first.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("cpu_model", self.cpu_model.clone()),
            ("rustc", self.rustc.clone()),
            ("cc", self.cc.clone()),
            ("commit", self.commit.clone()),
            ("seed", self.seed.to_string()),
        ]
    }

    /// The host fields on which `self` and `other` differ; empty means
    /// the two results are comparable.
    pub fn host_differences(&self, other: &Fingerprint) -> Vec<&'static str> {
        self.fields()
            .into_iter()
            .zip(other.fields())
            .filter(|((name, a), (_, b))| HOST_FIELDS.contains(name) && a != b)
            .map(|((name, _), _)| name)
            .collect()
    }

    /// As a JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields()
            .into_iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(&v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Read back from a parsed result file's `fingerprint` object.
    pub fn from_json(v: &serde::json::Value) -> Option<Fingerprint> {
        let obj = v.as_object()?;
        let field = |k: &str| obj.get(k).and_then(|x| x.as_str()).map(str::to_string);
        Some(Fingerprint {
            nproc: field("nproc")?.parse().ok()?,
            cpu_model: field("cpu_model")?,
            rustc: field("rustc")?,
            cc: field("cc")?,
            commit: field("commit")?,
            seed: field("seed")?.parse().ok()?,
        })
    }
}

/// First line of a command's stdout, if it ran and succeeded. The child
/// is always waited for.
fn first_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .next()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
}

/// FNV-1a over the workspace sources (`crates/**` and `Cargo.lock`),
/// visited in sorted order: a stand-in commit id for checkouts without
/// git metadata.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let name = file.strip_prefix(root).unwrap_or(&file).to_string_lossy();
        let bytes = fs::read(&file).unwrap_or_default();
        for b in name.as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fingerprint {
        Fingerprint {
            nproc: 2,
            cpu_model: "Test CPU \"X\"".into(),
            rustc: "rustc 1.0".into(),
            cc: "cc 1.0".into(),
            commit: "abc".into(),
            seed: 7,
        }
    }

    #[test]
    fn json_round_trip() {
        let fp = sample();
        let v = serde::json::parse(&fp.to_json()).unwrap();
        assert_eq!(Fingerprint::from_json(&v), Some(fp));
    }

    #[test]
    fn host_fields_decide_comparability() {
        let a = sample();
        let mut b = a.clone();
        b.commit = "def".into();
        b.seed = 8;
        assert!(a.host_differences(&b).is_empty());
        b.nproc = 1;
        b.cc = "cc 2.0".into();
        assert_eq!(a.host_differences(&b), vec!["nproc", "cc"]);
    }
}
