//! The host block every benchmark output carries, and the process
//! memory probe behind `peak_rss_mb`.

use std::process::Command;

use wa_tensor::Json;

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit, when the checkout is a git repository; otherwise a
/// digest of the program's sources, so runs of different code still
/// tell apart.
fn source_rev() -> String {
    if let Some(rev) = command_line("git", &["rev-parse", "--short=12", "HEAD"]) {
        return rev;
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "src"] {
        collect_files(std::path::Path::new(root), &mut files);
    }
    files.sort();
    // FNV-1a over every path and its bytes
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("src-fnv-{h:016x}")
}

fn collect_files(path: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect_files(&e.path(), out);
        }
    }
}

/// Resets a process's peak resident set (`VmHWM`) to its current
/// resident set, so the next read covers only what runs in between.
/// Where the kernel does not allow it, the peak keeps covering the whole
/// process lifetime.
pub fn reset_peak_rss(pid: &str) {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

/// Peak resident set (`VmHWM`) of a process, in MB (2^20 bytes).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The host block: machine, toolchain and source, plus the run's own
/// settings (`fields`, supplied by the workload).
pub fn block(fields: Vec<(&str, Json)>) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        ("nproc".into(), Json::from(nproc())),
        ("cpu_model".into(), Json::from(cpu_model())),
        (
            "rustc".into(),
            Json::from(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("rev".into(), Json::from(source_rev())),
    ];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(pairs)
}
