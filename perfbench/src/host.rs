//! Host context and `/proc` readers: CPU time per thread and per process,
//! peak resident set, load average, and the facts every artifact records.

use std::fs;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

fn ticks_per_sec() -> f64 {
    // SAFETY: sysconf has no preconditions; it only reads a constant.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// `utime + stime` of a `/proc/.../stat` line, in seconds. The command
/// field may contain spaces, so fields are counted after its closing
/// parenthesis.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state is field 3, utime 14, stime 15 (1-based).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / ticks_per_sec())
}

/// CPU seconds of the whole process, exited threads included.
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// CPU seconds summed over the live threads whose name starts with
/// `prefix`.
pub fn threads_cpu_s(prefix: &str) -> f64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    dir.flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            fs::read_to_string(path.join("comm")).is_ok_and(|name| name.starts_with(prefix))
        })
        .filter_map(|path| stat_cpu_s(&fs::read_to_string(path.join("stat")).ok()?))
        .sum()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 1-minute load average.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit under test: `BENCH_COMMIT` if set, else the checkout's
/// `.git/HEAD` when there is one, else `unknown`.
fn commit() -> String {
    if let Ok(c) = std::env::var("BENCH_COMMIT") {
        return c;
    }
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        if let Ok(c) = fs::read_to_string(format!(".git/{r}")) {
            return c.trim().to_string();
        }
    } else if !head.is_empty() {
        return head.to_string();
    }
    "unknown".into()
}

/// JSON string escaping for the few free-text fields we print.
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

/// The host context line every artifact carries. `knobs` are the
/// workload's own settings (shard count, reactor workers, join stagger).
pub fn context_json(workload: &str, seed: u64, trace: bool, knobs: &[(&str, f64)]) -> String {
    let mut out = format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"nproc\":{},\"cpu_model\":{},\
         \"rustc\":{},\"commit\":{},\"loadavg_1m\":{:.2}",
        json_str(workload),
        nproc(),
        json_str(&cpu_model()),
        json_str(&rustc_version()),
        json_str(&commit()),
        loadavg(),
    );
    for (k, v) in knobs {
        out.push_str(&format!(",{}:{}", json_str(k), v));
    }
    out.push('}');
    out
}
