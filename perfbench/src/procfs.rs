//! Process counters from `/proc/self`, read without extra dependencies:
//! minor faults and CPU time from `stat`, peak resident set from `status`.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields. Linux reports
/// these in `USER_HZ`, which is 100 on every architecture it exports to
/// user space.
const USER_HZ: f64 = 100.0;

/// One reading of this process's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Minor page faults so far.
    pub minflt: u64,
    /// User CPU seconds so far.
    pub user_s: f64,
    /// System CPU seconds so far.
    pub sys_s: f64,
}

impl ProcSample {
    /// Read `/proc/self/stat`.
    pub fn now() -> Result<ProcSample, String> {
        let stat = fs::read_to_string("/proc/self/stat")
            .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
        parse_stat(&stat)
    }

    /// Counters accrued since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            minflt: self.minflt - earlier.minflt,
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// User plus system seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parse the fields after the parenthesised command name, which may itself
/// contain spaces: field 10 is `minflt`, 14 `utime`, 15 `stime` (1-based,
/// as in proc(5)).
fn parse_stat(stat: &str) -> Result<ProcSample, String> {
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (state).
    let field = |n: usize| -> Result<u64, String> {
        fields
            .get(n - 3)
            .and_then(|f| f.parse().ok())
            .ok_or(format!("/proc/self/stat field {n} missing"))
    };
    Ok(ProcSample {
        minflt: field(10)?,
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
    })
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_spaces_in_the_command_name() {
        let stat = "4242 (isp perf) bench) R 1 2 3 4 5 6 777 8 9 10 250 30 0 0";
        let s = parse_stat(stat).unwrap();
        assert_eq!(s.minflt, 777);
        assert_eq!(s.user_s, 2.5);
        assert_eq!(s.sys_s, 0.3);
    }

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn live_counters_are_monotone() {
        let a = ProcSample::now().unwrap();
        let v: Vec<u8> = vec![1; 1 << 20];
        std::hint::black_box(&v);
        let b = ProcSample::now().unwrap();
        let d = b.since(&a);
        assert!(d.cpu_s() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
