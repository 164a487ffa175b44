//! Readers for the two `/proc/self` figures the benchmark reports: process
//! CPU time (`stat`) and peak resident set size (`status`).

/// User plus system CPU time in clock ticks, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) is parenthesised and may
/// itself hold spaces or parentheses, so fields are counted from the last
/// `)`; `utime` and `stime` are fields 14 and 15.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state), so utime is its 12th entry.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set size) in kB, from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb)
}

/// Clock ticks per second for `/proc/<pid>/stat` times. Linux exports
/// them in `USER_HZ`, which is 100 on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// CPU time this process has used so far, in seconds.
pub fn cpu_seconds() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    let ticks = parse_stat_cpu_ticks(&text).ok_or("malformed /proc/self/stat")?;
    Ok(ticks as f64 / USER_HZ)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_status_hwm_kb(&text).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (dcp-perfbench) R 1 4242 4242 0 -1 4194304 2710 0 0 0 \
                        731 57 0 0 20 0 3 0 1234567 61440000 5000 18446744073709551615 \
                        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_sums_utime_and_stime() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(731 + 57));
    }

    #[test]
    fn stat_command_name_with_spaces_and_parens() {
        let odd = STAT.replace("(dcp-perfbench)", "(a b) (c))");
        assert_eq!(parse_stat_cpu_ticks(&odd), Some(788));
    }

    #[test]
    fn stat_rejects_malformed_input() {
        assert_eq!(parse_stat_cpu_ticks(""), None);
        assert_eq!(parse_stat_cpu_ticks("4242 dcp-perfbench R 1"), None);
        assert_eq!(parse_stat_cpu_ticks("4242 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks(&STAT.replace(" 731 ", " -7 ")), None);
        assert_eq!(parse_stat_cpu_ticks(&STAT.replace(" 57 ", " x ")), None);
    }

    #[test]
    fn stat_of_this_process_parses() {
        let text = std::fs::read_to_string("/proc/self/stat").expect("procfs mounted");
        assert!(parse_stat_cpu_ticks(&text).is_some(), "{text}");
        assert!(cpu_seconds().expect("own stat") >= 0.0);
    }

    #[test]
    fn status_reads_vmhwm() {
        let status =
            "Name:\tdcp-perfbench\nVmPeak:\t  90000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_status_hwm_kb(status), Some(51234));
    }

    #[test]
    fn status_rejects_malformed_input() {
        assert_eq!(parse_status_hwm_kb(""), None);
        assert_eq!(parse_status_hwm_kb("VmRSS:\t 40000 kB\n"), None);
        assert_eq!(parse_status_hwm_kb("VmHWM:\t\n"), None);
        assert_eq!(parse_status_hwm_kb("VmHWM:\t 12x kB\n"), None);
        assert_eq!(parse_status_hwm_kb("VmHWM:\t 123 MB\n"), None);
        assert_eq!(parse_status_hwm_kb("VmHWM:\t 123\n"), None);
    }

    #[test]
    fn status_of_this_process_parses() {
        let mib = peak_rss_mib().expect("own status");
        assert!(mib > 0.0);
    }
}
