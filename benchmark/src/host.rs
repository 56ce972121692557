//! Host conditions, read from `/proc`: process CPU time, resident-set
//! sizes and the load average. Each reader has a pure parser so the
//! formats are tested without a live `/proc`.

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on every
/// Linux ABI), so CPU times resolve to 10 ms.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of every thread of this process, live and
/// exited, from the text of `/proc/self/stat`.
pub fn parse_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields after its closing paren start at field 3 (state).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after state.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// The value in kB of a `Key:   1234 kB` line of `/proc/self/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The one-minute load average from the text of `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// CPU seconds this process has used so far (0 where `/proc` is absent).
pub fn cpu_s() -> f64 {
    parse_cpu_s(&read("/proc/self/stat")).unwrap_or(0.0)
}

/// Current resident set (`VmRSS`), kB.
pub fn rss_kb() -> f64 {
    parse_status_kb(&read("/proc/self/status"), "VmRSS").unwrap_or(0.0)
}

/// Peak resident set since the process started (`VmHWM`), kB.
pub fn hwm_kb() -> f64 {
    parse_status_kb(&read("/proc/self/status"), "VmHWM").unwrap_or(0.0)
}

/// One-minute load average of the host.
pub fn loadavg() -> f64 {
    parse_loadavg(&read("/proc/loadavg")).unwrap_or(0.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_sums_utime_and_stime_past_a_spaced_command_name() {
        let stat = "4242 (bench mark) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    250 37 0 0 20 0 3 0 12345 1000000 2500 18446744073709551615";
        assert_eq!(parse_cpu_s(stat), Some(2.87));
        assert_eq!(parse_cpu_s("garbage"), None);
    }

    #[test]
    fn status_lines_give_kilobytes_by_key() {
        let status = "Name:\tbenchmark\nVmHWM:\t   20024 kB\nVmRSS:\t   13232 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20024.0));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(13232.0));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn loadavg_reads_the_first_field() {
        assert_eq!(parse_loadavg("0.52 0.61 0.70 2/345 6789\n"), Some(0.52));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        // One snapshot: other test threads may grow the RSS between reads.
        let status = read("/proc/self/status");
        let rss = parse_status_kb(&status, "VmRSS").unwrap();
        assert!(parse_status_kb(&status, "VmHWM").unwrap() >= rss && rss > 0.0);
        assert!(rss_kb() > 0.0 && hwm_kb() > 0.0 && cpu_s() >= 0.0 && nproc() >= 1);
    }
}
