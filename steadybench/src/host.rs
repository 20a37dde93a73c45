//! What the host tells us about a measurement window: hypervisor steal,
//! resident memory, process CPU time and loopback traffic, all read from
//! `/proc`. The parsers take the file text so they can be tested on
//! fixtures; the readers return `None` when a file or field is missing, and
//! the harness then reports the window without that signal.

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuJiffies {
    /// Time stolen by the hypervisor (8th value of the `cpu` line).
    pub steal: u64,
    /// user + nice + system + idle + iowait + irq + softirq + steal. Guest
    /// time is already contained in user/nice and is not added again.
    pub total: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_proc_stat(text: &str) -> Option<CpuJiffies> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let values: Vec<u64> =
        line.split_whitespace().skip(1).map(|v| v.parse().ok()).collect::<Option<_>>()?;
    let steal = *values.get(7)?;
    Some(CpuJiffies { steal, total: values.iter().take(8).sum() })
}

/// Steal share of the interval between two `/proc/stat` readings, in [0, 1].
pub fn steal_share(before: CpuJiffies, after: CpuJiffies) -> Option<f64> {
    let total = after.total.checked_sub(before.total)?;
    let steal = after.steal.checked_sub(before.steal)?;
    (total > 0).then(|| steal as f64 / total as f64)
}

/// Parses a `kB` field (`VmRSS`, `VmHWM`) of `/proc/self/status` into MB.
pub fn parse_status_mb(text: &str, field: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Parses user + system CPU time of the process, in clock ticks, from
/// `/proc/self/stat`. The command name may contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_self_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Parses the transmit-byte counter of `interface` from `/proc/net/dev`.
pub fn parse_net_dev_tx_bytes(text: &str, interface: &str) -> Option<u64> {
    let line = text.lines().find_map(|l| {
        let (name, rest) = l.split_once(':')?;
        (name.trim() == interface).then_some(rest)
    })?;
    // Eight receive columns, then transmit bytes.
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Kernel clock ticks per second for `/proc/self/stat` (USER_HZ, 100 on
/// every Linux the benchmark targets; there is no libc here to ask).
const TICKS_PER_SECOND: f64 = 100.0;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Current aggregate CPU jiffies.
pub fn cpu_jiffies() -> Option<CpuJiffies> {
    parse_proc_stat(&read("/proc/stat")?)
}

/// Current resident set size in MB.
pub fn rss_mb() -> Option<f64> {
    parse_status_mb(&read("/proc/self/status")?, "VmRSS")
}

/// Peak resident set size of the process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_status_mb(&read("/proc/self/status")?, "VmHWM")
}

/// CPU seconds (user + system, all threads) the process has used so far.
pub fn process_cpu_seconds() -> Option<f64> {
    Some(parse_self_stat_ticks(&read("/proc/self/stat")?)? as f64 / TICKS_PER_SECOND)
}

/// Bytes transmitted on the loopback interface so far.
pub fn loopback_tx_bytes() -> Option<u64> {
    parse_net_dev_tx_bytes(&read("/proc/net/dev")?, "lo")
}

/// Host counters at the start of a measurement window.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    jiffies: Option<CpuJiffies>,
    cpu_s: Option<f64>,
}

impl Usage {
    pub fn now() -> Self {
        Usage { jiffies: cpu_jiffies(), cpu_s: process_cpu_seconds() }
    }

    /// Steal share and process CPU seconds since this sample was taken.
    pub fn since(self) -> (Option<f64>, Option<f64>) {
        let steal = match (self.jiffies, cpu_jiffies()) {
            (Some(before), Some(after)) => steal_share(before, after),
            _ => None,
        };
        let cpu_s = match (self.cpu_s, process_cpu_seconds()) {
            (Some(before), Some(after)) => Some(after - before),
            _ => None,
        };
        (steal, cpu_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROC_STAT: &str = "\
cpu  424066 0 101618 566517 9531 0 1247 38421 0 0
cpu0 175920 0 47533 324329 5168 0 360 18975 0 0
cpu1 248146 0 54084 242188 4362 0 886 19445 0 0
intr 2150318 0 9 0
ctxt 5612345
";

    #[test]
    fn proc_stat_aggregate_line() {
        let j = parse_proc_stat(PROC_STAT).unwrap();
        assert_eq!(j.steal, 38_421);
        assert_eq!(j.total, 424_066 + 101_618 + 566_517 + 9_531 + 1_247 + 38_421);
        assert!(parse_proc_stat("cpu0 1 2 3\n").is_none(), "no aggregate line");
        assert!(parse_proc_stat("cpu  1 2 3 4\n").is_none(), "kernel without a steal column");
        assert!(parse_proc_stat("cpu  1 2 x 4 5 6 7 8\n").is_none());
    }

    #[test]
    fn steal_share_of_an_interval() {
        let before = CpuJiffies { steal: 100, total: 10_000 };
        let after = CpuJiffies { steal: 150, total: 10_200 };
        assert_eq!(steal_share(before, after), Some(0.25));
        assert_eq!(steal_share(before, before), None, "empty interval");
        assert_eq!(steal_share(after, before), None, "counters never run backwards");
    }

    const STATUS: &str = "\
Name:\tsteadybench
VmPeak:\t 1264340 kB
VmSize:\t 1198804 kB
VmHWM:\t  524288 kB
VmRSS:\t  262144 kB
RssAnon:\t  250000 kB
Threads:\t3
";

    #[test]
    fn status_fields_in_mb() {
        assert_eq!(parse_status_mb(STATUS, "VmRSS"), Some(256.0));
        assert_eq!(parse_status_mb(STATUS, "VmHWM"), Some(512.0));
        assert_eq!(parse_status_mb(STATUS, "Vm"), None, "prefix of a field is not the field");
        assert_eq!(parse_status_mb("Name:\tx\n", "VmRSS"), None);
    }

    #[test]
    fn self_stat_survives_a_hostile_command_name() {
        let text = "4242 (steady) bench) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 56 0 0 20 0 3 0 100 1198804 65536 18446744073709551615 1 1";
        assert_eq!(parse_self_stat_ticks(text), Some(1_290));
        assert_eq!(parse_self_stat_ticks("4242 (x) R 1 2"), None);
        assert_eq!(parse_self_stat_ticks("no parenthesis"), None);
    }

    const NET_DEV: &str = "\
Inter-|   Receive                                                |  Transmit
 face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed
    lo: 9876543   12345    0    0    0     0          0         0  9876599   12345    0    0    0     0       0          0
  eth0: 1111 22 0 0 0 0 0 0 3333 44 0 0 0 0 0 0
";

    #[test]
    fn net_dev_transmit_bytes() {
        assert_eq!(parse_net_dev_tx_bytes(NET_DEV, "lo"), Some(9_876_599));
        assert_eq!(parse_net_dev_tx_bytes(NET_DEV, "eth0"), Some(3_333));
        assert_eq!(parse_net_dev_tx_bytes(NET_DEV, "eth1"), None);
        assert_eq!(parse_net_dev_tx_bytes("lo: 1 2 3\n", "lo"), None, "truncated line");
    }
}
