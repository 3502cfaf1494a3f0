//! The host and build every result was measured on.

/// One line naming the host, its processor counts, the toolchain, the
/// source revision and the build profile.
pub fn describe() -> String {
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    format!(
        "host   name={hostname} nproc={} available_parallelism={parallelism} rustc=\"{}\" git={} profile={}",
        nproc().map_or_else(|| "unknown".to_owned(), |n| n.to_string()),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// Processors this process may run on (what `nproc` prints), counted
/// from the `Cpus_allowed_list` ranges in `/proc/self/status`.
fn nproc() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .split(',')
        .map(|range| match range.split_once('-') {
            Some((lo, hi)) => Some(hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1),
            None => range.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}
