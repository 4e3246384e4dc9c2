//! What the benchmark needs from the operating system: CPU pinning,
//! process CPU time and provenance facts. Linux only.

use std::io;

/// `cpu_set_t` as glibc defines it: 1024 bits.
const CPU_SET_WORDS: usize = 16;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Fixes glibc's malloc thresholds at the values its dynamic heuristic
/// climbs to in a long-running process: blocks up to 32 MiB come from the
/// heap, and freed memory is only returned to the kernel above 64 MiB.
/// Left dynamic, the thresholds depend on which arena each daemon thread
/// happens to inherit, and per-request page faults vary twentyfold
/// between otherwise identical processes.
pub fn fix_malloc_thresholds() -> io::Result<()> {
    // SAFETY: `mallopt` only sets allocator parameters; it is called
    // before the process starts any other thread.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1
    };
    if ok {
        Ok(())
    } else {
        Err(io::Error::other("mallopt refused the thresholds"))
    }
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..CPU_SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect())
}

/// Restricts the calling thread to `cpus`. Threads it spawns afterwards
/// inherit the mask; threads that already exist keep theirs.
pub fn pin_to(cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; CPU_SET_WORDS];
    for &cpu in cpus {
        if cpu >= CPU_SET_WORDS * 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cpu index out of range",
            ));
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// User plus system CPU time of the whole process (every thread), ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark supports).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Minor page faults of the whole process so far (`/proc/self/stat`).
pub fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; minflt is the
            // 10th field overall, the 8th after it.
            let rest = &stat[stat.rfind(')')? + 2..];
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The CPU model from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
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

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
