//! The few libc calls the load generator needs, declared directly: std
//! already links libc, and the repository takes no bindings crate.
//! Linux only.

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::time::Duration;

/// `struct pollfd`.
#[repr(C)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Wait for `fd` to be readable, or writable too when `write` is set.
    pub fn new(fd: c_int, write: bool) -> PollFd {
        PollFd {
            fd,
            events: POLLIN | if write { POLLOUT } else { 0 },
            revents: 0,
        }
    }
}

/// `struct timespec` on 64-bit Linux, where `time_t` is a `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `cpu_set_t`: a 1024-bit CPU mask.
#[repr(C)]
struct CpuSet([u64; 16]);

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const EINTR: i32 = 4;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// `ppoll` with a nanosecond timeout; an interrupted wait returns early.
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(3600) as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is a live, initialised slice of `fds.len()` pollfd
    // structs and `ts` a valid timespec, both outliving the call; a null
    // sigmask leaves the signal mask unchanged.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.raw_os_error() != Some(EINTR) {
            return Err(e);
        }
    }
    Ok(())
}

/// Let this thread's timed waits end on time: by default Linux may delay
/// them by up to 50 µs, which an open loop would count as latency.
pub fn precise_timers() {
    // SAFETY: PR_SET_TIMERSLACK reads only its second argument and changes
    // only this thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// The CPUs this thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable cpu_set_t of the size passed; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&i| set.0[i / 64] & (1 << (i % 64)) != 0)
        .collect()
}

/// Restrict this thread, and every thread it spawns from now on, to
/// `cpus`.
pub fn pin(cpus: &[usize]) -> io::Result<()> {
    let mut set = CpuSet([0; 16]);
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        set.0[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is an initialised cpu_set_t of the size passed; pid 0
    // is the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}
