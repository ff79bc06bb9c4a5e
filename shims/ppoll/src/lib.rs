//! `ppoll(2)` behind a safe function: the readiness primitive of the TCP
//! transport (`mpc_net::transport::tcp`), which multiplexes every socket of
//! a party on one thread. Offline stand-in for `libc::ppoll` / `mio` (see
//! `shims/README.md`) and the only `unsafe` in the product crates — kept in
//! this leaf crate so that `mpc-net` keeps `#![forbid(unsafe_code)]`.
//!
//! `ppoll` rather than `poll` for its nanosecond time-out: the transport
//! waits on 100 µs tick deadlines.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("the ppoll shim declares Linux's ppoll(2) ABI; port it before building elsewhere");

use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

const POLLIN: c_short = 0x01;
const POLLOUT: c_short = 0x04;
/// `POLLERR | POLLHUP | POLLNVAL`: reported whatever was asked for; the
/// next `read`/`write` on the descriptor returns the actual error or EOF.
const POLLBROKEN: c_short = 0x08 | 0x10 | 0x20;

/// One entry of a poll set — layout-identical to C's `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for readability, and for writability too if `write`.
    pub fn new(fd: &impl AsRawFd, write: bool) -> Self {
        let (fd, events) = (fd.as_raw_fd(), POLLIN | if write { POLLOUT } else { 0 });
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
    /// After [`wait`]: a `read` will not block (data, EOF or an error).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLBROKEN) != 0
    }
    /// After [`wait`]: a `write` will not block (space or an error).
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLBROKEN) != 0
    }
}

extern "C" {
    fn ppoll(fds: *mut PollFd, n: c_ulong, t: *const [c_long; 2], mask: *const c_void) -> c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout` elapses (`None`
/// waits indefinitely); returns how many entries are ready. A signal
/// interrupting the wait reads as a time-out (`Ok(0)`).
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    let ts = timeout.map(|d| [d.as_secs() as c_long, d.subsec_nanos() as c_long]);
    let ts = ts.as_ref().map_or(std::ptr::null(), std::ptr::from_ref);
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]` structs
    // matching `struct pollfd`, and the kernel writes only the `revents` of
    // its `fds.len()` entries. `ts` is null or points at a live `timespec`
    // (two `long`s wherever `time_t` is `long`: every 64-bit Linux target);
    // the null mask leaves signals alone. Stale descriptors and out-of-range
    // time-outs are not undefined behaviour — `POLLNVAL` and `EINVAL`.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, ts, std::ptr::null()) };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    match std::io::Error::last_os_error() {
        e if e.kind() == std::io::ErrorKind::Interrupted => Ok(0),
        e => Err(e),
    }
}
