//! A minimal readiness poller with two backends — no `libc` crate, no
//! external crates.
//!
//! The serve path ([`crate::eventloop`]) is one connection state machine
//! over a [`Poller`] (which fds are ready?) and a [`Waker`] (make another
//! thread's `wait` return). Where the code runs decides the backend:
//!
//! * **epoll** (Linux on x86_64/aarch64, unless a seccomp filter denies
//!   it): `epoll`, `eventfd` and `sendfile` have no `std` surface, so they
//!   are invoked through the architecture's syscall instruction
//!   (`syscall` / `svc 0`). A wait costs O(ready); a peer's half-close is
//!   reported through `EPOLLRDHUP`; file bodies move with `sendfile`.
//! * **`poll(2)`** (everywhere else): the one symbol taken from the C
//!   library `std` already links, with a nonblocking socket pair as the
//!   waker. A wait costs O(open); a half-close shows as a read returning
//!   0 once the connection is read-interested again; there is no
//!   `sendfile`, so file bodies go through the loop's bounded copy.
//!
//! [`Poller::new`] picks the backend from what it can observe; nothing
//! selects one from outside. `std::os::fd` and `std::os::unix::net` make
//! unix the set of supported platforms.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer hung up or the fd errored — the connection is dead either way.
    pub hangup: bool,
}

/// What a readiness backend provides; see [`Poller`] for the contracts.
trait Backend: std::fmt::Debug + Send {
    fn add(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()>;
    fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()>;
    fn delete(&mut self, fd: RawFd) -> io::Result<()>;
    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize>;
    fn sendfile(&self, _out: RawFd, _in: RawFd, _offset: &mut u64, _count: usize) -> io::Result<usize> {
        Err(io::ErrorKind::Unsupported.into())
    }
}

/// The errors on which the epoll backend gives way to `poll(2)`: the
/// syscall does not exist, or a seccomp filter answers it with `EPERM`.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn denied(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::Unsupported || e.raw_os_error() == Some(1)
}

/// Level-triggered readiness over a set of registered fds. The caller
/// keeps every registered fd open until it has been [`delete`](Poller::delete)d.
#[derive(Debug)]
pub struct Poller(Box<dyn Backend>);

impl Poller {
    pub fn new() -> io::Result<Poller> {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        match epoll::Epoll::new() {
            Ok(ep) => return Ok(Poller(Box::new(ep))),
            Err(e) if denied(&e) => {}
            Err(e) => return Err(e),
        }
        Ok(Poller::new_poll())
    }

    /// The `poll(2)` backend, wherever it runs (tests drive it on Linux).
    pub(crate) fn new_poll() -> Poller {
        Poller(Box::new(poll::PollSet::default()))
    }

    /// Register `fd` with the given readiness interest.
    pub fn add(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.0.add(fd, token, read, write)
    }

    /// Change an already-registered fd's interest set.
    pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.0.modify(fd, token, read, write)
    }

    /// Deregister an fd, before it is closed.
    pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
        self.0.delete(fd)
    }

    /// Wait for readiness, appending into `out`. `timeout` of `None`
    /// blocks indefinitely. Returns the number of events delivered.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let ms = match timeout {
            None => -1,
            // Round up so a sub-millisecond timeout is not a busy loop.
            Some(t) => {
                let ms = t.as_millis().min(i32::MAX as u128 - 1) as i32;
                ms + i32::from(t.subsec_nanos() % 1_000_000 != 0 || ms == 0)
            }
        };
        self.0.wait(out, ms)
    }

    /// Zero-copy file→socket transfer. Advances `offset` by the number of
    /// bytes moved. Returns `Ok(0)` at EOF; `WouldBlock` when the socket
    /// buffer is full; `Unsupported` on the `poll(2)` backend.
    pub fn sendfile(&self, out_fd: RawFd, in_fd: RawFd, offset: &mut u64, count: usize) -> io::Result<usize> {
        self.0.sendfile(out_fd, in_fd, offset, count)
    }
}

/// Cross-thread wakeup for a [`Poller`]: register [`raw_fd`](Waker::raw_fd)
/// for read interest. An eventfd beside the epoll backend, a nonblocking
/// socket pair otherwise; `wake` coalesces and never blocks.
#[derive(Debug, Clone)]
pub struct Waker {
    // Both ends wrapped as Files so read/write go through std; an eventfd
    // is its own write end.
    rx: Arc<std::fs::File>,
    tx: Arc<std::fs::File>,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        match epoll::eventfd() {
            Ok(fd) => {
                let file = Arc::new(std::fs::File::from(fd));
                return Ok(Waker { rx: Arc::clone(&file), tx: file });
            }
            Err(e) if denied(&e) => {}
            Err(e) => return Err(e),
        }
        Waker::new_pair()
    }

    /// The socket-pair waker that goes with [`Poller::new_poll`].
    pub(crate) fn new_pair() -> io::Result<Waker> {
        let (rx, tx) = std::os::unix::net::UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker {
            rx: Arc::new(OwnedFd::from(rx).into()),
            tx: Arc::new(OwnedFd::from(tx).into()),
        })
    }

    pub fn raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Make the owning loop's `wait` return. A full pipe means a wake is
    /// already pending, so the error is the coalescing.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&1u64.to_ne_bytes());
    }

    /// Clear the pending wakes (call on the loop thread after a wake
    /// event, or level-triggered readiness would spin). An eventfd empties
    /// in one 8-byte read; a socket is read until it comes up short.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&*self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
    }
}

/// The portable backend: one `pollfd` per registered fd, handed whole to
/// `poll(2)` on every wait.
mod poll {
    use super::{Backend, Event};
    use std::ffi::{c_int, c_short};
    use std::io;
    use std::os::fd::RawFd;

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[cfg(target_os = "linux")]
    type NfdsT = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    // Same values on Linux, the BSDs and macOS.
    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;
    const POLLNVAL: c_short = 0x020;

    fn interest_bits(read: bool, write: bool) -> c_short {
        // ERR/HUP/NVAL are reported whatever is asked for, so a parked
        // connection (no interest) still surfaces a dead peer.
        (if read { POLLIN } else { 0 }) | (if write { POLLOUT } else { 0 })
    }

    #[derive(Debug, Default)]
    pub struct PollSet {
        fds: Vec<PollFd>,
        /// `tokens[i]` belongs to `fds[i]`.
        tokens: Vec<u64>,
    }

    impl PollSet {
        fn position(&self, fd: RawFd) -> io::Result<usize> {
            self.fds
                .iter()
                .position(|p| p.fd == fd)
                .ok_or_else(|| io::ErrorKind::NotFound.into())
        }
    }

    impl Backend for PollSet {
        fn add(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            if self.position(fd).is_ok() {
                return Err(io::ErrorKind::AlreadyExists.into());
            }
            self.fds.push(PollFd { fd, events: interest_bits(read, write), revents: 0 });
            self.tokens.push(token);
            Ok(())
        }

        fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            let i = self.position(fd)?;
            self.fds[i].events = interest_bits(read, write);
            self.tokens[i] = token;
            Ok(())
        }

        fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self.position(fd)?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            Ok(())
        }

        fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            loop {
                // SAFETY: `fds` is a live, exclusively borrowed Vec of
                // `repr(C)` pollfds and the count passed is its length, so
                // the kernel reads and writes (`revents`) inside it only.
                // The fd numbers are plain values; one closed early is
                // reported as POLLNVAL, not dereferenced.
                let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NfdsT, timeout_ms) };
                if n >= 0 {
                    break;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
            let before = out.len();
            for (p, &token) in self.fds.iter().zip(&self.tokens) {
                if p.revents != 0 {
                    out.push(Event {
                        token,
                        readable: p.revents & POLLIN != 0,
                        writable: p.revents & POLLOUT != 0,
                        hangup: p.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                    });
                }
            }
            Ok(out.len() - before)
        }
    }
}

/// The Linux backend: epoll, eventfd and sendfile by raw syscall.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod epoll {
    use super::{Backend, Event};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EVENTFD2: usize = 290;
        pub const EPOLL_CREATE1: usize = 291;
        pub const SENDFILE: usize = 40;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EVENTFD2: usize = 19;
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const SENDFILE: usize = 71;
    }

    /// Enter the kernel with syscall number `n` and six register arguments.
    ///
    /// # Safety
    ///
    /// `n` and the arguments must form a call that is sound for this
    /// process: every argument the kernel treats as a pointer must be valid
    /// for the access that syscall makes, for as long as it makes it.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(n: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize, a6: usize) -> isize {
        let ret: isize;
        // SAFETY: the x86-64 Linux syscall ABI — number in rax, arguments
        // in rdi/rsi/rdx/r10/r8/r9, result in rax, rcx and r11 clobbered,
        // the stack untouched. What the call does is the caller's contract.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// See the x86_64 variant; the same contract.
    ///
    /// # Safety
    ///
    /// As above: pointer arguments must be valid for what syscall `n` does.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(n: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize, a6: usize) -> isize {
        let ret: isize;
        // SAFETY: the AArch64 Linux syscall ABI — number in x8, arguments
        // in x0..x5, result in x0, the stack untouched.
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") n,
                inlateout("x0") a1 => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                options(nostack),
            );
        }
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    // The kernel ABI packs epoll_event on x86_64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy, Default)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;

    const EPOLL_CLOEXEC: usize = 0x80000;
    const EFD_CLOEXEC: usize = 0x80000;
    const EFD_NONBLOCK: usize = 0x800;

    /// A thin typed wrapper around one epoll instance.
    #[derive(Debug)]
    pub struct Epoll {
        epfd: OwnedFd,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes a flags word and no pointers.
            let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
            // SAFETY: the kernel just returned `fd`, open, to this call
            // alone. OwnedFd closes the instance on drop — no raw close.
            Ok(Epoll { epfd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) } })
        }

        fn ctl(&self, op: usize, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let ev = EpollEvent { events, data: token };
            let ptr = if op == EPOLL_CTL_DEL { 0 } else { &ev as *const _ as usize };
            // SAFETY: `epfd` is the epoll instance this struct owns; `ptr`
            // is null (DEL ignores it) or points at `ev`, which outlives
            // the call and has the kernel's epoll_event layout. `fd` is a
            // plain number the kernel validates (EBADF otherwise).
            check(unsafe {
                syscall6(nr::EPOLL_CTL, self.epfd.as_raw_fd() as usize, op, fd as usize, ptr, 0, 0)
            })
            .map(|_| ())
        }

        fn interest_bits(read: bool, write: bool) -> u32 {
            // Level-triggered. RDHUP is always on so a peer that closes its
            // end while we are idle surfaces as an event, not a timeout.
            let mut bits = EPOLLRDHUP;
            if read {
                bits |= EPOLLIN;
            }
            if write {
                bits |= EPOLLOUT;
            }
            bits
        }
    }

    impl Backend for Epoll {
        fn add(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Self::interest_bits(read, write), token)
        }

        fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Self::interest_bits(read, write), token)
        }

        // Closing an fd also deregisters it, but explicit delete keeps the
        // kernel set tidy when a conn is recycled.
        fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            let mut raw = [EpollEvent::default(); 256];
            let n = loop {
                // SAFETY: `epfd` is owned by `self`; `raw` is a live local
                // array of kernel-layout events and `raw.len()` bounds what
                // the kernel writes into it; the sigmask pointer is null.
                let ret = unsafe {
                    syscall6(
                        nr::EPOLL_PWAIT,
                        self.epfd.as_raw_fd() as usize,
                        raw.as_mut_ptr() as usize,
                        raw.len(),
                        timeout_ms as isize as usize,
                        0, // no sigmask
                        8, // sigsetsize (ignored for null mask)
                    )
                };
                match check(ret) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &raw[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(n)
        }

        fn sendfile(&self, out_fd: RawFd, in_fd: RawFd, offset: &mut u64, count: usize) -> io::Result<usize> {
            let mut off = *offset as i64;
            // SAFETY: `off` is a live local the kernel reads and updates
            // through the pointer for the length of the call; the two fds are
            // plain numbers the kernel validates, and `count` only bounds how
            // much it moves between them.
            let ret = unsafe {
                syscall6(nr::SENDFILE, out_fd as usize, in_fd as usize, &mut off as *mut i64 as usize, count, 0, 0)
            };
            let n = check(ret)?;
            *offset = off as u64;
            Ok(n)
        }
    }

    /// A nonblocking, close-on-exec eventfd: the epoll backend's waker.
    pub fn eventfd() -> io::Result<OwnedFd> {
        // SAFETY: eventfd2 takes an initial count and flags, no pointers.
        let fd = check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })?;
        // SAFETY: the kernel just returned `fd`, open, to this call alone.
        Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Every backend this host has, paired with its waker.
    fn backends() -> Vec<(Poller, Waker)> {
        vec![
            (Poller::new().unwrap(), Waker::new().unwrap()),
            (Poller::new_poll(), Waker::new_pair().unwrap()),
        ]
    }

    #[test]
    fn poller_reports_accept_readiness() {
        for (mut poller, _) in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            poller.add(listener.as_raw_fd(), 7, true, false).unwrap();

            // Nothing pending: a short wait times out empty.
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
            assert!(events.is_empty(), "{poller:?}");

            // A connect makes the listener readable.
            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_millis(2000))).unwrap();
            assert!(events.iter().any(|e| e.token == 7 && e.readable), "{poller:?}");

            let (conn, _) = listener.accept().unwrap();
            conn.set_nonblocking(true).unwrap();
            // A fresh idle socket is writable but not readable.
            poller.add(conn.as_raw_fd(), 9, true, true).unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_millis(2000))).unwrap();
            let ev = events.iter().find(|e| e.token == 9).expect("conn event");
            assert!(ev.writable && !ev.readable, "{poller:?}");
            poller.delete(conn.as_raw_fd()).unwrap();

        }
    }

    #[test]
    fn waker_wakes_and_drains() {
        for (mut poller, waker) in backends() {
            poller.add(waker.raw_fd(), 1, true, false).unwrap();

            let w2 = waker.clone();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                w2.wake();
                w2.wake(); // coalesces
            });
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert!(events.iter().any(|e| e.token == 1 && e.readable), "{poller:?}");
            handle.join().unwrap();
            waker.drain();
            // Drained: no longer readable.
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
            assert!(events.iter().all(|e| e.token != 1), "{poller:?}");
        }
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    #[test]
    fn sendfile_moves_file_bytes_to_socket() {
        let dir = std::env::temp_dir().join(format!("comt-sendfile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload");
        let payload: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut got = Vec::new();
            s.read_to_end(&mut got).unwrap();
            got
        });
        let (sock, _) = listener.accept().unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let poller = Poller(Box::new(epoll::Epoll::new().unwrap()));
        let mut offset = 0u64;
        while (offset as usize) < payload.len() {
            match poller.sendfile(sock.as_raw_fd(), file.as_raw_fd(), &mut offset, 64 * 1024) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("sendfile: {e}"),
            }
        }
        assert_eq!(offset, payload.len() as u64);
        let mut w = &sock;
        w.flush().unwrap();
        drop(sock);
        assert_eq!(reader.join().unwrap(), payload);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
