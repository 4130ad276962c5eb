package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// outcome is what the generator observed for one request, in ns from
// the phase start.
type outcome struct {
	done    int64 // full response read
	lag     int64 // sent − max(due, connection free): the generator's own lateness
	status  int   // HTTP status; -1: never sent (the phase was aborted)
	backlog int   // requests due but not yet sent when this one was sent
}

// genResult is one open-loop phase.
type genResult struct {
	out        []outcome
	backlogMax int // most requests due but not yet sent at any moment
}

// clientConn is one keep-alive HTTP/1.1 connection. Requests are written
// with the blocking Write; responses are polled with non-blocking reads
// on the raw descriptor, so one goroutine serves every connection and
// never parks while a request is due.
type clientConn struct {
	nc    net.Conn
	raw   syscall.RawConn
	buf   []byte
	n     int
	rerr  error
	readF func(fd uintptr) bool

	queue []int // indices of this connection's requests, in due order
	next  int   // next request to send
	dueAt int   // queue[:dueAt] are due
	cur   int   // request in flight, or -1
	free  int64 // when the connection last became free
}

func dialConn(addr string) (*clientConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	raw, err := nc.(*net.TCPConn).SyscallConn()
	if err != nil {
		nc.Close()
		return nil, err
	}
	c := &clientConn{nc: nc, raw: raw, buf: make([]byte, 64<<10), cur: -1}
	c.readF = c.readOnce
	return c, nil
}

// readOnce is the RawConn.Read callback: one non-blocking read.
func (c *clientConn) readOnce(fd uintptr) bool {
	var m int
	m, c.rerr = syscall.Read(int(fd), c.buf[c.n:])
	if m > 0 {
		c.n += m
	} else if c.rerr == nil {
		c.rerr = errors.New("connection closed by server")
	}
	return true
}

// poll reads what has arrived and reports a complete response's status.
func (c *clientConn) poll() (status int, done bool, err error) {
	if c.n == len(c.buf) {
		c.buf = append(c.buf, make([]byte, len(c.buf))...)
	}
	if err := c.raw.Read(c.readF); err != nil {
		return 0, false, err
	}
	if c.rerr != nil && !errors.Is(c.rerr, syscall.EAGAIN) {
		return 0, false, c.rerr
	}
	status, size, ok := parseResponse(c.buf[:c.n])
	if size < 0 {
		return 0, false, errors.New("response without Content-Length")
	}
	if !ok {
		return 0, false, nil
	}
	c.n = copy(c.buf, c.buf[size:c.n])
	return status, true, nil
}

// parseResponse finds one complete response at the head of b: its status
// and total size. size < 0 flags a response this client cannot frame.
func parseResponse(b []byte) (status, size int, ok bool) {
	h := bytes.Index(b, []byte("\r\n\r\n"))
	if h < 0 || len(b) < 12 {
		return 0, 0, false
	}
	status, _ = strconv.Atoi(string(b[9:12]))
	head := b[:h]
	i := bytes.Index(bytes.ToLower(head), []byte("\r\ncontent-length:"))
	if i < 0 {
		return 0, -1, false
	}
	rest := head[i+len("\r\ncontent-length:"):]
	if j := bytes.IndexByte(rest, '\r'); j >= 0 {
		rest = rest[:j]
	}
	cl, err := strconv.Atoi(string(bytes.TrimSpace(rest)))
	if err != nil {
		return 0, -1, false
	}
	size = h + 4 + cl
	if len(b) < size {
		return 0, 0, false
	}
	return status, size, true
}

var monoBase = time.Now()

// monoNow is a monotonic clock in ns.
func monoNow() int64 { return int64(time.Since(monoBase)) }

// cpuNow is the process's CPU time in ns (CLOCK_PROCESS_CPUTIME_ID): all
// threads', so garbage collection counts, as it does in topkd's user+sys
// time.
func cpuNow() int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, 2, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// spinWindow is how long before a due time the generator stops waiting
// in epoll and spins on the clock. Go's timers can wake several
// milliseconds late on a loaded box; epoll_pwait2 with the thread's timer
// slack at 1 ns wakes within a few microseconds, and keeps the
// generator's CPU mostly idle so it does not compete with topkd for the
// host.
const spinWindow = 20 * time.Microsecond

// sysEpollPwait2 is epoll_pwait2(2) on linux/amd64 (Linux 5.11+).
const sysEpollPwait2 = 441

// epollWait waits up to d for a readable connection.
func epollWait(epfd int, events []syscall.EpollEvent, d time.Duration) error {
	ts := syscall.NsecToTimespec(int64(d))
	_, _, e := syscall.Syscall6(sysEpollPwait2, uintptr(epfd), uintptr(unsafe.Pointer(&events[0])),
		uintptr(len(events)), uintptr(unsafe.Pointer(&ts)), 0, 0)
	if e == syscall.ENOSYS {
		// Older kernels: millisecond resolution, rounded down so the
		// spin covers the rest.
		if ms := int(d / time.Millisecond); ms > 0 {
			_, err := syscall.EpollWait(epfd, events, ms)
			if err != syscall.EINTR {
				return err
			}
		}
		return nil
	}
	if e != 0 && e != syscall.EINTR {
		return e
	}
	return nil
}

// runOpenLoop sends reqs on conns at their due times. Between due times
// it waits in epoll on the connections (so a response is read as soon as
// it arrives) and spins through the last stretch before each due time.
// Tenant i always uses conns[i % len(conns)], so per-tenant commit order
// equals trace order. mark, when non-nil, is called once when the clock passes markAt
// (the start of the timed window). drain bounds the wait for responses
// after the last request is due. With abortBacklog > 0 the phase stops
// sending once more requests than that are overdue; the unsent ones are
// marked with status -1.
func runOpenLoop(conns []*clientConn, reqs []request, markAt int64, mark func(), drain time.Duration, abortBacklog int) (*genResult, error) {
	for _, c := range conns {
		c.queue, c.next, c.dueAt, c.cur, c.n, c.free = c.queue[:0], 0, 0, -1, 0, 0
	}
	for i := range reqs {
		c := conns[reqs[i].tenant%len(conns)]
		c.queue = append(c.queue, i)
	}
	res := &genResult{out: make([]outcome, len(reqs))}
	// One OS thread with 1 ns timer slack, so timed waits end on time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("generator: epoll: %w", err)
	}
	defer syscall.Close(epfd)
	for _, c := range conns {
		var cerr error
		err := c.raw.Control(func(fd uintptr) {
			ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(fd)}
			cerr = syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, int(fd), &ev)
		})
		if err != nil || cerr != nil {
			return nil, fmt.Errorf("generator: epoll add: %v %v", err, cerr)
		}
	}
	events := make([]syscall.EpollEvent, len(conns))
	prevGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prevGC)

	start := monoNow()
	remaining := len(reqs)
	var lastDue int64
	if len(reqs) > 0 {
		lastDue = reqs[len(reqs)-1].due
	}
	deadline := lastDue + int64(drain)
	backlog := 0
	for remaining > 0 {
		now := monoNow() - start
		if mark != nil && now >= markAt {
			mark()
			mark = nil
		}
		if now > deadline {
			return res, fmt.Errorf("generator: %d responses still missing %v after the last request was due", remaining, drain)
		}
		due := 0
		for _, c := range conns {
			if c.cur >= 0 {
				status, done, err := c.poll()
				if err != nil {
					return res, fmt.Errorf("generator: %s: %w", reqs[c.cur].path(), err)
				}
				if done {
					t := monoNow() - start
					res.out[c.cur].done, res.out[c.cur].status = t, status
					c.cur, c.free = -1, t
					remaining--
				}
			}
			for c.dueAt < len(c.queue) && reqs[c.queue[c.dueAt]].due <= now {
				c.dueAt++
			}
			if c.cur < 0 && c.next < c.dueAt {
				i := c.queue[c.next]
				c.next++
				t := monoNow() - start
				ready := max(reqs[i].due, c.free)
				res.out[i].lag, res.out[i].backlog = t-ready, backlog
				if _, err := c.nc.Write(reqs[i].wire); err != nil {
					return res, fmt.Errorf("generator: %s: %w", reqs[i].path(), err)
				}
				c.cur = i
			}
			due += c.dueAt - c.next
		}
		backlog = due
		res.backlogMax = max(res.backlogMax, backlog)
		if abortBacklog > 0 && backlog > abortBacklog {
			for _, c := range conns {
				for _, i := range c.queue[c.next:] {
					res.out[i].status = -1
					remaining--
				}
				c.next = len(c.queue)
				c.dueAt = c.next
			}
			abortBacklog = 0
		}
		// Wait for a response or until the spin window before the next
		// due time (or the timed window's start), whichever comes first.
		next := deadline
		for _, c := range conns {
			if c.next < len(c.queue) {
				next = min(next, reqs[c.queue[c.next]].due)
			}
		}
		if mark != nil {
			next = min(next, markAt)
		}
		if wait := time.Duration(next-(monoNow()-start)) - spinWindow; remaining > 0 && wait > 0 {
			if err := epollWait(epfd, events, wait); err != nil {
				return res, fmt.Errorf("generator: epoll wait: %w", err)
			}
		}
	}
	if mark != nil {
		mark()
	}
	return res, nil
}
